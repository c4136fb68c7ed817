"""Slot-vector homomorphic arithmetic behind a swappable engine interface.

The built-in :class:`SlotBackend` stores payloads in the clear but enforces
capability-based access control, provenance (taint) tracking and an
append-only ledger of decryptions.  It is NOT cryptographically secure;
privacy guarantees of the protocols built on top of it are tested as
information-flow properties, checked as each decryption and possession is
recorded.  A real lattice-crypto library can be substituted behind
:class:`SlotEngine` without touching protocol code.

`rotate_sum` draws its noise, takes its handles and computes its noise bound
when it is called, but sums its payload only the first time the payload is
read (by `decrypt` or another engine op), and at most once, for the
result and its `mark_prepared` copy together; a prepared aggregate that no
keyholder opens is never summed.
"""

from __future__ import annotations

import abc
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np


class AccessDeniedError(Exception):
    """Decryption attempted with a secret that does not match the ciphertext."""


class KeyMismatchError(Exception):
    """Ciphertext operands are encrypted under different keys."""


def slot_capacity_for(n: int) -> int:
    """Smallest legal slot capacity (power of two, >= 2) that can hold n values."""
    return 1 << (max(2, n) - 1).bit_length()


#: the largest `noise_epsilon`: noise is drawn from [-eps, eps], whose width
#: 2 * eps must be a finite float
MAX_NOISE_EPSILON = sys.float_info.max / 2


@dataclass(frozen=True)
class BackendConfig:
    """Backend parameters: slot count and per-operation additive error bound."""

    slot_capacity: int
    noise_epsilon: float = 0.0

    def __post_init__(self):
        c = self.slot_capacity
        if c < 2 or (c & (c - 1)) != 0:
            raise ValueError(f"slot_capacity must be a power of two >= 2, got {c}")
        if self.noise_epsilon < 0:
            raise ValueError("noise_epsilon must be >= 0")
        if not self.noise_epsilon <= MAX_NOISE_EPSILON:
            raise ValueError(f"noise_epsilon must be at most {MAX_NOISE_EPSILON!r}, "
                             f"got {self.noise_epsilon!r}")


class SlotVector:
    """Fixed-length vector of reals occupying the backend's slots."""

    __slots__ = ("_values",)

    def __init__(self, values: Sequence[float] | np.ndarray):
        arr = np.array(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("SlotVector must be one-dimensional")
        arr.setflags(write=False)
        self._values = arr

    @classmethod
    def impulse(cls, capacity: int, index: int, value: float = 1.0) -> "SlotVector":
        """Vector that is `value` at `index` and zero elsewhere."""
        arr = np.zeros(capacity)
        arr[index] = value
        return cls(arr)

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __len__(self) -> int:
        return len(self._values)


@dataclass(frozen=True)
class PublicPart:
    key_id: str


@dataclass(frozen=True)
class SecretPart:
    key_id: str
    holder: object


@dataclass(frozen=True)
class KeyMaterial:
    """Key triple bound to the holder process designated at generation."""

    key_id: str
    holder: object
    public_part: PublicPart
    secret_part: SecretPart


class TagTable:
    """Interns taint tags: the i-th tag interned is bit i of a taint mask.

    `owned[o]` is the OR of the bits of the tags whose first element is `o`,
    so a mask holds only `o`'s inputs iff `mask & ~owned.get(o, 0)` is 0.
    A tag without a first element is owned by no one.
    """

    __slots__ = ("bits", "owned")

    def __init__(self):
        self.bits: dict = {}
        self.owned: dict = {}

    def intern(self, tag) -> int:
        """The one-bit mask of `tag`, assigning the next bit to a new tag."""
        bit = self.bits.get(tag)
        if bit is None:
            bit = 1 << len(self.bits)
            self.bits[tag] = bit
            try:
                owner = tag[0]
            except (TypeError, IndexError, KeyError):
                return bit
            self.owned[owner] = self.owned.get(owner, 0) | bit
        return bit


class Ciphertext:
    """Opaque handle to an encrypted slot vector.

    The payload is reachable only through :meth:`SlotBackend.decrypt` (audited,
    access-controlled).  `taint_mask` records which raw inputs flowed into
    this value, as bits of `tag_table` (its backend's); `prepared` marks
    aggregates whose decryption reveals only protocol-level results and is
    set exclusively by the sanctioned prepare/complete steps of the protocol
    layer.
    """

    __slots__ = ("key_id", "taint_mask", "tag_table", "prepared", "depth",
                 "noise_bound", "handle", "_payload")

    def __init__(self, key_id, payload: np.ndarray, taint_mask: int,
                 tag_table: TagTable, prepared: bool, depth: int,
                 noise_bound: float, handle: int):
        # the backend passes every field in its stored type; only freeze
        self.key_id = key_id
        self.taint_mask = taint_mask
        self.tag_table = tag_table
        self.prepared = prepared
        self.depth = depth
        self.noise_bound = noise_bound
        self.handle = handle
        payload.setflags(write=False)
        self._payload = payload

    def _slot_count(self) -> int:
        return len(self._payload)

    def __repr__(self):
        return (f"Ciphertext(handle={self.handle}, key={self.key_id!r}, "
                f"slots={self._slot_count()}, depth={self.depth}, "
                f"prepared={self.prepared})")


#: the number of arrays from which `sum_in_order` adds them in one numpy call
WIDE = 12


def sum_in_order(arrays) -> np.ndarray:
    """`arrays[0] + arrays[1] + ...` for two or more one-dimensional float64
    arrays of one length, added left to right into a new array.  Below
    `WIDE` arrays the sum is a loop of in-place adds; from `WIDE` on it is
    one axis-0 `np.add.reduce` over the arrays stacked as rows, which adds
    the rows in order (not pairwise), so the bits are the loop's and one
    call replaces many small ones.  The rows are stacked by one join of
    their bytes, which copies them faster than `concatenate` or `np.array`
    of the list; every operand is C-contiguous, so the bytes are its
    values in order."""
    if len(arrays) < WIDE:
        out = arrays[0] + arrays[1]
        for a in arrays[2:]:
            out += a
        return out
    rows = np.frombuffer(b"".join(arrays), np.float64)
    return np.add.reduce(rows.reshape(len(arrays), len(arrays[0])))


def _rotate_add(payload: np.ndarray, noise) -> np.ndarray:
    """The payload of the `rotate`/`add_ct` loop of a rotate-sum: at each
    level, from the widest rotation down, add the rotation's noise row to
    the rotated payload, add that to the payload, then add the sum's row."""
    levels = len(payload).bit_length() - 1
    for j in range(levels):
        k = 2 ** (levels - 1 - j)
        rotated = np.concatenate((payload[k:], payload[:k]))
        if noise is not None:
            rotated += noise[j, 0]
        payload = payload + rotated
        if noise is not None:
            payload += noise[j, 1]
    payload.setflags(write=False)
    return payload


class _PendingSum:
    """A rotate-sum's payload, summed by `read` the first time it is needed
    and kept; the source and the noise drawn at the call are then dropped."""

    __slots__ = ("source", "noise", "payload")

    def __init__(self, source: np.ndarray, noise):
        self.source, self.noise, self.payload = source, noise, None

    def __len__(self):
        return len(self.source if self.payload is None else self.payload)

    def read(self) -> np.ndarray:
        if self.payload is None:
            self.payload = _rotate_add(self.source, self.noise)
            self.source = self.noise = None
        return self.payload


class _SummedCiphertext(Ciphertext):
    """A `rotate_sum` result: it holds a `_PendingSum` where a ciphertext
    holds its payload, shared with its `mark_prepared` copy, and `_payload`
    reads it."""

    __slots__ = ("_sum",)

    def __init__(self, key_id, pending: _PendingSum, taint_mask: int,
                 tag_table: TagTable, prepared: bool, depth: int,
                 noise_bound: float, handle: int):
        self.key_id = key_id
        self.taint_mask = taint_mask
        self.tag_table = tag_table
        self.prepared = prepared
        self.depth = depth
        self.noise_bound = noise_bound
        self.handle = handle
        self._sum = pending

    @property
    def _payload(self) -> np.ndarray:
        return self._sum.read()

    def _slot_count(self) -> int:
        return len(self._sum)


class AuditEvent(NamedTuple):
    """One ledger entry: a decryption attempt.

    It names the ciphertext by handle and holds no reference to it; it keeps
    the ciphertext's taint mask.
    """

    kind: str            # "decrypt" | "decrypt-denied"
    observer: object
    handle: int
    key_id: str
    taint_mask: int
    prepared: bool


@dataclass
class PrivacyViolation:
    """One breach of an audit rule, flagged when its event happened."""

    rule: str
    observer: object
    detail: str

    def as_dict(self) -> dict:
        return {"rule": self.rule, "observer": str(self.observer), "detail": self.detail}


class SlotEngine(abc.ABC):
    """Adapter seam: exactly the operations protocol code may use.

    A production homomorphic-encryption backend implements this interface;
    protocol modules use no engine member beyond the ones declared here.
    The simulated backend audits deliveries to keyholders (reported by the
    simulator) and decryptions as they happen, flagging a decryption by
    anyone but the key's holder and a holder's exposure to an unprepared
    aggregate of other processes' inputs; protocol code makes no ledger
    calls.  `add_many` and `rotate_sum` each stand for a fixed sequence of
    `add_ct` and `rotate` calls, which they must equal bit for bit, so that
    a protocol folds a delivery batch, or rotate-sums a prepare, in one call.
    """

    #: engine parameters; protocol code reads `config.slot_capacity`
    config: BackendConfig

    @abc.abstractmethod
    def keygen(self, holder) -> KeyMaterial: ...

    @abc.abstractmethod
    def encrypt(self, public_part: PublicPart, vector: SlotVector, tag) -> Ciphertext: ...

    @abc.abstractmethod
    def decrypt(self, secret_part: SecretPart, ct: Ciphertext, caller=None) -> SlotVector: ...

    @abc.abstractmethod
    def add_ct(self, a: Ciphertext, b: Ciphertext) -> Ciphertext: ...

    @abc.abstractmethod
    def mult_pt(self, a: Ciphertext, p: SlotVector) -> Ciphertext: ...

    @abc.abstractmethod
    def mult_ct(self, a: Ciphertext, b: Ciphertext) -> Ciphertext: ...

    @abc.abstractmethod
    def rotate(self, a: Ciphertext, amount: int) -> Ciphertext: ...

    @abc.abstractmethod
    def add_many(self, accs: tuple, rows) -> tuple:
        """Fold each row of ciphertexts into the accumulators `accs`, channel
        by channel: `accs[c] = add_ct(accs[c], row[c])` for each row in
        order (OpenFHE's `EvalAddMany`, SEAL's `Evaluator::add_many`)."""

    @abc.abstractmethod
    def rotate_sum(self, a: Ciphertext) -> Ciphertext:
        """Sum every slot into every slot: `a = add_ct(a, rotate(a, 2**i))`
        for i from log2(capacity) - 1 down to 0 (OpenFHE's `EvalSum`)."""

    @abc.abstractmethod
    def mark_prepared(self, ct: Ciphertext) -> Ciphertext: ...


class SlotBackend(SlotEngine):
    """Cleartext-simulating engine with taint tracking and a decrypt ledger.

    Deterministic under a supplied seed (key ids, handles and emulated noise
    all derive from it).  With ``noise_epsilon`` = 0 all operations are exact;
    otherwise every operation adds per-slot uniform noise in [-eps, +eps] and
    each ciphertext carries a rigorously tracked cumulative `noise_bound`.

    The ledger rules are checked when a decryption or a possession is
    recorded, since a key's holder is fixed at `keygen`; `violations()`
    lists what they flagged, in event order.  `events()` keeps decryptions
    only: a possession is checked when it is reported, and not kept.

    Each `encrypt` tag is interned to one bit of the backend's `TagTable`,
    so combining two ciphertexts ORs their taint masks; operands interned in
    different tables raise `KeyMismatchError`.
    """

    def __init__(self, config: BackendConfig, seed: int | None = None):
        self.config = config
        self._rng = np.random.default_rng(seed)
        self._holders: dict[str, object] = {}
        self._events: list[AuditEvent] = []
        self._violations: list[PrivacyViolation] = []
        self._tag_table = TagTable()
        self._key_seq = 0
        self._handle_seq = 0

    # -- keys ------------------------------------------------------------

    def keygen(self, holder) -> KeyMaterial:
        self._key_seq += 1
        key_id = f"key{self._key_seq:02d}-{int(self._rng.integers(0, 2**32)):08x}"
        self._holders[key_id] = holder
        return KeyMaterial(
            key_id=key_id,
            holder=holder,
            public_part=PublicPart(key_id),
            secret_part=SecretPart(key_id, holder),
        )

    # -- ciphertext construction -----------------------------------------

    def _fresh(self, key_id, payload, taint_mask, tag_table, depth,
               noise_bound) -> Ciphertext:
        eps = self.config.noise_epsilon
        if eps > 0:
            payload = payload + self._rng.uniform(-eps, eps, size=payload.shape)
        self._handle_seq += 1
        return Ciphertext(key_id, payload, taint_mask, tag_table, False, depth,
                          noise_bound + eps, self._handle_seq)

    @staticmethod
    def _check_pair(a: Ciphertext, b: Ciphertext, op: str):
        if a.key_id != b.key_id:
            raise KeyMismatchError(f"{op} operands under different keys")
        if a.tag_table is not b.tag_table:
            raise KeyMismatchError(f"{op} operands from different tag tables")

    def _check_len(self, vec: SlotVector):
        if len(vec) != self.config.slot_capacity:
            raise ValueError(
                f"vector length {len(vec)} != slot capacity {self.config.slot_capacity}")

    # -- engine operations ---------------------------------------------

    def encrypt(self, public_part: PublicPart, vector: SlotVector, tag) -> Ciphertext:
        self._check_len(vector)
        if public_part.key_id not in self._holders:
            raise KeyMismatchError(f"unknown key {public_part.key_id!r}")
        table = self._tag_table
        # the vector's read-only array: noise, when on, makes a new one
        return self._fresh(public_part.key_id, vector.values,
                           table.intern(tag), table, depth=0, noise_bound=0.0)

    def decrypt(self, secret_part: SecretPart, ct: Ciphertext, caller=None) -> SlotVector:
        observer = caller if caller is not None else secret_part.holder
        if not isinstance(secret_part, SecretPart) or secret_part.key_id != ct.key_id:
            self._log("decrypt-denied", observer, ct)
            raise AccessDeniedError(
                f"secret for {getattr(secret_part, 'key_id', None)!r} cannot decrypt "
                f"ciphertext under {ct.key_id!r}")
        self._log("decrypt", observer, ct)
        holder = self._holders.get(ct.key_id)
        if observer != holder:
            self._violations.append(PrivacyViolation(
                "foreign-decrypt", observer,
                f"decrypted ciphertext {ct.handle} held by {holder!r}"))
        else:
            self._check_exposure("decrypt", observer, ct)
        return SlotVector(ct._payload)

    def add_ct(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        # `_check_pair` then `_fresh`, inline: the same checks, noise draw,
        # bound and handle
        key, table = a.key_id, a.tag_table
        if key != b.key_id:
            raise KeyMismatchError("add_ct operands under different keys")
        if b.tag_table is not table:
            raise KeyMismatchError("add_ct operands from different tag tables")
        payload = a._payload + b._payload
        eps = self.config.noise_epsilon
        if eps > 0:
            payload += self._rng.uniform(-eps, eps, size=payload.shape)
        self._handle_seq += 1
        return Ciphertext(key, payload, a.taint_mask | b.taint_mask, table, False,
                          a.depth if a.depth >= b.depth else b.depth,
                          a.noise_bound + b.noise_bound + eps, self._handle_seq)

    def mult_pt(self, a: Ciphertext, p: SlotVector) -> Ciphertext:
        self._check_len(p)
        scale = float(np.abs(p.values).max())
        return self._fresh(a.key_id, a._payload * p.values,
                           a.taint_mask, a.tag_table,
                           depth=a.depth + 1,
                           noise_bound=a.noise_bound * scale)

    def mult_ct(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_pair(a, b, "mult_ct")
        # |err| <= |a|nb_b + |b|nb_a + nb_a*nb_b, with |a| <= max|stored| + nb_a
        ma = float(np.max(np.abs(a._payload)))
        mb = float(np.max(np.abs(b._payload)))
        bound = ((ma + a.noise_bound) * b.noise_bound
                 + (mb + b.noise_bound) * a.noise_bound
                 + a.noise_bound * b.noise_bound)
        return self._fresh(a.key_id, a._payload * b._payload,
                           a.taint_mask | b.taint_mask, a.tag_table,
                           depth=max(a.depth, b.depth) + 1,
                           noise_bound=bound)

    def rotate(self, a: Ciphertext, amount: int) -> Ciphertext:
        # np.roll(payload, -amount), by slicing
        payload = a._payload
        k = int(amount) % len(payload)
        return self._fresh(a.key_id, np.concatenate((payload[k:], payload[:k])),
                           a.taint_mask, a.tag_table,
                           depth=a.depth,
                           noise_bound=a.noise_bound)

    def add_many(self, accs: tuple, rows) -> tuple:
        """The nested `add_ct` calls, bit for bit: the same payloads, noise
        draws (row by row, channel by channel), bounds, depths, taint and
        handles.  A ragged row or an operand under another key or tag table
        raises before anything is drawn.  Each channel is checked in one pass
        over the rows, which gathers its terms in the nested calls' order (the
        accumulator, then each row's payload and, with noise on, that row's
        noise), and `sum_in_order` adds them: a wide batch in one numpy call.
        With noise on, every operand is checked first, since the one draw
        comes before any sum."""
        rows = list(rows)
        if not rows:
            return tuple(accs)
        width = len(accs)
        for row in rows:
            if len(row) != width:
                raise ValueError(f"add_many rows must have {width} channel(s)")
        eps = self.config.noise_epsilon
        noise = None
        if eps > 0:
            for c, acc in enumerate(accs):
                for row in rows:
                    self._check_pair(acc, row[c], "add_many")
            noise = self._rng.uniform(-eps, eps, size=(len(rows), width, len(accs[0]._payload)))
        seq = self._handle_seq + (len(rows) - 1) * width
        out = []
        for c, acc in enumerate(accs):
            key, table = acc.key_id, acc.tag_table
            mask, depth, bound = acc.taint_mask, acc.depth, acc.noise_bound
            terms = [acc._payload]
            for i, row in enumerate(rows):
                ct = row[c]
                if ct.key_id != key:
                    raise KeyMismatchError("add_many operands under different keys")
                if ct.tag_table is not table:
                    raise KeyMismatchError("add_many operands from different tag tables")
                mask |= ct.taint_mask
                if ct.depth > depth:
                    depth = ct.depth
                bound = bound + ct.noise_bound + eps
                terms.append(ct._payload)
                if noise is not None:
                    terms.append(noise[i, c])
            out.append(Ciphertext(key, sum_in_order(terms), mask, table, False, depth,
                                  bound, seq + c + 1))
        self._handle_seq += len(rows) * width
        return tuple(out)

    def rotate_sum(self, a: Ciphertext) -> Ciphertext:
        """The `rotate`/`add_ct` loop, bit for bit: the same payload, noise
        draws, bound and handles.  The noise is drawn, in one call, and the
        handles taken now; the payload is summed when first read."""
        eps = self.config.noise_epsilon
        payload, bound = a._payload, a.noise_bound
        levels = len(payload).bit_length() - 1
        noise = (self._rng.uniform(-eps, eps, size=(levels, 2, len(payload)))
                 if eps > 0 else None)
        for _ in range(levels):
            bound = bound + (bound + eps) + eps
        self._handle_seq += 2 * levels
        return _SummedCiphertext(a.key_id, _PendingSum(payload, noise),
                                 a.taint_mask, a.tag_table, False, a.depth,
                                 bound, self._handle_seq)

    def mark_prepared(self, ct: Ciphertext) -> Ciphertext:
        """Flag an aggregate as safe to decrypt.

        Called only by the sanctioned protocol steps: the prepare-phase
        rotate-sum and the election completeness check (both of which
        compose already-aggregate values).
        """
        if type(ct) is _SummedCiphertext:     # share the sum, not force it
            return _SummedCiphertext(ct.key_id, ct._sum, ct.taint_mask, ct.tag_table,
                                     True, ct.depth, ct.noise_bound, ct.handle)
        return Ciphertext(ct.key_id, ct._payload, ct.taint_mask, ct.tag_table,
                          True, ct.depth, ct.noise_bound, ct.handle)

    # -- ledger (simulator, not protocol code) ------------------------------

    def _log(self, kind, observer, ct: Ciphertext):
        self._events.append(AuditEvent(kind, observer, ct.handle, ct.key_id,
                                       ct.taint_mask, ct.prepared))

    def _check_exposure(self, kind, holder, ct: Ciphertext):
        """Flag `holder`, the holder of `ct`'s key, seeing it while it is not
        prepared and carries other processes' inputs."""
        if not ct.prepared and ct.taint_mask & ~ct.tag_table.owned.get(holder, 0):
            self._violations.append(PrivacyViolation(
                "unprepared-exposure", holder,
                f"keyholder saw raw aggregate {ct.handle} (kind={kind})"))

    def key_holders(self) -> dict:
        """A copy of the map from each key id to its holder.  Keys are made at
        `keygen`, before a simulation runs, so the map is fixed for the run."""
        return dict(self._holders)

    def record_possession(self, observer, ct: Ciphertext):
        """The simulator's call for `observer` coming to hold `ct`: flags the
        key's holder seeing an unprepared aggregate.  It acts only when
        `observer` holds `ct`'s key, so the simulator calls it only for a
        ciphertext under a key `key_holders()` maps to `observer`.  It
        keeps no ledger entry."""
        if self._holders.get(ct.key_id) == observer:
            self._check_exposure("possess", observer, ct)

    def events(self) -> tuple[AuditEvent, ...]:
        return tuple(self._events)

    def violations(self) -> list[PrivacyViolation]:
        """Ledger-rule violations flagged so far, in event order."""
        return list(self._violations)


def seeded_backend(slot_capacity: int, noise_epsilon: float, seed: int) -> SlotBackend:
    """The simulated engine of one run, its randomness derived from the run's seed."""
    return SlotBackend(BackendConfig(slot_capacity, noise_epsilon),
                       seed=seed * 104729 + 7)
