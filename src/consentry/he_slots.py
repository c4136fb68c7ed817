"""Slot-vector homomorphic arithmetic behind a swappable engine interface.

The built-in :class:`SlotBackend` stores payloads in the clear but enforces
capability-based access control, provenance (taint) tracking and an
append-only ledger of decryptions.  It is NOT cryptographically secure;
privacy guarantees of the protocols built on top of it are tested as
information-flow properties, checked as each decryption and possession is
recorded.  A real lattice-crypto library can be substituted behind
:class:`SlotEngine` without touching protocol code.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np


class AccessDeniedError(Exception):
    """Decryption attempted with a secret that does not match the ciphertext."""


class KeyMismatchError(Exception):
    """Ciphertext operands are encrypted under different keys."""


class MissingRotationKeysError(Exception):
    """The ciphertext's key was generated without rotation capability."""


def next_power_of_two(x: int) -> int:
    n = 1
    while n < x:
        n <<= 1
    return n


def slot_capacity_for(n: int) -> int:
    """Smallest legal slot capacity (power of two, >= 2) that can hold n values."""
    return next_power_of_two(max(2, n))


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
    def zeros(cls, capacity: int) -> "SlotVector":
        return cls(np.zeros(capacity))

    @classmethod
    def ones(cls, capacity: int) -> "SlotVector":
        return cls(np.ones(capacity))

    @classmethod
    def impulse(cls, capacity: int, index: int, value: float = 1.0) -> "SlotVector":
        """Vector that is `value` at `index` and zero elsewhere."""
        arr = np.zeros(capacity)
        arr[index] = value
        return cls(arr)

    @property
    def values(self) -> np.ndarray:
        return self._values

    def to_list(self) -> list[float]:
        return [float(x) for x in self._values]

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, i):
        return float(self._values[i])

    def __iter__(self):
        return iter(self._values)

    def __eq__(self, other):
        if not isinstance(other, SlotVector):
            return NotImplemented
        return np.array_equal(self._values, other._values)

    def __repr__(self):
        return f"SlotVector({self.to_list()!r})"


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

    __slots__ = ("tags", "bits", "owned")

    def __init__(self):
        self.tags: list = []
        self.bits: dict = {}
        self.owned: dict = {}

    def intern(self, tag) -> int:
        """The one-bit mask of `tag`, assigning the next bit to a new tag."""
        bit = self.bits.get(tag)
        if bit is None:
            bit = 1 << len(self.tags)
            self.tags.append(tag)
            self.bits[tag] = bit
            try:
                owner = tag[0]
            except (TypeError, IndexError, KeyError):
                return bit
            self.owned[owner] = self.owned.get(owner, 0) | bit
        return bit

    def tags_of(self, mask: int) -> frozenset:
        """The tags whose bits are set in `mask`."""
        tags = self.tags
        out = []
        while mask:
            low = mask & -mask
            out.append(tags[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)


class Ciphertext:
    """Opaque handle to an encrypted slot vector.

    The payload is reachable only through :meth:`SlotBackend.decrypt` (audited,
    access-controlled) or the test-only introspection hook.  `taint_mask`
    records which raw inputs flowed into this value, as bits of
    `tag_table` (its backend's), and `taint` reads it as a frozenset of tags;
    `prepared` marks aggregates whose decryption reveals only protocol-level
    results and is set exclusively by the sanctioned prepare/complete steps
    of the protocol layer.
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
        payload.flags.writeable = False
        self._payload = payload

    @property
    def taint(self) -> frozenset:
        """The tags of the raw inputs that flowed into this value."""
        return self.tag_table.tags_of(self.taint_mask)

    def __repr__(self):
        return (f"Ciphertext(handle={self.handle}, key={self.key_id!r}, "
                f"slots={len(self._payload)}, depth={self.depth}, "
                f"prepared={self.prepared})")


class AuditEvent(NamedTuple):
    """One ledger entry: a decryption attempt.

    It names the ciphertext by handle and holds no reference to it; it keeps
    the ciphertext's taint mask and tag table, and `taint` reads them as a
    frozenset of tags.
    """

    kind: str            # "decrypt" | "decrypt-denied"
    observer: object
    handle: int
    key_id: str
    taint_mask: int
    tag_table: TagTable
    prepared: bool

    @property
    def taint(self) -> frozenset:
        return self.tag_table.tags_of(self.taint_mask)


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
    def keygen(self, holder, with_rotation: bool = True) -> KeyMaterial: ...

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
    only: who came to hold what is the simulator's delivery log.

    Each `encrypt` tag is interned to one bit of the backend's `TagTable`,
    so combining two ciphertexts ORs their taint masks; operands interned in
    different tables raise `KeyMismatchError`.
    """

    def __init__(self, config: BackendConfig, seed: int | None = None):
        self.config = config
        self._rng = np.random.default_rng(seed)
        self._holders: dict[str, object] = {}
        self._rotation_ok: dict[str, bool] = {}
        self._events: list[AuditEvent] = []
        self._violations: list[PrivacyViolation] = []
        self._tag_table = TagTable()
        self._key_seq = 0
        self._handle_seq = 0

    # -- keys ------------------------------------------------------------

    def keygen(self, holder, with_rotation: bool = True) -> KeyMaterial:
        self._key_seq += 1
        key_id = f"key{self._key_seq:02d}-{int(self._rng.integers(0, 2**32)):08x}"
        self._holders[key_id] = holder
        self._rotation_ok[key_id] = bool(with_rotation)
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
        return self._fresh(public_part.key_id, np.array(vector.values),
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
        self._check_pair(a, b, "add_ct")
        return self._fresh(a.key_id, a._payload + b._payload,
                           a.taint_mask | b.taint_mask, a.tag_table,
                           depth=max(a.depth, b.depth),
                           noise_bound=a.noise_bound + b.noise_bound)

    def mult_pt(self, a: Ciphertext, p: SlotVector) -> Ciphertext:
        self._check_len(p)
        scale = float(np.max(np.abs(p.values))) if len(p) else 0.0
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
        if not self._rotation_ok.get(a.key_id, False):
            raise MissingRotationKeysError(f"no rotation keys for {a.key_id!r}")
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
        raises before anything is drawn."""
        rows = list(rows)
        if not rows:
            return tuple(accs)
        width = len(accs)
        if set(map(len, rows)) != {width}:
            raise ValueError(f"add_many rows must have {width} channel(s)")
        eps = self.config.noise_epsilon
        folded = []
        for acc, col in zip(accs, zip(*rows)):
            key, table = acc.key_id, acc.tag_table
            mask, depth, bound = acc.taint_mask, acc.depth, acc.noise_bound
            for ct in col:
                if ct.key_id != key:
                    raise KeyMismatchError("add_many operands under different keys")
                if ct.tag_table is not table:
                    raise KeyMismatchError("add_many operands from different tag tables")
                mask |= ct.taint_mask
                if ct.depth > depth:
                    depth = ct.depth
                bound = bound + ct.noise_bound + eps
            folded.append((acc, col, mask, depth, bound))
        noise = (self._rng.uniform(-eps, eps, size=(len(rows), width, len(accs[0]._payload)))
                 if eps > 0 else None)
        seq = self._handle_seq + (len(rows) - 1) * width
        out = []
        for c, (acc, col, mask, depth, bound) in enumerate(folded):
            payload = acc._payload + col[0]._payload
            for i, ct in enumerate(col):
                if i:
                    payload += ct._payload
                if noise is not None:
                    payload += noise[i, c]
            out.append(Ciphertext(acc.key_id, payload, mask, acc.tag_table, False,
                                  depth, bound, seq + c + 1))
        self._handle_seq += len(rows) * width
        return tuple(out)

    def rotate_sum(self, a: Ciphertext) -> Ciphertext:
        """The `rotate`/`add_ct` loop, bit for bit: the same payload, noise
        draws, bound and handles."""
        if not self._rotation_ok.get(a.key_id, False):
            raise MissingRotationKeysError(f"no rotation keys for {a.key_id!r}")
        eps = self.config.noise_epsilon
        payload, bound = a._payload, a.noise_bound
        cap = len(payload)
        levels = cap.bit_length() - 1
        for i in range(levels - 1, -1, -1):
            k = 2 ** i
            rotated = np.concatenate((payload[k:], payload[:k]))
            if eps > 0:
                rotated += self._rng.uniform(-eps, eps, size=cap)
            payload = payload + rotated
            if eps > 0:
                payload += self._rng.uniform(-eps, eps, size=cap)
            bound = bound + (bound + eps) + eps
        self._handle_seq += 2 * levels
        return Ciphertext(a.key_id, payload, a.taint_mask, a.tag_table, False,
                          a.depth, bound, self._handle_seq)

    def mark_prepared(self, ct: Ciphertext) -> Ciphertext:
        """Flag an aggregate as safe to decrypt.

        Called only by the sanctioned protocol steps: the prepare-phase
        rotate-sum and the election completeness check (both of which
        compose already-aggregate values).
        """
        return Ciphertext(ct.key_id, ct._payload, ct.taint_mask, ct.tag_table,
                          True, ct.depth, ct.noise_bound, ct.handle)

    # -- ledger and introspection (simulator and tests, not protocol code) -

    def _log(self, kind, observer, ct: Ciphertext):
        self._events.append(AuditEvent(kind, observer, ct.handle, ct.key_id,
                                       ct.taint_mask, ct.tag_table, ct.prepared))

    def _check_exposure(self, kind, holder, ct: Ciphertext):
        """Flag `holder`, the holder of `ct`'s key, seeing it while it is not
        prepared and carries other processes' inputs."""
        if not ct.prepared and ct.taint_mask & ~ct.tag_table.owned.get(holder, 0):
            self._violations.append(PrivacyViolation(
                "unprepared-exposure", holder,
                f"keyholder saw raw aggregate {ct.handle} (kind={kind})"))

    def key_holders(self) -> frozenset:
        """Every actor that holds a key.  Keys are made at `keygen`, before a
        simulation runs, so the set is fixed for the run."""
        return frozenset(self._holders.values())

    def record_possession(self, observer, ct: Ciphertext):
        """The simulator's call for `observer` coming to hold `ct`: flags the
        key's holder seeing an unprepared aggregate.  It acts only when
        `observer` holds `ct`'s key, so the simulator calls it for
        deliveries to `key_holders()` alone.  It keeps no ledger entry; the
        simulator's delivery log is the record of possession."""
        if self._holders.get(ct.key_id) == observer:
            self._check_exposure("possess", observer, ct)

    def events(self) -> tuple[AuditEvent, ...]:
        return tuple(self._events)

    def violations(self) -> list[PrivacyViolation]:
        """Ledger-rule violations flagged so far, in event order."""
        return list(self._violations)

    def inspect_payload(self, ct: Ciphertext) -> np.ndarray:
        """Test/introspection hook: raw payload, bypassing access control.

        Never used by protocol code; reads are not audit events.
        """
        return np.array(ct._payload)


def seeded_backend(slot_capacity: int, noise_epsilon: float, seed: int) -> SlotBackend:
    """The simulated engine of one run, its randomness derived from the run's seed."""
    return SlotBackend(BackendConfig(slot_capacity, noise_epsilon),
                       seed=seed * 104729 + 7)
