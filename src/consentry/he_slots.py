"""Slot-vector homomorphic arithmetic behind a swappable engine interface.

The built-in :class:`SlotBackend` stores payloads in the clear but enforces
capability-based access control, provenance (taint) tracking and an
append-only ledger of decryptions.  It is NOT cryptographically secure;
privacy guarantees of the protocols built on top of it are tested as
information-flow properties, checked as each decryption and possession is
recorded.  A real lattice-crypto library can be substituted behind
:class:`SlotEngine` without touching protocol code.

`weighted_rotate_sum`, the one deferred op, takes its handles and keeps the
noise stream's state when called; the first read of its payload or bound (by
`decrypt` or another op) replays its `mult_pt` and `rotate`/`add_ct` calls
from that state on a private engine, so an unread prepare computes nothing.
"""

from __future__ import annotations

import abc
import functools
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

    Each tag is an `(owner, label)` pair.  `owned[o]` is the OR of the bits
    of the tags whose owner is `o`, so a mask holds only `o`'s inputs iff
    `mask & ~owned.get(o, 0)` is 0.
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
            self.owned[tag[0]] = self.owned.get(tag[0], 0) | bit
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


class _PreparedSum(Ciphertext):
    """A `weighted_rotate_sum` result: the source, the weights recipe, the
    engine to replay on and, with noise on, the stream's state at the call.
    The first read of its payload or bound runs the `mult_pt` and
    `rotate`/`add_ct` calls there, keeps the result and drops the rest."""

    __slots__ = ("_source", "_weights", "_engine", "_state", "_sum")

    def __init__(self, a: Ciphertext, weights, engine: SlotBackend, state, handle: int):
        self.key_id, self.taint_mask, self.tag_table = a.key_id, a.taint_mask, a.tag_table
        self.prepared, self.depth, self.handle = True, a.depth + 1, handle
        self._source, self._weights, self._engine, self._state = a, weights, engine, state
        self._sum = None

    def _read(self) -> Ciphertext:
        if self._sum is None:
            engine, source = self._engine, self._source
            source.noise_bound          # a deferred source replays first, on the same engine
            if self._state is not None:
                engine._rng.bit_generator.state = self._state
            ct = engine.mult_pt(source, self._weights())
            amount = engine.config.slot_capacity // 2
            while amount:
                ct = engine.add_ct(ct, engine.rotate(ct, amount))
                amount //= 2
            self._sum = ct
            self._source = self._weights = self._engine = self._state = None
        return self._sum

    @property
    def _payload(self) -> np.ndarray:
        return self._read()._payload

    @property
    def noise_bound(self) -> float:
        return self._read().noise_bound

    def _slot_count(self) -> int:
        return (self._source if self._sum is None else self._sum)._slot_count()


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
    calls.  `add_many` and `weighted_rotate_sum` each stand for a fixed
    sequence of calls, which they must equal bit for bit, so that a
    protocol folds a delivery batch, or prepares an aggregate, in one call;
    `SlotBackend` defers the second one's weights and sum until opened.
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
    def add_many(self, accs: tuple, rows) -> tuple:
        """Fold each row of ciphertexts into the accumulators `accs`, channel
        by channel: `accs[c] = add_ct(accs[c], row[c])` for each row in
        order (OpenFHE's `EvalAddMany`, SEAL's `Evaluator::add_many`)."""

    @abc.abstractmethod
    def weighted_rotate_sum(self, a: Ciphertext, weights, length: int) -> Ciphertext:
        """`mark_prepared(rotate_sum(mult_pt(a, weights())))`, where `weights`
        is a zero-argument callable returning the `length`-slot plaintext and
        `rotate_sum(a)` is `a = add_ct(a, rotate(a, 2**i))` for i from
        log2(capacity) - 1 down to 0 (OpenFHE's `EvalSum`)."""

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

    def _check_len(self, length: int):
        if length != self.config.slot_capacity:
            raise ValueError(
                f"vector length {length} != slot capacity {self.config.slot_capacity}")

    # -- engine operations ---------------------------------------------

    def encrypt(self, public_part: PublicPart, vector: SlotVector, tag) -> Ciphertext:
        self._check_len(len(vector))
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
        self._check_len(len(p))
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
        # not in the seam: a step of the loop `weighted_rotate_sum` stands for
        # and replays when read; np.roll(payload, -amount), by slicing
        payload = a._payload
        k = int(amount) % len(payload)
        return self._fresh(a.key_id, np.concatenate((payload[k:], payload[:k])),
                           a.taint_mask, a.tag_table,
                           depth=a.depth,
                           noise_bound=a.noise_bound)

    def add_many(self, accs: tuple, rows) -> tuple:
        """The nested `add_ct` calls, bit for bit: the same payloads, noise
        draws (row by row, channel by channel), bounds, depths, taint and
        handles.  One pass over the operands, channel by channel and row by
        row, checks each one's key and tag table and gathers its payload; a
        ragged row, then a mismatched operand, raises before anything is
        drawn or numbered, at every noise level.  With noise on, the one draw
        follows that pass and each row's noise goes in after its payload, the
        nested calls' order; `sum_in_order` then adds each channel's terms: a
        wide batch in one numpy call."""
        rows = list(rows)
        if not rows:
            return tuple(accs)
        width = len(accs)
        for row in rows:
            if len(row) != width:
                raise ValueError(f"add_many rows must have {width} channel(s)")
        eps = self.config.noise_epsilon
        channels = []
        for c, acc in enumerate(accs):
            key, table = acc.key_id, acc.tag_table
            mask, depth, bound = acc.taint_mask, acc.depth, acc.noise_bound
            terms = [acc._payload]
            for row in rows:
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
            channels.append((terms, mask, depth, bound))
        if eps > 0:
            noise = self._rng.uniform(-eps, eps, size=(len(rows), width, len(accs[0]._payload)))
            for c, gathered in enumerate(channels):
                terms = gathered[0]
                terms[1:] = [t for pair in zip(terms[1:], noise[:, c]) for t in pair]
        seq = self._handle_seq + (len(rows) - 1) * width
        out = []
        for c, acc in enumerate(accs):
            terms, mask, depth, bound = channels[c]
            out.append(Ciphertext(acc.key_id, sum_in_order(terms), mask, acc.tag_table, False,
                                  depth, bound, seq + c + 1))
        self._handle_seq += len(rows) * width
        return tuple(out)

    def weighted_rotate_sum(self, a: Ciphertext, weights, length: int) -> Ciphertext:
        """The `mult_pt`, `rotate`/`add_ct` loop and `mark_prepared` calls, bit
        for bit; the first two run on `_replayer` when the result is first
        read.  The length is checked and the handles taken now; with noise on,
        the stream's state is kept and the stream moved past the calls' draws."""
        self._check_len(length)
        rows = 2 * length.bit_length() - 1
        state = None
        if self.config.noise_epsilon > 0:
            bits = self._rng.bit_generator
            state = bits.state
            # `advance` clears the 32-bit half buffer, which the draws leave as it was
            bits.state = dict(bits.advance(rows * length).state,
                              has_uint32=state["has_uint32"], uinteger=state["uinteger"])
        self._handle_seq += rows
        return _PreparedSum(a, weights, self._replayer, state, self._handle_seq)

    @functools.cached_property
    def _replayer(self) -> SlotBackend:
        """The private engine deferred prepares run their calls on: this
        config, its own stream and handles, none of this one's wrappers."""
        return SlotBackend(self.config)

    def mark_prepared(self, ct: Ciphertext) -> Ciphertext:
        """Flag an aggregate as safe to decrypt.

        Called only by a sanctioned protocol step that composes
        already-aggregate values: `ElectionProcessNode._emit_prepared`, as it
        hands a complete ballot copy to the keyholder.  A prepare's
        `weighted_rotate_sum` result comes out marked.
        """
        return Ciphertext(ct.key_id, ct._payload, ct.taint_mask, ct.tag_table, True,
                          ct.depth, ct.noise_bound, ct.handle)

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
