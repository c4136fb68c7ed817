"""Flooding average consensus over encrypted slot vectors.

Each process encrypts value * e_i and floods (votes, counts) pairs; counts
travel in plaintext and record how many times each vote was folded into the
aggregate.  A message carries its sender's counts as a read-only float64
array, shared with the sender's state (a fold replaces that array, never
writes it), together with the bitmask of its nonzero entries.  A message
whose mask is a subset of the local one, `msg.support & ~state.support == 0`,
carries no new information and is dropped after that one mask test.  A
node hands each instance's share of a delivery batch to one `fold` (the
election overrides `FloodingNode._fold_instance` to fold lineage copies by
its own rule), which runs that test message by message in delivery order
and stops at the message that completes the required mask.  It adds the
merged messages' count arrays, ORs their masks and adds their ciphertexts
in one engine `add_many` call, which ORs the ciphertexts' taint masks; it
builds no message and returns only whether anything merged.  The node then
broadcasts one snapshot per changed instance.  Once the local mask covers
the required one the process runs the prepare step: multiply by the
plaintext weights 1/(count_j * n) to undo duplicates, then rotate-sum (one
engine `rotate_sum` call) so every slot holds the average.  Only prepared
aggregates ever reach the keyholder's secret key.

A prepared aggregate is sent only to the keyholder that opens it; no process
forwards one.  Two deployment shapes are provided: a trusted collector
outside the graph, to which every decider sends its prepared aggregate and
which broadcasts the result to every process, and the collector-free variant
where each initiator runs an instance under its own key and sits out the
flooding.  There the initiator's neighbours, which all decide its instance,
send it their prepared aggregates; it decrypts the first, and each process
floods one result, the first it decides on.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from . import netsim
from .he_slots import (Ciphertext, SlotEngine, SlotVector, seeded_backend,
                       slot_capacity_for)
from .topology import Topology

log = logging.getLogger(__name__)

AGGREGATE = "aggregate"
PREPARED = "prepared"
RESULT = "result"
COMPLETE = "complete"
KINDS = (AGGREGATE, PREPARED, RESULT, COMPLETE)

ACTIVE = "active"
DECIDED = "decided"

INSTANCE_TRUSTED = "avg/trusted"
NON_VIABLE = "non-viable"

#: relative tolerance for the "all prepared slots equal" sanity assertion
PREPARED_SLOT_TOLERANCE = 1e-6


class PrivacyGuardError(Exception):
    """Refusal to decrypt an aggregate that has not gone through prepare."""


class PreparedSlotsError(ValueError):
    """A prepared aggregate whose leading slots do not all hold the same value."""


def instance_for_initiator(k: int) -> str:
    return f"avg/{k}"


def _bits(flags: np.ndarray) -> int:
    """The boolean array as a bitmask: bit j is set iff flags[j]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _support_mask(counts) -> int:
    """Bitmask of the nonzero counts: bit j is set iff counts[j] > 0."""
    return _bits(np.asarray(counts, dtype=np.float64) > 0)


def survivors(correct_set, n: int) -> int:
    """The bitmask of the processes a round among `n` waits for once only
    `correct_set` is left: bit p is set for each correct p < n."""
    if not correct_set:
        raise ValueError("correct_set must not be empty")
    return sum(1 << int(p) for p in set(correct_set) if p < n)


class ProtocolMessage:
    """The (votes, counts[, participating]) unit exchanged between neighbors.

    One message object goes to every receiver, so treat it as immutable.
    The counts are held as one read-only float64 array, `count_array`: a
    read-only float64 array given (a snapshot's) is shared, anything else is
    copied.  `counts` reads them as a tuple of ints.  `support`, the bitmask
    of nonzero counts, is passed by snapshots and otherwise derived on first
    use.
    """

    __slots__ = ("instance", "kind", "votes_ct", "participating_ct", "extra",
                 "ciphertexts", "count_array", "_support")

    def __init__(self, instance: str, kind: str, votes_ct: Ciphertext | None = None,
                 counts=None, participating_ct: Ciphertext | None = None,
                 extra: dict | None = None, support: int | None = None):
        if kind not in KINDS:
            raise ValueError(f"unknown message kind {kind!r}")
        if kind == AGGREGATE and (votes_ct is None or counts is None):
            raise ValueError(f"{kind} message requires votes_ct and counts")
        if kind in (PREPARED, COMPLETE) and (votes_ct is None or not votes_ct.prepared):
            raise ValueError(f"{kind} message carries an unprepared ciphertext")
        self.instance = instance
        self.kind = kind
        self.votes_ct = votes_ct
        self.participating_ct = participating_ct
        self.extra = {} if extra is None else extra
        #: the ciphertexts this message carries, votes first
        self.ciphertexts = ((votes_ct,) if votes_ct is not None else ()) + \
            ((participating_ct,) if participating_ct is not None else ())
        if counts is not None:
            counts = np.asarray(counts, dtype=np.float64)
            if counts.flags.writeable:
                counts = counts.copy()
                counts.flags.writeable = False
        self.count_array = counts
        self._support = support

    @property
    def counts(self) -> tuple | None:
        """The counts as a tuple of ints."""
        if self.count_array is None:
            return None
        return tuple(map(int, self.count_array.tolist()))

    @property
    def support(self) -> int:
        """Bitmask of the nonzero counts."""
        if self._support is None:
            self._support = _support_mask(self.count_array)
        return self._support


class ConsensusState:
    """Per-process, per-instance flooding state.

    `counts` is a read-only float64 array that a fold replaces, never
    writes, so a snapshot can carry it as is; `support` is the bitmask of
    its nonzero entries.  `required_mask` marks the indices whose counts must
    become nonzero and that `try_decide` weights: all n, or an outlier node's.
    `participating_ct`, when set, is a second channel folded and prepared
    under the same counts as the votes (outlier round 3's participation
    flags).  A state is DECIDED once `try_decide` prepared it; an election
    lineage copy, whose counts are n 0/1 flags, once it went to the keyholder.
    """

    def __init__(self, id: int, instance: str, n: int, votes_ct: Ciphertext,
                 counts, participating_ct: Ciphertext | None = None):
        self.id = id
        self.instance = instance
        self.n = n
        self.votes_ct = votes_ct
        # float64, not int64: duplicate counts grow by about 1.45 bits per
        # round and would overflow int64 past a diameter of about 43
        counts = np.array(counts, dtype=np.float64)
        counts.flags.writeable = False
        self.counts = counts
        self.support = _support_mask(counts)
        self.phase = ACTIVE
        self.required_mask = (1 << n) - 1
        self.participating_ct = participating_ct

    def snapshot(self) -> ProtocolMessage:
        """The AGGREGATE message announcing every channel of this state."""
        return ProtocolMessage(self.instance, AGGREGATE, votes_ct=self.votes_ct,
                               counts=self.counts,
                               participating_ct=self.participating_ct,
                               support=self.support)


def init_consensus(pid: int, value: float, pk, n: int, backend: SlotEngine,
                   instance: str = INSTANCE_TRUSTED,
                   contribution: Ciphertext | None = None,
                   participating_ct: Ciphertext | None = None) -> tuple[ConsensusState, ProtocolMessage]:
    """Create the unit-impulse state and the broadcast that announces it.

    `contribution`, when given, is an already-encrypted vote that stands in
    for the encryption of `value`; `participating_ct`, when given, is the
    state's second channel.
    """
    cap = backend.config.slot_capacity
    if cap < n:
        raise ValueError(f"slot capacity {cap} < process count {n}")
    votes = contribution
    if votes is None:
        votes = backend.encrypt(pk, SlotVector.impulse(cap, pid, value),
                                (pid, f"{instance}:value"))
    counts = np.zeros(cap)
    counts[pid] = 1
    state = ConsensusState(id=pid, instance=instance, n=n,
                           votes_ct=votes, counts=counts,
                           participating_ct=participating_ct)
    return state, state.snapshot()


def fold(state: ConsensusState, msgs, backend: SlotEngine) -> tuple[bool, object]:
    """Fold a delivery batch of aggregate messages into every channel of the
    local state, in delivery order.

    A message whose support is a subset of the local one (as grown by the
    messages before it) is dropped, and so is every message after the one
    that completes the required counts, since the state then decides.  The
    merged messages' ciphertexts are added in one `add_many` call, or by
    `add_ct` when only one merges, as most do in async runs, where `add_ct`
    is the cheaper call.  Returns whether any message merged and
    what `try_decide` returned.
    """
    if state.phase != ACTIVE:
        return False, None
    instance, support, required = state.instance, state.support, state.required_mask
    merged = []
    for msg in msgs:
        if msg.instance != instance:
            log.warning("dropping message for %s at state %s", msg.instance, instance)
            continue
        if msg.kind != AGGREGATE:
            continue
        other = msg.support
        if not other & ~support:
            continue
        merged.append(msg)
        support |= other
        if not required & ~support:
            break
    if not merged:
        return False, None
    first = merged[0]
    if len(merged) == 1:
        state.votes_ct = backend.add_ct(state.votes_ct, first.votes_ct)
        if state.participating_ct is not None:
            state.participating_ct = backend.add_ct(state.participating_ct,
                                                    first.participating_ct)
    elif state.participating_ct is None:
        state.votes_ct, = backend.add_many((state.votes_ct,),
                                           [msg.ciphertexts for msg in merged])
    else:
        state.votes_ct, state.participating_ct = backend.add_many(
            (state.votes_ct, state.participating_ct), [msg.ciphertexts for msg in merged])
    counts = state.counts + first.count_array
    for msg in merged[1:]:
        counts += msg.count_array
    counts.flags.writeable = False
    state.counts = counts
    state.support = support
    return True, try_decide(state, backend)


def on_receive(state: ConsensusState, msg: ProtocolMessage,
               backend: SlotEngine) -> tuple[ConsensusState, bool, object]:
    """Fold one aggregate message: `fold` of a one-message batch.

    Simulations fold whole batches with `fold`; this one-message form is
    kept for unit tests and as the benchmark tracer's fold hook.

    Returns the (mutated) state, whether the message was merged, and what
    `try_decide` returned if this message completed the counts.
    """
    merged, decision = fold(state, (msg,), backend)
    return state, merged, decision


def try_decide(state: ConsensusState, backend: SlotEngine):
    """Prepare every channel once all required counts are nonzero.

    Serves message arrival, round start and crash notices alike.  Returns
    None while a required count is zero; otherwise marks the state decided
    and returns the prepared votes, or the prepared (votes, participation)
    pair when the state carries participation.
    """
    if state.phase != ACTIVE or state.required_mask & ~state.support:
        return None
    state.phase = DECIDED
    # the required indices, unpacked as `_bits` packs them
    mask = state.required_mask.to_bytes((state.n + 7) // 8, "little")
    include = np.flatnonzero(np.unpackbits(np.frombuffer(mask, np.uint8), bitorder="little"))
    prepared = tuple(prepare(backend, ct, state.counts, len(include), include=include)
                     for ct in (state.votes_ct, state.participating_ct)
                     if ct is not None)
    return prepared if len(prepared) > 1 else prepared[0]


def prepare(backend: SlotEngine, votes_ct: Ciphertext, counts,
            n: int, include=None) -> Ciphertext:
    """Divide out duplicate counts and rotate-sum so every slot is the average.

    Padding slots (and excluded indices, under faults) get weight zero, which
    keeps the full-capacity rotate-sum exact.
    """
    counts = np.asarray(counts, dtype=np.float64)
    cap = len(counts)
    include = np.arange(n) if include is None else np.asarray(include, dtype=np.intp)
    included = counts[include]
    zero = np.flatnonzero(included <= 0)
    if zero.size:
        raise ValueError(f"prepare requires a nonzero count at index {include[zero[0]]}")
    weights = np.zeros(cap)
    weights[include] = 1.0 / (included * n)
    ct = backend.mult_pt(votes_ct, SlotVector(weights))
    return backend.mark_prepared(backend.rotate_sum(ct))


def finalize_trusted(backend: SlotEngine, secret, prepared_ct: Ciphertext,
                     n: int, caller=None) -> float:
    """Decrypt a prepared aggregate and return the average it carries.

    Slots that disagree, or any slot that is not finite (an overflowed
    payload), raise `PreparedSlotsError`."""
    if not prepared_ct.prepared:
        raise PrivacyGuardError("refusing to decrypt an unprepared aggregate")
    vec = backend.decrypt(secret, prepared_ct, caller=caller)
    lead = vec.values[:n]
    ref = float(lead[0])
    scale = max(1.0, abs(ref)) * PREPARED_SLOT_TOLERANCE + prepared_ct.noise_bound * n
    # written so that NaN, and so any infinity, fails it
    if not np.all(np.abs(lead - ref) <= scale):
        raise PreparedSlotsError(
            "prepared slots disagree beyond tolerance or are not finite: "
            + np.array2string(lead, threshold=8, max_line_width=1 << 30))
    return ref


# -- simulation actors -----------------------------------------------------

class FloodingNode(netsim.Node):
    """Flooding participant holding one ConsensusState per instance.

    Coalesces all merges from one delivery batch into a single rebroadcast,
    which is what keeps per-process traffic within a constant factor of
    diameter * degree.  A decided instance's prepared aggregate goes only to
    the actors that read it, as `_prepared_readers` names them: by default
    the trusted collector, which gets one straight from every decider.
    Subclasses say what PREPARED and RESULT messages mean to them.
    `required_mask`, the processes this one waits for, is all n until an
    outlier or election node narrows it to `survivors` on a crash notice.
    """

    def __init__(self, pid: int, n: int, backend: SlotEngine):
        self.pid = pid
        self.n = n
        self.backend = backend
        self.states: dict[str, ConsensusState] = {}
        self.required_mask = (1 << n) - 1

    def _snapshot_msg(self, state: ConsensusState) -> ProtocolMessage:
        return state.snapshot()

    def _exclude(self, instance: str) -> tuple:
        """Neighbours left out of the instance's rebroadcasts."""
        return ()

    def _prepared_readers(self, ctx, instance: str) -> tuple:
        """The actors that read the instance's prepared aggregate; a decider
        sends it to each of them and to no one else."""
        return (netsim.TRUSTED,)

    def on_deliver(self, ctx, batch):
        per_instance: dict[str, list] = {}
        for sender, msg in batch:
            if msg.kind == AGGREGATE:
                per_instance.setdefault(msg.instance, []).append(msg)
            elif msg.kind == PREPARED:
                self._handle_prepared(ctx, msg)
            elif msg.kind == RESULT:
                self._handle_result(ctx, msg)
        for instance in sorted(per_instance):
            changed, decision = self._fold_instance(instance, per_instance[instance])
            if changed:
                ctx.broadcast(self._snapshot_msg(self.states[instance]),
                              exclude=self._exclude(instance))
            if decision is not None:
                self._emit_prepared(ctx, instance, decision)

    def _fold_instance(self, instance: str, msgs) -> tuple[bool, object]:
        """Fold one instance's share of a delivery batch; returns whether to
        rebroadcast the state and what to hand `_emit_prepared`, or None."""
        state = self.states.get(instance)
        if state is None:
            return False, None
        return fold(state, msgs, self.backend)

    def _emit_prepared(self, ctx, instance: str, prepared) -> ProtocolMessage:
        """Send what `try_decide` returned for a decided instance to its readers."""
        ctx.mark_complete(instance)
        votes, part = prepared if isinstance(prepared, tuple) else (prepared, None)
        msg = ProtocolMessage(instance, PREPARED, votes_ct=votes, participating_ct=part)
        for dst in self._prepared_readers(ctx, instance):
            ctx.send(dst, msg)
        return msg

    def _try_decide(self, ctx, state: ConsensusState):
        """Round starts and crash adjustments can satisfy a pending
        termination condition without any further message; re-check and emit."""
        prepared = try_decide(state, self.backend)
        if prepared is not None:
            self._emit_prepared(ctx, state.instance, prepared)


class AvgProcessNode(FloodingNode):
    """Algorithm participant in the trusted-collector deployment."""

    def __init__(self, pid: int, value: float, pk, n: int, backend: SlotEngine):
        super().__init__(pid, n, backend)
        self.value = value
        self.pk = pk

    @property
    def state(self) -> ConsensusState | None:
        return self.states.get(INSTANCE_TRUSTED)

    def on_start(self, ctx):
        state, msg = init_consensus(self.pid, self.value, self.pk,
                                    self.n, self.backend)
        self.states[INSTANCE_TRUSTED] = state
        ctx.broadcast(msg)
        self._try_decide(ctx, state)

    def _handle_result(self, ctx, msg):
        ctx.decide(msg.extra["average"])


class TrustedCollectorNode(netsim.Node):
    """Out-of-graph keyholder: decrypts the first prepared aggregate per
    instance and broadcasts the result."""

    def __init__(self, key_material, n: int, backend: SlotEngine):
        self.key = key_material
        self.n = n
        self.backend = backend
        self.finalized: dict[str, float] = {}

    def on_deliver(self, ctx, batch):
        for sender, msg in batch:
            if msg.kind != PREPARED or msg.instance in self.finalized:
                continue
            value = finalize_trusted(self.backend, self.key.secret_part,
                                     msg.votes_ct, self.n, caller=ctx.pid)
            self.finalized[msg.instance] = value
            ctx.decide(value)
            ctx.broadcast_processes(ProtocolMessage(
                msg.instance, RESULT, extra={"average": value}))


def _finite_values(inputs) -> list[float]:
    """The processes' initial values as floats; each must be finite, and so
    must their sum (`_sum_fits`)."""
    values = [float(v) for v in inputs]
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"initial value must be finite, got {v!r}")
    _sum_fits(values)
    return values


def _sum_fits(values: list[float], squares: bool = False):
    """Reject values whose sum, or sum of squares, may not fit in float64:
    n times the largest magnitude (or square) must be finite.  Python float
    products overflow to infinity where `**` would raise."""
    top = max(map(abs, values), default=0.0)
    if not math.isfinite(len(values) * (top * top if squares else top)):
        what = "the squares of " if squares else ""
        raise ValueError(f"the sum of {what}{len(values)} initial values up to "
                         f"{top!r} in magnitude overflows float64")


def build_trusted(topology: Topology, inputs, *, seed: int = 0,
                  noise_epsilon: float = 0.0) -> netsim.ProtocolSetup:
    n = topology.n
    values = _finite_values(inputs)
    backend = seeded_backend(slot_capacity_for(n), noise_epsilon, seed)
    key = backend.keygen(netsim.TRUSTED)
    nodes = {}
    for pid in range(n):
        nodes[pid] = AvgProcessNode(pid, values[pid], key.public_part,
                                    n, backend)
    nodes[netsim.TRUSTED] = TrustedCollectorNode(key, n, backend)
    return netsim.ProtocolSetup(
        nodes=nodes, backend=backend,
        private_values=frozenset(values),
        expected_deciders=set(range(n)),
        primary_instance=INSTANCE_TRUSTED,
    )


# -- collector-free variant -------------------------------------------------

class UntrustedProcessNode(FloodingNode):
    """Participant in the concurrent per-initiator instances.

    For its own instance a node acts as the keyholder: it encrypts its own
    value under its own key, hands that seed to one neighbor, stays out of
    the flooding, and decrypts the first prepared aggregate its neighbours
    send it.  Each node broadcasts one RESULT, the one it decides on: its
    own instance's, or the first that reaches it, forwarded.
    """

    def __init__(self, pid: int, value: float, n: int, backend: SlotEngine,
                 keys: dict, viable: dict):
        super().__init__(pid, n, backend)
        self.value = value
        self.keys = keys               # viable initiator -> KeyMaterial (secret used by owner only)
        self.viable = viable           # initiator -> bool
        self.opened = False            # own instance's prepared aggregate decrypted
        self.decided = False           # a RESULT decided on and broadcast

    def _initiator_of(self, instance: str) -> int:
        return int(instance.split("/", 1)[1])

    def _exclude(self, instance):
        return (self._initiator_of(instance),)

    def _prepared_readers(self, ctx, instance):
        # every neighbour of a viable initiator decides its instance
        k = self._initiator_of(instance)
        return (k,) if k in ctx.neighbors else ()

    def on_start(self, ctx):
        if self.viable.get(self.pid) is False:
            ctx.note(f"initiator_result/{self.pid}", NON_VIABLE)
        for k, key in sorted(self.keys.items()):
            instance = instance_for_initiator(k)
            state, msg = init_consensus(self.pid, self.value, key.public_part,
                                        self.n, self.backend, instance)
            if k == self.pid:
                ctx.send(min(ctx.neighbors), msg)
            else:
                self.states[instance] = state
                ctx.broadcast(msg, exclude=(k,))

    def _handle_prepared(self, ctx, msg):
        if self.opened:
            return
        self.opened = True
        value = finalize_trusted(self.backend, self.keys[self.pid].secret_part,
                                 msg.votes_ct, self.n, caller=self.pid)
        ctx.note(f"initiator_result/{self.pid}", value)
        self._handle_result(ctx, ProtocolMessage(
            msg.instance, RESULT, extra={"average": value}))

    def _handle_result(self, ctx, msg):
        if not self.decided:
            self.decided = True
            ctx.decide(msg.extra["average"])
            ctx.broadcast(msg)


def build_untrusted(topology: Topology, inputs, initiators=None, *,
                    seed: int = 0, noise_epsilon: float = 0.0) -> netsim.ProtocolSetup:
    n = topology.n
    initiators = sorted(initiators) if initiators is not None else list(range(n))
    if any(not (0 <= k < n) for k in initiators):
        raise ValueError(f"initiators out of range for n={n}: {initiators}")
    values = _finite_values(inputs)
    backend = seeded_backend(slot_capacity_for(n), noise_epsilon, seed)
    viable = {k: topology.connected_without({k}) for k in initiators}
    keys = {k: backend.keygen(k) for k in initiators if viable[k]}
    nodes = {}
    for pid in range(n):
        nodes[pid] = UntrustedProcessNode(pid, values[pid], n, backend,
                                          keys, viable)
    return netsim.ProtocolSetup(
        nodes=nodes, backend=backend,
        private_values=frozenset(values),
        expected_deciders=set(range(n)) if any(viable.values()) else set(),
    )


def run_untrusted(topology: Topology, inputs, initiators=None, *, seed: int = 0,
                  schedule: str = "sync", max_latency: int = 4,
                  noise_epsilon: float = 0.0) -> dict:
    """Run the per-initiator instances through `netsim.run` and map each
    initiator to its average (or the non-viable marker when its removal
    partitions the graph)."""
    report = netsim.run(netsim.ScenarioConfig(
        "avg-untrusted", topology, list(inputs), seed=seed, schedule=schedule,
        max_latency=max_latency, noise_epsilon=noise_epsilon,
        initiators=initiators))
    ks = sorted(initiators) if initiators is not None else range(topology.n)
    return {k: report.extra.get(f"initiator_result/{k}") for k in ks}
