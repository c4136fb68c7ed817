"""Flooding average consensus over encrypted slot vectors.

Each process encrypts value * e_i and floods (channels, counts) pairs: a
tuple of ciphertexts folded and prepared under the same counts (the votes,
then, in outlier round 3, the participation flags) and plaintext counts of
how many times each vote was folded into the aggregate.  A message shares
its sender's channel tuple and counts, a read-only float64 array that a
fold replaces, never writes, and carries the bitmask of its nonzero
entries.  A message whose mask is a subset of the local one,
`state.support | msg.support == state.support`, carries no new information
and is dropped after that one OR and compare.  A node hands each
instance's share of a delivery batch to one `fold` (the election overrides
`FloodingNode._fold_instance` to fold lineage copies by its own rule),
which runs that test message by message in delivery order and stops at the
message that completes the required mask.  It adds the merged messages'
count arrays, ORs their masks and adds their channels in one engine
`add_many` call, which ORs the ciphertexts' taint masks; it builds no
message and returns only whether anything merged.  A wide batch (on a
dense graph, a first round brings one impulse per neighbour) is summed in
one numpy call per array (`he_slots.sum_in_order`).  A one-message batch,
most of an async run's, costs its one mask test, one count add and one
`add_ct` per channel.  The node then multicasts one snapshot per changed
instance to that instance's fan-out; every snapshot shares one read-only
empty `extra`.  A batch for one instance is not sorted.
Once the local mask covers the required one the state is decided.  A
decided state is prepared only for its readers, the keyholders its
prepared aggregate goes to: each channel is multiplied by the plaintext
weights 1/(count_j * n) to undo duplicates and rotate-summed so every slot
holds the average, in one `weighted_rotate_sum` call that the engine may
defer until it is opened.  Only prepared aggregates reach the secret key.

A prepared aggregate is sent only to the keyholder that opens it; no process
forwards one.  Two deployment shapes are provided: a trusted collector
outside the graph, to which every decider sends its prepared aggregate and
which broadcasts the result to every process, and the collector-free variant
where each initiator runs an instance under its own key and sits out the
flooding.  There the initiator's neighbours, which all decide its instance,
send it their prepared aggregates; it decrypts the first, and each process
floods one result, the first it decides on.  Every other process decides
that instance too but, having no reader for it, prepares nothing.  A process
builds its impulse vector and one-hot counts once and starts all n - 1 of
its instances from them; each instance still encrypts under its own key.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType

import numpy as np

from . import netsim
from .he_slots import (Ciphertext, SlotEngine, SlotVector, seeded_backend,
                       slot_capacity_for, sum_in_order)
from .topology import Topology

AGGREGATE = "aggregate"
PREPARED = "prepared"
RESULT = "result"

ACTIVE = "active"
DECIDED = "decided"

INSTANCE_TRUSTED = "avg/trusted"
NON_VIABLE = "non-viable"

#: relative tolerance for the "all prepared slots equal" sanity assertion
PREPARED_SLOT_TOLERANCE = 1e-6

#: the `extra` of every message without plaintext fields: all share one
#: empty mapping, which cannot be written
NO_EXTRA = MappingProxyType({})


class PrivacyGuardError(Exception):
    """Refusal to decrypt an aggregate that has not gone through prepare."""


class PreparedSlotsError(ValueError):
    """A prepared aggregate whose leading slots do not all hold the same value."""


def instance_for_initiator(k: int) -> str:
    return f"avg/{k}"


def survivors(correct_set, n: int) -> int:
    """The bitmask of the processes a round among `n` waits for once only
    `correct_set` is left: bit p is set for each correct p < n."""
    if not correct_set:
        raise ValueError("correct_set must not be empty")
    return sum(1 << int(p) for p in set(correct_set) if p < n)


class ProtocolMessage:
    """A PREPARED or RESULT message; `ConsensusState.snapshot` builds every
    AGGREGATE.

    `ciphertexts` is the tuple of channels the message carries, in a state's
    order: a PREPARED message's prepared channels; a RESULT carries none, or
    the prepared round-1 mean on the encrypted variance route.  An election's
    PREPARED copy also carries its contributors' `support`.  One message
    object goes to every receiver, so treat it as immutable.  `extra` holds
    a RESULT's plaintext fields; a message without any gets the read-only
    `NO_EXTRA`.  An AGGREGATE shares its state's channel tuple, read-only
    float64 `count_array` and `support`; a message built here has no counts.
    """

    __slots__ = ("instance", "kind", "ciphertexts", "extra", "count_array", "support")

    def __init__(self, instance: str, kind: str, ciphertexts: tuple = (),
                 extra: dict | None = None, support: int | None = None):
        if kind not in (PREPARED, RESULT):
            raise ValueError(f"ProtocolMessage builds {PREPARED} and {RESULT} "
                             f"messages, not {kind!r}")
        if kind == PREPARED and not (ciphertexts and all(ct.prepared for ct in ciphertexts)):
            raise ValueError(f"{kind} message carries an unprepared ciphertext")
        self.instance = instance
        self.kind = kind
        self.ciphertexts = tuple(ciphertexts)
        self.extra = NO_EXTRA if extra is None else extra
        self.count_array = None
        self.support = support

    @property
    def votes_ct(self) -> Ciphertext:
        """The votes channel: the first ciphertext."""
        return self.ciphertexts[0]


class ConsensusState:
    """Per-process, per-instance flooding state.

    `channels` is the tuple of ciphertexts folded and prepared under the
    same counts: the votes, then, in outlier round 3, the participation
    flags.  `counts` is a read-only float64 array that a fold replaces,
    never writes, so a snapshot can carry it as is; `support` is the bitmask
    of its nonzero entries.  Both are taken as given.  An election lineage
    copy has no counts (None), only its support.  `snapshot` builds the
    state's AGGREGATE message, the only way one is built.  `required_mask`
    marks the indices whose counts must become nonzero and that `try_decide`
    weights: all n, or an outlier node's.  `readers` are the actors its
    prepared aggregate goes to: the trusted collector, or in avg-untrusted
    the instance's initiator when it is a neighbour, else no one.  `fanout`
    is where a changed state is multicast, None for the neighbours.  A state
    is DECIDED once `try_decide` found its required counts nonzero, and
    prepared then only if it has readers; an election lineage copy is
    DECIDED once it went to the keyholder.
    """

    def __init__(self, instance: str, n: int, channels: tuple, counts, support: int):
        self.instance = instance
        self.n = n
        self.channels = channels
        # float64, not int64: duplicate counts grow by about 1.45 bits per
        # round and would overflow int64 past a diameter of about 43
        self.counts = counts
        self.support = support
        self.phase = ACTIVE
        self.required_mask = (1 << n) - 1
        self.readers = (netsim.TRUSTED,)
        self.fanout = None

    def snapshot(self) -> ProtocolMessage:
        """The AGGREGATE message announcing this state's channels, sharing
        its channel tuple, read-only counts and support, and the read-only
        empty `NO_EXTRA`."""
        msg = object.__new__(ProtocolMessage)
        msg.instance, msg.kind, msg.extra = self.instance, AGGREGATE, NO_EXTRA
        msg.ciphertexts = self.channels
        msg.count_array, msg.support = self.counts, self.support
        return msg


def one_hot(capacity: int, pid: int) -> np.ndarray:
    """The read-only start counts of process `pid`: 1 at `pid`, 0 elsewhere."""
    counts = np.zeros(capacity)
    counts[pid] = 1
    counts.setflags(write=False)
    return counts


def init_consensus(pid: int, value: float, pk, n: int, backend: SlotEngine,
                   instance: str = INSTANCE_TRUSTED,
                   channels: tuple | None = None, vector: SlotVector | None = None,
                   counts: np.ndarray | None = None) -> tuple[ConsensusState, ProtocolMessage]:
    """Create the unit-impulse state and the broadcast that announces it.

    `channels`, when given, is the state's tuple of already-encrypted
    channels, which stands in for the one encryption of `value`.  `vector`
    (`SlotVector.impulse` of `value` at `pid`) and `counts` (`one_hot`), when
    given, are built once by a process that starts many instances and shared
    by them; the encryption, its tag and its handle are still the instance's
    own.
    """
    cap = backend.config.slot_capacity
    if cap < n:
        raise ValueError(f"slot capacity {cap} < process count {n}")
    if channels is None:
        if vector is None:
            vector = SlotVector.impulse(cap, pid, value)
        channels = (backend.encrypt(pk, vector, (pid, f"{instance}:value")),)
    if counts is None:
        counts = one_hot(cap, pid)
    state = ConsensusState(instance, n, channels, counts, support=1 << pid)
    return state, state.snapshot()


def fold(state: ConsensusState, msgs, backend: SlotEngine) -> tuple[bool, object]:
    """Fold the state's instance's share of a delivery batch of aggregate
    messages into its channels, in delivery order.

    A message whose support is a subset of the local one (as grown by the
    messages before it) is dropped, and so is every message after the one
    that completes the required counts, since the state then decides.  Each
    message costs one OR and one compare on the masks: it is a subset when
    `support | msg.support` equals `support`, and the grown mask completes
    the counts when `grown & required` equals `required`; no complement of
    a mask is built.  A one-message batch, most of an async run's, takes a
    path of its own: one subset test, then the state's count array plus the
    message's and one `add_ct` per channel, with no list of rows built.
    Otherwise the merged messages' channel tuples are added to the state's
    in one `add_many` call, or by one `add_ct` per channel when only one
    merges, where `add_ct` is the cheaper call.  The state's count array
    and theirs are summed, in that order, into one new array (by
    `sum_in_order` when more than one merges: a wide batch, of
    `he_slots.WIDE` arrays or more, in one numpy call), which is frozen in
    place (`setflags`) and replaces the state's counts; no count array is
    ever written once shared.  Both paths
    make the same engine calls, so the bits, noise draws and handles agree.
    Returns whether any message merged and what `try_decide` returned.
    """
    if state.phase != ACTIVE:
        return False, None
    support, required = state.support, state.required_mask
    if len(msgs) == 1:
        msg = msgs[0]
        grown = support | msg.support
        if grown == support:
            return False, None
        support = grown
        counts = state.counts + msg.count_array
        channels = state.channels
        if len(channels) == 1:
            state.channels = (backend.add_ct(channels[0], msg.ciphertexts[0]),)
        else:
            state.channels = tuple(map(backend.add_ct, channels, msg.ciphertexts))
    else:
        rows, arrays = [], [state.counts]
        for msg in msgs:
            grown = support | msg.support
            if grown == support:
                continue
            rows.append(msg.ciphertexts)
            arrays.append(msg.count_array)
            support = grown
            if grown & required == required:
                break
        if not rows:
            return False, None
        if len(rows) == 1:
            counts = arrays[0] + arrays[1]
            state.channels = tuple(map(backend.add_ct, state.channels, rows[0]))
        else:
            counts = sum_in_order(arrays)
            state.channels = backend.add_many(state.channels, rows)
    counts.setflags(write=False)
    state.counts = counts
    state.support = support
    if support & required != required:
        return True, None
    return True, try_decide(state, backend)


def on_receive(state: ConsensusState, msg: ProtocolMessage,
               backend: SlotEngine) -> tuple[ConsensusState, bool, object]:
    """Fold one aggregate message: `fold` of a one-message batch.

    Simulations fold whole batches with `fold` and never call this
    one-message form, which unit tests use; a wrapper patched over it sees
    no simulated fold.

    Returns the (mutated) state, whether the message was merged, and what
    `try_decide` returned if this message completed the counts.
    """
    merged, decision = fold(state, (msg,), backend)
    return state, merged, decision


def try_decide(state: ConsensusState, backend: SlotEngine):
    """Decide once all required counts are nonzero, and prepare every
    channel for the state's readers.

    Serves message arrival, round start and crash notices alike.  Returns
    None while a required count is zero; otherwise marks the state decided
    and returns the tuple of its prepared channels, in the state's order,
    which is empty for a state without readers: nobody would open them.
    `prepare`'s `weighted_rotate_sum` defers each channel's weights and sum.
    """
    required = state.required_mask
    if state.phase != ACTIVE or state.support & required != required:
        return None
    state.phase = DECIDED
    if not state.readers:
        return ()
    n, include = state.n, None
    if required != (1 << n) - 1:
        # the required indices: bit j of the mask is index j
        include = [j for j in range(n) if required >> j & 1]
        n = len(include)
    return tuple(prepare(backend, ct, state.counts, n, include=include)
                 for ct in state.channels)


def prepare(backend: SlotEngine, votes_ct: Ciphertext, counts,
            n: int, include=None) -> Ciphertext:
    """Divide out duplicate counts and rotate-sum so every slot is the average.

    Padding slots (and excluded indices, under faults) get weight zero, which
    keeps the full-capacity rotate-sum exact.  A zero included count raises
    here; `weighted_rotate_sum` may defer `_weights` and the sum until opened,
    so `counts` must not change after the call (a state's counts never do).
    """
    counts = np.asarray(counts, dtype=np.float64)
    include = slice(n) if include is None else np.asarray(include, dtype=np.intp)
    included = counts[include]
    # a comparison, so that a NaN count fails it; `initial` passes an empty include
    if not included.min(initial=1.0) > 0:
        first = np.flatnonzero(~(included > 0))[0]
        index = np.arange(len(counts))[include][first]
        raise ValueError(f"prepare requires a nonzero count at index {index}")
    weights = functools.partial(_weights, len(counts), include, included, n)
    return backend.weighted_rotate_sum(votes_ct, weights, len(counts))


def _weights(size: int, include, included: np.ndarray, n: int) -> SlotVector:
    """`prepare`'s plaintext: 1/(count_j * n) at each included index j."""
    weights = np.zeros(size)
    # a float factor: numpy scales by a Python int through a slower path
    weights[include] = 1.0 / (included * float(n))
    return SlotVector(weights)


def finalize_trusted(backend: SlotEngine, secret, prepared_ct: Ciphertext,
                     n: int, caller=None) -> float:
    """Decrypt a prepared aggregate and return the average it carries.

    A noise bound that is not finite raises `ScenarioError` naming
    `noise_epsilon`, before anything is decrypted: the noise of so large an
    epsilon can overflow the payload, and no slot could be trusted.  Slots
    that disagree, or any slot that is not finite (an overflowed payload),
    raise `PreparedSlotsError`."""
    if not prepared_ct.prepared:
        raise PrivacyGuardError("refusing to decrypt an unprepared aggregate")
    if not math.isfinite(prepared_ct.noise_bound):
        raise netsim.ScenarioError(
            f"noise_epsilon {backend.config.noise_epsilon!r} is too large: the noise "
            f"bound of a prepared aggregate is not finite, so it holds no result")
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
    diameter * degree.  `on_deliver` groups a batch's aggregates by
    instance, in first-seen order, with one dict lookup per run of
    consecutive aggregates of one instance, not one per message.  It folds
    the instances in instance order (a one-instance batch unsorted),
    multicasts each changed state to its `fanout` and hands each decision
    to `_emit_prepared`.  A decided instance is prepared only for its
    state's `readers`; an instance without readers is decided and marked
    complete, but neither prepared nor sent.  `_start` stores and announces
    a process's own new state and re-checks it at once; `_try_decide` is
    that re-check outside a delivery batch, which the election overrides.
    Subclasses say what opening a PREPARED message and a RESULT mean to them.
    `required_mask`, the processes this one waits for, is all n (in a
    fault-free election, the node and its tree children) until a crash
    notice narrows it: outlier and election nodes take
    `_wait_for_survivors` as their `on_crash_notice`, while averaging nodes
    ignore notices and keep waiting for all n.  Every keyholder is a
    `FloodingNode`, and `_handle_prepared` is their one opening rule: it
    opens (`_open`) the first PREPARED message of each instance, keeps it
    in `prepared`, and drops later ones unopened.
    """

    def __init__(self, pid: int, n: int, backend: SlotEngine):
        self.pid = pid
        self.n = n
        self.backend = backend
        self.states: dict[str, ConsensusState] = {}
        self.required_mask = (1 << n) - 1
        self.prepared: dict[str, ProtocolMessage] = {}   # instance -> the message opened

    def _snapshot_msg(self, state: ConsensusState) -> ProtocolMessage:
        return state.snapshot()

    def _start(self, ctx, state: ConsensusState, msg: ProtocolMessage):
        """Adopt a new state under this node's quorum, broadcast it, and
        decide it if that quorum is already met."""
        state.required_mask = self.required_mask
        self.states[state.instance] = state
        ctx.broadcast(msg)
        self._try_decide(ctx, state)

    def on_deliver(self, ctx, batch):
        per_instance: dict[str, list] = {}
        run = run_msgs = None    # the instance of the last aggregate, and its list
        for sender, msg in batch:
            kind = msg.kind
            if kind == AGGREGATE:
                if msg.instance != run:
                    run = msg.instance
                    run_msgs = per_instance.setdefault(run, [])
                run_msgs.append(msg)
            elif kind == PREPARED:
                self._handle_prepared(ctx, msg)
            elif kind == RESULT:
                self._handle_result(ctx, msg)
        # one instance, as in most async batches, needs no sort
        items = per_instance.items()
        if len(per_instance) > 1:
            items = sorted(items)
        for instance, msgs in items:
            changed, decision = self._fold_instance(instance, msgs)
            if changed:
                state = self.states[instance]
                ctx.multicast(ctx.neighbors if state.fanout is None else state.fanout,
                              self._snapshot_msg(state))
            if decision is not None:
                self._emit_prepared(ctx, instance, decision)

    def _handle_prepared(self, ctx, msg):
        if msg.instance not in self.prepared:
            self.prepared[msg.instance] = msg
            self._open(ctx, msg)

    def _fold_instance(self, instance: str, msgs) -> tuple[bool, object]:
        """Fold one instance's share of a delivery batch; returns whether to
        rebroadcast the state and what to hand `_emit_prepared`, or None."""
        state = self.states.get(instance)
        if state is None:
            return False, None
        return fold(state, msgs, self.backend)

    def _emit_prepared(self, ctx, instance: str, prepared):
        """Send the prepared channels `try_decide` returned for a decided
        instance to its readers; with none, nothing was prepared and no
        message is built."""
        ctx.mark_complete(instance)
        if prepared:
            ctx.multicast(self.states[instance].readers,
                          ProtocolMessage(instance, PREPARED, prepared))

    def _try_decide(self, ctx, state: ConsensusState):
        """Round starts and crash adjustments can satisfy a pending
        termination condition without any further message; re-check and emit."""
        prepared = try_decide(state, self.backend)
        if prepared is not None:
            self._emit_prepared(ctx, state.instance, prepared)

    def _wait_for_survivors(self, ctx, crashed):
        """The crash rule of outlier and election nodes: narrow
        `required_mask` to the survivors, then re-check each held active
        state under it, in instance order."""
        self.required_mask = survivors(set(range(self.n)) - crashed, self.n)
        for _, state in sorted(self.states.items()):
            if state.phase == ACTIVE:
                state.required_mask = self.required_mask
                self._try_decide(ctx, state)


class AvgProcessNode(FloodingNode):
    """Algorithm participant in the trusted-collector deployment."""

    def __init__(self, pid: int, value: float, pk, n: int, backend: SlotEngine):
        super().__init__(pid, n, backend)
        self.value = value
        self.pk = pk

    def on_start(self, ctx):
        self._start(ctx, *init_consensus(self.pid, self.value, self.pk,
                                         self.n, self.backend))

    def _handle_result(self, ctx, msg):
        ctx.decide(msg.extra["average"])


class TrustedCollectorNode(FloodingNode):
    """Out-of-graph keyholder: a `FloodingNode` with no instance state, so it
    acts only on PREPARED messages, by the one opening rule.  `_open` says
    what opening means; here it decrypts the average, decides it and
    broadcasts it."""

    def __init__(self, key_material, n: int, backend: SlotEngine):
        super().__init__(netsim.TRUSTED, n, backend)
        self.key = key_material

    def _decrypt(self, ct) -> float:
        return finalize_trusted(self.backend, self.key.secret_part, ct,
                                self.n, caller=netsim.TRUSTED)

    def _open(self, ctx, msg):
        value = self._decrypt(msg.votes_ct)
        ctx.decide(value)
        ctx.broadcast_processes(ProtocolMessage(
            msg.instance, RESULT, extra={"average": value}))

    def _handle_result(self, ctx, msg):
        """A collector hands results out and takes none."""


def _finite_values(inputs) -> list[float]:
    """The processes' initial values as floats; each must be finite, and so
    must their sum (`_sum_fits`)."""
    values = [float(v) for v in inputs]
    for v in values:
        if not math.isfinite(v):
            raise netsim.ScenarioError(f"initial value must be finite, got {v!r}")
    _sum_fits(values)
    return values


def _sum_fits(values: list[float], squares: bool = False):
    """Reject values whose sum, or sum of squares, may not fit in float64:
    n times the largest magnitude (or square) must be finite.  Python float
    products overflow to infinity where `**` would raise."""
    top = max(map(abs, values), default=0.0)
    if not math.isfinite(len(values) * (top * top if squares else top)):
        what = "the squares of " if squares else ""
        raise netsim.ScenarioError(f"the sum of {what}{len(values)} initial values up to "
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
    the flooding, and decrypts (`_open`) the first prepared aggregate its
    neighbours send it, by the one opening rule.  So `on_start` fixes each
    other instance's fan-out as the neighbours other than its initiator,
    and its state's readers as that initiator when it is a neighbour, else
    no one: a node decides every instance it holds but prepares only those
    of its neighbouring initiators.  A node holds every viable initiator's
    public key and only its own secret key.  Each node broadcasts one
    RESULT, the one it decides on: its own instance's, or the first that
    reaches it, forwarded.
    """

    def __init__(self, pid: int, value: float, n: int, backend: SlotEngine,
                 pks: dict, viable: dict, secret):
        super().__init__(pid, n, backend)
        self.value = value
        self.pks = pks                 # viable initiator -> PublicPart
        self.secret = secret           # own SecretPart, if a viable initiator
        self.viable = viable           # initiator -> bool
        self.decided = False           # a RESULT decided on and broadcast

    def on_start(self, ctx):
        if self.viable.get(self.pid) is False:
            ctx.note(f"initiator_result/{self.pid}", NON_VIABLE)
        # one impulse vector and one count array, shared by every instance
        cap = self.backend.config.slot_capacity
        vector = SlotVector.impulse(cap, self.pid, self.value)
        counts = one_hot(cap, self.pid)
        for k, pk in sorted(self.pks.items()):
            instance = instance_for_initiator(k)
            state, msg = init_consensus(self.pid, self.value, pk, self.n,
                                        self.backend, instance,
                                        vector=vector, counts=counts)
            if k == self.pid:
                ctx.send(min(ctx.neighbors), msg)
            else:
                self.states[instance] = state
                # every neighbour of a viable initiator decides its instance
                if k in ctx.neighbors:
                    state.readers = (k,)
                    fanout = tuple(d for d in ctx.neighbors if d != k)
                else:
                    state.readers = ()
                    fanout = ctx.neighbors
                state.fanout = fanout
                ctx.multicast(fanout, msg)

    def _open(self, ctx, msg):
        value = finalize_trusted(self.backend, self.secret,
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
    if n < 2:
        raise netsim.ScenarioError(f"avg-untrusted needs at least 2 processes, got {n}: "
                                   f"each initiator hands its seed to a neighbour")
    initiators = sorted(initiators) if initiators is not None else list(range(n))
    if any(not (0 <= k < n) for k in initiators):
        raise netsim.ScenarioError(f"initiators out of range for n={n}: {initiators}")
    if repeated := [k for k, after in zip(initiators, initiators[1:]) if k == after]:
        raise netsim.ScenarioError(
            f"initiator {repeated[0]} is listed more than once: {initiators}")
    values = _finite_values(inputs)
    backend = seeded_backend(slot_capacity_for(n), noise_epsilon, seed)
    cut = topology.cut_vertices()
    viable = {k: k not in cut for k in initiators}
    keys = {k: backend.keygen(k) for k in initiators if viable[k]}
    pks = {k: key.public_part for k, key in keys.items()}
    secrets = {k: key.secret_part for k, key in keys.items()}
    nodes = {}
    for pid in range(n):
        nodes[pid] = UntrustedProcessNode(pid, values[pid], n, backend, pks, viable,
                                          secrets.get(pid))
    return netsim.ProtocolSetup(
        nodes=nodes, backend=backend,
        private_values=frozenset(values),
        expected_deciders=set(range(n)) if any(viable.values()) else set(),
    )
