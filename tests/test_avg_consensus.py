"""State-machine and end-to-end tests for the flooding average consensus."""

import math
import random
from collections import Counter

import numpy as np
import pytest

from consentry import avg_consensus, he_slots, leader_election, netsim, outlier_consensus
from consentry import topology as topo
from consentry.avg_consensus import (AGGREGATE, INSTANCE_TRUSTED, NON_VIABLE,
                                     PREPARED, RESULT, ConsensusState,
                                     PreparedSlotsError,
                                     PrivacyGuardError,
                                     ProtocolMessage, build_trusted,
                                     build_untrusted, finalize_trusted,
                                     fold, init_consensus, instance_for_initiator,
                                     on_receive, prepare, survivors, try_decide)
from consentry.outlier_consensus import init_round3
from consentry.he_slots import BackendConfig, SlotBackend, SlotVector

from exposures import record_deliveries
from oracles import mean_oracle


def make_backend(cap=4, eps=0.0, seed=2):
    return SlotBackend(BackendConfig(cap, eps), seed=seed)


def test_init_consensus_impulse():
    b = make_backend()
    km = b.keygen("T")
    state, msg = init_consensus(2, 7.0, km.public_part, 4, b)
    assert state.channels[0]._payload.tolist() == [0, 0, 7, 0]
    assert state.counts.tolist() == [0, 0, 1, 0]
    assert msg.kind == AGGREGATE and msg.count_array.tolist() == [0, 0, 1, 0]


def test_init_consensus_zero_vote_still_counted():
    b = make_backend()
    km = b.keygen("T")
    state, _ = init_consensus(0, 0.0, km.public_part, 4, b)
    assert state.channels[0]._payload.tolist() == [0, 0, 0, 0]
    assert state.counts.tolist() == [1, 0, 0, 0]


def test_padding_slot_stays_zero():
    b = make_backend(cap=4)
    km = b.keygen("T")
    state, _ = init_consensus(1, 3.5, km.public_part, 3, b)
    s2, m2 = init_consensus(2, -1.0, km.public_part, 3, b)
    on_receive(state, m2, b)
    assert state.channels[0]._payload[3] == 0.0
    assert state.counts[3] == 0


def read_only(counts):
    """`counts` as a read-only float64 array, as a state holds them."""
    counts = np.array(counts, dtype=np.float64)
    counts.setflags(write=False)
    return counts


def test_a_snapshot_folds_its_counts_and_support_once():
    b = make_backend(cap=8)
    km = b.keygen("T")
    states = [init_consensus(pid, 1.5 * pid - 2.0, km.public_part, 5, b)[0]
              for pid in range(5)]
    on_receive(states[2], states[1].snapshot(), b)
    on_receive(states[3], states[1].snapshot(), b)
    on_receive(states[3], states[2].snapshot(), b)    # counts (0, 2, 1, 1, ...)
    snap = states[3].snapshot()
    assert snap.count_array.tolist() == [0, 2, 1, 1, 0, 0, 0, 0]
    assert snap.support == 0b1110
    state, _ = init_consensus(0, -2.0, km.public_part, 5, b)
    _, out, dec = on_receive(state, snap, b)
    assert (state.counts.tolist(), state.support, out, dec) == \
        ([1, 2, 1, 1, 0, 0, 0, 0], 0b1111, True, None)
    assert state.channels[0]._payload.tolist() == \
        [-2.0, -1.0, 1.0, 2.5, 0, 0, 0, 0]
    assert on_receive(state, snap, b)[1:] == (False, None)


def test_snapshot_counts_are_read_only_and_outlive_later_folds():
    b = make_backend()
    km = b.keygen("T")
    state, first = init_consensus(0, 1.0, km.public_part, 4, b)
    _, other = init_consensus(1, 2.0, km.public_part, 4, b)
    for msg in (first, state.snapshot()):
        assert not msg.count_array.flags.writeable
        with pytest.raises(ValueError):
            msg.count_array[2] = 5
    on_receive(state, other, b)
    on_receive(state, state.snapshot(), b)
    assert first.count_array.tolist() == [1, 0, 0, 0] and first.support == 0b1
    assert state.counts.tolist() == [1, 1, 0, 0] and state.support == 0b11
    assert state.snapshot().count_array.tolist() == [1, 1, 0, 0]


def test_protocol_message_refuses_aggregate_and_unknown_kinds():
    b = make_backend()
    km = b.keygen("T")
    state, _ = init_consensus(0, 1.0, km.public_part, 4, b)
    prepared = (b.mark_prepared(state.channels[0]),)
    for kind, ciphertexts in ((AGGREGATE, state.channels), (AGGREGATE, prepared),
                              ("complete", prepared)):
        with pytest.raises(ValueError, match=f"builds prepared and result messages, "
                                             f"not '{kind}'"):
            ProtocolMessage(state.instance, kind, ciphertexts=ciphertexts, support=0b1)
    with pytest.raises(ValueError, match="unprepared ciphertext"):
        ProtocolMessage(state.instance, PREPARED, ciphertexts=state.channels)
    msg = ProtocolMessage(state.instance, PREPARED, ciphertexts=prepared, support=0b1)
    assert (msg.kind, msg.support, msg.count_array) == (PREPARED, 0b1, None)


@pytest.mark.parametrize("eps", [0.0, 1e-9])
def test_init_and_fold_count_arrays_are_read_only(eps):
    b = make_backend(cap=8, eps=eps)
    km = b.keygen("T")
    pairs = [init_consensus(pid, float(pid), km.public_part, 6, b) for pid in range(6)]
    arrays = []
    for pid, (state, msg) in enumerate(pairs):
        assert msg.count_array is state.counts
        nonzero = sum(1 << j for j, count in enumerate(state.counts) if count > 0)
        assert state.support == msg.support == 1 << pid == nonzero
        arrays.append(state.counts)
    states = [state for state, _ in pairs]
    # one merge (the `add_ct` path), then two in one batch (the `add_many` path)
    assert fold(states[0], [pairs[1][1]], b) == (True, None)
    arrays.append(states[0].counts)
    assert fold(states[0], [pairs[2][1], pairs[3][1]], b) == (True, None)
    arrays.append(states[0].counts)
    assert states[0].counts.tolist() == [1, 1, 1, 1, 0, 0, 0, 0]
    for counts in arrays:
        assert not counts.flags.writeable
        with pytest.raises(ValueError):
            counts[7] = 1.0


def test_try_decide_follows_a_shrunk_required_set():
    b = make_backend()
    km = b.keygen("T")
    values = [3.0, 5.0, 10.0]
    state, _ = init_consensus(0, values[0], km.public_part, 4, b)
    for pid in (1, 2):
        on_receive(state, init_consensus(pid, values[pid], km.public_part, 4, b)[1], b)
    assert try_decide(state, b) is None and state.phase == "active"
    # a gap at 1; 3 has not contributed
    state.required_mask = survivors({0, 2, 3}, state.n)
    assert state.required_mask == 0b1101
    assert try_decide(state, b) is None and state.phase == "active"
    state.required_mask = survivors({0, 1, 2}, state.n)
    assert state.required_mask == 0b111
    prepared, = try_decide(state, b)
    assert state.phase == "decided"
    assert finalize_trusted(b, km.secret_part, prepared, 3) == pytest.approx(6.0, abs=1e-12)
    gapped, _ = init_consensus(0, values[0], km.public_part, 4, b)
    for pid in (1, 2):
        on_receive(gapped, init_consensus(pid, values[pid], km.public_part, 4, b)[1], b)
    # 1 dropped though its vote arrived
    gapped.required_mask = survivors({0, 2}, gapped.n)
    assert gapped.required_mask == 0b101
    prepared, = try_decide(gapped, b)
    assert gapped.phase == "decided"
    assert finalize_trusted(b, km.secret_part, prepared, 2) == pytest.approx(6.5, abs=1e-12)


class SendLog:
    """A process's context that records each send as (destinations, message)."""
    crash_bound = 0

    def __init__(self, neighbors):
        self.neighbors = neighbors
        self.sent = []

    def multicast(self, dsts, msg):
        self.sent.append((tuple(dsts), msg))

    def broadcast(self, msg):
        self.multicast(self.neighbors, msg)

    def send(self, dst, msg):
        self.multicast((dst,), msg)

    def mark_complete(self, instance):
        pass


@pytest.mark.parametrize("protocol", ["outlier", "election"])
def test_a_crash_notice_hands_on_each_state_that_covers_the_survivors(protocol):
    # process 0 holds an active state with every process but q = 3
    n, q = 4, 3
    t = topo.complete(n)
    ctx = SendLog(t.adjacency[0])
    if protocol == "outlier":
        setup = outlier_consensus.build(t, [1.0, 2.0, 3.0, 4.0], c=1.0, seed=1)
        node = setup.nodes[0]
        node.on_start(ctx)
        batch = [(p, init_consensus(p, float(p + 1), node.pk, n, setup.backend,
                                    outlier_consensus.R1)[1]) for p in (1, 2)]
    else:
        setup = leader_election.build(t, [{"primary": p} for p in range(n)], seed=1)
        node, backend = setup.nodes[0], setup.backend
        node.on_start(ctx)
        cap = backend.config.slot_capacity
        votes = None
        for p in range(q):
            ct = backend.encrypt(node.pk, leader_election.make_ballot_vector(
                leader_election.Ballot(p), n, cap), (p, "elect/0:ballot"))
            votes = ct if votes is None else backend.add_ct(votes, ct)
        copy = ConsensusState("elect/0", n, (votes,), counts=None, support=0b0111)
        batch = [(1, copy.snapshot())]
    node.on_deliver(ctx, batch)
    state, = node.states.values()
    assert (state.support, state.phase) == (0b0111, "active")

    def prepared():
        return [(dsts, msg) for dsts, msg in ctx.sent if msg.kind == PREPARED]
    assert prepared() == []
    node.on_crash_notice(ctx, frozenset({q}))
    (dsts, msg), = prepared()
    assert dsts == (netsim.TRUSTED,) and msg.instance == state.instance
    assert state.phase == "decided"
    node.on_crash_notice(ctx, frozenset({q, 1}))
    assert len(prepared()) == 1


@pytest.mark.parametrize("required", [(0,), (3, 1), (0, 2, 3), tuple(range(1, 200, 3))],
                         ids=["one", "unsorted", "gap", "past-64-bits"])
def test_required_mask_matches_a_bit_loop(required):
    mask = survivors(required, 200)
    assert mask == sum(1 << j for j in required)


def test_on_receive_subset_ignored():
    b = make_backend()
    km = b.keygen("T")
    state, _ = init_consensus(0, 1.0, km.public_part, 4, b)
    s1, m1 = init_consensus(1, 2.0, km.public_part, 4, b)
    state, out, dec = on_receive(state, m1, b)
    assert out and dec is None
    # same information again: nonzero set {1} is a subset of local {0,1}
    state, out, dec = on_receive(state, m1, b)
    assert out is False and dec is None
    assert state.counts.tolist() == [1, 1, 0, 0]


def test_on_receive_double_count_then_prepare_undoes_it():
    # two branches that each already absorbed process 1's vote merge at 0
    b = make_backend()
    km = b.keygen("T")
    v = {0: 4.0, 1: -2.0, 2: 10.0, 3: 6.0}
    states = {}
    for pid in range(4):
        states[pid], _ = init_consensus(pid, v[pid], km.public_part, 4, b)
    on_receive(states[2], states[1].snapshot(), b)   # branch A: {1,2}
    on_receive(states[3], states[1].snapshot(), b)   # branch B: {1,3}
    state0 = states[0]
    on_receive(state0, states[2].snapshot(), b)
    state0, out, dec = on_receive(state0, states[3].snapshot(), b)
    assert state0.counts.tolist() == [1, 2, 1, 1]   # vote of 1 counted twice
    prepared, = dec                                  # all counts nonzero
    got = b.decrypt(km.secret_part, prepared)
    assert abs(got.values[0] - mean_oracle(list(v.values()))) < 1e-12


def test_on_receive_decision_trigger():
    b = make_backend()
    km = b.keygen("T")
    state, _ = init_consensus(0, 1.0, km.public_part, 4, b)
    other = b.encrypt(km.public_part, SlotVector([0, 5, 6, 7]), ("x", "agg"))
    m = ConsensusState(INSTANCE_TRUSTED, 4, (other,), read_only([0, 1, 1, 1]),
                       support=0b1110).snapshot()
    state, out, dec = on_receive(state, m, b)
    assert state.counts.tolist() == [1, 1, 1, 1]
    assert state.phase == "decided" and [ct.prepared for ct in dec] == [True]


def _fold_against_on_receive(make, eps=0.0, cap=8):
    """Fold one batch, and on a twin backend pass the same batch message by
    message to `on_receive`; both must leave the same state and decision."""
    seen = []
    for batched in (False, True):
        b = make_backend(cap=cap, eps=eps, seed=4)
        km = b.keygen("T")
        state, msgs = make(b, km)
        if batched:
            merged, decision = fold(state, msgs, b)
        else:
            outs = [on_receive(state, msg, b)[1:] for msg in msgs]
            merged = any(out for out, _ in outs)
            decision = next((dec for _, dec in outs if dec is not None), None)
        if decision is not None:
            decision = tuple(ct._payload.tobytes() for ct in decision)
        channels = state.channels
        seen.append((merged, decision, state.counts.tobytes(), state.support, state.phase,
                     [(ct._payload.tobytes(), ct.noise_bound, ct.taint_mask)
                      for ct in channels],
                     b.encrypt(km.public_part, SlotVector(np.zeros(cap)), ("p", "z")).handle))
    assert seen[0] == seen[1]
    return seen[1]


def test_fold_stops_at_the_message_that_completes_the_counts():
    def make(b, km):
        states = [init_consensus(pid, 2.5 * pid - 4.0, km.public_part, 6, b)[0]
                  for pid in range(6)]
        on_receive(states[1], states[2].snapshot(), b)
        on_receive(states[3], states[4].snapshot(), b)
        state = states[0]
        state.required_mask = survivors({0, 1, 2, 3, 4}, state.n)
        # own echo (dropped), {1, 2}, {2} (now a subset), {3, 4} completes
        # the required counts, then {5} brings a new index after the decision
        return state, [state.snapshot(), states[1].snapshot(), states[2].snapshot(),
                       states[3].snapshot(), states[5].snapshot()]
    merged, decision, counts, support, phase, _, _ = _fold_against_on_receive(make)
    assert merged and decision is not None and phase == "decided"
    assert support == 0b11111
    assert np.frombuffer(counts).tolist() == [1, 1, 1, 1, 1, 0, 0, 0]


def test_fold_of_a_two_channel_round3_batch_at_noise():
    def make(b, km):
        seeds = [init_round3(pid, 1.5 * pid, pid == 3, km.public_part, 6, b)
                 for pid in range(6)]
        states = [s for s, _ in seeds]
        on_receive(states[4], seeds[5][1], b)
        return states[0], [msg for _, msg in seeds[1:4]] + [states[4].snapshot(), seeds[2][1]]
    merged, decision, _, support, phase, channels, _ = _fold_against_on_receive(make, eps=1e-9)
    assert merged and len(decision) == 2 and phase == "decided"
    assert support == 0b111111 and len(channels) == 2


def _impulses(b, km, n, pids):
    """The first-round messages of `pids` under one key, at `n` processes."""
    return [init_consensus(pid, 0.75 * pid - 3.0, km.public_part, n, b)[1]
            for pid in pids]


def test_a_wide_fold_of_disjoint_impulses():
    def make(b, km):
        state, _ = init_consensus(0, 2.0, km.public_part, 21, b)
        return state, _impulses(b, km, 21, range(1, 21))
    merged, decision, counts, support, phase, _, _ = _fold_against_on_receive(make, cap=32)
    assert merged and decision is not None and phase == "decided"
    assert support == (1 << 21) - 1
    assert np.frombuffer(counts).tolist() == [1.0] * 21 + [0.0] * 11


def test_a_wide_fold_that_overlaps_the_state():
    def make(b, km):
        states = [init_consensus(pid, 0.5 * pid, km.public_part, 24, b)[0]
                  for pid in range(3)]
        on_receive(states[0], states[1].snapshot(), b)
        on_receive(states[2], states[1].snapshot(), b)
        # {1, 2} overlaps the state's {0, 1}, then 19 disjoint impulses
        return states[0], [states[2].snapshot()] + _impulses(b, km, 24, range(3, 22))
    merged, decision, counts, support, phase, _, _ = _fold_against_on_receive(make, cap=32)
    assert merged and decision is None and phase == "active"
    assert support == (1 << 22) - 1
    assert np.frombuffer(counts).tolist() == [1.0, 2.0] + [1.0] * 20 + [0.0] * 10


def test_a_wide_fold_of_a_two_channel_round3_batch_at_noise():
    def make(b, km):
        seeds = [init_round3(pid, 1.5 * pid, pid == 7, km.public_part, 21, b)
                 for pid in range(21)]
        return seeds[0][0], [msg for _, msg in seeds[1:]]
    merged, decision, counts, support, phase, channels, _ = \
        _fold_against_on_receive(make, eps=1e-9, cap=32)
    assert merged and len(decision) == 2 and phase == "decided"
    assert support == (1 << 21) - 1 and len(channels) == 2
    assert np.frombuffer(counts).tolist() == [1.0] * 21 + [0.0] * 11


def test_fold_without_a_new_index_changes_nothing():
    def make(b, km):
        state, own = init_consensus(0, 1.0, km.public_part, 4, b)
        return state, [own, own]
    merged, decision, counts, *_ = _fold_against_on_receive(make)
    assert not merged and decision is None
    assert np.frombuffer(counts).tolist() == [1, 0, 0, 0, 0, 0, 0, 0]


def test_prepare_uniform_counts():
    b = make_backend()
    km = b.keygen("T")
    votes = b.encrypt(km.public_part, SlotVector([1, 2, 3, 4]), ("x", "agg"))
    prepared = prepare(b, votes, [1, 1, 1, 1], 4)
    assert np.allclose(b.decrypt(km.secret_part, prepared).values, 2.5)


def test_prepare_undoes_duplicates():
    b = make_backend()
    km = b.keygen("T")
    votes = b.encrypt(km.public_part, SlotVector([1, 2 * 2, 2 * 3, 4]), ("x", "agg"))
    prepared = prepare(b, votes, [1, 2, 2, 1], 4)
    assert np.allclose(b.decrypt(km.secret_part, prepared).values, 2.5)


def test_prepare_constant_inputs():
    b = make_backend()
    km = b.keygen("T")
    votes = b.encrypt(km.public_part, SlotVector([3.25] * 4), ("x", "agg"))
    assert np.allclose(b.decrypt(km.secret_part, prepare(b, votes, [1] * 4, 4)).values,
                       3.25)


def test_prepare_zero_count_rejected():
    b = make_backend()
    km = b.keygen("T")
    votes = b.encrypt(km.public_part, SlotVector([1, 2, 3, 0]), ("x", "agg"))
    with pytest.raises(ValueError):
        prepare(b, votes, [1, 1, 1, 0], 4)


def test_prepare_names_the_first_zero_count():
    b = make_backend(cap=8)
    km = b.keygen("T")
    votes = b.encrypt(km.public_part, SlotVector([1, 2, 3, 4, 5, 0, 0, 0]), ("x", "agg"))
    with pytest.raises(ValueError, match="index 3$"):
        prepare(b, votes, [1, 1, 0, 0, 1, 0, 0, 0], 3, include=(0, 4, 3, 2))


def test_prepare_weights_match_the_per_index_loop():
    b = make_backend(cap=8)
    km = b.keygen("T")
    counts = [3.0, 2.0 ** 60 + 2.0 ** 8, 7.0, 0.0, 5.0, 0.0, 0.0, 0.0]
    include = (0, 1, 2, 4)
    want = np.zeros(8)
    for j in include:
        want[j] = 1.0 / (counts[j] * len(include))
    seen = []
    b.mult_pt = lambda ct, pt, mult=b.mult_pt: seen.append(pt.values) or mult(ct, pt)
    votes = b.encrypt(km.public_part, SlotVector([1.0] * 8), ("x", "agg"))
    prepare(b, votes, counts, len(include), include=include)
    assert seen[0].tobytes() == want.tobytes()


def test_prepare_padded_capacity():
    b = make_backend(cap=8)
    km = b.keygen("T")
    votes = b.encrypt(km.public_part,
                      SlotVector([3, 6, 9, 0, 0, 0, 0, 0]), ("x", "agg"))
    prepared = prepare(b, votes, [3, 3, 3, 0, 0, 0, 0, 0], 3)
    assert np.allclose(b.decrypt(km.secret_part, prepared).values, 2.0)


def test_finalize_trusted_guards():
    b = make_backend()
    km = b.keygen("T")
    votes = b.encrypt(km.public_part, SlotVector([1, 2, 3, 4]), ("x", "agg"))
    with pytest.raises(PrivacyGuardError):
        finalize_trusted(b, km.secret_part, votes, 4)
    prepared = prepare(b, votes, [1, 1, 1, 1], 4)
    assert finalize_trusted(b, km.secret_part, prepared, 4) == pytest.approx(2.5)


def test_finalize_trusted_noisy_backend_close_to_oracle():
    b = make_backend(eps=1e-9, seed=6)
    km = b.keygen("T")
    vals = [12.5, -3.0, 700.0, 0.25]
    votes = None
    for pid, v in enumerate(vals):
        ct = b.encrypt(km.public_part, SlotVector.impulse(4, pid, v), (pid, "v"))
        votes = ct if votes is None else b.add_ct(votes, ct)
    prepared = prepare(b, votes, [1, 1, 1, 1], 4)
    assert abs(finalize_trusted(b, km.secret_part, prepared, 4)
               - mean_oracle(vals)) < 1e-6


def run_trusted(t, inputs, seed=0, schedule="sync", max_latency=4, faults=None):
    setup = build_trusted(t, inputs, seed=seed)
    policy = netsim.SchedulePolicy(schedule, seed * 7919 + 13, max_latency)
    sim = netsim.Simulation(t, setup, policy, faults=faults)
    return sim.run()


def test_conservation_invariant_throughout_run():
    """decrypt(votes)[j] == counts[j] * v_j at every step (backend introspection)."""
    t = topo.ring(4)
    inputs = [1.5, -2.0, 8.0, 3.0]

    setup = build_trusted(t, inputs)
    checks = 0

    def check():
        nonlocal checks
        checks += 1
        for pid in range(4):
            node = setup.nodes[pid]
            state = node.states.get(INSTANCE_TRUSTED)
            if state is None or state.phase != "active":
                continue
            payload = state.channels[0]._payload
            for j in range(4):
                assert math.isclose(payload[j], state.counts[j] * inputs[j],
                                    rel_tol=1e-12, abs_tol=1e-12)

    def checked(deliver):
        def on_deliver(ctx, batch):
            deliver(ctx, batch)
            check()
        return on_deliver

    for pid in range(4):
        setup.nodes[pid].on_deliver = checked(setup.nodes[pid].on_deliver)
    report, trace = netsim.Simulation(t, setup, netsim.SchedulePolicy("sync", 13)).run()
    assert checks >= trace.batches > 0
    for pid in range(4):
        assert report.decided_values[pid] == pytest.approx(mean_oracle(inputs), abs=1e-9)


def test_trusted_run_random_graphs_match_oracle():
    rng = random.Random(101)
    for trial in range(12):
        n = rng.choice([2, 4, 8])
        t = topo.random_connected(n, 0.5, rng)
        inputs = [rng.uniform(-1000, 1000) for _ in range(n)]
        report, _ = run_trusted(t, inputs, seed=trial)
        assert report.termination == "decided"
        for pid in range(n):
            assert abs(report.decided_values[pid] - mean_oracle(inputs)) < 1e-9


def test_dedup_never_blocks_termination_async():
    """Adversarial-ish schedules: random latencies, decisions still happen."""
    rng = random.Random(55)
    for trial in range(10):
        n = rng.choice([4, 8])
        t = topo.random_connected(n, 0.4, rng)
        inputs = [rng.uniform(-10, 10) for _ in range(n)]
        report, _ = run_trusted(t, inputs, seed=trial, schedule="async",
                                max_latency=5)
        assert report.termination == "decided"
        for pid in range(n):
            assert abs(report.decided_values[pid] - mean_oracle(inputs)) < 1e-9


def untrusted_report(topology, inputs, **kw):
    return netsim.run(netsim.ScenarioConfig("avg-untrusted", topology, inputs, **kw))


def test_untrusted_star_center_non_viable():
    report = untrusted_report(topo.star(5), [1, 2, 3, 4, 5])
    assert report.termination == "decided"
    assert report.extra["initiator_result/0"] == NON_VIABLE
    for leaf in range(1, 5):
        assert report.extra[f"initiator_result/{leaf}"] == pytest.approx(3.0, abs=1e-9)


def test_untrusted_path_leaves_succeed():
    report = untrusted_report(topo.path(3), [1.0, 2.0, 3.0], initiators={0, 2})
    assert report.extra["initiator_result/0"] == pytest.approx(2.0, abs=1e-9)
    assert report.extra["initiator_result/2"] == pytest.approx(2.0, abs=1e-9)
    assert "initiator_result/1" not in report.extra


def test_untrusted_ring_all_viable_and_agree():
    inputs = [4.0, -1.0, 2.5, 10.0]
    report = untrusted_report(topo.ring(4), inputs, seed=9)
    want = mean_oracle(inputs)
    for k in range(4):
        assert report.extra[f"initiator_result/{k}"] == pytest.approx(want, abs=1e-9)


def test_untrusted_average_includes_initiator_vote():
    # initiator 0's vote is injected through its neighbor's seed merge
    report = untrusted_report(topo.path(3), [90.0, 0.0, 0.0], initiators={0})
    assert report.extra["initiator_result/0"] == pytest.approx(30.0, abs=1e-9)


def test_untrusted_rejects_out_of_range_initiators():
    with pytest.raises(ValueError, match="initiators out of range"):
        untrusted_report(topo.path(3), [1.0, 2.0, 3.0], initiators={7})


def _reachable(root):
    """Every object reachable from `root` through containers, attributes and slots."""
    stack, seen = [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif not isinstance(obj, type):
            stack.extend(getattr(obj, "__dict__", {}).values())
            stack.extend(getattr(obj, a) for a in getattr(type(obj), "__slots__", ())
                         if hasattr(obj, a))


@pytest.mark.parametrize("family, holders", [("ring", {0, 1, 2, 3, 4}),
                                              ("star", {1, 2, 3, 4})])
def test_untrusted_node_holds_only_its_own_secret(family, holders):
    # the star's hub is a cut vertex, so it initiates nothing and holds no key
    t = getattr(topo, family)(5)
    setup = build_untrusted(t, [1.0, 2.0, 3.0, 4.0, 5.0], seed=3)
    assert set(setup.backend.key_holders().values()) == holders
    for pid in range(t.n):
        secrets = [o for o in _reachable(setup.nodes[pid])
                   if isinstance(o, he_slots.SecretPart)]
        assert [s.holder for s in secrets] == ([pid] if pid in holders else [])
    report, _ = netsim.Simulation(t, setup, netsim.SchedulePolicy("sync", 3)).run()
    assert report.termination == "decided"


def test_prepare_divides_out_counts_beyond_int64():
    b = make_backend()
    km = b.keygen("T")
    state, _ = init_consensus(0, 1.0, km.public_part, 4, b)
    big = 2 ** 70
    votes = b.encrypt(km.public_part, SlotVector([0.0, 4.0 * big, 6.0 * big, 8.0 * big]),
                      ("x", "agg"))
    msg = ConsensusState(INSTANCE_TRUSTED, 4, (votes,), read_only([0, big, big, big]),
                         support=0b1110).snapshot()
    state, out, dec = on_receive(state, msg, b)
    assert out
    prepared, = dec
    assert b.decrypt(km.secret_part, prepared).values[0] == pytest.approx(4.75, abs=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_fold_that_overflows_fails_closed():
    # counts near 2^1020 hold each value times 2^1020: two messages of value 8
    # fold slot 2 to 2^1023 + 2^1023, which overflows float64
    b = make_backend()
    km = b.keygen("T")
    state, _ = init_consensus(0, 8.0, km.public_part, 4, b)
    big = 2 ** 1020
    top = 8.0 * big
    msgs = [ConsensusState(INSTANCE_TRUSTED, 4, (
                b.encrypt(km.public_part, SlotVector(votes), ("x", "agg")),),
                read_only(counts), support=support).snapshot()
            for votes, counts, support in (([0, top, top, 0], (0, big, big, 0), 0b0110),
                                           ([0, 0, top, top], (0, 0, big, big), 0b1100))]
    merged, (dec,) = fold(state, msgs, b)
    assert merged
    assert np.isinf(dec._payload).all()
    with pytest.raises(PreparedSlotsError, match="not finite"):
        finalize_trusted(b, km.secret_part, dec, 4)


def test_long_ring_decides_the_mean():
    # counts pass 2**63 on a 96-ring; the run must still decide the mean
    values = [float(i) for i in range(96)]
    sc = netsim.ScenarioConfig(protocol="avg-trusted", topology=topo.ring(96).to_dict(),
                               inputs=values, seed=1)
    report = netsim.run(sc)
    assert report.termination == "decided"
    want = mean_oracle(values)
    assert all(abs(report.decided_values[p] - want) <= 1e-9 for p in range(96))


def test_128_ring_decides_the_mean():
    values = [float(i) for i in range(128)]
    sc = netsim.ScenarioConfig(protocol="avg-trusted", topology=topo.ring(128).to_dict(),
                               inputs=values, seed=1)
    report = netsim.run(sc)
    assert report.termination == "decided"
    want = mean_oracle(values)
    assert all(abs(report.decided_values[p] - want) <= 1e-9 for p in range(128))


def test_lone_process_decides_its_input():
    sc = netsim.ScenarioConfig(protocol="avg-trusted",
                               topology={"n": 1, "edges": []}, inputs=[3.5])
    report = netsim.run(sc)
    assert report.termination == "decided"
    assert report.decided_values == {0: 3.5, netsim.TRUSTED: 3.5}


def test_untrusted_dense_graph_decides_every_initiator():
    # redundant PREPARED/RESULT floods on G(32, 0.4) once ended this run as a
    # false `deadline-exceeded` although every initiator had decided
    sc = netsim.ScenarioConfig(protocol="avg-untrusted",
                               topology={"family": "random", "n": 32, "p": 0.4},
                               inputs={"random_uniform": [-100, 100]}, seed=1)
    report = netsim.run(sc)
    assert report.termination == "decided"
    want = mean_oracle(sc.resolve_inputs(sc.resolve_topology()))
    for k in range(32):
        assert report.extra[f"initiator_result/{k}"] == pytest.approx(want, abs=1e-9)


def _outlier_build(route):
    def build(t, inputs, seed):
        return outlier_consensus.build(t, inputs, 1.0, variance_route=route, seed=seed)
    return build


FOLDING_BUILDS = {"build_trusted": build_trusted, "build_untrusted": build_untrusted,
                  "outlier-decrypt": _outlier_build("decrypt"),
                  "outlier-encrypted": _outlier_build("encrypted")}


@pytest.mark.parametrize("build,schedule", [
    pytest.param(build, schedule, id=build if schedule == "sync" else f"{build}-async")
    for build in FOLDING_BUILDS for schedule in ("sync", "async")])
def test_every_aggregate_delivery_goes_through_fold(build, schedule, monkeypatch):
    """Wrapping `avg_consensus.fold` sees each AGGREGATE delivered to a
    process holding its instance handed to it exactly once, in one call per
    instance per delivery batch, and only with messages of the state's own
    instance: the outlier rounds share one key, so a fold across rounds
    would raise nothing.  A delivery batch yields at most one AGGREGATE
    multicast per instance besides a round start's.  Every AGGREGATE a
    process sends goes out through `Context.multicast`, which `broadcast`
    also calls."""
    t = topo.random_connected(16, 0.4, random.Random(16))
    inputs = [float(i) for i in range(16)]
    folds, calls, held, batches, starts, delivering = [], [], [], [], [], []

    def counted(state, msgs, backend, fold=avg_consensus.fold):
        msgs = list(msgs)
        assert {msg.instance for msg in msgs} == {state.instance}
        pid, = (p for p, node in setup.nodes.items()
                if getattr(node, "states", {}).get(state.instance) is state)
        calls.append((pid, state.instance, len(folds)))
        folds.extend((pid, msg) for msg in msgs)
        return fold(state, msgs, backend)

    def delivered(node, ctx, batch, deliver=avg_consensus.FloodingNode.on_deliver):
        delivering.append(node.pid)
        deliver(node, ctx, batch)
        delivering.pop()
        # a round a RESULT of this batch starts is folded into in this batch
        mine = [msg for _, msg in batch
                if msg.kind == AGGREGATE and msg.instance in node.states]
        held.extend((node.pid, msg) for msg in mine)
        batches.extend((node.pid, instance) for instance in {msg.instance for msg in mine})

    def started(node, ctx, state, msg, start=avg_consensus.FloodingNode._start):
        if delivering:      # a round started on a RESULT of a delivery batch
            starts.append((node.pid, ctx._sim._now, state.instance))
        return start(node, ctx, state, msg)

    broadcasts = []

    def recorded(ctx, dsts, msg, send=netsim.Context.multicast):
        if msg.kind == AGGREGATE:
            broadcasts.append((ctx.pid, ctx._sim._now, msg.instance))
        return send(ctx, dsts, msg)

    monkeypatch.setattr(avg_consensus, "fold", counted)
    monkeypatch.setattr(avg_consensus.FloodingNode, "on_deliver", delivered)
    monkeypatch.setattr(avg_consensus.FloodingNode, "_start", started)
    monkeypatch.setattr(netsim.Context, "multicast", recorded)
    setup = FOLDING_BUILDS[build](t, inputs, seed=3)
    log = record_deliveries(setup)
    report, trace = netsim.Simulation(t, setup, netsim.SchedulePolicy(schedule, 3)).run()
    assert report.termination == "decided" and len(log) == trace.deliveries
    # the wrapper saw every AGGREGATE the simulator delivered to a process
    assert Counter((pid, id(msg)) for pid, msg in held) <= \
        Counter((dst, id(msg)) for _, _, dst, msg in log)
    assert len(held) == len(folds) > 0
    # a batch is folded instance by instance, so compare without order
    assert Counter((pid, id(msg)) for pid, msg in folds) == \
        Counter((pid, id(msg)) for pid, msg in held)
    assert Counter((pid, instance) for pid, instance, _ in calls) == Counter(batches)
    # the rebroadcasts after a fold are among the recorded sends
    assert any(t > 0 for _, t, _ in broadcasts)
    # in async outlier runs a batch that brings a RESULT can also bring the
    # next round's aggregates, which the round started on it then folds and
    # multicasts a second time
    rebroadcasts = Counter(broadcasts)
    rebroadcasts.subtract(starts)
    assert set(rebroadcasts.values()) <= {0, 1}


G16 = {"family": "random", "n": 16, "p": 0.4}
RING8_BALLOTS = [{"primary": (3 * p) % 8, "secondary": (p + 1) % 8} for p in range(8)]


@pytest.mark.parametrize("scenario", [
    dict(protocol="avg-trusted", topology=G16),
    dict(protocol="outlier", topology=G16, c=1.5),
    dict(protocol="outlier", topology=G16, c=1.5, variance_route="encrypted"),
    dict(protocol="election", topology={"family": "ring", "n": 8}, inputs=RING8_BALLOTS),
    # a crash in the plan runs lineages, which a fault-free election does not
    dict(protocol="election", topology={"family": "ring", "n": 8}, inputs=RING8_BALLOTS,
         faults=netsim.FaultPlan((netsim.CrashFault(5, 2),))),
], ids=["avg-trusted", "outlier-decrypt", "outlier-encrypted", "election-ring8",
        "election-ring8-crash"])
def test_a_merging_fold_builds_no_message(scenario, monkeypatch):
    """Every AGGREGATE message built during a run is sent: a fold reports a
    merge with a flag and builds no snapshot that nobody sends.  A message
    is built by `ProtocolMessage.__init__` or by `ConsensusState.snapshot`."""
    built, sent = [], set()

    def init(msg, instance, kind, *args, _init=ProtocolMessage.__init__, **kwargs):
        _init(msg, instance, kind, *args, **kwargs)
        if kind == AGGREGATE:
            built.append(msg)     # held, so no id is reused

    def snapshot(state, _snapshot=ConsensusState.snapshot):
        msg = _snapshot(state)
        built.append(msg)
        return msg

    def send(sim, frm, dst, msg, _send=netsim.Simulation._send):
        sent.add(id(msg))
        return _send(sim, frm, dst, msg)

    monkeypatch.setattr(ProtocolMessage, "__init__", init)
    monkeypatch.setattr(ConsensusState, "snapshot", snapshot)
    monkeypatch.setattr(netsim.Simulation, "_send", send)
    scenario = {"inputs": {"random_uniform": [-100, 100]}, "seed": 5, **scenario}
    report = netsim.run(netsim.ScenarioConfig(**scenario))
    assert report.termination == "decided" and not report.privacy_violations
    assert built and [m for m in built if id(m) not in sent] == []


# -- traffic ----------------------------------------------------------------

def _g16_run(build):
    """The delivered messages of a sync run on G(16, 0.4), in delivery order."""
    t = topo.random_connected(16, 0.4, random.Random(16))
    setup = build(t, [float(i) for i in range(16)], seed=3)
    log = record_deliveries(setup)
    report, trace = netsim.Simulation(t, setup, netsim.SchedulePolicy("sync", 3)).run()
    assert report.termination == "decided" and len(log) == trace.deliveries
    assert report.privacy_violations == [] and trace.leaks == []
    return log


def test_trusted_prepared_goes_only_to_the_collector():
    prepared = [(frm, dst) for _, frm, dst, msg in _g16_run(build_trusted)
                if msg.kind == PREPARED]
    assert all(dst == netsim.TRUSTED for _, dst in prepared)
    assert sorted(frm for frm, _ in prepared) == list(range(16))


def test_untrusted_prepared_goes_to_its_initiator_and_one_result_per_process():
    messages = _g16_run(build_untrusted)
    prepared = [(dst, msg.instance) for _, _, dst, msg in messages if msg.kind == PREPARED]
    assert {dst for dst, _ in prepared} == set(range(16))
    assert all(instance == instance_for_initiator(dst) for dst, instance in prepared)
    results = Counter((frm, dst) for _, frm, dst, msg in messages if msg.kind == RESULT)
    assert {frm for frm, _ in results} == set(range(16))
    assert max(results.values()) == 1


def test_untrusted_dense_graph_traffic_bound():
    sc = netsim.ScenarioConfig(protocol="avg-untrusted",
                               topology={"family": "random", "n": 32, "p": 0.4},
                               inputs={"random_uniform": [-100, 100]}, seed=1)
    report = netsim.run(sc)
    assert report.termination == "decided"
    # 81,930 while every process forwarded each instance's PREPARED and RESULT
    assert sum(report.messages_sent.values()) <= 55_000


# -- prepare work ------------------------------------------------------------

@pytest.mark.parametrize("build, graph, schedule", [
    (build_trusted, lambda: topo.random_connected(16, 0.4, random.Random(16)), "sync"),
    (build_untrusted, lambda: topo.ring(8), "async"),
], ids=["trusted-g16-sync", "untrusted-ring8-async"])
def test_only_opened_aggregates_are_summed(monkeypatch, build, graph, schedule):
    """Every decided channel is rotate-summed, but only the prepared
    aggregates a keyholder decrypts have their payload summed."""
    calls, sums, opened = [], [], set()
    rotate_sum, decrypt = SlotBackend.rotate_sum, SlotBackend.decrypt
    monkeypatch.setattr(SlotBackend, "rotate_sum",
                        lambda self, ct: calls.append(ct.handle) or rotate_sum(self, ct))
    monkeypatch.setattr(he_slots, "_rotate_add",
                        lambda p, noise, f=he_slots._rotate_add: sums.append(1) or f(p, noise))

    def opening(self, secret, ct, caller=None):
        if ct.prepared:
            opened.add(ct.handle)
        return decrypt(self, secret, ct, caller)
    monkeypatch.setattr(SlotBackend, "decrypt", opening)
    t = graph()
    values = [float(i) for i in range(t.n)]
    setup = build(t, values, seed=3)
    report, _ = netsim.Simulation(t, setup, netsim.SchedulePolicy(schedule, 3)).run()
    assert report.termination == "decided" and report.privacy_violations == []
    assert all(v == pytest.approx(mean_oracle(values), abs=1e-9)
               for v in report.decided_values.values())
    decided = sum(len(state.channels) for node in setup.nodes.values()
                  for state in getattr(node, "states", {}).values() if state.phase == "decided")
    assert len(calls) == decided and len(opened) < decided
    assert len(sums) == len(opened)


@pytest.mark.parametrize("eps", [0.0, 1e-9])
@pytest.mark.parametrize("alive", [None, {0, 2, 3, 4}, {1, 4}],
                         ids=["full", "one-crash", "two-left"])
def test_try_decide_prepares_like_an_explicit_include(eps, alive):
    n, counts = 5, [2.0, 1.0, 3.0, 2.0 ** 60, 1.0, 0.0, 0.0, 0.0]
    values = SlotVector([4.0, -1.5, 9.0, 2.0 ** 59, 0.25, 0.0, 0.0, 0.0])
    got, want = [], []
    for out in (got, want):
        b = make_backend(cap=8, eps=eps, seed=6)
        km = b.keygen("T")
        state = ConsensusState(INSTANCE_TRUSTED, n,
                               (b.encrypt(km.public_part, values, ("x", "agg")),),
                               read_only(counts), support=0b11111)
        if out is got:
            if alive is not None:
                state.required_mask = survivors(alive, n)
            ct, = try_decide(state, b)
        else:
            include = np.array(sorted(range(n) if alive is None else alive))
            ct = prepare(b, state.channels[0], counts, len(include), include=include)
        out += [ct._payload.tobytes(), ct.noise_bound, ct.handle, ct.prepared]
        # the next draw and handle follow as well
        nxt = b.encrypt(km.public_part, values, ("x", "next"))
        out += [nxt._payload.tobytes(), nxt.handle]
    assert got == want
