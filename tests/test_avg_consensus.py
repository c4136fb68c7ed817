"""State-machine and end-to-end tests for the flooding average consensus."""

import math
import random
from collections import Counter

import numpy as np
import pytest

from consentry import avg_consensus, netsim
from consentry import topology as topo
from consentry.avg_consensus import (AGGREGATE, INSTANCE_TRUSTED, NON_VIABLE,
                                     PREPARED, RESULT, PreparedSlotsError,
                                     PrivacyGuardError,
                                     ProtocolMessage, build_trusted,
                                     build_untrusted, finalize_trusted,
                                     fold, init_consensus, instance_for_initiator,
                                     on_receive, prepare, run_untrusted,
                                     try_decide)
from consentry.outlier_consensus import init_round3, survivors
from consentry.he_slots import BackendConfig, SlotBackend, SlotVector

from oracles import mean_oracle


def make_backend(cap=4, eps=0.0, seed=2):
    return SlotBackend(BackendConfig(cap, eps), seed=seed)


def test_init_consensus_impulse():
    b = make_backend()
    km = b.keygen("T")
    state, msg = init_consensus(2, 7.0, km.public_part, 4, b)
    assert b.inspect_payload(state.votes_ct).tolist() == [0, 0, 7, 0]
    assert state.counts.tolist() == [0, 0, 1, 0]
    assert msg.kind == AGGREGATE and msg.counts == (0, 0, 1, 0)


def test_init_consensus_zero_vote_still_counted():
    b = make_backend()
    km = b.keygen("T")
    state, _ = init_consensus(0, 0.0, km.public_part, 4, b)
    assert b.inspect_payload(state.votes_ct).tolist() == [0, 0, 0, 0]
    assert state.counts.tolist() == [1, 0, 0, 0]


def test_padding_slot_stays_zero():
    b = make_backend(cap=4)
    km = b.keygen("T")
    state, _ = init_consensus(1, 3.5, km.public_part, 3, b)
    s2, m2 = init_consensus(2, -1.0, km.public_part, 3, b)
    on_receive(state, m2, b)
    assert b.inspect_payload(state.votes_ct)[3] == 0.0
    assert state.counts[3] == 0


def msg_of(state):
    return ProtocolMessage(state.instance, AGGREGATE, votes_ct=state.votes_ct,
                           counts=tuple(int(x) for x in state.counts))


def test_tuple_count_message_folds_like_the_snapshot_it_copies():
    b = make_backend(cap=8)
    km = b.keygen("T")
    states = [init_consensus(pid, 1.5 * pid - 2.0, km.public_part, 5, b)[0]
              for pid in range(5)]
    on_receive(states[2], states[1].snapshot(), b)
    on_receive(states[3], states[1].snapshot(), b)
    on_receive(states[3], states[2].snapshot(), b)    # counts (0, 2, 1, 1, ...)
    source = states[3]
    snap, copy = source.snapshot(), msg_of(source)
    assert copy.counts == snap.counts == (0, 2, 1, 1, 0, 0, 0, 0)
    assert copy.support == snap.support == 0b1110
    assert copy.count_array.tolist() == snap.count_array.tolist()
    folded = {}
    for name, msg in (("snapshot", snap), ("tuple", copy)):
        state, _ = init_consensus(0, -2.0, km.public_part, 5, b)
        _, out, dec = on_receive(state, msg, b)
        again = on_receive(state, msg, b)
        folded[name] = (state.counts.tolist(), state.support, bool(out), dec,
                        b.inspect_payload(state.votes_ct).tolist(), again[1:])
    assert folded["snapshot"] == folded["tuple"]
    assert folded["tuple"][:3] == ([1, 2, 1, 1, 0, 0, 0, 0], 0b1111, True)
    assert folded["tuple"][5] == (False, None)


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
    on_receive(state, msg_of(state), b)
    assert first.counts == (1, 0, 0, 0) and first.support == 0b1
    assert state.counts.tolist() == [1, 1, 0, 0] and state.support == 0b11
    assert state.snapshot().counts == (1, 1, 0, 0)
    own = np.array([1.0, 1.0, 0.0, 0.0])
    msg = ProtocolMessage(state.instance, AGGREGATE, votes_ct=state.votes_ct, counts=own)
    own[2] = 7.0
    assert msg.counts == (1, 1, 0, 0) and not msg.count_array.flags.writeable


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
    prepared = try_decide(state, b)
    assert state.phase == "decided" and prepared is not None
    assert finalize_trusted(b, km.secret_part, prepared, 3) == pytest.approx(6.0, abs=1e-12)
    gapped, _ = init_consensus(0, values[0], km.public_part, 4, b)
    for pid in (1, 2):
        on_receive(gapped, init_consensus(pid, values[pid], km.public_part, 4, b)[1], b)
    # 1 dropped though its vote arrived
    gapped.required_mask = survivors({0, 2}, gapped.n)
    assert gapped.required_mask == 0b101
    prepared = try_decide(gapped, b)
    assert gapped.phase == "decided" and prepared is not None
    assert finalize_trusted(b, km.secret_part, prepared, 2) == pytest.approx(6.5, abs=1e-12)


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
    on_receive(states[2], msg_of(states[1]), b)   # branch A: {1,2}
    on_receive(states[3], msg_of(states[1]), b)   # branch B: {1,3}
    state0 = states[0]
    on_receive(state0, msg_of(states[2]), b)
    state0, out, dec = on_receive(state0, msg_of(states[3]), b)
    assert state0.counts.tolist() == [1, 2, 1, 1]   # vote of 1 counted twice
    assert dec is not None                           # all counts nonzero
    got = b.decrypt(km.secret_part, dec)
    assert abs(got[0] - mean_oracle(list(v.values()))) < 1e-12


def test_on_receive_decision_trigger():
    b = make_backend()
    km = b.keygen("T")
    state, _ = init_consensus(0, 1.0, km.public_part, 4, b)
    other = b.encrypt(km.public_part, SlotVector([0, 5, 6, 7]), ("x", "agg"))
    m = ProtocolMessage(INSTANCE_TRUSTED, AGGREGATE, votes_ct=other,
                        counts=(0, 1, 1, 1))
    state, out, dec = on_receive(state, m, b)
    assert state.counts.tolist() == [1, 1, 1, 1]
    assert state.phase == "decided" and dec is not None and dec.prepared


def test_on_receive_instance_mismatch_dropped():
    b = make_backend()
    km = b.keygen("T")
    state, _ = init_consensus(0, 1.0, km.public_part, 4, b)
    _, m = init_consensus(1, 2.0, km.public_part, 4, b, instance="avg/9")
    state, out, dec = on_receive(state, m, b)
    assert out is False and dec is None and state.counts.tolist() == [1, 0, 0, 0]


def _fold_against_on_receive(make, eps=0.0):
    """Fold one batch, and on a twin backend pass the same batch message by
    message to `on_receive`; both must leave the same state and decision."""
    seen = []
    for batched in (False, True):
        b = make_backend(cap=8, eps=eps, seed=4)
        km = b.keygen("T")
        state, msgs = make(b, km)
        if batched:
            merged, decision = fold(state, msgs, b)
        else:
            outs = [on_receive(state, msg, b)[1:] for msg in msgs]
            merged = any(out for out, _ in outs)
            decision = next((dec for _, dec in outs if dec is not None), None)
        if decision is not None:
            decision = tuple(b.inspect_payload(ct).tobytes() for ct in
                             (decision if isinstance(decision, tuple) else (decision,)))
        channels = [ct for ct in (state.votes_ct, state.participating_ct) if ct is not None]
        seen.append((merged, decision, state.counts.tobytes(), state.support, state.phase,
                     [(b.inspect_payload(ct).tobytes(), ct.noise_bound, ct.taint_mask)
                      for ct in channels],
                     b.encrypt(km.public_part, SlotVector.zeros(8), ("p", "z")).handle))
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


def test_fold_without_a_new_index_changes_nothing():
    def make(b, km):
        state, own = init_consensus(0, 1.0, km.public_part, 4, b)
        _, other = init_consensus(1, 2.0, km.public_part, 4, b, instance="avg/9")
        return state, [own, other, own]
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


def run_trusted(t, inputs, seed=0, schedule="sync", max_latency=4,
                invariant_check=None, faults=None):
    setup = build_trusted(t, inputs, seed=seed)
    setup.invariant_check = invariant_check
    policy = netsim.SchedulePolicy(schedule, seed * 7919 + 13, max_latency)
    sim = netsim.Simulation(t, setup, policy, faults=faults)
    return sim.run()


def test_conservation_invariant_throughout_run():
    """decrypt(votes)[j] == counts[j] * v_j at every step (backend introspection)."""
    t = topo.ring(4)
    inputs = [1.5, -2.0, 8.0, 3.0]

    def check(nodes):
        for pid in range(4):
            node = nodes[pid]
            if node.state is None or node.state.phase != "active":
                continue
            payload = node.backend.inspect_payload(node.state.votes_ct)
            for j in range(4):
                assert math.isclose(payload[j], node.state.counts[j] * inputs[j],
                                    rel_tol=1e-12, abs_tol=1e-12)

    report, _ = run_trusted(t, inputs, invariant_check=check)
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


def test_untrusted_star_center_non_viable():
    result = run_untrusted(topo.star(5), [1, 2, 3, 4, 5])
    assert result[0] == NON_VIABLE
    for leaf in range(1, 5):
        assert result[leaf] == pytest.approx(3.0, abs=1e-9)


def test_untrusted_path_leaves_succeed():
    result = run_untrusted(topo.path(3), [1.0, 2.0, 3.0], initiators={0, 2})
    assert result[0] == pytest.approx(2.0, abs=1e-9)
    assert result[2] == pytest.approx(2.0, abs=1e-9)
    assert 1 not in result


def test_untrusted_ring_all_viable_and_agree():
    inputs = [4.0, -1.0, 2.5, 10.0]
    result = run_untrusted(topo.ring(4), inputs, seed=9)
    want = mean_oracle(inputs)
    for k in range(4):
        assert result[k] == pytest.approx(want, abs=1e-9)


def test_untrusted_average_includes_initiator_vote():
    # initiator 0's vote is injected through its neighbor's seed merge
    result = run_untrusted(topo.path(3), [90.0, 0.0, 0.0], initiators={0})
    assert result[0] == pytest.approx(30.0, abs=1e-9)


def test_untrusted_rejects_out_of_range_initiators():
    with pytest.raises(ValueError):
        run_untrusted(topo.path(3), [1.0, 2.0, 3.0], initiators={7})


def test_prepare_divides_out_counts_beyond_int64():
    b = make_backend()
    km = b.keygen("T")
    state, _ = init_consensus(0, 1.0, km.public_part, 4, b)
    big = 2 ** 70
    votes = b.encrypt(km.public_part, SlotVector([0.0, 4.0 * big, 6.0 * big, 8.0 * big]),
                      ("x", "agg"))
    msg = ProtocolMessage(INSTANCE_TRUSTED, AGGREGATE, votes_ct=votes,
                          counts=(0, big, big, big))
    state, out, dec = on_receive(state, msg, b)
    assert out and dec is not None
    assert b.decrypt(km.secret_part, dec)[0] == pytest.approx(4.75, abs=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_fold_that_overflows_fails_closed():
    # counts near 2^1020 hold each value times 2^1020: two messages of value 8
    # fold slot 2 to 2^1023 + 2^1023, which overflows float64
    b = make_backend()
    km = b.keygen("T")
    state, _ = init_consensus(0, 8.0, km.public_part, 4, b)
    big = 2 ** 1020
    top = 8.0 * big
    msgs = [ProtocolMessage(INSTANCE_TRUSTED, AGGREGATE, counts=counts,
                            votes_ct=b.encrypt(km.public_part, SlotVector(votes), ("x", "agg")))
            for votes, counts in (([0, top, top, 0], (0, big, big, 0)),
                                  ([0, 0, top, top], (0, 0, big, big)))]
    merged, dec = fold(state, msgs, b)
    assert merged and dec is not None
    assert np.isinf(b.inspect_payload(dec)).all()
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


@pytest.mark.parametrize("build", [build_trusted, build_untrusted])
def test_every_aggregate_delivery_goes_through_fold(build, monkeypatch):
    """Wrapping `avg_consensus.fold` sees each AGGREGATE delivered to a
    process holding its instance handed to it exactly once, in one call per
    instance per delivery batch, and a delivery batch yields at most one
    AGGREGATE broadcast per instance."""
    t = topo.random_connected(16, 0.4, random.Random(16))
    inputs = [float(i) for i in range(16)]
    folds, calls = [], []

    def counted(state, msgs, backend, fold=avg_consensus.fold):
        msgs = list(msgs)
        assert {msg.instance for msg in msgs} == {state.instance}
        calls.append((state.id, state.instance, len(folds)))
        folds.extend((state.id, msg) for msg in msgs)
        return fold(state, msgs, backend)

    broadcasts = []

    def recorded(ctx, msg, exclude=(), send=netsim.Context.broadcast):
        if msg.kind == AGGREGATE:
            broadcasts.append((ctx.pid, ctx._sim._now, msg.instance))
        return send(ctx, msg, exclude)

    monkeypatch.setattr(avg_consensus, "fold", counted)
    monkeypatch.setattr(netsim.Context, "broadcast", recorded)
    setup = build(t, inputs, seed=3)
    report, trace = netsim.Simulation(t, setup, netsim.SchedulePolicy("sync", 3),
                                      keep_log=True).run()
    assert report.termination == "decided"
    held = [(dst, msg) for _, _, dst, msg in trace.messages
            if msg.kind == AGGREGATE and msg.instance in setup.nodes[dst].states]
    assert len(held) == len(folds) > 0
    # a batch is folded instance by instance, so compare without order
    assert Counter((pid, id(msg)) for pid, msg in folds) == \
        Counter((dst, id(msg)) for dst, msg in held)
    batches = {(t, dst, msg.instance) for t, _, dst, msg in trace.messages
               if msg.kind == AGGREGATE and msg.instance in setup.nodes[dst].states}
    assert len(calls) == len(batches)
    assert len(set(broadcasts)) == len(broadcasts)


G16 = {"family": "random", "n": 16, "p": 0.4}
RING8_BALLOTS = [{"primary": (3 * p) % 8, "secondary": (p + 1) % 8} for p in range(8)]


@pytest.mark.parametrize("scenario", [
    dict(protocol="avg-trusted", topology=G16),
    dict(protocol="outlier", topology=G16, c=1.5),
    dict(protocol="outlier", topology=G16, c=1.5, variance_route="encrypted"),
    dict(protocol="election", topology={"family": "ring", "n": 8}, inputs=RING8_BALLOTS),
], ids=["avg-trusted", "outlier-decrypt", "outlier-encrypted", "election-ring8"])
def test_a_merging_fold_builds_no_message(scenario, monkeypatch):
    """Every AGGREGATE message built during a run is sent: a fold reports a
    merge with a flag and builds no snapshot that nobody sends."""
    built, sent = [], set()

    def init(msg, instance, kind, *args, _init=ProtocolMessage.__init__, **kwargs):
        _init(msg, instance, kind, *args, **kwargs)
        if kind == AGGREGATE:
            built.append(msg)     # held, so no id is reused

    def send(sim, frm, dst, msg, _send=netsim.Simulation._send):
        sent.add(id(msg))
        return _send(sim, frm, dst, msg)

    monkeypatch.setattr(ProtocolMessage, "__init__", init)
    monkeypatch.setattr(netsim.Simulation, "_send", send)
    scenario = {"inputs": {"random_uniform": [-100, 100]}, "seed": 5, **scenario}
    report = netsim.run(netsim.ScenarioConfig(**scenario))
    assert report.termination == "decided" and not report.privacy_violations
    assert built and [m for m in built if id(m) not in sent] == []


# -- traffic ----------------------------------------------------------------

def _g16_run(build):
    """A sync run on G(16, 0.4) that keeps the delivered-message log."""
    t = topo.random_connected(16, 0.4, random.Random(16))
    setup = build(t, [float(i) for i in range(16)], seed=3)
    report, trace = netsim.Simulation(t, setup, netsim.SchedulePolicy("sync", 3),
                                      keep_log=True).run()
    assert report.termination == "decided"
    assert report.privacy_violations == [] and trace.leaks == []
    return trace


def test_trusted_prepared_goes_only_to_the_collector():
    prepared = [(frm, dst) for _, frm, dst, msg in _g16_run(build_trusted).messages
                if msg.kind == PREPARED]
    assert all(dst == netsim.TRUSTED for _, dst in prepared)
    assert sorted(frm for frm, _ in prepared) == list(range(16))


def test_untrusted_prepared_goes_to_its_initiator_and_one_result_per_process():
    messages = _g16_run(build_untrusted).messages
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
