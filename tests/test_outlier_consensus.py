"""Outlier-resistant consensus: unit rules, both variance routes, faults."""

import math
import random

import numpy as np
import pytest

from consentry import netsim, outlier_consensus
from consentry import topology as topo
from consentry.avg_consensus import (PREPARED, RESULT, ConsensusState, ProtocolMessage,
                                     finalize_trusted, prepare, survivors, try_decide)
from consentry.he_slots import BackendConfig, SlotBackend, SlotVector
from consentry.netsim import CrashFault, FaultPlan, ScenarioConfig
from consentry.outlier_consensus import (AllOutliersError, finalize_outlier,
                                         init_round3, is_outlier,
                                         on_receive_round3, round2_input,
                                         sigma_from_round2)

from exposures import record_deliveries
from oracles import outlier_oracle


def make_backend(cap=4, eps=0.0, seed=2):
    return SlotBackend(BackendConfig(cap, eps), seed=seed)


def test_outlier_params_validation():
    t, values = topo.ring(3), [1.0, 2.0, 3.0]
    for c in (0, -1):
        with pytest.raises(ValueError, match=f"^c must be positive, got {c}$"):
            outlier_consensus.build(t, values, c)
    setup = outlier_consensus.build(t, values, 2.0)
    assert [setup.nodes[p].c for p in range(3)] == [2.0, 2.0, 2.0]


def test_round2_input():
    assert round2_input(5.0, 5.0) == 0.0
    assert round2_input(3.0, 1.0) == 4.0
    assert round2_input(-2.0, 2.0) == 16.0


def test_sigma_from_round2():
    assert sigma_from_round2(0.0) == 0.0
    assert sigma_from_round2(4.0) == 2.0
    assert sigma_from_round2(-1e-12) == 0.0
    with pytest.raises(ValueError):
        sigma_from_round2(-1.0)


def test_is_outlier_strict_boundary():
    assert not is_outlier(5.0, 5.0, 1.0, 2.0)
    assert is_outlier(3.0, 0.0, 1.0, 2.0)
    assert not is_outlier(2.0, 0.0, 1.0, 2.0)   # boundary participates


def test_init_round3_layout():
    b = make_backend()
    km = b.keygen("T")
    state, msg = init_round3(1, 5.0, False, km.public_part, 4, b)
    assert state.channels[0]._payload.tolist() == [0, 5, 0, 0]
    assert state.channels[1]._payload.tolist() == [0, 1, 0, 0]
    assert state.counts.tolist() == [0, 1, 0, 0]
    out_state, _ = init_round3(0, 99.0, True, km.public_part, 4, b)
    assert out_state.channels[0]._payload.tolist() == [0, 0, 0, 0]
    assert out_state.channels[1]._payload.tolist() == [0, 0, 0, 0]
    assert out_state.counts.tolist() == [1, 0, 0, 0]


def test_on_receive_round3_merge_and_decide():
    b = make_backend()
    km = b.keygen("T")
    s0, m0 = init_round3(0, 1.0, False, km.public_part, 3, b)
    s1, m1 = init_round3(1, 2.0, False, km.public_part, 3, b)
    s2, m2 = init_round3(2, 30.0, True, km.public_part, 3, b)
    s0, out, dec = on_receive_round3(s0, m1, b)
    assert out and dec is None
    # subset message leaves both aggregates unchanged
    before = s0.channels[1]._payload.tolist()
    s0, out, dec = on_receive_round3(s0, m1, b)
    assert out is False and s0.channels[1]._payload.tolist() == before
    s0, out, dec = on_receive_round3(s0, m2, b)
    assert dec is not None
    pv, pp = dec
    assert pv.prepared and pp.prepared
    value = finalize_outlier(b, km.secret_part, pv, pp, 3)
    assert value == pytest.approx(1.5)       # outlier 30 excluded


def test_finalize_outlier_examples():
    """Expected values computed with the three-round plaintext oracle."""
    values = [1.0, 2.0, 3.0, 100.0]
    mu, sigma, flags, filtered = outlier_oracle(values, c=1.0)
    assert mu == pytest.approx(26.5)
    assert sigma == pytest.approx(math.sqrt(1801.25))
    assert flags == {0: False, 1: False, 2: False, 3: True}
    assert filtered == pytest.approx(2.0)
    assert run_outlier_sim(values, c=1.0) == pytest.approx(2.0, abs=1e-9)

    # with c = 0.5 the band mu +/- 0.5*sigma (~21.2) excludes every value
    _, _, flags_half, filtered_half = outlier_oracle(values, c=0.5)
    assert all(flags_half.values()) and filtered_half is None


def test_finalize_outlier_no_outliers_reduces_to_mean():
    values = [5.0, 6.0, 7.0, 8.0]
    assert run_outlier_sim(values, c=3.0) == pytest.approx(6.5, abs=1e-12)


def test_finalize_outlier_constants():
    assert run_outlier_sim([5.0] * 4, c=0.1) == pytest.approx(5.0)


def test_all_outliers_surfaces_typed_error():
    b = make_backend()
    km = b.keygen("T")
    votes = b.encrypt(km.public_part, SlotVector(np.zeros(4)), ("x", "agg"))
    part = b.encrypt(km.public_part, SlotVector(np.zeros(4)), ("x", "part"))
    pv = prepare(b, votes, [1, 1, 1, 1], 4)
    pp = prepare(b, part, [1, 1, 1, 1], 4)
    with pytest.raises(AllOutliersError):
        finalize_outlier(b, km.secret_part, pv, pp, 4)


def test_all_outliers_run_reports_outcome():
    values = [1.0, 2.0, 3.0, 100.0]
    sc = ScenarioConfig(protocol="outlier", topology=topo.ring(4).to_dict(),
                        inputs=values, c=0.5, seed=4)
    report = netsim.run(sc)
    assert report.termination == "decided"
    assert report.extra["outcome"] == "all-outliers"
    assert all(report.decided_values[p] is None for p in range(4))
    assert report.privacy_violations == []


def run_outlier_sim(values, c, route="decrypt", seed=3, topology=None,
                    faults=None, schedule="sync"):
    t = topology or topo.ring(len(values))
    sc = ScenarioConfig(protocol="outlier", topology=t.to_dict(), inputs=values,
                        c=c, seed=seed, variance_route=route, schedule=schedule,
                        faults=faults or FaultPlan())
    report = netsim.run(sc)
    assert report.termination == "decided", report.extra
    vals = {report.decided_values[p] for p in range(t.n)
            if p not in {int(k) for k in report.extra.get("crashed", {})}}
    assert len(vals) == 1
    return vals.pop()


def prepared_variance(b, mean_ct, values, pk):
    """The encrypted route's round 2 summed at one place: each process's
    Enc((v - mean)^2) added up and prepared over every process."""
    total = None
    for pid, v in sorted(values.items()):
        sq = outlier_consensus.variance_contribution(b, mean_ct, v, pid, pk)
        total = sq if total is None else b.add_ct(total, sq)
    return prepare(b, total, [1] * len(values), len(values))


def test_encrypted_variance_examples():
    b = make_backend()
    km = b.keygen("T")

    def mean_ct_of(values):
        votes = None
        for pid, v in enumerate(values):
            ct = b.encrypt(km.public_part, SlotVector.impulse(4, pid, v), (pid, "v"))
            votes = ct if votes is None else b.add_ct(votes, ct)
        return prepare(b, votes, [1] * len(values), len(values))

    var_ct = prepared_variance(b, mean_ct_of([3.0, 3.0, 3.0, 3.0]),
                               {i: 3.0 for i in range(4)}, km.public_part)
    assert abs(b.decrypt(km.secret_part, var_ct).values[0]) < 1e-9

    b2 = make_backend(cap=2, seed=5)
    km2 = b2.keygen("T")
    votes = b2.add_ct(
        b2.encrypt(km2.public_part, SlotVector.impulse(2, 0, 1.0), (0, "v")),
        b2.encrypt(km2.public_part, SlotVector.impulse(2, 1, 3.0), (1, "v")))
    mean_ct = prepare(b2, votes, [1, 1], 2)
    var_ct = prepared_variance(b2, mean_ct, {0: 1.0, 1: 3.0}, km2.public_part)
    assert b2.decrypt(km2.secret_part, var_ct).values[0] == pytest.approx(1.0)


def test_encrypted_route_matches_decrypt_route():
    rng = random.Random(31)
    for trial in range(8):
        n = rng.choice([3, 4, 6])
        values = [rng.uniform(-100, 100) for _ in range(n)]
        values[rng.randrange(n)] += rng.choice([-1, 1]) * 1000
        t = topo.random_connected(n, 0.5, rng)
        a = run_outlier_sim(values, c=2.0, route="decrypt", seed=trial, topology=t)
        b = run_outlier_sim(values, c=2.0, route="encrypted", seed=trial, topology=t)
        assert a == pytest.approx(b, abs=1e-6)
        _, _, _, want = outlier_oracle(values, 2.0)
        assert a == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("seed", range(40))
def test_both_routes_match_the_oracle_at_large_magnitudes(seed):
    """Inputs near 1e6..1e9 with a spread of about 1: a variance formed as
    avg(v^2) - mu^2 cancels there, (v - mu)^2 averaged does not.  The
    check is absolute, since 1e-9 relative is about 1 at 1e9."""
    rng = random.Random(seed)
    n = rng.choice([4, 6, 8])
    base = rng.choice([1e6, 1e7, 1e8, 1e9])
    values = [base + rng.uniform(-1, 1) for _ in range(n)]
    values[rng.randrange(n)] += rng.uniform(1, 5)
    want = outlier_oracle(values, 1.0)[3]
    for route in ("decrypt", "encrypted"):
        got = run_outlier_sim(values, c=1.0, route=route, seed=seed)
        assert (got is None) == (want is None), route
        if want is not None:
            assert got == pytest.approx(want, abs=1e-6), route


def test_encrypted_route_runs_one_flood_per_round():
    values = [1.0, 2.0, 3.0, 100.0, 4.0, 5.0]
    sc = ScenarioConfig(protocol="outlier", topology=topo.ring(6).to_dict(),
                        inputs=values, c=1.0, seed=2, variance_route="encrypted")
    report = netsim.run(sc)
    assert report.termination == "decided"
    instances = {key.split(":", 1)[1] for key in report.extra["completion_times"]}
    assert instances == {"out/r1", "out/r2", "out/r3"}
    assert report.decided_values[0] == pytest.approx(outlier_oracle(values, 1.0)[3], abs=1e-9)


class BroadcastRecorder:
    """A process node's context that records what it broadcasts."""

    def __init__(self):
        self.sent = []

    def broadcast(self, msg):
        self.sent.append(msg)


def test_one_process_node_starts_round_2_from_either_round_1_hand_off():
    values = [1.0, 2.0, 3.0, 10.0]
    setup = outlier_consensus.build(topo.ring(4), values, 1.0)
    b, key, node = setup.backend, setup.nodes[netsim.TRUSTED].key, setup.nodes[3]
    cap = b.config.slot_capacity
    votes = None
    for pid, v in enumerate(values):
        ct = b.encrypt(key.public_part, SlotVector.impulse(cap, pid, v), (pid, "v"))
        votes = ct if votes is None else b.add_ct(votes, ct)
    mean_ct = prepare(b, votes, [1] * 4, 4)
    assert mean_ct.depth == 1

    # the decrypted mean: round 2 starts from a fresh Enc((v - mu)^2)
    ctx = BroadcastRecorder()
    node._handle_result(ctx, ProtocolMessage("out/r1", RESULT, extra={"mu": 4.0}))
    (sent,) = ctx.sent
    assert (sent.instance, sent.votes_ct.depth, node.mean_ct) == ("out/r2", 0, None)
    payload = sent.votes_ct._payload
    assert np.flatnonzero(payload).tolist() == [3] and payload[3] == pytest.approx(36.0)

    # the unopened prepared mean: round 2 starts from it, at depth 3
    ctx = BroadcastRecorder()
    node._handle_result(ctx, ProtocolMessage("out/r1", RESULT, ciphertexts=(mean_ct,)))
    (sent,) = ctx.sent
    assert (sent.instance, sent.votes_ct.depth) == ("out/r2", 3) and node.mean_ct is mean_ct
    want = outlier_consensus.variance_contribution(b, mean_ct, 10.0, 3, key.public_part)
    assert sent.votes_ct._payload.tolist() == want._payload.tolist()
    assert sent.votes_ct._payload[3] == pytest.approx(36.0)


def test_high_outlier_removal_strictly_decreases_mean():
    """Monotone sanity: excluding a high-side outlier lowers the result."""
    rng = random.Random(63)
    checked = 0
    while checked < 30:
        n = rng.choice([4, 5, 6])
        values = [rng.uniform(-100, 100) for _ in range(n)]
        values[rng.randrange(n)] = rng.uniform(5e3, 1e4)
        c = 2.0
        mu, sigma, flags, filtered = outlier_oracle(values, c)
        high_out = [i for i, f in flags.items() if f and values[i] > mu]
        if not high_out or filtered is None or len(high_out) != sum(flags.values()):
            continue
        checked += 1
        t = topo.random_connected(n, 0.6, rng)
        got = run_outlier_sim(values, c, seed=checked, topology=t)
        assert got < mu


def test_finalize_trusted_rejects_disagreeing_slots():
    b = make_backend()
    km = b.keygen("T")
    lopsided = b.mark_prepared(
        b.encrypt(km.public_part, SlotVector([1.0, 1.0, 9.0, 1.0]), ("x", "agg")))
    with pytest.raises(ValueError):
        from consentry.avg_consensus import finalize_trusted
        finalize_trusted(b, km.secret_part, lopsided, 4)


def test_survivors_unit():
    b = make_backend()
    km = b.keygen("T")
    votes = b.encrypt(km.public_part, SlotVector([1, 2, 3, 4]), ("x", "agg"))
    counts = np.array([1.0, 1.0, 1.0, 0.0])
    counts.setflags(write=False)
    state = ConsensusState(instance="out/r2", n=4, channels=(votes,), counts=counts,
                           support=0b0111)
    state.required_mask = survivors({0, 1, 2}, state.n)
    assert state.required_mask == 0b111
    # prepare weights the survivors only and divides by their number
    prepared, = try_decide(state, b)
    assert finalize_trusted(b, km.secret_part, prepared, 4) == pytest.approx(2.0)
    # no faults: identity
    assert survivors({0, 1, 2, 3}, 4) == 0b1111
    with pytest.raises(ValueError):
        survivors(set(), 4)


def test_inter_round_crash_uses_adjusted_n():
    values = [1.0, 2.0, 3.0, 100.0]
    t = topo.ring(4)
    # round 1 completes by round 2 ( = diameter); crash well after that
    faults = FaultPlan((CrashFault(process=3, time=5),))
    got = run_outlier_sim(values, c=1.0, seed=1, topology=t, faults=faults)
    mu, sigma, flags, filtered = outlier_oracle(values, 1.0, participants={0, 1, 2})
    assert filtered is not None
    assert got == pytest.approx(filtered, abs=1e-9)


def test_disconnecting_crash_flags_deadline():
    values = [1.0, 2.0, 3.0, 4.0]
    t = topo.path(4)
    faults = FaultPlan((CrashFault(process=1, time=3),))
    sc = ScenarioConfig(protocol="outlier", topology=t.to_dict(), inputs=values,
                        c=2.0, seed=2, faults=faults)
    report = netsim.run(sc)
    assert report.termination == "deadline-exceeded"


def test_long_ring_decides_the_outlier_free_mean():
    # counts pass 2**63 on a 96-ring in every round
    values = [float(i) for i in range(96)]
    sc = ScenarioConfig(protocol="outlier", topology=topo.ring(96).to_dict(),
                        inputs=values, c=1.5, seed=1)
    report = netsim.run(sc)
    assert report.termination == "decided"
    want = outlier_oracle(values, 1.5)[3]
    assert all(abs(report.decided_values[p] - want) <= 1e-9 for p in range(96))


def test_128_ring_decides_the_outlier_free_mean():
    values = [float(i) for i in range(128)]
    sc = ScenarioConfig(protocol="outlier", topology=topo.ring(128).to_dict(),
                        inputs=values, c=1.5, seed=1)
    report = netsim.run(sc)
    assert report.termination == "decided"
    want = outlier_oracle(values, 1.5)[3]
    assert all(abs(report.decided_values[p] - want) <= 1e-9 for p in range(128))


@pytest.mark.parametrize("route, between_processes", [
    ("decrypt", set()),
    ("encrypted", set()),
])
def test_prepared_reaches_processes_only_where_they_read_it(route, between_processes):
    """Only the collector opens a prepared aggregate; on the encrypted route
    it hands the round-1 mean to the processes unopened, in a RESULT."""
    t = topo.random_connected(16, 0.4, random.Random(16))
    values = [float(i) for i in range(15)] + [90.0]
    setup = outlier_consensus.build(t, values, 1.0, variance_route=route, seed=3)
    log = record_deliveries(setup)
    report, trace = netsim.Simulation(t, setup, netsim.SchedulePolicy("sync", 3)).run()
    assert report.termination == "decided" and len(log) == trace.deliveries
    assert report.decided_values[0] == pytest.approx(outlier_oracle(values, 1.0)[3], abs=1e-9)
    prepared = [(frm, dst, msg.instance) for _, frm, dst, msg in log
                if msg.kind == PREPARED]
    assert {inst for frm, dst, inst in prepared
            if dst != netsim.TRUSTED} == between_processes
    assert all(frm != netsim.TRUSTED for frm, _, _ in prepared)
    if route == "encrypted":
        r1_results = [msg for _, frm, _, msg in log
                      if frm == netsim.TRUSTED and msg.instance == "out/r1"]
        assert len(r1_results) == 16
        assert all(msg.kind == RESULT and msg.votes_ct.prepared and msg.extra == {}
                   for msg in r1_results)


def test_a_crash_in_round_1_leaves_one_mean(monkeypatch):
    """Process 4 crashes while round 1 is active, so deciders prepare over
    different survivor sets; every survivor must still use the one mean the
    collector opens, and both routes decide alike."""
    values = [46.52421415521229, -48.834530620785884, 23.59916197968755,
              -34.198727523525186, 48.63394516628233]
    setups = []
    real_build = outlier_consensus.build

    def build(*args, **kwargs):
        setups.append(real_build(*args, **kwargs))
        return setups[-1]

    monkeypatch.setattr(outlier_consensus, "build", build)
    for route in ("decrypt", "encrypted"):
        report = netsim.run(ScenarioConfig.from_dict(dict(
            protocol="outlier", topology={"family": "random", "n": 5, "p": 0.6},
            inputs=values, c=1.0, seed=1, schedule="sync", variance_route=route,
            faults=[{"process": 4, "time": 3}])))
        assert report.termination == "decided", route
        assert report.extra["variance"] == pytest.approx(1666.11, abs=0.005), route
        for p in range(4):
            assert report.decided_values[p] == pytest.approx(35.0616880674, abs=1e-6), route
        assert report.privacy_violations == []
    # the encrypted run's nodes
    assert len({setups[-1].nodes[p].mean_ct.handle for p in range(4)}) == 1


@pytest.mark.parametrize("seed", [28, 126, 137])
def test_routes_agree_under_a_crash(seed):
    rng = random.Random(seed)
    n = rng.choice([4, 5, 6, 8])
    values = [rng.uniform(-50, 50) for _ in range(n)]
    crash = {"process": rng.randrange(n), "time": rng.choice([1, 2, 3, 4])}
    schedule = rng.choice(["sync", "async"])
    reports = [netsim.run(ScenarioConfig.from_dict(dict(
        protocol="outlier", topology={"family": "random", "n": n, "p": 0.6},
        inputs=values, c=1.0, seed=seed, schedule=schedule, variance_route=route,
        faults=[crash])))
        for route in ("decrypt", "encrypted")]
    assert reports[0].termination == reports[1].termination
    assert reports[0].decided_values == reports[1].decided_values


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 10: the variance gate ignores the tracked "
                   "noise bound, so equal inputs under noise raise or decide None")
def test_equal_inputs_under_noise_decide_their_value():
    """16 inputs of 100 on G(16, 0.4), c 1, noise 1e-9, seeds 1-5, both
    routes: every run decides 100 within 1e-6.  All ten runs are checked
    before the one assertion, so the failure lists each wrong run."""
    wrong = []
    for route in ("decrypt", "encrypted"):
        for seed in range(1, 6):
            try:
                report = netsim.run(ScenarioConfig.from_dict(dict(
                    protocol="outlier", topology={"family": "random", "n": 16, "p": 0.4},
                    inputs=[100.0] * 16, c=1.0, seed=seed, noise_epsilon=1e-9,
                    variance_route=route)))
            except ValueError as exc:
                wrong.append((route, seed, str(exc)))
                continue
            values = set(report.decided_values.values())
            if report.termination != "decided" or not all(
                    v is not None and abs(v - 100.0) <= 1e-6 for v in values):
                wrong.append((route, seed, report.termination, values))
    assert wrong == []
