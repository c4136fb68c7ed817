"""Acceptance criteria, one test per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines.  Tolerances are pinned here and nowhere else.
"""

import json
import random
from pathlib import Path

import pytest

from consentry import netsim
from consentry import topology as topo
from consentry.avg_consensus import NON_VIABLE
from consentry.leader_election import elect_winner
from consentry.netsim import CrashFault, FaultPlan, ScenarioConfig

from exposures import audit_view, record_deliveries
from mutations import LeakyAvgNode, MisroutingAvgNode, run_mutated
from oracles import grid_from_ballots, irv_oracle, mean_oracle, outlier_oracle

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

AVG_TOL = 1e-9          # criterion 1 / 3: exact-backend agreement with oracle
NOISE_TOL = 1e-6        # criterion 9: agreement at noise_epsilon = 1e-9
K_BOUND = 4.0           # criterion 8: messages <= K * diameter * degree
NOISE_EPS = 1e-9


def _verdict(num, name, ok):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _avg_scenario(t, inputs, seed, **kw):
    return ScenarioConfig(protocol="avg-trusted", topology=t.to_dict(),
                          inputs=inputs, seed=seed, **kw)


def test_criterion_1_average_consensus_correctness():
    rng = random.Random(20240601)
    ok = True
    trials = 0
    for n in (2, 4, 8, 16):
        for _ in range(25):
            trials += 1
            t = topo.random_connected(n, 0.45, rng)
            inputs = [rng.uniform(-1000, 1000) for _ in range(n)]
            report = netsim.run(_avg_scenario(t, inputs, seed=trials))
            want = mean_oracle(inputs)
            ok = ok and report.termination == "decided"
            ok = ok and all(abs(report.decided_values[p] - want) <= AVG_TOL
                            for p in range(n))
    assert trials == 100
    _verdict(1, "average-consensus correctness (100 trials, 1e-9)", ok)


def test_criterion_2_diameter_termination_bound():
    rng = random.Random(77)
    ok = True
    trials = 0
    cases = [topo.ring(4), topo.ring(9), topo.path(5), topo.path(8),
             topo.star(5), topo.star(12), topo.complete(6)]
    while trials < 50:
        for t in cases + [topo.random_connected(rng.randrange(3, 12), 0.4, rng)]:
            if trials >= 50:
                break
            trials += 1
            inputs = [rng.uniform(-100, 100) for _ in range(t.n)]
            report = netsim.run(_avg_scenario(t, inputs, seed=trials, schedule="sync"))
            d = t.diameter()
            ok = ok and report.termination == "decided"
            ok = ok and all(report.rounds_to_decide[p] <= d for p in range(t.n))
    _verdict(2, "synchronous decision within diameter(G) rounds (50 trials)", ok)


def _outlier_case(rng, force_no_outlier=False):
    n = rng.choice([4, 5, 6, 8])
    if force_no_outlier:
        base = rng.uniform(-100, 100)
        values = [base + rng.uniform(-1, 1) for _ in range(n)]
        c = 3.0
    else:
        values = [rng.uniform(-1000, 1000) for _ in range(n)]
        for _ in range(rng.choice([1, 2])):
            values[rng.randrange(n)] = rng.choice([-1, 1]) * rng.uniform(5e3, 2e4)
        c = rng.choice([1.0, 2.0, 3.0])
    t = topo.random_connected(n, 0.5, rng)
    return t, values, c


def _run_outlier(t, values, c, seed, eps=0.0, route="decrypt"):
    sc = ScenarioConfig(protocol="outlier", topology=t.to_dict(), inputs=values,
                        c=c, seed=seed, variance_route=route, noise_epsilon=eps)
    return netsim.run(sc)


def test_criterion_3_outlier_resistant_correctness():
    rng = random.Random(424242)
    ok = True
    for trial in range(100):
        force_plain = trial % 5 == 0
        t, values, c = _outlier_case(rng, force_no_outlier=force_plain)
        report = _run_outlier(t, values, c, seed=trial)
        mu, sigma, flags, want = outlier_oracle(values, c)
        got = {report.decided_values[p] for p in range(t.n)}
        ok = ok and report.termination == "decided" and len(got) == 1
        got_value = got.pop()
        if want is None:
            ok = ok and got_value is None
        else:
            ok = ok and got_value is not None and abs(got_value - want) <= AVG_TOL
        if force_plain and not any(flags.values()):
            # no outliers: round-3 result must equal the round-1 mean exactly
            ok = ok and got_value == report.extra["mu"]
    _verdict(3, "outlier-filtered mean matches three-round oracle (100 trials)", ok)


def test_criterion_4_election_oracle_equivalence():
    rng = random.Random(7)
    ok = True
    for _ in range(1000):
        n = rng.randrange(3, 9)
        ballots = []
        for _ in range(n):
            p = rng.randrange(n)
            if rng.random() < 0.3:
                ballots.append((p, None))
            else:
                s = rng.randrange(n - 1)
                ballots.append((p, s if s < p else s + 1))
        ok = ok and elect_winner(grid_from_ballots(ballots, n)).winner == irv_oracle(ballots, n)
    fig2 = ScenarioConfig.from_dict(
        json.loads((CONFIGS / "fig2_election.json").read_text()))
    report = netsim.run(fig2)
    ok = ok and all(report.decided_values[p] == 0 for p in range(5))
    _verdict(4, "election equals IRV oracle (1000 sets) and Fig. 2 winner 0", ok)


def test_criterion_5_privacy_audit():
    rng = random.Random(5150)
    ok = True
    # conforming runs across all four protocols: zero violations, and the
    # ledger shows no decryptable exposure outside prepared/complete handles
    runs = []
    t = topo.random_connected(6, 0.5, rng)
    inputs = [rng.uniform(-100, 100) for _ in range(6)]
    runs.append(_avg_scenario(t, inputs, seed=1))
    runs.append(_avg_scenario(t, inputs, seed=2, schedule="async"))
    runs.append(ScenarioConfig(protocol="avg-untrusted", topology=t.to_dict(),
                               inputs=inputs, seed=3))
    runs.append(ScenarioConfig(protocol="outlier", topology=t.to_dict(),
                               inputs=inputs, c=2.0, seed=4))
    runs.append(ScenarioConfig(protocol="outlier", topology=t.to_dict(),
                               inputs=inputs, c=2.0, seed=5,
                               variance_route="encrypted"))
    runs.append(ScenarioConfig(
        protocol="election", topology=t.to_dict(), seed=6,
        inputs=[{"primary": (p + 1) % 6, "secondary": None} for p in range(6)]))
    for sc in runs:
        report = netsim.run(sc)
        ok = ok and report.privacy_violations == [] and report.termination == "decided"

    # direct ledger checks on a trusted-collector run
    from consentry.avg_consensus import build_trusted
    setup = build_trusted(t, inputs, seed=9)
    log = record_deliveries(setup)
    _, trace = netsim.Simulation(t, setup, netsim.SchedulePolicy("sync", 9)).run()
    keys = [setup.nodes[netsim.TRUSTED].key]
    for pid in range(t.n):
        ok = ok and all(not d for _, _, d in audit_view(trace, log, keys, pid))
    ok = ok and all(ev.prepared for ev, _, _ in audit_view(trace, log, keys, netsim.TRUSTED))

    # mutations must each raise at least one violation
    ok = ok and any(v.rule == "plaintext-leak" for v in run_mutated(LeakyAvgNode))
    ok = ok and any(v.rule == "unprepared-exposure"
                    for v in run_mutated(MisroutingAvgNode))
    _verdict(5, "zero violations on conforming runs; mutations flagged", ok)


def _crash_plan(rng, t, count, min_time):
    """Crash set keeping survivors connected, every crashed process having a
    correct neighbor (so its round-1 impulse survives)."""
    for _ in range(200):
        crashed = set(rng.sample(range(t.n), count))
        if not t.connected_without(crashed):
            continue
        if all(t.neighbors(f) - crashed for f in crashed):
            return FaultPlan(tuple(CrashFault(f, min_time + i)
                                   for i, f in enumerate(sorted(crashed))))
    return None


def test_criterion_6_fault_tolerance():
    rng = random.Random(606)
    ok = True
    trials = 0
    while trials < 15:   # average consensus under crashes
        n = rng.choice([5, 6, 8])
        t = topo.random_connected(n, 0.5, rng)
        plan = _crash_plan(rng, t, rng.choice([1, 2]), min_time=2)
        if plan is None:
            continue
        trials += 1
        inputs = [rng.uniform(-100, 100) for _ in range(n)]
        report = netsim.run(_avg_scenario(t, inputs, seed=trials, faults=plan))
        want = mean_oracle(inputs)       # crashed votes spread before crashing
        crashed = {c.process for c in plan.crashes}
        ok = ok and report.termination == "decided"
        ok = ok and all(abs(report.decided_values[p] - want) <= 1e-9
                        for p in range(n) if p not in crashed)
    outlier_trials = 0
    while outlier_trials < 15:   # outlier protocol with inter-round crashes
        n = rng.choice([5, 6])
        t = topo.random_connected(n, 0.6, rng)
        candidates = [f for f in range(n) if t.connected_without({f})]
        if not candidates:
            continue
        outlier_trials += 1
        f = rng.choice(candidates)
        values = [rng.uniform(-100, 100) for _ in range(n)]
        values[rng.randrange(n)] = 5000.0
        # place the crash in the round-1 / round-2 gap: a fault-free probe is
        # schedule-identical up to the crash time, so its completion rounds
        # locate the gap exactly
        probe = netsim.run(ScenarioConfig(
            protocol="outlier", topology=t.to_dict(), inputs=values, c=2.0,
            seed=outlier_trials))
        r1_done = max(when for key, when in probe.extra["completion_times"].items()
                      if key.endswith(":out/r1"))
        plan = FaultPlan((CrashFault(f, r1_done + 1),))
        sc = ScenarioConfig(protocol="outlier", topology=t.to_dict(),
                            inputs=values, c=2.0, seed=outlier_trials, faults=plan)
        report = netsim.run(sc)
        crashed = {c.process for c in plan.crashes}
        survivors = set(range(n)) - crashed
        _, _, _, want = outlier_oracle(values, 2.0, participants=survivors)
        ok = ok and report.termination == "decided"
        for p in survivors:
            got = report.decided_values[p]
            if want is None:
                ok = ok and got is None
            else:
                ok = ok and got is not None and abs(got - want) <= 1e-9
    _verdict(6, "crash plans: survivors decide; outlier rounds use adjusted n", ok)


def test_criterion_7_untrusted_viability_on_trees():
    rng = random.Random(70)
    ok = True
    for trial in range(6):
        n = rng.randrange(4, 9)
        t = topo.random_tree(n, rng)
        inputs = [rng.uniform(-100, 100) for _ in range(n)]
        report = netsim.run(ScenarioConfig(protocol="avg-untrusted", topology=t,
                                           inputs=inputs, seed=trial))
        want = mean_oracle(inputs)
        for k in range(n):
            got = report.extra[f"initiator_result/{k}"]
            if t.degree(k) == 1:            # leaf: viable, correct
                ok = ok and got is not None and got != NON_VIABLE \
                    and abs(got - want) <= 1e-9
            else:                           # internal tree node: cut vertex
                ok = ok and got == NON_VIABLE
    _verdict(7, "tree initiators: leaves succeed, cut vertices non-viable", ok)


def test_criterion_8_complexity_envelope():
    rng = random.Random(808)
    ok = True
    worst = 0.0
    cells = []
    for family in ("ring", "path", "star", "random"):
        for n in (4, 8, 16, 32):
            t = topo.from_family(family, n, rng)
            d = t.diameter()
            k_cell = 0.0
            for trial in range(2):
                inputs = [rng.uniform(-100, 100) for _ in range(n)]
                report = netsim.run(_avg_scenario(t, inputs, seed=trial))
                ok = ok and report.termination == "decided"
                for pid, count in report.messages_sent.items():
                    if isinstance(pid, int):
                        k_cell = max(k_cell, count / (d * t.degree(pid)))
            cells.append((family, n, round(k_cell, 3)))
            worst = max(worst, k_cell)
    ok = ok and worst <= K_BOUND
    print(f"per-cell K: {cells}")
    print(f"measured K = {worst:.3f} (bound {K_BOUND})")
    _verdict(8, "messages within K * diameter * degree across sweep", ok)


def test_criterion_9_noise_robustness():
    rng = random.Random(909)
    ok = True
    for trial in range(20):     # criterion 1 rerun at eps = 1e-9
        n = rng.choice([2, 4, 8, 16])
        t = topo.random_connected(n, 0.45, rng)
        inputs = [rng.uniform(-1000, 1000) for _ in range(n)]
        report = netsim.run(_avg_scenario(t, inputs, seed=trial,
                                          noise_epsilon=NOISE_EPS))
        want = mean_oracle(inputs)
        ok = ok and all(abs(report.decided_values[p] - want) <= NOISE_TOL
                        for p in range(n))
    for trial in range(10):     # criterion 3 rerun at eps = 1e-9
        t, values, c = _outlier_case(rng)
        report = _run_outlier(t, values, c, seed=trial, eps=NOISE_EPS)
        _, _, _, want = outlier_oracle(values, c)
        got = report.decided_values[0]
        if want is None:
            ok = ok and got is None
        else:
            ok = ok and got is not None and abs(got - want) <= NOISE_TOL
    for trial in range(5):      # election tallies round to exact integers
        n = rng.randrange(3, 7)
        t = topo.random_connected(n, 0.5, rng)
        ballots = []
        for _ in range(n):
            p = rng.randrange(n)
            s = rng.randrange(n - 1)
            ballots.append({"primary": p, "secondary": s if s < p else s + 1})
        sc = ScenarioConfig(protocol="election", topology=t.to_dict(),
                            inputs=ballots, seed=trial, noise_epsilon=NOISE_EPS)
        report = netsim.run(sc)     # tally() enforces the 0.01 integrality gate
        want = irv_oracle([(b["primary"], b["secondary"]) for b in ballots], n)
        ok = ok and report.termination == "decided"
        ok = ok and all(report.decided_values[p] == want for p in range(n))
    _verdict(9, "noisy backend within 1e-6; tallies integral at 0.01", ok)
