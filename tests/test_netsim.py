"""Simulator determinism, scheduling modes, crash faults, privacy auditor."""

import dataclasses
import json
import random
import tracemalloc
from collections import OrderedDict, defaultdict

import numpy as np
import pytest

from consentry import leader_election, netsim, outlier_consensus
from consentry import topology as topo
from consentry.avg_consensus import (RESULT, ProtocolMessage, build_trusted,
                                     build_untrusted)
from consentry.he_slots import BackendConfig, SlotBackend
from consentry.netsim import (CrashFault, FaultPlan, ScenarioConfig,
                              ScenarioError, SchedulePolicy, SimTrace)

import mutations
from exposures import audit_view, record_deliveries
from oracles import irv_oracle, mean_oracle


def ring4_scenario(**kw):
    base = dict(protocol="avg-trusted", topology=topo.ring(4).to_dict(),
                inputs=[1, 2, 3, 4], seed=7)
    base.update(kw)
    return ScenarioConfig(**base)


class _Str(str):
    pass


class _Int(int):
    pass


class _List(list):
    """Iterates backwards: json reads a list subclass through `__iter__`."""

    def __iter__(self):
        return list.__reversed__(self)


def _json_leaf(rng):
    return rng.choice([
        "", "plain", "tab\t \"quoted\" \\ \x00\x1f", "ünï 漢字 😀", _Str("sub"),
        0, -7, 10 ** 30, _Int(3), True, False, None,
        0.0, -0.0, 1.5, 1e-300, 1e300, float("nan"), float("inf"), float("-inf"),
        np.float64(0.1), rng.random()])


def _json_tree(rng, depth):
    """A random value of everything json writes: flat and nested containers,
    subclasses of dict and list, and keys of every type json converts."""
    if depth == 0 or rng.random() < 0.3:
        return _json_leaf(rng)
    size = rng.randrange(5)
    key = rng.choice([lambda: rng.choice("abcä\n") + str(rng.randrange(9)),
                      lambda: rng.randrange(-9, 9), lambda: rng.randrange(4) + 0.5,
                      lambda: rng.choice([True, False, 2]), lambda: None])
    kind = rng.choice([dict, dict, OrderedDict, list, list, tuple, _List, defaultdict])
    if kind in (list, tuple, _List):
        return kind(_json_tree(rng, depth - 1) for _ in range(size))
    items = [(key(), _json_tree(rng, depth - 1)) for _ in range(size)]
    return defaultdict(list, items) if kind is defaultdict else kind(items)


def test_report_writer_matches_json_dumps_byte_for_byte():
    rng = random.Random(37)
    trees = [_json_tree(rng, rng.randrange(1, 5)) for _ in range(1500)]
    trees += [{}, [], (), {"a": []}, [{}], ((1, "x"), (2.5, None)), defaultdict(list),
              OrderedDict(b=1, a=2), _List([1, 2]), {"n": defaultdict(int, z=1, y=2)}]
    for tree in trees:
        assert netsim.report_json(tree) == json.dumps(tree, sort_keys=True, indent=2)
    for bad in (np.int64(3), {1, 2}, object(), {"a": 1, 2: 3}, {(1,): 2},
                [{"x": [1, np.int64(2)]}], {"k": {"a": [0], 1: [1]}}):
        for write in (netsim.report_json, lambda o: json.dumps(o, sort_keys=True, indent=2)):
            with pytest.raises(TypeError):
                write(bad)


def test_deterministic_reports_byte_identical():
    a = netsim.run(ring4_scenario()).to_json()
    b = netsim.run(ring4_scenario()).to_json()
    assert a == b
    c = netsim.run(ring4_scenario(schedule="async")).to_json()
    d = netsim.run(ring4_scenario(schedule="async")).to_json()
    assert c == d


def test_sync_diameter_bound_on_families():
    rng = random.Random(42)
    graphs = [topo.path(4), topo.star(6), topo.ring(8),
              topo.random_connected(7, 0.4, rng)]
    for t in graphs:
        sc = ScenarioConfig(protocol="avg-trusted", topology=t.to_dict(),
                            inputs=[float(i) for i in range(t.n)], seed=1)
        report = netsim.run(sc)
        d = t.diameter()
        for pid in range(t.n):
            assert report.rounds_to_decide[pid] <= d


def _eccentricities(t):
    """Each process's eccentricity, by one breadth-first search from it."""
    ecc = []
    for src in range(t.n):
        seen, frontier, depth = {src}, [src], 0
        while frontier:
            frontier = [j for i in frontier for j in t.neighbors(i) if j not in seen]
            seen.update(frontier)
            depth += 1
        ecc.append(depth - 1)
    return ecc


@pytest.mark.parametrize("protocol,fields", [
    ("avg-trusted", {}),
    ("outlier", {"c": 1.0, "variance_route": "decrypt"}),
    ("outlier", {"c": 1.0, "variance_route": "encrypted"}),
], ids=["avg-trusted", "outlier-decrypt", "outlier-encrypted"])
def test_sync_traffic_follows_the_graph_exactly(protocol, fields):
    """In a sync run without a crash every process p sends
    deg(p)*(1 + ecc(p)) + 1 messages per round: its start, one rebroadcast
    per hop until its state is complete, and its prepared aggregate.  An
    avg-trusted process decides at ecc(p) and the collector, which sends one
    result per process, at rad(G) + 1; outlier runs three such rounds, so
    every process decides at 3*(rad(G) + 2) and the collector one step
    earlier, unless every value is an outlier.  None of it depends on
    noise."""
    rounds = 3 if protocol == "outlier" else 1
    for family in ("ring", "path", "star", "complete", "tree", "random"):
        for n in (2, 7, 16, 32):
            t = topo.from_family(family, n, random.Random(n))
            ecc = _eccentricities(t)
            rad = min(ecc)
            for eps in (0.0, 1e-9):
                sc = ScenarioConfig.from_dict(dict(
                    fields, protocol=protocol, topology=t.to_dict(), seed=n,
                    inputs={"random_uniform": [-100, 100]}, noise_epsilon=eps))
                report = netsim.run(sc)
                assert report.termination == "decided"
                assert report.messages_sent == dict(
                    {p: rounds * (t.degree(p) * (1 + ecc[p]) + 1) for p in range(n)},
                    **{netsim.TRUSTED: rounds * n}), (family, n, eps)
                if protocol == "outlier":
                    want = dict.fromkeys(range(n), 3 * (rad + 2))
                    # with every value an outlier the collector decides nothing
                    if report.extra.get("outcome") != "all-outliers":
                        want[netsim.TRUSTED] = 3 * (rad + 2) - 1
                else:
                    want = dict(enumerate(ecc), **{netsim.TRUSTED: rad + 1})
                assert report.rounds_to_decide == want, (family, n, eps)


def test_a_fault_free_election_sends_2n_messages_and_decides_at_depth_plus_2():
    """Without a crash the ballots are summed up a BFS tree from process 0:
    every process sends one message, to its parent or, at the root, to the
    keyholder, which sends one result per process.  In sync a process
    decides at depth + 2, depth being process 0's eccentricity, and the
    keyholder at depth + 1.  In async only the 2n total is fixed."""
    cases = [("path", 1)] + [(family, n) for family in (
        "ring", "path", "star", "complete", "tree", "random") for n in (2, 7, 16, 32)]
    for family, n in cases:
        t = topo.from_family(family, n, random.Random(n))
        depth = _eccentricities(t)[0]
        rng = random.Random(n)
        ballots = []
        for _ in range(n):
            primary = rng.randrange(n)
            ballots.append((primary, rng.choice([None, *range(primary), *range(primary + 1, n)])))
        want = irv_oracle(ballots, n)
        for schedule in ("sync", "async"):
            for eps in (0.0, 1e-9):
                report = netsim.run(ScenarioConfig.from_dict(dict(
                    protocol="election", topology=t.to_dict(), seed=n, schedule=schedule,
                    inputs=[{"primary": p, "secondary": s} for p, s in ballots],
                    noise_epsilon=eps)))
                case = (family, n, schedule, eps)
                assert report.termination == "decided", case
                assert report.decided_values == dict.fromkeys(
                    [*range(n), netsim.TRUSTED], want), case
                if schedule == "async":
                    assert sum(report.messages_sent.values()) == 2 * n, case
                    continue
                assert report.messages_sent == dict(
                    dict.fromkeys(range(n), 1), **{netsim.TRUSTED: n}), case
                assert report.rounds_to_decide == dict(
                    dict.fromkeys(range(n), depth + 2), **{netsim.TRUSTED: depth + 1}), case


def test_async_seed_changes_order_not_values():
    """Schedule invariance: 20 async seeds agree on the decided value
    (within the correctness tolerance; duplicate multiplicities differ)."""
    t = topo.ring(5)
    inputs = [3.0, -1.0, 7.5, 2.0, 11.0]
    logs, decided = [], []
    for seed in range(20):
        setup = build_trusted(t, inputs, seed=0)
        policy = SchedulePolicy("async", seed, max_latency=5)
        log = record_deliveries(setup)
        report, _ = netsim.Simulation(t, setup, policy).run()
        assert report.termination == "decided"
        logs.append([(time, frm, dst) for time, frm, dst, _ in log])
        decided.append([report.decided_values[p] for p in range(5)])
    assert any(logs[i] != logs[0] for i in range(1, len(logs)))
    want = mean_oracle(inputs)
    for values in decided:
        for v in values:
            assert v == pytest.approx(want, abs=1e-9)


def test_async_unit_latency_equals_sync():
    sync = netsim.run(ring4_scenario(schedule="sync"))
    async1 = netsim.run(ring4_scenario(schedule="async", max_latency=1))
    assert sync.decided_values == async1.decided_values
    assert sync.rounds_to_decide == async1.rounds_to_decide


def drawn_latencies(policy, count):
    """The latency the simulator draws for each of `count` destinations of
    one send made at time 0."""
    setup = netsim.ProtocolSetup(nodes={}, backend=SlotBackend(BackendConfig(4), seed=0),
                                 private_values=frozenset(), expected_deciders=set())
    sim = netsim.Simulation(topo.ring(4), setup, policy)
    dsts = tuple(range(count))
    sim._send(netsim.TRUSTED, dsts, ProtocolMessage("probe", RESULT))
    drawn = {dst: time for time, entries in sim._calendar.items()
             for _, entry_dsts, _ in entries for dst in entry_dsts}
    return [drawn[dst] for dst in dsts]


def test_schedule_policy_contract():
    assert drawn_latencies(SchedulePolicy("sync", 1, max_latency=9), 20) == [1] * 20
    draws = drawn_latencies(SchedulePolicy("async", 1, max_latency=4), 200)
    assert all(1 <= d <= 4 for d in draws) and len(set(draws)) > 1
    with pytest.raises(ScenarioError):
        SchedulePolicy("bogus", 1)
    # a latency bound below 1 would leave no latency to draw
    for bad in (0, -3, 2.0, "4", None):
        with pytest.raises(ScenarioError):
            SchedulePolicy("async", 1, max_latency=bad)


@pytest.mark.parametrize("longest", range(1, 17))
def test_async_sends_draw_the_latencies_randrange_draws(longest):
    # the simulator draws latencies inline from the policy's stream; the
    # async golden reports rest on these being randrange(1, L + 1)'s draws
    rng = random.Random(29)
    assert drawn_latencies(SchedulePolicy("async", 29, max_latency=longest), 300) == \
        [rng.randrange(1, longest + 1) for _ in range(300)]


def test_crash_keeping_graph_connected_still_decides():
    t = topo.ring(5)
    inputs = [1.0, 2.0, 3.0, 4.0, 10.0]
    sc = ScenarioConfig(protocol="avg-trusted", topology=t.to_dict(),
                        inputs=inputs, seed=2,
                        faults=FaultPlan((CrashFault(process=2, time=3),)))
    report = netsim.run(sc)
    assert report.termination == "decided"
    assert report.extra["crashed"] == {"2": 3}
    for pid in (0, 1, 3, 4):
        assert report.decided_values[pid] == pytest.approx(mean_oracle(inputs),
                                                           abs=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: averaging waits for the vote of a process "
                   "that crashed before its vote left it")
def test_averaging_decides_when_a_process_crashes_before_its_vote_spreads():
    """ring(5), sync, process 2 crashing at t = 0 or 1, in both averaging
    protocols: every run decides, and every decided value is the mean of
    all five inputs (4.0) or of the four survivors (4.25).  All four runs
    are checked before the one assertion."""
    inputs = [1.0, 2.0, 3.0, 4.0, 10.0]
    wrong = []
    for protocol in ("avg-trusted", "avg-untrusted"):
        for time in (0, 1):
            report = netsim.run(ScenarioConfig(
                protocol=protocol, topology=topo.ring(5).to_dict(), inputs=inputs,
                seed=2, faults=FaultPlan((CrashFault(process=2, time=time),)),
                expect_termination=False))
            values = set(report.decided_values.values())
            if report.termination != "decided" or not values <= {4.0, 4.25}:
                wrong.append((protocol, time, report.termination, values))
    assert wrong == []


@pytest.mark.parametrize("protocol, inputs, extra", [
    ("avg-trusted", [1.0, 2.0, 3.0], {}),
    ("outlier", [1.0, 2.0, 3.0], {"c": 1.5}),
    ("election", [{"primary": 0}, {"primary": 1}, {"primary": 2}], {}),
], ids=["avg-trusted", "outlier", "election"])
def test_a_run_in_which_every_process_crashes_does_not_report_decided(protocol, inputs,
                                                                      extra):
    """ring(3), every process crashing at t = 0: nothing is decided, and
    "every expected decider that did not crash has decided" holds only
    vacuously, so the report must not say `decided`."""
    report = netsim.run(ScenarioConfig(
        protocol=protocol, topology=topo.ring(3).to_dict(), inputs=inputs, seed=1,
        faults=FaultPlan(tuple(CrashFault(process=p, time=0) for p in range(3))), **extra))
    assert report.decided_values == {}
    assert report.termination != "decided"


@pytest.mark.parametrize("crashes", [(), (0, 1, 2)], ids=["no-crash", "all-crash"])
def test_a_setup_that_expects_no_decider_reports_decided(crashes):
    """avg-untrusted on path(3) whose only initiator is the cut vertex 1 has
    no viable initiator, so it expects no decider and ends `decided`, also
    when every process crashes."""
    report = netsim.run(ScenarioConfig(
        protocol="avg-untrusted", topology=topo.path(3).to_dict(), inputs=[1.0, 2.0, 3.0],
        initiators=[1], seed=1,
        faults=FaultPlan(tuple(CrashFault(process=p, time=0) for p in crashes))))
    assert report.decided_values == {}
    assert report.termination == "decided"


def test_crashed_process_emits_nothing_after_crash():
    t = topo.ring(5)
    setup = build_trusted(t, [1.0, 2.0, 3.0, 4.0, 5.0], seed=0)
    sim = netsim.Simulation(t, setup, SchedulePolicy("sync", 3),
                            faults=FaultPlan((CrashFault(process=2, time=3),)))
    log = record_deliveries(setup)
    _, trace = sim.run()
    assert len(log) == trace.deliveries > 0
    assert all(not (frm == 2 and time >= 3) for time, frm, dst, _ in log)
    assert all(not (dst == 2 and time >= 3) for time, frm, dst, _ in log)


def test_disconnecting_crash_reports_deadline():
    t = topo.path(4)
    sc = ScenarioConfig(protocol="avg-trusted", topology=t.to_dict(),
                        inputs=[1.0, 2.0, 3.0, 4.0], seed=0,
                        faults=FaultPlan((CrashFault(process=1, time=1),)),
                        expect_termination=False)
    report = netsim.run(sc)
    assert report.termination == "deadline-exceeded"


class EchoNode(netsim.Node):
    """Answers every delivery with a send, so its run never goes quiet."""

    def on_start(self, ctx):
        ctx.broadcast(ProtocolMessage("echo", RESULT))

    def on_deliver(self, ctx, batch):
        ctx.broadcast(ProtocolMessage("echo", RESULT))


@pytest.mark.parametrize("mode, latency", [("sync", 1), ("async", 3)])
def test_never_quiet_run_stops_at_the_time_bound(mode, latency):
    t = topo.path(2)
    setup = netsim.ProtocolSetup(nodes={0: EchoNode(), 1: EchoNode()},
                                 backend=SlotBackend(BackendConfig(2), seed=0),
                                 private_values=frozenset(), expected_deciders=set())
    policy = SchedulePolicy(mode, 1, max_latency=latency)
    log = record_deliveries(setup)
    bound = 10 * latency * (t.n + 2)
    # a correct run goes quiet before the bound, so reaching it is a fault
    with pytest.raises(RuntimeError,
                       match=f"^the run reached its horizon, logical time {bound}, "):
        netsim.Simulation(t, setup, policy).run()
    last = max(time for time, _, _, _ in log)
    assert bound - latency < last <= bound


class SendAtStart(netsim.Node):
    """Makes one send at start and keeps the senders of what it receives."""

    def __init__(self, send=None):
        self.send = send
        self.senders = []

    def on_start(self, ctx):
        if self.send is not None:
            self.send(ctx, ProtocolMessage("probe", RESULT))

    def on_deliver(self, ctx, batch):
        self.senders += [frm for frm, _ in batch]


def ring4_probe(sends):
    """A sync run on ring(4), processes 0..3 and the collector each making
    the send `sends` gives it, if any."""
    nodes = {pid: SendAtStart(sends.get(pid)) for pid in (0, 1, 2, 3, netsim.TRUSTED)}
    setup = netsim.ProtocolSetup(nodes=nodes, backend=SlotBackend(BackendConfig(4), seed=0),
                                 private_values=frozenset(), expected_deciders=set())
    sim = netsim.Simulation(topo.ring(4), setup, SchedulePolicy("sync", 1))
    return sim, nodes


def test_send_over_a_missing_edge_raises_naming_both_ends():
    sim, _ = ring4_probe({0: lambda ctx, msg: ctx.send(2, msg)})
    with pytest.raises(RuntimeError, match="no channel from 0 to 2"):
        sim.run()


def test_multicast_with_one_non_neighbour_raises_and_counts_nothing():
    def multicast(ctx, msg):
        with pytest.raises(RuntimeError, match="no channel from 0 to 2"):
            ctx._sim._send(ctx.pid, (1, 3, 2), msg)

    sim, nodes = ring4_probe({0: multicast, 1: lambda ctx, msg: ctx.broadcast(msg)})
    report, trace = sim.run()
    assert report.messages_sent == {1: 2}
    assert report.bytes_modeled == {1: 2 * netsim.MESSAGE_BASE_BYTES}
    assert [nodes[pid].senders for pid in (0, 1, 2, 3)] == [[1], [], [1], []]
    assert trace.deliveries == 2


def test_sends_to_and_from_the_collector_pass():
    sim, nodes = ring4_probe({2: lambda ctx, msg: ctx.send(netsim.TRUSTED, msg),
                              netsim.TRUSTED: lambda ctx, msg: ctx.broadcast_processes(msg)})
    report, _ = sim.run()
    assert report.messages_sent == {2: 1, netsim.TRUSTED: 4}
    assert nodes[netsim.TRUSTED].senders == [2]
    assert all(nodes[pid].senders == [netsim.TRUSTED] for pid in range(4))


@pytest.mark.parametrize("schedule", ["sync", "async"])
def test_trace_counts_deliveries_and_batches_with_or_without_the_log(schedule):
    t = topo.ring(6)
    traces = []
    for recorded in (True, False):
        setup = build_trusted(t, [float(i) for i in range(6)], seed=2)
        if recorded:
            log = record_deliveries(setup)
        sim = netsim.Simulation(t, setup, SchedulePolicy(schedule, 4, max_latency=3),
                                faults=FaultPlan((CrashFault(process=2, time=3),)))
        traces.append(sim.run()[1])
    logged, unlogged = traces
    assert logged.deliveries == len(log) > 0
    assert logged.batches == len({time for time, _, _, _ in log}) > 1
    assert logged.messages == unlogged.messages == []
    assert (unlogged.deliveries, unlogged.batches) == (logged.deliveries, logged.batches)


def test_scenario_config_validation():
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_dict({"protocol": "avg-trusted"})
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_dict({"protocol": "nope", "topology": {}, "inputs": []})
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_dict({"protocol": "avg-trusted", "topology": {},
                                  "inputs": [], "bogus_key": 1})
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_dict({"protocol": "outlier",
                                  "topology": {"n": 2, "edges": [[0, 1]]},
                                  "inputs": [1, 2]})      # missing c
    sc = ring4_scenario(inputs=[1, 2, 3])
    with pytest.raises(ScenarioError):
        sc.resolve_inputs(sc.resolve_topology())


@pytest.mark.parametrize("raw, message", [
    ([1], "a scenario config must be an object, got [1]"),
    ({"schedule": "lockstep"}, "schedule must be sync or async, got 'lockstep'"),
    ({"c": 1.5}, "c is only meaningful for the outlier protocol"),
    ({"variance_route": "encrypted"},
     "variance_route is only meaningful for the outlier protocol"),
    ({"protocol": "election", "initiators": [0]}, "initiators only apply to avg-untrusted"),
    ({"max_latency": 0}, "max_latency must be >= 1"),
    ({"trials": 0}, "trials must be >= 1"),
    ({"noise_epsilon": -1}, "noise_epsilon must be >= 0"),
    ({"faults": "x"}, "faults must be a list of crash faults, got 'x'"),
    ({"faults": [{"process": 1}]}, "a crash fault needs a process and a time: {'process': 1}"),
    ({"faults": [{"process": 1, "time": -2}]},
     "crash time must be >= 0: CrashFault(process=1, time=-2)"),
    ({"inputs": {"random_uniform": [0, 1], "lo": 5, "hi": 6}},
     "unknown inputs keys beside random_uniform: ['hi', 'lo']"),
], ids=["not-a-dict", "schedule", "c", "variance-route", "initiators", "max-latency",
        "trials", "noise-epsilon", "faults-not-a-list", "fault-without-time",
        "fault-at-negative-time", "keys-beside-random-uniform"])
def test_scenario_config_rejects_with_its_message(raw, message):
    if isinstance(raw, dict):
        raw = {"protocol": "avg-trusted", "topology": topo.ring(4).to_dict(),
               "inputs": [1, 2, 3, 4], **raw}
        # a directly built config is checked when it is made, as from_dict's is
        with pytest.raises(ScenarioError) as made:
            ScenarioConfig(**raw)
        assert str(made.value) == message
    with pytest.raises(ScenarioError) as err:
        ScenarioConfig.from_dict(raw)
    assert str(err.value) == message


def test_a_fault_list_makes_the_same_config_however_it_is_built():
    raw = {"protocol": "avg-trusted", "topology": {"family": "ring", "n": 4},
           "inputs": [1, 2, 3, 4], "faults": [{"process": 1, "time": 2}]}
    made, loaded = ScenarioConfig(**raw), ScenarioConfig.from_dict(raw)
    assert made == loaded
    assert made.faults == FaultPlan((CrashFault(process=1, time=2),))
    assert netsim.run(made).to_json() == netsim.run(loaded).to_json()


def test_a_second_crash_of_a_crashed_process_is_announced_once(monkeypatch):
    notices = []
    notice = outlier_consensus.OutlierProcessNode.on_crash_notice

    def counted(node, ctx, crashed):
        notices.append((node.pid, crashed))
        return notice(node, ctx, crashed)
    monkeypatch.setattr(outlier_consensus.OutlierProcessNode, "on_crash_notice", counted)
    report = netsim.run(ScenarioConfig(
        "outlier", topo.ring(5).to_dict(), [1, 2, 3, 4, 10], c=2,
        faults=[{"process": 2, "time": 3}, {"process": 2, "time": 5}]))
    assert report.termination == "decided"
    assert report.decided_values == {0: 4.25, 1: 4.25, 3: 4.25, 4: 4.25,
                                     netsim.TRUSTED: 4.25}
    assert report.extra["crashed"] == {"2": 3}
    assert notices == [(p, frozenset({2})) for p in (0, 1, 3, 4)]


def test_a_crash_after_the_last_delivery_is_still_announced():
    report = netsim.run(ScenarioConfig(
        "avg-trusted", topo.ring(4).to_dict(), [1, 2, 3, 4],
        faults=[{"process": 1, "time": 500}]))
    assert report.termination == "decided"
    assert report.decided_values == {0: 2.5, 1: 2.5, 2: 2.5, 3: 2.5, netsim.TRUSTED: 2.5}
    assert report.extra["crashed"] == {"1": 500}


def test_a_checked_scenario_config_cannot_change():
    sc = ring4_scenario()
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.max_latency = 0
    assert sc.max_latency == 4


@pytest.mark.parametrize("crash", [
    {"process": 99, "time": 3},
    {"process": 4, "time": 3},
    {"process": -1, "time": 3},
    {"process": 1, "time": -5},
    {"time": 1},
    3,
], ids=["far-outside", "just-outside", "negative-id", "negative-time", "no-process",
        "not-a-dict"])
def test_bad_crash_fault_is_rejected(crash):
    with pytest.raises(ScenarioError):
        netsim.run(ScenarioConfig.from_dict(dict(
            protocol="avg-trusted", topology=topo.ring(4).to_dict(),
            inputs=[1, 2, 3, 4], faults=[crash])))


def test_one_process_untrusted_averaging_is_rejected_with_its_reason():
    reason = ("^avg-untrusted needs at least 2 processes, got 1: "
              "each initiator hands its seed to a neighbour$")
    with pytest.raises(ValueError, match=reason):
        build_untrusted(topo.path(1), [5.0])
    scenario = ScenarioConfig.from_dict(dict(
        protocol="avg-untrusted", topology={"family": "path", "n": 1}, inputs=[5]))
    with pytest.raises(ValueError, match=reason):
        netsim.run(scenario)


@pytest.mark.parametrize("crash", [
    {"process": 1.7, "time": 2},
    {"process": "1", "time": 2},
    {"process": 1, "time": True},
    {"process": 1, "time": 2.0},
], ids=["float-process", "string-process", "bool-time", "float-time"])
def test_crash_fault_with_a_non_integer_field_is_rejected(crash):
    # int() once turned 1.7 and "1" into process 1 and True into time 1
    with pytest.raises(ScenarioError, match="must be integers"):
        ScenarioConfig.from_dict(dict(
            protocol="avg-trusted", topology=topo.ring(6).to_dict(),
            inputs=[1, 2, 3, 4, 5, 6], faults=[crash]))


# -- privacy auditor --------------------------------------------------------

def test_conforming_runs_have_no_violations():
    assert netsim.run(ring4_scenario()).privacy_violations == []


def test_plaintext_leak_mutation_is_flagged():
    from mutations import LeakyAvgNode, run_mutated
    violations = run_mutated(LeakyAvgNode)
    assert any(v.rule == "plaintext-leak" for v in violations)


@pytest.mark.parametrize("key", ["sigma", "rounds", "instance", "initiator"])
def test_a_private_value_under_a_key_no_message_sends_is_flagged(key):
    # no protocol message carries these keys, so declaring them plain would
    # only exempt a leak from the check
    from mutations import LeakyAvgNode, run_mutated

    class LeakyUnderKey(LeakyAvgNode):
        def _snapshot_msg(self, state):
            msg = super()._snapshot_msg(state)
            msg.extra = {key: self.value}
            return msg

    violations = run_mutated(LeakyUnderKey)
    assert any(v.rule == "plaintext-leak" and repr(key) in v.detail for v in violations)


def test_a_private_value_nested_in_a_list_or_a_dict_is_flagged():
    violations = mutations.run_mutated(mutations.NestedLeakAvgNode)
    for key in ("nested_list", "nested_dict"):
        assert any(v.rule == "plaintext-leak" and repr(key) in v.detail
                   for v in violations), key


def test_pre_prepare_exposure_mutation_is_flagged():
    from mutations import MisroutingAvgNode, run_mutated
    violations = run_mutated(MisroutingAvgNode)
    assert any(v.rule == "unprepared-exposure" for v in violations)


_HOLDER_AMONG_DESTINATIONS = {
    ("trusted", "sync"): [(netsim.TRUSTED, h) for h in (8, 12, 22, 24, 26, 27, 35, 43, 52)],
    ("trusted", "async"): [(netsim.TRUSTED, h) for h in (6, 9, 11, 19, 21, 10, 23, 33, 43, 51)],
    ("untrusted", "sync"): [
        (0, 41), (0, 67), (0, 81), (1, 28), (1, 69), (1, 77), (1, 82), (2, 31), (2, 51),
        (2, 78), (3, 55), (3, 71), (4, 37), (4, 65), (0, 128), (0, 158), (1, 87), (1, 136),
        (1, 155), (1, 166), (2, 95), (2, 112), (2, 156), (3, 145), (4, 104), (4, 120),
        (1, 171), (1, 188), (2, 179)],
    ("untrusted", "async"): [
        (0, 37), (0, 48), (2, 30), (0, 44), (1, 77), (2, 39), (2, 49), (2, 78), (4, 35),
        (4, 43), (4, 63), (0, 71), (0, 79), (0, 106), (1, 28), (2, 52), (3, 40), (3, 55),
        (3, 108), (0, 98), (1, 73), (1, 122), (1, 128), (1, 164), (2, 81), (2, 136), (3, 74),
        (4, 89), (0, 156), (1, 153), (2, 155), (0, 166), (1, 144), (2, 174), (1, 182),
        (1, 191)],
}


@pytest.mark.parametrize("schedule", ["sync", "async"])
@pytest.mark.parametrize("deployment", ["trusted", "untrusted"])
def test_a_keyholder_among_several_destinations_is_flagged_per_ciphertext(deployment,
                                                                          schedule):
    """An unprepared snapshot multicast to the key's holder and others: the
    collector beside a process's neighbours, or an initiator among its
    neighbour's fan-out.  Every unprepared ciphertext delivered to its key's
    holder is one `unprepared-exposure`, in delivery order, with the handles
    the simulator reported when it scanned every multicast's destinations."""
    t = topo.random_connected(5, 0.6, random.Random(11))
    inputs = [3.0, -1.5, 8.0, 0.25, 4.0]
    if deployment == "trusted":
        setup = mutations.mutated_setup(t, inputs, mutations.OverfannedAvgNode, 3)
    else:
        setup = mutations.mutated_untrusted_setup(t, inputs, 3,
                                                  mutations.OverfannedUntrustedNode)
    holders = setup.backend.key_holders()
    log = record_deliveries(setup)
    report, trace = netsim.Simulation(t, setup, SchedulePolicy(schedule, 5, max_latency=3)).run()
    assert report.termination == "decided"
    delivered = [(dst, ct.handle) for _, _, dst, msg in log for ct in msg.ciphertexts
                 if holders[ct.key_id] == dst and not ct.prepared]
    assert delivered == _HOLDER_AMONG_DESTINATIONS[deployment, schedule]
    assert [(v.rule, v.observer, v.detail) for v in netsim.privacy_audit(trace)] == [
        ("unprepared-exposure", dst, f"keyholder saw raw aggregate {handle} (kind=possess)")
        for dst, handle in delivered]


@pytest.mark.parametrize("node_name", ["LeakyAvgNode", "MisroutingAvgNode"])
def test_audit_finds_the_same_violations_without_the_log(monkeypatch, node_name):
    import mutations
    node_cls = getattr(mutations, node_name)
    traces = []

    class RecordingSimulation(netsim.Simulation):
        recorded = True

        def run(self):
            log = record_deliveries(self.setup) if self.recorded else None
            report, trace = super().run()
            traces.append((trace, log))
            return report, trace

    monkeypatch.setattr(netsim, "Simulation", RecordingSimulation)
    logged = mutations.run_mutated(node_cls)
    RecordingSimulation.recorded = False
    unlogged = mutations.run_mutated(node_cls)
    (logged_trace, log), (trace, _) = traces
    assert len(log) == logged_trace.deliveries > 0
    # the recorder sits outside the engine: the engine's ledger is the same
    ledger = lambda t: [(ev.kind, ev.observer, ev.handle) for ev in t.backend.events()]
    assert ledger(trace) == ledger(logged_trace)
    assert logged and unlogged == logged


def _exposure_checks(backend):
    """Spy on `backend`'s keyholder exposure checks: returns the list that
    collects each one as (kind, holder, handle)."""
    checks = []
    check = backend._check_exposure

    def spy(kind, holder, ct):
        checks.append((kind, holder, ct.handle))
        check(kind, holder, ct)

    backend._check_exposure = spy
    return checks


AUDITED_SETUPS = {
    "avg-trusted": lambda t, v: build_trusted(t, v, seed=3),
    "avg-untrusted": lambda t, v: build_untrusted(t, v, seed=3),
    "outlier-decrypt": lambda t, v: outlier_consensus.build(t, v, 1.5, seed=3),
    "outlier-encrypted": lambda t, v: outlier_consensus.build(
        t, v, 1.5, variance_route="encrypted", seed=3),
    "election": lambda t, v: leader_election.build(
        t, [{"primary": (p + 1) % t.n, "secondary": (p + 2) % t.n} for p in range(t.n)],
        seed=3),
    "LeakyAvgNode": lambda t, v: mutations.mutated_setup(t, v, mutations.LeakyAvgNode, 3),
    "MisroutingAvgNode": lambda t, v: mutations.mutated_setup(
        t, v, mutations.MisroutingAvgNode, 3),
    "MisroutingUntrustedNode": lambda t, v: mutations.mutated_untrusted_setup(t, v, 3),
}


@pytest.mark.parametrize("schedule", ["sync", "async"])
@pytest.mark.parametrize("name", list(AUDITED_SETUPS))
def test_keyholder_possession_checks_equal_a_replay_of_every_delivery(name, schedule):
    """The simulator reports only deliveries to keyholders to the engine.
    Replaying every ciphertext of every recorded delivery through
    `record_possession` must make the same checks and flag the same
    violations, and a run without the recorder must audit the same."""
    t = topo.random_connected(7, 0.5, random.Random(11))
    inputs = [3.0, -1.5, 8.0, 0.25, 4.0, 40.0, 6.0]
    audits = []
    for recorded in (True, False):
        setup = AUDITED_SETUPS[name](t, inputs)
        checks = _exposure_checks(setup.backend)
        log = record_deliveries(setup) if recorded else None
        policy = SchedulePolicy(schedule, 5, max_latency=3)
        report, trace = netsim.Simulation(t, setup, policy).run()
        assert report.termination == "decided"
        audit = netsim.privacy_audit(trace)
        audits.append(audit)
        if not recorded:
            continue
        assert len(log) == trace.deliveries
        live = [check for check in checks if check[0] == "possess"]
        flagged = len(setup.backend.violations())
        checks.clear()
        for _, _, dst, msg in log:
            for ct in msg.ciphertexts:
                setup.backend.record_possession(dst, ct)
        assert checks and checks == live
        assert setup.backend.violations()[flagged:] == [
            v for v in audit if v.detail.endswith("(kind=possess)")]
    logged, unlogged = audits
    assert unlogged == logged
    rule = {"LeakyAvgNode": "plaintext-leak",
            "MisroutingAvgNode": "unprepared-exposure",
            "MisroutingUntrustedNode": "unprepared-exposure"}.get(name)
    assert {v.rule for v in unlogged} == ({rule} if rule else set())


def test_run_memory_does_not_grow_with_traffic():
    # avg-trusted on a 96-ring sends about 9,800 messages; a run that kept
    # every delivered message and possession peaked at about 33 MiB
    scenario = ScenarioConfig.from_dict({
        "protocol": "avg-trusted", "topology": {"family": "ring", "n": 96},
        "inputs": {"random_uniform": [0, 100]}, "seed": 1})
    tracemalloc.start()
    try:
        report = netsim.run(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.termination == "decided"
    assert peak < 6 * 2**20


def test_foreign_decrypt_is_flagged():
    from consentry.he_slots import BackendConfig, SlotBackend, SlotVector
    backend = SlotBackend(BackendConfig(4), seed=0)
    km = backend.keygen("T")
    ct = backend.encrypt(km.public_part, SlotVector([1, 2, 3, 4]), (1, "v"))
    backend.decrypt(km.secret_part, ct, caller=5)   # stolen secret
    violations = netsim.privacy_audit(SimTrace(backend, []))
    assert any(v.rule == "foreign-decrypt" for v in violations)


def test_trusted_party_never_holds_raw_aggregates_in_conforming_run():
    t = topo.ring(4)
    setup = build_trusted(t, [1.0, 2.0, 3.0, 4.0], seed=4)
    log = record_deliveries(setup)
    _, trace = netsim.Simulation(t, setup, SchedulePolicy("sync", 2)).run()
    keys = [setup.nodes[netsim.TRUSTED].key]
    view = audit_view(trace, log, keys, netsim.TRUSTED)
    assert view and all(ev.prepared and decryptable for ev, _, decryptable in view)
    for pid in range(4):
        view = audit_view(trace, log, keys, pid)
        assert view and all(not d for _, _, d in view)


def test_audit_view_refuses_an_unlogged_run():
    t = topo.ring(4)
    setup = build_trusted(t, [1.0, 2.0, 3.0, 4.0], seed=4)
    log = record_deliveries(setup)
    _, trace = netsim.Simulation(t, setup, SchedulePolicy("sync", 2)).run()
    keys = [setup.nodes[netsim.TRUSTED].key]
    assert audit_view(trace, log, keys, netsim.TRUSTED)
    for partial in ([], log[1:]):
        with pytest.raises(ValueError, match="record them before the run"):
            audit_view(trace, partial, keys, netsim.TRUSTED)
