"""Simulator determinism, scheduling modes, crash faults, privacy auditor."""

import random
import tracemalloc

import pytest

from consentry import netsim
from consentry import topology as topo
from consentry.avg_consensus import RESULT, ProtocolMessage, build_trusted
from consentry.he_slots import BackendConfig, SlotBackend, UnloggedLedgerError
from consentry.netsim import (CrashFault, FaultPlan, ScenarioConfig,
                              ScenarioError, SchedulePolicy, SimTrace)

from oracles import mean_oracle


def ring4_scenario(**kw):
    base = dict(protocol="avg-trusted", topology=topo.ring(4).to_dict(),
                inputs=[1, 2, 3, 4], seed=7)
    base.update(kw)
    return ScenarioConfig(**base)


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


def test_async_seed_changes_order_not_values():
    """Schedule invariance: 20 async seeds agree on the decided value
    (within the correctness tolerance; duplicate multiplicities differ)."""
    t = topo.ring(5)
    inputs = [3.0, -1.0, 7.5, 2.0, 11.0]
    logs, decided = [], []
    for seed in range(20):
        setup = build_trusted(t, inputs, seed=0)
        policy = SchedulePolicy("async", seed, max_latency=5)
        report, trace = netsim.Simulation(t, setup, policy, keep_log=True).run()
        assert report.termination == "decided"
        logs.append([(time, frm, dst) for time, frm, dst, _ in trace.messages])
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


def test_schedule_policy_contract():
    sync = SchedulePolicy("sync", 1, max_latency=9)
    assert all(sync.latency(0, 1) == 1 for _ in range(20))
    rng_policy = SchedulePolicy("async", 1, max_latency=4)
    draws = [rng_policy.latency(0, 1) for _ in range(200)]
    assert all(1 <= d <= 4 for d in draws) and len(set(draws)) > 1
    with pytest.raises(ScenarioError):
        SchedulePolicy("bogus", 1)


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


def test_crashed_process_emits_nothing_after_crash():
    t = topo.ring(5)
    setup = build_trusted(t, [1.0, 2.0, 3.0, 4.0, 5.0], seed=0)
    sim = netsim.Simulation(t, setup, SchedulePolicy("sync", 3),
                            faults=FaultPlan((CrashFault(process=2, time=3),)),
                            keep_log=True)
    _, trace = sim.run()
    assert all(not (frm == 2 and time >= 3) for time, frm, dst, _ in trace.messages)
    assert all(not (dst == 2 and time >= 3) for time, frm, dst, _ in trace.messages)


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
    report, trace = netsim.Simulation(t, setup, policy, keep_log=True).run()
    assert report.termination == "deadline-exceeded"
    bound = 10 * latency * (t.n + 2)
    last = max(time for time, _, _, _ in trace.messages)
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
    with pytest.raises(ScenarioError, match="no channel from 0 to 2"):
        sim.run()


def test_multicast_with_one_non_neighbour_raises_and_counts_nothing():
    def multicast(ctx, msg):
        with pytest.raises(ScenarioError, match="no channel from 0 to 2"):
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
    for keep_log in (True, False):
        setup = build_trusted(t, [float(i) for i in range(6)], seed=2)
        sim = netsim.Simulation(t, setup, SchedulePolicy(schedule, 4, max_latency=3),
                                faults=FaultPlan((CrashFault(process=2, time=3),)),
                                keep_log=keep_log)
        traces.append(sim.run()[1])
    logged, unlogged = traces
    assert logged.deliveries == len(logged.messages) > 0
    assert logged.batches == len({time for time, _, _, _ in logged.messages}) > 1
    assert unlogged.messages == []
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


def test_pre_prepare_exposure_mutation_is_flagged():
    from mutations import MisroutingAvgNode, run_mutated
    violations = run_mutated(MisroutingAvgNode)
    assert any(v.rule == "unprepared-exposure" for v in violations)


@pytest.mark.parametrize("node_name", ["LeakyAvgNode", "MisroutingAvgNode"])
def test_audit_finds_the_same_violations_without_the_log(monkeypatch, node_name):
    import mutations
    node_cls = getattr(mutations, node_name)
    logged = mutations.run_mutated(node_cls)
    traces = []

    class UnloggedSimulation(netsim.Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **{**kwargs, "keep_log": False})

        def run(self):
            report, trace = super().run()
            traces.append(trace)
            return report, trace

    monkeypatch.setattr(netsim, "Simulation", UnloggedSimulation)
    unlogged = mutations.run_mutated(node_cls)
    trace, = traces
    assert trace.messages == []
    assert not any(ev.kind == "possess" for ev in trace.backend.events())
    assert logged and unlogged == logged


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
    sim = netsim.Simulation(t, setup, SchedulePolicy("sync", 2), keep_log=True)
    _, trace = sim.run()
    backend = setup.backend
    for ev, taint, decryptable in backend.audit_view(netsim.TRUSTED):
        assert ev.prepared
    for pid in range(4):
        assert all(not d for _, _, d in backend.audit_view(pid))


def test_audit_view_refuses_an_unlogged_run():
    t = topo.ring(4)
    setup = build_trusted(t, [1.0, 2.0, 3.0, 4.0], seed=4)
    netsim.Simulation(t, setup, SchedulePolicy("sync", 2)).run()
    with pytest.raises(UnloggedLedgerError, match="keep_log=True"):
        setup.backend.audit_view(netsim.TRUSTED)
