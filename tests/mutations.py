"""Deliberately broken protocol variants for negative privacy tests."""

from consentry import netsim
from consentry import topology as topo
from consentry.avg_consensus import (INSTANCE_TRUSTED, AvgProcessNode,
                                     UntrustedProcessNode, build_trusted,
                                     build_untrusted, instance_for_initiator)
from consentry.netsim import SchedulePolicy


class LeakyAvgNode(AvgProcessNode):
    """Mutation: copies its private value into a plaintext message field."""

    def _snapshot_msg(self, state):
        msg = state.snapshot()
        msg.extra = {"debug_value": self.value}
        return msg


class NestedLeakAvgNode(AvgProcessNode):
    """Mutation: copies its private value into plaintext message fields,
    nested inside a list and inside a dict."""

    def _snapshot_msg(self, state):
        msg = state.snapshot()
        msg.extra = {"nested_list": ["hint", [self.value]],
                     "nested_dict": {"hint": {"value": self.value}}}
        return msg


class MisroutingAvgNode(AvgProcessNode):
    """Mutation: hands the raw (pre-prepare) aggregate to the keyholder."""

    def on_deliver(self, ctx, batch):
        super().on_deliver(ctx, batch)
        state = self.states.get(INSTANCE_TRUSTED)
        if state is not None:
            ctx.send(netsim.TRUSTED, self._snapshot_msg(state))


class MisroutingUntrustedNode(UntrustedProcessNode):
    """Mutation: sends each neighbouring initiator k its raw state of
    instance k, under k's key, at the start."""

    def on_start(self, ctx):
        super().on_start(ctx)
        for k in self.pks:
            state = self.states.get(instance_for_initiator(k))
            if state is not None and k in ctx.neighbors:
                ctx.send(k, state.snapshot())


def mutated_untrusted_setup(t, inputs, seed):
    """An avg-untrusted setup on `t` with every process replaced by
    `MisroutingUntrustedNode`."""
    setup = build_untrusted(t, inputs, seed=seed)
    for pid in range(t.n):
        node = setup.nodes[pid]
        setup.nodes[pid] = MisroutingUntrustedNode(pid, inputs[pid], t.n, setup.backend,
                                                   node.pks, node.viable, node.secret)
    return setup


def mutated_setup(t, inputs, node_cls, seed):
    """An avg-trusted setup on `t` with every process replaced by the
    mutated node class."""
    setup = build_trusted(t, inputs, seed=seed)
    pk = setup.nodes[0].pk
    for pid in range(t.n):
        setup.nodes[pid] = node_cls(pid, inputs[pid], pk, t.n, setup.backend)
    return setup


def run_mutated(node_cls):
    """Run a 4-ring with every process replaced by the mutated node class;
    returns the privacy violations the auditor found."""
    t = topo.ring(4)
    setup = mutated_setup(t, [5.0, 6.0, 7.0, 8.0], node_cls, seed=1)
    sim = netsim.Simulation(t, setup, SchedulePolicy("sync", 1))
    report, trace = sim.run()
    return netsim.privacy_audit(trace)
