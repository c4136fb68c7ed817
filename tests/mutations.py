"""Deliberately broken protocol variants for negative privacy tests."""

from consentry import leader_election, netsim
from consentry import topology as topo
from consentry.avg_consensus import (INSTANCE_TRUSTED, AvgProcessNode,
                                     UntrustedProcessNode, build_trusted,
                                     build_untrusted, instance_for_initiator)
from consentry.leader_election import ElectionProcessNode, init_election
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


class DelayedStartAvgNode(AvgProcessNode):
    """Mutation: a process with a positive value holds its start broadcast
    until its first delivery, so when it first sends depends on its input.
    Every message it sends is well formed and encrypted."""

    def on_start(self, ctx):
        if self.value <= 0:
            super().on_start(ctx)

    def on_deliver(self, ctx, batch):
        if INSTANCE_TRUSTED not in self.states:
            super().on_start(ctx)
        super().on_deliver(ctx, batch)


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


class OverfannedAvgNode(AvgProcessNode):
    """Mutation: multicasts each changed state to its neighbours and, in the
    same multicast, to the keyholder, unprepared."""

    def on_start(self, ctx):
        super().on_start(ctx)
        self.states[INSTANCE_TRUSTED].fanout = (*ctx.neighbors, netsim.TRUSTED)


class OverfannedUntrustedNode(UntrustedProcessNode):
    """Mutation: multicasts each changed state of every instance to all its
    neighbours, a neighbouring initiator among them, unprepared."""

    def on_start(self, ctx):
        super().on_start(ctx)
        for state in self.states.values():
            state.fanout = ctx.neighbors


class MisroutingElectionNode(ElectionProcessNode):
    """Mutation: also sends its unprepared start copy, its own encrypted
    ballot, to the keyholder."""

    def on_start(self, ctx):
        super().on_start(ctx)
        ctx.send(netsim.TRUSTED, init_election(self.pid, self.ballot_ct, self.n)[1])


def mutated_untrusted_setup(t, inputs, seed, node_cls=MisroutingUntrustedNode):
    """An avg-untrusted setup on `t` with every process replaced by the
    mutated node class."""
    setup = build_untrusted(t, inputs, seed=seed)
    for pid in range(t.n):
        node = setup.nodes[pid]
        setup.nodes[pid] = node_cls(pid, inputs[pid], t.n, setup.backend,
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


def run_mutated_election(node_cls, ballots):
    """Run a sync election on a 4-ring with every process replaced by the
    mutated node class; returns the report and the privacy violations the
    auditor found."""
    t = topo.ring(4)
    setup = leader_election.build(t, ballots, seed=1)
    for pid in range(t.n):
        node = setup.nodes[pid]
        setup.nodes[pid] = node_cls(pid, node.ballot, node.pk, t.n, setup.backend, node.bfs)
    report, trace = netsim.Simulation(t, setup, SchedulePolicy("sync", 1)).run()
    return report, netsim.privacy_audit(trace)


def run_mutated(node_cls):
    """Run a 4-ring with every process replaced by the mutated node class;
    returns the privacy violations the auditor found."""
    t = topo.ring(4)
    setup = mutated_setup(t, [5.0, 6.0, 7.0, 8.0], node_cls, seed=1)
    sim = netsim.Simulation(t, setup, SchedulePolicy("sync", 1))
    report, trace = sim.run()
    return netsim.privacy_audit(trace)
