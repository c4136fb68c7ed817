"""Outlier-resistant averaging: three gated consensus rounds.

Round 1 averages the raw values, round 2 averages the squared deviations
(variance), round 3 re-averages with outliers voting zero alongside an
encrypted 0/1 participation aggregate; the ratio of the two prepared
round-3 results is the outlier-free mean.  A value is an outlier when it
lies strictly outside mu +/- c*sigma.

Between rounds the collector either decrypts and broadcasts the gate value
(default) or, on the encrypted variance route, stays out of the round-1/2
gap: each process forms Enc((v - mu)^2) at its own slot from the prepared
round-1 mean it holds, so round 2 floods the same squared deviations on
both routes, and the collector opens the prepared round-1 and round-2
aggregates together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import netsim
from .avg_consensus import (ACTIVE, PREPARED, RESULT, ConsensusState,
                            FloodingNode, ProtocolMessage, _finite_values, _sum_fits,
                            finalize_trusted, init_consensus, on_receive,
                            prepare, survivors)
from .he_slots import Ciphertext, SlotEngine, SlotVector, seeded_backend, slot_capacity_for
from .topology import Topology

R1 = "out/r1"
R2 = "out/r2"
R3 = "out/r3"


class AllOutliersError(Exception):
    """Round 3 had no participants: every value was classified an outlier."""


@dataclass(frozen=True)
class OutlierParams:
    """Standard-deviation multiplier defining the outlier band."""

    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")


def round2_input(v: float, mu: float) -> float:
    """Squared deviation fed into the variance round."""
    return (v - mu) ** 2


#: a round-2 average below zero by at most this much is rounding dust
_VARIANCE_DUST = 1e-9


def sigma_from_round2(variance_avg: float) -> float:
    """Standard deviation from the round-2 average, clamping tiny negatives."""
    if variance_avg < -_VARIANCE_DUST:
        raise ValueError(f"variance average materially negative: {variance_avg}")
    return math.sqrt(max(0.0, variance_avg))


def is_outlier(v: float, mu: float, sigma: float, c: float) -> bool:
    """Strict test: boundary values are not outliers."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    return abs(v - mu) > c * sigma


def init_round3(pid: int, v: float, outlier: bool, pk, n: int,
                backend: SlotEngine) -> tuple[ConsensusState, ProtocolMessage]:
    """Round-3 seed: a state whose votes channel carries v (or 0 if outlier)
    and whose participation channel carries the 0/1 flag."""
    cap = backend.config.slot_capacity
    vote = 0.0 if outlier else float(v)
    flag = 0.0 if outlier else 1.0
    votes = backend.encrypt(pk, SlotVector.impulse(cap, pid, vote), (pid, f"{R3}:value"))
    part = backend.encrypt(pk, SlotVector.impulse(cap, pid, flag),
                           (pid, f"{R3}:participating"))
    return init_consensus(pid, vote, pk, n, backend, R3,
                          contribution=votes, participating_ct=part)


# round 3 folds like any instance; the name is kept for the benchmark tracer
on_receive_round3 = on_receive


#: |participation - 1| below this means everyone participated; well clear of
#: the 1/n gap to the next level and of the emulated-noise envelope
FULL_PARTICIPATION_TOL = 1e-6


def finalize_outlier(backend: SlotEngine, secret, prepared_votes: Ciphertext,
                     prepared_participating: Ciphertext, n: int,
                     caller=None) -> float:
    """Ratio of the two prepared round-3 aggregates: the outlier-free mean.

    Both aggregates were prepared with the same denominator, so the ratio is
    independent of it (which also makes this correct under fault-adjusted
    round sizes).  Full participation is special-cased so that the
    no-outlier result is the plain mean identically, not divided by 1 +/- dust.
    """
    filtered_over_n = finalize_trusted(backend, secret, prepared_votes, n,
                                       caller=caller)
    ratio = finalize_trusted(backend, secret, prepared_participating, n,
                             caller=caller)
    if ratio < 0.5 / n:
        raise AllOutliersError("no participating values in round 3")
    if abs(ratio - 1.0) <= FULL_PARTICIPATION_TOL:
        return filtered_over_n
    return filtered_over_n / ratio


# -- encrypted variance route ----------------------------------------------

def variance_contribution(backend: SlotEngine, mean_ct: Ciphertext,
                          v: float, pid: int, pk) -> Ciphertext:
    """Per-process hook: Enc((v - mean)^2) at the caller's slot, formed from
    the prepared round-1 mean without decrypting it."""
    cap = backend.config.slot_capacity
    own = backend.encrypt(pk, SlotVector.impulse(cap, pid, v), (pid, f"{R2}:value"))
    diff = backend.add_ct(own, backend.mult_pt(mean_ct, SlotVector.impulse(cap, pid, -1.0)))
    return backend.mult_ct(diff, diff)


# round 2 is prepared like any instance; the name is kept for the benchmark tracer
combine_variance = prepare


def encrypted_variance(backend: SlotEngine, mean_ct: Ciphertext,
                       values: dict, pk) -> Ciphertext:
    """Reference composition of the no-decryption variance route.

    `values` maps process id -> initial value (the per-process hooks).  The
    encrypted squared deviations are summed and prepared like any round;
    nothing is decrypted.
    """
    counts = np.zeros(backend.config.slot_capacity)
    total = None
    for pid in sorted(values):
        counts[pid] = 1
        sq = variance_contribution(backend, mean_ct, values[pid], pid, pk)
        total = sq if total is None else backend.add_ct(total, sq)
    return prepare(backend, total, counts, len(values))


# -- simulation actors -------------------------------------------------------

class OutlierProcessNode(FloodingNode):
    def __init__(self, pid: int, value: float, c: float, pk, n: int,
                 backend: SlotEngine, route: str = "decrypt"):
        super().__init__(pid, n, backend)
        self.value = float(value)
        self.params = OutlierParams(c)
        self.pk = pk
        self.route = route
        self.mu: float | None = None
        self.sigma: float | None = None
        self.mean_ct: Ciphertext | None = None

    # round bootstrap ------------------------------------------------------

    def _start(self, ctx, state: ConsensusState, msg: ProtocolMessage):
        state.required_mask = self.required_mask
        self.states[state.instance] = state
        ctx.broadcast(msg)
        self._try_decide(ctx, state)

    def _start_core(self, ctx, instance: str, value: float = None,
                    contribution: Ciphertext = None):
        state, msg = init_consensus(self.pid, value, self.pk, self.n,
                                    self.backend, instance, contribution=contribution)
        self._start(ctx, state, msg)

    def _start_round2(self, ctx):
        if self.route == "decrypt":
            self._start_core(ctx, R2, value=round2_input(self.value, self.mu))
        else:
            self._start_core(ctx, R2, contribution=variance_contribution(
                self.backend, self.mean_ct, self.value, self.pid, self.pk))

    def _start_round3(self, ctx):
        outlier = is_outlier(self.value, self.mu, self.sigma, self.params.c)
        self._start(ctx, *init_round3(self.pid, self.value, outlier,
                                      self.pk, self.n, self.backend))

    # event handling ---------------------------------------------------------

    def on_start(self, ctx):
        self._start_core(ctx, R1, value=self.value)

    def _prepared_readers(self, ctx, instance):
        # on the encrypted route every process derives its round-2 inputs
        # from the prepared round-1 mean
        if instance == R1 and self.route == "encrypted":
            return (netsim.TRUSTED, *ctx.neighbors)
        return (netsim.TRUSTED,)

    def _emit_prepared(self, ctx, instance, prepared):
        msg = super()._emit_prepared(ctx, instance, prepared)
        if instance == R1 and self.route == "encrypted":
            self._adopt_mean(ctx, msg.votes_ct)

    def _handle_prepared(self, ctx, msg):
        # only encrypted-route round-1 aggregates reach a process: forward
        # the first, which also starts round 2
        if self.mean_ct is None:
            ctx.broadcast(msg)
            self._adopt_mean(ctx, msg.votes_ct)

    def _adopt_mean(self, ctx, mean_ct):
        if self.mean_ct is None:
            self.mean_ct = mean_ct
            self._start_round2(ctx)

    def _handle_result(self, ctx, msg):
        if msg.instance == R1:
            if self.mu is None:
                self.mu = msg.extra["mu"]
                self._start_round2(ctx)
        elif msg.instance == R2:
            if self.sigma is None:
                if self.mu is None:
                    self.mu = msg.extra["mu"]
                self.sigma = sigma_from_round2(msg.extra["variance"])
                self._start_round3(ctx)
        elif msg.instance == R3:
            if "outcome" in msg.extra:
                ctx.decide(None)
            else:
                ctx.decide(msg.extra["value"])

    # fault handling ---------------------------------------------------------

    def on_crash_notice(self, ctx, crashed):
        self.required_mask = survivors(set(range(self.n)) - crashed, self.n)
        for _, state in sorted(self.states.items()):
            if state.phase == ACTIVE:
                state.required_mask = self.required_mask
                self._try_decide(ctx, state)


class OutlierCollectorNode(netsim.Node):
    """Keyholder gating the rounds; never sees an unprepared aggregate."""

    def __init__(self, key_material, n: int, backend: SlotEngine,
                 route: str = "decrypt"):
        self.key = key_material
        self.n = n
        self.backend = backend
        self.route = route
        self.prepared: dict[str, ProtocolMessage] = {}
        self.announced: set[str] = set()

    def on_deliver(self, ctx, batch):
        for sender, msg in batch:
            if msg.kind != PREPARED or msg.instance in self.prepared:
                continue
            self.prepared[msg.instance] = msg
            self._advance(ctx)

    def _decrypt(self, ct) -> float:
        return finalize_trusted(self.backend, self.key.secret_part, ct,
                                self.n, caller=netsim.TRUSTED)

    def _advance(self, ctx):
        if self.route == "decrypt" and R1 in self.prepared and R1 not in self.announced:
            self.announced.add(R1)
            mu = self._decrypt(self.prepared[R1].votes_ct)
            ctx.note("mu", mu)
            ctx.broadcast_processes(ProtocolMessage(R1, RESULT, extra={"mu": mu}))
        if R1 in self.prepared and R2 in self.prepared and R2 not in self.announced:
            # the encrypted route announces the mean here, so round 1 must be in too
            self.announced.add(R2)
            extra = {}
            if self.route == "encrypted":
                extra["mu"] = self._decrypt(self.prepared[R1].votes_ct)
                ctx.note("mu", extra["mu"])
            extra["variance"] = self._decrypt(self.prepared[R2].votes_ct)
            ctx.note("variance", extra["variance"])
            ctx.broadcast_processes(ProtocolMessage(R2, RESULT, extra=extra))
        if R3 in self.prepared and R3 not in self.announced:
            self.announced.add(R3)
            msg = self.prepared[R3]
            try:
                value = finalize_outlier(self.backend, self.key.secret_part,
                                         msg.votes_ct, msg.participating_ct,
                                         self.n, caller=netsim.TRUSTED)
            except AllOutliersError:
                ctx.note("outcome", "all-outliers")
                ctx.broadcast_processes(ProtocolMessage(
                    R3, RESULT, extra={"outcome": "all-outliers"}))
                return
            ctx.decide(value)
            ctx.broadcast_processes(ProtocolMessage(R3, RESULT,
                                                    extra={"value": value}))


def build(topology: Topology, inputs, c: float, *, variance_route: str = "decrypt",
          seed: int = 0, noise_epsilon: float = 0.0) -> netsim.ProtocolSetup:
    n = topology.n
    backend = seeded_backend(slot_capacity_for(n), noise_epsilon, seed)
    key = backend.keygen(netsim.TRUSTED)
    nodes = {}
    values = _finite_values(inputs)
    _sum_fits(values, squares=True)
    for pid in range(n):
        nodes[pid] = OutlierProcessNode(pid, values[pid], c, key.public_part,
                                        n, backend, route=variance_route)
    nodes[netsim.TRUSTED] = OutlierCollectorNode(key, n, backend,
                                                 route=variance_route)
    private = set(values)
    private.update(round2_input(v, float(np.mean(values))) for v in values)
    return netsim.ProtocolSetup(
        nodes=nodes, backend=backend,
        private_values=frozenset(private),
        expected_deciders=set(range(n)),
    )
