"""Outlier-resistant averaging: three gated consensus rounds.

Round 1 averages the raw values, round 2 averages the squared deviations
(variance), round 3 re-averages with outliers voting zero and carries the
encrypted 0/1 participation flags as a second channel; the ratio of the
two prepared round-3 channels is the outlier-free mean.  A value is an
outlier when it lies strictly outside mu +/- c*sigma.

Between rounds the keyholder hands every process the result of the first
prepared aggregate it gets, and its variance route decides what that is
after round 1: the decrypted mean ("decrypt"), or the prepared round-1
aggregate itself, unopened ("encrypted").  A process reacts to what it
gets: from the mean it encrypts (v - mu)^2, from the aggregate it forms
Enc((v - mu)^2) at its own slot.  So round 2 floods the same squared
deviations on both routes; on the encrypted one the keyholder opens the
prepared round-1 and round-2 aggregates together.
"""

from __future__ import annotations

import math

import numpy as np

from . import netsim
from .avg_consensus import (RESULT, ConsensusState, FloodingNode, ProtocolMessage,
                            TrustedCollectorNode, _finite_values, _sum_fits,
                            finalize_trusted, init_consensus, on_receive, prepare)
from .he_slots import Ciphertext, SlotEngine, SlotVector, seeded_backend, slot_capacity_for
from .topology import Topology

R1 = "out/r1"
R2 = "out/r2"
R3 = "out/r3"


class AllOutliersError(Exception):
    """Round 3 had no participants: every value was classified an outlier."""


class NegativeVarianceError(ValueError):
    """A round-2 average below zero by more than rounding dust: a fault of the
    run, not of its config."""


def round2_input(v: float, mu: float) -> float:
    """Squared deviation fed into the variance round."""
    return (v - mu) ** 2


#: a round-2 average below zero by at most this much is rounding dust
_VARIANCE_DUST = 1e-9


def sigma_from_round2(variance_avg: float) -> float:
    """Standard deviation from the round-2 average, clamping tiny negatives."""
    if variance_avg < -_VARIANCE_DUST:
        raise NegativeVarianceError(f"variance average materially negative: {variance_avg}")
    return math.sqrt(max(0.0, variance_avg))


def is_outlier(v: float, mu: float, sigma: float, c: float) -> bool:
    """Strict test: boundary values are not outliers."""
    return abs(v - mu) > c * sigma


def init_round3(pid: int, v: float, outlier: bool, pk, n: int,
                backend: SlotEngine) -> tuple[ConsensusState, ProtocolMessage]:
    """Round-3 seed: a state whose channels carry v (or 0 if outlier), then
    the 0/1 participation flag."""
    cap = backend.config.slot_capacity
    vote = 0.0 if outlier else float(v)
    flag = 0.0 if outlier else 1.0
    votes = backend.encrypt(pk, SlotVector.impulse(cap, pid, vote), (pid, f"{R3}:value"))
    part = backend.encrypt(pk, SlotVector.impulse(cap, pid, flag),
                           (pid, f"{R3}:participating"))
    return init_consensus(pid, vote, pk, n, backend, R3, channels=(votes, part))


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


# -- simulation actors -------------------------------------------------------

class OutlierProcessNode(FloodingNode):
    """Participant in the three rounds.  Each round starts on the previous
    round's RESULT, and round 2 from whichever hand-off round 1's carries:
    the mean `mu`, or the unopened prepared mean, kept as `mean_ct`."""

    def __init__(self, pid: int, value: float, c: float, pk, n: int, backend: SlotEngine):
        super().__init__(pid, n, backend)
        self.value = float(value)
        self.c = c                     # the outlier band's width in sigmas
        self.pk = pk
        self.mu: float | None = None
        self.mean_ct: Ciphertext | None = None

    def _start_round(self, ctx, instance: str, value: float = None,
                     channels: tuple = None):
        self._start(ctx, *init_consensus(self.pid, value, self.pk, self.n, self.backend,
                                         instance, channels=channels))

    def on_start(self, ctx):
        self._start_round(ctx, R1, value=self.value)

    def _handle_result(self, ctx, msg):
        self.mu = msg.extra.get("mu", self.mu)
        if msg.instance == R1:
            if not msg.ciphertexts:
                self._start_round(ctx, R2, value=round2_input(self.value, self.mu))
            else:
                self.mean_ct, = msg.ciphertexts
                self._start_round(ctx, R2, channels=(variance_contribution(
                    self.backend, self.mean_ct, self.value, self.pid, self.pk),))
        elif msg.instance == R2:
            sigma = sigma_from_round2(msg.extra["variance"])
            outlier = is_outlier(self.value, self.mu, sigma, self.c)
            self._start(ctx, *init_round3(self.pid, self.value, outlier,
                                          self.pk, self.n, self.backend))
        else:
            # no value on the all-outliers result
            ctx.decide(msg.extra.get("value"))

    on_crash_notice = FloodingNode._wait_for_survivors


class OutlierCollectorNode(TrustedCollectorNode):
    """Keyholder gating the three rounds; never sees an unprepared
    aggregate.  Its variance `route` decides what round 1 hands out."""

    def __init__(self, key_material, n: int, backend: SlotEngine, route: str):
        super().__init__(key_material, n, backend)
        self.route = route

    def _open(self, ctx, msg):
        """Hand out the result of an instance's first prepared aggregate.

        A process starts a round only on the previous round's RESULT, so
        round 1's aggregate arrives before any of round 2's.
        """
        if msg.instance == R1:
            if self.route == "decrypt":
                mu = self._decrypt(msg.votes_ct)
                ctx.note("mu", mu)
                result = ProtocolMessage(R1, RESULT, extra={"mu": mu})
            else:
                # the mean goes out unopened; every process forms round 2 from it
                result = ProtocolMessage(R1, RESULT, msg.ciphertexts)
            ctx.broadcast_processes(result)
        elif msg.instance == R2:
            extra = {}
            if self.route == "encrypted":
                extra["mu"] = self._decrypt(self.prepared[R1].votes_ct)
                ctx.note("mu", extra["mu"])
            extra["variance"] = self._decrypt(msg.votes_ct)
            ctx.note("variance", extra["variance"])
            ctx.broadcast_processes(ProtocolMessage(R2, RESULT, extra=extra))
        else:
            try:
                value = finalize_outlier(self.backend, self.key.secret_part,
                                         *msg.ciphertexts, self.n, caller=netsim.TRUSTED)
            except AllOutliersError:
                ctx.note("outcome", "all-outliers")
                extra = {"outcome": "all-outliers"}
            else:
                ctx.decide(value)
                extra = {"value": value}
            ctx.broadcast_processes(ProtocolMessage(R3, RESULT, extra=extra))


def build(topology: Topology, inputs, c: float, *, variance_route: str = "decrypt",
          seed: int = 0, noise_epsilon: float = 0.0) -> netsim.ProtocolSetup:
    n = topology.n
    backend = seeded_backend(slot_capacity_for(n), noise_epsilon, seed)
    key = backend.keygen(netsim.TRUSTED)
    nodes = {}
    values = _finite_values(inputs)
    _sum_fits(values, squares=True)
    if c <= 0:
        raise netsim.ScenarioError(f"c must be positive, got {c}")
    for pid in range(n):
        nodes[pid] = OutlierProcessNode(pid, values[pid], c, key.public_part, n, backend)
    nodes[netsim.TRUSTED] = OutlierCollectorNode(key, n, backend, route=variance_route)
    private = set(values)
    mu = float(np.mean(values))
    private.update(round2_input(v, mu) for v in values)
    return netsim.ProtocolSetup(
        nodes=nodes, backend=backend,
        private_values=frozenset(private),
        expected_deciders=set(range(n)),
    )
