"""Deterministic discrete-event network simulator with a privacy auditor.

Logical time only: in synchronous mode every message sent during round t is
delivered at round t+1; in async mode each send draws a seeded integer
latency.  Crash faults are announced: every correct process receives a
notification at the crash time.  A run ends when no message is in flight
and no crash is pending.  A run is a pure function of (scenario, seed);
reports serialize byte-identically across repeats.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from dataclasses import dataclass, field, fields
from json.encoder import c_make_encoder, encode_basestring_ascii

from .he_slots import MAX_NOISE_EPSILON, PrivacyViolation
from .topology import Topology, _is_int, _is_real, load_topology
import random

TRUSTED = "trusted"            # collector actor id, outside the graph
CIPHERTEXT_BYTES = 1 << 16     # nominal ciphertext size for complexity reports
MESSAGE_BASE_BYTES = 64

#: plaintext message fields that are protocol outputs by design; the leak
#: auditor ignores them when matching against private inputs.
DECLARED_PLAIN_KEYS = frozenset(
    {"average", "mu", "variance", "value", "winner", "outcome"})


class ScenarioError(ValueError):
    """Input that no run can use.  `cli.main` exits 2 on it or a `TopologyError`,
    and 4 on any other exception, which is a fault of the program."""


@dataclass(frozen=True)
class CrashFault:
    process: int
    time: int


@dataclass(frozen=True)
class FaultPlan:
    crashes: tuple[CrashFault, ...] = ()

    @classmethod
    def from_list(cls, items) -> "FaultPlan":
        if not isinstance(items, (list, tuple)):
            raise ScenarioError(f"faults must be a list of crash faults, got {items!r}")
        crashes = []
        for it in items:
            try:
                process, time = it["process"], it["time"]
            except (KeyError, TypeError) as exc:
                raise ScenarioError(
                    f"a crash fault needs a process and a time: {it!r}") from exc
            if set(it) - {"process", "time"}:
                raise ScenarioError(f"a crash fault takes only a process and a time: {it!r}")
            if not (_is_int(process) and _is_int(time)):
                raise ScenarioError(
                    f"a crash fault's process and time must be integers: {it!r}")
            crashes.append(CrashFault(int(process), int(time)))
        return cls(tuple(crashes))


_PROTOCOLS = ("avg-trusted", "avg-untrusted", "outlier", "election")


@dataclass(frozen=True)
class ScenarioConfig:
    """Experiment input for one simulation (or a batch of trials), checked when made."""

    protocol: str
    topology: object                 # Topology | dict | path to JSON file
    inputs: object                   # list of reals / ballots, or {"random_uniform": [lo, hi]}
    c: float | None = None
    variance_route: str = "decrypt"
    seed: int = 0
    schedule: str = "sync"
    max_latency: int = 4
    faults: FaultPlan = field(default_factory=FaultPlan)
    trials: int = 1
    noise_epsilon: float = 0.0
    initiators: list[int] | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ScenarioError(f"a scenario config must be an object, got {raw!r}")
        unknown = set(raw) - _SCENARIO_FIELDS
        if unknown:
            raise ScenarioError(f"unknown config keys: {sorted(unknown)}")
        for key in ("protocol", "topology", "inputs"):
            if key not in raw:
                raise ScenarioError(f"missing required config key {key!r}")
        return cls(**raw)

    def __post_init__(self):
        if not isinstance(self.faults, FaultPlan):
            # the class is frozen; a list of crash faults becomes its plan
            object.__setattr__(self, "faults", FaultPlan.from_list(self.faults))
        checks = {"seed": _is_int, "max_latency": _is_int, "trials": _is_int,
                  "noise_epsilon": _is_real}
        if self.c is not None:
            checks["c"] = _is_real
        for key, ok in checks.items():
            value = getattr(self, key)
            if not ok(value):
                what = "an integer" if ok is _is_int else "a number"
                raise ScenarioError(f"{key} must be {what}, got {value!r}")
        for key in ("c", "noise_epsilon"):
            value = getattr(self, key)
            # a comparison, since math.isfinite raises on an int past float range
            if value is not None and not abs(value) <= sys.float_info.max:
                raise ScenarioError(f"{key} must be finite, got {value!r}")
        if not self.noise_epsilon <= MAX_NOISE_EPSILON:
            raise ScenarioError(f"noise_epsilon must be at most {MAX_NOISE_EPSILON!r}, "
                                f"so that its noise range 2 * noise_epsilon is finite, "
                                f"got {self.noise_epsilon!r}")
        inputs = self.inputs
        numbers = () if self.protocol == "election" else inputs   # ballots are checked later
        if isinstance(inputs, dict) and "random_uniform" in inputs:
            numbers = bounds = inputs["random_uniform"]
            if not isinstance(bounds, (list, tuple)) or len(bounds) != 2 or \
                    not all(_is_real(b) for b in bounds):
                raise ScenarioError(f"random_uniform needs [lo, hi], got {bounds!r}")
            if unknown := inputs.keys() - {"random_uniform"}:
                raise ScenarioError(f"unknown inputs keys beside random_uniform: "
                                    f"{sorted(unknown, key=str)}")
        elif not isinstance(inputs, (list, tuple)):
            raise ScenarioError(
                f"inputs must be a list or {{\"random_uniform\": [lo, hi]}}, got {inputs!r}")
        elif self.protocol != "election" and not all(_is_real(v) for v in inputs):
            raise ScenarioError(f"inputs must be numbers, got {inputs!r}")
        if not all(abs(v) <= sys.float_info.max for v in numbers):
            raise ScenarioError(f"inputs must be finite, got {inputs!r}")
        if self.initiators is not None and (
                not isinstance(self.initiators, (list, tuple, set, frozenset))
                or not self.initiators or not all(_is_int(k) for k in self.initiators)):
            raise ScenarioError(
                f"initiators must be a non-empty list of process ids, got {self.initiators!r}")
        if self.protocol not in _PROTOCOLS:
            raise ScenarioError(f"unknown protocol {self.protocol!r}")
        if self.schedule not in ("sync", "async"):
            raise ScenarioError(f"schedule must be sync or async, got {self.schedule!r}")
        if self.variance_route not in ("decrypt", "encrypted"):
            raise ScenarioError(f"variance_route must be decrypt or encrypted, "
                                f"got {self.variance_route!r}")
        if self.protocol == "outlier":
            if self.c is None or self.c <= 0:
                raise ScenarioError("outlier protocol requires c > 0")
        elif self.c is not None:
            raise ScenarioError("c is only meaningful for the outlier protocol")
        if self.variance_route != "decrypt" and self.protocol != "outlier":
            raise ScenarioError("variance_route is only meaningful for the outlier protocol")
        if self.initiators is not None and self.protocol != "avg-untrusted":
            raise ScenarioError("initiators only apply to avg-untrusted")
        if self.max_latency < 1:
            raise ScenarioError("max_latency must be >= 1")
        if self.trials < 1:
            raise ScenarioError("trials must be >= 1")
        if self.seed < 0:
            raise ScenarioError(f"seed must be >= 0, got {self.seed}")
        if self.noise_epsilon < 0:
            raise ScenarioError("noise_epsilon must be >= 0")
        for crash in self.faults.crashes:
            if crash.time < 0:
                raise ScenarioError(f"crash time must be >= 0: {crash}")

    def resolve_topology(self, seed_offset: int = 0) -> Topology:
        rng = random.Random((self.seed + seed_offset) * 2654435761 % (2**31))
        return load_topology(self.topology, rng)

    def resolve_inputs(self, topo: Topology, seed_offset: int = 0):
        if isinstance(self.inputs, dict) and "random_uniform" in self.inputs:
            lo, hi = self.inputs["random_uniform"]
            rng = random.Random((self.seed + seed_offset) * 1099087573 % (2**31) + 17)
            return [rng.uniform(lo, hi) for _ in range(topo.n)]
        vals = list(self.inputs)
        if len(vals) != topo.n:
            raise ScenarioError(
                f"inputs length {len(vals)} != process count {topo.n}")
        return vals


_SCENARIO_FIELDS = frozenset(f.name for f in fields(ScenarioConfig))


class SchedulePolicy:
    """Delivery-order source: the schedule mode, the largest latency, and the
    seed of the stream `Simulation._send` draws each async send's latency
    from.  The stream is built from the seed at its first draw, so a sync
    run, whose latencies are all 1, builds none."""

    def __init__(self, mode: str, seed: int, max_latency: int = 4):
        if mode not in ("sync", "async"):
            raise ScenarioError(f"unknown schedule mode {mode!r}")
        if not (_is_int(max_latency) and max_latency >= 1):
            raise ScenarioError(f"max_latency must be an integer >= 1, got {max_latency!r}")
        self.mode = mode
        self.max_latency = int(max_latency)
        self._seed = seed

    @functools.cached_property
    def _rng(self) -> random.Random:
        return random.Random(self._seed)


@dataclass
class SimReport:
    """Structured result of one simulation run."""

    schema_version: int
    protocol: str
    n: int
    seed: int
    schedule: str
    decided_values: dict
    rounds_to_decide: dict
    messages_sent: dict
    bytes_modeled: dict
    privacy_violations: list
    termination: str            # "decided" | "deadline-exceeded"
    extra: dict

    def as_dict(self) -> dict:
        """A shallow dict of the fields, each per-actor map keyed by the actor
        id as a string: what `to_json` writes, and a trial of `report.json`."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("decided_values", "rounds_to_decide", "messages_sent", "bytes_modeled"):
            payload[name] = {str(k): v for k, v in payload[name].items()}
        return payload

    def to_json(self) -> str:
        return report_json(self.as_dict())


#: the exact types json writes as scalars, and those written here
_SCALARS = frozenset({str, int, float, bool, type(None)})
_LITERALS = {str: encode_basestring_ascii, int: int.__repr__,
             bool: ("false", "true").__getitem__, type(None): lambda _: "null"}


@functools.cache
def _flat_encoder(level: int):
    return c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                          None, ": ", ",\n" + "  " * level, True, False, True)


def report_json(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte, for any
    acyclic `obj`: the one writer of reports and of `report.json`.

    Before 3.13, json's C encoder serves only `indent=None`: one call of it,
    one item to a line and its brackets re-wrapped, writes each list, tuple
    or dict of exact str, int, float, bool or None; other containers are
    walked here, and the C encoder writes what is not an exact scalar."""
    if c_make_encoder is None or sys.version_info >= (3, 13):
        return json.dumps(obj, sort_keys=True, indent=2)
    return _encode(obj, 0)


def _encode(o, level: int) -> str:
    literal = _LITERALS.get(type(o))
    if literal is not None:
        return literal(o)
    is_dict = isinstance(o, dict)
    if not (is_dict or isinstance(o, (list, tuple))) or not o:
        return "".join(_flat_encoder(0)(o, 0))
    inner = "\n" + "  " * (level + 1)
    if type(o) in (dict, list, tuple) and \
            _SCALARS.issuperset(map(type, o.values() if is_dict else o)):
        body = "".join(_flat_encoder(level + 1)(o, 0))[1:-1]
    elif is_dict:
        body = ("," + inner).join([f"{_key(k)}: {_encode(v, level + 1)}"
                                   for k, v in sorted(o.items())])
    else:
        body = ("," + inner).join([_encode(v, level + 1) for v in o])
    return ("{" if is_dict else "[") + inner + body + inner[:-2] + ("}" if is_dict else "]")


def _key(k) -> str:
    """A dict key as json writes it: its C encoder writes {k: 0} as {"k": 0}."""
    if type(k) is str:
        return encode_basestring_ascii(k)
    return "".join(_flat_encoder(0)({k: 0}, 0))[1:-4]


@dataclass
class SimTrace:
    """Run artifacts: what the privacy auditor reads, and delivery counts.

    `messages` is always empty: the run keeps no delivery log.  The field
    stays because `bench/tracer.py` reads its length.
    """

    backend: object
    messages: list
    leaks: list = field(default_factory=list)   # plaintext-leak violations, in calendar-entry order
    deliveries: int = 0         # messages handed to a live receiver
    batches: int = 0            # delivery times with at least one delivery


class Node:
    """Base protocol actor; subclasses override the three callbacks."""

    def on_start(self, ctx):
        pass

    def on_deliver(self, ctx, batch):
        pass

    def on_crash_notice(self, ctx, crashed):
        pass


class Context:
    """Per-actor handle through which a node interacts with the simulation.

    `send` is one point-to-point message.  `multicast` hands a whole
    destination tuple to the simulator at once, counted, ordered and
    delivered as one message per destination, as that many sends would be;
    `broadcast` and `broadcast_processes` are multicasts.  A process has a
    channel to each of its `neighbors` and to TRUSTED, and to no one else.
    """

    def __init__(self, sim: "Simulation", pid):
        self._sim = sim
        self.pid = pid
        self.neighbors = sim.topology.adjacency[pid] if isinstance(pid, int) else ()
        #: f, how many processes may crash: the distinct processes of the
        #: fault plan.  Every process knows the bound, not who crashes or when.
        self.crash_bound = sim.crash_bound

    def send(self, dst, msg):
        self._sim._send(self.pid, (dst,), msg)

    def multicast(self, dsts: tuple, msg):
        """One message to each actor of `dsts`, in that order."""
        self._sim._send(self.pid, dsts, msg)

    def broadcast(self, msg):
        self.multicast(self.neighbors, msg)

    def broadcast_processes(self, msg):
        """Collector channel: deliver to every (correct) process directly."""
        self.multicast(tuple(range(self._sim.topology.n)), msg)

    def decide(self, value):
        self._sim._record_decide(self.pid, value)

    def mark_complete(self, instance: str):
        self._sim._record_complete(self.pid, instance)

    def note(self, key: str, value):
        self._sim.extra[key] = value


@dataclass
class ProtocolSetup:
    """Everything a protocol builder hands to the engine."""

    nodes: dict                       # actor id -> Node
    backend: object                   # SlotBackend
    private_values: frozenset
    expected_deciders: set
    primary_instance: str | None = None


def _actor_order(actor):
    """Processes in ascending id order, then the out-of-graph actors."""
    return (isinstance(actor, str), actor)


class Simulation:
    """Single-threaded deterministic event loop over one protocol setup.

    Messages wait in a calendar that maps each delivery time to its sends in
    send order; `_send` appends to it with one lookup, and reads the
    schedule's mode, largest latency and latency stream from fields set
    once at construction.  Each step takes the earliest pending time,
    announces that time's crashes and then delivers that time's messages:
    receivers in actor order, each receiver's batch in send order.  The run
    ends when nothing is pending.  The hard stop is logical time
    `last crash + 10 * L * (n + 2)`, L being the schedule's largest latency;
    a process re-sends only when its state grows, so a run goes quiet
    before it, and reaching it is a fault: `run` raises `RuntimeError`.

    A calendar entry is `(frm, dsts, msg)`: one multicast to the
    destination tuple `dsts`.  A send over a missing edge raises
    `RuntimeError` before anything is counted: only protocol code picks
    destinations, so it is a fault, not bad input.  Each destination counts
    as one message.  In sync mode a multicast is one entry; in async mode each
    destination draws its own latency, in the order given, and gets an
    entry of its own.

    Each delivery is audited as it happens, before its receiver's callback.
    A delivered ciphertext under a key its receiver holds (`key_holders()`,
    fixed before the run) is reported to the engine, which checks the ledger
    rules; a possession by anyone but the key's holder cannot break them, so
    it is not reported.  An entry with plaintext fields has them checked for
    private inputs once, after its crashed destinations are dropped, and a
    leak counts once per live destination.  A ciphertext under a key held
    outside the graph (the collector's) is found by a pass over its holder's
    own batch, just before the callback, so no multicast among processes
    scans its destinations for the holder.  One under a key a process holds
    is listed, as the time's calendar entries are scanned, under that holder
    when it is among the entry's destinations, and the list is reported
    before its callback.  Either way a receiver's ciphertexts are reported
    in delivery order.  The trace counts deliveries and delivery batches;
    the run keeps no delivered message, so memory does not grow with
    traffic.
    """

    def __init__(self, topology: Topology, setup: ProtocolSetup,
                 policy: SchedulePolicy, faults: FaultPlan | None = None):
        self.topology = topology
        self.setup = setup
        self.policy = policy
        self.faults = faults or FaultPlan()
        self.crash_bound = len({crash.process for crash in self.faults.crashes})
        self.extra: dict = {}
        self._calendar: dict[int, list] = defaultdict(list)   # time -> [(frm, dsts, msg)]
        self._reach: dict = {}   # sender -> its neighbours and TRUSTED; set by run()
        # the schedule as `_send` reads it: sync, or async latencies drawn as
        # randrange(1, span + 1) draws them, from getrandbits(bits)
        self._sync = policy.mode == "sync"
        self._span = span = policy.max_latency
        self._bits = span.bit_length()
        self._getrandbits = None if self._sync else policy._rng.getrandbits
        self._now = 0
        self._crashed_at: dict[int, int] = {}
        self._decided: dict = {}
        self._decide_time: dict = {}
        self._completions: dict = {}
        self._messages_sent: dict = {}
        self._bytes: dict = {}
        self._leaks: list[PrivacyViolation] = []

    # -- engine internals -------------------------------------------------

    def _send(self, frm, dsts, msg):
        if not dsts:
            return
        if frm != TRUSTED:
            reach = self._reach[frm]
            if not reach.issuperset(dsts):
                dst = next(d for d in dsts if d not in reach)
                raise RuntimeError(f"no channel from {frm!r} to {dst!r}")
        count = len(dsts)
        self._messages_sent[frm] = self._messages_sent.get(frm, 0) + count
        self._bytes[frm] = self._bytes.get(frm, 0) + count * (
            MESSAGE_BASE_BYTES + len(msg.ciphertexts) * CIPHERTEXT_BYTES)
        calendar, now = self._calendar, self._now
        if self._sync:
            calendar[now + 1].append((frm, dsts, msg))
            return
        # randrange(1, L + 1), drawn inline as randrange draws it: 1 + r for
        # the first r = getrandbits(bit length of L) below L
        span, bits, getrandbits = self._span, self._bits, self._getrandbits
        for dst in dsts:
            r = getrandbits(bits)
            while r >= span:
                r = getrandbits(bits)
            calendar[now + 1 + r].append((frm, (dst,), msg))

    def _record_decide(self, pid, value):
        if pid not in self._decided:
            self._decided[pid] = value
            self._decide_time[pid] = self._now

    def _record_complete(self, pid, instance):
        self._completions.setdefault((pid, instance), self._now)

    def _check_leaks(self, frm, msg, copies):
        """Flag each undeclared plaintext field of `msg` equal to a private
        input, once for each of its `copies` live destinations."""
        private = self.setup.private_values
        for key, value in msg.extra.items():
            if key in DECLARED_PLAIN_KEYS:
                continue
            for leaf in _float_leaves(value):
                if leaf in private:
                    self._leaks += [PrivacyViolation(
                        "plaintext-leak", frm,
                        f"field {key!r} in {msg.kind} message at t={self._now} "
                        f"equals a private input") for _ in range(copies)]

    # -- main loop ---------------------------------------------------------

    def run(self) -> tuple[SimReport, SimTrace]:
        nodes = self.setup.nodes
        backend = self.setup.backend
        ctxs = {pid: Context(self, pid) for pid in nodes}
        self._reach = {pid: frozenset((*ctx.neighbors, TRUSTED)) for pid, ctx in ctxs.items()}
        order = sorted(nodes, key=_actor_order)
        crashes: dict[int, list] = {}
        for crash in self.faults.crashes:
            crashes.setdefault(crash.time, []).append(crash.process)
        # the slowest drain seen over ring/path/star/tree/random/complete
        # graphs and all four protocols took about 3 * n * L
        longest = 1 if self._sync else self._span
        stop = max(crashes, default=0) + 10 * longest * (self.topology.n + 2)

        for pid in order:
            nodes[pid].on_start(ctxs[pid])
        calendar, crashed_at = self._calendar, self._crashed_at
        record = backend.record_possession
        holder_of = backend.key_holders()
        # a key a process holds is looked for among each calendar entry's
        # destinations; one held outside the graph, in its holder's own batch
        held_by_process = {key: h for key, h in holder_of.items() if isinstance(h, int)}
        outside_holders = {h for h in holder_of.values() if not isinstance(h, int)}
        rank = {actor: i for i, actor in enumerate(order)}
        delivered = batches = 0

        while calendar or crashes:
            now = min([*calendar, *crashes])
            if now > stop:
                raise RuntimeError(f"the run reached its horizon, logical time {stop}, "
                                   f"with messages still in flight")
            self._now = now
            for pid in crashes.pop(now, ()):
                if pid in crashed_at:
                    continue
                crashed_at[pid] = now
                crashed = frozenset(crashed_at)
                for other in order:
                    if other not in crashed:
                        nodes[other].on_crash_notice(ctxs[other], crashed)
            if now not in calendar:
                continue

            per_receiver = defaultdict(list)
            held = {}        # receiver -> ciphertexts it gets under its own key
            for frm, dsts, msg in calendar.pop(now):
                if crashed_at:
                    if frm in crashed_at:
                        continue
                    dsts = [dst for dst in dsts if dst not in crashed_at]
                if msg.extra:
                    self._check_leaks(frm, msg, len(dsts))
                if held_by_process:
                    for ct in msg.ciphertexts:
                        holder = held_by_process.get(ct.key_id)
                        if holder is not None and holder in dsts:
                            held.setdefault(holder, []).append(ct)
                delivery = (frm, msg)
                for dst in dsts:
                    per_receiver[dst].append(delivery)
            if per_receiver:
                batches += 1
            for dst in sorted(per_receiver, key=rank.__getitem__):
                deliveries = per_receiver[dst]
                delivered += len(deliveries)
                for ct in held.get(dst, ()):
                    record(dst, ct)
                if dst in outside_holders:
                    for frm, msg in deliveries:
                        for ct in msg.ciphertexts:
                            if holder_of.get(ct.key_id) == dst:
                                record(dst, ct)
                nodes[dst].on_deliver(ctxs[dst], deliveries)

        report = self._build_report()
        trace = SimTrace(backend=backend, messages=[],
                         leaks=list(self._leaks), deliveries=delivered,
                         batches=batches)
        return report, trace

    def _build_report(self) -> SimReport:
        expected = {p for p in self.setup.expected_deciders
                    if p not in self._crashed_at}
        # a run whose expected deciders all crashed decided nothing; a setup
        # that expects none (no viable untrusted initiator) still counts
        all_decided = (expected or not self.setup.expected_deciders) and \
            all(p in self._decided for p in expected)
        termination = "decided" if all_decided else "deadline-exceeded"
        # completion of the primary instance where there is one, else decision
        rounds = {**self._decide_time,
                  **{pid: t for (pid, inst), t in self._completions.items()
                     if inst == self.setup.primary_instance}}
        extra = dict(self.extra)
        extra["completion_times"] = {
            f"{pid}:{inst}": t for (pid, inst), t in self._completions.items()}
        if self._crashed_at:
            extra["crashed"] = {str(p): t for p, t in self._crashed_at.items()}
        return SimReport(
            schema_version=1,
            protocol="", n=self.topology.n, seed=0, schedule=self.policy.mode,
            decided_values=dict(self._decided),
            rounds_to_decide=rounds,
            messages_sent=dict(self._messages_sent),
            bytes_modeled=dict(self._bytes),
            privacy_violations=[],
            termination=termination,
            extra=extra,
        )


# -- privacy auditor -------------------------------------------------------

def privacy_audit(trace: SimTrace) -> list[PrivacyViolation]:
    """Honest-but-curious audit of a run, from checks made as it ran.

    The engine flags (a) decryption success by anyone other than the key's
    holder and (b) keyholder exposure to a non-prepared ciphertext tainted
    by other processes' inputs, as it records each decryption and
    possession.  The simulator flags (c) any undeclared plaintext field of a
    message equal to a private input, once per live destination.  Returns
    (a) and (b) in event order, then (c) in calendar-entry order.
    """
    return trace.backend.violations() + list(trace.leaks)


def _float_leaves(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        yield float(value)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _float_leaves(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _float_leaves(v)


# -- scenario runner -------------------------------------------------------

def run(scenario: ScenarioConfig, trial: int = 0) -> SimReport:
    """Execute one trial of a scenario; deterministic in (scenario, seed, trial)."""
    topo = scenario.resolve_topology(trial)
    if not topo.is_connected():
        raise ScenarioError(f"topology is disconnected: {topo!r}")
    for crash in scenario.faults.crashes:
        if not 0 <= crash.process < topo.n:
            raise ScenarioError(f"crash of a process outside 0..{topo.n - 1}: {crash}")
    trial_seed = scenario.seed + trial

    from . import avg_consensus, outlier_consensus, leader_election

    inputs = scenario.resolve_inputs(topo, trial)
    common = {"seed": trial_seed, "noise_epsilon": scenario.noise_epsilon}
    if scenario.protocol == "avg-trusted":
        setup = avg_consensus.build_trusted(topo, inputs, **common)
    elif scenario.protocol == "avg-untrusted":
        setup = avg_consensus.build_untrusted(topo, inputs, scenario.initiators, **common)
    elif scenario.protocol == "outlier":
        setup = outlier_consensus.build(topo, inputs, scenario.c,
                                        variance_route=scenario.variance_route, **common)
    else:
        setup = leader_election.build(topo, inputs, **common)

    policy = SchedulePolicy(scenario.schedule, trial_seed * 7919 + 13,
                            scenario.max_latency)
    sim = Simulation(topo, setup, policy, faults=scenario.faults)
    report, trace = sim.run()
    report.protocol = scenario.protocol
    report.seed = trial_seed
    report.privacy_violations = [v.as_dict() for v in privacy_audit(trace)]
    return report
