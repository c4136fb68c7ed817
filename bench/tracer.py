"""Per-layer attribution from spans recorded around calls into consentry.

Spans are taken from outside the package: module functions and class methods
are swapped for timing wrappers while the tracer is installed, and the
`SlotBackend` and node objects a `build*` returns get per-instance wrappers.
Each span is `[name, start, end, parent index]`; the spans of one op share
that op's list.  A span's self time is its duration minus its children's.
"""

import gzip
import json
import time
from collections import Counter

HE_OPS = ("encrypt", "decrypt", "add_ct", "mult_pt", "mult_ct", "rotate",
          "mark_prepared", "record_possession")
CALLBACKS = ("on_start", "on_deliver", "on_crash_notice")

#: span name -> layer its self time is charged to.  "front" is the op's
#: front end: `cli.main`, or the benchmark's in-process driver around the
#: public steps.  "runner" and "setup" are `netsim.run` glue and scenario
#: set-up, reported only through the end-to-end `setup_s`.
LAYER = {"op": "front", "cli.main": "front", "netsim.run": "runner",
         "setup": "setup", "build": "setup", "sim.run": "netsim.loop",
         "send": "netsim.send", "send.broadcast": "netsim.send",
         "audit": "audit", "proto.cb": "protocol", "proto.prepare": "protocol"}


def _layer(name):
    if name.startswith("he."):
        return "he_slots"
    if name.startswith("topo."):
        return "topology"
    return LAYER[name]


class Tracer:
    def __init__(self, pkg, driver):
        self.pkg = pkg            # module namespace of the package under test
        self.driver = driver      # benchmark module whose `set_up` is a span
        self.spans = None         # spans of the op in flight
        self._stack = []
        self._saved = []
        self._sims = []           # SimTrace objects of the op in flight
        self._audited = []
        self.counts = Counter()   # counts of the op in flight
        self.ops = []             # per-op summaries
        self.keep = 0             # ops whose spans are kept for writing out
        self.kept = []            # JSON lines holding the first `keep` ops' spans

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans = self.spans
            if spans is None:
                return fn(*args, **kwargs)
            stack = self._stack
            rec = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def _fold(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.spans is not None:
                _, out, done = result
                self.counts["fold_attempts"] += 1
                self.counts["fold_merges"] += bool(out) or done is not None
            return result
        return wrapper

    def _build(self, fn):
        timed = self._timed("build", fn)

        def wrapper(*args, **kwargs):
            setup = timed(*args, **kwargs)
            if self.spans is not None:
                backend = setup.backend
                for op in HE_OPS:
                    setattr(backend, op, self._timed("he." + op, getattr(backend, op)))
                for node in setup.nodes.values():
                    for cb in CALLBACKS:
                        setattr(node, cb, self._timed("proto.cb", getattr(node, cb)))
            return setup
        return wrapper

    def _sim_run(self, fn):
        timed = self._timed("sim.run", fn)

        def wrapper(sim):
            report, trace = timed(sim)
            if self.spans is not None:
                self._sims.append(trace)
            return report, trace
        return wrapper

    def _audit(self, fn):
        timed = self._timed("audit", fn)

        def wrapper(trace):
            if self.spans is not None:
                self._audited.append(trace)
            return timed(trace)
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        p = self.pkg
        span = self._timed
        self._patch(self.driver, "set_up", lambda f: span("setup", f))
        self._patch(p.cli, "main", lambda f: span("cli.main", f))
        self._patch(p.netsim, "run", lambda f: span("netsim.run", f))
        self._patch(p.netsim, "privacy_audit", self._audit)
        self._patch(p.netsim.Simulation, "run", self._sim_run)
        self._patch(p.netsim.Context, "send", lambda f: span("send", f))
        for attr in ("broadcast", "broadcast_processes"):
            self._patch(p.netsim.Context, attr, lambda f: span("send.broadcast", f))
        self._patch(p.netsim.ScenarioConfig, "resolve_topology",
                    lambda f: span("topo.build", f))
        for attr in ("neighbors", "diameter", "connected_without", "is_connected"):
            self._patch(p.topology.Topology, attr, lambda f, a=attr: span("topo." + a, f))
        self._patch(p.avg_consensus, "build_trusted", self._build)
        self._patch(p.avg_consensus, "build_untrusted", self._build)
        self._patch(p.outlier_consensus, "build", self._build)
        self._patch(p.leader_election, "build", self._build)
        self._patch(p.avg_consensus, "prepare", lambda f: span("proto.prepare", f))
        self._patch(p.outlier_consensus, "prepare", lambda f: span("proto.prepare", f))
        self._patch(p.outlier_consensus, "combine_variance",
                    lambda f: span("proto.prepare", f))
        self._patch(p.avg_consensus, "on_receive", self._fold)
        self._patch(p.outlier_consensus, "on_receive_round3", self._fold)
        self._patch(p.leader_election, "on_receive_election", self._fold)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- ops ----------------------------------------------------------------

    def begin_op(self):
        self.counts = Counter()
        self._sims, self._audited = [], []
        self._stack = [0]
        self.spans = [["op", time.perf_counter(), 0.0, -1]]

    def end_op(self, label):
        """Close the op's root span and summarise the op's spans by layer."""
        spans = self.spans
        spans[0][2] = time.perf_counter()
        self.spans = None
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        selfs, calls, durs = Counter(), Counter(), Counter()
        prepare_calls, prepare_s = 0, 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            d = end - start
            selfs[_layer(name)] += d - child[i]
            calls[name] += 1
            durs[name] += d
            # A sanctioned prepare step is a `prepare`/`combine_variance`
            # call, or a bare `mark_prepared` made by a node callback (the
            # election's completeness check).
            if name == "proto.prepare" or \
                    name == "he.mark_prepared" and spans[parent][0] == "proto.cb":
                prepare_calls += 1
                prepare_s += d
        c = self.counts
        sims = self._sims
        self.ops.append({
            "op_s": spans[0][2] - spans[0][1], "self": selfs, "calls": calls,
            "durs": durs, "prepare_calls": prepare_calls, "prepare_s": prepare_s,
            "fold_attempts": c["fold_attempts"], "fold_merges": c["fold_merges"],
            "deliveries": sum(len(t.messages) for t in sims),
            "batches": sum(len({m[0] for m in t.messages}) for t in sims),
            "ledger_events": sum(len(t.backend.events()) for t in sims),
            "events_scanned": sum(len(t.backend.events()) + len(t.messages)
                                  for t in self._audited),
            "bytes_written": 0,     # set by the caller once the op is checked
        })
        self._sims, self._audited = [], []
        if len(self.kept) < self.keep:
            # one line per op: its spans as [name, start µs, end µs, parent
            # index], times from the op's start
            t0 = spans[0][1]
            rows = [[name, round((start - t0) * 1e6), round((end - t0) * 1e6), parent]
                    for name, start, end, parent in spans]
            self.kept.append(json.dumps({"op": label, "spans": rows}, separators=(",", ":")))

    def write_spans(self, path):
        """Write the kept spans, gzip-compressed, one JSON line per op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for line in self.kept:
                fh.write(line + "\n")

    # -- per-layer metrics --------------------------------------------------

    def metrics(self, overhead):
        ops = self.ops
        n = len(ops)
        total = sum(o["op_s"] for o in ops)

        def tot(key, sub=None):
            return sum(o[key][sub] if sub else o[key] for o in ops)

        def per_op(value):
            return value / n

        he = tot("self", "he_slots")
        proto = tot("self", "protocol")
        loop = tot("self", "netsim.loop")
        send = tot("self", "netsim.send")
        audit = tot("durs", "audit")
        front = tot("self", "front")
        deliveries = tot("deliveries")
        batches = tot("batches")
        attempts = tot("fold_attempts")
        m = {
            "he_slots.busy_s": (per_op(he), "s/op"),
            "he_slots.share": (he / total, "ratio"),
        }
        for op in HE_OPS:
            m["he_slots.calls." + op] = (per_op(tot("calls", "he." + op)), "count/op")
        m.update({
            "he_slots.ledger_events": (per_op(tot("ledger_events")), "count/op"),
            "protocol.self_s": (per_op(proto), "s/op"),
            "protocol.share": (proto / total, "ratio"),
            "protocol.fold_attempts": (per_op(attempts), "count/op"),
            "protocol.fold_merges": (per_op(tot("fold_merges")), "count/op"),
            "protocol.fold_useful_ratio": (tot("fold_merges") / attempts if attempts else 0.0,
                                           "ratio"),
            "protocol.prepare_calls": (per_op(tot("prepare_calls")), "count/op"),
            "protocol.prepare_s": (per_op(tot("prepare_s")), "s/op"),
            "netsim.loop_self_s": (per_op(loop), "s/op"),
            "netsim.share": ((loop + send) / total, "ratio"),
            "netsim.send_s": (per_op(send), "s/op"),
            "netsim.sends": (per_op(tot("calls", "send")), "count/op"),
            "netsim.deliveries": (per_op(deliveries), "count/op"),
            "netsim.batches": (per_op(batches), "count/op"),
            "netsim.msgs_per_batch": (deliveries / batches if batches else 0.0, "msgs/batch"),
            "netsim.sim_msgs_per_s": (deliveries / tot("durs", "sim.run"), "msgs/s"),
            "audit.s": (per_op(audit), "s/op"),
            "audit.share": (audit / total, "ratio"),
            "audit.events_scanned": (per_op(tot("events_scanned")), "count/op"),
            "topology.diameter_calls": (per_op(tot("calls", "topo.diameter")), "count/op"),
            "topology.diameter_s": (per_op(tot("durs", "topo.diameter")), "s/op"),
            "topology.connected_without_calls": (
                per_op(tot("calls", "topo.connected_without")), "count/op"),
            "topology.neighbors_calls": (per_op(tot("calls", "topo.neighbors")), "count/op"),
            "topology.build_s": (per_op(tot("durs", "topo.build")), "s/op"),
            "cli.self_s": (per_op(front), "s/op"),
            "cli.share": (front / total, "ratio"),
            "cli.bytes_written": (per_op(tot("bytes_written")), "B/op"),
            "trace.overhead": (overhead, "ratio"),
        })
        return m
