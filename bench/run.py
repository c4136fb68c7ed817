"""consentry benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload flood-dense --seed 1 --seconds 27 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  The benchmark makes every input from `--seed`, runs ops one after
another in this process (the next op starts when the previous one returns),
and checks every op against the plaintext oracles in `oracles.py`.  A run
does a fixed number of whole cycles of op kinds, as many as take about
`--seconds` on the host the benchmark was written on (see `CYCLE_S`), so two
runs of a seed attempt the same ops.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs each cycle
twice on the same seeds, untraced and then traced, and prints the per-layer
metrics from the traced copies plus `trace.overhead` (the median over ops
of traced over untraced op time).  The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.  A record of the run
(stamps, every op with its report digest, the metrics) is written under
`.bench_out/results/`, traced spans under `.bench_out/spans/`.
"""

import argparse
import contextlib
import hashlib
import heapq
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
import types
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import numpy  # noqa: E402
import oracles  # noqa: E402

TOL = 1e-9
clock = time.perf_counter

#: full sizes; `selftest.py` runs the same workloads at tiny ones
SIZES = {
    "flood-dense": {"n": 128, "p": 0.4},
    "election-ring": {"n": 24},
    "cli-untrusted": {"ring_n": 32, "random_n": 32, "p": 0.4, "sweep_n": (16, 32, 64)},
}
FLOOD_KINDS = ("avg-trusted", "outlier-decrypt", "outlier-encrypted")
CLI_KINDS = ("run-ring-async", "run-random-sync", "sweep")
KINDS = {"flood-dense": FLOOD_KINDS, "election-ring": ("election",),
         "cli-untrusted": CLI_KINDS}
OUTLIER_C = 2.0
SWEEP_FAMILIES = ("ring", "tree", "random")
SETUP_REPEATS = 3

#: Wall seconds one cycle of a workload takes, the benchmark's own checks and
#: kernels included, on the 2-core host the benchmark was written on.  A run
#: does floor(seconds / CYCLE_S) cycles, at least one, and a traced run
#: TRACED_CYCLE_COST times fewer, since it runs each cycle untraced and then
#: traced.  The work of a run is fixed by its arguments, not by the clock: two
#: runs of a seed attempt the same ops, and fail the same ones.
CYCLE_S = {"flood-dense": 6.6, "election-ring": 4.1, "cli-untrusted": 4.0}
TRACED_CYCLE_COST = 2.4

#: Times are reported in reference seconds: wall seconds scaled by
#: KERNEL_REF_S / (time of `kernel()` measured around the op).  On a shared
#: host the speed of this interpreter drifts by up to 1.65x over minutes as
#: other tenants come and go, and the kernel slows with it.  Across runs the
#: spread of median op times drops from 12-24 % in wall time to 5-12 %
#: scaled.  Wall times are printed and recorded too.
KERNEL_REF_S = 0.1

netsim = cli = avg_consensus = outlier_consensus = leader_election = None


def import_package():
    """Import consentry from this checkout's `src/`, and nothing else.

    Returns the package's modules as a namespace, for the tracer to patch."""
    global netsim, cli, avg_consensus, outlier_consensus, leader_election
    src = ROOT / "src"
    if not (src / "consentry" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {src / 'consentry'}")
    sys.path.insert(0, str(src))
    import consentry
    from consentry import (avg_consensus, cli, leader_election, netsim,
                           outlier_consensus, topology)
    if Path(consentry.__file__).resolve().parent != src / "consentry":
        raise SystemExit(f"bench: consentry imported from {consentry.__file__}, not {src}")
    return types.SimpleNamespace(
        netsim=netsim, cli=cli, topology=topology, avg_consensus=avg_consensus,
        outlier_consensus=outlier_consensus, leader_election=leader_election)


def kernel():
    """Seconds taken by a fixed mix of the interpreter work the package does:
    tuples built from generators, dict stores, heap pushes, numpy adds, and
    a burst of allocation like an op's message bookkeeping."""
    t0 = clock()
    vector = numpy.zeros(1024)
    table, heap = {}, []
    for i in range(8000):
        table[i % 257] = tuple(int(x) for x in range(i % 97))
        heapq.heappush(heap, (i * 7919 % 1000, i))
        if i % 8 == 0:
            vector = vector + 1.0
    while heap:
        heapq.heappop(heap)
    burst = [tuple(range(i % 50, i % 50 + 20)) for i in range(30000)]
    del burst
    return clock() - t0


# -- scenario steps --------------------------------------------------------

def set_up(raw):
    """Config to a ready Simulation through the public steps `netsim.run` takes."""
    scenario = netsim.ScenarioConfig.from_dict(raw)
    topo = scenario.resolve_topology()
    seed = scenario.seed
    if scenario.protocol == "election":
        setup = leader_election.build(topo, scenario.inputs, seed=seed,
                                      noise_epsilon=scenario.noise_epsilon)
    else:
        inputs = scenario.resolve_inputs(topo)
        if scenario.protocol == "avg-trusted":
            setup = avg_consensus.build_trusted(topo, inputs, seed=seed,
                                                noise_epsilon=scenario.noise_epsilon)
        elif scenario.protocol == "avg-untrusted":
            setup = avg_consensus.build_untrusted(topo, inputs, scenario.initiators,
                                                  seed=seed,
                                                  noise_epsilon=scenario.noise_epsilon)
        else:
            setup = outlier_consensus.build(topo, inputs, scenario.c,
                                            variance_route=scenario.variance_route,
                                            seed=seed,
                                            noise_epsilon=scenario.noise_epsilon)
    policy = netsim.SchedulePolicy(scenario.schedule, seed * 7919 + 13,
                                   scenario.max_latency)
    return scenario, netsim.Simulation(topo, setup, policy, faults=scenario.faults)


def simulate(raw):
    """One trial (trial 0) in process; returns (setup seconds, SimReport)."""
    t0 = clock()
    scenario, sim = set_up(raw)
    setup_s = clock() - t0
    report, trace = sim.run()
    report.protocol = scenario.protocol
    report.seed = scenario.seed
    report.privacy_violations = [v.as_dict() for v in netsim.privacy_audit(trace)]
    return setup_s, report


# -- checks ------------------------------------------------------------------

def decided(report):
    """The values the run decided, by actor; the oracle checks read them here."""
    return report.decided_values


def _off(got, want):
    return not isinstance(got, (int, float)) or isinstance(got, bool) or \
        abs(got - want) > TOL * max(1.0, abs(want))


def check_report(report, want, deciders, initiators=None):
    """Problems with one trial, or [] if it decided `want` everywhere.

    `initiators` maps each avg-untrusted initiator to its expected result
    (the mean, or "non-viable" for a cut vertex).  A report that is right in
    every value but says `deadline-exceeded` gets the single problem
    "false-deadline".
    """
    problems = [f"privacy violation: {v['rule']}" for v in report.privacy_violations]
    values = decided(report)
    for pid in deciders:
        if pid not in values:
            problems.append(f"{pid} undecided")
        elif (values[pid] != want) if isinstance(want, int) else _off(values[pid], want):
            problems.append(f"{pid} decided {values[pid]!r}, oracle {want!r}")
    for k, expect in (initiators or {}).items():
        got = report.extra.get(f"initiator_result/{k}")
        if (got != expect) if isinstance(expect, str) else _off(got, expect):
            problems.append(f"initiator {k} result {got!r}, oracle {expect!r}")
    if not problems and report.termination != "decided":
        problems.append("false-deadline")
    return problems


def untrusted_oracle(inputs, edges):
    n = len(inputs)
    mean = oracles.mean(inputs)
    cut = oracles.cut_vertices(n, edges)
    return mean, {k: "non-viable" if k in cut else mean for k in range(n)}


# -- ops -----------------------------------------------------------------------

class SimOp:
    """One in-process trial: `run()` is timed, `prepare()` and `check()` are not."""

    def __init__(self, kind, seed, sizes, workdir):
        self.kind, self.seed, self.sizes = kind, seed, sizes
        self.setup_s = None
        self.bytes_written = 0

    def prepare(self):
        rng = random.Random(self.seed)
        n = self.sizes["n"]
        self.deciders = list(range(n)) + [netsim.TRUSTED]
        if self.kind == "election":
            ballots = []
            for _ in range(n):
                primary = rng.randrange(n)
                if rng.random() < 1 / 3:
                    ballots.append((primary, None))
                else:
                    secondary = rng.randrange(n - 1)
                    ballots.append((primary, secondary + (secondary >= primary)))
            self.want = oracles.irv_winner(ballots, n)
            self.raw = {"protocol": "election", "topology": {"family": "ring", "n": n},
                        "inputs": [{"primary": p, "secondary": s} for p, s in ballots],
                        "seed": self.seed}
            return
        values = [rng.uniform(0.0, 100.0) for _ in range(n)]
        for i in rng.sample(range(n), max(1, n // 20)):
            values[i] += rng.choice((-1.0, 1.0)) * rng.uniform(500.0, 1000.0)
        raw = {"topology": {"family": "random", "n": n, "p": self.sizes["p"]},
               "inputs": values, "seed": self.seed}
        if self.kind == "avg-trusted":
            self.want = oracles.mean(values)
            self.raw = dict(raw, protocol="avg-trusted")
        else:
            self.want = oracles.outlier_filtered_mean(values, OUTLIER_C)
            self.raw = dict(raw, protocol="outlier", c=OUTLIER_C,
                            variance_route=self.kind.split("-")[1])

    def run(self):
        self.setup_s, self.report = simulate(self.raw)
        self.text = self.report.to_json()
        self.bytes_written = len(self.text)

    def check(self):
        """(report digest, problems) for the finished op."""
        problems = check_report(self.report, self.want, self.deciders)
        return hashlib.sha256(self.text.encode()).hexdigest(), problems


class CliOp:
    """One `cli.main` invocation: `run()` is timed, `prepare()` and `check()`
    are not.  Every SimReport `netsim.run` returns under it is captured,
    because `sweep` exits 0 even when a cell misses its deadline."""

    def __init__(self, kind, seed, sizes, workdir):
        self.kind, self.seed, self.sizes = kind, seed, sizes
        self.config = workdir / f"{kind}.json"
        self.out = workdir / "out"
        self.setup_s = None
        self.bytes_written = 0

    def prepare(self):
        rng = random.Random(self.seed)
        s = self.sizes
        self.out.mkdir(parents=True, exist_ok=True)
        for f in self.out.iterdir():
            f.unlink()
        if self.kind == "sweep":
            raw = {"protocol": "avg-trusted", "topology": {"family": "ring", "n": 4},
                   "inputs": {"random_uniform": [-1000, 1000]}, "seed": self.seed}
            self.argv = ["sweep", "--config", str(self.config),
                         "--vary", "family=" + ",".join(SWEEP_FAMILIES),
                         "--vary", "n=" + ",".join(map(str, s["sweep_n"])),
                         "--out", str(self.out)]
            self.cells = [dict(raw, topology={"family": f, "n": n})
                          for f in SWEEP_FAMILIES for n in s["sweep_n"]]
        else:
            if self.kind == "run-ring-async":
                n = s["ring_n"]
                edges = oracles.ring_edges(n)
                topo = {"family": "ring", "n": n}
                extra = {"schedule": "async", "max_latency": 4}
            else:
                n = s["random_n"]
                edges = oracles.connected_gnp(n, s["p"], rng)
                topo = {"n": n, "edges": [list(e) for e in edges]}
                extra = {}
            inputs = [rng.uniform(-1000.0, 1000.0) for _ in range(n)]
            self.want, self.initiators = untrusted_oracle(inputs, edges)
            self.deciders = list(range(n))
            raw = dict({"protocol": "avg-untrusted", "topology": topo,
                        "inputs": inputs, "seed": self.seed}, **extra)
            self.argv = ["run", "--config", str(self.config), "--out", str(self.out)]
            self.cells = [raw]
        self.config.write_text(json.dumps(raw))

    def run(self):
        captured = []
        inner = netsim.run

        def capture(scenario, trial=0):
            report = inner(scenario, trial)
            captured.append(report)
            return report
        netsim.run = capture
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
                self.rc = cli.main(self.argv)
        finally:
            netsim.run = inner
        self.reports = captured
        self.stdout = stdout.getvalue()

    def check(self):
        """(digest of the reports and files written, problems) for the finished op."""
        files = sorted(self.out.iterdir())
        self.bytes_written = len(self.stdout.encode()) + sum(f.stat().st_size for f in files)
        digest = hashlib.sha256()
        problems = []
        if self.kind == "sweep":
            for report in self.reports:
                digest.update(report.to_json().encode())
                inputs = oracles.uniform_inputs(report.seed, report.n, -1000, 1000)
                problems += check_report(report, oracles.mean(inputs),
                                         list(range(report.n)) + [netsim.TRUSTED])
            if len(self.reports) != len(self.cells):
                problems.append(f"{len(self.reports)} trials for {len(self.cells)} cells")
        else:
            for report in self.reports:
                problems += check_report(report, self.want, self.deciders, self.initiators)
            if len(self.reports) != 1:
                problems.append(f"{len(self.reports)} trials, expected 1")
        for f in files:
            digest.update(f.read_bytes())
        expected_rc = 3 if problems == ["false-deadline"] and self.kind != "sweep" else 0
        if self.rc != expected_rc:
            problems.append(f"exit code {self.rc}, expected {expected_rc}")
        return digest.hexdigest(), problems


def make_op(workload, index, seed, sizes, workdir):
    kinds = KINDS[workload]
    op = CliOp if workload == "cli-untrusted" else SimOp
    return op(kinds[index % len(kinds)], seed * 1000 + index, sizes, workdir)


def cli_setup_seconds(seed, sizes, workdir):
    """Median time from config to a ready Simulation over the scenarios of
    one cli-untrusted cycle, each set up SETUP_REPEATS times; returns
    (wall seconds, reference seconds)."""
    raws = []
    for i in range(len(CLI_KINDS)):
        op = make_op("cli-untrusted", i, seed, sizes, workdir)
        op.prepare()
        raws += op.cells
    times = []
    before = kernel()
    for _ in range(SETUP_REPEATS):
        for raw in raws:
            t0 = clock()
            set_up(raw)
            times.append(clock() - t0)
    wall = statistics.median(times)
    return wall, wall * KERNEL_REF_S / ((before + kernel()) / 2)


# -- measurement ---------------------------------------------------------------

class Run:
    def __init__(self, workload, seed, sizes, digests):
        self.workload, self.seed, self.sizes = workload, seed, sizes
        self.workdir = OUT / "work" / workload
        self.records = []
        self.last_kernel = None   # kernel seconds measured after the last op
        self.digests = digests    # "kind/seed/sizes" -> report digest of earlier repeats

    def execute(self, op, tracer=None, traced=False):
        op.prepare()
        key = f"{op.kind}/{op.seed}/{json.dumps(op.sizes, sort_keys=True)}"
        before = self.last_kernel or kernel()
        if traced:
            tracer.begin_op()
        t0 = clock()
        error = None
        try:
            op.run()
        except Exception:      # an op that raises is a failed op
            error = traceback.format_exc()
        op_s = clock() - t0
        if traced:
            tracer.end_op(key)
        self.last_kernel = kernel()
        scale = KERNEL_REF_S / ((before + self.last_kernel) / 2)
        if error is None:
            digest, problems = op.check()
        else:
            digest, problems = None, [error]
        if traced:
            tracer.ops[-1]["bytes_written"] = op.bytes_written
        if digest is not None:
            if self.digests.setdefault(key, digest) != digest:
                problems.append("report digest differs from an earlier repeat")
        record = {"kind": op.kind, "seed": op.seed, "traced": traced,
                  "wall_op_s": op_s, "wall_setup_s": op.setup_s, "scale": scale,
                  "op_s": op_s * scale,
                  "setup_s": None if op.setup_s is None else op.setup_s * scale,
                  "digest": digest, "problems": problems}
        self.records.append(record)
        return record

    def identity_check(self):
        """Run one op's scenario in process and through `netsim.run`, and
        count the op failed unless the two report JSONs are byte-identical."""
        op = make_op(self.workload, self.seed % len(KINDS[self.workload]),
                     self.seed, self.sizes, self.workdir)
        record = self.execute(op)
        if record["digest"] is not None:
            reference = netsim.run(netsim.ScenarioConfig.from_dict(op.raw)).to_json()
            if reference != op.text:
                record["problems"].append("report differs from netsim.run's")
        record["identity_check"] = True
        self.last_kernel = None

    def loop(self, cycles, tracer=None):
        """Closed loop over `cycles` whole cycles of the workload's op kinds.

        With a tracer each cycle runs untraced and then traced on the same
        seeds; the traced copies are left out of the timing lists."""
        cycle = len(KINDS[self.workload])
        ops = []
        start = clock()
        i = 0
        while i < cycles * cycle:
            batch = [make_op(self.workload, i + j, self.seed, self.sizes, self.workdir)
                     for j in range(cycle)]
            ops += [self.execute(op) for op in batch]
            if tracer is not None:
                tracer.install()
                try:
                    for j in range(cycle):
                        self.execute(make_op(self.workload, i + j, self.seed,
                                             self.sizes, self.workdir),
                                     tracer, traced=True)
                finally:
                    tracer.uninstall()
            i += cycle
        return ops, clock() - start


class DigestStore:
    """Report digests of every op run in this checkout, per package source,
    so that a repeat of a seed in a later run is compared too."""

    def __init__(self, path, source):
        self.path = path
        try:
            self.all = json.loads(path.read_text())
        except (OSError, ValueError):
            self.all = {}
        self.digests = self.all.setdefault(source, {})

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.all))
        os.replace(tmp, self.path)


def median_by_kind(records, key):
    """The median of `key` over the ops of each kind, averaged over kinds.

    Every run holds whole cycles, so each kind has as many ops; a plain
    median of a mixed cycle would sit wherever the fast and slow kinds meet
    and move with the op count."""
    kinds = sorted({r["kind"] for r in records})
    return statistics.mean(statistics.median(r[key] for r in records if r["kind"] == k)
                           for k in kinds)


def tail(values):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it, or the minimum when there are too few."""
    xs = sorted(values)
    k = max(1, len(xs) - 10)
    return xs[k - 1], 100.0 * k / len(xs), len(xs) - k


def git_revision():
    """HEAD's commit id read from `.git`, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "consentry").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamps(args):
    return {
        "git_revision": git_revision(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "loadavg_at_start": list(os.getloadavg()),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started_utc": datetime.now(timezone.utc).isoformat(),
    }


def measure(pkg, workload, seed, seconds, trace, sizes=None):
    """Run one workload; returns (records, metrics {name: (value, unit)}, notes)."""
    sizes = sizes or SIZES[workload]
    store = DigestStore(OUT / "digests.json", source_digest())
    run = Run(workload, seed, sizes, store.digests)
    run.workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer(pkg, sys.modules[__name__])
        tracer.keep = len(KINDS[workload])
    if trace and workload != "cli-untrusted":
        run.identity_check()
    elif workload == "cli-untrusted" and not trace:
        wall_setup_s, setup_s = cli_setup_seconds(seed, sizes, run.workdir)
    cost = CYCLE_S[workload] * (TRACED_CYCLE_COST if trace else 1)
    ops, elapsed = run.loop(max(1, int(seconds / cost)), tracer)
    store.save()
    op_times = [r["op_s"] for r in ops]
    notes = {"ops": len(ops), "window_s": elapsed}
    if tracer is not None:
        untraced = {(r["kind"], r["seed"]): r["op_s"] for r in ops}
        overhead = statistics.median(r["op_s"] / untraced[r["kind"], r["seed"]]
                                     for r in run.records if r["traced"])
        metrics = tracer.metrics(overhead)
        tracer.write_spans(OUT / "spans" / f"{workload}-seed{seed}.jsonl.gz")
        return run.records, metrics, notes
    if workload != "cli-untrusted":
        setup_s = statistics.median(r["setup_s"] for r in ops)
        wall_setup_s = statistics.median(r["wall_setup_s"] for r in ops)
    wall_times = [r["wall_op_s"] for r in ops]
    notes.update(tail=tail(op_times),
                 host_scale_median=statistics.median(r["scale"] for r in ops),
                 wall={"op_s.p50": median_by_kind(ops, "wall_op_s"),
                       "op_s.tail": tail(wall_times)[0],
                       "ops_per_s": len(ops) / sum(wall_times),
                       "setup_s": wall_setup_s})
    metrics = {
        "op_s.p50": (median_by_kind(ops, "op_s"), "s"),
        "ops_per_s": (len(ops) / sum(op_times), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return run.records, metrics, notes


def summarise(records, metrics, notes):
    """Human-readable lines and the result object for the last line."""
    failed = [r for r in records if r["problems"]]
    known = {"false-deadline"}
    correct = all(set(r["problems"]) <= known for r in failed)
    lines = [f"{name} = {value!r} {unit}" for name, (value, unit) in metrics.items()]
    if "tail" in notes:
        # Printed but not in the result line: with ops of seconds a run has
        # about ten of them, so this is rarely a tail and spreads too widely
        # between runs to carry a bound.
        value, pct, beyond = notes["tail"]
        lines.append(f"op_s.tail = {value!r} s (p{pct:.1f} of {notes['ops']} ops, "
                     f"{beyond} beyond it)")
        lines.append(f"  times are in reference seconds; median scale from wall time "
                     f"{notes['host_scale_median']!r}; in wall time: "
                     + ", ".join(f"{k} = {v!r}" for k, v in notes["wall"].items()))
    lines.append(f"fail_ratio = {len(failed) / len(records)!r} ({len(failed)}/{len(records)})")
    for r in failed:
        lines.append(f"  failed {r['kind']} seed={r['seed']}: {'; '.join(r['problems'])}")
    result = {"correct": correct, "attempted": len(records), "failed": len(failed),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(KINDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = import_package()
    stamp = stamps(args)
    records, metrics, notes = measure(pkg, args.workload, args.seed, args.seconds,
                                      args.trace)
    lines, result = summarise(records, metrics, notes)
    record_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps({"stamps": stamp, "notes": notes, "result": result,
                                       "ops": records}, indent=1))
    print(" ".join(f"{k}={v}" for k, v in stamp.items()))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
