"""Self-test of the benchmark: every workload once at a tiny size.

    python3 bench/selftest.py

For each workload it checks that a run with tracing off prints every
end-to-end metric of BENCHMARK.json with its unit (and the ungated
`op_s.tail` and `fail_ratio`), that a traced run prints
every per-layer metric with its unit, and that an op whose decided values
are perturbed before the oracle check is counted as failed.  Exits 0 when
all checks pass.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY = {
    "flood-dense": {"n": 12, "p": 0.4},
    "election-ring": {"n": 5},
    "cli-untrusted": {"ring_n": 6, "random_n": 8, "p": 0.4, "sweep_n": (4, 6)},
}


def declared(section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def printed_metrics(pkg, workload, trace):
    """Metric name -> unit as the printed result line reports them."""
    records, metrics, notes = run.measure(pkg, workload, seed=1, seconds=0, trace=trace,
                                          sizes=TINY[workload])
    lines, result = run.summarise(records, metrics, notes)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        print("\n".join(lines))
        print(json.dumps(result))
    last = json.loads(out.getvalue().splitlines()[-1])
    printed = list(metrics) + (["op_s.tail", "fail_ratio"] if not trace else [])
    missing = [name for name in printed
               if not any(line.startswith(f"{name} = ") for line in lines)]
    if missing:
        raise AssertionError(f"{workload}: no printed line for {missing}")
    return last, {name: m["unit"] for name, m in last["metrics"].items()}


def perturbed_failures(pkg, workload):
    """Failed and attempted ops of a run whose first checked op sees every
    decided value off by one."""
    original = run.decided
    calls = []

    def perturbed(report):
        values = original(report)
        calls.append(1)
        if len(calls) > 1:
            return values
        return {pid: (v + 1 if isinstance(v, (int, float)) else v)
                for pid, v in values.items()}
    run.decided = perturbed
    try:
        records, metrics, notes = run.measure(pkg, workload, seed=2, seconds=0, trace=0,
                                              sizes=TINY[workload])
    finally:
        run.decided = original
    _, result = run.summarise(records, metrics, notes)
    return result


def main():
    pkg = run.import_package()
    failures = []
    for workload in TINY:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, units = printed_metrics(pkg, workload, trace)
            want = declared(section)
            if units != want:
                failures.append(f"{workload} trace={trace}: printed {units}, declared {want}")
            if not result["correct"]:
                failures.append(f"{workload} trace={trace}: unperturbed run incorrect: {result}")
        result = perturbed_failures(pkg, workload)
        if result["failed"] < 1 or result["correct"]:
            failures.append(f"{workload}: perturbed op not counted as failed: {result}")
        print(f"{workload}: ok" if not failures else f"{workload}: {failures}")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
