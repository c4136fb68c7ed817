"""Aggregate run records into one BENCH file and show each metric's spread.

    python3 bench/collect.py [--results DIR] [--out FILE] [--against BENCH.json]

Reads the records `run.py` wrote (default `.bench_out/results/`).  For every
workload and metric it reports the median of the runs (one per seed), the
quartiles as `statistics.quantiles(values, n=4)` gives them, and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.  With
`--out` it writes all of it, with the runs' stamps, to a JSON file.  With
`--against BENCH.json` it also prints how far each end-to-end median moved
from that earlier file's, as a share of it, flags moves for the worse beyond
the metric's bound, and counts ops (same kind and seed) whose report digest
differs from the earlier file's.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--results", default=str(ROOT / ".bench_out" / "results"))
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    runs = defaultdict(list)
    for path in sorted(Path(args.results).glob("*.json")):
        record = json.loads(path.read_text())
        runs[record["stamps"]["workload"], record["stamps"]["trace"]].append(record)
    if not runs:
        print(f"no run records in {args.results}", file=sys.stderr)
        return 1

    out = {"benchmark": spec, "workloads": {}}
    for (workload, trace), records in sorted(runs.items()):
        records.sort(key=lambda r: r["stamps"]["seed"])
        metrics = defaultdict(list)
        for r in records:
            for name, m in r["result"]["metrics"].items():
                metrics[name].append(m["value"])
        entry = out["workloads"].setdefault(workload, {})
        entry[f"trace{trace}"] = {
            "seeds": [r["stamps"]["seed"] for r in records],
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "all_correct": all(r["result"]["correct"] for r in records),
            "stamps": [r["stamps"] for r in records],
            "digests": {f"{op['kind']}/{op['seed']}": op["digest"]
                        for r in records for op in r["ops"]},
            "metrics": {name: dict(summary(values), unit=records[0]["result"]["metrics"][name]["unit"])
                        for name, values in metrics.items()},
        }
        print(f"{workload} trace={trace}: {len(records)} runs, "
              f"failed {entry[f'trace{trace}']['failed']}/{entry[f'trace{trace}']['attempted']} ops")
        before = earlier.get(workload, {}).get(f"trace{trace}", {}).get("digests", {})
        shared = [k for k in entry[f"trace{trace}"]["digests"] if k in before]
        if shared:
            differ = sum(entry[f"trace{trace}"]["digests"][k] != before[k] for k in shared)
            print(f"  report digests: {differ} of {len(shared)} shared ops differ from earlier")
        for name, s in entry[f"trace{trace}"]["metrics"].items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] is not None:
                flag = f" bound {bound}" + (" OVER 1/3" if s["spread"] > bound / 3 else "")
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:36s} median {s['median']:.6g} {s['unit']:10s} spread {spread}{flag}")
            base = earlier.get(workload, {}).get(f"trace{trace}", {}).get("metrics", {}).get(name)
            if base and bound is not None:
                moved = s["median"] / base["median"] - 1
                worse = moved if better[name] == "lower" else -moved
                print(f"  {'':36s} vs earlier {base['median']:.6g}: {moved:+.4f}"
                      + (" WORSE BEYOND BOUND" if worse > bound else ""))
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
