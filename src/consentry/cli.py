"""Command-line experiment runner: single scenarios and parameter sweeps.

`consentry run --config scenario.json [--seed N] [--out DIR]` executes the
configured protocol for the configured number of trials, writing
`report.json` (full per-trial reports) and `summary.csv`.  `consentry sweep`
replays a base scenario over a grid of topology families / sizes and writes
`sweep.csv` with per-cell aggregates, including the measured message-bound
constant K.  Exit codes: 0 clean, 2 bad input (a `ScenarioError` or a
`TopologyError`, an output path it cannot use included), 3 privacy violation
or unexpected termination, 4 internal fault (any other exception).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import netsim
from .avg_consensus import NON_VIABLE
from .netsim import ScenarioConfig, ScenarioError
from .topology import Topology, TopologyError

SUMMARY_COLUMNS = ["trial", "protocol", "n", "diameter", "decided", "rounds",
                   "messages", "privacy_violations", "termination"]
SWEEP_COLUMNS = ["family", "n", "trials", "diameter", "rounds_mean", "rounds_max",
                 "messages_mean", "messages_max", "K", "non_viable",
                 "privacy_violations"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ACCEPTANCE = 3
EXIT_INTERNAL = 4


def _out_dir(args) -> Path:
    out = Path(args.out or os.environ.get("CONSENTRY_OUT") or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot create output directory {out}: {exc.strerror}") from exc
    return out


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ScenarioError(f"cannot read config {path}: {exc}")
    if not isinstance(raw, dict):
        raise ScenarioError(f"config {path} must hold a JSON object, got {raw!r}")
    return raw


def _topology_beside(raw: dict, config: str) -> dict:
    """The config with a relative topology file path read relative to the
    config file's directory instead of the working directory."""
    topology = raw.get("topology")
    if not isinstance(topology, str) or os.path.isabs(topology):
        return raw
    return dict(raw, topology=os.path.join(os.path.dirname(config), topology))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _processes(per_actor: dict) -> list:
    """A per-actor report field's values for the processes (the int ids)."""
    return [v for k, v in per_actor.items() if isinstance(k, int)]


def _decided_summary(report: netsim.SimReport) -> str:
    if report.protocol == "avg-untrusted":
        items = sorted((int(k.split("/")[1]), v) for k, v in report.extra.items()
                       if k.startswith("initiator_result/"))
        return ";".join(f"{k}={_fmt(v)}" for k, v in items)
    return ";".join(sorted({_fmt(v) for v in _processes(report.decided_values)
                            if v is not None}))


def _run_trials(scenario: ScenarioConfig) -> list[tuple[Topology, netsim.SimReport]]:
    """Each trial's topology, resolved once, with the report of the run on it.

    numpy's overflow warnings are silenced: an overflowed payload fails the
    prepared-slot check as a `PreparedSlotsError`, and `main` reports that
    fault in one line."""
    trials = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(scenario.trials):
            topo = scenario.resolve_topology(t)
            report = netsim.run(dataclasses.replace(scenario, topology=topo), trial=t)
            trials.append((topo, report))
    return trials


def _write(path: Path, text: str, newline=None) -> None:
    try:
        path.write_text(text, newline=newline)
    except OSError as exc:
        raise ScenarioError(f"cannot write {path}: {exc.strerror}") from exc


def _write_csv(path: Path, rows: list) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _write(path, buf.getvalue(), newline="")


def cmd_run(args) -> int:
    raw = _load_config(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    scenario = ScenarioConfig.from_dict(_topology_beside(raw, args.config))
    out = _out_dir(args)
    expected = "decided" if scenario.expect_termination else "deadline-exceeded"
    trials, rows, ok = [], [], True
    for trial, (topo, r) in enumerate(_run_trials(scenario)):
        r.extra["diameter"] = topo.diameter()
        trials.append(r.as_dict())
        decided = _decided_summary(r)
        rounds = _processes(r.rounds_to_decide)
        rows.append([trial, r.protocol, r.n, r.extra["diameter"], decided,
                     max(rounds) if rounds else "", sum(_processes(r.messages_sent)),
                     len(r.privacy_violations), r.termination])
        print(f"trial {trial}: protocol={r.protocol} n={r.n} "
              f"decided={decided or '-'} termination={r.termination} "
              f"violations={len(r.privacy_violations)}")
        ok = ok and not r.privacy_violations and r.termination == expected
    payload = {"schema_version": 1, "scenario": raw, "trials": trials}
    _write(out / "report.json", netsim.report_json(payload))
    _write_csv(out / "summary.csv", [SUMMARY_COLUMNS] + rows)
    print(f"wrote {out / 'report.json'} and {out / 'summary.csv'}")
    return EXIT_OK if ok else EXIT_ACCEPTANCE


def _parse_vary(items) -> dict:
    grid = {}
    for item in items or []:
        if "=" not in item:
            raise ScenarioError(f"--vary expects KEY=v1,v2,..., got {item!r}")
        key, _, values = item.partition("=")
        if key in grid:
            raise ScenarioError(f"--vary {key} is given more than once; list its values once")
        parsed = []
        for token in filter(None, map(str.strip, values.split(","))):
            try:
                value = json.loads(token)
            except json.JSONDecodeError:
                value = token
            if value in parsed:
                raise ScenarioError(f"--vary {key} lists {token} more than once")
            parsed.append(value)
        if not parsed:
            raise ScenarioError(f"--vary {key} has no values")
        grid[key] = parsed
    if not grid:
        raise ScenarioError("sweep requires at least one --vary KEY=v1,v2,...")
    return grid


def _cell_scenario(base: dict, assignment: dict) -> ScenarioConfig:
    """The base config with one grid cell's values assigned; the topology
    keys `family`, `n` and `p` go into the base's topology object."""
    raw = json.loads(json.dumps(base))
    for key, value in assignment.items():
        if key in ("family", "n", "p"):
            if not isinstance(raw.get("topology"), dict):
                raise ScenarioError(f"--vary {key} needs a topology object in the "
                                    f"base config, got {raw.get('topology')!r}")
            raw["topology"][key] = value
        else:
            raw[key] = value
    return ScenarioConfig.from_dict(raw)


def cmd_sweep(args) -> int:
    base = _topology_beside(_load_config(args.config), args.config)
    grid = _parse_vary(args.vary)
    keys = sorted(grid)
    out = _out_dir(args)
    rows, worst_k, any_violation = [], 0.0, False
    for combo in itertools.product(*(grid[k] for k in keys)):
        assignment = dict(zip(keys, combo))
        scenario = _cell_scenario(base, assignment)
        rounds, msgs, k_cell, violations, non_viable = [], [], 0.0, 0, 0
        trials = _run_trials(scenario)
        diameter_max = 0
        for topo, report in trials:
            diameter = topo.diameter()
            diameter_max = max(diameter_max, diameter)
            for pid, count in report.messages_sent.items():
                if not isinstance(pid, int) or topo.degree(pid) == 0:
                    continue
                k_cell = max(k_cell, count / (diameter * topo.degree(pid)))
            rounds.extend(_processes(report.rounds_to_decide))
            msgs.extend(_processes(report.messages_sent))
            violations += len(report.privacy_violations)
            non_viable += sum(1 for k, v in report.extra.items()
                              if k.startswith("initiator_result/") and v == NON_VIABLE)
        worst_k = max(worst_k, k_cell)
        any_violation = any_violation or violations > 0
        topology = scenario.topology
        family = topology.get("family", "") if isinstance(topology, dict) else ""
        rows.append([family, trials[0][0].n, scenario.trials, diameter_max,
                     f"{sum(rounds) / len(rounds):.3f}" if rounds else "",
                     max(rounds) if rounds else "",
                     f"{sum(msgs) / len(msgs):.3f}" if msgs else "",
                     max(msgs) if msgs else "",
                     f"{k_cell:.4f}", non_viable, violations])
    _write_csv(out / "sweep.csv", [SWEEP_COLUMNS] + rows)
    print(f"swept {len(rows)} cells; worst-case K = {worst_k:.4f}")
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_ACCEPTANCE if any_violation else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consentry",
        description="Privacy-preserving consensus and leader-election simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep a scenario over a grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--vary", action="append", metavar="KEY=v1,v2,...")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, TopologyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
