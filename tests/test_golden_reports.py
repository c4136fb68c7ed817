"""Byte-exact reports pinned against golden files in `tests/golden/`.

Every case reproduces one output (a CLI `report.json`, `summary.csv` or
`sweep.csv`, or a `netsim.run` report's JSON) and compares it byte for byte
with its golden file, so a refactor that changes the order of engine calls,
sends or latency draws shows up here.  After a change that alters reports on
purpose, re-capture with

    PYTHONPATH=src python tests/test_golden_reports.py [NAME ...]

which writes the named golden files, or every one when no name is given,
prints for each whether its parsed JSON changed or only its bytes did, and
say in CHANGES.md why the bytes moved.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from consentry import netsim
from consentry.cli import main
from consentry.netsim import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

G16 = {"family": "random", "n": 16, "p": 0.4}
UNIFORM = {"random_uniform": [-100, 100]}
PROTOCOLS = {
    "avg-trusted": {},
    "avg-untrusted": {},
    "outlier-decrypt": {"protocol": "outlier", "c": 1.0},
    "outlier-encrypted": {"protocol": "outlier", "c": 1.0,
                          "variance_route": "encrypted"},
}


def _ring(n):
    return {"n": n, "edges": [[i, (i + 1) % n] for i in range(n)]}


def _ballots(n, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        primary = rng.randrange(n)
        secondary = rng.choice([s for s in range(n) if s != primary] + [None])
        out.append({"primary": primary, "secondary": secondary})
    return out


def _netsim_cases():
    cases = {}
    for name, fields in PROTOCOLS.items():
        for schedule in ("sync", "async"):
            for eps in (0.0, 1e-9):
                raw = dict({"protocol": name}, topology=G16, inputs=UNIFORM,
                           seed=5, schedule=schedule, noise_epsilon=eps)
                raw.update(fields)
                cases[f"{name}-g16-{schedule}-eps{eps:g}"] = raw
    cases["avg-trusted-g16-crash"] = dict(
        protocol="avg-trusted", topology=G16, inputs=UNIFORM, seed=6,
        faults=[{"process": 3, "time": 2}])
    cases["outlier-decrypt-g16-crash"] = dict(
        protocol="outlier", c=1.0, topology=G16, inputs=UNIFORM, seed=6,
        faults=[{"process": 3, "time": 1}])
    # the first crash lands while round 1 is active, the second while round 3
    # has started at some processes and not yet at others
    cases["outlier-encrypted-g16-async-crashes"] = dict(
        protocol="outlier", c=1.0, variance_route="encrypted", topology=G16,
        inputs=UNIFORM, seed=7, schedule="async", noise_epsilon=1e-9,
        faults=[{"process": 3, "time": 2}, {"process": 9, "time": 14}])
    cases["avg-untrusted-path5-initiators"] = dict(
        protocol="avg-untrusted", inputs=[3.0, -1.5, 8.0, 0.25, 4.0], seed=2,
        topology={"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
        initiators=[0, 2, 4])
    # duplicate counts pass 2**53 on a 96-ring, so the order in which folds
    # add counts shows in the decided bytes
    cases["avg-trusted-ring96-sync"] = dict(
        protocol="avg-trusted", topology=_ring(96), inputs=UNIFORM, seed=5)
    # slots 24..31 are padding on a flooding protocol
    cases["outlier-encrypted-g24-async"] = dict(
        protocol="outlier", c=1.0, variance_route="encrypted",
        topology={"family": "random", "n": 24, "p": 0.4}, inputs=UNIFORM,
        seed=5, schedule="async")
    # sync batches of tens of two-channel messages pin the order of round 3's
    # noise draws across a batch
    cases["outlier-encrypted-g48-sync-eps1e-09"] = dict(
        protocol="outlier", c=1.0, variance_route="encrypted",
        topology={"family": "random", "n": 48, "p": 0.4}, inputs=UNIFORM,
        seed=5, noise_epsilon=1e-9)
    for schedule in ("sync", "async"):
        cases[f"election-ring8-{schedule}"] = dict(
            protocol="election", topology=_ring(8), inputs=_ballots(8, 8),
            seed=4, schedule=schedule)
    # lineages on a dense graph, completing without a crashed contributor
    cases["election-g16-async-crash"] = dict(
        protocol="election", topology=G16, inputs=_ballots(16, 16), seed=5,
        schedule="async", noise_epsilon=1e-9, faults=[{"process": 3, "time": 1}])
    # every noisy encryption draws from one stream, so a copy's ballot
    # encrypted or not shifts every later draw; the tallies must not move
    cases["election-g16-sync-eps1e-09"] = dict(
        protocol="election", topology=G16, inputs=_ballots(16, 16), seed=5,
        schedule="sync", noise_epsilon=1e-9)
    return cases


NETSIM_CASES = _netsim_cases()


def _netsim_output(name):
    def produce(tmp):
        scenario = ScenarioConfig.from_dict(NETSIM_CASES[name])
        return (netsim.run(scenario).to_json() + "\n").encode()
    return produce


def _cli_output(command, args, filename):
    def produce(tmp):
        main([command, *args, "--out", str(tmp)])
        return (Path(tmp) / filename).read_bytes()
    return produce


def _cases():
    """Golden file name -> function of a scratch directory giving its bytes."""
    cases = {}
    for stem in sorted(p.stem for p in CONFIGS.glob("*.json")):
        for filename in ("report.json", "summary.csv"):
            cases[f"cli-run-{stem}-{filename}"] = _cli_output(
                "run", ["--config", str(CONFIGS / f"{stem}.json")], filename)
    cases["cli-sweep-sweep_base-sweep.csv"] = _cli_output(
        "sweep", ["--config", str(CONFIGS / "sweep_base.json"),
                  "--vary", "family=ring,tree,random", "--vary", "n=8,16"],
        "sweep.csv")
    for name in NETSIM_CASES:
        cases[f"netsim-{name}.json"] = _netsim_output(name)
    return cases


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path, capsys):
    assert CASES[name](tmp_path) == (GOLDEN / name).read_bytes()


def receipt(old: bytes | None, new: bytes) -> str:
    """How a golden file's bytes `new` differ from its bytes `old`."""
    if old is None:
        return "new file"
    if old == new:
        return "unchanged"
    try:
        same = json.loads(old) == json.loads(new)
    except ValueError:
        return "bytes changed (not JSON)"
    return "bytes changed, parsed JSON equal" if same else "parsed JSON changed"


def test_a_receipt_tells_a_reordering_from_a_change():
    old = b'{"b": 1, "a": [2]}'
    assert receipt(None, old) == "new file"
    assert receipt(old, old) == "unchanged"
    assert receipt(old, b'{"a": [2], "b": 1}') == "bytes changed, parsed JSON equal"
    assert receipt(old, b'{"a": [2], "b": 2}') == "parsed JSON changed"
    assert receipt(b"x,y\r\n", b"x,z\r\n") == "bytes changed (not JSON)"


def test_every_golden_file_has_a_case():
    # matrix.json and corpus.json hold the digests `test_golden_matrix.py`
    # and `test_golden_corpus.py` check
    assert sorted(p.name for p in GOLDEN.iterdir()) == \
        sorted([*CASES, "matrix.json", "corpus.json"])


if __name__ == "__main__":
    import contextlib
    import tempfile

    names = sys.argv[1:] or sorted(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(sys.stderr):
            data = CASES[name](tmp)
        path = GOLDEN / name
        old = path.read_bytes() if path.exists() else None
        path.write_bytes(data)
        print(f"wrote {GOLDEN.name}/{name}: {receipt(old, data)}", file=sys.stderr)
