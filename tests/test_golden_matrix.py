"""One SHA-256 per cell of a differential matrix of `netsim.run` reports.

The matrix crosses the five protocol variants with ring, path, star,
complete and G(8, 0.5) at n = 8, both schedules, noise 0 and 1e-9, and no
crash or process 5 crashing at t = 2.  `tests/golden/matrix.json` holds each
cell's receipt: the SHA-256 of its report JSON, and a 16-hex digest of each
top-level report field and of each `extra` key (named `extra.<key>`), so a
refactor that must keep reports byte-identical is checked over all 200
cells, and the test names every cell whose bytes moved with the fields that
moved in it.  After a change that alters reports on purpose, re-capture in a
commit of its own with

    PYTHONPATH=src python tests/test_golden_matrix.py

which prints, by protocol variant, how many cells moved and how many of them
moved in each field; put that summary in CHANGES.md and say why it moved.

The same cells check agreement: every process and collector that decides
in a cell decides the same bits.  avg-untrusted does not yet (ROADMAP
item 9), so its 40 cells are one strict expected failure.  Each cell runs
once per session; the digest and agreement tests share its report.
"""

import functools
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from consentry import netsim
from consentry.netsim import ScenarioConfig

MATRIX = Path(__file__).resolve().parent / "golden" / "matrix.json"

N = 8
VARIANTS = {
    "avg-trusted": {"protocol": "avg-trusted"},
    "avg-untrusted": {"protocol": "avg-untrusted"},
    "outlier-decrypt": {"protocol": "outlier", "c": 1.5},
    "outlier-encrypted": {"protocol": "outlier", "c": 1.5,
                          "variance_route": "encrypted"},
    "election": {"protocol": "election"},
}
TOPOLOGIES = {
    "ring": {"family": "ring", "n": N},
    "path": {"family": "path", "n": N},
    "star": {"family": "star", "n": N},
    "complete": {"family": "complete", "n": N},
    "g8": {"family": "random", "n": N, "p": 0.5},
}
UNIFORM = {"random_uniform": [-100, 100]}
#: primary 3p mod 8, with a secondary p + 1 on two of every three ballots
BALLOTS = [{"primary": (3 * p) % N, "secondary": None if p % 3 == 2 else (p + 1) % N}
           for p in range(N)]
CRASH = [{"process": 5, "time": 2}]


@functools.cache
def cells() -> dict:
    """Cell name -> the scenario dict it runs."""
    out = {}
    for variant, fields in VARIANTS.items():
        inputs = BALLOTS if variant == "election" else UNIFORM
        for family, topology in TOPOLOGIES.items():
            for schedule in ("sync", "async"):
                for eps in (0.0, 1e-9):
                    for crash in (False, True):
                        name = (f"{variant}-{family}-{schedule}-eps{eps:g}-"
                                f"{'crash' if crash else 'nocrash'}")
                        out[name] = dict(fields, topology=topology, inputs=inputs,
                                         seed=3, schedule=schedule, noise_epsilon=eps,
                                         faults=CRASH if crash else [])
    return out


def _short(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


@functools.cache
def cell_report(name: str) -> netsim.SimReport:
    """The report of the named cell's run, made once and then shared."""
    return netsim.run(ScenarioConfig.from_dict(cells()[name]))


def receipt(name: str) -> dict:
    """The report digest of one cell and the digest of each of its fields."""
    text = cell_report(name).to_json()
    report = json.loads(text)
    fields = {key: _short(value) for key, value in report.items() if key != "extra"}
    fields.update((f"extra.{key}", _short(value)) for key, value in report["extra"].items())
    return {"report": hashlib.sha256(text.encode()).hexdigest(), "fields": fields}


def receipts() -> dict:
    return {name: receipt(name) for name in sorted(cells())}


def moved_fields(want: dict, got: dict) -> list:
    """The fields whose digests differ, or that one receipt lacks."""
    was, now = want.get("fields", {}), got["fields"]
    return sorted(key for key in was.keys() | now.keys() if was.get(key) != now.get(key))


def summary(want: dict, got: dict) -> str:
    """Per protocol variant, the cells whose report moved from `want` to
    `got`, and how many of those moved in each field."""
    lines = []
    for variant in VARIANTS:
        names = [name for name in got if name.startswith(variant + "-")]
        moved = [name for name in names
                 if want.get(name, {}).get("report") != got[name]["report"]]
        lines.append(f"{variant}: {len(moved)} of {len(names)} cells moved")
        counts = Counter(key for name in moved
                         for key in moved_fields(want.get(name, {}), got[name]))
        lines.extend(f"  {key}: {count}" for key, count in sorted(counts.items()))
    return "\n".join(lines)


def test_every_matrix_cell_matches_its_digest():
    want = json.loads(MATRIX.read_text())
    got = receipts()
    assert sorted(want) == sorted(got), "matrix.json and the cells differ"
    moved = [f"{name} [{', '.join(moved_fields(want[name], got[name]))}]"
             for name in sorted(got) if got[name] != want[name]]
    assert moved == [], f"{len(moved)} report(s) moved: {'; '.join(moved)}"


def test_a_moved_cell_names_the_fields_that_moved():
    want = {"report": "a", "fields": {"n": "1", "extra.crashed": "2", "seed": "4"}}
    got = {"report": "b", "fields": {"n": "1", "messages_sent": "3", "seed": "5"}}
    assert moved_fields(want, got) == ["extra.crashed", "messages_sent", "seed"]
    assert summary({"election-x": want}, {"election-x": got}).splitlines()[-4:] == [
        "election: 1 of 1 cells moved", "  extra.crashed: 1", "  messages_sent: 1",
        "  seed: 1"]


def disagreeing(untrusted: bool) -> list:
    """The avg-untrusted cells, or all the others, in which two deciders
    decide values of different bits."""
    out = []
    for name, raw in sorted(cells().items()):
        if (raw["protocol"] == "avg-untrusted") != untrusted:
            continue
        decided = cell_report(name).decided_values
        if len({repr(v) for v in decided.values()}) > 1:
            out.append(name)
    return out


def test_every_decider_in_a_cell_decides_the_same_bits():
    assert disagreeing(untrusted=False) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: an avg-untrusted process "
                   "decides the first initiator's result that reaches it")
def test_every_avg_untrusted_decider_decides_the_same_bits():
    assert disagreeing(untrusted=True) == []


if __name__ == "__main__":
    was = json.loads(MATRIX.read_text()) if MATRIX.exists() else {}
    got = receipts()
    MATRIX.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    print(summary(was, got))
    print(f"wrote {len(got)} receipts to {MATRIX.parent.name}/{MATRIX.name}",
          file=sys.stderr)
