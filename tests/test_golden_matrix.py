"""One SHA-256 per cell of a differential matrix of `netsim.run` reports.

The matrix crosses the five protocol variants with ring, path, star,
complete and G(8, 0.5) at n = 8, both schedules, noise 0 and 1e-9, and no
crash or process 5 crashing at t = 2.  `tests/golden/matrix.json` holds the
digest of each cell's report JSON, so a refactor that must keep reports
byte-identical is checked over all 200 cells, and the test names every cell
whose bytes moved.  After a change that alters reports on purpose,
re-capture in a commit of its own with

    PYTHONPATH=src python tests/test_golden_matrix.py

and say in CHANGES.md why the digests moved.

The same cells check agreement: every process and collector that decides
in a cell decides the same bits.  avg-untrusted does not yet (ROADMAP
item 9), so its 40 cells are one strict expected failure.
"""

import hashlib
import json
import sys
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


def digest(raw: dict) -> str:
    report = netsim.run(ScenarioConfig.from_dict(raw))
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def digests() -> dict:
    return {name: digest(raw) for name, raw in sorted(cells().items())}


def test_every_matrix_cell_matches_its_digest():
    want = json.loads(MATRIX.read_text())
    got = digests()
    assert sorted(want) == sorted(got), "matrix.json and the cells differ"
    moved = [name for name in sorted(got) if got[name] != want[name]]
    assert moved == [], f"{len(moved)} report(s) moved: {', '.join(moved)}"


def disagreeing(untrusted: bool) -> list:
    """The avg-untrusted cells, or all the others, in which two deciders
    decide values of different bits."""
    out = []
    for name, raw in sorted(cells().items()):
        if (raw["protocol"] == "avg-untrusted") != untrusted:
            continue
        report = netsim.run(ScenarioConfig.from_dict(raw))
        if len({repr(v) for v in report.decided_values.values()}) > 1:
            out.append(name)
    return out


def test_every_decider_in_a_cell_decides_the_same_bits():
    assert disagreeing(untrusted=False) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: an avg-untrusted process "
                   "decides the first initiator's result that reaches it")
def test_every_avg_untrusted_decider_decides_the_same_bits():
    assert disagreeing(untrusted=True) == []


if __name__ == "__main__":
    got = digests()
    MATRIX.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(got)} digests to {MATRIX.parent.name}/{MATRIX.name}",
          file=sys.stderr)
