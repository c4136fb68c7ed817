"""One receipt per run of a seeded random corpus of election reports.

The corpus crosses the election with the six topology families, n in
{3, 5, 6, 8}, both schedules, noise 0 and 1e-9, and 0, 1 or 2 crashes,
288 runs.  Each run's seed, ballots and crashes (distinct processes at
t = 0-4, whether or not the survivors stay connected) are drawn from
`random.Random(34)` in that order.  `tests/golden/corpus.json` holds each
run's receipt in the matrix's form (`test_golden_matrix.report_receipt`),
or the error a run raised.  After a change that alters reports on
purpose, re-capture in a commit of its own with

    PYTHONPATH=src python tests/test_golden_corpus.py

The same runs check that every decider decides the same bits, that a run
ends `deadline-exceeded` only when its survivors are disconnected, and
that the keyholder decrypts complete copies of one support only.
"""

import functools
import json
import random
import sys
from pathlib import Path

import pytest

from consentry import leader_election, netsim
from consentry.netsim import ScenarioConfig

from test_golden_matrix import moved_fields, report_receipt

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"

FAMILIES = ("ring", "path", "star", "complete", "tree", "random")


@functools.cache
def cells() -> dict:
    """Run name -> the scenario dict it runs."""
    rng = random.Random(34)
    out = {}
    for family in FAMILIES:
        for n in (3, 5, 6, 8):
            for schedule in ("sync", "async"):
                for eps in (0.0, 1e-9):
                    for k in (0, 1, 2):
                        seed = rng.randrange(1000)
                        ballots = []
                        for _ in range(n):
                            primary = rng.randrange(n)
                            secondary = rng.choice([None, *range(n)])
                            ballots.append({"primary": primary, "secondary": None
                                            if secondary == primary else secondary})
                        faults = [{"process": p, "time": rng.randrange(5)}
                                  for p in rng.sample(range(n), k)]
                        name = f"election-{family}-n{n}-{schedule}-eps{eps:g}-crash{k}"
                        out[name] = {"protocol": "election",
                                     "topology": {"family": family, "n": n},
                                     "inputs": ballots, "seed": seed, "schedule": schedule,
                                     "noise_epsilon": eps, "faults": faults}
    return out


@functools.cache
def corpus_run(name: str) -> dict:
    """The named run's receipt, with what its keyholder opened: the
    supports of the complete copies it decrypted, in ledger order."""
    backends, supports = [], {}

    def seeded(*args):
        backends.append(seeded_backend(*args))
        return backends[-1]

    def tally(backend, secret, complete_ct, n, caller=None, *, contributors):
        supports[complete_ct.handle] = contributors
        return real_tally(backend, secret, complete_ct, n, caller, contributors=contributors)

    seeded_backend, real_tally = leader_election.seeded_backend, leader_election.tally
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(leader_election, "seeded_backend", seeded)
        patch.setattr(leader_election, "tally", tally)
        try:
            report = netsim.run(ScenarioConfig.from_dict(cells()[name]))
        except Exception as exc:
            return {"receipt": {"error": f"{type(exc).__name__}: {exc}"}}
    opened = [supports[event.handle] for backend in backends for event in backend.events()
              if event.kind == "decrypt"]
    return {"receipt": report_receipt(report.to_json()), "report": report, "opened": opened}


def receipts() -> dict:
    return {name: corpus_run(name)["receipt"] for name in sorted(cells())}


def test_the_corpus_draws_288_election_runs():
    raw = cells()
    assert len(raw) == 288
    assert {len(run["faults"]) for run in raw.values()} == {0, 1, 2}
    assert {fault["time"] for run in raw.values() for fault in run["faults"]} == set(range(5))


def test_every_corpus_run_matches_its_receipt():
    want = json.loads(CORPUS.read_text())
    got = receipts()
    assert sorted(want) == sorted(got), "corpus.json and the runs differ"
    moved = [f"{name} [{', '.join(moved_fields(want[name], got[name]))}]"
             for name in sorted(got) if got[name] != want[name]]
    assert moved == [], f"{len(moved)} report(s) moved: {'; '.join(moved)}"


def test_every_decider_of_a_corpus_run_decides_the_same_bits():
    split = [name for name in sorted(cells()) if "report" in corpus_run(name) and
             len({repr(v) for v in corpus_run(name)["report"].decided_values.values()}) > 1]
    assert split == []


def test_a_corpus_run_stalls_only_when_its_survivors_are_disconnected():
    stalled, wrongly = 0, []
    for name, raw in sorted(cells().items()):
        report = corpus_run(name).get("report")
        if report is None or report.termination == "decided":
            continue
        stalled += 1
        topology = ScenarioConfig.from_dict(raw).resolve_topology()
        if report.termination != "deadline-exceeded" or \
                topology.connected_without({fault["process"] for fault in raw["faults"]}):
            wrongly.append((name, report.termination))
    assert wrongly == [] and stalled > 0


def test_every_corpus_keyholder_opens_one_support_only():
    # ROADMAP item 28: two grids whose supports differ by one process would
    # differ by exactly that process's ballot
    mixed, unopened = [], []
    for name in sorted(cells()):
        run = corpus_run(name)
        if len(set(run.get("opened", ()))) > 1:
            mixed.append(name)
        if "report" in run and run["report"].termination == "decided" and not run["opened"]:
            unopened.append(name)
    assert (mixed, unopened) == ([], [])


if __name__ == "__main__":
    was = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    got = receipts()
    CORPUS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    moved = sorted(name for name in got if was.get(name) != got[name])
    print(f"{len(moved)} of {len(got)} runs moved")
    print(f"wrote {len(got)} receipts to {CORPUS.parent.name}/{CORPUS.name}",
          file=sys.stderr)
