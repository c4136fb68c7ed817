"""One receipt per run of a seeded random corpus of `netsim.run` reports.

The corpus crosses the five protocol variants of the matrix with the six
topology families, n in {3, 5, 6, 8}, both schedules, noise 0 and 1e-9, and
0, 1 or 2 crashes, 288 runs a variant.  The election's runs are drawn first
from `random.Random(34)`, each run's seed, ballots and crashes (distinct
processes at t = 0-4, whether or not the survivors stay connected) in that
order; then avg-trusted, avg-untrusted and both outlier routes, each run's
seed and crashes, on the matrix's inputs (`random_uniform` [-100, 100], c
1.5).  `tests/golden/corpus.json` holds each run's receipt in the matrix's
form (`test_golden_matrix.report_receipt`), or the error a run raised.
After a change that alters reports on purpose, re-capture in a commit of
its own with

    PYTHONPATH=src python tests/test_golden_corpus.py

The same runs check that every decider decides the same bits, that a run
ends `deadline-exceeded` only when its survivors are disconnected, that
only the expected runs raise, that the election keyholder decrypts
complete copies of one support only, and that each averaging keyholder
decrypts at most one prepared aggregate per quantity.
"""

import functools
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from consentry import avg_consensus, leader_election, netsim, outlier_consensus
from consentry.netsim import ScenarioConfig

from test_golden_matrix import UNIFORM, VARIANTS, moved_fields, report_receipt

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus.json"

FAMILIES = ("ring", "path", "star", "complete", "tree", "random")
#: the draw's order: the election's 288 runs were drawn before the others joined
ORDER = ("election", "avg-trusted", "avg-untrusted", "outlier-decrypt", "outlier-encrypted")

#: the distinct prepared aggregates each averaging keyholder may decrypt: one
#: per quantity, and the outlier collector's four are round 1's mean, round
#: 2's variance and round 3's two channels
LEDGER_BOUND = {"avg-trusted": 1, "avg-untrusted": 1,
                "outlier-decrypt": 4, "outlier-encrypted": 4}

#: the runs that raise: ROADMAP item 10's round-2 average, materially
#: negative on a run whose crashes leave round 2 a few survivors
EXPECTED_ERRORS = {
    "outlier-decrypt-complete-n3-async-eps1e-09-crash2": "NegativeVarianceError",
    "outlier-encrypted-star-n3-async-eps1e-09-crash2": "NegativeVarianceError",
    "outlier-encrypted-tree-n3-async-eps1e-09-crash2": "NegativeVarianceError",
}


@functools.cache
def cells() -> dict:
    """Run name -> the scenario dict it runs."""
    rng = random.Random(34)
    out = {}
    for variant, family, n, schedule, eps, k in itertools.product(
            ORDER, FAMILIES, (3, 5, 6, 8), ("sync", "async"), (0.0, 1e-9), (0, 1, 2)):
        seed = rng.randrange(1000)
        inputs = UNIFORM
        if variant == "election":
            inputs = []
            for _ in range(n):
                primary = rng.randrange(n)
                secondary = rng.choice([None, *range(n)])
                inputs.append({"primary": primary, "secondary": None
                               if secondary == primary else secondary})
        faults = [{"process": p, "time": rng.randrange(5)}
                  for p in rng.sample(range(n), k)]
        name = f"{variant}-{family}-n{n}-{schedule}-eps{eps:g}-crash{k}"
        out[name] = dict(VARIANTS[variant], topology={"family": family, "n": n},
                         inputs=inputs, seed=seed, schedule=schedule,
                         noise_epsilon=eps, faults=faults)
    return out


def variant_of(name: str) -> str:
    return next(variant for variant in ORDER if name.startswith(variant + "-"))


@functools.cache
def corpus_run(name: str) -> dict:
    """The named run's receipt, with its keyholders' decrypt ledger, as
    (keyholder, handle) in ledger order, and what the election keyholder
    opened: the supports of the complete copies it decrypted."""
    backends, supports = [], {}

    def seeded(*args):
        backends.append(seeded_backend(*args))
        return backends[-1]

    def tally(backend, secret, complete_ct, n, caller=None, *, contributors):
        supports[complete_ct.handle] = contributors
        return real_tally(backend, secret, complete_ct, n, caller, contributors=contributors)

    seeded_backend, real_tally = leader_election.seeded_backend, leader_election.tally
    with pytest.MonkeyPatch.context() as patch:
        for module in (avg_consensus, outlier_consensus, leader_election):
            patch.setattr(module, "seeded_backend", seeded)
        patch.setattr(leader_election, "tally", tally)
        try:
            report = netsim.run(ScenarioConfig.from_dict(cells()[name]))
        except Exception as exc:
            return {"receipt": {"error": f"{type(exc).__name__}: {exc}"}}
    decrypts = [(event.observer, event.handle) for backend in backends
                for event in backend.events() if event.kind == "decrypt"]
    opened = [supports[handle] for _, handle in decrypts if handle in supports]
    return {"receipt": report_receipt(report.to_json()), "report": report,
            "decrypts": decrypts, "opened": opened}


def receipts() -> dict:
    return {name: corpus_run(name)["receipt"] for name in sorted(cells())}


def names(*variants) -> list:
    return [name for name in sorted(cells()) if variant_of(name) in variants]


def test_the_corpus_draws_288_election_runs():
    raw = cells()
    assert [variant_of(name) for name in raw] == [v for v in ORDER for _ in range(288)]
    assert {len(run["faults"]) for run in raw.values()} == {0, 1, 2}
    assert {fault["time"] for run in raw.values() for fault in run["faults"]} == set(range(5))


def test_every_corpus_run_matches_its_receipt():
    want = json.loads(CORPUS.read_text())
    got = receipts()
    assert sorted(want) == sorted(got), "corpus.json and the runs differ"
    moved = [f"{name} [{', '.join(moved_fields(want[name], got[name]))}]"
             for name in sorted(got) if got[name] != want[name]]
    assert moved == [], f"{len(moved)} report(s) moved: {'; '.join(moved)}"


def test_only_the_expected_corpus_runs_raise():
    raised = {name: corpus_run(name)["receipt"]["error"].split(":")[0]
              for name in sorted(cells()) if "error" in corpus_run(name)["receipt"]}
    assert raised == EXPECTED_ERRORS


def split_runs(*variants) -> list:
    """The runs of the variants in which two deciders decide different bits."""
    return [name for name in names(*variants) if "report" in corpus_run(name) and
            len({repr(v) for v in corpus_run(name)["report"].decided_values.values()}) > 1]


def test_every_decider_of_a_corpus_run_decides_the_same_bits():
    assert split_runs(*(v for v in ORDER if v != "avg-untrusted")) == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 9: an avg-untrusted process "
                   "decides the first initiator's result that reaches it")
def test_every_avg_untrusted_decider_of_a_corpus_run_decides_the_same_bits():
    assert split_runs("avg-untrusted") == []


def stalls(*variants) -> tuple[int, list]:
    """How many runs of the variants stall, and those that stall with their
    survivors connected or end otherwise than `deadline-exceeded`."""
    stalled, wrongly = 0, []
    for name in names(*variants):
        report = corpus_run(name).get("report")
        if report is None or report.termination == "decided":
            continue
        stalled += 1
        raw = cells()[name]
        topology = ScenarioConfig.from_dict(raw).resolve_topology()
        if report.termination != "deadline-exceeded" or \
                topology.connected_without({fault["process"] for fault in raw["faults"]}):
            wrongly.append((name, report.termination))
    return stalled, wrongly


def test_a_corpus_run_stalls_only_when_its_survivors_are_disconnected():
    stalled, wrongly = stalls("election", "outlier-decrypt", "outlier-encrypted")
    assert wrongly == [] and stalled > 0


@pytest.mark.parametrize("variant", [
    pytest.param(variant, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 5: an averaging process waits for all n "
        "and ignores crash notices"))
    for variant in ("avg-trusted", "avg-untrusted")])
def test_an_averaging_corpus_run_stalls_only_when_its_survivors_are_disconnected(variant):
    assert stalls(variant)[1] == []


def test_every_corpus_keyholder_opens_one_support_only():
    # ROADMAP item 28: two grids whose supports differ by one process would
    # differ by exactly that process's ballot
    mixed, unopened = [], []
    for name in names("election"):
        run = corpus_run(name)
        if len(set(run.get("opened", ()))) > 1:
            mixed.append(name)
        if "report" in run and run["report"].termination == "decided" and not run["opened"]:
            unopened.append(name)
    assert (mixed, unopened) == ([], [])


def test_every_averaging_keyholder_decrypts_one_aggregate_per_quantity():
    # ROADMAP item 28: a keyholder that opened two aggregates of one
    # quantity with different supports could difference them
    over, unopened = [], []
    for name in names(*LEDGER_BOUND):
        run = corpus_run(name)
        handles = {}
        for keyholder, handle in run.get("decrypts", ()):
            handles.setdefault(keyholder, set()).add(handle)
        over += [(name, keyholder, len(held)) for keyholder, held in handles.items()
                 if len(held) > LEDGER_BOUND[variant_of(name)]]
        if "report" in run and run["report"].termination == "decided" and not handles:
            unopened.append(name)
    assert (over, unopened) == ([], [])


if __name__ == "__main__":
    was = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    got = receipts()
    CORPUS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    moved = sorted(name for name in got if was.get(name) != got[name])
    print(f"{len(moved)} of {len(got)} runs moved")
    print(f"wrote {len(got)} receipts to {CORPUS.parent.name}/{CORPUS.name}",
          file=sys.stderr)
