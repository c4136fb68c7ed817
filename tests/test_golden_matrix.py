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
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import mutations
import reference_engine
from consentry import avg_consensus, leader_election, netsim, outlier_consensus
from consentry import topology as topo
from consentry.he_slots import Ciphertext, SlotEngine, seeded_backend
from consentry.netsim import ScenarioConfig, SchedulePolicy
from exposures import record_sends

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


def report_receipt(text: str) -> dict:
    """The digest of a report's JSON and the digest of each of its fields."""
    report = json.loads(text)
    fields = {key: _short(value) for key, value in report.items() if key != "extra"}
    fields.update((f"extra.{key}", _short(value)) for key, value in report["extra"].items())
    return {"report": hashlib.sha256(text.encode()).hexdigest(), "fields": fields}


def receipts() -> dict:
    return {name: report_receipt(cell_report(name).to_json()) for name in sorted(cells())}


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


def test_every_matrix_cell_matches_its_digest_under_the_reference_engine(monkeypatch):
    # the reference engine runs `add_many` as the `add_ct` loop it stands
    # for, and `weighted_rotate_sum` eagerly as `mult_pt`, the `rotate` and
    # `add_ct` loop and `mark_prepared`, so its reports must be the same bytes
    backends = []

    def seeded(*args):
        backends.append(reference_engine.seeded_reference_backend(*args))
        return backends[-1]
    for module in (avg_consensus, outlier_consensus, leader_election):
        monkeypatch.setattr(module, "seeded_backend", seeded)
    want = json.loads(MATRIX.read_text())
    moved = []
    for name, raw in sorted(cells().items()):
        made = len(backends)
        text = netsim.run(ScenarioConfig.from_dict(raw)).to_json()
        assert len(backends) > made, f"{name} ran without the reference engine"
        if hashlib.sha256(text.encode()).hexdigest() != want[name]["report"]:
            moved.append(name)
    assert moved == [], f"{len(moved)} report(s) moved: {'; '.join(moved)}"
    calls = sum((backend.calls for backend in backends), Counter())
    assert calls["add_many"] > 0 and calls["weighted_rotate_sum"] > 0, calls


#: what protocol code and `Simulation` may use of an engine: the members of
#: `SlotEngine`, then the simulator's and the audit's hooks
SEAM = frozenset({"config", "keygen", "encrypt", "decrypt", "add_ct", "mult_pt",
                  "mult_ct", "add_many", "weighted_rotate_sum", "mark_prepared",
                  "key_holders", "record_possession", "violations", "events"})


class SeamProxy:
    """Stands in for an engine: counts every member read from it or written
    to it in `touched`, and forwards the access."""

    def __init__(self, engine, touched: Counter):
        object.__setattr__(self, "_seam", (engine, touched))

    def __getattribute__(self, name):
        engine, touched = object.__getattribute__(self, "_seam")
        touched[name] += 1
        return getattr(engine, name)

    def __setattr__(self, name, value):
        engine, touched = object.__getattribute__(self, "_seam")
        touched[f"{name} (set)"] += 1
        setattr(engine, name, value)


def test_matrix_cells_use_only_the_engine_seam(monkeypatch):
    # README's claim that another engine can stand behind `SlotEngine`: the
    # protocols and the simulator reach the engine only through `SEAM`, in
    # every variant, family, schedule and crash plan, at noise 1e-9
    touched, proxies = Counter(), []

    def seeded(*args):
        proxies.append(SeamProxy(seeded_backend(*args), touched))
        return proxies[-1]
    for module in (avg_consensus, outlier_consensus, leader_election):
        monkeypatch.setattr(module, "seeded_backend", seeded)
    want = json.loads(MATRIX.read_text())
    moved = []
    for name, raw in sorted(cells().items()):
        if raw["noise_epsilon"] == 0:
            continue
        made = len(proxies)
        text = netsim.run(ScenarioConfig.from_dict(raw)).to_json()
        assert len(proxies) > made, f"{name} ran without the proxy"
        if hashlib.sha256(text.encode()).hexdigest() != want[name]["report"]:
            moved.append(name)
    assert moved == [], f"{len(moved)} report(s) moved: {'; '.join(moved)}"
    assert sorted(touched.keys() - SEAM) == []
    assert {"record_possession", "key_holders", "violations",
            "weighted_rotate_sum"} <= touched.keys()


def test_a_moved_cell_names_the_fields_that_moved():
    want = {"report": "a", "fields": {"n": "1", "extra.crashed": "2", "seed": "4"}}
    got = {"report": "b", "fields": {"n": "1", "messages_sent": "3", "seed": "5"}}
    assert moved_fields(want, got) == ["extra.crashed", "messages_sent", "seed"]
    assert summary({"election-x": want}, {"election-x": got}).splitlines()[-4:] == [
        "election: 1 of 1 cells moved", "  extra.crashed: 1", "  messages_sent: 1",
        "  seed: 1"]


#: a second input draw for every cell: uniform values from another stream,
#: and for the election primary 5p + 1 mod 8 with a secondary p + 3 on
#: every other ballot
_OTHER_STREAM = random.Random(4)
OTHER_VALUES = [_OTHER_STREAM.uniform(-100, 100) for _ in range(N)]
OTHER_BALLOTS = [{"primary": (5 * p + 1) % N, "secondary": None if p % 2 else (p + 3) % N}
                 for p in range(N)]


def handles(value):
    """The ciphertext handles in `value`, nested as its tuples and lists
    nest them; None for anything that is not a ciphertext."""
    if isinstance(value, Ciphertext):
        return value.handle
    if isinstance(value, (tuple, list)):
        return tuple(map(handles, value))
    return None


class TapeProxy:
    """Stands in for an engine: appends each call of a `SlotEngine` operation
    to `tape` as (op, operand handles, result handle), and forwards every
    access."""

    def __init__(self, engine, tape: list):
        self._tape = (engine, tape)

    def __getattribute__(self, name):
        engine, tape = object.__getattribute__(self, "_tape")
        member = getattr(engine, name)
        if name not in SlotEngine.__abstractmethods__:
            return member

        def call(*args, **kwargs):
            result = member(*args, **kwargs)
            tape.append((name, handles((*args, *kwargs.values())), handles(result)))
            return result
        return call


def record_tape(monkeypatch) -> list:
    """The list every later run fills with its engine calls, in call order,
    as `TapeProxy` logs them."""
    tape = []
    for module in (avg_consensus, outlier_consensus, leader_election):
        monkeypatch.setattr(module, "seeded_backend",
                            lambda *args: TapeProxy(seeded_backend(*args), tape))
    return tape


def logged(logs, run, *args) -> tuple:
    """What `run(*args)` adds to each list in `logs`, a `record_sends` or a
    `record_tape` list."""
    for log in logs:
        log.clear()
    run(*args)
    return tuple(log[:] for log in logs)


def test_no_cell_sends_differently_under_other_inputs(monkeypatch):
    # who sends what kind of message of which instance with how many
    # ciphertexts, to whom and when, must not depend on the inputs: a timing
    # or traffic pattern that did would leak them with every payload sealed.
    # Nor may the engine tape, which ops run on which handles: on a real
    # engine its timing would leak them the same way
    logs, differ = (record_sends(monkeypatch), record_tape(monkeypatch)), []
    for name, raw in sorted(cells().items()):
        other = dict(raw, inputs=OTHER_BALLOTS if raw["protocol"] == "election"
                     else OTHER_VALUES)
        first = logged(logs, netsim.run, ScenarioConfig.from_dict(raw))
        assert all(first), f"{name} sent nothing or made no engine call"
        second = logged(logs, netsim.run, ScenarioConfig.from_dict(other))
        differ += [f"{name} {what}" for what, a, b in zip(("sends", "tape"), first, second)
                   if a != b]
    assert differ == []


def mutant_logs(monkeypatch, node_cls) -> list:
    """The sends and engine tape of two sync 4-ring runs of `node_cls`
    whose inputs differ in one sign, each with its decided values and its
    privacy audit."""
    def run(inputs):
        t = topo.ring(4)
        setup = mutations.mutated_setup(t, inputs, node_cls, seed=1)
        report, trace = netsim.Simulation(t, setup, SchedulePolicy("sync", 1)).run()
        outcomes.append((set(report.decided_values.values()), netsim.privacy_audit(trace)))
    logs, outcomes = (record_sends(monkeypatch), record_tape(monkeypatch)), []
    runs = [logged(logs, run, inputs)
            for inputs in ([5.0, -6.0, 7.0, -8.0], [-5.0, -6.0, 7.0, -8.0])]
    assert outcomes == [({-0.5}, []), ({-3.0}, [])]
    return runs


def test_a_start_held_back_by_a_positive_input_changes_the_send_log(monkeypatch):
    # the privacy audit passes the mutant: it leaks its inputs' signs by when
    # it sends, not by what it sends
    (first, _), (second, _) = mutant_logs(monkeypatch, mutations.DelayedStartAvgNode)
    assert first != second


def test_an_encrypt_added_by_a_positive_input_changes_only_the_engine_tape(monkeypatch):
    # the privacy audit and the send log both pass the mutant: it leaks its
    # inputs' signs only by how much engine work it does
    (sends, tape), (other_sends, other_tape) = mutant_logs(
        monkeypatch, mutations.SpareEncryptAvgNode)
    assert sends == other_sends and tape != other_tape
    (sends, tape), (other_sends, other_tape) = mutant_logs(
        monkeypatch, avg_consensus.AvgProcessNode)
    assert sends == other_sends and tape == other_tape


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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 9: an avg-untrusted process "
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
