"""CLI runner: file outputs, exit codes, sweeps."""

import csv
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from consentry import avg_consensus, netsim
from consentry.avg_consensus import PreparedSlotsError, PrivacyGuardError
from consentry.cli import (EXIT_ACCEPTANCE, EXIT_CONFIG, EXIT_INTERNAL, EXIT_OK,
                           build_parser, main)
from consentry.he_slots import MAX_NOISE_EPSILON, AccessDeniedError, KeyMismatchError
from consentry.leader_election import CorruptedTallyError
import mutations
from oracles import irv_oracle

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"


def read_summary(out):
    with open(Path(out) / "summary.csv") as fh:
        return list(csv.DictReader(fh))


def test_run_ring4_avg(tmp_path, capsys):
    rc = main(["run", "--config", str(CONFIGS / "ring4_avg.json"),
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema_version"] == 1
    trial = report["trials"][0]
    assert trial["decided_values"]["0"] == pytest.approx(2.5)
    assert trial["termination"] == "decided"
    rows = read_summary(tmp_path)
    assert rows[0]["decided"] == "2.5"
    assert rows[0]["protocol"] == "avg-trusted"
    assert rows[0]["privacy_violations"] == "0"
    assert "decided=2.5" in capsys.readouterr().out


def test_a_second_main_call_leaves_no_cyclic_garbage(tmp_path, capsys):
    # `main` builds its parser once per process: each build left 108
    # argparse objects in reference cycles.  The one build leaves argparse's
    # formatter and section cycles; past it, no `main` call leaves any
    argv = ["run", "--config", str(CONFIGS / "ring4_avg.json"), "--out", str(tmp_path)]
    gc.disable()
    try:
        build_parser()
        gc.collect()
        assert main(argv) == EXIT_OK
        assert gc.collect() == 0
        assert main(argv) == EXIT_OK
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_run_is_idempotent_byte_for_byte(tmp_path):
    args = ["run", "--config", str(CONFIGS / "ring4_avg.json"),
            "--out", str(tmp_path)]
    main(args)
    first = (tmp_path / "report.json").read_bytes()
    first_csv = (tmp_path / "summary.csv").read_bytes()
    main(args)
    assert (tmp_path / "report.json").read_bytes() == first
    assert (tmp_path / "summary.csv").read_bytes() == first_csv


def test_run_fig2_election(tmp_path):
    rc = main(["run", "--config", str(CONFIGS / "fig2_election.json"),
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    trial = report["trials"][0]
    assert trial["decided_values"]["0"] == 0         # winner is process 0
    assert trial["decided_values"]["trusted"] == 0


def test_run_outlier_config(tmp_path):
    rc = main(["run", "--config", str(CONFIGS / "ring4_outlier.json"),
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rows = read_summary(tmp_path)
    assert rows[0]["decided"] == "2"


def test_run_seed_override_changes_report(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(CONFIGS / "ring4_avg.json"), "--out", str(out1)])
    main(["run", "--config", str(CONFIGS / "ring4_avg.json"), "--seed", "99",
          "--out", str(out2)])
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["trials"][0]["seed"] != r2["trials"][0]["seed"]


def test_run_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "protocol": "avg-trusted",
        "topology": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
        "inputs": [1, 2, 3],
    }))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"protocol": "avg-trusted", "topology": {},
                                   "inputs": [], "typo_field": 1}))
    assert main(["run", "--config", str(unknown), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_run_unexpected_termination_exits_3(tmp_path, capsys):
    cfg = tmp_path / "crash.json"
    cfg.write_text(json.dumps({
        "protocol": "avg-trusted",
        "topology": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
        "inputs": [1, 2, 3, 4],
        "faults": [{"process": 1, "time": 1}],
    }))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_ACCEPTANCE
    cfg2 = tmp_path / "crash_expected.json"
    cfg2.write_text(json.dumps({
        "protocol": "avg-trusted",
        "topology": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
        "inputs": [1, 2, 3, 4],
        "faults": [{"process": 1, "time": 1}],
        "expect_termination": False,
    }))
    capsys.readouterr()
    # no key turns a stalled trial into a pass
    assert main(["run", "--config", str(cfg2), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        "config error: unknown config keys: ['expect_termination']\n"


def test_a_plaintext_leak_is_reported_and_exits_3(tmp_path, monkeypatch):
    def leaky(topology, inputs, *, seed=0, noise_epsilon=0.0):
        return mutations.mutated_setup(topology, inputs, mutations.LeakyAvgNode, seed)
    monkeypatch.setattr(avg_consensus, "build_trusted", leaky)
    config = CONFIGS / "ring4_avg.json"
    violations = netsim.run(netsim.ScenarioConfig.from_dict(
        json.loads(config.read_text()))).privacy_violations
    assert violations
    assert all(v["rule"] == "plaintext-leak" and isinstance(v["observer"], str)
               for v in violations)
    assert {v["observer"] for v in violations} == {"0", "1", "2", "3"}
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_ACCEPTANCE
    report = json.loads((out / "report.json").read_text())
    assert report["trials"][0]["privacy_violations"] == violations
    assert read_summary(out)[0]["privacy_violations"] == str(len(violations))
    assert main(["sweep", "--config", str(CONFIGS / "sweep_base.json"), "--vary", "n=4",
                 "--out", str(tmp_path / "sweep")]) == EXIT_ACCEPTANCE


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CONSENTRY_OUT", str(tmp_path / "envout"))
    rc = main(["run", "--config", str(CONFIGS / "ring4_avg.json")])
    assert rc == EXIT_OK
    assert (tmp_path / "envout" / "report.json").exists()


def test_sweep_rings(tmp_path):
    rc = main(["sweep", "--config", str(CONFIGS / "sweep_base.json"),
               "--vary", "n=4,8", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        # on rings every process completes within diameter rounds
        assert int(row["rounds_max"]) <= int(row["diameter"])
        assert float(row["K"]) > 0
        assert row["privacy_violations"] == "0"


def test_sweep_star_and_family_grid(tmp_path):
    rc = main(["sweep", "--config", str(CONFIGS / "sweep_base.json"),
               "--vary", "family=star,path", "--vary", "n=4,6",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["family"] for r in rows} == {"star", "path"}


def test_sweep_untrusted_star_center_flags_non_viable(tmp_path):
    base = tmp_path / "untrusted.json"
    base.write_text(json.dumps({
        "protocol": "avg-untrusted",
        "topology": {"family": "star", "n": 4},
        "inputs": {"random_uniform": [-10, 10]},
        "initiators": [0],
        "seed": 5,
        "trials": 2,
    }))
    rc = main(["sweep", "--config", str(base), "--vary", "n=4,6",
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    with open(tmp_path / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:       # the hub is a cut vertex in every cell
        assert int(row["non_viable"]) == 2


def test_sweep_empty_grid_exits_2(tmp_path):
    assert main(["sweep", "--config", str(CONFIGS / "sweep_base.json"),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert main(["sweep", "--config", str(CONFIGS / "sweep_base.json"),
                 "--vary", "n=", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert main(["sweep", "--config", str(CONFIGS / "sweep_base.json"),
                 "--vary", "n", "--out", str(tmp_path)]) == EXIT_CONFIG


# the second --vary n once replaced the first: one row, exit 0
def test_sweep_repeated_vary_key_exits_2(tmp_path, capsys):
    assert main(["sweep", "--config", str(CONFIGS / "sweep_base.json"), "--vary", "n=4",
                 "--vary", "n=8", "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: --vary n ") and err.count("\n") == 1
    assert "list its values once" in err
    assert not (tmp_path / "sweep.csv").exists()


# a value listed twice once ran its cell twice: two identical rows, exit 0
def test_sweep_repeated_vary_value_exits_2(tmp_path, capsys):
    assert main(["sweep", "--config", str(CONFIGS / "sweep_base.json"), "--vary", "n=4,4",
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: --vary n ") and err.count("\n") == 1
    assert "4 more than once" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_election_over_a_family_decides_each_cell(tmp_path, monkeypatch):
    base = json.loads((CONFIGS / "fig2_election.json").read_text())
    base["topology"] = {"family": "ring", "n": 5}
    cfg = tmp_path / "election.json"
    cfg.write_text(json.dumps(base))
    reports, inner = [], netsim.run

    def capture(scenario, trial=0):
        reports.append(inner(scenario, trial))
        return reports[-1]
    monkeypatch.setattr(netsim, "run", capture)
    rc = main(["sweep", "--config", str(cfg), "--vary", "seed=1,2", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    winner = irv_oracle([(b["primary"], b["secondary"]) for b in base["inputs"]], 5)
    assert [r.seed for r in reports] == [1, 2]
    for report in reports:
        assert report.termination == "decided"
        assert set(report.decided_values.values()) == {winner}


@pytest.mark.parametrize("vary, file_base", [("family=star", False), ("p=0.9", False),
                                             ("n=6", True)],
                         ids=["family-beside-edges", "p-beside-edges", "n-of-a-file"])
def test_sweep_assignment_the_base_cannot_take_exits_2(tmp_path, capsys, vary, file_base):
    config = CONFIGS / "ring4_avg.json"
    if file_base:
        (tmp_path / "path3.json").write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
        config = tmp_path / "base.json"
        config.write_text(json.dumps({"protocol": "avg-trusted",
                                      "topology": str(tmp_path / "path3.json"),
                                      "inputs": {"random_uniform": [0, 1]}}))
    rc = main(["sweep", "--config", str(config), "--vary", vary, "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "sweep.csv").exists()


# a misspelt key once dropped the secondary vote, and the run exited 0
@pytest.mark.parametrize("ballot", [{"primary": 0, "secondary": 0}, {"primary": 7},
                                    {"primary": 1, "secondry": 2}])
def test_bad_ballot_is_a_config_error(tmp_path, capsys, ballot):
    cfg = json.loads((CONFIGS / "fig2_election.json").read_text())
    cfg["inputs"][0] = ballot
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("fault", [CorruptedTallyError, PrivacyGuardError,
                                   PreparedSlotsError, KeyMismatchError,
                                   AccessDeniedError])
def test_internal_fault_exits_4(tmp_path, capsys, monkeypatch, fault):
    def broken(scenario, trial=0):
        raise fault("injected")
    monkeypatch.setattr(netsim, "run", broken)
    rc = main(["run", "--config", str(CONFIGS / "ring4_avg.json"),
               "--out", str(tmp_path)])
    assert rc == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and err.count("\n") == 1


def test_a_materially_negative_variance_inside_a_run_exits_4(tmp_path, capsys):
    # a valid config: with one survivor left, round 2's average comes out at
    # -2.26e-09, past the rounding dust, and this once exited 2 as a config error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "protocol": "outlier", "c": 1.5, "topology": {"family": "random", "n": 3, "p": 0.5},
        "inputs": {"random_uniform": [0, 100]}, "seed": 669, "schedule": "sync",
        "noise_epsilon": 1e-9,
        "faults": [{"process": 1, "time": 1}, {"process": 2, "time": 4}]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error: NegativeVarianceError: variance average "
                          "materially negative:") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("error", [RuntimeError, KeyError])
def test_an_exception_no_rule_names_raised_mid_run_exits_4(tmp_path, capsys, monkeypatch,
                                                            error):
    # an exception that is neither a config error nor a named fault once
    # escaped `main` as a traceback
    def broken(self, ctx, msg):
        raise error("injected")
    monkeypatch.setattr(avg_consensus.TrustedCollectorNode, "_open", broken)
    rc = main(["run", "--config", str(CONFIGS / "ring4_avg.json"), "--out", str(tmp_path)])
    assert rc == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err == f"internal error: {error.__name__}: {error('injected')}\n"
    assert not (tmp_path / "report.json").exists()


def test_a_send_to_a_non_neighbour_exits_4(tmp_path, capsys, monkeypatch):
    # only protocol code picks destinations, so a send over a missing edge
    # is a fault of the program; it once exited 2 as a config error
    def start(self, ctx, start=avg_consensus.AvgProcessNode.on_start):
        start(self, ctx)
        ctx.send((self.pid + 2) % self.n, self.states[avg_consensus.INSTANCE_TRUSTED].snapshot())
    monkeypatch.setattr(avg_consensus.AvgProcessNode, "on_start", start)
    rc = main(["run", "--config", str(CONFIGS / "ring4_avg.json"), "--out", str(tmp_path)])
    assert rc == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: RuntimeError: no channel from 0 to 2\n"
    assert not (tmp_path / "report.json").exists()


def test_a_run_that_reaches_its_horizon_exits_4(tmp_path, capsys, monkeypatch):
    # a process that answers every delivery with a send never lets the run go
    # quiet; at the horizon, logical time 10 * L * (n + 2) = 60 on sync
    # ring(4), the run is a fault, not a `deadline-exceeded` report
    def resend(self, ctx, batch):
        ctx.broadcast(avg_consensus.ProtocolMessage("echo", avg_consensus.RESULT))
    monkeypatch.setattr(avg_consensus.AvgProcessNode, "on_deliver", resend)
    rc = main(["run", "--config", str(CONFIGS / "ring4_avg.json"), "--out", str(tmp_path)])
    assert rc == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: the run reached its horizon, "
                          "logical time 60, ") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


def test_an_interrupt_mid_run_is_not_reported_as_a_fault(tmp_path, capsys, monkeypatch):
    def interrupted(self, ctx, msg):
        raise KeyboardInterrupt
    monkeypatch.setattr(avg_consensus.TrustedCollectorNode, "_open", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--config", str(CONFIGS / "ring4_avg.json"), "--out", str(tmp_path)])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("protocol, topology", [
    ("avg-trusted", {"n": 4, "edges": [[0, 1], [2, 3]]}),
    ("avg-untrusted", {"n": 1, "edges": []}),    # no initiator can sit out
], ids=["disconnected", "lone-untrusted"])
def test_unrunnable_topology_is_a_config_error(tmp_path, capsys, protocol, topology):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": protocol, "topology": topology,
                               "inputs": list(range(topology["n"]))}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("crash", [{"process": 99, "time": 3}, {"process": 1, "time": -5},
                                   {"time": 1}],
                         ids=["outside-graph", "negative-time", "no-process"])
def test_bad_crash_fault_exits_2(tmp_path, capsys, crash):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": "avg-trusted",
                               "topology": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
                               "inputs": [1, 2, 3, 4], "faults": [crash]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("crash", [{"process": 1.7, "time": 2}, {"process": "1", "time": 2},
                                   {"process": 1, "time": True}],
                         ids=["float-process", "string-process", "bool-time"])
def test_non_integer_crash_fault_exits_2(tmp_path, capsys, crash):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": "avg-trusted",
                               "topology": {"n": 6, "edges": [[i, (i + 1) % 6] for i in range(6)]},
                               "inputs": [1, 2, 3, 4, 5, 6], "faults": [crash]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


def test_run_untrusted_summary_lists_each_initiator(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": "avg-untrusted",
                               "topology": {"n": 3, "edges": [[0, 1], [1, 2]]},
                               "inputs": [1, 2, 6], "seed": 5}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    row, = read_summary(tmp_path)
    assert row["decided"] == "0=3;1=non-viable;2=3"    # 1 is the path's cut vertex
    assert row["diameter"] == "2"


def test_run_untrusted_summary_lists_initiators_in_id_order(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": "avg-untrusted",
                               "topology": {"family": "ring", "n": 12},
                               "inputs": list(range(12)), "seed": 5}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    row, = read_summary(tmp_path)
    ids = [int(item.split("=")[0]) for item in row["decided"].split(";")]
    assert ids == list(range(12))
    assert f"decided={row['decided']} " in capsys.readouterr().out


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_each_report_json_trial_is_the_netsim_report_plus_the_diameter(tmp_path, config):
    # `json.dumps` without `sort_keys` writes each trial back in the file's
    # own key order, so a tally whose ids the file sorts as text, not as
    # numbers, shows; `report_json` would sort them as text again
    assert main(["run", "--config", str(CONFIGS / config), "--out", str(tmp_path)]) == EXIT_OK
    raw = json.loads((CONFIGS / config).read_text())
    scenario = netsim.ScenarioConfig.from_dict(raw)
    trials = json.loads((tmp_path / "report.json").read_text())["trials"]
    assert len(trials) == scenario.trials
    for t, trial in enumerate(trials):
        assert trial["extra"].pop("diameter") == scenario.resolve_topology(t).diameter()
        assert json.dumps(trial, indent=2) == netsim.run(scenario, t).to_json()


def test_run_random_family_reports_each_trials_diameter(tmp_path):
    raw = {"protocol": "avg-trusted", "topology": {"family": "random", "n": 8},
           "inputs": {"random_uniform": [-10, 10]}, "seed": 2, "trials": 3}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    trials = json.loads((tmp_path / "report.json").read_text())["trials"]
    scenario = netsim.ScenarioConfig.from_dict(raw)
    assert [t["extra"]["diameter"] for t in trials] == [
        scenario.resolve_topology(t).diameter() for t in range(3)]


def test_sweep_diameter_is_the_largest_of_the_cells_trials(tmp_path):
    rc = main(["sweep", "--config", str(CONFIGS / "sweep_base.json"),
               "--vary", "family=tree", "--vary", "n=16", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    with open(tmp_path / "sweep.csv") as fh:
        row, = csv.DictReader(fh)
    base = json.loads((CONFIGS / "sweep_base.json").read_text())
    scenario = netsim.ScenarioConfig.from_dict(
        dict(base, topology={"family": "tree", "n": 16}))
    assert int(row["n"]) == 16
    assert int(row["diameter"]) == max(scenario.resolve_topology(t).diameter()
                                       for t in range(scenario.trials))


def test_relative_topology_path_is_read_beside_the_config(tmp_path, monkeypatch):
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    (cfg_dir / "path3.json").write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
    config = cfg_dir / "base.json"
    config.write_text(json.dumps({"protocol": "avg-trusted", "topology": "path3.json",
                                  "inputs": [1, 2, 3]}))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(config), "--out", "run"]) == EXIT_OK
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["scenario"]["topology"] == "path3.json"
    assert report["trials"][0]["decided_values"]["0"] == pytest.approx(2.0)
    assert main(["sweep", "--config", str(config), "--vary", "seed=1,2",
                 "--out", "sweep"]) == EXIT_OK
    with open(tmp_path / "sweep" / "sweep.csv") as fh:
        assert [row["n"] for row in csv.DictReader(fh)] == ["3", "3"]


RING4 = {"family": "ring", "n": 4}


@pytest.mark.parametrize("config, extra", [
    (3, []),
    ([1, 2], ["--seed", "3"]),
    ({"protocol": "avg-trusted", "topology": {"family": "ring"},
      "inputs": {"random_uniform": [0, 1]}}, []),
    ({"protocol": "avg-trusted", "topology": RING4, "inputs": [1, 2, 3, 4],
      "seed": "a"}, []),
    ({"protocol": "avg-trusted", "topology": RING4, "inputs": [1, 2, 3, 4],
      "max_latency": "a"}, []),
    ({"protocol": "election", "topology": RING4,
      "inputs": [1, {"primary": 0}, {"primary": 1}, {"primary": 2}]}, []),
    ({"protocol": "avg-trusted", "topology": RING4, "inputs": 5}, []),
    ({"protocol": "avg-trusted", "topology": RING4, "inputs": [1, None, 3, 4]}, []),
    ({"protocol": "avg-trusted", "topology": RING4,
      "inputs": {"random_uniform": [0, "a"]}}, []),
    ({"protocol": "avg-untrusted", "topology": RING4, "inputs": [1, 2, 3, 4],
      "initiators": "a"}, []),
    ({"protocol": "avg-trusted", "topology": RING4, "inputs": [1, 2, 3, 4],
      "faults": 5}, []),
    ({"protocol": "avg-trusted", "topology": {"n": True, "edges": []}, "inputs": [1]}, []),
    ({"protocol": "avg-trusted", "topology": {"n": 4, "edges": [[0, 1.7], [1, 2], [2, 3]]},
      "inputs": [1, 2, 3, 4]}, []),
    ({"protocol": "avg-trusted", "topology": {"n": 4, "edges": [[0, True], [1, 2], [2, 3]]},
      "inputs": [1, 2, 3, 4]}, []),
    ({"protocol": "avg-trusted", "topology": {"n": 2, "edges": [[0, "1"]]},
      "inputs": [1, 2]}, []),
    ({"protocol": "avg-trusted", "topology": {"n": 2, "edges": [[0, None]]},
      "inputs": [1, 2]}, []),
    ({"protocol": "avg-trusted", "topology": {"n": 2, "edges": 5}, "inputs": [1, 2]}, []),
    ({"protocol": "avg-trusted", "topology": {"family": "random", "n": 4, "p": None},
      "inputs": [1, 2, 3, 4]}, []),
    ({"protocol": "avg-trusted", "topology": {"family": "random", "n": 4, "p": True},
      "inputs": [1, 2, 3, 4]}, []),
    ({"protocol": "avg-trusted", "topology": {"family": "random", "n": 6, "P": 0.9},
      "inputs": {"random_uniform": [0, 1]}}, []),
    ({"protocol": "avg-trusted", "topology": dict(RING4, edges=[[0, 1]]),
      "inputs": [1, 2, 3, 4]}, []),
    ({"protocol": "avg-trusted", "topology": {"n": 2, "edges": [[0, 1]], "p": 0.5},
      "inputs": [1, 2]}, []),
    ({"protocol": "avg-trusted", "topology": str(CONFIGS / "no-such-topology.json"),
      "inputs": [1, 2, 3, 4]}, []),
    ({"protocol": "avg-trusted", "topology": {"family": "random", "n": 256, "p": 0},
      "inputs": {"random_uniform": [0, 1]}}, []),
    ({"protocol": "avg-trusted", "topology": {"family": "random", "n": 4, "p": 1.5},
      "inputs": [1, 2, 3, 4]}, []),
    ({"protocol": "avg-trusted", "topology": {"family": ["ring"], "n": 4},
      "inputs": [1, 2, 3, 4]}, []),
    ({"protocol": "avg-trusted", "topology": RING4, "inputs": [1, 2, 3, 4],
      "expect_termination": "false"}, []),
    ({"protocol": "avg-trusted", "topology": RING4, "inputs": [1, 2, 3, 4],
      "faults": [{"process": 1, "time": 5, "kind": "byzantine"}]}, []),
    ({"protocol": "avg-untrusted", "topology": RING4, "inputs": [1, 2, 3, 4],
      "initiators": []}, []),
    # each input is finite, but n times the largest (or its square) is not
    ({"protocol": "avg-trusted", "topology": RING4, "inputs": [1e308] * 4}, []),
    ({"protocol": "avg-untrusted", "topology": RING4, "inputs": [1e308] * 4}, []),
    ({"protocol": "outlier", "c": 1.0, "topology": RING4, "inputs": [1e160, 1, 2, 3]}, []),
    ({"protocol": "avg-trusted", "topology": RING4,
      "inputs": {"random_uniform": [0, 1], "lo": 5}}, []),
    ({"protocol": "avg-trusted", "topology": RING4, "inputs": [1, 2, 3, float("nan")]}, []),
    ({"protocol": "avg-trusted", "topology": RING4, "inputs": [1, 2, 3, float("inf")]}, []),
    ({"protocol": "outlier", "c": 1.0, "topology": RING4,
      "inputs": [1, 2, 3, float("nan")]}, []),
    ({"protocol": "outlier", "c": 1.0, "topology": RING4,
      "inputs": [1, 2, 3, float("inf")]}, []),
    ({"protocol": "avg-trusted", "topology": {"family": "ring", "n": 1}, "inputs": [1]}, []),
    ({"protocol": "avg-trusted", "topology": 5, "inputs": [1, 2, 3, 4]}, []),
    ({"protocol": "avg-untrusted", "topology": {"family": "path", "n": 1}, "inputs": [5]}, []),
    ({"protocol": "election", "topology": {"family": "ring", "n": 3},
      "inputs": [{"primary": 0, "secondary": 7}, {"primary": 1}, {"primary": 2}]}, []),
    # G(40, 0.001) is not drawn connected in the family's 1,000 attempts
    ({"protocol": "avg-trusted", "topology": {"family": "random", "n": 40, "p": 0.001},
      "inputs": {"random_uniform": [0, 1]}}, []),
    # both bounds are finite, but their distance is not, so a draw is infinite
    ({"protocol": "avg-trusted", "topology": RING4,
      "inputs": {"random_uniform": [-1.7e308, 1.7e308]}}, []),
    ({"protocol": "avg-trusted", "topology": {"family": "path", "n": 0},
      "inputs": {"random_uniform": [0, 1]}}, []),
], ids=["number", "list-with-seed", "family-without-n", "string-seed",
        "string-max-latency", "ballot-not-a-mapping", "number-inputs", "null-input",
        "string-uniform-bound", "string-initiators", "number-faults", "boolean-n",
        "fractional-edge-id", "boolean-edge-id", "string-edge-id", "null-edge-id",
        "number-edges", "null-p", "boolean-p", "misspelt-p", "edges-beside-family",
        "p-beside-edges", "missing-topology-file", "zero-p-n256", "p-above-one",
        "list-family", "string-expect-termination", "crash-fault-with-a-kind",
        "no-initiators", "avg-trusted-sum-overflows", "avg-untrusted-sum-overflows",
        "outlier-sum-of-squares-overflows", "key-beside-random-uniform",
        "avg-trusted-nan-input", "avg-trusted-infinite-input", "outlier-nan-input",
        "outlier-infinite-input", "one-process-ring", "number-topology",
        "one-process-untrusted", "secondary-out-of-range", "undrawable-random-family",
        "uniform-draw-past-float-range", "zero-process-path"])
def test_mistyped_config_exits_2_with_one_line(tmp_path, capsys, config, extra):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)] + extra)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "infinity"])
@pytest.mark.parametrize("key, config", [
    ("c", {"protocol": "outlier", "topology": RING4, "inputs": [1, 2, 3, 400]}),
    ("noise_epsilon", {"protocol": "avg-trusted", "topology": RING4,
                       "inputs": [1, 2, 3, 4]}),
], ids=["c", "noise_epsilon"])
def test_non_finite_config_value_exits_2(tmp_path, capsys, key, config, value):
    # json reads the NaN and Infinity literals; neither value means anything here
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, key: value}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


# float() and random.uniform raised OverflowError on these, a traceback with exit 1
@pytest.mark.parametrize("config", [
    {"protocol": "avg-trusted", "inputs": [1, 2, 10 ** 400]},
    {"protocol": "outlier", "c": 1.0, "inputs": [1, 2, 10 ** 400]},
    {"protocol": "avg-trusted", "inputs": [1, 2, -10 ** 400]},
    {"protocol": "avg-trusted", "inputs": {"random_uniform": [0, 10 ** 400]}},
    {"protocol": "election", "inputs": {"random_uniform": [-10 ** 400, 0]}},
], ids=["avg-trusted", "outlier", "negative", "uniform-bound", "election-uniform-bound"])
def test_an_input_past_float_range_exits_2_naming_inputs(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "topology": {"family": "ring", "n": 3}}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: inputs must be finite, got ")
    assert err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


# json.load raises no JSONDecodeError on these: UnicodeDecodeError, a
# ValueError, on bytes that are not UTF-8, and RecursionError on deep nesting
@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "nested-too-deep"])
@pytest.mark.parametrize("unreadable", ["config", "topology"])
def test_a_file_json_cannot_read_exits_2_with_one_line(tmp_path, capsys, unreadable,
                                                       content):
    (tmp_path / "bytes.json").write_bytes(content)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": "avg-trusted", "topology": "bytes.json",
                               "inputs": [1, 2, 3]}))
    config = tmp_path / ("bytes.json" if unreadable == "config" else "cfg.json")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("value", [1e308, 10 ** 400], ids=["1e308", "int-past-float-range"])
@pytest.mark.parametrize("config", [
    {"protocol": "avg-trusted", "inputs": [1, 2, 3, 4]},
    {"protocol": "election", "inputs": [{"primary": 0}, {"primary": 1},
                                        {"primary": 0}, {"primary": 2}]},
], ids=["avg-trusted", "election"])
def test_noise_range_past_float_range_exits_2(tmp_path, capsys, config, value):
    # noise is drawn from [-eps, eps]; 2 * 1e308 overflowed in the first encrypt
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "topology": RING4, "seed": 1, "noise_epsilon": value}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: noise_epsilon") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("config", [
    {"protocol": "avg-trusted"},
    {"protocol": "avg-untrusted"},
    {"protocol": "outlier", "c": 2.0, "variance_route": "decrypt"},
    {"protocol": "outlier", "c": 2.0, "variance_route": "encrypted"},
], ids=["avg-trusted", "avg-untrusted", "outlier-decrypt", "outlier-encrypted"])
def test_noise_at_the_limit_exits_2(tmp_path, capsys, config):
    # the largest accepted noise overflows the payload to inf, and inf - inf
    # gave NaN slots (exit 4); the infinite noise bound now names the cause
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "topology": RING4, "inputs": [1, 2, 3, 4],
                               "seed": 1, "noise_epsilon": MAX_NOISE_EPSILON}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (f"config error: noise_epsilon {MAX_NOISE_EPSILON!r} is too large: "
                   "the noise bound of a prepared aggregate is not finite, "
                   "so it holds no result\n")
    assert not (tmp_path / "report.json").exists()


def test_unknown_variance_route_is_named(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": "outlier", "c": 1.0, "topology": RING4,
                               "inputs": [1, 2, 3, 400], "variance_route": "plain"}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == ("config error: variance_route must be decrypt or encrypted, "
                   "got 'plain'\n")


def test_election_noise_too_large_to_tally_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": "election", "topology": RING4, "seed": 1,
                               "inputs": [{"primary": 0}, {"primary": 1},
                                          {"primary": 0}, {"primary": 2}],
                               "noise_epsilon": 0.1}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: noise_epsilon") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


RING48 = {"family": "ring", "n": 48}


# duplicate counts reach about 2^34 on ring(48), so the payloads overflow
# although n times the largest input fits in float64; the CLI silences
# numpy's overflow warnings, which pytest would turn into errors
@pytest.mark.parametrize("config", [
    {"protocol": "avg-trusted", "topology": RING48, "inputs": [1e300] * 48},
    {"protocol": "avg-untrusted", "topology": RING48, "inputs": [1e300] * 48,
     "initiators": [0]},
    {"protocol": "outlier", "c": 1.5, "topology": RING48,
     "inputs": {"random_uniform": [1e150, 2e150]}},
], ids=["avg-trusted", "avg-untrusted", "outlier"])
def test_overflowing_aggregate_exits_4(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


def test_an_overflowing_run_writes_one_stderr_line_outside_pytest(tmp_path):
    # pytest's warning filters hide what numpy prints to a plain process
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": "avg-trusted", "topology": RING48,
                               "inputs": [1e300] * 48}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "consentry.cli", "run", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_INTERNAL
    assert proc.stderr.startswith("internal error: PreparedSlotsError:")
    assert proc.stderr.count("\n") == 1


def test_a_noise_free_run_leaves_numpy_random_unloaded(tmp_path):
    # a fresh interpreter, so no earlier import has loaded numpy.random
    script = ("import sys, numpy\n"
              "before = 'numpy.random' in sys.modules\n"
              "from consentry import cli\n"
              "code = cli.main(sys.argv[1:])\n"
              "print(before, code, 'numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, "run", "--config", str(CONFIGS / "ring4_avg.json"),
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    before, code, after = proc.stdout.splitlines()[-1].split()
    if before == "True":
        pytest.skip("this numpy loads numpy.random with numpy itself")
    assert (code, after) == (str(EXIT_OK), "False")


def test_encrypted_route_near_1e9_decides_the_oracle_value(tmp_path, capsys):
    # the one-pass variance avg(v^2) - mu^2 came out at -128 here
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "protocol": "outlier", "topology": RING4, "c": 1.0, "seed": 1,
        "variance_route": "encrypted",
        "inputs": [999999999.428, 1000000000.743, 1000000001.412, 999999999.085]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    trial = json.loads((tmp_path / "report.json").read_text())["trials"][0]
    assert trial["termination"] == "decided"
    assert trial["decided_values"]["0"] == pytest.approx(1000000000.0855, abs=1e-6)


@pytest.mark.parametrize("command, extra", [
    ("run", []),
    ("run", ["--seed", "-1"]),
    ("sweep", ["--vary", "seed=-1"]),
], ids=["config", "run-option", "sweep-assignment"])
def test_negative_seed_exits_2_naming_the_key(tmp_path, capsys, command, extra):
    config = json.loads((CONFIGS / "sweep_base.json").read_text())
    if not extra:
        config["seed"] = -3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")] + extra)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: seed ") and err.count("\n") == 1


@pytest.mark.parametrize("command, extra", [("run", []), ("sweep", ["--vary", "n=4"])],
                         ids=["run", "sweep"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "path-under-a-file"])
def test_an_out_path_that_cannot_be_a_directory_exits_2(tmp_path, capsys, monkeypatch,
                                                        command, extra, under):
    # a FileExistsError or NotADirectoryError traceback once ended the run,
    # and `run` met it only after every trial had run
    monkeypatch.setattr(netsim, "run", lambda *a, **kw: pytest.fail("a trial ran"))
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "sub" if under else taken
    rc = main([command, "--config", str(CONFIGS / "sweep_base.json"),
               "--out", str(out)] + extra)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory {out}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, extra, name", [
    ("run", [], "report.json"),
    ("run", [], "summary.csv"),
    ("sweep", ["--vary", "n=4"], "sweep.csv"),
], ids=["run-report", "run-summary", "sweep"])
def test_an_output_file_that_cannot_be_written_exits_2(tmp_path, capsys, command, extra,
                                                        name):
    # a directory in the file's place once ended in an IsADirectoryError
    # traceback, with exit code 1 for `sweep`
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    rc = main([command, "--config", str(CONFIGS / "sweep_base.json"),
               "--out", str(out)] + extra)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / name}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
