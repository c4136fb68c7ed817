"""CLI runner: file outputs, exit codes, sweeps."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from consentry import netsim
from consentry.avg_consensus import PreparedSlotsError, PrivacyGuardError
from consentry.cli import EXIT_ACCEPTANCE, EXIT_CONFIG, EXIT_INTERNAL, EXIT_OK, main
from consentry.leader_election import CorruptedTallyError
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


def test_run_unexpected_termination_exits_3(tmp_path):
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
    assert main(["run", "--config", str(cfg2), "--out", str(tmp_path)]) == EXIT_OK


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


@pytest.mark.parametrize("ballot", [{"primary": 0, "secondary": 0}, {"primary": 7}])
def test_bad_ballot_is_a_config_error(tmp_path, capsys, ballot):
    cfg = json.loads((CONFIGS / "fig2_election.json").read_text())
    cfg["inputs"][0] = ballot
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("fault", [CorruptedTallyError, PrivacyGuardError,
                                   PreparedSlotsError])
def test_internal_fault_exits_4(tmp_path, capsys, monkeypatch, fault):
    def broken(scenario, trial=0):
        raise fault("injected")
    monkeypatch.setattr(netsim, "run", broken)
    rc = main(["run", "--config", str(CONFIGS / "ring4_avg.json"),
               "--out", str(tmp_path)])
    assert rc == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and err.count("\n") == 1


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
], ids=["number", "list-with-seed", "family-without-n", "string-seed",
        "string-max-latency", "ballot-not-a-mapping", "number-inputs", "null-input",
        "string-uniform-bound", "string-initiators", "number-faults", "boolean-n",
        "fractional-edge-id", "boolean-edge-id", "string-edge-id", "null-edge-id",
        "number-edges", "null-p", "boolean-p", "misspelt-p", "edges-beside-family",
        "p-beside-edges", "missing-topology-file", "zero-p-n256", "p-above-one",
        "list-family", "string-expect-termination", "crash-fault-with-a-kind",
        "no-initiators", "avg-trusted-sum-overflows", "avg-untrusted-sum-overflows",
        "outlier-sum-of-squares-overflows"])
def test_mistyped_config_exits_2_with_one_line(tmp_path, capsys, config, extra):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)] + extra)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


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
