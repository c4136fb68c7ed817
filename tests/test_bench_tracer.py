"""The benchmark tracer's patch points exist in the package, are restored,
and are the ones a simulation calls."""

import importlib.util
import json
import types
from pathlib import Path

from consentry import (avg_consensus, cli, leader_election, netsim,
                       outlier_consensus, topology)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
CONFIGS = TRACER.parent.parent / "configs"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_name_and_restores_it():
    pkg = types.SimpleNamespace(
        netsim=netsim, cli=cli, topology=topology, avg_consensus=avg_consensus,
        outlier_consensus=outlier_consensus, leader_election=leader_election)
    driver = types.SimpleNamespace(set_up=lambda raw: raw)
    tracer = load_tracer().Tracer(pkg, driver)
    tracer.install()
    try:
        patched = list(tracer._saved)
        assert len({(id(owner), attr) for owner, attr, _ in patched}) == len(patched) == 23
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    assert not tracer._saved
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


def test_tracer_counts_the_folds_and_prepares_of_an_election():
    # a crash in the plan (f = 1) runs lineages, which fold copies with
    # `on_receive_election`; a fault-free run sums up a tree, folds no
    # lineage and prepares one copy, at the root
    config = json.loads((CONFIGS / "fig2_election.json").read_text())
    pkg = types.SimpleNamespace(
        netsim=netsim, cli=cli, topology=topology, avg_consensus=avg_consensus,
        outlier_consensus=outlier_consensus, leader_election=leader_election)
    tracer = load_tracer().Tracer(pkg, types.SimpleNamespace(set_up=lambda raw: raw))
    tracer.install()
    try:
        for faults in ([{"process": 3, "time": 2}], []):
            tracer.begin_op()
            netsim.run(netsim.ScenarioConfig.from_dict(dict(config, faults=faults)))
            tracer.end_op("election")
    finally:
        tracer.uninstall()
    assert [(op["fold_attempts"], op["fold_merges"], op["prepare_calls"])
            for op in tracer.ops] == [(25, 18, 2), (0, 0, 1)]
