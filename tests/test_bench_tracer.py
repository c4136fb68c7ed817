"""The benchmark tracer's patch points exist in the package and are restored."""

import importlib.util
import types
from pathlib import Path

from consentry import (avg_consensus, cli, leader_election, netsim,
                       outlier_consensus, topology)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
