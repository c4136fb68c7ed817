"""Six runs past the matrix's size, under both engines, must write the same bytes.

Each case runs once under `seeded_backend` and once under the reference
engine of `reference_engine.py`, which runs `add_many` as the `add_ct`
loop it stands for, and `weighted_rotate_sum`, the engine's one deferred
op, eagerly as `mult_pt`, the `rotate` and `add_ct` loop and
`mark_prepared`.  The cases reach where the n = 8 matrix does not: batches
of hundreds of rows, 1,024 slots, and noise tracked over long folds.  Run from the repository root with

    PYTHONPATH=src python tests/scale_differential.py

It prints one line per case and exits 1 naming each case whose report bytes
differ.  pytest does not collect it: the six cases take about 10 s.
"""

import sys
import time

import reference_engine
from consentry import avg_consensus, leader_election, netsim, outlier_consensus
from consentry.netsim import ScenarioConfig

UNIFORM = {"random_uniform": [-100, 100]}
G128 = {"family": "random", "n": 128, "p": 0.4}
CASES = {
    "avg-trusted G(128, 0.4) eps 1e-9": {
        "protocol": "avg-trusted", "topology": G128, "noise_epsilon": 1e-9},
    "avg-trusted ring(256) async": {
        "protocol": "avg-trusted", "topology": {"family": "ring", "n": 256},
        "schedule": "async"},
    "avg-untrusted G(32, 0.4)": {
        "protocol": "avg-untrusted", "topology": {"family": "random", "n": 32, "p": 0.4}},
    "outlier encrypted G(128, 0.4)": {
        "protocol": "outlier", "c": 1.5, "variance_route": "encrypted", "topology": G128},
    # round 3 prepares two deferred channels per decider, here under noise
    "outlier decrypt G(128, 0.4) eps 1e-9": {
        "protocol": "outlier", "c": 1.5, "variance_route": "decrypt", "topology": G128,
        "noise_epsilon": 1e-9},
    # at 1e-9 per-slot rounding differences average away below one ulp of
    # the decided mean, so rows added out of order went unseen
    "avg-trusted complete(600) eps 1e-6": {
        "protocol": "avg-trusted", "topology": {"family": "complete", "n": 600},
        "noise_epsilon": 1e-6},
}
MODULES = (avg_consensus, outlier_consensus, leader_election)


def report_bytes(raw: dict, seeded) -> str:
    """The report JSON of one run of `raw` with `seeded` as every protocol
    module's engine factory."""
    saved = [module.seeded_backend for module in MODULES]
    for module in MODULES:
        module.seeded_backend = seeded
    try:
        return netsim.run(ScenarioConfig.from_dict(dict(raw, inputs=UNIFORM, seed=1))).to_json()
    finally:
        for module, original in zip(MODULES, saved):
            module.seeded_backend = original


def main() -> int:
    differ = []
    for name, raw in CASES.items():
        start = time.perf_counter()
        slot = report_bytes(raw, avg_consensus.seeded_backend)
        middle = time.perf_counter()
        reference = report_bytes(raw, reference_engine.seeded_reference_backend)
        end = time.perf_counter()
        same = slot == reference
        print(f"{'same' if same else 'DIFFER'}  {name}: "
              f"{middle - start:.1f} s + {end - middle:.1f} s", flush=True)
        if not same:
            differ.append(name)
    if differ:
        print(f"report bytes differ between the engines: {'; '.join(differ)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
