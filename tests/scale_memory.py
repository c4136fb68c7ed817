"""Peak memory at noise 1e-9 stays near its noise-0 reading at scale.

A prepared aggregate that no keyholder opens holds its source, its weights
recipe and the noise stream's state, not the noise its calls will draw.  So
avg-trusted G(2048, 0.0112) (seed 1, sync, 2,048 slots, every process a
decider that prepares) must peak at 1e-9 within `RATIO` times its noise-0
peak; holding each prepare's noise rows until a read took it from about
193 to 931 MiB.  Each run has a process of its own, so each peak RSS
(`ru_maxrss`, KiB on Linux) is its own.  Run from the repository root with

    PYTHONPATH=src python tests/scale_memory.py

It prints both peaks and exits 1 if the 1e-9 one exceeds `RATIO` times the
noise-0 one.  pytest does not collect it: the two runs take about 4 s.
"""

import json
import subprocess
import sys

RAW = {"protocol": "avg-trusted", "topology": {"family": "random", "n": 2048, "p": 0.0112},
       "inputs": {"random_uniform": [0, 100]}, "seed": 1, "schedule": "sync"}
RATIO = 1.25
RUN = ("import json, resource, sys\n"
       "from consentry import netsim\n"
       "report = netsim.run(netsim.ScenarioConfig.from_dict(json.loads(sys.argv[1])))\n"
       "assert report.termination == 'decided', report.termination\n"
       "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")


def peak_mib(noise_epsilon: float) -> float:
    """Peak RSS, in MiB, of a new interpreter that runs `RAW` at `noise_epsilon`."""
    raw = json.dumps(dict(RAW, noise_epsilon=noise_epsilon))
    done = subprocess.run([sys.executable, "-c", RUN, raw], capture_output=True,
                          text=True, check=True)
    return int(done.stdout) / 1024


def main() -> int:
    exact, noisy = peak_mib(0.0), peak_mib(1e-9)
    print(f"peak RSS: {exact:.0f} MiB at noise 0, {noisy:.0f} MiB at 1e-9 "
          f"({noisy / exact:.2f}x, at most {RATIO}x)")
    if noisy > RATIO * exact:
        print(f"peak RSS at 1e-9 exceeds {RATIO}x the noise-0 peak", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
