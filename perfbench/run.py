"""Benchmark of the derangetropy package: one seeded, closed-loop workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
One client runs operations back to back for S seconds after set-up and one
untimed warm-up operation. Set-up, `import derangetropy`, is timed in this
process and, in an untraced run, in fresh interpreters started between
operations over the timed part. Every operation's output is checked against an
independent oracle (checks.py). The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the line before it
records the seed and the machine.

--trace 0 reports the end-to-end metrics and installs no wrappers.
--trace 1 alternates untraced operations with operations run while every
layer's public functions are wrapped (spans.py), for S seconds, and reports
the per-layer metrics, each the median over traced operations.
layer_map.json says which end-to-end metric and workload each layer metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# BENCHMARK.json lists the workloads a benchmark run makes; eval_normal_csv and
# energy_tabulated_json are left out of it (their run-to-run spread on a shared
# 2-core host is too wide for the bounds) and can be run by name
WORKLOAD_NAMES = ("eval_normal_csv", "energy_tabulated_json", "recurse_normal_1m", "verify_all")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is timed in this process and, spread over the timed part of an
# untraced run, in SETUP_RUNS - 1 fresh interpreters
SETUP_RUNS = 11
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import derangetropy; print(time.perf_counter() - t)"
)


def _probe_import() -> float:
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
    )
    return float(done.stdout.strip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    # before numpy is first imported, so its thread pools start with one thread
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("DERANGETROPY_SEED_TOL", None)

    if not (SRC / "derangetropy" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'derangetropy'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # set-up is `import derangetropy`, numpy included; the harness modules
    # import numpy, so they are imported only after this measurement
    start = time.perf_counter()
    import derangetropy

    setup = [time.perf_counter() - start]
    if not Path(derangetropy.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported derangetropy from {derangetropy.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), derangetropy, setup, ROOT,
                         probe_setup=_probe_import, setup_probes=SETUP_RUNS - 1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
