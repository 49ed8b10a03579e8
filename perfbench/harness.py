"""The closed loop, its timing and the metrics each run reports."""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from benchstats import median, quartiles
from checks import CheckFailed
from spans import Recorder, layer_summary
from workloads import WORKLOADS


@dataclass
class OpRecord:
    op: int
    seconds: float
    ok: bool
    bytes_out: int


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_one(wl, op_id: int, recorder: Recorder | None = None) -> OpRecord:
    """Time one operation, then check its output outside the timed part."""
    if recorder is not None:
        recorder.op = op_id
    start = time.perf_counter()
    try:
        result = wl.op()
    except Exception as exc:  # the loop goes on; the operation counts as failed
        print(f"op {op_id}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return OpRecord(op_id, time.perf_counter() - start, False, 0)
    seconds = time.perf_counter() - start
    n_bytes = wl.bytes_out()
    try:
        wl.check(result)
    except CheckFailed as exc:
        print(f"op {op_id}: check failed: {exc}", file=sys.stderr)
        return OpRecord(op_id, seconds, False, n_bytes)
    return OpRecord(op_id, seconds, True, n_bytes)


def run_for(wl, seconds: float, first_op: int, probe=None, probes: int = 0) -> tuple[list[OpRecord], list[float]]:
    """Closed loop, one client: start the next operation until `seconds` have passed.

    Between operations, outside their timing, `probe()` is called `probes`
    times at even intervals over the run, so that its samples see the same
    changes of the shared host's speed as the operations do. Returns the
    records and the probe results.
    """
    records: list[OpRecord] = []
    probed: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    while not records or time.perf_counter() < deadline:
        records.append(run_one(wl, first_op + len(records)))
        if len(probed) < probes and time.perf_counter() - start >= len(probed) * seconds / probes:
            probed.append(probe())
    probed += [probe() for _ in range(probes - len(probed))]
    return records, probed


def end_to_end(timed: list[OpRecord], setup: list[float]) -> dict[str, float]:
    """ops_per_s counts correct operations over the time spent in operations."""
    return {
        "ops_per_s": sum(r.ok for r in timed) / sum(r.seconds for r in timed),
        "setup_s": median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, package, seconds: float, work_dir: Path) -> tuple[dict[str, float], list[OpRecord]]:
    """Untraced and traced operations in turn, so that both see the same machine
    state; the spans are written to work_dir."""
    recorder = Recorder()
    untraced: list[OpRecord] = []
    traced: list[OpRecord] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(run_one(wl, 1 + len(untraced) + len(traced)))
        recorder.install(package)
        try:
            traced.append(run_one(wl, 1 + len(untraced) + len(traced), recorder))
        finally:
            recorder.uninstall()
    recorder.dump(work_dir / "spans.jsonl")
    metrics = layer_summary(recorder.spans, {r.op: r.seconds for r in traced})
    metrics["cli.bytes_out"] = median(r.bytes_out for r in traced)
    metrics["trace.op_p50_s"] = median(r.seconds for r in traced)
    metrics["trace.untraced_op_p50_s"] = median(r.seconds for r in untraced)
    metrics["trace.overhead_ratio"] = metrics["trace.op_p50_s"] / metrics["trace.untraced_op_p50_s"]
    return metrics, untraced + traced


def run(workload: str, seed: int, seconds: float, trace: bool, package, setup: list[float], root: Path,
        probe_setup=None, setup_probes: int = 0) -> dict:
    """Set up the workload, warm up, measure, and return the result object.

    `setup` holds set-up times measured before the call; an untraced run adds
    `setup_probes` calls of `probe_setup()`, spread over its timed part.

    The metric names and units come from root/BENCHMARK.json: `per_layer`
    for a traced run, `end_to_end` otherwise.
    """
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    work_dir = root / ".perfbench_out" / f"{workload}-seed{seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[workload](seed, work_dir)
    try:
        warmup = run_one(wl, 0)
        if trace:
            metrics, timed = per_layer(wl, package, seconds, work_dir)
        else:
            timed, probed = run_for(wl, seconds, 1, probe_setup, setup_probes)
            setup = [*setup, *probed]
            metrics = end_to_end(timed, setup)
    finally:
        wl.cleanup()
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not both measured and in BENCHMARK.json")

    ops = [warmup, *timed]
    failed = sum(not r.ok for r in ops)
    info = {
        "workload": workload,
        "seed": seed,
        "seed_used": wl.seeded,
        "trace": int(trace),
        "op_p50_s": {"value": median(r.seconds for r in timed), "unit": "s", "samples": len(timed)},
        "op_quartiles_s": quartiles(r.seconds for r in timed),
        "failed_op_ratio": failed / len(ops),
        "setup_runs_s": setup,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(work_dir / "result.json", "w") as fh:
        json.dump({"info": info, "op_seconds": [r.seconds for r in timed], **result}, fh, indent=2)
    print(json.dumps({"info": info}))
    return result
