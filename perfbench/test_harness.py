"""Tests of the benchmark harness: statistics, spans, output checks and the manifest.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import derangetropy as dt  # noqa: E402
from derangetropy import cli  # noqa: E402

import benchstats  # noqa: E402
import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402

N = 20_001
TAIL_EPS = 1e-6


# -- statistics ---------------------------------------------------------------

def test_quartiles_match_exclusive_method():
    assert benchstats.quartiles(range(1, 10)) == (2.5, 5.0, 7.5)
    assert benchstats.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.25, 2.5, 3.75)


def test_one_value_is_its_own_quartiles():
    assert benchstats.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert benchstats.median([3.0, 1.0, 2.0, 10.0]) == 2.5


def test_median_and_quartiles_reject_no_values():
    with pytest.raises(ValueError):
        benchstats.median([])
    with pytest.raises(ValueError):
        benchstats.quartiles([])


# -- spans --------------------------------------------------------------------

def _tree() -> list[Span]:
    # op 0: main [0, 10] -> a [1, 3], b [4, 6] -> c [4.5, 5.5]; a second top-level span d [10, 11]
    return [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("distributions.Normal.cdf", 1.0, 3.0, 0, 0),
        Span("distributions.Normal.quantile", 4.0, 6.0, 0, 0),
        Span("distributions.Normal.cdf", 4.5, 5.5, 2, 0),
        Span("functional.derangetropy_kernel", 10.0, 11.0, -1, 0, work=100.0),
    ]


def test_self_time_subtracts_children_once():
    assert spans.self_times(_tree()) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])


def test_self_time_clips_children_to_the_parent_and_merges_overlaps():
    tree = [Span("p", 0.0, 4.0, -1, 0), Span("a", 1.0, 3.0, 0, 0), Span("b", 2.0, 5.0, 0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_op_metrics_from_a_hand_built_tree():
    m = spans.op_metrics(_tree(), op_seconds=12.0)
    assert m["cli.main_s"] == pytest.approx(10.0)
    assert m["cli.self_s"] == pytest.approx(6.0)
    # the nested cdf span sits under quantile, not under another cdf, so both count
    assert m["distributions.cdf_s"] == pytest.approx(3.0)
    assert m["distributions.cdf_calls"] == 2.0
    assert m["distributions.quantile_s"] == pytest.approx(2.0)
    assert m["functional.kernel_points"] == 100.0
    assert m["functional.kernel_bytes"] == 1600.0
    assert m["trace.coverage"] == pytest.approx(11.0 / 12.0)
    assert m["verify.run_suite_s"] == 0.0


def test_time_metrics_count_nested_matches_once():
    tree = [Span("numerics.find_root", 0.0, 4.0, -1, 0), Span("numerics.find_root", 1.0, 2.0, 0, 0)]
    m = spans.op_metrics(tree, op_seconds=4.0)
    assert m["numerics.find_root_s"] == pytest.approx(4.0)
    assert m["numerics.find_root_calls"] == 2.0


def test_split_by_op_reindexes_parents():
    tree = _tree() + [Span("cli.main", 20.0, 21.0, -1, 1), Span("numerics.integrate", 20.2, 20.4, 5, 1)]
    by_op = spans.split_by_op(tree)
    assert [s.parent for s in by_op[1]] == [-1, 0]
    assert len(by_op[0]) == 5


def test_install_wraps_every_binding_and_uninstall_restores():
    from derangetropy import functional, recursion, verify

    original = functional.derangetropy_kernel
    recorder = spans.Recorder()
    recorder.install(dt)
    try:
        for namespace in (dt, functional, recursion, verify):
            assert namespace.derangetropy_kernel is not original
            assert namespace.derangetropy_kernel.__wrapped__ is original
        recorder.op = 7
        g0 = dt.discretize(dt.Normal(0.0, 1.0), 1001, TAIL_EPS)
        dt.iterate(g0, 2)
    finally:
        recorder.uninstall()
    for namespace in (dt, functional, recursion, verify):
        assert namespace.derangetropy_kernel is original
    assert not hasattr(dt.Normal.cdf, "__wrapped__")

    names = [s.name for s in recorder.spans]
    assert names.count("recursion.apply_derangetropy") == 2
    assert names.count("functional.derangetropy_kernel") == 2
    kernels = [s for s in recorder.spans if s.name == "functional.derangetropy_kernel"]
    assert all(recorder.spans[s.parent].name == "recursion.apply_derangetropy" for s in kernels)
    assert all(s.op == 7 for s in recorder.spans)
    assert kernels[0].work == 1001.0


# -- output checks ------------------------------------------------------------

@pytest.fixture(scope="module")
def eval_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("eval") / "eval.csv"
    assert cli.main(["eval", "--dist", "normal:1.5,0.7", "--points", str(N), "--out", str(out)]) == 0
    return out.read_text()


def _check_eval(text):
    checks.check_eval_csv(text, 1.5, 0.7, N, TAIL_EPS, [0, 17, N // 2, N - 1])


def test_eval_check_accepts_the_program_output(eval_text):
    _check_eval(eval_text)


def test_eval_check_rejects_one_rho_perturbed_by_1e6_relative(eval_text):
    lines = eval_text.split("\n")
    row = 12_345  # a row no sampled mpmath check looks at
    cells = lines[row].split(",")
    cells[3] = repr(float(cells[3]) * (1.0 + 1e-6))
    lines[row] = ",".join(cells)
    with pytest.raises(checks.CheckFailed, match="rho"):
        _check_eval("\n".join(lines))


def test_eval_check_rejects_a_dropped_row(eval_text):
    lines = eval_text.split("\n")
    del lines[500]
    with pytest.raises(checks.CheckFailed, match="rows"):
        _check_eval("\n".join(lines))


def test_cli_workload_checks_each_output_that_differs_from_a_verified_one(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "POINTS", N)
    wl = workloads.EvalNormalCsv(1, tmp_path)
    wl.check(wl.op())
    verified = wl.verified
    lines = verified.split("\n")
    del lines[500]
    wl.out.write_text("\n".join(lines))
    with pytest.raises(checks.CheckFailed, match="rows"):
        wl.check(None)
    wl.out.write_text(verified)
    wl.check(None)
    assert wl.verified == verified and not wl.out.exists()


@pytest.fixture(scope="module")
def energy_case(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("energy")
    xs, fs = workloads.mixture_table(random.Random(3), N)
    table = tmp / "mixture.csv"
    table.write_text("x,f\n" + "".join(f"{x!r},{f!r}\n" for x, f in zip(xs.tolist(), fs.tolist())))
    out = tmp / "energy.json"
    argv = ["energy", "--dist", f"tabulated:{table}", "--points", str(N), "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 0
    return out.read_text(), checks.TabulatedOracle(xs, fs)


def _check_energy(text, oracle):
    checks.check_energy_json(text, oracle, N, TAIL_EPS, [0, 99, N // 3, N - 1])


def test_energy_check_accepts_the_program_output(energy_case):
    _check_energy(*energy_case)


def test_energy_check_rejects_one_value_perturbed_by_1e6_relative(energy_case):
    text, oracle = energy_case
    rows = json.loads(text)
    rows[4321]["e_total"] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailed, match="row 4321"):
        _check_energy(json.dumps(rows), oracle)


def test_energy_check_rejects_a_dropped_row(energy_case):
    text, oracle = energy_case
    rows = json.loads(text)
    del rows[10]
    with pytest.raises(checks.CheckFailed, match="rows"):
        _check_energy(json.dumps(rows), oracle)


def test_energy_check_rejects_a_sampled_row_off_the_table(energy_case):
    text, oracle = energy_case
    rows = json.loads(text)
    rows[99]["e_oscillatory"] += 1e-5
    rows[99]["e_total"] += 1e-5
    with pytest.raises(checks.CheckFailed, match="row 99"):
        _check_energy(json.dumps(rows), oracle)


@pytest.fixture(scope="module")
def recursion_case():
    g0 = dt.discretize(dt.Normal(-2.0, 3.0), N, TAIL_EPS)
    levels = dt.iterate(g0, 10)
    delta = 0.05 * float(g0.xs[-1] - g0.xs[0])
    return levels, [dt.convergence_metrics(g, delta, center=g0.median()) for g in levels]


def test_recursion_check_accepts_the_program_output(recursion_case):
    checks.check_recursion(*recursion_case, mu=-2.0, n_levels=10)


def test_recursion_check_rejects_a_dropped_level(recursion_case):
    levels, metrics = recursion_case
    with pytest.raises(checks.CheckFailed, match="levels"):
        checks.check_recursion(levels[:-1], metrics[:-1], mu=-2.0, n_levels=10)


def test_recursion_check_rejects_a_dropped_row(recursion_case):
    levels, metrics = recursion_case
    g = levels[4]
    short = dataclasses.replace(g, density=g.density[:-1], cdf=g.cdf[:-1], xs=g.xs[:-1])
    with pytest.raises(checks.CheckFailed, match="grid"):
        checks.check_recursion(levels[:4] + [short] + levels[5:], metrics, mu=-2.0, n_levels=10)


def test_recursion_check_rejects_lost_mass(recursion_case):
    levels, metrics = recursion_case
    g = levels[6]
    light = dataclasses.replace(g, density=g.density * (1.0 - 1e-6))
    with pytest.raises(checks.CheckFailed, match="mass"):
        checks.check_recursion(levels[:6] + [light] + levels[7:], metrics, mu=-2.0, n_levels=10)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "verify.json"
    assert cli.main(["verify", "--suite", "all", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_reports_check_accepts_the_program_output(reports):
    checks.check_reports(json.dumps(reports))


def test_reports_check_rejects_one_failed_report(reports):
    bad = [dict(r) for r in reports]
    bad[5]["passed"] = False
    with pytest.raises(checks.CheckFailed, match=re.escape(bad[5]["check_name"])):
        checks.check_reports(json.dumps(bad))


def test_reports_check_rejects_a_dropped_report(reports):
    with pytest.raises(checks.CheckFailed, match="reports"):
        checks.check_reports(json.dumps(reports[:-1]))


# -- manifest and end-to-end run ----------------------------------------------

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())


def test_manifest_names_the_workloads_the_harness_runs():
    names = [w["name"] for w in BENCH["workloads"]]
    assert set(names) <= set(workloads.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES) == list(LAYER_MAP["seeds"])


def test_layer_map_covers_every_per_layer_metric():
    assert [m["name"] for m in BENCH["per_layer"]] == list(LAYER_MAP["per_layer"])
    for metric in LAYER_MAP["per_layer"].values():
        assert set(metric["on"]) <= set(workloads.WORKLOADS)
        assert set(metric["moves"]) <= {m["name"] for m in BENCH["end_to_end"]}


class _SleepWorkload:
    def __init__(self):
        self.ops = 0

    def op(self):
        time.sleep(0.01)
        self.ops += 1

    def check(self, result):
        pass

    def bytes_out(self):
        return 0


def test_run_for_spreads_the_probes_between_operations():
    wl = _SleepWorkload()
    records, probed = harness.run_for(wl, 0.3, 1, probe=lambda: float(wl.ops), probes=3)
    assert [r.op for r in records] == list(range(1, len(records) + 1)) and all(r.ok for r in records)
    # one probe after the first operation, the others about 0.1 s and 0.2 s in
    assert len(probed) == 3 and probed[0] == 1.0 and probed[0] < probed[1] < probed[2] < len(records)


def test_runs_report_exactly_the_manifest_metrics():
    traced = harness.run("verify_all", 1, 0.2, True, dt, [0.1], ROOT)
    untraced = harness.run("verify_all", 1, 0.2, False, dt, [0.1, 0.3, 0.2], ROOT)
    for result, key in ((traced, "per_layer"), (untraced, "end_to_end")):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [(m["name"], m["unit"]) for m in BENCH[key]]
    metrics = traced["metrics"]
    assert metrics["verify.reports"]["value"] == 16.0
    # verify_all runs through the CLI, whose own work is small next to the suite's
    assert metrics["verify.run_suite_s"]["value"] < metrics["cli.main_s"]["value"]
    assert 0.0 < metrics["cli.self_s"]["value"] < 0.5 * metrics["cli.main_s"]["value"]
    assert 0.9 < metrics["trace.coverage"]["value"] <= 1.0
    assert untraced["metrics"]["setup_s"]["value"] == 0.2
