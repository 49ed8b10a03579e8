import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cli_cases
import derangetropy
from derangetropy import cli, numerics
from derangetropy.cli import _build_parser, _resolve, _table, main
from derangetropy.distributions import _grid, from_spec
from derangetropy.functional import derangetropy_profile, energy_decomposition
from derangetropy.recursion import ConvergenceMetrics, convergence_metrics, discretize, iterate

RHO_FLAT_CENTER = 1.4051959565836603


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _text(parts, fmt, indent=""):
    """A table's text as _write ends it."""
    return "".join(_table(parts, fmt, indent)) + "\n"


def _whole_table(columns, fmt):
    """The rendering the streamed tables are held to: every row built at once, CSV by a join per row."""
    names = list(columns)
    rows = zip(*(np.asarray(col).tolist() for col in columns.values()))
    if fmt == "json":
        return [dict(zip(names, row)) for row in rows]
    return "\n".join([",".join(names), *(",".join(map(repr, row)) for row in rows)]) + "\n"


def _whole_output(argv):
    """A table command's stdout through _whole_table, with json.dumps(indent=2) for JSON, from the library."""
    cfg = _resolve(_build_parser().parse_args(argv))
    d, fmt = from_spec(cfg["dist"]), cfg["format"]
    if argv[0] == "recurse":
        levels = iterate(discretize(d, cfg["points"], cfg["tail_eps"]), cfg["levels"])
        delta = 0.05 * float(levels[0].xs[-1] - levels[0].xs[0])
        metrics = [convergence_metrics(g, delta, center=levels[0].median()) for g in levels]
        grids = _whole_table({
            "x": np.concatenate([g.xs for g in levels]),
            "density": np.concatenate([g.density for g in levels]),
            "cdf": np.concatenate([g.cdf for g in levels]),
            "level": np.repeat([g.level for g in levels], [g.xs.size for g in levels]),
        }, fmt)
        metric_columns = {f.name: [getattr(m, f.name) for m in metrics] for f in fields(ConvergenceMetrics)}
        metric_table = _whole_table(metric_columns, fmt)
        if fmt == "json":
            return json.dumps({"grids": grids, "metrics": metric_table}, indent=2) + "\n"
        return grids + "\n" + metric_table
    xs = _grid(d, cfg["points"], cfg["tail_eps"])
    if argv[0] == "eval":
        f, F, rho = derangetropy_profile(d, xs)
        columns = {"x": xs, "f": f, "F": F, "rho": rho}
    else:
        e = energy_decomposition(d, xs)
        columns = {"x": xs, "e_oscillatory": e.e_oscillatory, "e_structural": e.e_structural, "e_total": e.e_total}
    table = _whole_table(columns, fmt)
    return json.dumps(table, indent=2) + "\n" if fmt == "json" else table


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


class TestEval:
    def test_flat_density_csv(self, capsys):
        code, out, _ = _run(capsys, ["eval", "--dist", "uniform:0,1", "--points", "1001"])
        assert code == 0
        header, rows = _csv_rows(out)
        assert header == ["x", "f", "F", "rho"]
        assert len(rows) == 1001
        mid = rows[500]
        assert float(mid["rho"]) == pytest.approx(RHO_FLAT_CENTER, rel=1e-6)
        assert float(mid["f"]) == 1.0

    def test_byte_determinism(self, capsys):
        argv = ["eval", "--dist", "normal:0,1", "--points", "501"]
        _, first, _ = _run(capsys, argv)
        _, second, _ = _run(capsys, argv)
        assert first == second

    def test_symmetric_profile(self, capsys):
        code, out, _ = _run(
            capsys, ["eval", "--dist", "arcsin:-1,1", "--points", "801", "--tail-eps", "0.01"]
        )
        assert code == 0
        _, rows = _csv_rows(out)
        rho = np.array([float(r["rho"]) for r in rows])
        assert np.allclose(rho, rho[::-1], atol=1e-10)

    def test_gaussian_json_peak_at_center(self, capsys):
        code, out, _ = _run(
            capsys, ["eval", "--dist", "normal:0,1", "--points", "2001", "--format", "json"]
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2001
        peak = max(rows, key=lambda r: r["rho"])
        assert abs(peak["x"]) < 0.01

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["eval", "--dist", "uniform:0,1", "--points", "301"]
        _, stdout_text, _ = _run(capsys, argv)
        target = tmp_path / "profile.csv"
        code, out, _ = _run(capsys, argv + ["--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text() == stdout_text


class TestEnergy:
    def test_flat_density_center_row(self, capsys):
        code, out, _ = _run(capsys, ["energy", "--dist", "uniform:0,1", "--points", "1001"])
        assert code == 0
        header, rows = _csv_rows(out)
        assert header == ["x", "e_oscillatory", "e_structural", "e_total"]
        mid = rows[500]
        assert float(mid["e_oscillatory"]) == pytest.approx(0.0, abs=1e-8)
        assert float(mid["e_total"]) == pytest.approx(-0.34017676393860025, abs=1e-6)

    def test_total_energy_minimized_at_center(self, capsys):
        _, out, _ = _run(capsys, ["energy", "--dist", "uniform:0,1", "--points", "1001"])
        _, rows = _csv_rows(out)
        totals = [float(r["e_total"]) for r in rows]
        assert int(np.argmin(totals)) == 500

    def test_oscillatory_dominates_near_edge(self, capsys):
        _, out, _ = _run(capsys, ["energy", "--dist", "uniform:0,1", "--points", "1001"])
        _, rows = _csv_rows(out)
        first = rows[0]
        assert float(first["x"]) < 0.005
        assert float(first["e_oscillatory"]) > float(first["e_structural"])

    def test_zero_density_region_rejected(self, capsys, tmp_path):
        # a tabulated density with an interior dead zone has F in (0,1) but
        # f = 0 there, so the energies are undefined: compute-stage failure
        xs = np.linspace(0.0, 1.0, 101)
        fs = np.where((xs > 0.4) & (xs < 0.6), 0.0, 1.0)
        path = tmp_path / "gap.csv"
        path.write_text("\n".join(["x,f"] + [f"{x},{v}" for x, v in zip(xs, fs)]) + "\n")
        code, out, err = _run(
            capsys, ["energy", "--dist", f"tabulated:{path}", "--points", "301"]
        )
        assert code == 3
        assert "error" in err.lower() or err


class TestRecurse:
    def test_flat_seed_variance_contracts(self, capsys):
        code, out, _ = _run(
            capsys,
            ["recurse", "--dist", "uniform:0,1", "--points", "1001", "--levels", "5"],
        )
        assert code == 0
        grid_part, metrics_part = out.split("\n\n")
        gh, grows = _csv_rows(grid_part)
        assert gh == ["x", "density", "cdf", "level"]
        assert {r["level"] for r in grows} == {str(k) for k in range(6)}
        mh, mrows = _csv_rows(metrics_part)
        assert mh == ["level", "median", "variance", "iqr", "central_mass"]
        variances = [float(r["variance"]) for r in mrows]
        assert all(b < a for a, b in zip(variances, variances[1:]))
        masses = [float(r["central_mass"]) for r in mrows]
        assert all(b > a for a, b in zip(masses, masses[1:]))

    def test_arcsin_seed_concentrates(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "recurse",
                "--dist",
                "arcsin:-1,1",
                "--points",
                "1001",
                "--levels",
                "3",
                "--tail-eps",
                "0.01",
                "--format",
                "json",
            ],
        )
        assert code == 0
        blob = json.loads(out)
        rows = [r for r in blob["grids"] if r["level"] == 3]
        density = np.array([r["density"] for r in rows])
        xs = np.array([r["x"] for r in rows])
        # the bimodal seed has become single-peaked at the center
        peak = int(np.argmax(density))
        assert abs(xs[peak]) < 0.01
        interior = density[1:-1]
        rises = np.diff(interior) > 1e-12
        falls = np.diff(interior) < -1e-12
        crossings = int(np.sum(rises[:-1] & falls[1:]))
        assert crossings <= 1

    def test_level_one_seed_keeps_dip(self, capsys):
        _, out, _ = _run(
            capsys,
            [
                "recurse",
                "--dist",
                "arcsin:-1,1",
                "--points",
                "1001",
                "--levels",
                "1",
                "--tail-eps",
                "0.01",
                "--format",
                "json",
            ],
        )
        blob = json.loads(out)
        density = np.array([r["density"] for r in blob["grids"] if r["level"] == 1])
        n = density.size
        # the first application keeps a local minimum at the center
        assert density[n // 2] < density[n // 4]

    def test_mass_drift_warns_once_per_level(self, capsys):
        argv = ["recurse", "--dist", "arcsin:0,1", "--points", "2001", "--levels", "3"]
        code, out, err = _run(capsys, argv)
        assert code == 0
        # levels 0-2 have masses 102.3, 0.0135 and 1 + 5.2e-6; level 3 has 1 + 2.2e-7
        lines = err.splitlines()
        assert [line.split(" had ")[0] for line in lines] == [f"warning: level {k}" for k in range(3)]
        assert "mass 102.30" in lines[0] and all("more than 1e-06 from 1" in line for line in lines)
        assert "warning" not in out

    def test_no_warning_within_the_drift_bound(self, capsys):
        argv = ["recurse", "--dist", "uniform:0,1", "--points", "2001", "--levels", "4", "--tail-eps", "1e-9"]
        code, out, err = _run(capsys, argv)
        assert code == 0 and err == ""

    def test_level_zero_measured_against_its_window(self, capsys):
        # a default level-0 window holds 1 - 2e-6 of the mass; uniform's is 1.1e-16 from that,
        # and semicircle's 5.4e-6 short of it, since the trapezoid rule errs at its edges
        code, _, err = _run(capsys, ["recurse", "--dist", "uniform:0,1"])
        assert code == 0 and err == ""
        code, _, err = _run(capsys, ["recurse", "--dist", "semicircle:-1,1"])
        assert code == 0 and err.startswith("warning: level 0 had mass 0.99999263")
        assert err.endswith("more than 1e-06 from 1 - 2*tail_eps\n") and err.count("\n") == 1

    def test_delta_flag(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "recurse",
                "--dist",
                "uniform:0,1",
                "--points",
                "1001",
                "--levels",
                "1",
                "--delta",
                "0.1",
                "--format",
                "json",
            ],
        )
        assert code == 0
        metrics = json.loads(out)["metrics"]
        assert metrics[0]["central_mass"] == pytest.approx(0.2, abs=1e-6)

    @pytest.mark.parametrize(
        "dist, want",
        # the kernel is at most 1.405, at the median: Uniform's level-1 peak, 1.405 * 1e308, stays below the float
        # maximum, and Normal's, 1.405 * 1.33e308, passes it, so that level's mass is inf and refused
        [("uniform:0,1e-308", 0), ("normal:0,3e-309", 3)],
    )
    def test_peak_density_near_the_float_maximum(self, dist, want):
        # a fresh interpreter with numpy's warnings as errors, so that a warning would end in a traceback
        src = str(Path(derangetropy.__file__).resolve().parents[1])
        argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "derangetropy", "recurse", "--dist", dist]
        run = subprocess.run(
            [*argv, "--points", "101", "--levels", "1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert run.returncode == want, run.stderr
        assert "Traceback" not in run.stderr
        if want == 3:
            assert run.stdout == "" and run.stderr == "error: sampled density has mass inf\n"
        else:
            # the last row is level 1's metrics
            assert run.stdout.splitlines()[-1].startswith("1,")


class TestVerify:
    def test_appendix_passes(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--suite", "appendix"])
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1
        assert reports[0]["passed"] is True
        assert reports[0]["residual"] < 1e-8

    def test_all_suites_pass(self, capsys):
        code, out, _ = _run(capsys, ["verify", "--suite", "all"])
        assert code == 0
        reports = json.loads(out)
        assert len(reports) >= 10
        assert all(r["passed"] for r in reports)


class TestConfigAndErrors:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dist": "uniform:0,2", "points": 301}))
        code, out, _ = _run(capsys, ["eval", "--config", str(cfg)])
        assert code == 0
        _, rows = _csv_rows(out)
        assert len(rows) == 301
        assert float(rows[-1]["x"]) == pytest.approx(2.0, abs=1e-5)

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 301}))
        code, out, _ = _run(
            capsys, ["eval", "--config", str(cfg), "--points", "501"]
        )
        assert code == 0
        _, rows = _csv_rows(out)
        assert len(rows) == 501

    def test_hyphenated_config_keys(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tail-eps": 0.01, "dist": "arcsin:0,1"}))
        code, out, _ = _run(capsys, ["eval", "--config", str(cfg), "--points", "301"])
        assert code == 0
        _, rows = _csv_rows(out)
        # the window starts at the 0.01 quantile, proof the key was mapped
        assert float(rows[0]["F"]) == pytest.approx(0.01, abs=1e-9)
        assert float(rows[0]["x"]) > 0.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--dist", "cauchy:0,1"],
            ["eval", "--points", "50"],
            ["eval", "--tail-eps", "0.5"],
            ["recurse", "--levels", "11"],
            ["recurse", "--levels", "0"],
            ["eval", "--config", "/nonexistent/cfg.json"],
            ["recurse", "--delta", "inf"],
            ["eval", "--points", "99999999999999999999"],
            ["eval", "--dist", "semicircle:0,1e-200"],
            ["eval", "--dist", "semicircle:-1e300,1e300"],
            ["eval", "--dist", "arcsin:0,1e-170"],
            ["eval", "--dist", "arcsin:-1e300,1e300"],
            ["eval", "--dist", "normal:0,1e-320"],
            ["eval", "--dist", "uniform:0,1e-310", "--points", "101"],
            ["eval", "--dist", "uniform:-1e308,1e308"],
        ],
    )
    def test_config_stage_failures(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unknown_config_field(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pionts": 301}))
        code, _, err = _run(capsys, ["eval", "--config", str(cfg)])
        assert code == 2
        assert "pionts" in err

    @pytest.mark.parametrize(
        "config",
        [
            {"points": "abc"}, {"points": None}, {"delta": "x"}, {"dist": 3}, {"points": 1e999}, {"out": 3},
            {"delta": math.inf}, {"points": 1e20},
        ],
    )
    def test_wrong_typed_config_value(self, capsys, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = _run(capsys, ["recurse", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_unknown_config_suite(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "bogus"}))
        code, out, err = _run(capsys, ["verify", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "bogus" in err

    @pytest.mark.parametrize(
        "config",
        [{"levels": 2.7}, {"points": 2001.5}, {"levels": True}, {"points": False}, {"tail_eps": True}, {"delta": True}],
    )
    def test_non_integer_or_bool_config_value(self, capsys, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = _run(capsys, ["recurse", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and next(iter(config)) in err

    def test_integral_float_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 301.0, "levels": 2.0}))
        code, out, _ = _run(capsys, ["recurse", "--config", str(cfg)])
        assert code == 0
        _, rows = _csv_rows(out.split("\n\n")[0])
        # level 0 is the seed grid
        assert len(rows) == 3 * 301
        assert {r["level"] for r in rows} == {"0", "1", "2"}

    @pytest.mark.parametrize("command", ["eval", "energy", "recurse"])
    def test_points_too_large_to_allocate(self, capsys, command):
        # 2**59 float64 values are 4 EiB: numpy refuses before touching memory
        code, out, err = _run(capsys, [command, "--points", str(2**59)])
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["eval", "energy", "recurse"])
    def test_window_the_float_spacing_cannot_resolve(self, capsys, command):
        # floats near 1e16 are 2 apart, so 1,001 points over its 9.5-wide window repeat
        code, out, err = _run(capsys, [command, "--dist", "normal:1e16,1", "--points", "1001"])
        assert (code, out, err) == (3, "", "error: grid must be finite and strictly increasing\n")

    @pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000], ids=["not-utf-8", "too-deep"])
    def test_unreadable_config(self, capsys, tmp_path, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        code, out, err = _run(capsys, ["eval", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read config {str(cfg)!r}: ") and err.count("\n") == 1

    def test_config_not_json(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("points = 301\n")
        code, out, err = _run(capsys, ["verify", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config {str(cfg)!r} is not valid JSON: ") and err.count("\n") == 1

    def test_config_with_byte_order_mark(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"points": 301}).encode())
        code, out, _ = _run(capsys, ["eval", "--config", str(cfg)])
        assert code == 0 and len(_csv_rows(out)[1]) == 301

    def test_window_of_huge_sigma(self, capsys):
        # the window is [mu -/+ 4.75 sigma]: finite for 1e307, its width overflows for 1e308
        code, out, _ = _run(capsys, ["eval", "--dist", "normal:0,1e307", "--points", "301"])
        assert code == 0
        _, rows = _csv_rows(out)
        assert float(rows[0]["x"]) == -float(rows[-1]["x"]) == pytest.approx(-4.753424308822899e307)
        code, out, err = _run(capsys, ["eval", "--dist", "normal:0,1e308", "--points", "301"])
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_non_utf8_tabulated_file(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xff\xfex,f\n" + b"".join(b"%d,1.0\n" % i for i in range(9)))
        code, out, err = _run(capsys, ["eval", "--dist", f"tabulated:{path}"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_tabulated_file_with_byte_order_mark(self, capsys, tmp_path):
        text = "x,f\n" + "".join(f"{i},{1 + i % 3}\n" for i in range(21))
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        expected = _run(capsys, ["eval", "--dist", f"tabulated:{plain}", "--points", "101"])
        assert expected[0] == 0
        assert _run(capsys, ["eval", "--dist", f"tabulated:{marked}", "--points", "101"]) == expected

    def test_tabulated_mass_overflow(self, capsys, tmp_path):
        # one block's sum of 16,384 terms of 1e305 overflows; numpy's warning must not reach stderr
        path = tmp_path / "t.csv"
        path.write_text("x,f\n" + "".join(f"{i},1e305\n" for i in range(20_001)))
        code, out, err = _run(capsys, ["eval", "--dist", f"tabulated:{path}"])
        assert code == 2
        assert out == ""
        assert err == "error: sampled density has mass inf\n"

    def test_tabulated_file_with_a_nan_cell(self, capsys, tmp_path):
        # one finiteness check, Tabulated's, serves the loader and direct construction alike
        path = tmp_path / "t.csv"
        path.write_text("x,f\n" + "".join(f"{i},{'nan' if i == 4 else 1.0}\n" for i in range(9)))
        code, out, err = _run(capsys, ["eval", "--dist", f"tabulated:{path}"])
        assert code == 2
        assert out == ""
        assert err == "error: tabulated grid or density contains non-finite entries\n"

    def test_recurse_with_non_finite_variance(self, capsys):
        # a 1.4e301-wide window: (x - mean)**2 overflows in the level-0 variance
        code, out, err = _run(capsys, ["recurse", "--dist", "exponential:1e-300", "--points", "101"])
        assert code == 3
        assert out == ""
        assert err.startswith("error: level 0 ") and err.count("\n") == 1

    def test_usage_error(self, capsys):
        code, _, err = _run(capsys, ["eval", "--no-such-flag"])
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = _run(capsys, ["transmogrify"])
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = _run(capsys, ["--help"])
        assert code == 0
        assert "eval" in out and "verify" in out

    def test_out_write_failure(self, capsys, tmp_path):
        code, _, err = _run(
            capsys,
            ["eval", "--dist", "uniform:0,1", "--points", "301",
             "--out", str(tmp_path / "no" / "such" / "dir" / "f.csv")],
        )
        assert code == 2
        assert err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that refuses writes")
    def test_write_failure_after_open(self, capsys):
        # the file opens, and the write fails once the buffer is flushed
        code, out, err = _run(capsys, ["eval", "--dist", "uniform:0,1", "--points", "301", "--out", "/dev/full"])
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write '/dev/full': ") and err.count("\n") == 1

    def test_compute_error_with_out_creates_no_file(self, capsys, tmp_path):
        path = tmp_path / "r.csv"
        argv = ["recurse", "--dist", "exponential:1e-300", "--points", "101", "--out", str(path)]
        code, out, err = _run(capsys, argv)
        assert code == 3 and out == "" and err.startswith("error: level 0 ")
        assert not path.exists()

    def test_out_of_memory_while_rendering(self, capsys, monkeypatch):
        def blocks(lo, hi):
            yield lo, lo + 3
            raise MemoryError("while rendering")

        monkeypatch.setattr(cli, "_blocks", blocks)
        code, out, err = _run(capsys, ["eval", "--dist", "uniform:0,1", "--points", "301"])
        # the output stops after the rows already written
        assert code == 3 and out.startswith("x,f,F,rho\n") and out.count("\n") == 3
        assert err == "error: out of memory: while rendering\n"


# a value other than its default for each setting of cli._SETTINGS; OUT stands for a path in the test's directory
_VALUES = {
    "suite": "appendix", "dist": "normal:0,1", "points": 301, "tail_eps": 0.01, "format": "json", "out": "OUT",
    "levels": 2, "delta": 0.1,
}


class TestSettingsTable:
    """Each setting of the table reaches its commands alike as a flag and as a config field."""

    def _outcome(self, capsys, argv, out_path):
        code, out, _ = _run(capsys, argv)
        return code, out, out_path.read_text() if out_path.exists() else None

    @pytest.mark.parametrize(
        "key, field", [(k, f) for k in cli._SETTINGS for f in dict.fromkeys([k.replace("_", "-"), k])], ids=str
    )
    def test_flag_equals_config_field(self, capsys, tmp_path, key, field):
        _, commands, _ = cli._SETTINGS[key]
        out_path = tmp_path / "out.txt"
        value = str(out_path) if _VALUES[key] == "OUT" else _VALUES[key]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        for command in commands:
            default = self._outcome(capsys, [command], out_path)
            flag = self._outcome(capsys, [command, "--" + key.replace("_", "-"), str(value)], out_path)
            out_path.unlink(missing_ok=True)
            assert self._outcome(capsys, [command, "--config", str(cfg)], out_path) == flag
            out_path.unlink(missing_ok=True)
            assert flag[0] == 0 and flag != default

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_lists_the_table_flags_in_order(self, capsys, command):
        code, out, _ = _run(capsys, [command, "--help"])
        assert code == 0
        want = []
        for key, (_, commands, _) in cli._SETTINGS.items():
            want += ["--" + key.replace("_", "-")] * (command in commands) + ["--config"] * (key == "out")
        # the options section starts each flag's line with two spaces, -h's too, and a usage line with more
        assert re.findall(r"^  (--[a-z-]+)", out, re.M) == want


class TestRoundTrip:
    def test_eval_output_reloads_as_tabulated(self, capsys, tmp_path):
        # tail-eps 1e-9 keeps the truncated-away mass far below the 1e-6
        # budget on the renormalization factor
        path = tmp_path / "gauss.csv"
        code, _, _ = _run(
            capsys,
            ["eval", "--dist", "normal:0,1", "--points", "2001",
             "--tail-eps", "1e-9", "--out", str(path)],
        )
        assert code == 0
        code, out, err = _run(
            capsys,
            ["eval", "--dist", f"tabulated:{path}", "--points", "2001"],
        )
        assert code == 0
        # reloading the f column applies a renormalization factor near 1,
        # reported on stderr
        assert "renormaliz" in err
        factor = float(err.split("factor")[1].split()[0].strip(" =:"))
        assert abs(factor - 1.0) < 1e-6


class TestTable:
    COLUMNS = {"x": np.array([-0.0, 5e-324, 0.1, 1e16]), "k": np.array([0, 1, -2, 3])}

    def test_csv_cells_are_shortest_repr(self):
        assert _text([self.COLUMNS], "csv") == "x,k\n-0.0,0\n5e-324,1\n0.1,-2\n1e+16,3\n"

    def test_json_rows(self):
        rows = [("-0.0", "0"), ("5e-324", "1"), ("0.1", "-2"), ("1e+16", "3")]
        expected = ",\n".join(f'  {{\n    "x": {x},\n    "k": {k}\n  }}' for x, k in rows)
        assert _text([self.COLUMNS], "json") == "[\n" + expected + "\n]\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cells_across_block_and_part_seams(self, monkeypatch, fmt):
        # blocks of 3 rows: the non-finite cells fill the second block of each part, and the first and third have none
        monkeypatch.setattr(numerics, "_BLOCK", 3)
        part = {"x": np.array([-0.0, 5e-324, 1e16, np.inf, -np.inf, np.nan, 0.1]), "k": np.arange(7) - 3}
        whole = _whole_table({name: np.concatenate([col, col]) for name, col in part.items()}, fmt)
        if fmt == "csv":
            assert _text([part, part], fmt) == whole
        else:
            assert _text([part, part], fmt) == json.dumps(whole, indent=2) + "\n"
            nested = '{\n  "t": ' + "".join(_table([part, part], fmt, "  ")) + "\n}"
            assert nested == json.dumps({"t": whole}, indent=2)

    @pytest.mark.parametrize("block", [3, numerics._BLOCK])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ["eval", "--dist", "normal:0,1", "--points", "101"],
        # f is inf at x = 0
        ["eval", "--dist", "arcsin:0,1", "--tail-eps", "1e-300", "--points", "101"],
        ["energy", "--dist", "semicircle:-1,1", "--points", "101"],
        ["recurse", "--dist", "normal:1,2", "--points", "101", "--levels", "2"],
    ], ids=" ".join)
    def test_commands_match_the_whole_table_route(self, capsys, monkeypatch, argv, fmt, block):
        monkeypatch.setattr(numerics, "_BLOCK", block)
        argv = argv + ["--format", fmt]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert out == _whole_output(argv)

    def test_recurse_csv_cells_equal_json_values(self, capsys):
        argv = ["recurse", "--dist", "normal:0,1", "--points", "301", "--levels", "2"]
        code, csv_out, _ = _run(capsys, argv)
        assert code == 0
        code, json_out, _ = _run(capsys, argv + ["--format", "json"])
        assert code == 0
        blob = json.loads(json_out)
        for section, rows in zip(csv_out.split("\n\n"), (blob["grids"], blob["metrics"])):
            lines = section.splitlines()
            header = lines[0].split(",")
            assert len(lines) - 1 == len(rows)
            for line, row in zip(lines[1:], rows):
                assert list(row) == header
                for cell, value in zip(line.split(","), row.values()):
                    # repr tells -0.0 from 0.0 and ints from floats
                    parsed = json.loads(cell)
                    assert type(parsed) is type(value) and repr(parsed) == repr(value)


@pytest.fixture(scope="module")
def tab(tmp_path_factory):
    return cli_cases.write_tab(tmp_path_factory.mktemp("cases"))


class TestCheckedInCases:
    """The cases whose output bytes are compared between trees all end in a documented exit code."""

    @pytest.mark.parametrize("argv", cli_cases.SPEC["cases"], ids=" ".join)
    def test_exit_code_without_traceback(self, argv, tab):
        code, _, err = cli_cases.run(cli_cases.with_tab(argv, tab))
        assert code in (0, 1, 2, 3) and "Traceback" not in err
