import json
import math

import numpy as np
import pytest

from derangetropy.cli import _render_json, _table, main

RHO_FLAT_CENTER = 1.4051959565836603


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_env_var_tightens_quadrature(self, capsys, monkeypatch):
        monkeypatch.setenv("DERANGETROPY_SEED_TOL", "1e-12")
        code, out, _ = _run(capsys, ["verify", "--suite", "appendix"])
        assert code == 0
        assert json.loads(out)[0]["residual"] < 1e-10

    def test_env_var_garbage_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("DERANGETROPY_SEED_TOL", "not-a-number")
        code, _, err = _run(capsys, ["verify", "--suite", "appendix"])
        assert code == 2
        assert err


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
        # one block's sum of 16,384 terms of 2e305 overflows; numpy's warning must not reach stderr
        path = tmp_path / "t.csv"
        path.write_text("x,f\n" + "".join(f"{i},1e305\n" for i in range(20_001)))
        code, out, err = _run(capsys, ["eval", "--dist", f"tabulated:{path}"])
        assert code == 2
        assert out == ""
        assert err == "error: sampled density has mass inf\n"

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
        assert _table(self.COLUMNS, "csv") == "x,k\n-0.0,0\n5e-324,1\n0.1,-2\n1e+16,3\n"

    def test_json_rows(self):
        rows = [("-0.0", "0"), ("5e-324", "1"), ("0.1", "-2"), ("1e+16", "3")]
        expected = ",\n".join(f'  {{\n    "x": {x},\n    "k": {k}\n  }}' for x, k in rows)
        assert _render_json(_table(self.COLUMNS, "json")) == "[\n" + expected + "\n]\n"

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
