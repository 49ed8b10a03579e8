"""Property fuzzing of the CLI's file inputs: tabulated CSVs and config JSON objects.

Every run of `cli.main` on a generated file must end in a documented exit code,
0 to 3, with no traceback on stderr, and with every warning made an error, so a
numpy warning raised from package code fails the run as well.
"""

import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import cli_cases

# the float extremes of a CSV cell: zeros, denormal, the smallest normal, huge and the largest
EXTREMES = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e300, 1e307, 1.7976931348623157e308]
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EXTREMES + [-v for v in EXTREMES]),
    st.integers(-3, 3).map(float),
)
# cells that are no number, or numbers that float() reads in its own way; the last passes csv's field limit
TEXT_CELLS = ["nan", "NaN", "inf", "-Infinity", "", " ", "abc", "1e999", "0x10", "1_0", '"1"', "1,5", "\x00"]
TEXT_CELLS.append("1" * 140_000)
SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _check(argv):
    """One in-process run, with warnings as errors: a documented exit code and no traceback."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = cli_cases.run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    event(f"exit {code}")


@st.composite
def tables(draw):
    """CSV text: sorted, evenly spaced or raw nodes, with duplicates, extremes and text cells."""
    # the repeated entries of a sampled_from weigh its draw toward a table that loads
    kind = draw(st.sampled_from(["even", "even", "sorted", "raw"]))
    if kind == "even":
        start = draw(st.sampled_from([0.0, 0.0, 0.0, -1.0, -1.0, 1e16, -1e308, 1e300]))
        step = draw(st.sampled_from([0.25, 1.0, 0.25, 1.0, 5e-324, 1e-310, 1e-300, 1e300, 1e307]))
        xs = [start + i * step for i in range(draw(st.integers(8, 24)))]
    else:
        xs = draw(st.lists(NUMBERS, max_size=24))
        xs = sorted(x for x in xs if not math.isnan(x)) if kind == "sorted" else xs
    if xs and draw(st.sampled_from([False, False, True])):
        i = draw(st.integers(0, len(xs) - 1))
        xs.insert(i, xs[i])
    n = len(xs)
    flat = st.sampled_from([1.0, 1.0, 5e-324, 1e-310, 1e305, 1.7976931348623157e308]).map(lambda f: [f] * n)
    fs = draw(st.one_of(flat, *(st.lists(v, min_size=n, max_size=n) for v in (st.floats(0.0, 10.0), NUMBERS))))
    rows = [[repr(x), repr(f)] for x, f in zip(xs, fs)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if rows else 0):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, 1))] = draw(st.sampled_from(TEXT_CELLS))
    header = draw(st.sampled_from(["x,f", "x,f", "f,x", " X , F ", "x,f,extra", "x", "a,b"]))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "\n".join([header] + [",".join(row) for row in rows]) + "\n"


@given(text=tables(), command=st.sampled_from(["eval", "energy", "recurse"]), fmt=st.sampled_from(["csv", "json"]))
@SETTINGS
def test_tabulated_csv(workdir, text, command, fmt):
    path = workdir / "t.csv"
    path.write_text(text, encoding="utf-8")
    extra = ["--levels", "2"] if command == "recurse" else []
    _check([command, "--dist", f"tabulated:{path}", "--points", "101", "--format", fmt, *extra])


def _config_values(workdir):
    """Each config field, with values in range, out of range and of the wrong type."""
    not_text = st.one_of(
        st.none(),
        st.booleans(),
        st.lists(st.integers(), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    )
    wrong = st.one_of(not_text, st.text(max_size=6))
    # counts stay small or past what numpy can allocate, so that no run takes long or fills memory
    counts = st.one_of(
        st.integers(-3, 12),
        st.integers(99, 400),
        st.sampled_from([2**59, 2**63, 10**400, 101.0, 2.7, 2.0**59, 1e19, 1e300, math.nan, math.inf]),
    )
    floats = st.one_of(NUMBERS, st.floats(1e-12, 0.2))
    dists = st.sampled_from([
        "uniform:0,1", "normal:0,1", "exponential:2", "semicircle:-1,1", "arcsin:0,1", "normal:1e16,1",
        "normal:0,1e-308", "exponential:1e306", "uniform:1,0", "normal:0", "bogus:1", "tabulated:",
        f"tabulated:{workdir / 'missing.csv'}", f"tabulated:{workdir}", "normal:nan,1", "normal:0,1,2",
        "uniform:0,1e-320",
    ])
    # a file, a directory, a file in no directory and the empty path; no other text, which would write
    # a file of that name wherever the tests run
    outs = st.sampled_from([None, str(workdir / "out.txt"), str(workdir), str(workdir / "no" / "out.txt"), ""])
    return {
        "dist": st.one_of(dists, wrong),
        "points": st.one_of(counts, wrong, st.just("101")),
        "tail_eps": st.one_of(floats, wrong),
        "levels": st.one_of(counts, wrong),
        "delta": st.one_of(floats, wrong),
        "format": st.one_of(st.sampled_from(["csv", "json", "xml"]), wrong),
        "out": st.one_of(outs, not_text),
        "suite": st.one_of(st.sampled_from(["all", "ode", "appendix", "bogus"]), wrong),
        "tail-eps": floats,
        "bogus": wrong,
    }


@st.composite
def configs(draw, workdir):
    """Config file bytes: an object of some fields, or another JSON value, as UTF-8 after a BOM, no BOM or bad bytes."""
    values = _config_values(workdir)
    keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True, max_size=4))
    obj = {key: draw(values[key]) for key in keys}
    obj = draw(st.sampled_from([obj, [obj], 101, "x"]))
    data = json.dumps(obj).encode()
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf", b"\xff\xfe"])) + data


@given(data=st.data(), command=st.sampled_from(["eval", "energy", "recurse", "verify"]))
@SETTINGS
def test_config_file(workdir, data, command):
    path = workdir / "cfg.json"
    path.write_bytes(data.draw(configs(workdir)))
    _check([command, "--config", str(path)])
