"""Command-line surface: eval, energy, recurse, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 numerical failure or out of memory. All diagnostics go to stderr; data
goes to stdout or the --out path, and identical configs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from itertools import chain

import numpy as np

from .distributions import Tabulated, _grid, from_spec
from .errors import DerangetropyError, DomainError, ParseError
from .functional import derangetropy_profile, energy_decomposition
from .numerics import ABS_TOL, _blocks
from .recursion import ConvergenceMetrics, convergence_metrics, discretize, iterate
from .verify import SUITES, run_suite

_ENV_TOL = "DERANGETROPY_SEED_TOL"

# recurse warns on stderr about each level whose trapezoid mass before
# renormalization is further than this from 1, or for level 0 from the
# 1 - 2*tail_eps that its window holds by construction
_MASS_DRIFT = 1e-6

# the largest float64 array numpy can describe; np.linspace sizes its array
# through a float, so points whose float rounds above it fail there too
_MAX_POINTS = np.iinfo(np.intp).max // np.dtype(float).itemsize

_DEFAULTS = {
    "dist": "uniform:0,1",
    "points": 2001,
    "tail_eps": 1e-6,
    "levels": 3,
    "delta": None,
    "format": "csv",
    "out": None,
    "suite": "all",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derangetropy",
        description="Evaluate the derangetropy of a distribution, its energy split, "
        "its recursive self-application, and the numerical verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_grid: bool = True) -> None:
        if with_grid:
            p.add_argument("--dist", help="distribution spec, e.g. uniform:0,1 or tabulated:f.csv")
            p.add_argument("--points", type=int, help="grid size (>= 101)")
            p.add_argument("--tail-eps", dest="tail_eps", type=float, help="tail quantile cut in (0, 0.1)")
            p.add_argument("--format", choices=("csv", "json"), help="output format")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--config", help="JSON file with the same fields; explicit flags win")

    p_eval = sub.add_parser("eval", help="rho on a grid: columns x, f, F, rho")
    add_common(p_eval)

    p_energy = sub.add_parser("energy", help="energy split on a grid: x, e_oscillatory, e_structural, e_total")
    add_common(p_energy)

    p_rec = sub.add_parser("recurse", help="iterated operator: per-level grid dump plus metrics")
    add_common(p_rec)
    p_rec.add_argument("--levels", type=int, help="recursion depth in [1, 10]")
    p_rec.add_argument("--delta", type=float, help="half-width for central mass (default: 5%% of grid span)")

    p_ver = sub.add_parser("verify", help="run a verification suite, report JSON")
    p_ver.add_argument("--suite", choices=SUITES)
    add_common(p_ver, with_grid=False)
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"config {path!r} must hold a JSON object")
    out = {}
    for key, value in data.items():
        norm = str(key).replace("-", "_")
        if norm not in _DEFAULTS:
            raise ParseError(f"config {path!r} has unknown field {key!r}")
        out[norm] = value
    return out


def _resolve(args: argparse.Namespace) -> dict:
    """Defaults, then config file, then explicit flags; validate the result."""
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(_load_config_file(args.config))
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val

    for key, kind in (("points", int), ("tail_eps", float), ("levels", int), ("delta", float)):
        val = cfg[key]
        try:
            # bool is an int subclass, and int() would truncate 2.7 to 2
            if isinstance(val, bool) or (kind is int and isinstance(val, float) and not val.is_integer()):
                raise TypeError
            if val is not None or key != "delta":
                cfg[key] = kind(val)
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {val!r}") from None
    for key in ("dist", "out"):
        # open() takes an int `out` as a file descriptor and would write to it
        if not isinstance(cfg[key], str) and not (key == "out" and cfg[key] is None):
            raise ParseError(f"{key} must be a string, got {cfg[key]!r}")
    if cfg["points"] < 101:
        raise DomainError(f"--points must be at least 101, got {cfg['points']}")
    if cfg["points"] > _MAX_POINTS or float(cfg["points"]) > _MAX_POINTS:
        raise DomainError(f"--points must be at most {_MAX_POINTS}, got {cfg['points']}")
    if not 0.0 < cfg["tail_eps"] < 0.1:
        raise DomainError(f"--tail-eps must lie in (0, 0.1), got {cfg['tail_eps']}")
    if not 1 <= cfg["levels"] <= 10:
        raise DomainError(f"--levels must lie in [1, 10], got {cfg['levels']}")
    if cfg["delta"] is not None and not (cfg["delta"] > 0.0 and math.isfinite(cfg["delta"])):
        raise DomainError(f"--delta must be positive and finite, got {cfg['delta']}")
    for key, names in (("format", ("csv", "json")), ("suite", SUITES)):
        if cfg[key] not in names:
            raise DomainError(f"--{key} must be one of {', '.join(names)}, got {cfg[key]!r}")
    return cfg


def _abs_tol_from_env() -> float:
    raw = os.environ.get(_ENV_TOL)
    if raw is None:
        return ABS_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise ParseError(f"{_ENV_TOL}={raw!r} is not a number") from None
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ParseError(f"{_ENV_TOL} must be a positive finite number, got {raw!r}")
    return tol


def _table(parts, fmt: str, indent: str = ""):
    """CSV, or a JSON array of row objects nested at indent, from dicts of the same named columns, one after another.

    A block of rows at a time, each column goes through .tolist() once, so a cell is a Python float or int, whose
    str is its shortest repr, and each row through one %s template, laid out for JSON as json.dumps(indent=2) would.
    A JSON column with a non-finite value in a block takes its cells there from json.dumps, which writes Infinity
    and NaN. The last line is left open.
    """
    names = list(parts[0])
    if fmt == "json":
        keys = ",\n".join(f"{indent}    {json.dumps(name)}: %s" for name in names)
        head, row, sep, tail = "[", f"\n{indent}  {{\n{keys}\n{indent}  }}", ",", f"\n{indent}]"
    else:
        head, row, sep, tail = ",".join(names), "\n" + ",".join(["%s"] * len(names)), "", ""
    yield head
    lead = ""
    for part in parts:
        columns = [np.asarray(col) for col in part.values()]
        for s, e in _blocks(0, len(columns[0])):
            block = [col[s:e] for col in columns]
            cells = [c.tolist() if fmt == "csv" or np.isfinite(c).all() else map(json.dumps, c.tolist()) for c in block]
            yield lead + sep.join(map(row.__mod__, zip(*cells)))
            lead = sep
    yield tail


def _cmd_eval(d, cfg):
    xs = _grid(d, cfg["points"], cfg["tail_eps"])
    f, F, rho = derangetropy_profile(d, xs)
    return _table([{"x": xs, "f": f, "F": F, "rho": rho}], cfg["format"])


def _cmd_energy(d, cfg):
    xs = _grid(d, cfg["points"], cfg["tail_eps"])
    e = energy_decomposition(d, xs)
    columns = {"x": xs, "e_oscillatory": e.e_oscillatory, "e_structural": e.e_structural, "e_total": e.e_total}
    return _table([columns], cfg["format"])


def _cmd_recurse(d, cfg):
    g0 = discretize(d, cfg["points"], cfg["tail_eps"])
    levels = iterate(g0, cfg["levels"])
    span = float(g0.xs[-1] - g0.xs[0])
    delta = cfg["delta"] if cfg["delta"] is not None else 0.05 * span
    m0 = g0.median()
    metrics = [convergence_metrics(g, delta, center=m0) for g in levels]
    for g in levels:
        ref, ref_name = (1.0 - 2.0 * cfg["tail_eps"], "1 - 2*tail_eps") if g.level == 0 else (1.0, "1")
        if abs(g.prenorm_mass - ref) > _MASS_DRIFT:
            print(
                f"warning: level {g.level} had mass {g.prenorm_mass!r} before renormalization, "
                f"more than {_MASS_DRIFT} from {ref_name}",
                file=sys.stderr,
            )

    # each level is one part of the grid table, its level column a broadcast view that holds no memory
    grids = [dict(x=g.xs, density=g.density, cdf=g.cdf, level=np.broadcast_to(g.level, g.xs.size)) for g in levels]
    metric_columns = {f.name: [getattr(m, f.name) for m in metrics] for f in fields(ConvergenceMetrics)}
    grid_table, metric_table = _table(grids, cfg["format"], "  "), _table([metric_columns], cfg["format"], "  ")
    if cfg["format"] == "json":
        return chain(['{\n  "grids": '], grid_table, [',\n  "metrics": '], metric_table, ["\n}"])
    return chain(grid_table, ["\n\n"], metric_table)


def _cmd_verify(cfg, abs_tol: float):
    reports = run_suite(cfg["suite"], abs_tol)
    code = 0 if all(r.passed for r in reports) else 1
    return [json.dumps([r.to_dict() for r in reports], indent=2)], code


def _write(blocks, out_path: str | None) -> None:
    """Write the blocks of text in turn, and end the last line."""
    blocks = chain(blocks, ["\n"])
    if out_path is None:
        sys.stdout.writelines(blocks)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.writelines(blocks)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints its own message; fold --help (0) and usage errors (2)
        # into the return-code contract instead of letting them propagate
        return int(exc.code or 0)

    try:
        cfg = _resolve(args)
        if args.command == "verify":
            abs_tol = _abs_tol_from_env()
        else:
            d = from_spec(cfg["dist"])
            if isinstance(d, Tabulated):
                print(f"note: tabulated density renormalized by factor {d.normalization!r}", file=sys.stderr)
    except DerangetropyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # every command computes in full before its blocks are rendered and written, and rendering raises no
    # DerangetropyError, so an exit 3 from the computation comes before the first byte of output
    try:
        if args.command == "eval":
            blocks, code = _cmd_eval(d, cfg), 0
        elif args.command == "energy":
            blocks, code = _cmd_energy(d, cfg), 0
        elif args.command == "recurse":
            blocks, code = _cmd_recurse(d, cfg), 0
        else:
            blocks, code = _cmd_verify(cfg, abs_tol)
        _write(blocks, cfg["out"])
    except DerangetropyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write {cfg['out']!r}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
