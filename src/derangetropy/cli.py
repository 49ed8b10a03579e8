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
import sys
from dataclasses import fields
from itertools import chain

import numpy as np

from .distributions import Tabulated, _grid, from_spec
from .errors import DerangetropyError, DomainError, ParseError
from .functional import derangetropy_profile, energy_decomposition
from .numerics import _blocks
from .recursion import ConvergenceMetrics, convergence_metrics, discretize, iterate
from .verify import SUITES, run_suite

# recurse warns on stderr about each level whose trapezoid mass before
# renormalization is further than this from 1, or for level 0 from the
# 1 - 2*tail_eps that its window holds by construction
_MASS_DRIFT = 1e-6

# the largest float64 array numpy can describe; np.linspace sizes its array
# through a float, so points whose float rounds above it fail there too
_MAX_POINTS = np.iinfo(np.intp).max // np.dtype(float).itemsize

_GRID_COMMANDS = ("eval", "energy", "recurse")

# each setting: its default, the commands that take it as a flag, and that flag's argparse keywords (type, choices,
# help); a setting without a type is a string. Every command also takes --config, after --out, and this order is
# that of each command's --help
_SETTINGS = {
    "suite": ("all", ("verify",), dict(choices=SUITES)),
    "dist": ("uniform:0,1", _GRID_COMMANDS, dict(help="distribution spec, e.g. uniform:0,1 or tabulated:f.csv")),
    "points": (2001, _GRID_COMMANDS, dict(type=int, help="grid size (>= 101)")),
    "tail_eps": (1e-6, _GRID_COMMANDS, dict(type=float, help="tail quantile cut in (0, 0.1)")),
    "format": ("csv", _GRID_COMMANDS, dict(choices=("csv", "json"), help="output format")),
    "out": (None, (*_GRID_COMMANDS, "verify"), dict(help="output path (default: stdout)")),
    "levels": (3, ("recurse",), dict(type=int, help="recursion depth in [1, 10]")),
    "delta": (None, ("recurse",), dict(type=float, help="half-width for central mass (default: 5%% of grid span)")),
}

_KINDS = {int: "an integer", float: "a number", str: "a string"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derangetropy",
        description="Evaluate the derangetropy of a distribution, its energy split, "
        "its recursive self-application, and the numerical verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key, (_, commands, flag) in _SETTINGS.items():
            if command in commands:
                p.add_argument("--" + key.replace("_", "-"), **flag)
            if key == "out":
                p.add_argument("--config", help="JSON file with the same fields; explicit flags win")
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
        if norm not in _SETTINGS:
            raise ParseError(f"config {path!r} has unknown field {key!r}")
        out[norm] = value
    return out


def _resolve(args: argparse.Namespace) -> dict:
    """Defaults, then config file, then explicit flags; validate the result."""
    cfg = {key: default for key, (default, _, _) in _SETTINGS.items()}
    if args.config:
        cfg.update(_load_config_file(args.config))
    for key in _SETTINGS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val

    for key, (default, _, flag) in _SETTINGS.items():
        val, kind = cfg[key], flag.get("type", str)
        if "choices" in flag:
            if val not in flag["choices"]:
                raise DomainError(f"--{key} must be one of {', '.join(flag['choices'])}, got {val!r}")
        elif val is not None or default is not None:
            try:
                # bool is an int subclass, int() would truncate 2.7 to 2, and str() takes anything, while open()
                # takes an int `out` as a file descriptor and would write to it
                if isinstance(val, bool) or (kind is int and isinstance(val, float) and not val.is_integer()):
                    raise TypeError
                if kind is str and not isinstance(val, str):
                    raise TypeError
                cfg[key] = kind(val)
            except (TypeError, ValueError, OverflowError):
                raise ParseError(f"{key} must be {_KINDS[kind]}, got {val!r}") from None
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
    return cfg


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
    return _table([{"x": xs, "f": f, "F": F, "rho": rho}], cfg["format"]), 0


def _cmd_energy(d, cfg):
    xs = _grid(d, cfg["points"], cfg["tail_eps"])
    e = energy_decomposition(d, xs)
    columns = {"x": xs, "e_oscillatory": e.e_oscillatory, "e_structural": e.e_structural, "e_total": e.e_total}
    return _table([columns], cfg["format"]), 0


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
        return chain(['{\n  "grids": '], grid_table, [',\n  "metrics": '], metric_table, ["\n}"]), 0
    return chain(grid_table, ["\n\n"], metric_table), 0


def _cmd_verify(d, cfg):
    reports = run_suite(cfg["suite"])
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


# each command: its help, and its runner, which takes the distribution (None for a command without --dist) and the
# settings and gives back the blocks of its output and its exit code
_COMMANDS = {
    "eval": ("rho on a grid: columns x, f, F, rho", _cmd_eval),
    "energy": ("energy split on a grid: x, e_oscillatory, e_structural, e_total", _cmd_energy),
    "recurse": ("iterated operator: per-level grid dump plus metrics", _cmd_recurse),
    "verify": ("run a verification suite, report JSON", _cmd_verify),
}


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
        d = from_spec(cfg["dist"]) if args.command in _SETTINGS["dist"][1] else None
        if isinstance(d, Tabulated):
            print(f"note: tabulated density renormalized by factor {d.normalization!r}", file=sys.stderr)
    except DerangetropyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # every command computes in full before its blocks are rendered and written, and rendering raises no
    # DerangetropyError, so an exit 3 from the computation comes before the first byte of output
    try:
        blocks, code = _COMMANDS[args.command][1](d, cfg)
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
