"""Command-line surface: eval, energy, recurse, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 numerical failure. All diagnostics go to stderr; data goes to stdout or
the --out path, and identical configs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .distributions import Tabulated, from_spec
from .errors import DerangetropyError, DomainError, ParseError
from .functional import SCALE, bernoulli_entropy, derangetropy_profile
from .numerics import QuadratureSpec
from .recursion import convergence_metrics, discretize, iterate
from .verify import run_suite

_ENV_TOL = "DERANGETROPY_SEED_TOL"

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
    p_ver.add_argument("--suite", choices=("all", "normalization", "appendix", "mode", "ode", "equilibrium"))
    add_common(p_ver, with_grid=False)
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
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
        try:
            if cfg[key] is not None or key != "delta":
                cfg[key] = kind(cfg[key])
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"{key} must be a number, got {cfg[key]!r}") from None
    for key in ("dist", "out"):
        # open() takes an int `out` as a file descriptor and would write to it
        if not isinstance(cfg[key], str) and not (key == "out" and cfg[key] is None):
            raise ParseError(f"{key} must be a string, got {cfg[key]!r}")
    if cfg["points"] < 101:
        raise DomainError(f"--points must be at least 101, got {cfg['points']}")
    if not 0.0 < cfg["tail_eps"] < 0.1:
        raise DomainError(f"--tail-eps must lie in (0, 0.1), got {cfg['tail_eps']}")
    if not 1 <= cfg["levels"] <= 10:
        raise DomainError(f"--levels must lie in [1, 10], got {cfg['levels']}")
    if cfg["delta"] is not None:
        if not cfg["delta"] > 0.0:
            raise DomainError(f"--delta must be positive, got {cfg['delta']}")
    if cfg["format"] not in ("csv", "json"):
        raise DomainError(f"--format must be csv or json, got {cfg['format']!r}")
    return cfg


def _quad_spec_from_env() -> QuadratureSpec | None:
    raw = os.environ.get(_ENV_TOL)
    if raw is None:
        return None
    try:
        tol = float(raw)
    except ValueError:
        raise ParseError(f"{_ENV_TOL}={raw!r} is not a number") from None
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ParseError(f"{_ENV_TOL} must be a positive finite number, got {raw!r}")
    return QuadratureSpec(abs_tol=tol)


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _render_csv(fieldnames: list[str], rows: list[dict]) -> str:
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(_fmt(row[k]) for k in fieldnames))
    return "\n".join(lines) + "\n"


def _render_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def _grid(d, cfg):
    lo, hi = d.truncated_support(cfg["tail_eps"])
    return np.linspace(lo, hi, cfg["points"])


def _make_dist(cfg):
    d = from_spec(cfg["dist"])
    if isinstance(d, Tabulated):
        print(
            f"note: tabulated density renormalized by factor {d.normalization!r}",
            file=sys.stderr,
        )
    return d


def _cmd_eval(d, cfg) -> str:
    xs = _grid(d, cfg)
    f, F, rho = derangetropy_profile(d, xs)
    rows = [
        {"x": x, "f": fv, "F": Fv, "rho": rv}
        for x, fv, Fv, rv in zip(xs, f, F, rho)
    ]
    if cfg["format"] == "json":
        return _render_json([{k: float(v) for k, v in r.items()} for r in rows])
    return _render_csv(["x", "f", "F", "rho"], rows)


def _cmd_energy(d, cfg) -> str:
    xs = _grid(d, cfg)
    f = np.asarray(d.pdf(xs), dtype=float)
    F = np.asarray(d.cdf(xs), dtype=float)
    if np.any(f <= 0.0) or np.any(F <= 0.0) or np.any(F >= 1.0):
        raise DomainError(
            "energy decomposition needs f > 0 and F strictly inside (0,1) on the whole grid"
        )
    sin_pf = np.sin(np.pi * F)
    hb = bernoulli_entropy(F)
    e_osc = -np.log(sin_pf)
    e_struct = hb - np.log(f)
    e_total = -np.log(SCALE * sin_pf * np.exp(-hb) * f)
    rows = [
        {"x": x, "e_oscillatory": eo, "e_structural": es, "e_total": et}
        for x, eo, es, et in zip(xs, e_osc, e_struct, e_total)
    ]
    if cfg["format"] == "json":
        return _render_json([{k: float(v) for k, v in r.items()} for r in rows])
    return _render_csv(["x", "e_oscillatory", "e_structural", "e_total"], rows)


def _cmd_recurse(d, cfg) -> str:
    g0 = discretize(d, cfg["points"], cfg["tail_eps"])
    levels = iterate(g0, cfg["levels"])
    span = float(g0.xs[-1] - g0.xs[0])
    delta = cfg["delta"] if cfg["delta"] is not None else 0.05 * span
    m0 = g0.median()
    metrics = [convergence_metrics(g, delta, center=m0) for g in levels]

    grid_rows = [
        {"x": x, "density": dv, "cdf": cv, "level": g.level}
        for g in levels
        for x, dv, cv in zip(g.xs, g.density, g.cdf)
    ]
    metric_rows = [
        {
            "level": m.level,
            "median": m.median,
            "variance": m.variance,
            "iqr": m.iqr,
            "central_mass": m.central_mass,
        }
        for m in metrics
    ]
    if cfg["format"] == "json":
        payload = {
            "grids": [
                {"x": float(r["x"]), "density": float(r["density"]), "cdf": float(r["cdf"]), "level": int(r["level"])}
                for r in grid_rows
            ],
            "metrics": [
                {"level": int(r["level"]), "median": float(r["median"]), "variance": float(r["variance"]),
                 "iqr": float(r["iqr"]), "central_mass": float(r["central_mass"])}
                for r in metric_rows
            ],
        }
        return _render_json(payload)
    grid_csv = _render_csv(["x", "density", "cdf", "level"], grid_rows)
    metrics_csv = _render_csv(["level", "median", "variance", "iqr", "central_mass"], metric_rows)
    return grid_csv + "\n" + metrics_csv


def _cmd_verify(cfg) -> tuple[str, int]:
    spec = _quad_spec_from_env()
    reports = run_suite(cfg["suite"], spec)
    text = _render_json([r.to_dict() for r in reports])
    code = 0 if all(r.passed for r in reports) else 1
    return text, code


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


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
        spec_needed = args.command in ("eval", "energy", "recurse")
        d = _make_dist(cfg) if spec_needed else None
        if args.command == "verify":
            _quad_spec_from_env()  # surface env mistakes as usage errors up front
    except (ParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DerangetropyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "eval":
            text, code = _cmd_eval(d, cfg), 0
        elif args.command == "energy":
            text, code = _cmd_energy(d, cfg), 0
        elif args.command == "recurse":
            text, code = _cmd_recurse(d, cfg), 0
        else:
            text, code = _cmd_verify(cfg)
    except DerangetropyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    try:
        _write(text, cfg["out"])
    except OSError as exc:
        print(f"error: cannot write {cfg['out']!r}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
