"""The four benchmark workloads: seeded inputs, one operation, and its check.

Each workload is built from a seed and a scratch directory inside the
checkout. `op` is the timed call into the package; `check` validates its
result against an oracle from checks.py and is not timed.
"""

from __future__ import annotations

import importlib
import random
from pathlib import Path

import numpy as np

import checks

POINTS = 200_001
RECURSE_POINTS = 1_000_001
RECURSE_LEVELS = 10
TAIL_EPS = 1e-6
SAMPLE_ROWS = 16


def _draw_normal(rng: random.Random) -> tuple[float, float]:
    return round(rng.uniform(-5.0, 5.0), 6), round(rng.uniform(0.2, 5.0), 6)


class Workload:
    """One operation on seeded inputs; BENCHMARK.json and layer_map.json say why each exists."""

    name = ""
    seeded = True

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.dt = importlib.import_module("derangetropy")
        self.cli = importlib.import_module("derangetropy.cli")

    def op(self):
        raise NotImplementedError

    def check(self, result) -> None:
        raise NotImplementedError

    def bytes_out(self) -> int:
        return 0

    def cleanup(self) -> None:
        pass


class _CliWorkload(Workload):
    out_name = ""

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.out = work_dir / self.out_name
        self.argv: list[str] = []
        self.verified: str | None = None

    def op(self):
        code = self.cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"cli exited with code {code}")
        return None

    def check(self, result) -> None:
        """The oracle check, skipped for an output byte-identical to one that
        passed it: the CLI writes identical output for identical configs, and
        the oracle check costs a fifth of an eval operation."""
        text = self.take_output()
        if text != self.verified:
            self.check_text(text)
            self.verified = text

    def check_text(self, text: str) -> None:
        raise NotImplementedError

    def bytes_out(self) -> int:
        return self.out.stat().st_size if self.out.exists() else 0

    def take_output(self) -> str:
        """Read and remove the output file, so the next operation must write it anew."""
        try:
            text = self.out.read_text()
        except OSError as exc:
            raise checks.CheckFailed(f"cannot read the output: {exc}") from None
        self.out.unlink()
        return text

    def cleanup(self) -> None:
        self.out.unlink(missing_ok=True)


class EvalNormalCsv(_CliWorkload):
    name = "eval_normal_csv"
    out_name = "eval.csv"

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        rng = random.Random(seed)
        self.mu, self.sigma = _draw_normal(rng)
        self.sample_rows = sorted(rng.sample(range(POINTS), SAMPLE_ROWS))
        self.argv = ["eval", "--dist", f"normal:{self.mu!r},{self.sigma!r}", "--points", str(POINTS),
                     "--out", str(self.out)]

    def check_text(self, text: str) -> None:
        checks.check_eval_csv(text, self.mu, self.sigma, POINTS, TAIL_EPS, self.sample_rows)


def mixture_table(rng: random.Random, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A mixture of 2 to 4 normals tabulated on n points out to 8 sigma."""
    k = rng.randint(2, 4)
    weights = [rng.uniform(0.2, 1.0) for _ in range(k)]
    means = [rng.uniform(-3.0, 3.0) for _ in range(k)]
    sigmas = [rng.uniform(0.5, 1.5) for _ in range(k)]
    lo = min(m - 8.0 * s for m, s in zip(means, sigmas))
    hi = max(m + 8.0 * s for m, s in zip(means, sigmas))
    xs = np.linspace(lo, hi, n)
    fs = np.zeros(n)
    for w, m, s in zip(weights, means, sigmas):
        fs += w * np.exp(-0.5 * ((xs - m) / s) ** 2) / s
    return xs, fs


class EnergyTabulatedJson(_CliWorkload):
    name = "energy_tabulated_json"
    out_name = "energy.json"

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        rng = random.Random(seed)
        xs, fs = mixture_table(rng, POINTS)
        self.table = work_dir / "mixture.csv"
        with open(self.table, "w") as fh:
            fh.write("x,f\n")
            fh.writelines(f"{x!r},{f!r}\n" for x, f in zip(xs.tolist(), fs.tolist()))
        self.oracle = checks.TabulatedOracle(xs, fs)
        self.sample_rows = sorted(rng.sample(range(POINTS), SAMPLE_ROWS))
        self.argv = ["energy", "--dist", f"tabulated:{self.table}", "--points", str(POINTS), "--format", "json",
                     "--out", str(self.out)]

    def check_text(self, text: str) -> None:
        checks.check_energy_json(text, self.oracle, POINTS, TAIL_EPS, self.sample_rows)

    def cleanup(self) -> None:
        super().cleanup()
        self.table.unlink(missing_ok=True)


class RecurseNormal1m(Workload):
    name = "recurse_normal_1m"

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.mu, self.sigma = _draw_normal(random.Random(seed))

    def op(self):
        dt = self.dt
        g0 = dt.discretize(dt.Normal(self.mu, self.sigma), RECURSE_POINTS, TAIL_EPS)
        levels = dt.iterate(g0, RECURSE_LEVELS)
        delta = 0.05 * float(g0.xs[-1] - g0.xs[0])
        center = g0.median()
        return levels, [dt.convergence_metrics(g, delta, center=center) for g in levels]

    def check(self, result) -> None:
        levels, metrics = result
        checks.check_recursion(levels, metrics, self.mu, RECURSE_LEVELS)


class VerifyAll(_CliWorkload):
    """run_suite("all") through the CLI, so that the cli layer is also measured
    on a workload of BENCHMARK.json; argparse and a 16-report JSON are about
    1 ms of an operation."""

    name = "verify_all"
    out_name = "verify.json"
    seeded = False

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        self.argv = ["verify", "--suite", "all", "--out", str(self.out)]

    def check_text(self, text: str) -> None:
        checks.check_reports(text)


WORKLOADS = {w.name: w for w in (EvalNormalCsv, EnergyTabulatedJson, RecurseNormal1m, VerifyAll)}
