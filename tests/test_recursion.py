import dataclasses
import gc
import math
import re
import tracemalloc

import numpy as np
import pytest

from derangetropy import numerics, recursion
from derangetropy.distributions import (
    Arcsin,
    Exponential,
    Normal,
    Semicircle,
    Tabulated,
    Uniform,
)
from derangetropy.errors import DomainError, GridMismatch, InvalidGrid, NonFiniteSample
from derangetropy.functional import SCALE
from derangetropy.recursion import (
    GridFunction,
    _MASS_TOL,
    apply_derangetropy,
    convergence_metrics,
    discretize,
    iterate,
    l2_distance,
)

RHO_FLAT_CENTER = 1.4051959565836603

# tail truncation that keeps each family's grid honest; the arcsin edges
# need a wide margin because the density is unbounded there
SEED_EPS = {
    "Uniform": 1e-9,
    "Normal": 1e-6,
    "Exponential": 1e-9,
    "Semicircle": 1e-9,
    "Arcsin": 1e-2,
}

ZOO = [
    Uniform(0.0, 1.0),
    Normal(0.0, 1.0),
    Exponential(1.0),
    Semicircle(-1.0, 1.0),
    Arcsin(-1.0, 1.0),
]


def _ids(d):
    return type(d).__name__


def _grid(d, n=2001):
    return discretize(d, n_points=n, tail_eps=SEED_EPS[type(d).__name__])


class TestDiscretize:
    def test_flat_density(self):
        g = discretize(Uniform(0.0, 1.0), n_points=1001, tail_eps=1e-9)
        assert g.level == 0
        assert g.xs[0] == pytest.approx(0.0, abs=1e-8)
        assert g.xs[-1] == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(g.density, 1.0, atol=1e-6)
        assert g.cdf[0] == 0.0
        assert g.cdf[-1] == 1.0

    def test_gaussian_window(self):
        g = discretize(Normal(0.0, 1.0), n_points=501, tail_eps=1e-6)
        assert g.xs[0] == pytest.approx(-4.75342430882277, abs=1e-9)
        assert g.xs[-1] == pytest.approx(4.75342430882277, abs=1e-9)
        assert abs(float(np.trapezoid(g.density, g.xs)) - 1.0) < 1e-8

    def test_arcsin_edges_stay_finite(self):
        g = discretize(Arcsin(0.0, 1.0), n_points=2001, tail_eps=1e-6)
        assert np.all(np.isfinite(g.density))
        assert abs(float(np.trapezoid(g.density, g.xs)) - 1.0) < 1e-8
        # edge density towers over the interior
        assert g.density[0] > 50.0 * g.density[g.density.size // 2]

    def test_validate_passes(self):
        _grid(Uniform(0.0, 1.0)).validate()

    @pytest.mark.parametrize("n", [2, 100])
    def test_too_few_points(self, n):
        with pytest.raises(DomainError):
            discretize(Uniform(0.0, 1.0), n_points=n, tail_eps=1e-6)

    @pytest.mark.parametrize("eps", [0.0, -1e-9, 0.1, 0.2])
    def test_bad_tail_eps(self, eps):
        with pytest.raises(DomainError):
            discretize(Uniform(0.0, 1.0), n_points=1001, tail_eps=eps)


class _Vanishing(Uniform):
    """A uniform law whose pdf reads 0 everywhere."""

    def pdf(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


class TestSampledDensityRule:
    """discretize, apply_derangetropy and Tabulated normalize samples by one rule."""

    @pytest.mark.parametrize("d", ZOO, ids=_ids)
    def test_tabulated_matches_level_zero(self, d):
        g = _grid(d)
        t = Tabulated(g.xs, d.pdf(g.xs))
        assert np.array_equal(t.fs, g.density)
        assert np.array_equal(t.cdf(g.xs), g.cdf)

    def test_zero_tabulated_density(self):
        xs = np.linspace(0.0, 1.0, 9)
        with pytest.raises(InvalidGrid):
            Tabulated(xs, np.zeros_like(xs))

    def test_zero_discretized_density(self):
        with pytest.raises(InvalidGrid):
            discretize(_Vanishing(), n_points=101, tail_eps=1e-6)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_discretize_rejects_bad_pdf_values(self, bad):
        class Spoiled(Uniform):
            def pdf(self, x):
                return np.where(np.abs(np.asarray(x, dtype=float) - 0.5) < 0.1, bad, 1.0)

        with pytest.raises(InvalidGrid):
            discretize(Spoiled(), n_points=101, tail_eps=1e-6)

    @pytest.mark.parametrize(
        "xs, density, cdf, message",
        [
            # a positive, finite mass of 1.4e-320, which would scale the density to [0, inf, 0, 0]
            (
                [0.0, 1e-320, 2e-320, 1.0],
                [0.0, 1.0, 0.0, 2.0],
                [0.0, 0.5, 1.0, 1.0],
                r"sampled density has mass 1\.405e-320, too small to scale to unit mass",
            ),
            # a subnormal mass of 1.4e-319, good to 4e-5 only: the scaled level would have mass 1.000017
            (
                [-1.0, 0.0, 1e-306, 2e-306, 1.0],
                [1.0, 1.0, 1e-13, 0.0, 0.0],
                [0.0, 0.0, 0.5, 1.0, 1.0],
                r"sampled density has mass 1\.405\d*e-319, too small to scale to unit mass",
            ),
            # a normal mass that the density still overflows to inf when divided by
            (
                [-1.0, 0.0, 1e-310, 2e-310, 1.0],
                [1.0, 1.0, 1e4, 0.0, 0.0],
                [0.0, 0.0, 0.5, 1.0, 1.0],
                r"sampled density of mass 1\.405\d*e-306 overflows when scaled to unit mass",
            ),
        ],
        ids=["tiny-mass", "subnormal-terms", "overflow"],
    )
    def test_step_that_cannot_reach_unit_mass(self, xs, density, cdf, message):
        g = GridFunction(xs=np.array(xs), density=np.array(density), cdf=np.array(cdf), level=0)
        g.validate()
        with pytest.raises(InvalidGrid, match=f"^{message}$"):
            apply_derangetropy(g)

    def test_neighbours_past_the_float_maximum(self):
        # nodes 4.4e-309 apart: two scaled neighbours of 1.1e308 add to inf, but the trapezoid halves
        # them first, so the level is valid with unit mass
        xs = np.array([0.0, 1.0 / 3.0 / 7.5e307, 2.0 / 3.0 / 7.5e307, 1.0 / 7.5e307])
        g = GridFunction(xs=xs, density=np.full(4, 7.5e307), cdf=np.array([0.0, 0.25, 0.75, 1.0]), level=0)
        g1 = apply_derangetropy(g)
        g1.validate()
        assert g1.prenorm_mass == pytest.approx(0.75499, abs=1e-5)
        assert g1.density[1] == g1.density[2] == pytest.approx(1.125e308)
        assert g1.cdf.tolist() == [0.0, 0.25, 0.75, 1.0]

    def test_zero_reweighted_density(self):
        # a valid level whose mass sits where the cdf is 0 or 1, so the kernel erases all of it
        g = GridFunction(
            xs=np.array([0.0, 0.5, 1.5]), density=np.array([1.0, 1.0, 0.0]), cdf=np.array([0.0, 1.0, 1.0]), level=0
        )
        with pytest.raises(InvalidGrid):
            apply_derangetropy(g)


class TestApply:
    def test_first_level_flat_density(self):
        g0 = discretize(Uniform(0.0, 1.0), n_points=4001, tail_eps=1e-9)
        g1 = apply_derangetropy(g0)
        assert g1.level == 1
        assert abs(g1.prenorm_mass - 1.0) < 1e-6
        mid = g1.xs.size // 2
        assert g1.density[mid] == pytest.approx(RHO_FLAT_CENTER, rel=1e-5)
        # cdf hits 0 and 1 at the window edges, so the weight vanishes there
        assert g1.density[0] == 0.0
        assert g1.density[-1] == 0.0

    @pytest.mark.parametrize("d", ZOO, ids=_ids)
    def test_mass_renormalized_each_level(self, d):
        g = _grid(d)
        for _ in range(3):
            g = apply_derangetropy(g)
            assert abs(float(np.trapezoid(g.density, g.xs)) - 1.0) < 1e-8

    @pytest.mark.parametrize("d", ZOO, ids=_ids)
    def test_prenorm_mass_near_one(self, d):
        # the weight already integrates to 1 against any density, so the
        # discrete defect should be small at 2001 points
        g = _grid(d)
        for _ in range(5):
            g = apply_derangetropy(g)
            assert abs(g.prenorm_mass - 1.0) < 1e-3

    @pytest.mark.parametrize("d", ZOO, ids=_ids)
    def test_endpoints_pinned(self, d):
        g = apply_derangetropy(_grid(d))
        assert g.density[0] == 0.0
        assert g.density[-1] == 0.0

    @pytest.mark.parametrize(
        "d", [Uniform(0.0, 1.0), Normal(0.0, 1.0), Semicircle(-1.0, 1.0), Arcsin(-1.0, 1.0)],
        ids=_ids,
    )
    def test_median_anchored_for_symmetric_seeds(self, d):
        g = _grid(d)
        m0 = g.median()
        step = float(g.xs[1] - g.xs[0])
        for _ in range(5):
            g = apply_derangetropy(g)
            assert abs(g.median() - m0) <= step

    def test_level_counter(self):
        g = _grid(Uniform(0.0, 1.0))
        assert apply_derangetropy(apply_derangetropy(g)).level == 2


class TestIterate:
    def test_returns_all_levels(self):
        g0 = _grid(Uniform(0.0, 1.0))
        out = iterate(g0, 3)
        assert [g.level for g in out] == [0, 1, 2, 3]
        assert out[0] is g0

    @pytest.mark.parametrize("d", ZOO, ids=_ids)
    def test_ten_levels_valid_and_match_chained_apply(self, d):
        levels = iterate(_grid(d), 10)
        chained = levels[0]
        for g in levels[1:]:
            g.validate()
            chained = apply_derangetropy(chained)
            assert g.level == chained.level
            assert g.prenorm_mass == chained.prenorm_mass
            assert np.array_equal(g.density, chained.density)
            assert np.array_equal(g.cdf, chained.cdf)

    def test_zero_rounds_rejected(self):
        with pytest.raises(DomainError):
            iterate(_grid(Uniform(0.0, 1.0)), 0)

    def test_variance_contracts_for_flat_seed(self):
        out = iterate(_grid(Uniform(0.0, 1.0)), 4)
        center = out[0].median()
        delta = 0.05
        variances = [convergence_metrics(g, delta, center=center).variance for g in out]
        assert all(b < a for a, b in zip(variances, variances[1:]))

    def test_central_mass_grows_for_flat_seed(self):
        out = iterate(_grid(Uniform(0.0, 1.0)), 4)
        center = out[0].median()
        masses = [convergence_metrics(g, 0.05, center=center).central_mass for g in out]
        assert all(b > a for a, b in zip(masses, masses[1:]))


def _whole_grid_step(g):
    """apply_derangetropy as it was before it skipped the nodes outside its cdf
    interior, kept as its oracle: every sum and the kernel run over the whole grid,
    the sine is np.sin at the reflected argument, and the cdf sums the scaled density's steps."""
    g.validate()
    dx = np.diff(g.xs)
    F = np.clip(g.cdf, 0.0, 1.0)
    q = 1.0 - F
    log_psi = np.log(F, out=np.zeros_like(F), where=F > 0.0)
    log_psi *= F
    log_psi += q * np.log(q, out=np.zeros_like(q), where=q > 0.0)
    density = SCALE * np.sin(np.pi * np.minimum(F, q))
    density *= np.exp(log_psi)
    density *= g.density
    terms = density[1:] + density[:-1]
    terms *= dx
    mass = float(terms.sum()) / 2.0
    if not (mass > 0.0 and math.isfinite(mass)):
        raise InvalidGrid(f"sampled density has mass {mass!r}")
    density /= mass
    cdf = np.zeros(density.size)
    steps = np.add(density[1:], density[:-1], out=cdf[1:])
    steps *= 0.5 * dx
    np.cumsum(steps, out=steps)
    cdf /= cdf[-1]
    return GridFunction(g.xs, density, np.clip(cdf, 0.0, 1.0, out=cdf), g.level + 1, mass)


def _whole_grid_metrics(g, delta, center):
    """convergence_metrics with its moments about the mean summed over the whole grid, as np.trapezoid
    does, and that mean."""
    m = convergence_metrics(g, delta, center)
    mean = float(np.trapezoid(g.xs * g.density, g.xs))
    variance = float(np.trapezoid((g.xs - mean) ** 2 * g.density, g.xs))
    return dataclasses.replace(m, variance=max(variance, 0.0)), mean


def _assert_same_bits(g, oracle):
    assert g.level == oracle.level
    assert g.density.tobytes() == oracle.density.tobytes()
    assert g.cdf.tobytes() == oracle.cdf.tobytes()
    assert repr(g.prenorm_mass) == repr(oracle.prenorm_mass)


# float64 unit roundoff, and the least subnormal: a rounding below the normal range is off by half of it at most
U = 2.0**-53
LEAST_SUBNORMAL = 5e-324


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u): the relative error bound of k roundings in a row."""
    return k * U / (1.0 - k * U)


def _assert_step_within_bound(g, prev):
    """g, the step from prev, against _whole_grid_step(prev).

    The kernels are within gamma_17 of each other (tests/test_functional.py::
    assert_kernel_near_masked), plus 12 least subnormals where F is subnormal; there the
    density is at most 2F/dx, since the cdf holds its term, which shrinks that part far
    below one least subnormal on these grids. So the products with the density, one
    rounding each, are within gamma_19, and the nonnegative trapezoid terms, two
    roundings more each, within gamma_23. A sum of m
    nonnegative terms in any order is within gamma_{m-1} of the exact one, and the
    block sums' fsum adds one rounding, so with n nodes and b a block the masses are
    within gamma_{n+b+23} of each other. The densities are the products over the two
    masses, one rounding each: gamma_{n+b+45}. The step's cdf is the running sum
    (gamma_{n-2} at most) of the terms of the products, over its last sum; the
    oracle's is that of steps taking two roundings from its densities, each over its
    last sum. The constant factor 1/mass cancels in the quotient, so the terms differ
    by gamma_{23+4} in ratio, and with the four running sums and two quotients the
    cdfs are within 2 gamma_{2n+27} + 2 u, at most 2 gamma_{3n+b+27} + 2 u.

    Below the normal range a rounding is off by up to half the least subnormal
    instead. A density value takes two such, a product and a quotient by the mass:
    (1 + 1/mass) least subnormals for the two sides. A cdf node adds up to n terms,
    each with two such on each side (its product with half the spacing, and the
    density values it adds, carried by at most half the spacing), and one quotient:
    at most 2 n (1 + max dx) least subnormals.
    """
    oracle, n, b = _whole_grid_step(prev), prev.xs.size, numerics._BLOCK
    mass = _gamma(n + b + 23)
    density = _gamma(n + b + 45)
    cdf = 2.0 * _gamma(3 * n + b + 27) + 2.0 * U
    subnormal_density = (1.0 + 1.0 / oracle.prenorm_mass) * LEAST_SUBNORMAL
    subnormal_cdf = 2.0 * n * (1.0 + float(np.diff(prev.xs).max())) * LEAST_SUBNORMAL
    assert g.level == oracle.level
    assert abs(g.prenorm_mass - oracle.prenorm_mass) <= mass * oracle.prenorm_mass
    assert np.all(np.abs(g.density - oracle.density) <= density * np.abs(oracle.density) + subnormal_density)
    assert np.all(np.abs(g.cdf - oracle.cdf) <= cdf * oracle.cdf + subnormal_cdf)


def _assert_metrics_within_bound(g, delta, center):
    """convergence_metrics against _whole_grid_metrics on the same level.

    The median, iqr and central mass read only the cdf, so they agree exactly.
    The oracle sums terms of at most 6 roundings each (2 in the integrand, 1 in
    x - mean, 3 in the trapezoid term) in the order of _assert_step_within_bound:
    with eps = gamma_{n+b+7} a mean is within eps * max|x| of the exact one, and a
    variance within eps of the one about the mean it used; about a mean off by dm the
    variance moves by dm**2 times the unit mass, not by dm: its first-order change is
    zero. convergence_metrics sums m1 = (x - med) f and m2 = (x - med)**2 f terms of
    at most 7 roundings each, so m2 is within eps of its exact value and m1 within eps
    of the integral A1 of |x - med| f, which is at most sqrt(m2) for a unit mass;
    m2 - m1**2 is then off by eps m2 + 2 eps |m1| A1 + u, at most 3 eps m2 + u, and
    m2 = variance + m1**2, with m1 the mean less the median.
    """
    m, (o, mean) = convergence_metrics(g, delta, center), _whole_grid_metrics(g, delta, center)
    assert dataclasses.replace(m, variance=o.variance) == o
    eps = _gamma(g.xs.size + numerics._BLOCK + 7)
    x = float(np.abs(g.xs).max())
    m1 = mean - m.median
    bound = 3.0 * eps * (m.variance + o.variance + 2.0 * m1 * m1) + 2.0 * (2.0 * eps * x) ** 2
    assert abs(m.variance - o.variance) <= bound


def _hand_built(**edits):
    """A valid 101-node level with a linear cdf, with the given array entries
    replaced and the density then scaled to unit mass."""
    xs = np.linspace(0.0, 1.0, 101)
    arrays = {"density": np.ones(101), "cdf": xs.copy()}
    for name, (index, value) in edits.items():
        arrays[name][index] = value
    arrays["density"] /= np.trapezoid(arrays["density"], xs)
    g = GridFunction(xs=xs, level=0, **arrays)
    g.validate()
    return g


# valid 101-node seeds that stress the interior search: cdf dips within the
# validation slack, signed zeros and negative entries
HAND_BUILT_EDITS = [
    # dips back to 0 and to 1 inside the interior, within the validation slack
    {
        "cdf": (
            [1, 2, 3, 4, 5, 95, 96, 97, 98, 99],
            [0.0, 0.0, 0.5 * _MASS_TOL, 0.0, 0.0, 1.0, 1.0, 1.0 - 0.5 * _MASS_TOL, 1.0, 1.0],
        )
    },
    {"cdf": ([0, 1, 2], [-0.0, -0.0, 0.02])},
    {"cdf": ([0, 1], [-1e-12, 0.0])},
    {"cdf": ([0, 1, 99, 100], [0.0, 0.0, 1.0, 1.0]), "density": ([0, 1, 100], [-0.0, -1e-12, -0.0])},
    {"cdf": ([0, 1, 99, 100], [0.0, 0.0, 1.0, 1.0]), "density": ([0, 1, 99, 100], [0.0, 0.0, 0.0, 0.0])},
]
HAND_BUILT_IDS = ["dips", "negative-zero-cdf", "negative-cdf", "negative-zero-density", "zero-density"]


class TestInteriorOnlyMatchesWholeGrid:
    """apply_derangetropy works only where 0 < F < 1, within rounding of the whole-grid step."""

    @pytest.mark.parametrize("d", ZOO, ids=_ids)
    def test_ten_levels_of_the_zoo(self, d):
        levels = iterate(_grid(d, n=200_001), 10)
        delta = 0.05 * float(levels[0].xs[-1] - levels[0].xs[0])
        center = levels[0].median()
        for prev, g in zip(levels, levels[1:]):
            _assert_step_within_bound(g, prev)
        for g in levels:
            _assert_metrics_within_bound(g, delta, center)

    @pytest.mark.parametrize("edits", HAND_BUILT_EDITS, ids=HAND_BUILT_IDS)
    def test_hand_built_levels(self, edits):
        g = _hand_built(**edits)
        for _ in range(3):
            prev, g = g, apply_derangetropy(g)
            _assert_step_within_bound(g, prev)
            _assert_metrics_within_bound(g, 0.1, None)

    def test_collapse_to_a_single_node(self):
        g = _grid(Uniform(0.0, 1.0), n=101)
        for _ in range(60):
            prev, g = g, apply_derangetropy(g)
            _assert_step_within_bound(g, prev)
        assert np.count_nonzero(g.density) == 1
        # all the mass sits on the median node, where F = 1/2 and the kernel is SCALE/2 = 12/(pi*e)
        assert g.prenorm_mass == pytest.approx(12.0 / (math.pi * math.e), rel=1e-15)
        _assert_metrics_within_bound(g, 0.1, None)

    def test_empty_interior(self):
        g = GridFunction(
            xs=np.array([0.0, 0.5, 1.5]), density=np.array([1.0, 1.0, 0.0]), cdf=np.array([0.0, 1.0, 1.0]), level=0
        )
        with pytest.raises(InvalidGrid) as oracle:
            _whole_grid_step(g)
        with pytest.raises(InvalidGrid, match=f"^{re.escape(str(oracle.value))}$"):
            apply_derangetropy(g)


def _count_validate(monkeypatch):
    """Record the level of every GridFunction.validate call from now on."""
    levels, validate = [], GridFunction.validate

    def counted(g):
        levels.append(g.level)
        validate(g)

    monkeypatch.setattr(GridFunction, "validate", counted)
    return levels


def _assert_sign_free(g):
    assert not (np.signbit(g.density).any() or np.signbit(g.cdf).any())


class TestTrustedLevels:
    """iterate checks its seed once: every level that its steps build is valid and has no sign bit."""

    @pytest.mark.parametrize("d", ZOO, ids=_ids)
    def test_zoo_seed_validated_once(self, d, monkeypatch):
        g0 = _grid(d)
        validated = _count_validate(monkeypatch)
        levels = iterate(g0, 10)
        assert validated == [0]
        for g in levels[1:]:
            _assert_sign_free(g)
            g.validate()

    @pytest.mark.parametrize("edits", HAND_BUILT_EDITS, ids=HAND_BUILT_IDS)
    def test_hand_built_seeds(self, edits, monkeypatch):
        g0 = _hand_built(**edits)
        validated = _count_validate(monkeypatch)
        levels = iterate(g0, 10)
        # the first step clamps signed zeros and negative entries to +0.0, and the dips
        # of the seed's cdf end with it, since a step's cdf is a running sum
        assert validated == [0]
        monkeypatch.undo()
        chained = g0
        for prev, g in zip(levels, levels[1:]):
            chained = apply_derangetropy(chained)
            _assert_same_bits(g, chained)
            _assert_step_within_bound(g, prev)
            _assert_sign_free(g)
            g.validate()

    def test_public_step_validates_every_argument(self, monkeypatch):
        g = iterate(_grid(Normal(0.0, 1.0)), 2)[-1]
        validated = _count_validate(monkeypatch)
        apply_derangetropy(apply_derangetropy(g))
        assert validated == [2, 3]


class TestBlockedPasses:
    """Each level's passes run a block at a time, with no temporary the size of the grid."""

    @pytest.mark.parametrize("d", ZOO, ids=_ids)
    def test_small_blocks_match_the_whole_grid(self, d, monkeypatch):
        # 128 nodes a block: a 2,001-node level spans 16 blocks
        monkeypatch.setattr(numerics, "_BLOCK", 128)
        monkeypatch.setattr(recursion, "_BLOCK", 128)
        levels = iterate(_grid(d), 10)
        delta = 0.05 * float(levels[0].xs[-1] - levels[0].xs[0])
        center = levels[0].median()
        for prev, g in zip(levels, levels[1:]):
            _assert_step_within_bound(g, prev)
        for g in levels:
            _assert_metrics_within_bound(g, delta, center)

    def test_no_reference_cycles(self):
        # a cycle would hold each level's arrays until the cyclic collector ran
        gc.collect()
        gc.disable()
        try:
            levels = iterate(_grid(Normal(0.0, 1.0)), 10)
            [convergence_metrics(g, 0.1) for g in levels]
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_peak_memory_per_node(self):
        n = 1_000_001
        g = apply_derangetropy(discretize(Normal(0.0, 1.0), n, 1e-6))
        peaks = []
        tracemalloc.start()
        try:
            for call in (g.validate, lambda: apply_derangetropy(g), lambda: convergence_metrics(g, 0.5)):
                tracemalloc.reset_peak()
                call()
                peaks.append(tracemalloc.get_traced_memory()[1] / n)
        finally:
            tracemalloc.stop()
        # a new level's density and cdf take 16 bytes a node, and the rest is block scratch,
        # spacings included; whole-grid passes peaked at 33.0 bytes a node in a step and
        # 17.0 in the metrics, np.diff(xs) would add 8 and a bool mask of the grid 1
        assert peaks[0] <= 0.5 and peaks[1] <= 16.5 and peaks[2] <= 2.0, peaks


class TestGridFunctionValidation:
    def _flat(self):
        return _grid(Uniform(0.0, 1.0))

    def test_corrupt_mass(self):
        g = self._flat()
        bad = dataclasses.replace(g, density=g.density * 1.5)
        with pytest.raises(InvalidGrid):
            bad.validate()

    def test_nan_mass(self):
        # neighbours that add to inf across a 5e-324 spacing: the mass is the float maximum (see numerics'
        # least-spacing test), not nan, and validate reports it
        ys = np.full(3, 1.7976931348623157e308)
        g = GridFunction(xs=np.array([-5e-324, 0.0, 1.0]), density=ys, cdf=np.array([0.0, 0.5, 1.0]), level=0)
        with pytest.raises(InvalidGrid, match=r"^density mass 1\.7976931348623157e\+308 is not 1 within 1e-08$"):
            g.validate()

    def test_spacing_past_the_float_range(self):
        # nodes 2e308 apart: the grid test compares them, so validate reaches the mass, which is inf
        import warnings

        xs, cdf = np.array([-1e308, 1e308, 1.5e308]), np.array([0.0, 0.5, 1.0])
        g = GridFunction(xs=xs, density=np.ones(3), cdf=cdf, level=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGrid, match="density mass inf"):
                g.validate()

    def test_non_monotone_grid(self):
        g = self._flat()
        xs = g.xs.copy()
        xs[5], xs[6] = xs[6], xs[5]
        with pytest.raises(InvalidGrid):
            dataclasses.replace(g, xs=xs).validate()

    def test_negative_density(self):
        g = self._flat()
        density = g.density.copy()
        density[100] = -0.5
        with pytest.raises(InvalidGrid):
            dataclasses.replace(g, density=density).validate()

    def test_cdf_must_end_at_one(self):
        g = self._flat()
        cdf = g.cdf.copy()
        cdf[-1] = 0.9
        # the drop onto the last node is what validate meets first
        with pytest.raises(InvalidGrid, match="^cdf must be nondecreasing$"):
            dataclasses.replace(g, cdf=cdf).validate()

    # nondecreasing, but ending at 0.9 or starting at 1e-6
    @pytest.mark.parametrize("spoil", [lambda cdf: cdf * 0.9, lambda cdf: np.maximum(cdf, 1e-6)], ids=["end", "start"])
    def test_cdf_must_run_from_zero_to_one(self, spoil):
        g = self._flat()
        with pytest.raises(InvalidGrid, match="^cdf must run from 0 to 1$"):
            dataclasses.replace(g, cdf=spoil(g.cdf)).validate()

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(cdf=np.linspace(0.0, 1.0, 3)), "^xs, density, cdf must be matching 1-d arrays$"),
            (dict(xs=np.zeros(1), density=np.zeros(1), cdf=np.zeros(1)), "^grid needs at least two nodes$"),
            (dict(level=-1), "^level must be nonnegative$"),
        ],
        ids=["shapes", "one node", "level"],
    )
    def test_other_invariants(self, change, message):
        with pytest.raises(InvalidGrid, match=message):
            dataclasses.replace(self._flat(), **change).validate()

    @pytest.mark.parametrize("field", ["density", "cdf"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values(self, field, bad):
        g = self._flat()
        values = getattr(g, field).copy()
        values[100] = bad
        with pytest.raises(InvalidGrid, match="^density or cdf contains non-finite values$"):
            dataclasses.replace(g, **{field: values}).validate()

    # a NaN fails every comparison, and an infinite end leaves every spacing positive
    @pytest.mark.parametrize("index, bad", [(50, math.nan), (-1, math.inf), (0, -math.inf)])
    def test_non_finite_grid(self, index, bad):
        g = _grid(Uniform(0.0, 1.0), n=101)
        xs = g.xs.copy()
        xs[index] = bad
        g = dataclasses.replace(g, xs=xs)
        for call in (g.validate, lambda: apply_derangetropy(g)):
            with pytest.raises(InvalidGrid, match="^grid must be finite and strictly increasing$"):
                call()

    def test_apply_revalidates_input(self):
        g = self._flat()
        bad = dataclasses.replace(g, density=g.density * 2.0)
        with pytest.raises(InvalidGrid):
            apply_derangetropy(bad)


class TestQuantileAndMedian:
    def test_flat_quantiles(self):
        g = _grid(Uniform(0.0, 1.0), n=4001)
        assert g.quantile(0.5) == pytest.approx(0.5, abs=1e-6)
        assert g.quantile(0.25) == pytest.approx(0.25, abs=1e-6)
        assert g.median() == pytest.approx(0.5, abs=1e-6)

    def test_cdf_at_interpolates(self):
        g = _grid(Uniform(0.0, 1.0), n=4001)
        assert g.cdf_at(0.3) == pytest.approx(0.3, abs=1e-6)
        assert g.cdf_at(-5.0) == 0.0
        assert g.cdf_at(5.0) == 1.0

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
    def test_quantile_domain(self, p):
        with pytest.raises(DomainError):
            _grid(Uniform(0.0, 1.0)).quantile(p)


class TestConvergenceMetrics:
    def test_flat_seed_level_zero(self):
        g = _grid(Uniform(0.0, 1.0), n=4001)
        m = convergence_metrics(g, 0.1)
        assert m.level == 0
        assert m.median == pytest.approx(0.5, abs=1e-6)
        assert m.variance == pytest.approx(1.0 / 12.0, abs=1e-6)
        assert m.central_mass == pytest.approx(0.2, abs=1e-6)
        assert m.iqr == pytest.approx(0.5, abs=1e-5)

    def test_center_override(self):
        g = _grid(Uniform(0.0, 1.0), n=4001)
        shifted = convergence_metrics(g, 0.1, center=0.3)
        assert shifted.central_mass == pytest.approx(0.2, abs=1e-6)
        assert shifted.median == pytest.approx(0.5, abs=1e-6)

    def test_non_finite_moments(self):
        # on a 1.4e301-wide window (x - mean)**2 overflows; that is an error, not a RuntimeWarning
        g = discretize(Exponential(1e-300), n_points=101, tail_eps=1e-6)
        with pytest.raises(NonFiniteSample, match="level 0 has mean .* and variance inf"):
            convergence_metrics(g, 1.0)

    @pytest.mark.parametrize("delta", [0.0, -0.1, math.nan])
    def test_delta_domain(self, delta):
        with pytest.raises(DomainError):
            convergence_metrics(_grid(Uniform(0.0, 1.0)), delta)

    @pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
    def test_center_domain(self, center):
        with pytest.raises(DomainError, match="center must be finite"):
            convergence_metrics(_grid(Uniform(0.0, 1.0)), 0.1, center=center)


class TestL2Distance:
    def test_identity(self):
        g = _grid(Uniform(0.0, 1.0))
        assert l2_distance(g, g) == pytest.approx(0.0, abs=1e-14)

    def test_refinement_stability(self):
        coarse = apply_derangetropy(discretize(Uniform(0.0, 1.0), 2001, 1e-9))
        fine = apply_derangetropy(discretize(Uniform(0.0, 1.0), 4001, 1e-9))
        assert l2_distance(coarse, fine) < 1e-4

    def test_disjoint_windows(self):
        a = discretize(Uniform(0.0, 1.0), 1001, 1e-9)
        b = discretize(Uniform(2.0, 3.0), 1001, 1e-9)
        with pytest.raises(GridMismatch):
            l2_distance(a, b)

    def test_symmetric(self):
        a = apply_derangetropy(_grid(Uniform(0.0, 1.0)))
        b = apply_derangetropy(_grid(Normal(0.0, 1.0)))
        assert l2_distance(a, b) == pytest.approx(l2_distance(b, a), rel=1e-12)


def _bracket_density(g, x):
    """The lesser density at the two nodes around x: the piecewise-linear cdf rises at least that fast there."""
    i = min(max(int(np.searchsorted(g.xs, x)), 1), g.xs.size - 1)
    return float(min(g.density[i - 1], g.density[i]))


class TestAffineEquivariance:
    """X -> sX + b maps each level onto the scaled level: its median to s m + b, its variance
    to s**2 v, its iqr to s q, and its mass within s delta of the mapped center is the same.

    Bound, in units of s from b: every node is a rounded window end, step, product and sum,
    at most 16 roundings of a number below b + s max|z|, so the grids agree to
    zeta = 16 u max|x| of the unit grid, shift included. A grid level's density, in L1,
    and its cdf, in sup, are off by eps_0 = 2 zeta (1 + TV(f)) + 20 u + 2 gamma_n: the
    window ends and the slope of f move the samples, the pdf takes a few roundings, and the
    mass and running sums of n nonnegative terms take gamma_n each. A step reads F through
    K, whose total variation on [0, 1] is 2 K(1/2), and multiplies f by K <= K(1/2), then
    divides both by the mass, so eps_(k+1) = 6 K(1/2) eps_k + 2 gamma_n + 20 u. Arcsin's
    density is singular at the window ends; its TV(f) carries the edge density, and it runs
    at tail_eps 1e-2, the README's setting. At 1e-6 the grid does not resolve the edges: the
    level-0 median moved by 3.7e-4 to 1.3e-3 of s between s = 1 and the scales below.
    """

    FAMILIES = {
        "Normal": (lambda b, s: Normal(b, s), 1e-6),
        "Exponential": (lambda b, s: Exponential(1.0 / s), 1e-9),
        "Uniform": (lambda b, s: Uniform(b, b + s), 1e-9),
        "Semicircle": (lambda b, s: Semicircle(b - s, b + s), 1e-9),
        "Arcsin": (lambda b, s: Arcsin(b, b + s), 1e-2),
    }

    @staticmethod
    def _run(make, eps, b, s):
        levels = iterate(discretize(make(b, s), 2001, eps), 3)
        delta = 0.05 * float(levels[0].xs[-1] - levels[0].xs[0])
        center = levels[0].median()
        return levels, [convergence_metrics(g, delta, center) for g in levels]

    # the exponential has no location parameter, so it is only scaled
    @pytest.mark.parametrize(
        "name, shift", [(name, 0.0) for name in FAMILIES] + [(n, 0.37) for n in FAMILIES if n != "Exponential"]
    )
    def test_recursion_metrics(self, name, shift):
        make, eps = self.FAMILIES[name]
        unit, want = self._run(make, eps, shift, 1.0)
        xs, n = unit[0].xs, unit[0].xs.size
        zeta = 16.0 * U * float(np.abs(xs).max())
        span = float(xs[-1] - xs[0])
        tv = float(np.abs(np.diff(unit[0].density)).sum())
        err = [2.0 * zeta * (1.0 + tv) + 20.0 * U + 2.0 * _gamma(n)]
        for _ in unit[1:]:
            err.append(6.0 * (SCALE / 2.0) * err[-1] + 2.0 * _gamma(n) + 20.0 * U)
        median = [e / _bracket_density(g, w.median) + zeta for e, g, w in zip(err, unit, want)]
        for s in (1e-12, 1e-3, 1e3, 1e12):
            b = shift * s
            _, got = self._run(make, eps, b, s)
            for e, g, m, w in zip(err, unit, got, want):
                q1, q3 = g.quantile(0.25), g.quantile(0.75)
                iqr = e / _bracket_density(g, q1) + e / _bracket_density(g, q3) + 2.0 * zeta
                # the center is the level-0 median and delta 5% of the span, both moved
                central = 2.0 * e + 2.0 * float(g.density.max()) * (median[0] + zeta)
                # a density off by e in L1 moves the moments by e times span**2 at most
                variance = e * span**2 + 2.0 * zeta * span + (e * span) ** 2
                assert abs((m.median - b) / s - (w.median - shift)) <= median[g.level], (s, g.level)
                assert abs(m.variance / s**2 - w.variance) <= variance, (s, g.level)
                assert abs(m.iqr / s - w.iqr) <= iqr, (s, g.level)
                assert abs(m.central_mass - w.central_mass) <= central, (s, g.level)


class TestDeepLevels:
    def test_level_three_stable_under_refinement(self):
        coarse = iterate(discretize(Uniform(0.0, 1.0), 2001, 1e-9), 3)[-1]
        fine = iterate(discretize(Uniform(0.0, 1.0), 4001, 1e-9), 3)[-1]
        xs = np.linspace(0.05, 0.95, 301)
        dc = np.interp(xs, coarse.xs, coarse.density)
        df = np.interp(xs, fine.xs, fine.density)
        assert float(np.max(np.abs(dc - df))) < 1e-3


class TestArcsinIdentity:
    def test_analytic_cdf_identity(self):
        # the arcsine cdf turns the oscillatory factor into the semicircle
        # shape: sin(pi F(x)) = 2 sqrt(x (1 - x)) on (0, 1)
        d = Arcsin(0.0, 1.0)
        xs = np.linspace(0.0, 1.0, 1001)
        lhs = np.sin(np.pi * d.cdf(xs))
        rhs = 2.0 * np.sqrt(xs * (1.0 - xs))
        assert float(np.max(np.abs(lhs - rhs))) < 1e-12

    def test_grid_cdf_identity_is_coarser(self):
        # the grid route is truncation-limited: renormalizing over the
        # clipped window shifts the cdf by O(pi * tail_eps) everywhere, so
        # only a bound of that order holds (the analytic route above is exact)
        g = discretize(Arcsin(0.0, 1.0), 4001, 1e-2)
        lhs = np.sin(np.pi * g.cdf)
        rhs = 2.0 * np.sqrt(np.clip(g.xs * (1.0 - g.xs), 0.0, None))
        defect = float(np.max(np.abs(lhs - rhs)))
        assert defect < 5e-2
        assert defect > 1e-3
