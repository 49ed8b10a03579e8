import math

import numpy as np
import pytest

from derangetropy.distributions import (
    Arcsin,
    Distribution,
    Exponential,
    Normal,
    Semicircle,
    Tabulated,
    Uniform,
    _erfc,
    from_spec,
    load_tabulated,
)
from derangetropy.errors import (
    DomainError,
    InvalidGrid,
    NegativeDensity,
    NonFiniteSample,
    NonMonotoneGrid,
    ParseError,
)
from derangetropy.numerics import integrate

ZOO = [
    Uniform(0.0, 1.0),
    Normal(0.0, 1.0),
    Exponential(1.0),
    Semicircle(-1.0, 1.0),
    Arcsin(0.0, 1.0),
]

SYMMETRIC = [Uniform(0.0, 1.0), Normal(0.0, 1.0), Semicircle(-1.0, 1.0), Arcsin(0.0, 1.0)]

# the five analytic families and a tabulated triangle on [0, 2]
SIX = [*ZOO, Tabulated(np.linspace(0.0, 2.0, 201), 1.0 - np.abs(np.linspace(-1.0, 1.0, 201)))]


def _ids(d):
    return type(d).__name__


def _tabulated_log_pdf(mp, d, x):
    """log of the linear interpolant on the segment that Tabulated takes for x, in mpmath arithmetic."""
    i = int(np.searchsorted(d.xs, float(x), side="right")) - 1
    x0, x1, f0, f1 = (mp.mpf(float(v)) for v in (d.xs[i], d.xs[i + 1], d.fs[i], d.fs[i + 1]))
    return mp.log(f0 + (x - x0) * (f1 - f0) / (x1 - x0))


# log f of each family of SIX up to a constant, in mpmath arithmetic, strictly inside the support
LOG_PDF = {
    "Uniform": lambda mp, d, x: mp.mpf(0),
    "Normal": lambda mp, d, x: -x * x / 2,
    "Exponential": lambda mp, d, x: -x,
    "Semicircle": lambda mp, d, x: mp.log((1 - x) * (1 + x)) / 2,
    "Arcsin": lambda mp, d, x: -mp.log(x * (1 - x)) / 2,
    "Tabulated": _tabulated_log_pdf,
}


class TestPointValues:
    def test_uniform(self):
        d = Uniform(0.0, 1.0)
        assert d.pdf(0.3) == 1.0
        assert d.cdf(0.3) == pytest.approx(0.3, abs=1e-15)
        assert d.pdf(-0.1) == 0.0
        assert d.pdf(1.1) == 0.0
        assert d.cdf(-1.0) == 0.0
        assert d.cdf(2.0) == 1.0
        assert d.pdf_derivative(0.5) == 0.0

    def test_uniform_rescaled(self):
        d = Uniform(-2.0, 2.0)
        assert d.pdf(0.0) == pytest.approx(0.25, abs=1e-15)
        assert d.median() == pytest.approx(0.0, abs=1e-15)

    def test_normal(self):
        d = Normal(0.0, 1.0)
        assert d.pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)
        assert d.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        # f'(x) = -x f(x)
        assert d.pdf_derivative(1.0) == pytest.approx(-d.pdf(1.0), rel=1e-12)
        assert d.pdf_derivative(0.0) == 0.0

    def test_normal_shifted(self):
        d = Normal(3.0, 2.0)
        assert d.cdf(3.0) == pytest.approx(0.5, abs=1e-15)
        assert d.median() == pytest.approx(3.0, abs=1e-12)

    def test_exponential(self):
        d = Exponential(1.0)
        assert d.pdf(0.0) == 1.0
        assert d.cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
        assert d.pdf(-0.5) == 0.0
        assert d.cdf(-0.5) == 0.0
        assert d.pdf_derivative(1.0) == pytest.approx(-math.exp(-1.0), rel=1e-12)
        assert d.median() == pytest.approx(math.log(2.0), rel=1e-13)

    def test_exponential_rate(self):
        d = Exponential(2.5)
        assert d.pdf(0.0) == 2.5
        assert d.quantile(0.5) == pytest.approx(math.log(2.0) / 2.5, rel=1e-13)

    def test_semicircle(self):
        d = Semicircle(-1.0, 1.0)
        assert d.pdf(0.0) == pytest.approx(2.0 / math.pi, rel=1e-14)
        assert d.cdf(0.0) == pytest.approx(0.5, abs=1e-14)
        assert d.pdf(1.0) == 0.0
        assert d.pdf(-1.0) == 0.0
        assert d.pdf(1.5) == 0.0

    def test_arcsin(self):
        d = Arcsin(0.0, 1.0)
        assert d.pdf(0.5) == pytest.approx(2.0 / math.pi, rel=1e-14)
        assert d.cdf(0.5) == pytest.approx(0.5, abs=1e-14)
        # density blows up at the edges but stays infinite rather than nan
        assert math.isinf(d.pdf(0.0))
        assert math.isinf(d.pdf(1.0))
        assert d.pdf(-0.1) == 0.0
        assert d.quantile(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_arcsin_closed_form_quantile(self):
        d = Arcsin(-1.0, 1.0)
        for p in (0.1, 0.25, 0.5, 0.9):
            expected = -1.0 + 2.0 * math.sin(math.pi * p / 2.0) ** 2
            assert d.quantile(p) == pytest.approx(expected, abs=1e-14)


class TestNormalization:
    @pytest.mark.parametrize("d", [Uniform(0.0, 1.0), Semicircle(-1.0, 1.0)], ids=_ids)
    def test_finite_edge_density(self, d):
        lo, hi = d.support()
        assert abs(integrate(d.pdf, lo, hi) - 1.0) < 1e-9

    @pytest.mark.parametrize("d", [Normal(0.0, 1.0), Exponential(1.0)], ids=_ids)
    def test_truncated_interval(self, d):
        # truncating at the 1e-9 quantiles removes exactly 2e-9 of mass, so
        # compare against the truncated target instead of 1
        eps = 1e-9
        lo, hi = d.truncated_support(eps)
        assert abs(integrate(d.pdf, lo, hi) - (1.0 - 2.0 * eps)) < 1e-9

    def test_arcsin_truncated_interval(self):
        # edge density is infinite and the 1 - 1e-9 quantile rounds to the
        # endpoint itself in binary64, so truncate at 1e-6 instead
        d = Arcsin(0.0, 1.0)
        eps = 1e-6
        lo, hi = d.truncated_support(eps)
        assert hi < 1.0
        assert abs(integrate(d.pdf, lo, hi) - (1.0 - 2.0 * eps)) < 1e-9


class TestDerivativeAgainstFiniteDifference:
    @pytest.mark.parametrize("d", ZOO, ids=_ids)
    def test_matches_central_difference(self, d):
        rng = np.random.default_rng(20240817)
        lo, hi = d.truncated_support(1e-6)
        width = hi - lo
        # keep clear of the arcsin/semicircle edges where f' is unbounded
        band = max(1e-3, 1e-3 * width)
        xs = rng.uniform(lo + band, hi - band, size=20)
        h = 3e-7 * max(width, 1.0)
        for x in xs:
            fd = (d.pdf(x + h) - d.pdf(x - h)) / (2.0 * h)
            got = d.pdf_derivative(float(x))
            assert abs(got - fd) <= 1e-6 * (1.0 + abs(fd))

    @pytest.mark.parametrize(
        "d,x",
        [
            (Semicircle(-1.0, 1.0), 2.0),
            (Uniform(0.0, 1.0), -1.0),
            (Exponential(1.0), -0.5),
        ],
    )
    def test_outside_support_rejected(self, d, x):
        with pytest.raises(DomainError):
            d.pdf_derivative(x)

    def test_huge_rate_matches_mpmath(self):
        # lam**2 overflowed (OverflowError) for lam above about 1.34e154; lam * x is 700.0 exactly
        import mpmath

        mp = mpmath.mp.clone()
        mp.dps = 50
        got = Exponential(1e160).pdf_derivative(700e-160)
        want = -mp.mpf(1e160) ** 2 * mp.exp(-700)
        assert abs(mp.mpf(got) / want - 1) < 1e-14

    @pytest.mark.parametrize("d", SIX, ids=_ids)
    def test_boundary_rejected(self, d):
        # the ends of the support, infinite ones included, NaN, and an array holding one of them
        lo, hi = d.support()
        for x in (lo, hi, math.nan, np.array([d.median(), hi])):
            for method in (d.pdf_derivative, d.score):
                with pytest.raises(DomainError, match="strictly inside"):
                    method(x)

    @pytest.mark.parametrize("d", SIX, ids=_ids)
    def test_score_is_log_slope(self, d):
        import mpmath

        mp = mpmath.mp.clone()
        mp.dps = 30
        xs = [d.quantile(p) for p in np.linspace(0.01, 0.99, 25)]
        want = np.array([float(mp.diff(lambda x: LOG_PDF[_ids(d)](mp, d, x), mp.mpf(x))) for x in xs])
        # Arcsin's and Semicircle's two terms cancel toward the center, so the error is bounded by the largest score
        assert np.all(np.abs(d.score(np.array(xs)) - want) <= 1e-14 * np.max(np.abs(want)))

    @pytest.mark.parametrize(
        "d,x,want",
        [(Exponential(1e200), 1e-200, -1e200), (Normal(0.0, 1e-160), 1e-160, -1e160), (Normal(0.0, 1.0), 40.0, -40.0)],
    )
    def test_score_where_f_prime_or_f_is_not_representable(self, d, x, want):
        # f' overflows in the first two cases and f underflows to 0 in the last, where f'/f reads nan
        assert d.score(x) == want

    @pytest.mark.parametrize(
        "d,x,want",
        [
            (Arcsin(0.0, 1.0), 1e-300, -math.inf),
            (Exponential(1e160), 1e-170, -math.inf),
            (Normal(0.0, 1e-160), 1e-160, -math.inf),
            (Normal(0.0, 1e-160), -1e-160, math.inf),
        ],
    )
    def test_pdf_derivative_past_the_float_range(self, d, x, want):
        # |f'| is about 1.6e449, 1e320 and 2.4e319 here: inf of its sign is its rounding, and no overflow warning
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.pdf_derivative(x) == want


class _Minimal(Distribution):
    """A family that writes only what the base class asks for: f = 2x on [0, 1]."""

    def support(self):
        return (0.0, 1.0)

    def _pdf(self, x):
        return np.where((x >= 0.0) & (x <= 1.0), 2.0 * x, 0.0)

    def _cdf(self, x):
        return np.clip(x, 0.0, 1.0) ** 2

    def _score(self, x):
        return 1.0 / x

    def quantile(self, p):
        return math.sqrt(self._check_p(p))


class TestScalarsAndArrays:
    """The base class converts x once, and gives a float for a scalar and the input's shape for an array."""

    def test_minimal_family(self):
        d = _Minimal()
        for method, want in ((d.pdf, 0.5), (d.cdf, 0.0625), (d.pdf_derivative, 2.0), (d.score, 4.0)):
            for x in (0.25, np.float32(0.25)):
                got = method(x)
                assert type(got) is float and got == want
            for shape in [(), (3,), (2, 3)]:
                got = method(np.full(shape, 0.25))
                assert np.shape(got) == shape and np.all(got == want)

    @pytest.mark.parametrize("d", SIX, ids=_ids)
    def test_array_is_bitwise_its_scalar_calls(self, d):
        lo, hi = d.truncated_support(1e-3)
        inside = np.array([d.quantile(p) for p in np.linspace(0.01, 0.99, 25)])
        # pdf and cdf also at the infinities, one unit past the window on each side, -0.0 and the support ends
        anywhere = np.concatenate([inside, [-math.inf, lo - 1.0, -0.0, hi + 1.0, math.inf], d.support()])
        for method, xs in ((d.pdf, anywhere), (d.cdf, anywhere), (d.pdf_derivative, inside), (d.score, inside)):
            got = method(xs)
            want = [method(x) for x in xs.tolist()]
            assert all(type(w) is float for w in want)
            assert got.dtype == np.float64 and got.tobytes() == np.array(want).tobytes()


class TestQuantile:
    @pytest.mark.parametrize("d", ZOO, ids=_ids)
    def test_roundtrip_from_probability(self, d):
        for p in np.linspace(0.01, 0.99, 17):
            assert abs(d.cdf(d.quantile(float(p))) - p) < 1e-10

    @pytest.mark.parametrize("d", ZOO, ids=_ids)
    def test_roundtrip_from_point(self, d):
        lo, hi = d.truncated_support(1e-4)
        for x in np.linspace(lo, hi, 11):
            p = d.cdf(float(x))
            if 1e-12 < p < 1.0 - 1e-12:
                assert abs(d.quantile(p) - x) < 1e-8 * max(1.0, hi - lo)

    @pytest.mark.parametrize("d", ZOO, ids=_ids)
    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1, math.nan])
    def test_rejects_boundary_probabilities(self, d, p):
        with pytest.raises(DomainError):
            d.quantile(p)

    @pytest.mark.parametrize("d", ZOO, ids=_ids)
    def test_median_is_half_quantile(self, d):
        assert d.median() == pytest.approx(d.quantile(0.5), abs=1e-12)

    def test_known_medians(self):
        assert Uniform(2.0, 4.0).median() == pytest.approx(3.0, abs=1e-12)
        assert Normal(-1.0, 3.0).median() == pytest.approx(-1.0, abs=1e-10)
        assert Semicircle(-1.0, 1.0).median() == pytest.approx(0.0, abs=1e-10)
        assert Arcsin(0.0, 1.0).median() == pytest.approx(0.5, abs=1e-14)


class TestQuantileAccuracy:
    """The Normal and Semicircle quantiles and cdfs against mpmath at 50 digits."""

    @pytest.fixture
    def mp(self):
        import mpmath

        mp = mpmath.mp.clone()
        mp.dps = 50
        return mp

    def test_normal(self, mp):
        d = Normal(0.0, 1.0)
        ps = np.concatenate([np.geomspace(1e-300, 0.5, 121), 1.0 - np.geomspace(1e-12, 0.5, 61)[:-1]])
        for p in ps.tolist():
            x = d.quantile(p)
            # Newton on the exact cdf, started from x, converges quadratically to the true quantile
            ref = mp.mpf(x)
            for _ in range(6):
                ref -= (mp.ncdf(ref) - p) / mp.npdf(ref)
            assert abs(x - ref) <= 1e-15 * abs(ref), p

    @pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (0.3, 1.7), (-2.0, 0.25)])
    def test_normal_cdf_lower_tail(self, mp, mu, sigma):
        # 0.5 * (1 + erf) cancelled: 1.8% off at -8 sigma and 0 below -8.374 sigma; erfc's error is the rounding of
        # its argument, about 37.5 * 2**-53 relative in the argument at -37.5 sigma, so 2.7e-13 in the cdf
        d = Normal(mu, sigma)
        for x in (mu + sigma * np.linspace(-37.5, 0.0, 301)).tolist():
            ref = mp.ncdf(mp.mpf(x), mu=mu, sigma=sigma)
            assert abs(d.cdf(x) - ref) <= 5e-13 * ref, x

    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (2.0, 2.5), (-1e5, 3.0)])
    def test_semicircle(self, mp, a, b):
        d = Semicircle(a, b)
        for p in [1e-300, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-6, 1.0 - 1e-9]:
            # bisection in the unit variable: u*sqrt(1 - u*u) + asin(u) rises on [-1, 1]
            target = mp.pi * (mp.mpf(p) - 0.5)
            lo, hi = mp.mpf(-1), mp.mpf(1)
            for _ in range(170):
                mid = (lo + hi) / 2
                if mid * mp.sqrt(1 - mid * mid) + mp.asin(mid) < target:
                    lo = mid
                else:
                    hi = mid
            ref = (mp.mpf(a) + b) / 2 + (mp.mpf(b) - a) / 2 * lo
            assert abs(d.quantile(p) - ref) <= 1e-13 * (b - a), p

    @staticmethod
    def _semicircle_cdf(mp, w):
        """Semicircle(0, 1).cdf at 0 < w <= 1/2: (t - sin t)/(2 pi) with t = 4 asin(sqrt w), by a series that does
        not cancel: t - sin t = (t**3/6) 1F2(1; 2, 5/2; -t**2/4)."""
        t = 4 * mp.asin(mp.sqrt(w))
        return t**3 / (12 * mp.pi) * mp.hyp1f2(1, 2, 2.5, -t * t / 4)

    def _semicircle_quantile(self, mp, p, w):
        """The w in (0, 1/2] with Semicircle(0, 1).cdf(w) = p, by Newton on the exact cdf from a close w."""
        w = mp.mpf(w)
        for _ in range(3):
            w -= (self._semicircle_cdf(mp, w) - p) / (8 / mp.pi * mp.sqrt(w * (1 - w)))
        return w

    def test_semicircle_quantile_is_relative_to_the_edge(self, mp):
        d = Semicircle(0.0, 1.0)
        for p in np.geomspace(1e-300, 0.5, 61).tolist():
            x = d.quantile(p)
            assert abs(x - self._semicircle_quantile(mp, p, x)) <= 1e-15 * x, p

    def test_semicircle_quantile_to_the_rounding_of_x(self, mp):
        # x = -1 + 2 w or 1 - 2 w rounds to a multiple of ulp(1)/2 at worst
        d, unit = Semicircle(-1.0, 1.0), Semicircle(0.0, 1.0)
        for p in np.concatenate([np.geomspace(1e-300, 0.5, 41), 1.0 - np.geomspace(1e-15, 0.5, 41)]).tolist():
            # 1 - p is exact for p >= 1/2, and the mass below -1 + 2 w is that above 1 - 2 w
            q = min(p, 1.0 - p)
            w = self._semicircle_quantile(mp, q, unit.quantile(q))
            ref = -1 + 2 * w if p <= 0.5 else 1 - 2 * w
            assert abs(d.quantile(p) - ref) <= 4.0 * math.ulp(1.0), p

    @pytest.mark.parametrize("p, rel", [(1e-12, 1e-4), (1e-9, 1e-7), (1e-6, 1e-10)])
    def test_semicircle_cdf_near_the_edge(self, mp, p, rel):
        # on (-1, 1), against the textbook 0.5 + (u sqrt(1 - u*u) + asin u)/pi taken in high precision
        d = Semicircle(-1.0, 1.0)
        x = d.quantile(p)
        u = mp.mpf(x)
        ref = mp.mpf(0.5) + (u * mp.sqrt(1 - u * u) + mp.asin(u)) / mp.pi
        assert abs(d.cdf(x) - ref) <= rel * ref

    def test_semicircle_cdf_is_relative_to_the_edge(self, mp):
        # 0.5 + (u sqrt((1 - u)(1 + u)) + asin u)/pi cancelled, to 3.6e-5 relative at F = 1e-12
        d = Semicircle(0.0, 1.0)
        for p in np.concatenate([np.geomspace(1e-300, 0.5, 61), np.linspace(0.01, 0.5, 50)]).tolist():
            x = d.quantile(p)
            ref = self._semicircle_cdf(mp, mp.mpf(x))
            assert abs(d.cdf(x) - ref) <= 1e-14 * ref, p

    @pytest.mark.parametrize(
        "z",
        [np.array(0.7), np.array([]), np.linspace(-7.0, 7.0, 10_001), np.linspace(-2.0, 2.0, 12).reshape(3, 4)],
        ids=["0-d", "empty", "10001", "2-d"],
    )
    def test_erfc_is_math_erfc_bitwise(self, z):
        got = _erfc(z)
        assert got.shape == z.shape and got.dtype == np.float64
        want = np.array([math.erfc(v) for v in z.ravel().tolist()], dtype=float)
        assert np.array_equal(got.ravel().view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("d", [Normal(0.3, 1.7), Semicircle(-1.0, 2.0)], ids=_ids)
    def test_window_makes_no_cdf_calls(self, d, monkeypatch):
        calls = []
        cdf = type(d).cdf
        monkeypatch.setattr(type(d), "cdf", lambda self, x: calls.append(x) or cdf(self, x))
        d.truncated_support(1e-6)
        assert calls == []
        d.cdf(0.0)
        assert len(calls) == 1


class TestSymmetry:
    @pytest.mark.parametrize("d", SYMMETRIC, ids=_ids)
    def test_cdf_reflection(self, d):
        m = d.median()
        lo, hi = d.truncated_support(1e-6)
        half = min(m - lo, hi - m)
        for t in np.linspace(0.0, half * 0.999, 25):
            assert abs(d.cdf(m - t) + d.cdf(m + t) - 1.0) < 1e-10


class TestTruncatedSupport:
    def test_quantile_based_for_bounded_families(self):
        # the helper pulls in by quantiles for every family, bounded or not
        lo, hi = Uniform(0.0, 1.0).truncated_support(1e-9)
        assert lo == pytest.approx(1e-9, abs=1e-18)
        assert hi == pytest.approx(1.0 - 1e-9, abs=1e-15)
        lo, hi = Semicircle(-1.0, 1.0).truncated_support(1e-6)
        assert -1.0 < lo < hi < 1.0
        assert abs(Semicircle(-1.0, 1.0).cdf(lo) - 1e-6) < 1e-12

    def test_arcsin_pulls_in(self):
        lo, hi = Arcsin(0.0, 1.0).truncated_support(1e-6)
        assert 0.0 < lo < hi < 1.0
        assert abs(Arcsin(0.0, 1.0).cdf(lo) - 1e-6) < 1e-12

    def test_normal_tail(self):
        lo, hi = Normal(0.0, 1.0).truncated_support(1e-6)
        assert lo == pytest.approx(-4.75342430882277, abs=1e-9)
        assert hi == pytest.approx(4.75342430882277, abs=1e-9)

    def test_normal_window_is_symmetric(self):
        for eps in [1e-9, 1e-6, 1e-4, 0.3]:
            lo, hi = Normal(0.0, 1.0).truncated_support(eps)
            assert hi == -lo

    @pytest.mark.parametrize(
        "d",
        [
            Uniform(-1.0, 1.0),
            Semicircle(-1.0, 1.0),
            Arcsin(-1.0, 1.0),
            Uniform(0.0, 1.0),
            Semicircle(2.0, 7.0),
            Arcsin(0.0, 1.0),
        ],
        ids=repr,
    )
    def test_bounded_windows_reflect_about_the_center(self, d):
        c = d.median()
        for eps in [1e-9, 1e-6, 1e-2]:
            lo, hi = d.truncated_support(eps)
            assert type(lo) is float and type(hi) is float
            assert lo == d.quantile(eps) and hi == c + (c - lo)
            if c == 0.0:
                assert hi - c == c - lo and hi == -lo

    @pytest.mark.parametrize("d", [Normal(0.0, 1.0), Exponential(1.0)], ids=_ids)
    def test_upper_end_matches_mpmath(self, d):
        # the quantile at 1 - eps, with 1 - eps taken exactly
        import mpmath

        mp = mpmath.mp.clone()
        mp.dps = 50
        eps = mp.mpf(1e-9)
        ref = mp.sqrt(2) * mp.erfinv(1 - 2 * eps) if isinstance(d, Normal) else -mp.log(eps)
        _, hi = d.truncated_support(1e-9)
        assert abs(hi - ref) <= 1e-15 * ref

    @pytest.mark.parametrize("d", [Normal(0.0, 1e308), Exponential(1e-310)], ids=_ids)
    def test_overflowing_window(self, d):
        with pytest.raises(DomainError, match="not finite"):
            d.truncated_support(1e-6)

    @pytest.mark.parametrize("eps", [0.0, -1e-3, 0.5, 1.0])
    def test_bad_eps(self, eps):
        with pytest.raises(DomainError):
            Uniform(0.0, 1.0).truncated_support(eps)


class TestParameterValidation:
    @pytest.mark.parametrize(
        "ctor",
        [
            lambda: Uniform(1.0, 1.0),
            lambda: Uniform(2.0, 1.0),
            lambda: Normal(0.0, 0.0),
            lambda: Normal(0.0, -1.0),
            lambda: Exponential(0.0),
            lambda: Exponential(-2.0),
            lambda: Semicircle(1.0, 1.0),
            lambda: Arcsin(1.0, 0.0),
            lambda: Normal(math.nan, 1.0),
            lambda: Semicircle(math.nan, 1.0),
            lambda: Semicircle(-math.inf, 1.0),
            lambda: Arcsin(0.0, math.inf),
            lambda: Normal(0.0, 1e-320),
            lambda: Uniform(0.0, 1e-310),
            lambda: Uniform(-1e308, 1e308),
        ],
    )
    def test_rejected(self, ctor):
        with pytest.raises(DomainError):
            ctor()


class TestFromSpec:
    def test_families(self):
        assert from_spec("uniform:0,1") == Uniform(0.0, 1.0)
        assert from_spec("normal:0,1") == Normal(0.0, 1.0)
        assert from_spec("exponential:2") == Exponential(2.0)
        assert from_spec("semicircle:-1,1") == Semicircle(-1.0, 1.0)
        assert from_spec("arcsin:0,1") == Arcsin(0.0, 1.0)

    def test_whitespace_tolerated(self):
        assert from_spec(" normal: 0 , 1 ") == Normal(0.0, 1.0)

    @pytest.mark.parametrize(
        "text",
        [
            "cauchy:0,1",
            "uniform",
            "uniform:",
            "uniform:0",
            "uniform:0,1,2",
            "normal:0,abc",
            "",
            ":0,1",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            from_spec(text)

    def test_tabulated_without_path(self):
        with pytest.raises(ParseError, match="^tabulated spec needs a file path"):
            from_spec("tabulated:")

    def test_tabulated_route(self, tmp_path):
        path = tmp_path / "flat.csv"
        xs = np.linspace(0.0, 1.0, 101)
        lines = ["x,f"] + [f"{x},1.0" for x in xs]
        path.write_text("\n".join(lines) + "\n")
        d = from_spec(f"tabulated:{path}")
        assert isinstance(d, Tabulated)
        assert d.pdf(0.5) == pytest.approx(1.0, rel=1e-9)


class TestLoadTabulated:
    def _write(self, tmp_path, rows, header="x,f"):
        path = tmp_path / "t.csv"
        path.write_text("\n".join([header] + rows) + "\n")
        return path

    def test_cell_past_the_csv_field_limit(self, tmp_path):
        path = self._write(tmp_path, [f"{i},1" for i in range(8)] + ["8," + "1" * 140_000])
        with pytest.raises(ParseError, match="field larger than field limit"):
            load_tabulated(path)

    def test_flat_density(self, tmp_path):
        xs = np.linspace(0.0, 1.0, 1001)
        path = self._write(tmp_path, [f"{x:.17g},1.0" for x in xs])
        d = load_tabulated(path)
        assert abs(d.normalization - 1.0) < 1e-9
        assert d.pdf(0.25) == pytest.approx(1.0, rel=1e-9)
        assert d.cdf(0.5) == pytest.approx(0.5, abs=1e-9)
        assert d.median() == pytest.approx(0.5, abs=1e-6)

    def test_unnormalized_input_is_rescaled(self, tmp_path):
        xs = np.linspace(0.0, 1.0, 1001)
        path = self._write(tmp_path, [f"{x:.17g},3.0" for x in xs])
        d = load_tabulated(path)
        assert d.normalization == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert d.pdf(0.5) == pytest.approx(1.0, rel=1e-9)

    def test_extra_columns_ignored(self, tmp_path):
        # the eval command emits x,f,F,rho; that file must load back
        xs = np.linspace(0.0, 1.0, 101)
        rows = [f"{x:.17g},1.0,{x:.17g},0.0" for x in xs]
        path = self._write(tmp_path, rows, header="x,f,F,rho")
        d = load_tabulated(path)
        assert d.pdf(0.5) == pytest.approx(1.0, rel=1e-9)

    def test_header_case_insensitive(self, tmp_path):
        xs = np.linspace(0.0, 1.0, 21)
        path = self._write(tmp_path, [f"{x},1.0" for x in xs], header="X,F")
        assert load_tabulated(path).pdf(0.5) == pytest.approx(1.0, rel=1e-9)

    def test_negative_density(self, tmp_path):
        rows = [f"{x},{v}" for x, v in zip(np.linspace(0, 1, 9), [1, 1, 1, -1, 1, 1, 1, 1, 1])]
        with pytest.raises(NegativeDensity):
            load_tabulated(self._write(tmp_path, rows))

    def test_too_few_rows(self, tmp_path):
        rows = [f"{x},1.0" for x in np.linspace(0, 1, 7)]
        with pytest.raises(ParseError):
            load_tabulated(self._write(tmp_path, rows))

    def test_non_monotone_grid(self, tmp_path):
        xs = [0.0, 0.1, 0.2, 0.15, 0.4, 0.6, 0.8, 1.0]
        rows = [f"{x},1.0" for x in xs]
        with pytest.raises(NonMonotoneGrid):
            load_tabulated(self._write(tmp_path, rows))

    def test_missing_columns(self, tmp_path):
        rows = [f"{x},1.0" for x in np.linspace(0, 1, 9)]
        with pytest.raises(ParseError):
            load_tabulated(self._write(tmp_path, rows, header="t,density"))

    def test_garbage_cell(self, tmp_path):
        rows = [f"{x},1.0" for x in np.linspace(0, 1, 9)]
        rows[4] = "0.5,oops"
        with pytest.raises(ParseError):
            load_tabulated(self._write(tmp_path, rows))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xff\xfex,f\n" + b"".join(b"%d,1.0\n" % i for i in range(9)))
        with pytest.raises(ParseError, match="utf-8"):
            load_tabulated(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_tabulated(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="is empty$"):
            load_tabulated(path)

    def test_blank_rows_skipped(self, tmp_path):
        rows = [f"{x!r},{1.0 + x!r}" for x in np.linspace(0.0, 1.0, 9).tolist()]
        spaced = rows[:3] + ["", " , "] + rows[3:] + [""]
        a, b = load_tabulated(self._write(tmp_path, rows)), load_tabulated(self._write(tmp_path, spaced))
        assert b.xs.tobytes() == a.xs.tobytes() and b.fs.tobytes() == a.fs.tobytes()

    def test_byte_order_mark(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with one; it must not reach the header cell
        text = "x,f\n" + "".join(f"{x!r},{1.0 + x * x!r}\n" for x in np.linspace(0.0, 1.0, 101).tolist())
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        a, b = load_tabulated(plain), load_tabulated(marked)
        assert b.fs.tobytes() == a.fs.tobytes()
        assert b.normalization == a.normalization


class TestTabulatedQueries:
    @pytest.mark.parametrize("xs, fs", [(np.arange(9.0), np.ones(8)), (np.arange(9.0), np.ones((9, 1)))])
    def test_mismatched_arrays(self, xs, fs):
        with pytest.raises(ParseError, match="^tabulated density needs matching 1-d x and f arrays$"):
            Tabulated(xs, fs)

    def _triangle(self):
        xs = np.linspace(0.0, 2.0, 201)
        ys = np.where(xs <= 1.0, xs, 2.0 - xs)
        return Tabulated(xs, ys)

    def test_interpolated_pdf(self):
        d = self._triangle()
        assert d.pdf(0.5) == pytest.approx(0.5, rel=1e-9)
        assert d.pdf(1.0) == pytest.approx(1.0, rel=1e-9)
        assert d.pdf(-0.5) == 0.0
        assert d.pdf(2.5) == 0.0

    def test_cdf_and_quantile_agree(self):
        d = self._triangle()
        for p in (0.1, 0.5, 0.9):
            assert abs(d.cdf(d.quantile(p)) - p) < 1e-6

    def test_median(self):
        assert self._triangle().median() == pytest.approx(1.0, abs=1e-6)

    def test_segment_slope_derivative(self):
        d = self._triangle()
        assert d.pdf_derivative(0.3) == pytest.approx(1.0, rel=1e-9)
        assert d.pdf_derivative(1.7) == pytest.approx(-1.0, rel=1e-9)

    def test_score_on_a_zero_stretch(self):
        # inside the support where f is 0, as total_energy_derivative refuses there too
        import warnings

        from derangetropy.functional import total_energy_derivative

        d = Tabulated(np.linspace(0.0, 4.0, 9), [1, 1, 0, 0, 1, 1, 1, 1, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1.0, 1.25, 1.5, np.array([0.5, 1.25])):
                with pytest.raises(DomainError, match="f > 0"):
                    d.score(x)
                with pytest.raises(DomainError, match="f > 0"):
                    total_energy_derivative(d, x)
            assert d.score(0.75) == -4.0

    def test_spacing_past_the_float_range(self):
        # 2e308 between the first two nodes: the order check compares them, so no subtraction overflows
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGrid, match="mass inf"):
                Tabulated([-1e308, 1e308, 1.1e308, 1.2e308], np.ones(4))

    def test_mass_near_the_float_maximum(self):
        # a mass of 9e307 is finite, although twice it, the unhalved trapezoid sum, is not
        d = Tabulated(np.arange(10) * 1e307, np.ones(10))
        assert d.normalization == 1.0 / 9e307
        assert d.cdf(4.5e307) == pytest.approx(0.5, rel=1e-12)

    def test_vector_queries(self):
        d = self._triangle()
        out = d.pdf(np.array([0.5, 1.0, 1.5]))
        assert out == pytest.approx([0.5, 1.0, 0.5], rel=1e-9)

    # a non-finite x sits where the grid stays increasing, so only the finiteness check can catch it
    @pytest.mark.parametrize(
        "column, index, bad",
        [
            ("xs", 4, math.nan),
            ("xs", -1, math.inf),
            ("xs", 0, -math.inf),
            ("fs", 4, math.nan),
            ("fs", 4, math.inf),
            ("fs", 4, -math.inf),
        ],
    )
    def test_non_finite_sample(self, column, index, bad):
        cols = {"xs": np.linspace(0.0, 1.0, 9), "fs": np.ones(9)}
        cols[column][index] = bad
        with pytest.raises(NonFiniteSample):
            Tabulated(cols["xs"], cols["fs"])
