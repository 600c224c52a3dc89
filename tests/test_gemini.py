"""Unit tests for the gemini function family."""

import math
import random

import mpmath
import pytest

from _accuracy import ulps
from gemini_dilog import gemini
from gemini_dilog._sampling import geomspace
from gemini_dilog.analysis import integrate
from gemini_dilog.gemini import GeminiParams

PHI = (1.0 + math.sqrt(5.0)) / 2.0

SHAPE_FACTORS = (-0.999, -0.5, -1.0 / PHI ** 2, 0.0, 0.3, 1.0, 2.0, 10.0)


def grid(lo, hi, n=64):
    return geomspace(lo, hi, n)


class TestValue:
    def test_self_inverse(self):
        # g(g(x)) = x on a log grid, for every shape factor, into the tail
        # where g(x) ~ (1+a) e^{-x} is near the bottom of binary64
        for a in SHAPE_FACTORS:
            p = GeminiParams(a)
            for x in grid(1e-3, 700.0):
                y = gemini.value(p, float(x))
                assert gemini.value(p, y) == pytest.approx(float(x), rel=1e-9,
                                                           abs=1e-10)

    def test_scale_factor(self):
        # g_a^b(x) = b * g_a^1(x/b)
        p = GeminiParams(0.7, 2.5)
        for x in grid(1e-2, 30.0):
            ref = 2.5 * gemini.value(GeminiParams(0.7), float(x) / 2.5)
            assert gemini.value(p, float(x)) == pytest.approx(ref, rel=1e-13)

    def test_fundamental_form(self):
        # a = 1: g(x) = ln(coth(x/2)) = 2 artanh(e^{-x}), taken from mpmath:
        # log(1/tanh(x/2)) in binary64 is itself thousands of ulps off beyond x ~ 5
        p = GeminiParams(1.0)
        with mpmath.workdps(40):
            for x in grid(1e-2, 700.0):
                ref = float(2 * mpmath.atanh(mpmath.exp(-mpmath.mpf(float(x)))))
                assert abs(gemini.value(p, float(x)) - ref) <= 2.0 * math.ulp(ref), x

    @staticmethod
    def _exact_quotient_grid(n=200):
        # 200 log-spaced u = x/b on [1e-12, 700], rounded to 50 bits so that
        # x = 2.5 u and x / 2.5 are exact: the rounding of x/b alone moves g by
        # up to u g'(u)/g(u) ~ u half-ulps, which no evaluator can undo
        out = []
        for k in range(n):
            m, e = math.frexp(1e-12 * (700.0 / 1e-12) ** (k / (n - 1)))
            out.append(math.ldexp(round(m * 2.0 ** 50), e - 50))
        return out

    @pytest.mark.parametrize("a", [-1.0 + 1e-12, -0.999, -0.9, -0.5, 0.0, 1.0, 10.0, 1e3, 1e8])
    def test_against_mpmath(self, a):
        # value within 2 ulps of b log1p((1+a)/expm1(x/b)) from the tail
        # g ~ (1+a) e^{-u} to the pole g ~ ln((1+a)/u); symmetric_partner is g_a
        with mpmath.workdps(40):
            am = 1 + mpmath.mpf(a)
            for u in self._exact_quotient_grid():
                ref = float(mpmath.log1p(am / mpmath.expm1(mpmath.mpf(u))))
                assert abs(gemini.symmetric_partner(a, u) - ref) <= 2.0 * math.ulp(ref), u
                for b in (1.0, 2.5):
                    x = b * u
                    assert x / b == u
                    ref = float(b * mpmath.log1p(am / mpmath.expm1(mpmath.mpf(x) / b)))
                    got = gemini.value(GeminiParams(a, b), x)
                    assert abs(got - ref) <= 2.0 * math.ulp(ref), (b, u)

    # mpmath values (40 digits, correctly rounded) in the tail g ~ (1+a) e^{-x},
    # and where the log1p argument leaves binary64 (a near DBL_MAX; x/b underflows)
    @pytest.mark.parametrize("a, b, x, ref", [
        (0.0, 1.0, 40.0, 4.248354255291589e-18),
        (-0.5, 1.0, 38.0, 1.5695663960240148e-17),
        (1.0, 1.0, 30.0, 1.871524593768035e-13),
        (1.7e308, 1.0, 1e-10, 732.7526878231187),
        (709.78, 1.4222345118556956e16, 2.225073858507203e-309, 1.073017566859879e19),
    ])
    def test_spot_values(self, a, b, x, ref):
        assert abs(gemini.value(GeminiParams(a, b), x) - ref) <= 2.0 * math.ulp(ref)

    @pytest.mark.parametrize("x", [5e-324, 1e-17, 1e-10, 1.0, 30.0, 1e300, math.inf])
    def test_completely_degenerate_member_is_zero(self, x):
        # a = -1: g = b ln((1 - e^{-x/b}) / (1 - e^{-x/b})) vanishes identically
        assert gemini.value(GeminiParams(-1.0), x) == 0.0
        assert gemini.value(GeminiParams(-1.0, 2.5), x) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            gemini.value(GeminiParams(1.0), 0.0)
        with pytest.raises(ValueError):
            GeminiParams(-1.5)
        with pytest.raises(ValueError):
            GeminiParams(1.0, 0.0)

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                      (1.0, math.inf)])
    def test_non_finite_parameters_named(self, a, b):
        with pytest.raises(ValueError, match=f"a={a!r}, b={b!r}"):
            GeminiParams(a, b)


class TestAntiderivative:
    def test_derivative_consistency(self):
        # central difference of F reproduces g to ~h^2
        h = 1e-6
        for a in SHAPE_FACTORS:
            p = GeminiParams(a)
            for x in grid(0.05, 10.0, 32):
                x = float(x)
                num = (gemini.antiderivative(p, x + h)
                       - gemini.antiderivative(p, x - h)) / (2.0 * h)
                assert num == pytest.approx(gemini.value(p, x), rel=1e-7,
                                            abs=1e-9)

    def test_vanishes_at_infinity(self):
        assert gemini.antiderivative(GeminiParams(1.0), 50.0) == pytest.approx(
            0.0, abs=1e-20)

    def test_total_area_is_area_from_zero(self):
        for a in SHAPE_FACTORS:
            p = GeminiParams(a)
            assert -gemini.antiderivative(p, 0.0) == pytest.approx(
                gemini.total_area(p), rel=1e-13)

    def test_total_area_against_quadrature(self):
        for a in (-0.5, 0.0, 1.0, 5.0):
            p = GeminiParams(a)
            q = integrate(lambda x: gemini.value(p, x), 0.0, math.inf, 1e-10)
            assert gemini.total_area(p) == pytest.approx(q, abs=1e-9)

    def test_degenerate_edge(self):
        # a = -1 collapses the area to zero
        assert gemini.total_area(GeminiParams(-1.0)) == 0.0


def _total_area_shapes():
    # 1 + a = 10^(-k/4) down to 1e-15, where pi^2/6 - Li2(-a) cancels unless reflected,
    # plus seeded points on [-1/2, 1e8], half of them log-uniform above 1
    rng = random.Random(0)
    return ([-1.0 + 10.0 ** (-k / 4) for k in range(61)]
            + [rng.uniform(-0.5, 1.0) for _ in range(100)]
            + [10.0 ** rng.uniform(0.0, 8.0) for _ in range(100)])


class TestTotalAreaAgainstMpmath:
    SHAPES = _total_area_shapes()

    @staticmethod
    def _atot(a):
        return mpmath.pi ** 2 / 6 - mpmath.polylog(2, -mpmath.mpf(a))

    def test_within_a_few_ulps(self):
        with mpmath.workdps(40):
            for a in self.SHAPES:
                atot = self._atot(a)
                x0 = mpmath.log1p(mpmath.sqrt(1 + mpmath.mpf(a)))
                assert ulps(gemini.total_area(GeminiParams(a)), atot) <= 2.5, a
                assert ulps(gemini.fixed_point(a), x0) <= 1.5, a
                assert ulps(gemini.area_ratio_r(a), atot / x0 ** 2) <= 4.0, a
                assert ulps(gemini.atot_of_a_p(a, 2.0), atot / (a + 2) ** 2) <= 4.0, a

    def test_continuous_across_the_switch(self):
        # the neighbouring floats of a = -1/2 take the reflected and the direct form
        below, above = math.nextafter(-0.5, -1.0), math.nextafter(-0.5, 0.0)
        with mpmath.workdps(40):
            for a in (below, -0.5, above):
                assert ulps(gemini.total_area(GeminiParams(a)), self._atot(a)) <= 2.5, a
        lo, mid, hi = (gemini.total_area(GeminiParams(a)) for a in (below, -0.5, above))
        assert abs(mid - lo) <= 2.0 * math.ulp(mid)
        assert abs(hi - mid) <= 2.0 * math.ulp(mid)


class TestOverflow:
    # a result scaled by b that overflows binary64 is a ValueError, not inf
    @pytest.mark.parametrize("fn, args", [
        (gemini.value, (GeminiParams(1.0, 1e307), 1.0)),
        (gemini.antiderivative, (GeminiParams(1.0, 1e200), 1.0)),
        (gemini.area_between, (GeminiParams(1.0, 1e200), 1.0, 2.0)),
        (gemini.total_area, (GeminiParams(1.0, 1e200),)),
        (gemini.area_decomposition, (GeminiParams(1.0, 1e200),)),
    ], ids=["value", "antiderivative", "area_between", "total_area", "area_decomposition"])
    def test_overflow_raises(self, fn, args):
        with pytest.raises(ValueError, match="overflows binary64"):
            fn(*args)

    def test_largest_finite_scale(self):
        # b^2 near DBL_MAX / A_tot still fits
        p = GeminiParams(1.0, 1e153)
        assert gemini.total_area(p) == pytest.approx(1e306 * math.pi ** 2 / 4.0, rel=1e-14)
        assert gemini.area_decomposition(p).total == gemini.total_area(p)


class TestFixedPoint:
    def test_on_curve(self):
        for a in SHAPE_FACTORS:
            x0 = gemini.fixed_point(a)
            assert gemini.value(GeminiParams(a), x0) == pytest.approx(x0,
                                                                      rel=1e-12)

    @pytest.mark.parametrize("a", [math.inf, math.nan])
    def test_non_finite_shape_factor(self, a):
        with pytest.raises(ValueError, match=f"got {a!r}"):
            gemini.fixed_point(a)

    def test_fundamental_value(self):
        assert gemini.fixed_point(1.0) == pytest.approx(
            math.log(1.0 + math.sqrt(2.0)), abs=1e-15)

    def test_symmetric_partner_involution(self):
        for a in (0.0, 0.5, 1.0, 3.0):
            for x1 in (0.05, 0.2, 0.7):
                x2 = gemini.symmetric_partner(a, x1)
                assert gemini.symmetric_partner(a, x2) == pytest.approx(
                    x1, rel=1e-10)

    def test_partner_fixes_fixed_point(self):
        a = 0.8
        x0 = gemini.fixed_point(a)
        assert gemini.symmetric_partner(a, x0) == pytest.approx(x0, rel=1e-12)

    @pytest.mark.parametrize("a, x1, ref", [
        (-0.9, 5.0, 0.000678135504764756),
        (-0.9, 30.0, 9.357622968841005e-15),
        (1.0, 710.0, 8.95257245135026e-309),
        (1e308, 715.0, 0.003011558635781259),
        (1.7e308, 712.0, 0.09802096495311731),
        (1.0, 5e-324, 745.1332191019412),
        (-1.0, 5e-324, 0.0),
    ])
    def test_partner_spot_values(self, a, x1, ref):
        # mpmath values of g_a(x1) in the tail, where e^x1 overflows (a e^{-x1}
        # is not small for a near DBL_MAX), and where x1 is subnormal
        assert abs(gemini.symmetric_partner(a, x1) - ref) <= 2.0 * math.ulp(ref)

    @pytest.mark.parametrize("x1", [0.0, -1.0, -5e-324])
    def test_partner_domain(self, x1):
        with pytest.raises(ValueError, match=r"symmetric_partner\(.*x1 > 0"):
            gemini.symmetric_partner(1.0, x1)


class TestAreaDecomposition:
    def test_parts_sum(self):
        for a in SHAPE_FACTORS:
            d = gemini.area_decomposition(gemini.GeminiParams(a))
            assert d.middle_square + 2.0 * d.apex == pytest.approx(d.total,
                                                                   rel=1e-12)
            assert d.rectangle == d.middle_square
            assert d.between_limits == 0.0

    def test_apex_symmetry(self):
        # area above the middle square equals the tail area beyond x0
        for a in (-0.5, 0.0, 1.0, 4.0):
            p = GeminiParams(a)
            x0 = gemini.fixed_point(a)
            left = integrate(lambda x: gemini.value(p, x) - x0, 0.0, x0, 1e-10)
            right = integrate(lambda x: gemini.value(p, x), x0, math.inf, 1e-10)
            assert left == pytest.approx(right, abs=1e-9)
            assert gemini.area_decomposition(p).apex == pytest.approx(
                right, abs=1e-9)

    def test_area_ratio_r(self):
        d = gemini.area_decomposition(gemini.GeminiParams(1.0))
        assert gemini.area_ratio_r(1.0) == pytest.approx(
            d.total / d.middle_square, rel=1e-13)

    def test_area_ratio_rxa_special_values(self):
        # the golden abscissa gives the integer ratios 5 and 3
        assert gemini.area_ratio_rxa(PHI, 0.0) == pytest.approx(5.0, rel=1e-12)
        assert gemini.area_ratio_rxa(PHI, 1.0) == pytest.approx(3.0, rel=1e-12)
        with pytest.raises(ValueError):
            gemini.area_ratio_rxa(1.0, 1.0)


class TestMedian:
    def test_splits_area_in_half(self):
        for a in (-0.5, 0.0, 1.0, 5.0):
            p = GeminiParams(a)
            x1 = gemini.median(a)
            tail = gemini.area_between(p, x1, 60.0)
            assert tail == pytest.approx(0.5 * gemini.total_area(p), rel=1e-10)

    def test_median_rules(self):
        for a in (0.0, 0.5, 1.0, 3.0):
            r1, r2 = gemini.median_rule_residuals(a)
            assert abs(r1) < 1e-10
            assert abs(r2) < 1e-10

    @pytest.mark.parametrize("a", [-0.880786, -0.25666, 0.811167, 2.326067, 3.856513,
                                   11.160492, 19.9, 1e100, 1e300])
    def test_median_to_a_few_ulps(self, a):
        # against the root of the half-area equation in ln(m), solved at 30 digits
        x = gemini.median(a)
        with mpmath.workdps(30):
            am = mpmath.mpf(a)
            li2 = lambda t: mpmath.re(mpmath.polylog(2, t))
            half = mpmath.pi ** 2 / 12 - li2(-am) / 2
            ref = float(mpmath.findroot(
                lambda s: li2(mpmath.exp(-s)) - li2(-am * mpmath.exp(-s)) - half, x))
        assert abs(x - ref) <= 2e-15 * max(1.0, abs(ref))

    def test_self_median_constant(self):
        # the shape factor whose median sits exactly at ln(a): 1.798533
        m1 = 1.798533
        assert gemini.median(m1) == pytest.approx(math.log(m1), abs=1e-5)


class TestScaleAndCritical:
    def test_scale_fit_matches_areas(self):
        b = gemini.scale_fit(1.0, 3.0)
        assert gemini.total_area(GeminiParams(3.0, b)) == pytest.approx(
            gemini.total_area(GeminiParams(1.0)), rel=1e-12)

    def test_scale_fit_of_the_degenerate_gemini(self):
        # section 9.2 prints b = sqrt(3/2); g12-fit-scale checks scale_fit's value
        assert gemini.scale_fit(1.0, 0.0) == math.sqrt(1.5)

    def test_atot_normalization(self):
        assert gemini.atot_of_a_p(1.0, 1.0) == pytest.approx(
            gemini.total_area(GeminiParams(1.0)) / 4.0, rel=1e-13)

    def test_A_of_p_at_two(self):
        assert gemini.A_of_p(2.0) == pytest.approx(math.pi ** 2 / 4.0,
                                                   abs=1e-15)
        with pytest.raises(ValueError):
            gemini.A_of_p(1.0)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_A_of_p_non_finite(self, p):
        with pytest.raises(ValueError, match=f"got {p!r}"):
            gemini.A_of_p(p)
