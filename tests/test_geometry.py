"""Unit tests for geminoid solids and differential geometry."""

import math
import random

import mpmath
import pytest

from _accuracy import ulps
from gemini_dilog import geometry
from gemini_dilog.analysis import AccuracyError, constant_by_id, solve_constant
from gemini_dilog.gemini import GeminiParams
from gemini_dilog.polylog import zeta3

PHI = (1.0 + math.sqrt(5.0)) / 2.0
LPHI = math.log(PHI)
LN2 = math.log(2.0)
PI = math.pi


class TestVolumes:
    def test_fundamental_volume(self):
        # V_1 = 7*pi*zeta(3)/2
        v = geometry.geminoid_volume(GeminiParams(1.0))
        assert v == pytest.approx(3.5 * PI * zeta3(), rel=1e-14)

    def test_degenerate_volume(self):
        assert geometry.geminoid_volume(GeminiParams(0.0)) == pytest.approx(
            2.0 * PI * zeta3(), rel=1e-14)

    def test_elementary_log_closed_forms(self):
        # a = -1/2 and a = -1/phi^2 have elementary-log closed forms
        v = geometry.geminoid_volume(GeminiParams(-0.5))
        ref = 2.0 * PI * (zeta3() / 8.0 - LN2 ** 3 / 6.0 + PI ** 2 * LN2 / 12.0)
        assert v == pytest.approx(ref, rel=1e-13)
        v = geometry.geminoid_volume(GeminiParams(-1.0 / PHI ** 2))
        ref = 2.0 * PI * (zeta3() / 5.0 - 2.0 * LPHI ** 3 / 3.0
                          + 2.0 * PI ** 2 * LPHI / 15.0)
        assert v == pytest.approx(ref, rel=1e-13)

    def test_scale_factor_cubes(self):
        v1 = geometry.geminoid_volume(GeminiParams(1.0))
        v3 = geometry.geminoid_volume(GeminiParams(1.0, 3.0))
        assert v3 == pytest.approx(27.0 * v1, rel=1e-14)

    def test_overflow_raises(self):
        # b ** 3 raises OverflowError at b = 1e200; at b = 5e102 b^3 fits and
        # 2 pi b^3 does not; either way the contract is a ValueError
        for b in (1e200, 5e102):
            with pytest.raises(ValueError, match=r"geminoid_volume\(.*\) overflows binary64"):
                geometry.geminoid_volume(GeminiParams(1.0, b))

    def test_quadrature_agrees(self):
        for a in (-0.5, 0.0, 1.0):
            p = GeminiParams(a)
            assert geometry.geminoid_volume_quad(p) == pytest.approx(
                geometry.geminoid_volume(p), abs=1e-8)

    def test_volume_ratio_limit(self):
        # ratio against the middle cylinder tends (slowly) to 8/3
        r8 = geometry.volume_ratio(1e8)
        r16 = geometry.volume_ratio(1e16)
        assert abs(r16 - 8.0 / 3.0) < abs(r8 - 8.0 / 3.0)
        assert geometry.volume_ratio(1e32) == pytest.approx(8.0 / 3.0,
                                                            abs=1e-2)
        with pytest.raises(ValueError):
            geometry.volume_ratio(-1.0)


def _volume_shapes():
    # 1 + a = 10^(-k/4) down to 1e-15, where zeta(3) - Li3(-a) cancels unless
    # reflected, the float next to -1, both floats next to the switch at -1/2,
    # and seeded points on [-1, 1e8], a third of them log-uniform above 1
    rng = random.Random(0)
    return ([-1.0 + 10.0 ** (-k / 4) for k in range(61)]
            + [math.nextafter(-1.0, 0.0), math.nextafter(-0.5, -1.0), math.nextafter(-0.5, 0.0)]
            + [rng.uniform(-1.0, -0.5) for _ in range(70)]
            + [rng.uniform(-0.5, 1.0) for _ in range(65)]
            + [10.0 ** rng.uniform(0.0, 8.0) for _ in range(65)])


class TestVolumeAgainstMpmath:
    SHAPES = _volume_shapes()

    def test_within_a_few_ulps(self):
        # bounds sit just above the worst of 3,000 seeded points per band
        with mpmath.workdps(40):
            for a in self.SHAPES:
                vtot = mpmath.zeta(3) - mpmath.polylog(3, -mpmath.mpf(a))
                x0 = mpmath.log1p(mpmath.sqrt(1 + mpmath.mpf(a)))
                assert ulps(geometry.geminoid_volume(GeminiParams(a)),
                            2 * mpmath.pi * vtot) <= 5.5, a
                assert ulps(geometry.volume_ratio(a), 2 * vtot / x0 ** 3) <= 7.5, a

    def test_degenerate_volume_is_zero(self):
        assert geometry.geminoid_volume(GeminiParams(-1.0)) == 0.0


class TestMoments:
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.5, 5.0])
    def test_closed_vs_quadrature(self, s):
        assert geometry.raw_moment(s) == pytest.approx(
            geometry.raw_moment_quad(s), abs=1e-8)

    @pytest.mark.parametrize("s", [0.25 * i for i in range(33)])
    def test_quadrature_matches_mpmath(self, s):
        with mpmath.workdps(30):
            ref = float(mpmath.gamma(s + 1) * mpmath.zeta(s + 2))
        # 1e-11 absolute while the moment is below 100 (s < 4.9); beyond that
        # the quadrature's roundoff floor, 50 eps int|f|, needs a relative 1e-13
        tol = max(1e-11, 1e-13 * ref)
        assert abs(geometry.raw_moment_quad(s, tol=tol) - ref) <= tol

    def test_quadrature_below_roundoff_floor_raises(self):
        # 1e-11 is below the roundoff floor 50 eps int|f| ~ 4.5e-10 at s = 8
        with pytest.raises(AccuracyError) as info:
            geometry.raw_moment_quad(8.0, tol=1e-11)
        assert info.value.estimate > 1e-11

    def test_zeroth_moment_is_area(self):
        assert geometry.raw_moment(0.0) == pytest.approx(PI ** 2 / 6.0,
                                                         rel=1e-14)

    def test_combined_integral_vanishes(self):
        for s in (1.5, 2.0, 3.0):
            assert abs(geometry.combined_zeta_gamma_residual(s)) < 1e-8

    def test_combined_integral_below_roundoff_floor_raises(self):
        # the exact value is 0, but binary64 rounding of the integrand leaves
        # the error estimate far above 1e-12 at s = 8
        with pytest.raises(AccuracyError):
            geometry.combined_zeta_gamma_residual(8.0, tol=1e-12)

    def test_domains(self):
        with pytest.raises(ValueError):
            geometry.raw_moment(-0.5)
        with pytest.raises(ValueError):
            geometry.combined_zeta_gamma_residual(1.0)

    def test_overflow_is_a_domain_error(self):
        # Gamma(s+1) overflows binary64 beyond s ~ 170.6
        assert math.isfinite(geometry.raw_moment(170.0))
        with pytest.raises(ValueError, match="overflows binary64"):
            geometry.raw_moment(700.0)


class TestCurvature:
    def test_profile_consistency(self):
        pr = geometry.curvature_profile(1.0)
        assert pr.R1 == pytest.approx(1.0 / pr.kappa1, rel=1e-14)
        # K_g = -kappa1 / R2 for a surface of revolution in this gauge
        assert pr.gauss_curvature == pytest.approx(-pr.kappa1 / pr.R2,
                                                   rel=1e-12)

    def test_kappa1_max_abscissa(self):
        # the meridian curvature peaks where tanh(x) = 1/sqrt(2)
        xc = math.atanh(1.0 / math.sqrt(2.0))
        h = 1e-5
        d = (geometry.curvature_profile(xc + h).kappa1
             - geometry.curvature_profile(xc - h).kappa1) / (2.0 * h)
        assert abs(d) < 1e-9

    def test_theta_is_gudermannian(self):
        for x in (0.2, 1.0, 3.0):
            assert geometry.curvature_profile(x).theta == pytest.approx(
                math.atan(math.sinh(x)), rel=1e-13)

    def test_equal_radii_point(self):
        xs = geometry.equal_radii_point()
        pr = geometry.curvature_profile(xs)
        assert abs(pr.R1) == pytest.approx(abs(pr.R2), rel=1e-10)
        # x* = arcsinh(laplace limit)
        lam = solve_constant(constant_by_id("laplace_limit"))
        assert xs == pytest.approx(math.asinh(lam), abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            geometry.curvature_profile(0.0)

    @pytest.mark.parametrize("x", [5e-324, 1e-310, 38.5, 700.0, math.inf, math.nan])
    def test_outside_binary64_range_is_a_value_error(self, x):
        # ln coth(x/2) is infinite at the smallest subnormals and rounds to 0
        # above x ~ 38.2; cosh(x)^3 overflows at 700
        with pytest.raises(ValueError):
            geometry.curvature_profile(x)

    @pytest.mark.parametrize("x", [1e-300, 1e-8, 0.05, 5.0, 38.0])
    def test_finite_where_defined(self, x):
        pr = geometry.curvature_profile(x)
        assert all(math.isfinite(v) for v in (pr.kappa1, pr.arc_length, pr.theta,
                                              pr.R1, pr.R2, pr.gauss_curvature))


class TestMamikon:
    def test_arcgd_inverts_gd(self):
        for x in (0.1, 0.8, 2.0):
            theta = geometry.curvature_profile(x).theta
            assert geometry.arcgd(theta) == pytest.approx(x, rel=1e-12)

    @pytest.mark.parametrize("theta", [1.6, -1.6, 3.0, math.inf, math.nan])
    def test_arcgd_domain(self, theta):
        with pytest.raises(ValueError, match=r"arcgd\(.*\) needs finite theta with \|tan"):
            geometry.arcgd(theta)

    def test_tangent_sweep_area(self):
        assert geometry.mamikon_area() == pytest.approx(PI ** 2 / 4.0,
                                                        abs=1e-8)

    def test_pi_hole(self):
        hole = geometry.pi_hole()
        assert hole.throat == pytest.approx(PI, abs=1e-12)
        assert hole.cross_section == pytest.approx(PI ** 2, abs=1e-6)
        assert hole.volume == pytest.approx(PI ** 3, abs=1e-5)
