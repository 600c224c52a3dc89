"""Unit tests for the special-function evaluators."""

import cmath
import math
import random
import sys

import mpmath
import pytest

from _accuracy import ulps
from gemini_dilog import polylog
from gemini_dilog._sampling import geomspace, linspace

PHI = (1.0 + math.sqrt(5.0)) / 2.0
LPHI = math.log(PHI)
PI2 = math.pi ** 2


def mp_li2(x):
    return complex(mpmath.polylog(2, x))


def _logspace(lo, hi, n):
    a, b = math.log10(lo), math.log10(hi)
    return [10.0 ** (a + (b - a) * k / (n - 1)) for k in range(n)]


def _worst_ulps(fn, ref, points):
    """Largest error of ``fn`` in units in the last place of the 40-digit
    mpmath value ``ref(x)``, and where."""
    worst = (0.0, None)
    with mpmath.workdps(40):
        for x in points:
            r = ref(mpmath.mpf(x))
            worst = max(worst, (ulps(fn(x), r), x), key=lambda e: e[0])
    return worst


class TestLi2Real:
    def test_defining_series_small_args(self):
        # brute-force partial sums as the oracle inside the disk
        for x in (-0.49, -0.2, 0.01, 0.3, 0.49):
            ref = sum(x ** k / k ** 2 for k in range(1, 200))
            assert polylog.li2_real(x).real == pytest.approx(ref, abs=1e-14)

    @pytest.mark.parametrize("x", [-50.0, -3.0, -1.0, -0.7, 0.25, 0.5, 0.75,
                                   0.99, 1.0])
    def test_against_mpmath(self, x):
        assert polylog.li2_real(x).real == pytest.approx(
            mp_li2(x).real, abs=2e-15)
        assert polylog.li2_real(x).imag == 0.0

    @pytest.mark.parametrize("x", [1.001, 1.5, 2.0, 7.0, 1e3])
    def test_lower_lip_above_one(self, x):
        # lower lip of the cut: conjugate of mpmath's principal value
        ref = mp_li2(x).conjugate()
        z = polylog.li2_real(x)
        assert z.real == pytest.approx(ref.real, abs=1e-13)
        assert z.imag == pytest.approx(-math.pi * math.log(x), abs=1e-13)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            polylog.li2_real(math.inf)
        with pytest.raises(ValueError):
            polylog.li2_real(math.nan)

    def test_li2_re_is_the_real_part(self):
        logs = list(geomspace(1e-300, 1e6, 200))
        xs = [-x for x in logs] + logs
        for x in xs + [-1.0, 0.0, 0.5, 1.0, 2.0]:
            assert polylog.li2_re(x) == polylog.li2_real(x).real, x
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="must be finite"):
                polylog.li2_re(x)


class TestLi2Complex:
    POINTS = [0.3 + 0.4j, -0.2 + 0.9j, 0.5 + 0.5j, -3.0 + 2.0j, 1.5 - 0.25j,
              0.1 - 2.0j, 4.0 + 1e-3j]

    @pytest.mark.parametrize("z", POINTS)
    def test_against_mpmath(self, z):
        assert abs(polylog.li2_complex(z) - mp_li2(z)) < 5e-14

    # the lens |z| > 1, |1 - z| < 1, where the reflection serves outside the unit circle
    LENS = [1.2 - 0.9j, 0.9 + 0.6j, 1.5 + 0.5j, 1.0000000001 + 1e-8j]

    @pytest.mark.parametrize("z", POINTS + LENS)
    def test_conjugation_symmetry(self, z):
        # bit for bit: each branch is odd in Im z, round by round
        assert polylog.li2_complex(z.conjugate()) == polylog.li2_complex(z).conjugate()

    def test_huge_modulus_is_finite(self):
        z = complex(1.7e308, 1.7e308)
        got = polylog.li2_complex(z)
        assert abs(got - mp_li2(z)) <= 1e-15 * abs(got)

    def test_real_axis_matches_li2_real(self):
        for x in (-2.0, 0.4, 0.9, 2.5):
            assert polylog.li2_complex(complex(x)) == polylog.li2_real(x)


class TestLi3:
    @pytest.mark.parametrize("x", [-30.0, -1.0, -0.6, -0.4, 0.0, 0.3, 0.5,
                                   0.8, 0.99, 1.0])
    def test_against_mpmath(self, x):
        assert polylog.li3_real(x) == pytest.approx(
            float(mpmath.polylog(3, x)), abs=3e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            polylog.li3_real(1.5)

    def test_ulps_log_spaced(self):
        # the worst error of the looped series, which the unrolled one repeats bit for bit
        points = [-x for x in _logspace(1e-300, 1e300, 300)] + _logspace(1e-300, 1.0, 300)
        err, at = _worst_ulps(polylog.li3_real, lambda x: mpmath.polylog(3, x), points)
        assert err <= 3.37, f"{err:.2f} ulps at x = {at!r}"


class TestChi2:
    def test_closed_form_at_one(self):
        assert polylog.chi2(1.0) == pytest.approx(PI2 / 8.0, abs=1e-15)

    def test_odd(self):
        for x in (0.1, 0.5, 0.9):
            assert polylog.chi2(-x) == pytest.approx(-polylog.chi2(x), abs=1e-15)

    def test_sqrt2_minus_1(self):
        # chi2(sqrt2 - 1) = pi^2/16 - ln^2(sqrt2+1)/4
        x = math.sqrt(2.0) - 1.0
        ref = PI2 / 16.0 - math.log(math.sqrt(2.0) + 1.0) ** 2 / 4.0
        assert polylog.chi2(x) == pytest.approx(ref, abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            polylog.chi2(1.2)


class TestClausen:
    def test_series_oracle(self):
        # Cl2(t) = sum sin(kt)/k^2, slowly convergent but fine at 1e-9
        t = 1.3
        ref = sum(math.sin(k * t) / k ** 2 for k in range(1, 2_000_000))
        assert polylog.clausen_cl2(t) == pytest.approx(ref, abs=1e-9)

    def test_odd_and_periodic(self):
        t = 0.7
        c = polylog.clausen_cl2(t)
        assert polylog.clausen_cl2(-t) == pytest.approx(-c, abs=1e-14)
        assert polylog.clausen_cl2(t + 2.0 * math.pi) == pytest.approx(c, abs=1e-13)

    def test_zeros(self):
        assert polylog.clausen_cl2(0.0) == 0.0
        assert polylog.clausen_cl2(math.pi) == 0.0

    def test_maximum_at_pi_third(self):
        assert polylog.clausen_cl2(math.pi / 3.0) == pytest.approx(
            polylog.gieseking(), abs=1e-14)

    def test_odd_bit_for_bit(self):
        for t in _logspace(1e-300, 2.0 * math.pi, 600)[:-1]:
            assert polylog.clausen_cl2(-t) == -polylog.clausen_cl2(t), t
        # reducing with t += 2 pi before the symmetry rounds these away (to
        # -2.172326755e-08 and -0.0)
        assert polylog.clausen_cl2(-1e-9) == -polylog.clausen_cl2(1e-9)
        assert polylog.clausen_cl2(-1e-17) < 0.0

    def test_ulps_log_spaced(self):
        # the float arguments of (0, 2 pi) are reduced with no rounding but
        # that of the low part of pi or 2 pi, so the whole period is held
        points = _logspace(1e-300, math.pi, 400)[:-1]
        points += [t for d in _logspace(1e-15, 0.5, 100)
                   for t in (math.pi - d, math.pi + d, 2.0 * math.pi - d)]
        err, at = _worst_ulps(polylog.clausen_cl2, lambda t: mpmath.clsin(2, t), points)
        assert err <= 3.0, f"{err:.2f} ulps at theta = {at!r}"

    @pytest.mark.parametrize("lo,hi", [(1e-100, 1e-4), (1e-4, 1e-2), (0.01, 0.5),
                                       (0.5, math.pi)])
    def test_ulps_uniform_bands(self, lo, hi):
        points = [lo + (hi - lo) * (k + 0.5) / 300 for k in range(300)]
        err, at = _worst_ulps(polylog.clausen_cl2, lambda t: mpmath.clsin(2, t), points)
        assert err <= 3.0, f"{err:.2f} ulps at theta = {at!r}"

    def test_reduced_arguments(self):
        # theta + 2k pi is rounded, and 2 pi is not a float: the error is
        # measured relative to max(|Cl2|, |theta Cl2'(theta)|), at the float argument
        def ref(x):
            with mpmath.workdps(40):
                xm = mpmath.mpf(x)
                v = mpmath.clsin(2, xm)
                return float(v), float(max(abs(v), abs(xm * mpmath.log(abs(2 * mpmath.sin(xm / 2))))))

        points = [s * (t + 2.0 * k * math.pi) for k in range(-4, 5) for s in (1.0, -1.0)
                  for t in _logspace(1e-12, 2.0 * math.pi, 60)[:-1]]
        err, at = _worst(polylog.clausen_cl2, ref, points)
        assert err <= 8.0 * 2.0 ** -52, f"{err / 2.0 ** -52:.2f} eps at theta = {at!r}"

    def test_ulps_whole_turns(self):
        # theta0 + 2k pi, k = 1..16: each turn that fmod takes off by the float
        # 2*math.pi must be carried, with its low part, into the reduced angle,
        # held at least 1e-9 from j pi, where the third part of 2pi is negligible;
        # k*2*math.pi itself reduces to an angle next to zero
        base = _logspace(1e-9, 2.0 * math.pi, 13)[:-1]
        base += [t for d in (1e-9, 1e-6, 1e-3) for t in (math.pi - d, math.pi + d, 2.0 * math.pi - d)]
        worst = (0.0, None)
        with mpmath.workdps(40):
            for k in range(1, 17):
                points = [2.0 * k * math.pi]
                for t in base:
                    tau = mpmath.mpf(t + 2.0 * k * math.pi) % (2 * mpmath.pi)
                    if min(abs(tau - j * mpmath.pi) for j in range(3)) >= 1e-9:
                        points.append(t + 2.0 * k * math.pi)
                for x in points:
                    r = mpmath.clsin(2, mpmath.mpf(x) % (2 * mpmath.pi))
                    for s in (1.0, -1.0):
                        err = float(abs(polylog.clausen_cl2(s * x) - s * r)) / math.ulp(float(r))
                        worst = max(worst, (err, s * x), key=lambda e: e[0])
        assert worst[0] <= 3.0, f"{worst[0]:.2f} ulps at theta = {worst[1]!r}"


class TestTrigamma:
    @pytest.mark.parametrize("x", [0.1, 0.25, 0.5, 1.0, 1.5, 3.0, 10.5, 100.0])
    def test_against_mpmath(self, x):
        assert polylog.trigamma(x) == pytest.approx(
            float(mpmath.polygamma(1, x)), rel=1e-14)

    def test_reflection(self):
        # psi1(x) + psi1(1-x) = pi^2/sin^2(pi x)
        for x in (0.1, 0.3, 0.45):
            lhs = polylog.trigamma(x) + polylog.trigamma(1.0 - x)
            assert lhs == pytest.approx(PI2 / math.sin(math.pi * x) ** 2,
                                        rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            polylog.trigamma(0.0)

    @pytest.mark.parametrize("x", [5e-324, 1e-160, math.nextafter(polylog._TRIGAMMA_MIN, 0.0)])
    def test_overflow_is_a_value_error(self, x):
        with pytest.raises(ValueError, match="overflows"):
            polylog.trigamma(x)

    def test_ulps_log_spaced(self):
        # the worst error at the dict-and-range loop, which the tuple loop repeats bit for bit
        err, at = _worst_ulps(polylog.trigamma, lambda x: mpmath.polygamma(1, x),
                              _logspace(1e-3, 1e3, 600))
        assert err <= 2.88, f"{err:.2f} ulps at x = {at!r}"

    def test_smallest_argument_is_finite(self):
        x = polylog._TRIGAMMA_MIN
        assert math.isfinite(polylog.trigamma(x))
        assert polylog.trigamma(1e-150) == pytest.approx(1e300, rel=1e-15)


class TestUnitCircle:
    @pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 3), (1, 5), (3, 5),
                                     (1, 6), (-1, 4), (7, 4)])
    def test_against_direct_evaluation(self, p, q):
        z = cmath.exp(1j * math.pi * p / q)
        ref = mp_li2(z)
        got = polylog.li2_unit_circle(p, q)
        assert abs(got - ref) < 1e-13

    def test_li2_i(self):
        got = polylog.li2_unit_circle(1, 2)
        assert got.real == pytest.approx(-PI2 / 48.0, abs=1e-15)
        assert got.imag == pytest.approx(polylog.catalan(), abs=1e-14)

    def test_q_zero_rejected(self):
        with pytest.raises(ValueError):
            polylog.li2_unit_circle(1, 0)

    @pytest.mark.parametrize("p,q", [(22, 1), (-22, 1), (22, 11), (-22, 11), (0, 7), (4, -2)])
    def test_whole_turns_exact(self, p, q):
        assert polylog.li2_unit_circle(p, q) == complex(PI2 / 6.0, 0.0)

    def test_q_beyond_binary64(self):
        # theta = pi p / q with p, q past DBL_MAX is still an angle in [0, 2 pi)
        big = 10 ** 320
        tiny = polylog.li2_unit_circle(1, big)
        assert tiny.real == PI2 / 6.0
        assert tiny.imag == pytest.approx(math.pi * 1e-320 * (1.0 - math.log(math.pi * 1e-320)),
                                          rel=1e-3)  # subnormal: ~10 significant bits
        ref = mp_li2(mpmath.expjpi(mpmath.mpf(3) / 10))
        for p, q in [(3 * big, 10 * big), (-17 * big, 10 * big), (3 * 10 ** 307, 10 ** 308)]:
            assert abs(polylog.li2_unit_circle(p, q) - ref) < 2e-15

    @pytest.mark.parametrize("p,q", [(45, 2), (-45, 2), (1, -3), (25, 12), (-23, 12)])
    def test_many_turns_and_negative_q(self, p, q):
        ref = mp_li2(mpmath.expjpi(mpmath.mpf(p) / q))
        assert abs(polylog.li2_unit_circle(p, q) - ref) < 2e-15


class TestConstants:
    def test_catalan_series(self):
        ref = sum((-1) ** k / (2 * k + 1) ** 2 for k in range(2_000_000))
        # alternating tail bound ~6e-14; the stored value is much closer
        assert polylog.catalan() == pytest.approx(ref, abs=1e-13)

    def test_gieseking_value(self):
        assert polylog.gieseking() == pytest.approx(
            float(mpmath.clsin(2, mpmath.pi / 3)), abs=1e-15)

    def test_zeta3(self):
        assert polylog.zeta3() == pytest.approx(1.2020569031595943, abs=1e-15)

    def test_zeta3_literal_is_correctly_rounded(self):
        with mpmath.workdps(40):
            assert polylog.zeta3() == float(mpmath.zeta(3))

    def test_zeta_domain(self):
        with pytest.raises(ValueError):
            polylog.zeta_fn(1.0)
        with pytest.raises(ValueError):
            polylog.gamma_fn(0.0)


class TestSeriesCoefficients:
    """The kernel's float tables, regenerated from mpmath's Bernoulli numbers."""

    @staticmethod
    def _li2_coeffs():
        # B_2n/(2n+1)!, n = 1..12: the coefficients _li2_series spells out
        with mpmath.workdps(40):
            return [float(mpmath.bernoulli(2 * n) / mpmath.factorial(2 * n + 1))
                    for n in range(1, 13)]

    def test_li2_table(self):
        # every float literal of _li2_series but the -1/4 of w^2 is a
        # correctly rounded |B_2n/(2n+1)!|; signs and order are checked by
        # test_unrolled_li2_horner
        literals = [abs(c) for c in polylog._li2_series.__code__.co_consts
                    if isinstance(c, float) and c != 0.25]
        assert sorted(literals) == sorted(abs(a) for a in self._li2_coeffs())

    def test_unrolled_li2_horner(self):
        # _li2_series spells out Horner's rule on B_2n/(2n+1)!, n = 1..12:
        # the same roundings in the same order give the same bits
        coeffs = self._li2_coeffs()

        def looped(w):
            t, p = w * w, 0.0
            for a in reversed(coeffs):
                p = p * t + a
            return w + t * (w * p - 0.25)

        ws = list(linspace(-1.05, 1.05, 401))
        ws += [complex(r, i) for r in ws[::20] for i in ws[::20]]
        for w in ws:
            assert polylog._li2_series(w) == looped(w), w

    @staticmethod
    def _li3_coeffs():
        # c_m = sum_k B_{k-1} B_{m-k} / (k! (m-k)! m), m = 1..20
        b, fact = mpmath.bernoulli, mpmath.factorial
        with mpmath.workdps(40):
            return [float(sum(b(k - 1) * b(m - k) / (fact(k) * fact(m - k))
                              for k in range(1, m + 1)) / m)
                    for m in range(1, 21)]

    def test_li3_table(self):
        # the float literals of _li3_series are the correctly rounded |c_2| .. |c_20|;
        # c_1 = 1 is the leading u, and signs and order are checked by
        # test_unrolled_li3_horner
        literals = [abs(c) for c in polylog._li3_series.__code__.co_consts
                    if isinstance(c, float)]
        assert sorted(literals) == sorted(abs(c) for c in self._li3_coeffs()[1:])

    def test_unrolled_li3_horner(self):
        # _li3_series spells out the Horner loop p = p*u + c over c_20 .. c_2
        # from p = 0: the same roundings in the same order give the same bits
        coeffs = self._li3_coeffs()

        def looped(u):
            p = 0.0
            for c in reversed(coeffs[1:]):
                p = p * u + c
            return u + u * (u * p)

        ln2 = math.log(2.0)
        us = [ln2 * (k / 200.0 - 1.0) for k in range(401)]
        us += [s * x for x in _logspace(1e-300, 1e-3, 200) for s in (1.0, -1.0)]
        for u in us:
            assert polylog._li3_series(u) == looped(u), u

    @staticmethod
    def _clausen_coeffs():
        # a_k = |B_2k|/(2k (2k+1)!) and (4^k - 1) a_k, k = 1..15
        with mpmath.workdps(40):
            a = [abs(mpmath.bernoulli(2 * k)) / (2 * k * mpmath.factorial(2 * k + 1))
                 for k in range(1, 16)]
            return ([float(c) for c in a],
                    [float((4 ** k - 1) * c) for k, c in enumerate(a, 1)])

    def test_clausen_tables(self):
        # the 30 series literals of clausen_cl2 are correctly rounded; the
        # others are 1, 2, ln 2 and the low parts of pi and 2pi
        with mpmath.workdps(40):
            others = {1.0, 2.0, float(mpmath.log(2)),
                      float(mpmath.pi - math.pi), float(2 * mpmath.pi - 2.0 * math.pi)}
        literals = [c for c in polylog.clausen_cl2.__code__.co_consts
                    if isinstance(c, float) and abs(c) not in others and c != 0.0]
        a, b = self._clausen_coeffs()
        assert sorted(literals) == sorted(a + b)

    def test_unrolled_clausen_horner(self):
        # both series of clausen_cl2 are Horner's rule on the mpmath tables
        a, b = self._clausen_coeffs()

        def horner(cs, s):
            p = 0.0
            for c in reversed(cs):
                p = p * s + c
            return p

        for t in _logspace(1e-300, 2.0, 300):
            s = t * t
            assert polylog.clausen_cl2(t) == t * (1.0 - math.log(t) + s * horner(a, s)), t
        for t in [2.0 + (math.pi - 2.0) * k / 300 for k in range(1, 300)]:
            phi = (math.pi - t) + 1.2246467991473532e-16
            s = phi * phi
            assert polylog.clausen_cl2(t) == phi * (0.6931471805599453 - s * horner(b, s)), t


def _li2_ref(z):
    """30-digit Li2 on the lower-lip convention, and the scale max(|f|, |z f'|).

    Rounding the argument alone moves Li2 by about u*|z Li2'(z)| = u*|ln(1-z)|,
    so errors are measured relative to that scale as well as to |Li2|.
    """
    with mpmath.workdps(30):
        z = complex(z)
        if z.imag == 0.0:
            x = mpmath.mpf(z.real)
            v = mpmath.polylog(2, x)
            if x > 1:
                v = mpmath.mpc(mpmath.re(v), -mpmath.pi * mpmath.log(x))
            xdf = mpmath.log(1 - mpmath.mpc(x))
        else:
            zz = mpmath.mpc(z.real, z.imag)
            v, xdf = mpmath.polylog(2, zz), mpmath.log(1 - zz)
        return complex(v), float(max(abs(v), abs(xdf)))


def _worst(fn, ref, points):
    """Largest conditioning-relative error of ``fn`` over ``points``, and where."""
    worst = (0.0, None)
    for p in points:
        value, scale = ref(p)
        err = abs(complex(fn(p)) - value) / scale
        worst = max(worst, (err, p), key=lambda e: e[0])
    return worst


def _neighbours(x):
    """x and the floats one and two ulps either side of it."""
    below, above = math.nextafter(x, -math.inf), math.nextafter(x, math.inf)
    return [math.nextafter(below, -math.inf), below, x, above, math.nextafter(above, math.inf)]


def _unit_circle_points(radius, n=120):
    return [cmath.rect(radius, math.pi * (k + 0.5) / n - math.pi) for k in range(2 * n)]


class TestAgainstMpmath:
    """Worst errors over whole domains; the bounds are the pre-kernel figures.

    Li2 real 5.0e-16, Li2 complex 8.5e-16, Li2 within 1e-12 of |z| = 1
    1.2e-15, Li3 8.4e-16, all relative to max(|f|, |z f'|).
    """

    def test_li2_real_whole_line(self):
        logs = list(geomspace(1e-300, 1e6, 400))
        special_points = [0.5, -0.5, 1.0, -1.0, 2.0]
        special_points += [1.0 + s * 10.0 ** -k for k in range(1, 16) for s in (1, -1)]
        points = logs + [-x for x in logs] + list(linspace(-3.0, 3.0, 120))
        err, at = _worst(polylog.li2_real, _li2_ref, points + special_points)
        assert err <= 5.0e-16, f"error {err:.3e} at x = {at!r}"

    def test_li2_complex_domains(self):
        points = _unit_circle_points(0.5, 60)
        points += [complex(0.5, y) for y in linspace(-3.0, 3.0, 120)]
        points += [complex(0.5, s * y) for y in geomspace(1e-12, 1e3, 60) for s in (1, -1)]
        points += [1.0 + cmath.rect(r, t) for r in geomspace(1e-15, 0.3, 40)
                   for t in linspace(-3.0, 3.0, 7)]
        points += [complex(x, y) for x in linspace(-4.0, 4.0, 17)
                   for y in linspace(-4.0, 4.0, 17) if y != 0.0]
        # the boundaries of the region map: the arc |1 - z| = 1 for Re z > 1/2,
        # from both sides; the lens |z| > 1, |1 - z| < 1; the corners 1/2 +- i*sqrt(3)/2
        points += [1.0 + cmath.rect(r, t) for r in (1.0 - 1e-12, 1.0, 1.0 + 1e-12)
                   for t in linspace(-2.09, 2.09, 41)]
        points += [z for z in (complex(x, y) for x in linspace(0.5, 2.0, 31)
                               for y in linspace(-1.0, 1.0, 41))
                   if abs(z) > 1.0 and abs(1.0 - z) < 1.0]
        for corner in (complex(0.5, math.sqrt(3.0) / 2.0), complex(0.5, -math.sqrt(3.0) / 2.0)):
            points += [complex(x, y) for x in _neighbours(corner.real) for y in _neighbours(corner.imag)]
        err, at = _worst(polylog.li2_complex, _li2_ref, points)
        assert err <= 8.5e-16, f"error {err:.3e} at z = {at!r}"

    def test_li2_complex_componentwise_near_the_cut(self):
        # 3,000 seeded points: 1,500 at z = 1 + d with |Re d|, |Im d| = 10^U(-14, -1),
        # and 1,500 with Re z in [0.5, 2.5], |Im z| = 10^U(-12, 0.3).  Im is held in
        # ulps wherever |Im Li2| > 8 eps |Li2|; Re is held in ulps on the first half
        # only: elsewhere it can be a small component of a large value (15.8 ulps at
        # z ~ 0.80 - 1.76i), which the normwise bounds above cover.  Measured worst
        # here: 3.4 ulps in Im, 1.1 in Re.  Other seeds of this generator reach 5.1
        # ulps in Im, in the reflection disc near Re z = 0.57, where the imaginary
        # parts of ln z ln(1-z) and Li2(1-z) cancel by about half.
        rng = random.Random(13)
        points = [complex(1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-14.0, -1.0),
                          rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-14.0, -1.0))
                  for _ in range(1500)]
        points += [complex(rng.uniform(0.5, 2.5),
                           rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 0.3))
                   for _ in range(1500)]
        worst_im = worst_re = (0.0, None)
        with mpmath.workdps(40):
            for k, z in enumerate(points):
                ref = mpmath.polylog(2, mpmath.mpc(z.real, z.imag))
                got = polylog.li2_complex(z)
                if abs(ref.imag) > 8.0 * sys.float_info.epsilon * abs(ref):
                    worst_im = max(worst_im, (ulps(got.imag, ref.imag), z), key=lambda e: e[0])
                if k < 1500:
                    worst_re = max(worst_re, (ulps(got.real, ref.real), z), key=lambda e: e[0])
        assert worst_im[0] <= 4.0, f"Im {worst_im[0]:.2f} ulps at z = {worst_im[1]!r}"
        assert worst_re[0] <= 2.0, f"Re {worst_re[0]:.2f} ulps at z = {worst_re[1]!r}"

    def test_li2_complex_near_unit_circle(self):
        points = [z for r in (1.0, 1.0 - 1e-12, 1.0 + 1e-12) for z in _unit_circle_points(r)]
        err, at = _worst(polylog.li2_complex, _li2_ref, points)
        assert err <= 1.2e-15, f"error {err:.3e} at z = {at!r}"

    def test_li2_complex_signed_zero_imaginary_part(self):
        # both signs of a zero imaginary part give li2_real, lower lip included
        for x in (-7.0, -1.0, -0.3, 0.0, 0.4, 0.9, 1.0, 1.5, 2.0, 9.0):
            for im in (0.0, -0.0):
                assert polylog.li2_complex(complex(x, im)) == polylog.li2_real(x)

    def test_li2_seeded_points(self):
        # 1,000 seeded points: uniform on [-3, 3], -+e^U(-20, 14), and
        # uniform on the complex square [-3, 3]^2; measured worst 2.2e-16
        # real, 4.6e-16 complex
        rng = random.Random(20250907)
        xs = [rng.uniform(-3.0, 3.0) for _ in range(300)]
        xs += [s * math.exp(rng.uniform(-20.0, 14.0)) for s in (-1.0, 1.0) for _ in range(100)]
        zs = [complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(500)]
        err, at = _worst(polylog.li2_real, _li2_ref, xs)
        assert err <= 5.0e-16, f"error {err:.3e} at x = {at!r}"
        err, at = _worst(polylog.li2_complex, _li2_ref, zs)
        assert err <= 8.5e-16, f"error {err:.3e} at z = {at!r}"

    def test_li3_real_line(self):
        def ref(x):
            with mpmath.workdps(30):
                v = mpmath.polylog(3, mpmath.mpf(x))
                return float(v), float(max(abs(v), abs(mpmath.polylog(2, mpmath.mpf(x)))))

        points = [-x for x in geomspace(1e-300, 1e6, 200)] + list(linspace(-1.5, 1.0, 200))
        points += [1.0 - 10.0 ** -k for k in range(1, 16)] + [-1.0, -0.5, 0.5, 1.0]
        err, at = _worst(polylog.li3_real, ref, points)
        assert err <= 8.4e-16, f"error {err:.3e} at x = {at!r}"

