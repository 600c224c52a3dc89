"""Dilogarithm, trilogarithm, Legendre chi, Clausen, trigamma and zeta evaluation.

All evaluators work in binary64 arithmetic.  Complex results are returned as
Python ``complex`` values; purely real quantities as ``float``.  Real
arguments x > 1 of the dilogarithm are evaluated on the lower lip of the
branch cut, i.e. Li2(x) = Re{Li2(x)} - i*pi*ln(x); a complex argument with a
zero imaginary part of either sign follows the same convention.

Li2 and Li3 each have one series kernel: a fixed-degree Bernoulli series in
w = -ln(1-z) ('t Hooft & Veltman, Nucl. Phys. B153 (1979) 365; Maximon,
Proc. R. Soc. A 459 (2003) 2807), evaluated by Horner's rule on the reduced
domain |z| <= 1, Re z <= 1/2, where |w| <= pi/3 (|w| <= ln 2 for real
arguments).  Real and complex Li2 share one map of three disjoint regions,
and each argument takes exactly one transformation: reflection z -> 1 - z
on the disc |1 - z| <= 1 with Re z > 1/2 (on the real axis, (1/2, 2]); else
inversion z -> 1/z for |z| > 1; else the series in z itself.  Li3 takes the
same regions on x <= 1, with the three-term identity in place of the
reflection on (1/2, 1).  Cl2 is real arithmetic alone: after the odd
symmetry and one reduction modulo 2pi, the classical Clausen series in t
serves t <= 2 and the series in pi - t serves t in (2, pi] (Lewin,
Polylogarithms and Associated Functions, 1981, ch. 4; Abramowitz & Stegun
27.8), each a fixed 15 terms.  Nothing recurses and no loop runs to a
tolerance.

Error contract: every public function returns a finite float or complex, or
raises ValueError for an argument outside its domain or a result beyond
binary64; no other exception escapes and no inf or nan is returned.
"""

from __future__ import annotations

import cmath
import math
import sys

__all__ = [
    "li2_re",
    "li2_real",
    "li2_complex",
    "li3_real",
    "chi2",
    "clausen_cl2",
    "trigamma",
    "li2_unit_circle",
    "gamma_fn",
    "zeta_fn",
    "catalan",
    "gieseking",
    "zeta3",
    "PI2_6",
    "PI2_12",
]

PI2_6 = math.pi ** 2 / 6.0
PI2_12 = math.pi ** 2 / 12.0

# Catalan's constant 1 - 1/9 + 1/25 - ...  (reference value, cross-checked
# in the test suite against an accelerated brute-force summation).
_CATALAN = 0.915965594177219015

# Apery's constant zeta(3), cross-checked in the test suite against mpmath.
_ZETA3 = 1.2020569031595942

# Even Bernoulli numbers B_2, B_4, ..., B_30 of the trigamma asymptotic expansion.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
    -23749461029.0 / 870.0,
    8615841276005.0 / 14322.0,
)

# trigamma(x) ~ 1/x^2 overflows binary64 below this argument
_TRIGAMMA_MIN = 1.0 / math.sqrt(sys.float_info.max)


def _require_finite(x: float, name: str = "x") -> None:
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")


def _li2_series(w):
    """Li2(1 - e^-w) for |w| <= pi/3; w may be float or complex."""
    # Li2 = w - w^2/4 + w * sum_n a_n w^(2n) with a_n = B_2n/(2n+1)!, n = 1..12,
    # by Horner's rule unrolled.  The series converges for |w| < 2*pi; at
    # |w| = pi/3 the first omitted term is below 1e-21 relative to w.
    t = w * w
    p = ((((((((((-5.581785874325009e-21 * t + 2.395218621026187e-19) * t
                 - 1.0356517612181247e-17) * t + 4.518980029619918e-16) * t
               - 1.9939295860721074e-14) * t + 8.921691020456452e-13) * t
             - 4.0647616451442256e-11) * t + 1.8978869988971e-09) * t
           - 9.185773074661964e-08) * t + 4.72411186696901e-06) * t
         - 0.0002777777777777778) * t + 0.027777777777777776
    # the leading w is added last: one rounding on the dominant term
    return w + t * (w * p - 0.25)


def _li3_series(u: float) -> float:
    """Li3(1 - e^-u) for |u| <= ln 2."""
    # Li3 = sum_m c_m u^m, m = 1..20, with c_m = sum_{k=1..m} B_{k-1} B_{m-k}
    # / (k! (m-k)! m), from dLi3/du = Li2/(e^u - 1), by Horner's rule unrolled.
    # On |u| <= ln 2 the first omitted term is below 2e-20 relative to u.
    p = (((((((((((((((((-1.1862322577752286e-16 * u - 7.538479549949265e-16) * u
                        + 5.261758629912506e-15) * u + 3.104357887965462e-14) * u
                      - 2.369824177308745e-13) * u - 1.2779396094493695e-12) * u
                    + 1.0887754406636318e-11) * u + 5.24958211460083e-11) * u
                  - 5.140110622012979e-10) * u - 2.144694468364065e-09) * u
                + 2.52608759553204e-08) * u + 8.660871756109851e-08) * u
              - 1.328656462585034e-06) * u - 3.4193571608537595e-06) * u
            + 8.101851851851852e-05) * u + 0.00012962962962962963) * u
          - 0.008680555555555556) * u + 0.0787037037037037) * u - 0.375
    # c_1 = 1: the leading u is added last
    return u + u * (u * p)


def li2_re(x: float) -> float:
    """Re Li2(x) for real x: the dilogarithm itself for x <= 1, the real part
    of either lip of the cut for x > 1."""
    # _require_finite inlined: this check runs in every gemini integrand
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if x < -1.0:
        # inversion: Li2(x) = -Li2(1/x) - pi^2/6 - ln^2(-x)/2
        ln = math.log(-x)
        return -_li2_series(-math.log1p(-1.0 / x)) - PI2_6 - 0.5 * ln * ln
    if x <= 0.5:
        return _li2_series(-math.log1p(-x))
    if x == 1.0:
        return PI2_6
    ln = math.log(x)
    if x <= 2.0:
        # reflection: Li2(x) = pi^2/6 - ln(x) ln(1-x) - Li2(1-x), and
        # -ln(1-(1-x)) = -ln(x); ln(1-x) contributes only -i*pi*ln(x) for x > 1
        return PI2_6 - ln * math.log(abs(1.0 - x)) - _li2_series(-ln)
    # inversion into (0, 1/2): Re Li2(x) = pi^2/3 - ln^2(x)/2 - Li2(1/x)
    return 2.0 * PI2_6 - 0.5 * ln * ln - _li2_series(-math.log1p(-1.0 / x))


def li2_real(x: float) -> complex:
    """Dilogarithm of a real argument.

    Returns a complex number; for x <= 1 it is purely real.  For x > 1 the
    value is taken on the lower lip of the cut: Re{Li2(x)} - i*pi*ln(x).
    """
    re = li2_re(x)
    if x > 1.0:
        return complex(re, -math.pi * math.log(x))
    return complex(re, 0.0)


def li2_complex(z: complex) -> complex:
    """Principal-branch dilogarithm of a complex argument.

    On the cut (z real, z > 1) the lower-lip limit is used, matching
    ``li2_real``.  Off the real axis z takes exactly one transformation, by
    the map that ``li2_re`` applies on the axis: reflection on the disc
    |1 - z| <= 1 with Re z > 1/2, else inversion for |z| > 1, else the
    series in z itself.
    """
    if type(z) is not complex:
        z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError("argument must be finite")
    if z.imag == 0.0:
        return li2_real(z.real)
    if z.real > 0.5 and math.hypot(1.0 - z.real, z.imag) <= 1.0:
        # reflection: Li2(z) = pi^2/6 - ln(z) ln(1-z) - Li2(1-z), and
        # -ln(1-(1-z)) = -ln(z) because 1-z is exact for Re z in [1/2, 2];
        # on this disc |ln z| <= pi/3, with equality at z = 1/2 +- i*sqrt(3)/2
        ln = cmath.log(z)
        return PI2_6 - ln * cmath.log(1.0 - z) - _li2_series(-ln)
    # off the disc, or with Re z <= 1/2, 1/z has |1/z| < 1 and Re(1/z) < 1/2
    inverted = math.hypot(z.real, z.imag) > 1.0  # abs(z) raises OverflowError near DBL_MAX
    v = 1.0 / z if inverted else z
    # w = -log1p(-v) by Kahan's trick: cmath has no log1p, and the rounding
    # of u = 1 - v would otherwise cost digits for small |v|
    u = 1.0 - v
    series = _li2_series(v if u == 1.0 else -cmath.log(u) * (v / (1.0 - u)))
    if inverted:
        # inversion: Li2(z) = -Li2(1/z) - pi^2/6 - ln^2(-z)/2
        return -PI2_6 - 0.5 * cmath.log(-z) ** 2 - series
    return series


def li3_real(x: float) -> float:
    """Trilogarithm for real x <= 1."""
    _require_finite(x)
    if x > 1.0:
        raise ValueError("li3_real requires x <= 1")
    if x == 1.0:
        return _ZETA3
    if x < -1.0:
        # inversion: Li3(x) = Li3(1/x) - pi^2/6*ln(-x) - ln^3(-x)/6
        ln = math.log(-x)
        return _li3_series(-math.log1p(-1.0 / x)) - PI2_6 * ln - ln ** 3 / 6.0
    if x <= 0.5:
        return _li3_series(-math.log1p(-x))
    # Li3(x) + Li3(1-x) + Li3(1-1/x) = zeta(3) + ln^3(x)/6
    #   + (pi^2/6)*ln(x) - ln^2(x)*ln(1-x)/2,
    # where -ln(1-(1-x)) = -ln(x) and -ln(1-(1-1/x)) = ln(x)
    ln = math.log(x)
    return (
        _ZETA3
        + ln ** 3 / 6.0
        + PI2_6 * ln
        - 0.5 * ln ** 2 * math.log(1.0 - x)
        - _li3_series(-ln)
        - _li3_series(ln)
    )


def chi2(x: float) -> float:
    """Legendre chi function chi2(x) = [Li2(x) - Li2(-x)]/2, |x| <= 1."""
    if not abs(x) <= 1.0:  # also false for nan
        _require_finite(x)
        raise ValueError("chi2 requires |x| <= 1")
    return 0.5 * (li2_re(x) - li2_re(-x))


def clausen_cl2(theta: float) -> float:
    """Clausen function Cl2(theta) = Im{Li2(e^{i*theta})}; 2pi-periodic, odd."""
    _require_finite(theta, "theta")
    sign = 1.0
    if theta < 0.0:
        sign, theta = -1.0, -theta
    t = math.fmod(theta, 2.0 * math.pi)
    if t == theta:
        if t == 0.0 or t == math.pi:
            return 0.0
        c = 0.0
    else:
        # fmod is exact, but each of the k turns it takes off is 2*math.pi,
        # 2.4492935982947064e-16 short of 2pi: the angle is t - c, c = k times
        # that, with k the quotient (theta - t)/(2*math.pi) as it rounds.
        # Above c = 1, some 4e15 turns, the angle t - c is reduced again.
        c = (theta - t) / (2.0 * math.pi) * 2.4492935982947064e-16
        if c > 1.0:
            return sign * clausen_cl2(t - c)
        if t == c:
            return 0.0
    # phi = pi - (t - c) for the series about pi.  math.pi and 2*math.pi
    # subtract exactly; the low parts of pi and 2pi, with c, are then added
    # with one rounding.
    phi = (math.pi - t) + (1.2246467991473532e-16 + c)
    if phi < 0.0:
        # odd symmetry about pi: Cl2(t) = -Cl2(2pi - t), and pi - (2pi - t) = t - pi
        sign, phi = -sign, -phi
        t = (2.0 * math.pi - t) + (2.4492935982947064e-16 + c)
    elif c:
        t -= c
        if t < 0.0:  # the angle is below a whole turn: Cl2(-t) = -Cl2(t)
            sign, t = -sign, -t
    # Both series below (Lewin 1981, ch. 4) use a_k = |B_2k|/(2k (2k+1)!),
    # k = 1..15, by Horner's rule unrolled.  They split at t = 2, not at
    # 2pi/3, so that the rounded 2pi - t that reaches the series in t is at
    # most 2 and off by at most 2^-53; at the split the first omitted terms
    # are below 1e-18 and 3e-17 relative to Cl2.
    if t <= 2.0:
        # Cl2(t) = t - t ln t + t * sum_k a_k t^2k
        s = t * t
        p = (((((((((((((2.4386585509007344e-27 * s + 1.1026499294381215e-25) * s
                        + 5.03519521314739e-24) * s + 2.325744114302087e-22) * s
                      + 1.0887357368300849e-20) * s + 5.178258806090623e-19) * s
                    + 2.5105444608999545e-17) * s + 1.2462059912950672e-15) * s
                  + 6.372636443183181e-14) * s + 3.387301370953521e-12) * s
                + 1.8978869988971e-10) * s + 1.1482216343327455e-08) * s
              + 7.873519778281683e-07) * s + 6.944444444444444e-05) * s + 0.013888888888888888
        return sign * (t * (1.0 - math.log(t) + s * p))
    # Cl2(pi - phi) = phi ln 2 - phi * sum_k (4^k - 1) a_k phi^2k
    s = phi * phi
    q = (((((((((((((2.618489678118693e-18 * s + 2.9599033551444004e-17) * s
                    + 3.3790622573736396e-16) * s + 3.901950904063069e-15) * s
                  + 4.5664875671936356e-14) * s + 5.429792727596475e-13) * s
                + 6.5812165661369675e-12) * s + 8.167010963952224e-11) * s
              + 1.0440290284867003e-09) * s + 1.3870999114054669e-08) * s
            + 1.941538399871733e-07) * s + 2.927965167548501e-06) * s
          + 4.96031746031746e-05) * s + 0.0010416666666666667) * s + 0.041666666666666664
    return sign * (phi * (0.6931471805599453 - s * q))


def trigamma(x: float) -> float:
    """Trigamma psi1(x) = sum 1/(n+x)^2 for x > 0.

    Raises ValueError below x = 1/sqrt(DBL_MAX) ~ 7.5e-155, where the value
    ~ 1/x^2 overflows binary64.
    """
    if not _TRIGAMMA_MIN <= x < math.inf:  # also true for nan
        _require_finite(x)
        if x <= 0.0:
            raise ValueError("trigamma requires x > 0")
        raise ValueError(f"trigamma({x!r}) overflows binary64")
    # shift the argument above 10, then Bernoulli asymptotic expansion
    acc = 0.0
    while x < 10.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    # psi1(x) ~ 1/x + 1/(2x^2) + sum_{k>=1} B_{2k} / x^{2k+1}
    total = inv + 0.5 * inv2
    power = inv * inv2
    for b in _BERNOULLI:
        total += b * power
        power *= inv2
    return acc + total


def li2_unit_circle(p: int, q: int) -> complex:
    """Li2(e^{i*pi*p/q}) from the real-part parabola rule and Cl2.

    Re = pi^2/6 - (2*pi*theta - theta^2)/4 with theta reduced to [0, 2pi);
    Im = Cl2(theta).  p is reduced modulo 2q in integers, before any rounding,
    so whole turns cost no accuracy: Li2(e^{44*pi*i}) is exactly pi^2/6.  The
    odd symmetry of Cl2 about pi is taken in integers too: with r = p mod 2q
    above q, Im = -Cl2(pi*(2q - r)/q).
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    if q < 0:
        p, q = -p, -q
    r = p % (2 * q)
    theta = _angle(r, q)
    re = PI2_6 - (2.0 * math.pi * theta - theta * theta) / 4.0
    if r > q:
        return complex(re, -clausen_cl2(_angle(2 * q - r, q)))
    return complex(re, clausen_cl2(theta))


def _angle(r: int, q: int) -> float:
    """pi * r / q for integers 0 <= r <= 2q."""
    # pi * r overflows, or q has no float, for q near 2^1024; the int ratio
    # r / q rounds once and is in [0, 2]
    return math.pi * r / q if q < 2 ** 1000 else math.pi * (r / q)


def gamma_fn(s: float) -> float:
    """Gamma function for s > 0.

    Raises ValueError above s ~ 171.6, where the value overflows binary64.
    """
    _require_finite(s, "s")
    if s <= 0.0:
        raise ValueError("gamma_fn requires s > 0")
    try:
        return math.gamma(s)
    except OverflowError:
        raise ValueError(f"gamma_fn({s!r}) overflows binary64") from None


# zeta_fn's Euler-Maclaurin factors B_2j/(2j)!, j = 1..10: with N = 10 direct
# terms the first omitted correction is below 1e-18 relative for every s > 1
_ZETA_N = 10
_ZETA_EM = tuple(b / math.factorial(2 * j) for j, b in enumerate(_BERNOULLI[:10], 1))


def zeta_fn(s: float) -> float:
    """Riemann zeta for real s > 1, by Euler-Maclaurin summation.

    zeta(s) = sum_{k<N} k^-s + N^(1-s)/(s-1) + N^-s/2 + sum_j B_2j/(2j)!
    * s(s+1)...(s+2j-2) N^(1-s-2j) with N = 10; the terms are added by
    ``math.fsum``, so the result carries only the rounding of the terms.
    """
    _require_finite(s, "s")
    if s <= 1.0:
        raise ValueError("zeta_fn requires s > 1")
    n = float(_ZETA_N)
    nms = n ** -s
    terms = [k ** -s for k in range(1, _ZETA_N)]
    terms.append(n ** (1.0 - s) / (s - 1.0))
    terms.append(0.5 * nms)
    # t_j = s(s+1)...(s+2j-2) N^(1-s-2j), built up by two factors a step
    t = s * nms / n
    inv_n2 = 1.0 / (n * n)
    for j, c in enumerate(_ZETA_EM):
        if t == 0.0:  # underflowed for large s; the next factor could be inf
            break
        terms.append(c * t)
        t *= (s + 2 * j + 1) * (s + 2 * j + 2) * inv_n2
    return math.fsum(terms)


def catalan() -> float:
    """Catalan's constant."""
    return _CATALAN


def gieseking() -> float:
    """Gieseking's constant Cl2(pi/3) = (9 - psi1(2/3) + psi1(4/3))/(4*sqrt(3))."""
    return (9.0 - trigamma(2.0 / 3.0) + trigamma(4.0 / 3.0)) / (4.0 * math.sqrt(3.0))


def zeta3() -> float:
    """Apery's constant zeta(3)."""
    return _ZETA3
