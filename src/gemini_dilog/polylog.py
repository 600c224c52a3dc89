"""Dilogarithm, trilogarithm, Legendre chi, Clausen and trigamma evaluation.

All evaluators work in binary64 arithmetic.  Complex results are returned as
Python ``complex`` values; purely real quantities as ``float``.  Real
arguments x > 1 of the dilogarithm are evaluated on the lower lip of the
branch cut, i.e. Li2(x) = Re{Li2(x)} - i*pi*ln(x).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from scipy.special import zeta as _scipy_zeta

__all__ = [
    "EvalOptions",
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

# Bernoulli numbers B_0 .. B_30 (odd ones beyond B_1 vanish).
_BERNOULLI = {
    0: 1.0,
    1: -0.5,
    2: 1.0 / 6.0,
    4: -1.0 / 30.0,
    6: 1.0 / 42.0,
    8: -1.0 / 30.0,
    10: 5.0 / 66.0,
    12: -691.0 / 2730.0,
    14: 7.0 / 6.0,
    16: -3617.0 / 510.0,
    18: 43867.0 / 798.0,
    20: -174611.0 / 330.0,
    22: 854513.0 / 138.0,
    24: -236364091.0 / 2730.0,
    26: 8553103.0 / 6.0,
    28: -23749461029.0 / 870.0,
    30: 8615841276005.0 / 14322.0,
}


@dataclass(frozen=True)
class EvalOptions:
    """Accuracy knobs for the series evaluators."""

    abs_tol: float = 1e-16
    max_terms: int = 10_000

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0):
            raise ValueError("abs_tol must be positive")
        if self.max_terms < 16:
            raise ValueError("max_terms must be at least 16")


_DEFAULT = EvalOptions()


def _require_finite(x: float, name: str = "x") -> None:
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")


def _li2_taylor(z: complex, opts: EvalOptions) -> complex:
    """Defining series sum z^k/k^2, for |z| <= 1/2."""
    term = z
    total = z
    k = 1
    while k < opts.max_terms:
        k += 1
        term *= z
        delta = term / (k * k)
        total += delta
        if abs(delta) < opts.abs_tol:
            break
    return total


def _li2_log_series(z: complex, opts: EvalOptions) -> complex:
    """Bernoulli series Li2(z) = sum B_{k-1} w^k / k!, w = -ln(1-z).

    Converges for |w| < 2*pi, which covers the reduced region
    |z| <= 1, Re z <= 1/2.
    """
    w = -cmath.log(1.0 - z)
    total = 0.0 + 0.0j
    wk = 1.0 + 0.0j  # w^k / k!
    for k in range(1, 64):
        wk *= w / k
        b = _BERNOULLI.get(k - 1)
        if b is None:
            continue
        delta = b * wk
        total += delta
        if k > 2 and abs(delta) < opts.abs_tol:
            break
    return total


def _li2_real_core(x: float, opts: EvalOptions) -> float:
    """Real dilogarithm for x <= 1 (real part only for any real x)."""
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return PI2_6
    if x > 2.0:
        # inversion into (0, 1/2)
        return math.pi ** 2 / 3.0 - 0.5 * math.log(x) ** 2 - _li2_real_core(1.0 / x, opts)
    if x > 1.0:
        # reflection; ln(1-x) contributes only -i*pi*ln(x) to the imaginary part
        return PI2_6 - math.log(x) * math.log(x - 1.0) - _li2_real_core(1.0 - x, opts)
    if x > 0.5:
        return PI2_6 - math.log(x) * math.log(1.0 - x) - _li2_real_core(1.0 - x, opts)
    if x >= -0.5:
        return _li2_taylor(complex(x), opts).real
    if x >= -1.0:
        # Landen maps [-1, -1/2] into [1/3, 1/2]
        return -_li2_real_core(x / (x - 1.0), opts) - 0.5 * math.log(1.0 - x) ** 2
    # x < -1: inversion
    return (
        -_li2_real_core(1.0 / x, opts)
        - PI2_6
        - 0.5 * math.log(-x) ** 2
    )


def li2_real(x: float, options: EvalOptions = _DEFAULT) -> complex:
    """Dilogarithm of a real argument.

    Returns a complex number; for x <= 1 it is purely real.  For x > 1 the
    value is taken on the lower lip of the cut: Re{Li2(x)} - i*pi*ln(x).
    """
    _require_finite(x)
    re = _li2_real_core(float(x), options)
    if x > 1.0:
        return complex(re, -math.pi * math.log(x))
    return complex(re, 0.0)


def li2_complex(z: complex, options: EvalOptions = _DEFAULT) -> complex:
    """Principal-branch dilogarithm of a complex argument.

    On the cut (z real, z > 1) the lower-lip limit is used, matching
    ``li2_real``.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("argument must be finite")
    if z.imag == 0.0:
        return li2_real(z.real, options)
    r = abs(z)
    if r > 1.0:
        # Li2(z) = -Li2(1/z) - pi^2/6 - ln^2(-z)/2
        return (
            -li2_complex(1.0 / z, options)
            - PI2_6
            - 0.5 * cmath.log(-z) ** 2
        )
    if z.real > 0.5:
        return (
            PI2_6
            - cmath.log(z) * cmath.log(1.0 - z)
            - li2_complex(1.0 - z, options)
        )
    if r <= 0.5:
        return _li2_taylor(z, options)
    return _li2_log_series(z, options)


def _li3_taylor(x: float, opts: EvalOptions) -> float:
    term = x
    total = x
    k = 1
    while k < opts.max_terms:
        k += 1
        term *= x
        delta = term / (k * k * k)
        total += delta
        if abs(delta) < opts.abs_tol:
            break
    return total


def li3_real(x: float, options: EvalOptions = _DEFAULT) -> float:
    """Trilogarithm for real x <= 1."""
    _require_finite(x)
    if x > 1.0:
        raise ValueError("li3_real requires x <= 1")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return zeta3()
    if x < -1.0:
        # inversion: Li3(-y) = Li3(-1/y) - pi^2/6*ln(y) - ln^3(y)/6, y = -x > 1
        y = -x
        ln = math.log(y)
        return li3_real(-1.0 / y, options) - PI2_6 * ln - ln ** 3 / 6.0
    if x < -0.5:
        # duplication: Li3(x) + Li3(-x) = Li3(x^2)/4
        return 0.25 * li3_real(x * x, options) - li3_real(-x, options)
    if x > 0.5:
        # Li3(x) + Li3(1-x) + Li3(1-1/x) = zeta(3) + ln^3(x)/6
        #   + (pi^2/6)*ln(x) - ln^2(x)*ln(1-x)/2
        ln = math.log(x)
        return (
            zeta3()
            + ln ** 3 / 6.0
            + PI2_6 * ln
            - 0.5 * ln ** 2 * math.log(1.0 - x)
            - li3_real(1.0 - x, options)
            - li3_real(1.0 - 1.0 / x, options)
        )
    return _li3_taylor(x, options)


def chi2(x: float, options: EvalOptions = _DEFAULT) -> float:
    """Legendre chi function chi2(x) = [Li2(x) - Li2(-x)]/2, |x| <= 1."""
    _require_finite(x)
    if abs(x) > 1.0:
        raise ValueError("chi2 requires |x| <= 1")
    return 0.5 * (li2_real(x, options).real - li2_real(-x, options).real)


def clausen_cl2(theta: float, options: EvalOptions = _DEFAULT) -> float:
    """Clausen function Cl2(theta) = Im{Li2(e^{i*theta})}; 2pi-periodic, odd."""
    _require_finite(theta, "theta")
    t = math.fmod(theta, 2.0 * math.pi)
    if t < 0.0:
        t += 2.0 * math.pi
    if t == 0.0 or t == math.pi:
        return 0.0
    # odd symmetry about pi keeps the argument away from the slow corner 2pi
    if t > math.pi:
        return -clausen_cl2(2.0 * math.pi - t, options)
    return li2_complex(cmath.exp(1j * t), options).imag


def trigamma(x: float, options: EvalOptions = _DEFAULT) -> float:
    """Trigamma psi1(x) = sum 1/(n+x)^2 for x > 0."""
    _require_finite(x)
    if x <= 0.0:
        raise ValueError("trigamma requires x > 0")
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
    for k2 in range(2, 31, 2):
        total += _BERNOULLI[k2] * power
        power *= inv2
    return acc + total


def li2_unit_circle(p: int, q: int, options: EvalOptions = _DEFAULT) -> complex:
    """Li2(e^{i*pi*p/q}) from the real-part parabola rule and Cl2.

    Re = pi^2/6 - (2*pi*theta - theta^2)/4 with theta reduced to [0, 2pi);
    Im = Cl2(theta).
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    theta = math.pi * p / q
    theta = math.fmod(theta, 2.0 * math.pi)
    if theta < 0.0:
        theta += 2.0 * math.pi
    re = PI2_6 - (2.0 * math.pi * theta - theta * theta) / 4.0
    return complex(re, clausen_cl2(theta, options))


def gamma_fn(s: float) -> float:
    """Gamma function for s > 0."""
    _require_finite(s, "s")
    if s <= 0.0:
        raise ValueError("gamma_fn requires s > 0")
    return math.gamma(s)


def zeta_fn(s: float) -> float:
    """Riemann zeta for s > 1."""
    _require_finite(s, "s")
    if s <= 1.0:
        raise ValueError("zeta_fn requires s > 1")
    return float(_scipy_zeta(s))


def catalan() -> float:
    """Catalan's constant."""
    return _CATALAN


def gieseking() -> float:
    """Gieseking's constant Cl2(pi/3) = (9 - psi1(2/3) + psi1(4/3))/(4*sqrt(3))."""
    return (9.0 - trigamma(2.0 / 3.0) + trigamma(4.0 / 3.0)) / (4.0 * math.sqrt(3.0))


def zeta3() -> float:
    """Apery's constant zeta(3)."""
    return float(_scipy_zeta(3.0))
