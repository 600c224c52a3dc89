"""Solids of revolution and differential geometry of geminoids.

A geminoid is the solid of revolution of a gemini function (volume taken
by cylindrical shells); its volume has the closed form
2*pi*b^3*[zeta(3) - Li3(-a)].

Error contract: every public function returns finite floats (dataclass
fields included), or raises ValueError for arguments outside its domain or a
result beyond binary64, or AccuracyError when a quadrature misses its
tolerance.  No other exception escapes and no inf or nan is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import find_root, integrate
from .gemini import GeminiParams, _g, _no_overflow, fixed_point, value
from .polylog import PI2_6, _li3_series, gamma_fn, li3_real, zeta3, zeta_fn

__all__ = [
    "GeminoidProfile",
    "geminoid_volume",
    "geminoid_volume_quad",
    "volume_ratio",
    "raw_moment",
    "raw_moment_quad",
    "combined_zeta_gamma_residual",
    "curvature_profile",
    "equal_radii_point",
    "arcgd",
    "mamikon_area",
    "pi_hole",
]


@dataclass(frozen=True)
class GeminoidProfile:
    """Differential-geometric data of geminoid_1 at one abscissa."""

    x: float
    kappa1: float
    arc_length: float
    theta: float
    R1: float
    R2: float
    gauss_curvature: float


def _vtot(a: float) -> float:
    """zeta(3) - Li3(-a) for a >= -1, the one evaluator of the geminoid volume.

    Below a = -1/2 it is the three-term identity at x = -a, with 1 - x = 1 + a exact:
    Li3(1-x) + Li3(1-1/x) - ln^3(x)/6 - (pi^2/6) ln(x) + ln^2(x) ln(1-x)/2, where the
    two trilogarithms are li3_real's series at -ln(x) and ln(x).  zeta(3) drops out,
    so nothing cancels as a -> -1, where the volume is 0.
    """
    if a < -0.5:
        if a == -1.0:  # log(1 + a) raises
            return 0.0
        e = 1.0 + a
        ln = math.log1p(-e)  # ln(-a)
        return (_li3_series(-ln) + _li3_series(ln) - ln ** 3 / 6.0 - PI2_6 * ln
                + 0.5 * ln * ln * math.log(e))
    return zeta3() - li3_real(-a)


def geminoid_volume(p: GeminiParams) -> float:
    """V = 2*pi*b^3*[zeta(3) - Li3(-a)]; zero in the degenerate case a = -1."""
    try:
        b3 = p.b ** 3
    except OverflowError:  # float ** raises where float * gives inf
        b3 = math.inf
    return _no_overflow(2.0 * math.pi * b3 * _vtot(p.a), "geminoid_volume", p)


def geminoid_volume_quad(p: GeminiParams, tol: float = 1e-9) -> float:
    """Shell-method quadrature 2*pi * int x * g(x) dx, the volume oracle."""
    f = lambda x: 2.0 * math.pi * x * value(p, x)
    return integrate(f, 0.0, math.inf, tol)


def volume_ratio(a: float) -> float:
    """V_a over the middle-cylinder volume; tends to 8/3 as a grows."""
    if not (a > -1.0):
        raise ValueError("volume ratio requires a > -1")
    return 2.0 * _vtot(a) / fixed_point(a) ** 3


def raw_moment(s: float) -> float:
    """int_0^inf x^s ln(1/(1-e^{-x})) dx = Gamma(s+1) * zeta(s+2), s >= 0."""
    if s < 0.0:
        raise ValueError("raw_moment requires s >= 0")
    return gamma_fn(s + 1.0) * zeta_fn(s + 2.0)


def raw_moment_quad(s: float, tol: float = 1e-10) -> float:
    """Quadrature oracle for the raw moment."""
    f = lambda x: x ** s * _g(0.0, x)  # g_0(x) = ln(1/(1-e^{-x}))
    return integrate(f, 0.0, math.inf, tol)


def combined_zeta_gamma_residual(s: float, tol: float = 1e-9) -> float:
    """Quadrature of the combined vanishing zeta-gamma integrand, s > 1."""
    if not (s > 1.0):
        raise ValueError("requires s > 1")
    c = s * zeta_fn(s + 2.0) / zeta_fn(s)

    def f(x: float) -> float:
        e = -math.expm1(-x)  # 1 - e^{-x}, overflow-free for large x
        return c * x ** (s - 1.0) * math.exp(-x) / e - x ** s * _g(0.0, x)

    return integrate(f, 0.0, math.inf, tol)


def curvature_profile(x: float) -> GeminoidProfile:
    """kappa1, arc length, tangential angle, principal radii and K_g of geminoid_1."""
    if not (x > 0.0):
        raise ValueError("curvature profile requires x > 0")
    t = math.tanh(0.5 * x)
    # t rounds to 0 below x ~ 1e-323 and to 1 above x ~ 38.2, where ln coth(x/2)
    # would be infinite or 0; the bound also keeps cosh(x)^3 (inf beyond
    # x ~ 237) finite
    if not (0.0 < t < 1.0):
        raise ValueError(f"curvature_profile({x!r}) is outside the range of binary64")
    sh, ch = math.sinh(x), math.cosh(x)
    kappa1 = sh / (ch * ch)
    arc = math.log(sh)
    theta = 2.0 * math.atan(t)  # gd(x)
    lncoth = math.log(1.0 / t)
    r2 = lncoth / math.tanh(x)
    kg = -sh * sh / (ch ** 3 * lncoth)
    r1 = 1.0 / kappa1
    if not (math.isfinite(r1) and math.isfinite(r2)):  # below x ~ 1e-308
        raise ValueError(f"curvature_profile({x!r}) is outside the range of binary64")
    return GeminoidProfile(x=x, kappa1=kappa1, arc_length=arc, theta=theta,
                           R1=r1, R2=r2, gauss_curvature=kg)


def equal_radii_point() -> float:
    """The abscissa with |R1| = |R2|: root of ln(coth(x/2)) - cosh(x) = 0.

    Equals arcsinh(lambda) with lambda the Laplace limit.
    """
    f = lambda x: math.log(1.0 / math.tanh(0.5 * x)) - math.cosh(x)
    return find_root(f, 0.1, 2.0)


def arcgd(theta: float) -> float:
    """Inverse Gudermannian arcgd(theta) = 2*artanh(tan(theta/2)), |tan(theta/2)| < 1."""
    t = math.tan(0.5 * theta) if math.isfinite(theta) else math.nan
    if not abs(t) < 1.0:
        raise ValueError(f"arcgd({theta!r}) needs finite theta with |tan(theta/2)| < 1")
    return 2.0 * math.atanh(t)


def _sweep_sq(theta: float) -> float:
    # (arcgd(theta)/sin(theta))^2 with the removable singularity at 0
    t = abs(theta)
    if t < 1e-4:
        return (1.0 + t * t / 3.0) ** 2
    return (arcgd(t) / math.sin(t)) ** 2


def mamikon_area(tol: float = 1e-9) -> float:
    """Tangent-sweep area (1/2) int_0^{pi/2} (arcgd(t)/sin t)^2 dt = pi^2/4."""
    return 0.5 * integrate(_sweep_sq, 0.0, 0.5 * math.pi, tol)


@dataclass(frozen=True)
class PiHole:
    volume: float
    cross_section: float
    throat: float


def pi_hole(tol: float = 1e-8) -> PiHole:
    """The pi-hole solid: volume pi^3, cross-section pi^2, throat pi."""
    sect = integrate(_sweep_sq, -0.5 * math.pi, 0.5 * math.pi, tol)
    return PiHole(volume=math.pi * sect, cross_section=sect, throat=math.pi)
