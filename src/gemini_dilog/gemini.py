"""The gemini function family and its geometric quantities.

The generalized gemini function is

    g_a^b(x) = b * ln((1 + a*e^{-x/b}) / (1 - e^{-x/b}))
             = b * log1p((1 + a) / (e^{x/b} - 1)),   x > 0,

with shape factor a >= -1 and scale factor b > 0.  Every member is
self-inverse; a = 1 is the fundamental form and a = 0 the degenerate form.
The log1p form, in which nothing cancels, is the one evaluator of g here:
``value``, ``symmetric_partner`` and the moment integrands of ``geometry``
all call it.

Error contract: every public function returns finite floats (tuple entries
and dataclass fields included), or raises ValueError for arguments outside its
domain or a result beyond binary64, or AccuracyError when the numerics miss
their tolerance.  No other exception escapes and no inf or nan is returned.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .analysis import find_root
from .polylog import PI2_6, _require_finite, li2_re

__all__ = [
    "GeminiParams",
    "AreaDecomposition",
    "value",
    "antiderivative",
    "area_between",
    "total_area",
    "fixed_point",
    "symmetric_partner",
    "area_decomposition",
    "area_ratio_r",
    "area_ratio_rxa",
    "median",
    "median_rule_residuals",
    "inverse_pair_prediction",
    "scale_fit",
    "atot_of_a_p",
    "A_of_p",
]


@dataclass(frozen=True)
class GeminiParams:
    """Shape factor a and scale factor b of one gemini function."""

    a: float
    b: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"gemini parameters must be finite, got a={self.a!r}, b={self.b!r}")
        if not (self.a >= -1.0):
            raise ValueError("shape factor must satisfy a >= -1")
        if not (self.b > 0.0):
            raise ValueError("scale factor must be positive")


@dataclass(frozen=True)
class AreaDecomposition:
    """Area sections of a gemini function decomposed at the fixed point."""

    total: float
    middle_square: float
    apex: float
    rectangle: float
    between_limits: float


_DBL_MIN = sys.float_info.min


def _no_overflow(result: float, fn: str, *args) -> float:
    """``result`` of ``fn(*args)``; ValueError where it overflowed binary64."""
    if not math.isfinite(result):
        raise ValueError(f"{fn}({', '.join(map(repr, args))}) overflows binary64")
    return result


def _g(a: float, x: float, b: float = 1.0) -> float:
    """g_a(u) = log1p((1+a) / (e^u - 1)) at u = x/b > 0, the one evaluator of g.

    Nothing cancels for any a >= -1, and a = -1 gives 0.  Where the log1p argument leaves
    binary64, g = ln(1+a) - u - ln(1 - e^{-u}), with ln x - ln b once u underflows.
    """
    u = x / b
    if u >= _DBL_MIN:
        try:
            g = math.log1p((1.0 + a) / math.expm1(u))
        except OverflowError:  # e^u > DBL_MAX, so 1 - e^{-u} rounds to 1
            e = math.exp(-0.5 * u)  # e^{-u} = e*e, where e is not subnormal
            return math.log1p((1.0 + a) * e * e)
        if g < math.inf:
            return g
        ln1me = math.log(-math.expm1(-u))
    elif a == -1.0:  # g_{-1} = 0, where ln(1+a) - ln u below is -inf + inf
        return 0.0
    else:
        ln1me = math.log(x) - math.log(b)
    return math.log1p(a) - u - ln1me


def value(p: GeminiParams, x: float) -> float:
    """g_a^b(x) = b g_a(x/b) for x > 0; exactly 0 for the completely degenerate a = -1."""
    if not (x > 0.0):
        raise ValueError("gemini functions are defined for x > 0")
    g = p.b * _g(p.a, x, p.b)
    # _no_overflow inlined: this check runs in every gemini integrand
    if not math.isfinite(g):
        raise ValueError(f"value({p!r}, {x!r}) overflows binary64")
    return g


def antiderivative(p: GeminiParams, x: float) -> float:
    """F(x) = b^2 [Li2(-a e^{-x/b}) - Li2(e^{-x/b})]; F' = value, F(inf) = 0."""
    if x < 0.0:
        raise ValueError("antiderivative is used on x >= 0")
    e = math.exp(-x / p.b)
    return _no_overflow(p.b * p.b * (li2_re(-p.a * e) - li2_re(e)), "antiderivative", p, x)


def area_between(p: GeminiParams, x1: float, x2: float) -> float:
    """Signed area under the curve between x1 and x2."""
    # F <= 0 rises to F(inf) = 0, so the difference of two finite F is finite
    return antiderivative(p, x2) - antiderivative(p, x1)


def _atot(a: float) -> float:
    """A_tot(a) = pi^2/6 - Li2(-a) for a >= -1, the one evaluator of the total area.

    Below a = -1/2 it is Euler's reflection ln(-a) ln(1+a) + Li2(1+a): both terms are
    positive and 1 + a is exact, so nothing cancels as a -> -1, where the area is 0.
    """
    if a < -0.5:
        if a == -1.0:  # log1p(-1) raises
            return 0.0
        return math.log(-a) * math.log1p(a) + li2_re(1.0 + a)
    return PI2_6 - li2_re(-a)


def total_area(p: GeminiParams) -> float:
    """b^2 (pi^2/6 - Li2(-a)); zero in the completely degenerate case a = -1."""
    return _no_overflow(p.b * p.b * _atot(p.a), "total_area", p)


def fixed_point(a: float) -> float:
    """x0 = ln(1 + sqrt(1+a)) for finite a >= -1."""
    _require_finite(a, "a")
    if a < -1.0:
        raise ValueError("shape factor must satisfy a >= -1")
    return math.log1p(math.sqrt(1.0 + a))


def symmetric_partner(a: float, x1: float) -> float:
    """x2 = g_a(x1) = ln((e^{x1}+a)/(e^{x1}-1)) for x1 > 0; an involution in x1."""
    if not (-1.0 <= a < math.inf and 0.0 < x1 < math.inf):
        raise ValueError(f"symmetric_partner({a!r}, {x1!r}) needs finite a >= -1 and x1 > 0")
    return _g(a, x1)


def area_decomposition(p: GeminiParams) -> AreaDecomposition:
    """Sections of A_tot = A0 + 2 A_a at the fixed point, each scaled by b^2 last."""
    total = _atot(p.a)
    x0 = fixed_point(p.a)
    middle = x0 * x0
    apex = 0.5 * (total - middle)
    b2 = p.b * p.b
    # no section exceeds the total, so checking the total checks them all
    _no_overflow(total * b2, "area_decomposition", p)
    # at the fixed point the symmetric limits coincide: the rectangle is the
    # middle square itself and no area is left between the limits
    return AreaDecomposition(total=total * b2, middle_square=middle * b2, apex=apex * b2,
                             rectangle=middle * b2, between_limits=0.0)


def area_ratio_r(a: float) -> float:
    """r(a) = A_tot/A0 = (pi^2/6 - Li2(-a)) / ln^2(1+sqrt(1+a)), a > -1."""
    if not (a > -1.0):
        raise ValueError("area ratio requires a > -1")
    return _atot(a) / fixed_point(a) ** 2


def area_ratio_rxa(x: float, a: float) -> float:
    """The two-parameter area ratio r(x, a) on 1 < x < 1 + sqrt(1+a)."""
    if a < -1.0:
        raise ValueError("shape factor must satisfy a >= -1")
    if not (1.0 < x < 1.0 + math.sqrt(1.0 + a)):
        raise ValueError("x must lie in (1, 1+sqrt(1+a))")
    total = _atot(a)
    den = (
        total
        - math.log(x) * math.log((x + a) / (x - 1.0))
        - 2.0 * li2_re(1.0 / x)
        + 2.0 * li2_re(-a / x)
    )
    return -total / den


def median(a: float) -> float:
    """ln(m) splitting the total area in half: Li2(1/m) - Li2(-a/m) = A_tot/2."""
    if not (a > -1.0):
        raise ValueError("median requires a > -1")
    half = 0.5 * _atot(a)
    # tail area from ln(m): Li2(1/m) - Li2(-a/m), against half the total area
    f = lambda m: li2_re(1.0 / m) - li2_re(-a / m) - half
    return math.log(find_root(f, 1.0 + 1e-9, math.inf))


def median_rule_residuals(a: float) -> tuple:
    """Residuals of the two median rules: (A_c - A_r, A_half - A0/2)."""
    p = GeminiParams(a)
    x1 = median(a)
    x2 = symmetric_partner(a, x1)
    rule1 = area_between(p, x1, x2) - x1 * x2
    x0 = fixed_point(a)
    rule2 = area_between(p, x1, x0) - 0.5 * x0 * x0
    return (rule1, rule2)


_HALF_MAX = sys.float_info.max / 2.0


def inverse_pair_prediction(n: float) -> tuple:
    """Coefficient pairs ((A, B), (A', B')) such that

    Li2(-a)   = A  * pi^2/6 + B  * ln^2(a)
    Li2(-1/a) = A' * pi^2/6 + B' * ln^2(a)

    for the inverse gemini pair with area ratio parameter n > 0.
    """
    # 2n - 1 overflows above DBL_MAX/2
    if not (0.0 < n <= _HALF_MAX):
        raise ValueError(f"inverse_pair_prediction({n!r}) needs 0 < n <= DBL_MAX/2")
    c1 = (-(2.0 * n - 1.0) / (n + 1.0), -0.5 * n / (n + 1.0))
    c2 = ((n - 2.0) / (n + 1.0), -0.5 / (n + 1.0))
    return (c1, c2)


def _inverse_pair_residuals(a: float, n: float) -> tuple:
    """Residuals at a of the two relations of inverse_pair_prediction(n).

    The inversion formula makes the first residual minus the second.  For a root
    a > 1 solve the second: its terms are about n times smaller than those of the
    first, where Li2(-a) and B ln^2(a) cancel, so it carries n times less rounding.
    """
    (A, B), (A2, B2) = inverse_pair_prediction(n)
    la2 = math.log(a) ** 2
    return (li2_re(-a) - A * PI2_6 - B * la2, li2_re(-1.0 / a) - A2 * PI2_6 - B2 * la2)


def scale_fit(a1: float, a2: float) -> float:
    """Scale factor b with total_area((a2, b)) = total_area((a1, 1))."""
    if a1 < -1.0 or not (a2 > -1.0):
        raise ValueError("need a1 >= -1 and a2 > -1")
    return math.sqrt(total_area(GeminiParams(a1)) / total_area(GeminiParams(a2)))


def atot_of_a_p(a: float, p: float) -> float:
    """Unit-height normalized total area A_tot(a, p) = (pi^2/6 - Li2(-a))/(a+p)^2."""
    if not (a > -1.0 and p == p):  # p == p is False only for nan
        raise ValueError(f"atot_of_a_p({a!r}, {p!r}) requires a > -1 and p not nan")
    try:  # no check on the normal path: this is the integrand of g12-a-of-p
        return _atot(a) / (a + p) ** 2
    except ArithmeticError:  # ZeroDivisionError or OverflowError
        raise ValueError(f"atot_of_a_p({a!r}, {p!r}): (a+p)^2 is 0 or inf") from None


def _critical_a_residual(a: float, p: float) -> float:
    # ((a+p)/(2a)) ln(1+a) = A_tot(a): the shape factor where the scale factor
    # starts to dominate A_tot(a, p)
    return (a + p) / (2.0 * a) * math.log(1.0 + a) - _atot(a)


def A_of_p(p: float) -> float:
    """A(p) = pi^2/(2p) + ln^2(p-1)/(2p) for finite p > 1."""
    _require_finite(p, "p")
    if not (p > 1.0):
        raise ValueError("A_of_p requires p > 1")
    return math.pi ** 2 / (2.0 * p) + math.log(p - 1.0) ** 2 / (2.0 * p)
