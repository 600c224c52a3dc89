"""Quadrature, bracketed root finding and the named-constant registry.

Error contract: every public function returns a finite float, or raises
ValueError (BracketError is one) for arguments outside its domain or a result
beyond binary64, or AccuracyError when the numerics miss their tolerance.
No other exception escapes, except one that a caller's f raises in find_root.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .polylog import PI2_6, chi2, li2_re

__all__ = [
    "AccuracyError",
    "BracketError",
    "NamedConstant",
    "integrate",
    "find_root",
    "solve_nstep",
    "constants_table",
    "constant_by_id",
    "solve_constant",
]


class AccuracyError(RuntimeError):
    """Quadrature or a root solve failed to reach the requested tolerance;
    ``estimate`` is the error bound it did reach."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


class BracketError(ValueError):
    """Root bracket does not straddle a sign change."""


# Double-exponential quadrature (Takahasi and Mori, Publ. RIMS 9 (1974) 721;
# Mori and Sugihara, J. Comput. Appl. Math. 127 (2001) 287): the trapezoid
# rule in t after x = mid + c*tanh(pi/2 sinh t) on [lo, hi] (tanh-sinh) or
# x = lo + exp(pi/2 sinh t) on [lo, inf) (exp-sinh), with step h = 2^-k.
_HALF_PI = 0.5 * math.pi
_EPS = sys.float_info.epsilon
_MAX_LEVEL = 8


def _tanh_sinh_node(t: float):
    # 1 - tanh(u) = 2q/(1+q) with q = e^(-2u): the distance from the nearer
    # end over c, computed without cancelling against 1
    u = _HALF_PI * math.sinh(t)
    q = math.exp(-2.0 * u)
    if q < sys.float_info.min:
        return None
    node = (2.0 * q / (1.0 + q), _HALF_PI * math.cosh(t) * 4.0 * q / (1.0 + q) ** 2)
    return node, node


def _exp_sinh_node(t: float):
    u = _HALF_PI * math.sinh(t)
    small = math.exp(-u)
    if small < sys.float_info.min:  # e^u <= 1/min stays finite as well
        return None
    big, v = math.exp(u), _HALF_PI * math.cosh(t)
    return (big, big * v), (small, small * v)


# a rule is its node function and the levels built so far
_TANH_SINH = (_tanh_sinh_node, [])
_EXP_SINH = (_exp_sinh_node, [])


def _level(rule: tuple, k: int) -> tuple:
    """Level k of a rule, built on first use: (right, left) tuples of
    (offset, weight) at t = +-j*2^-k outward, odd j only for k > 0."""
    node, cache = rule
    while len(cache) <= k:
        level = len(cache)
        rows, j = [], 1
        while (row := node(math.ldexp(j, -level))) is not None:
            rows.append(row)
            j += 1 if level == 0 else 2
        cache.append((tuple(r for r, _ in rows), tuple(l for _, l in rows)))
    return cache[k]


def _finite(f: Callable[[float], float], x: float) -> float:
    y = f(x)
    if not math.isfinite(y):
        raise AccuracyError(f"integrand is {y!r} at x = {x!r}", math.inf)
    return y


def integrate(
    f: Callable[[float], float], lo: float = 0.0, hi: float = math.inf, tol: float = 1e-10
) -> float:
    """Integral of ``f`` over [lo, hi] (``hi`` may be ``math.inf``) to absolute error ``tol``.

    Double-exponential quadrature: tanh-sinh on a finite interval, exp-sinh
    on [lo, inf), halving the step from h = 1 to 2^-8, each level adding
    only its new nodes.  It suits f analytic on the open interval, with
    integrable singularities at the ends such as ln x at 0: no end is ever
    sampled, and a tanh-sinh node is stored as its distance from the nearer
    end, so nothing cancels next to one.  The window in t is fixed at h = 1,
    walking outward until two consecutive terms fall below eps*|sum|; where
    a node would reach an end or leave binary64 instead, the window ends at
    the last t = j/2^8 inside and the term there joins the error estimate.
    From h = 1/4 on, S_h is accepted when the estimate max(|S_h - S_2h|,
    |S_2h - S_4h|^2 / int|f|, 50*eps*int|f|, that term) is at most ``tol``.
    A reversed interval gives the negated integral; lo == hi gives 0.0
    without calling f.  Raises ``ValueError`` for ``tol`` not a positive
    normal float, a non-finite ``lo`` and ``hi`` = -inf or nan, and
    ``AccuracyError`` carrying the estimate when it exceeds ``tol`` (kinks
    and fast oscillation converge too slowly), or carrying inf when f is not
    finite at a node, naming it, or raises ``ArithmeticError`` or
    ``ValueError``.
    """
    if not (tol >= sys.float_info.min):
        raise ValueError(f"tol must be a positive normal float, got {tol!r}")
    if not math.isfinite(lo) or math.isnan(hi) or hi == -math.inf:
        raise ValueError(f"integrate needs finite lo and hi or hi = inf, got [{lo}, {hi}]")
    if hi < lo:
        return -integrate(f, hi, lo, tol)
    if hi == lo:
        return 0.0
    try:
        return _double_exponential(f, lo, hi, tol)
    except (ArithmeticError, ValueError) as exc:
        raise AccuracyError(f"integrand failed: {exc}", math.inf) from exc


def _double_exponential(f: Callable[[float], float], lo: float, hi: float,
                        tol: float) -> float:
    if hi == math.inf:
        rule, scale = _EXP_SINH, 1.0
        sides = ((lo, 1.0), (lo, 1.0))  # x = lo + offset
    else:
        rule, scale = _TANH_SINH, 0.5 * hi - 0.5 * lo
        sides = ((lo, scale), (hi, -scale))  # x = end +- c*offset
    node = rule[0]
    centre = lo + scale
    if not lo < centre < hi:
        raise AccuracyError(f"no binary64 point inside [{lo!r}, {hi!r}]", math.inf)
    total = _HALF_PI * _finite(f, centre)
    absum = abs(total)
    windows = []  # per side, the last t inside, in units of 2^-8
    tail = 0.0  # |w*f| at the last t inside where an end or binary64 cuts a side
    for side, ((x0, step), nodes) in enumerate(zip(sides, _level(rule, 0))):
        n = small = 0
        for offset, w in nodes:
            x = x0 + step * offset
            if not lo < x < hi:
                break
            y = w * _finite(f, x)
            total += y
            absum += abs(y)
            n += 1
            small = small + 1 if abs(y) < _EPS * abs(total) else 0
            if small == 2:
                break
        j = n << _MAX_LEVEL
        if small < 2:  # cut before t = n + 1: find the last t = j/2^8 inside
            step_j = 1 << _MAX_LEVEL
            while step_j := step_j >> 1:
                row = node(math.ldexp(j + step_j, -_MAX_LEVEL))
                if row is not None and lo < x0 + step * row[side][0] < hi:
                    j += step_j
            offset, w = node(math.ldexp(j, -_MAX_LEVEL))[side]
            # the term there bounds the part of the integral beyond it
            tail += scale * abs(w * _finite(f, x0 + step * offset))
        windows.append(j)
    prev, d_prev = scale * total, 0.0
    for k in range(1, _MAX_LEVEL + 1):
        # the new nodes t = j/2^k, j odd, inside each window
        level = [(x0, step, nodes[:((j >> (_MAX_LEVEL - k)) + 1) >> 1])
                 for (x0, step), nodes, j in zip(sides, _level(rule, k), windows)]
        for x0, step, nodes in level:
            for offset, w in nodes:
                y = w * f(x0 + step * offset)
                total += y
                absum += abs(y)
        h = math.ldexp(scale, -k)
        s = h * total
        if not math.isfinite(s):  # name the node, if f is to blame
            for x0, step, nodes in level:
                for offset, _ in nodes:
                    _finite(f, x0 + step * offset)
            raise AccuracyError(f"quadrature sum is {s!r}", math.inf)
        d, area = abs(s - prev), h * absum
        # the error of S_(k-1) squares with each halving, so S_k - S_(k-1)
        # below (S_(k-1) - S_(k-2))^2/int|f| is an accidental agreement
        err = max(d, d_prev * d_prev / area if area else 0.0, 50.0 * _EPS * area, tail)
        if k >= 2 and err <= tol:
            return s
        prev, d_prev = s, d
    raise AccuracyError(f"quadrature error estimate {err:.3g} exceeds tolerance {tol:.3g}", err)


# the one stopping rule: an absolute eps plus brentq's smallest relative
# tolerance, 4*eps, as scipy.optimize enforces it
_XTOL = sys.float_info.epsilon
_RTOL = 4.0 * _XTOL
_BRENT_MAXITER = 100


def find_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of ``f`` on [lo, hi] by Brent's method, to the binary64 limit.

    A line-for-line port of scipy's ``brentq.c`` (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4) with ``xtol = eps`` and
    ``rtol = 4*eps``, so it returns the same iterate bit for bit, except on
    a bracket wider than DBL_MAX, which it halves endpoint by endpoint where
    brentq.c steps to nan.
    ``hi = math.inf`` grows the bracket: hi starts at the first power of two
    above ``lo`` and doubles while f(hi) has the sign of f(lo); Brent then
    runs on [lo, hi] with the two values already computed.  Raises
    ``ValueError`` for ``hi = inf`` with ``lo`` not finite and positive or
    when f returns nan, ``BracketError`` when f(lo) and f(hi) have the same
    sign (or no sign change is found before hi overflows), and
    ``AccuracyError`` after 100 iterations.
    """
    if hi == math.inf and not 0.0 < lo < math.inf:
        raise ValueError(f"growing a bracket needs a finite lo > 0, got {lo!r}")
    fpre = f(lo)
    if fpre == 0.0:
        return lo
    if math.isnan(fpre):
        raise ValueError(f"root function is nan at {lo!r}")
    if hi == math.inf:
        hi, fcur = math.ldexp(0.5, math.frexp(lo)[1]), fpre  # 2^k <= lo < 2^(k+1)
        while (fpre > 0.0 and fcur > 0.0) or (fpre < 0.0 and fcur < 0.0):
            hi *= 2.0
            if hi == math.inf:
                raise BracketError(f"no sign change on [{lo}, inf)")
            fcur = f(hi)
    else:
        fcur = f(hi)
    if fcur == 0.0:
        return hi
    if math.isnan(fcur):
        raise ValueError(f"root function is nan at {hi!r}")
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}]")
    xpre, xcur = float(lo), float(hi)
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre
            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (_XTOL + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if math.isinf(sbis):
            # the bracket is wider than DBL_MAX: brentq.c steps to inf, then nan
            sbis = xblk / 2.0 - xcur / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C's division by zero leaves stry inf or nan, which fails the
                # step test below, so brentq.c bisects
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = sbis
                scur = sbis
        else:
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"root function is nan at {xcur!r}")
    raise AccuracyError(f"root solve did not converge in {_BRENT_MAXITER} iterations",
                        abs(xblk - xcur))


def solve_nstep(N: int, sign: str) -> float:
    """N-bonacci ('minus') or N-addinacci ('plus') constant.

    Roots of x^{N+1} - 2x^N +/- 1 = 0 coming from x = 1 + sqrt(1 +/- x^{1-N}).
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if sign == "minus":
        f = lambda x: x ** (N + 1) - 2.0 * x ** N + 1.0
        lo, hi = 1.5, 2.0
    elif sign == "plus":
        f = lambda x: x ** (N + 1) - 2.0 * x ** N - 1.0
        lo, hi = 2.0, 3.0
    else:
        raise ValueError("sign must be 'plus' or 'minus'")
    try:
        return find_root(f, lo, hi)
    except OverflowError:  # hi^(N+1) overflows above N = 1022 ('minus') or 645 ('plus')
        raise ValueError(f"solve_nstep({N!r}, {sign!r}): x^(N+1) overflows binary64") from None


@dataclass(frozen=True)
class NamedConstant:
    """A constant defined by an algebraic or transcendental equation.

    ``bracket`` defaults to ``reference_value`` +/- 1/2.
    """

    id: str
    defining_equation: str
    fn: Callable[[float], float]
    reference_value: float
    provenance: str  # "PAPER" | "DERIVED"
    bracket: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.bracket is None:
            ref = self.reference_value
            object.__setattr__(self, "bracket", (ref - 0.5, ref + 0.5))


def _laplace_limit_residual(lam: float) -> float:
    # |R1| = |R2| on geminoid_1 at x = arcsinh(lambda):
    # ln((1+sqrt(1+l^2))/l) = sqrt(1+l^2)
    s = math.sqrt(1.0 + lam * lam)
    return math.log((1.0 + s) / lam) - s


_SQRT2 = math.sqrt(2.0)

_TABLE1_A = {2: 3.531384, 3: 7.900377, 4: 14.759176, 5: 24.941163, 6: 39.482044, 7: 59.654746}


@lru_cache(maxsize=1)
def constants_table() -> Sequence[NamedConstant]:
    """The immutable registry of named constants, built on first use."""
    from . import gemini  # gemini imports this module at load

    rows = [
        NamedConstant("phi", "x^2 - x - 1 = 0", lambda x: x * x - x - 1.0, 1.618034, "PAPER"),
        NamedConstant("plastic", "x^3 - x - 1 = 0", lambda x: x ** 3 - x - 1.0,
                      1.324718, "PAPER"),
        NamedConstant("supergolden", "x^3 - x^2 - 1 = 0", lambda x: x ** 3 - x * x - 1.0,
                      1.465571, "PAPER"),
        NamedConstant("theta1", "x^4 - x^3 - 1 = 0", lambda x: x ** 4 - x ** 3 - 1.0,
                      1.380278, "DERIVED"),
        NamedConstant("a4", "x^4 - x - 1 = 0", lambda x: x ** 4 - x - 1.0, 1.220744, "PAPER"),
        NamedConstant("tribonacci", "x^3 - x^2 - x - 1 = 0",
                      lambda x: x ** 3 - x * x - x - 1.0, 1.839287, "PAPER"),
        NamedConstant("k0", "x^(sqrt2+1) - x^sqrt2 - 1 = 0",
                      lambda x: x ** (_SQRT2 + 1.0) - x ** _SQRT2 - 1.0, 1.542007, "PAPER"),
        NamedConstant("addinacci_super_fixed_point", "x = 1 + sqrt(1 + 1/x^x)",
                      lambda x: x - 1.0 - math.sqrt(1.0 + x ** (-x)), 2.100211, "PAPER"),
        # reference +/- 1/2 would land the root 1 ulp off the correctly rounded value
        NamedConstant("addinacci_2", "x^3 - 2x^2 - 1 = 0",
                      lambda x: x ** 3 - 2.0 * x * x - 1.0, 2.205569, "DERIVED", (2.0, 3.0)),
        NamedConstant("infinacci", "x - 2 = 0", lambda x: x - 2.0, 2.0, "PAPER"),
        NamedConstant("a_c", "Li2(-a) = pi^2/6 - 3 ln^2(1+sqrt(1+a))",
                      lambda a: 3.0 * gemini.fixed_point(a) ** 2 - gemini._atot(a),
                      2.582815, "PAPER"),
        NamedConstant("laplace_limit", "ln((1+sqrt(1+x^2))/x) = sqrt(1+x^2)",
                      _laplace_limit_residual, 0.662743, "PAPER"),
        NamedConstant("C_CFP", "coth(x) - x = 0",
                      lambda x: math.cosh(x) / math.sinh(x) - x, 1.199678, "PAPER"),
        NamedConstant("magic_angle", "tan(x) = sqrt(2)",
                      lambda x: math.tan(x) - _SQRT2, math.atan(_SQRT2), "DERIVED"),
        NamedConstant("delta_s", "e^x = 1 + sqrt(2)",
                      lambda x: math.exp(x) - 1.0 - _SQRT2, math.log(1.0 + _SQRT2), "PAPER"),
        NamedConstant("median_n1", "Li2(1/a) + Li2(-a)/2 = 0",
                      lambda a: li2_re(1.0 / a) + 0.5 * li2_re(-a), 1.798533, "PAPER"),
        NamedConstant("median_n2", "chi2(1/m^2) = ln^2(m)/2",
                      lambda m: chi2(1.0 / (m * m)) - 0.5 * math.log(m) ** 2,
                      2.019283, "PAPER"),
        NamedConstant("median_n3", "median of gemini_{m^3} equals ln(m)",
                      lambda m: li2_re(1.0 / m) - li2_re(-(m ** 2)) - PI2_6 / 2.0
                      + 0.5 * li2_re(-(m ** 3)),
                      2.905862, "PAPER"),
        NamedConstant("a_no_pi2", "Li2(-a) = -pi^2/6",
                      lambda a: li2_re(-a) + PI2_6, 2.393308, "PAPER"),
        # reference - 1/2 lies outside these two residuals' domains, p > 1 and a > -1
        NamedConstant("p_median_zero",
                      "Li2(1/p) = pi^2/4 - ln^2(sqrt(p-1)) - ln(p) ln(sqrt(p)/(p-1))",
                      lambda p: li2_re(1.0 / p) - math.pi ** 2 / 4.0
                      + math.log(math.sqrt(p - 1.0)) ** 2
                      + math.log(p) * math.log(math.sqrt(p) / (p - 1.0)),
                      1.141080, "PAPER", (1.01, 1.641080)),
        NamedConstant("a_crit_p2",
                      "Li2(-a) = pi^2/6 - ((a+2)/(2a)) ln(a+1)",
                      lambda a: gemini._critical_a_residual(a, 2.0),
                      -0.514091, "PAPER", (-0.9, -0.1)),
    ]
    # each row solves the second relation of the prediction, which rounds less than
    # the paper's first: see gemini._inverse_pair_residuals
    for n, aval in _TABLE1_A.items():
        rows.append(NamedConstant(
            f"inverse_pair_a_n{n}",
            f"Li2(-a) = -((2n-1)/(n+1)) pi^2/6 - (n/(n+1)) ln^2(a)/2, n={n}",
            (lambda a, _n=n: gemini._inverse_pair_residuals(a, _n)[1]), aval, "PAPER"))
    return tuple(rows)


def constant_by_id(cid: str) -> NamedConstant:
    for c in constants_table():
        if c.id == cid:
            return c
    raise KeyError(cid)


def solve_constant(c: NamedConstant) -> float:
    """Re-solve a named constant from its defining equation."""
    return find_root(c.fn, *c.bracket)
