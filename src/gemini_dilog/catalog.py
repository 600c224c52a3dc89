"""Catalog of machine-checkable dilogarithm identities.

Every entry binds a residual evaluator (LHS minus RHS of one identity) to a
parameter domain, a source anchor and an expected status.  verify_entry
samples the domain deterministically -- a fixed grid plus ten random points
seeded per entry id -- and reports the worst residual found.

Residuals are complex valued on purpose: a nominally real identity whose
residual grows an imaginary part has a branch-convention bug somewhere, and
|residual| catches it.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple
from zlib import crc32

from .analysis import (
    AccuracyError,
    constant_by_id,
    find_root,
    integrate,
    solve_constant,
    solve_nstep,
)
from .gemini import (
    GeminiParams,
    A_of_p,
    _inverse_pair_residuals,
    area_ratio_r,
    area_ratio_rxa,
    atot_of_a_p,
    fixed_point,
    median,
    median_rule_residuals,
    scale_fit,
    total_area,
    value,
)
from .geometry import (
    combined_zeta_gamma_residual,
    curvature_profile,
    equal_radii_point,
    geminoid_volume,
    geminoid_volume_quad,
    mamikon_area,
    pi_hole,
    raw_moment,
    raw_moment_quad,
    volume_ratio,
)
from .polylog import (
    PI2_6,
    PI2_12,
    catalan,
    chi2,
    gieseking,
    li2_complex,
    li2_real,
    trigamma,
    zeta3,
)

__all__ = [
    "Anchor",
    "ParamSpec",
    "IdentityEntry",
    "VerificationReport",
    "builtin_catalog",
    "catalog_entry",
    "residual",
    "verify_entry",
    "verify_all",
]

PI = math.pi
PI2 = PI * PI
SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)
SQ5 = math.sqrt(5.0)
SQ7 = math.sqrt(7.0)
PHI = 0.5 * (1.0 + SQ5)
LPHI = math.log(PHI)
LN2 = math.log(2.0)
LN3 = math.log(3.0)

ln = math.log


L = li2_real  # real argument, lower lip for x > 1
Lc = li2_complex


@lru_cache(maxsize=None)
def _const(cid: str) -> float:
    return solve_constant(constant_by_id(cid))


@dataclass(frozen=True)
class Anchor:
    """Home of one identity: section number and a verbatim source quote."""

    section: str
    quote: str


@dataclass(frozen=True)
class ParamSpec:
    """Sampling recipe for one parameter axis."""

    name: str
    lower: float
    upper: float
    sampling: str = "log"  # log | linear | integer
    count: int = 32
    edges: Tuple[float, ...] = ()


@dataclass(frozen=True)
class IdentityEntry:
    """One verifiable identity."""

    id: str
    group: str
    kind: str  # closed_form | parametric | limit
    residual: Callable[..., complex]
    anchor: Anchor
    params: Tuple[ParamSpec, ...] = ()
    expected: str = "holds"  # holds | flagged
    tol: Optional[float] = None  # entry-specific tolerance override
    convention: Optional[str] = None  # e.g. "lower-lip"


@dataclass(frozen=True)
class VerificationReport:
    id: str
    group: str
    samples: int
    max_abs_residual: float
    worst_params: dict
    status: str  # pass | fail | flagged-discrepancy | flagged-but-passing
    tol: float


def _axis_values(ps: ParamSpec) -> list:
    from ._sampling import geomspace, linspace

    if ps.sampling == "integer":
        return [float(v) for v in range(int(ps.lower), int(ps.upper) + 1)]
    n = max(2, ps.count - len(ps.edges))
    if ps.sampling == "linear":
        base = linspace(ps.lower, ps.upper, n)
    elif ps.lower > 0.0:
        base = geomspace(ps.lower, ps.upper, n)
    else:
        # shifted log grid: dense near the (possibly non-positive) lower edge
        base = (ps.lower + (ps.upper - ps.lower) * g for g in geomspace(1e-3, 1.0, n))
    vals = list(ps.edges) + list(base)
    return list(dict.fromkeys(vals))


def _random_point(ps: ParamSpec, rng: random.Random) -> float:
    """One uniform draw on the axis from ``rng.random()``, the one method
    whose stream Python keeps the same across versions."""
    u = rng.random()
    if ps.sampling == "integer":
        lo, hi = int(ps.lower), int(ps.upper)
        # floor before adding lo: lo + (hi-lo+1)*u in floats can round to hi+1
        return float(lo + math.floor((hi - lo + 1) * u))
    return ps.lower + (ps.upper - ps.lower) * u


def _sample_points(entry: IdentityEntry, seed: int) -> list:
    if not entry.params:
        return [()]
    axes = [_axis_values(ps) for ps in entry.params]
    pts = [()]
    for ax in axes:
        pts = [p + (v,) for p in pts for v in ax]
    rng = random.Random(crc32(entry.id.encode()) ^ (seed & 0xFFFFFFFF))
    for _ in range(10):
        pts.append(tuple(_random_point(ps, rng) for ps in entry.params))
    return pts


def residual(entry: IdentityEntry, params: Sequence[float] = ()) -> complex:
    """LHS - RHS of the anchored identity at the given parameter values."""
    return complex(entry.residual(*params))


def verify_entry(entry: IdentityEntry, tol: float = 1e-9, seed: int = 42) -> VerificationReport:
    """Sample the entry's domain and report its worst residual.

    Raises ValueError unless ``tol`` is positive and finite.
    """
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    eff_tol = entry.tol if entry.tol is not None else tol
    pts = _sample_points(entry, seed)
    worst = -1.0
    worst_pt: Tuple[float, ...] = ()
    for pt in pts:
        try:
            r = abs(complex(entry.residual(*pt)))
        except (ArithmeticError, ValueError, AccuracyError):
            r = math.inf
        if r > worst:
            worst = r
            worst_pt = pt
    ok = worst <= eff_tol
    if entry.expected == "flagged":
        status = "flagged-but-passing" if ok else "flagged-discrepancy"
    else:
        status = "pass" if ok else "fail"
    names = [ps.name for ps in entry.params]
    return VerificationReport(
        id=entry.id,
        group=entry.group,
        samples=len(pts),
        max_abs_residual=worst,
        worst_params=dict(zip(names, worst_pt)),
        status=status,
        tol=eff_tol,
    )


def verify_all(
    group: Optional[str] = None,
    entry_id: Optional[str] = None,
    tol: float = 1e-9,
    seed: int = 42,
) -> list:
    """Verify the built-in catalog (optionally filtered); reports in id order.

    Raises ValueError when ``group`` or ``entry_id`` names no catalog entry,
    or unless ``tol`` is positive and finite.
    """
    entries = builtin_catalog()
    if group is not None:
        entries = [e for e in entries if e.group == group]
        if not entries:
            raise ValueError(f"unknown group: {group}")
    if entry_id is not None:
        entries = [e for e in entries if e.id == entry_id]
        if not entries:
            where = "" if group is None else f" in group {group}"
            raise ValueError(f"unknown entry id: {entry_id}{where}")
    return [verify_entry(e, tol=tol, seed=seed) for e in entries]


def catalog_entry(entry_id: str) -> IdentityEntry:
    for e in builtin_catalog():
        if e.id == entry_id:
            return e
    raise KeyError(entry_id)


# --------------------------------------------------------------------------
# residual building blocks shared by several groups


def _five_term(a: float, x: float) -> complex:
    return (
        L(-a / x)
        - L(1.0 / x)
        + PI2_6
        - L(-a)
        - ln(x) * ln((x + a) / (x - 1.0))
        + L(-a * (x - 1.0) / (x + a))
        - L((x - 1.0) / (x + a))
    )


def _fixed_point_1(a: float) -> complex:
    s = 1.0 + math.sqrt(1.0 + a)
    return L(-a / s) - L(1.0 / s) - 0.5 * L(-a) + PI2_12 - 0.5 * ln(s) ** 2


def _fixed_point_2(x: float) -> complex:
    return L(2.0 - x) - L(1.0 / x) - 0.5 * L(2.0 * x - x * x) + PI2_12 - 0.5 * ln(x) ** 2


def _trinomial(x: float, n: float, m: float) -> complex:
    return L(x ** (m - n)) + L(-(x ** m)) + 0.5 * n * n * ln(x) ** 2


def _nbonacci(N: float) -> complex:
    x = solve_nstep(int(round(N)), "minus")
    return 2.0 * L(1.0 / x) + L(x ** (1.0 - N)) - 2.0 * L(x ** (-N)) - PI2_6 + ln(x) ** 2


def _naddinacci(N: float) -> complex:
    x = solve_nstep(int(round(N)), "plus")
    return (
        4.0 * L(1.0 / x)
        - 2.0 * L(x ** (1.0 - N))
        + 4.0 * L(x ** (-N))
        + L(x ** (2.0 - 2.0 * N))
        - 2.0 * L(x ** (-2.0 * N))
        - PI2 / 3.0
        + 2.0 * ln(x) ** 2
    )


def _fibonacci_pair(nf: float) -> complex:
    n = int(round(nf))
    sgn = -1.0 if n % 2 else 1.0
    u = (PHI ** (n + 1) + sgn * PHI ** (-(n + 1))) / (2.0 * PHI ** (n + 1) - PHI ** n)
    v = (PHI ** n - sgn * PHI ** (-n)) / (2.0 * PHI ** (n + 2) - PHI ** (n + 1))
    return L(u) + L(v) - PI2_6 + ln(u) * ln(v)


def _inverse_pair(a: float, n: float) -> complex:
    r1, r2 = _inverse_pair_residuals(a, n)
    return complex(abs(r1), abs(r2))


def _median_half_area(a: float) -> complex:
    x1 = median(a)
    p = GeminiParams(a)
    tail = integrate(lambda x: value(p, x), x1, math.inf, 1e-12)
    return complex(tail - 0.5 * total_area(p))


def _ex8_pair(which: int, m: float) -> complex:
    if which == 1:
        return 0.5 * L(-(m ** (SQ2 + 2.0))) - L(-(m ** (SQ2 + 1.0))) - PI2_12
    return 0.5 * L(-(m ** SQ2)) - L(-m) - PI2_12


_FIT_DEGENERATE = GeminiParams(0.0, scale_fit(1.0, 0.0))
_FIT_FUNDAMENTAL = GeminiParams(1.0)


def _scale_fit_diff(x: float) -> float:
    return value(_FIT_DEGENERATE, x) - value(_FIT_FUNDAMENTAL, x)


@lru_cache(maxsize=None)
def _fit_intersections() -> Tuple[float, float]:
    x1 = find_root(_scale_fit_diff, 0.05, 1.0)
    x2 = find_root(_scale_fit_diff, 1.0, 4.0)
    return x1, x2


def _campbell_arg1() -> complex:
    return complex(1.0 / (2.0 * PHI * PHI), -0.5 * math.sqrt(1.0 + 1.0 / PHI ** 2))


def _li2_eipi5_closed() -> complex:
    im = (
        math.sqrt(SQ5 / PHI)
        * (trigamma(0.1) + trigamma(0.4) - trigamma(0.6) - trigamma(0.9))
        + math.sqrt(PHI * PHI + 1.0)
        * (trigamma(0.2) + trigamma(0.3) - trigamma(0.7) - trigamma(0.8))
    ) / 200.0
    return complex(23.0 * PI2 / 300.0, im)


# --------------------------------------------------------------------------
# entry builders, one per group


def _E(
    eid: str,
    section: str,
    quote: str,
    fn: Callable[..., complex],
    params: Tuple[ParamSpec, ...] = (),
    kind: Optional[str] = None,
    expected: str = "holds",
    tol: Optional[float] = None,
    convention: Optional[str] = None,
) -> IdentityEntry:
    if kind is None:
        kind = "parametric" if params else "closed_form"
    return IdentityEntry(
        id=eid,
        group=f"G{int(eid[1:3])}",  # "g07-..." is in group G7
        kind=kind,
        residual=fn,
        anchor=Anchor(section=section, quote=quote),
        params=params,
        expected=expected,
        tol=tol,
        convention=convention,
    )


def _g1() -> list:
    def fundamental_integral() -> complex:
        q = integrate(lambda x: value(GeminiParams(1.0), x), 0.0, math.inf, 1e-12)
        return complex(q - PI2 / 4.0)

    return [
        _E("g01-fundamental-integral", "1", "integral of the fundamental form",
           fundamental_integral, tol=1e-8),
        _E("g01-total-area", "1", "bounded by the fundamental form",
           lambda: complex(total_area(GeminiParams(1.0)) - PI2 / 4.0)),
    ]


def _g2() -> list:
    return [
        _E("g02-five-term", "2.1", "final form of the five-term gemini-identity", _five_term,
           params=(
               ParamSpec("a", -1.0, 20.0, "log", 32, edges=(-1.0, -0.999)),
               ParamSpec("x", 1.001, 50.0, "log", 32),
           )),
        _E("g02-fixed-point-1", "2.1", "first fixed-point gemini identity", _fixed_point_1,
           params=(ParamSpec("a", -1.0, 50.0, "log", 32, edges=(-1.0,)),)),
        _E("g02-fixed-point-2", "2.2", "we need to express the shape factor", _fixed_point_2,
           params=(ParamSpec("x", 1.001, 50.0, "log", 32),)),
    ]


def _g3() -> list:
    return [
        _E("g03-reflection", "2.3", "setting the shape factor $a$ equal",
           lambda x: L(1.0 / x) + L(1.0 - 1.0 / x) - PI2_6 + ln(x) * ln(x / (x - 1.0)),
           params=(ParamSpec("x", 1.001, 1e3, "log", 48),)),
        _E("g03-inversion", "2.4", "based on two equal integrals",
           lambda x: L(-x) + L(-1.0 / x) + PI2_6 + 0.5 * ln(x) ** 2,
           params=(ParamSpec("x", 1.001, 1e3, "log", 48),)),
        _E("g03-landen", "2.5", "based on the equal segment areas",
           lambda x: L(1.0 / (1.0 + x)) - L(-x) - PI2_6
           + 0.5 * ln(1.0 + x) * ln((1.0 + x) / (x * x)),
           params=(ParamSpec("x", 1e-3, 1e3, "log", 48),)),
        _E("g03-duplication", "2.6", "is simply the duplication identity",
           lambda x: L(1.0 / x) + L(-1.0 / x) - 0.5 * L(1.0 / (x * x)),
           params=(ParamSpec("x", 1.001, 1e3, "log", 48),)),
        _E("g03-cancellation-a", "2.7", "following new three-term identity",
           lambda a: L((a - 1.0) / (a * a)) + L(1.0 / (a * a - a + 1.0))
           - L(a / (a * a - a + 1.0))
           + ln(a / (a - 1.0)) * ln(a * a / (a * a - a + 1.0)),
           params=(ParamSpec("a", 1.001, 1e3, "log", 48),)),
        _E("g03-cancellation-b", "2.7", "relation such that",
           lambda a: L(a / (a + 1.0) ** 2) + L(1.0 / (a * a + a + 1.0))
           - L((a + 1.0) / (a * a + a + 1.0))
           + ln((a + 1.0) / a) * ln((a + 1.0) ** 2 / (a * a + a + 1.0)),
           params=(ParamSpec("a", 1e-3, 1e3, "log", 48),)),
    ]


def _g4() -> list:
    s = 1.0 + 1.0 / math.sqrt(PHI)  # 1 + phi^{-1/2}, used by the Khoi identity
    r35 = math.sqrt((PHI * PHI + 2.0) / PHI ** 3)
    r35b = math.sqrt((PHI * PHI + 2.0) / PHI)
    entries = [
        _E("g04-li2-half", "2.3", "eighth known exact real values",
           lambda: L(0.5) - (PI2_12 - 0.5 * LN2 ** 2)),
        _E("g04-li2-zero", "2.3", "eighth known exact real values", lambda: L(0.0)),
        _E("g04-li2-one", "2.3", "eighth known exact real values", lambda: L(1.0) - PI2_6),
        _E("g04-li2-minus-one", "2.3", "eighth known exact real values", lambda: L(-1.0) + PI2_12),
        _E("g04-li2-minus-inv-phi", "2.3", "eighth known exact real values",
           lambda: L(-1.0 / PHI) - (-PI2 / 15.0 + 0.5 * LPHI ** 2)),
        _E("g04-li2-inv-phi", "2.3", "eighth known exact real values",
           lambda: L(1.0 / PHI) - (PI2 / 10.0 - LPHI ** 2)),
        _E("g04-li2-inv-phi2", "2.3", "eighth known exact real values",
           lambda: L(1.0 / PHI ** 2) - (PI2 / 15.0 - LPHI ** 2)),
        _E("g04-li2-minus-phi", "2.3", "eighth known exact real values",
           lambda: L(-PHI) - (-PI2 / 10.0 - LPHI ** 2)),
        _E("g04-inv-phi2-instance", "3.1", "the respective evaluation is given by",
           lambda: _five_term(PHI * PHI, PHI)),
        _E("g04-chi2-phi3", "3.2", "the Legendre's chi-function",
           lambda: complex(chi2(PHI ** -3) - (PI2 / 24.0 - 0.75 * LPHI ** 2))),
        _E("g04-chi2-phi3-gemini", "3.2", "verify the statement introduced in",
           lambda: _five_term(PHI ** 3, PHI ** 2)),
        _E("g04-chi2-silver", "3.3", "by a number of authors",
           lambda: complex(chi2(SQ2 - 1.0)
                           - (PI2 / 16.0 - 0.25 * ln(SQ2 + 1.0) ** 2))),
        _E("g04-sqrt2-relation", "3.4", "an old and well known result",
           lambda: L(1.0 / SQ2) - L(SQ2 - 1.0)
           - (PI2 / 24.0 - 0.125 * LN2 ** 2
              + 0.5 * ln(1.0 + SQ2) * ln((SQ2 + 1.0) / 2.0))),
        _E("g04-six-silver", "3.5", "might be a new one",
           lambda: 6.0 * L(SQ2 - 1.0) + L((2.0 - SQ2) / 4.0)
           - (11.0 * PI2 / 24.0 - 0.375 * LN2 ** 2
              - ln(3.0 - 2.0 * SQ2) * ln(2.0 * SQ2 - 2.0)
              - 1.5 * ln(SQ2 + 1.0) ** 2
              - 1.5 * LN2 * ln(2.0 + SQ2)
              + ln(SQ2 + 1.0) * (0.5 * LN2 + ln(2.0 + SQ2))),
           expected="flagged"),
        _E("g04-sqrt-phi", "3.6", "After a workable algebra",
           lambda: L((1.0 + math.sqrt(PHI)) / PHI ** 2)
           + L(PHI ** 3 - PHI ** 2 * math.sqrt(PHI))
           - 17.0 * PI2 / 60.0 + 11.0 / 8.0 * LPHI ** 2
           + ln(PHI ** 3 * math.sqrt(PHI) - PHI ** 3)
           * ln(PHI ** 2 * math.sqrt(PHI) - 2.0 * PHI)
           + ln(PHI ** 3 * math.sqrt(PHI) - PHI ** 3)
           * ln(math.sqrt(PHI ** 6 + PHI ** 5 * math.sqrt(PHI)
                          + PHI ** 4 + 2.0 * PHI ** 3 * math.sqrt(PHI))),
           expected="flagged"),
        _E("g04-phi-pair-1", "3.7", "Let the second term be",
           lambda: L((math.sqrt(PHI ** 7 + 3.0 * PHI ** 5) - PHI ** 2 - 3.0 * PHI) / 2.0)
           - L((1.0 + math.sqrt(4.0 * PHI - 3.0)) / (2.0 * PHI))
           + PI2 / 10.0 - LPHI ** 2
           + ln((PHI ** 2 + 1.0 + math.sqrt(4.0 * PHI ** 3 - 3.0 * PHI ** 2)) / 2.0)
           * ln((2.0 * PHI - 1.0 + math.sqrt(4.0 * PHI - 3.0)) / (2.0 * PHI))),
        _E("g04-phi-pair-2", "3.8", "we choose the negative root",
           lambda: L(0.5 * PHI - 0.5 * r35) - L(1.0 / (2.0 * PHI ** 2) - 0.5 * r35)
           - PI2 / 10.0 - LPHI ** 2
           - 2.0 * LPHI * ln(-1.0 / (2.0 * PHI) + 0.5 * r35b)),
        _E("g04-phi-pair-3", "3.9", "third two-term identity with the aid",
           lambda: L(0.5 * math.sqrt(PHI ** 2 + 3.0 * PHI)
                     - (PHI ** 2 + 1.0) / (2.0 * PHI))
           - L(1.0 / (2.0 * PHI ** 2) + 0.5 * r35)
           + PI2 / 15.0 - LPHI ** 2
           + ln(PHI ** 2 / 2.0 + 0.5 * r35b) * ln(0.5 * PHI + 0.5 * r35)),
        _E("g04-khoi", "3.10", "A remarkable result due to Khoi",
           lambda: L(1.0 - 1.0 / math.sqrt(PHI)) - L(1.0 / s)
           - (-PI2 / 20.0 - 0.5 * LPHI ** 2 + 0.5 * ln(s) ** 2)),
        _E("g04-fibonacci", "3.11", "expressed with the Binet's formula", _fibonacci_pair,
           params=(ParamSpec("n", 1, 8, "integer"),)),
        _E("g04-fibonacci-limit", "3.11", "expressed with the Binet's formula",
           lambda: L(PHI / SQ5) + L(1.0 / (SQ5 * PHI)) - PI2_6
           + ln(PHI / SQ5) * ln(1.0 / (SQ5 * PHI)),
           kind="limit"),
        _E("g04-phi2-plus-1", "3.12", "exactly the same result",
           lambda: L(-1.0 / PHI ** 2) + L((PHI ** 2 + 1.0) / (5.0 * PHI ** 2))
           + 0.5 * ln((PHI ** 2 + 1.0) / PHI ** 2) ** 2),
        _E("g04-four-term", "3.13", "outcome is a four-term identity",
           lambda: 2.0 * L(1.0 / (PHI * SQ5)) - L(SQ5 / PHI ** 2)
           + PI2 / 30.0 + 0.125 * ln(5.0) ** 2
           + 0.5 * LPHI * ln(125.0 / PHI ** 7)
           + ln(PHI ** 2 + 1.0) * ln(math.sqrt(PHI ** 2 + 1.0) / PHI ** 2),
           expected="flagged"),
    ]
    return entries


def _g5() -> list:
    return [
        _E("g05-ramanujan-1", "4.1", "evaluations from Ramanujan",
           lambda: L(-0.5) + L(1.0 / 9.0) / 6.0
           - (-PI2 / 18.0 + LN2 * LN3 - 0.5 * LN2 ** 2 - LN3 ** 2 / 3.0)),
        # the printed constant is short one factor ln(2)ln(3); measured, not fixed
        _E("g05-ramanujan-2", "4.1", "evaluations from Ramanujan",
           lambda: L(0.25) + L(1.0 / 9.0) / 3.0
           - (PI2 / 18.0 - 2.0 * LN2 ** 2 + LN2 * LN3 - 2.0 * LN3 ** 2 / 3.0),
           expected="flagged"),
        _E("g05-ramanujan-3", "4.1", "evaluations from Ramanujan",
           lambda: L(-0.125) + L(1.0 / 9.0) + 0.5 * ln(9.0 / 8.0) ** 2),
        _E("g05-two-term", "4.1", "a very simple two-term identity",
           lambda: L(1.0 / 3.0) + 0.5 * L(-3.0) + 0.5 * LN3 ** 2),
    ]


def _g6() -> list:
    q = "all the known simplest real valued connections"
    x = PHI ** -3

    rows = [
        ("id1", lambda: L(x) - L(-x) - PI2_12 + 1.5 * LPHI ** 2),
        ("id2", lambda: L(x) + L(-PHI ** 3) + PI2_12 + 6.0 * LPHI ** 2),
        ("id3", lambda: L(x) - 0.25 * L(PHI ** -6) - PI2 / 24.0 + 0.75 * LPHI ** 2),
        ("id4", lambda: L(x) - L(PHI / 2.0) + PI2_12 - 0.5 * LN2 ** 2
         - 2.0 * LN2 * LPHI + 4.0 * LPHI ** 2),
        ("id5", lambda: L(x) - L(-2.0 * PHI) - PI2_6 + 1.5 * LPHI * ln(PHI / 4.0)),
        ("id6", lambda: L(x) + L(-0.5 / PHI) + 0.5 * ln(2.0 * PHI) ** 2
         + 1.5 * LPHI * ln(PHI / 4.0)),
        ("id7", lambda: L(x) + L(2.0 / PHI ** 2) - PI2_6
         + ln(PHI ** -3) * ln(2.0 / PHI ** 2)),
        ("id8", lambda: L(x) + L(0.5 / PHI ** 2) - PI2_12 + 2.0 * ln(2.0 * PHI) ** 2
         - 5.0 * LN2 * ln(2.0 * PHI) + 3.5 * LN2 ** 2),
        ("id9", lambda: L(x) + 0.25 * L(4.0 / PHI ** 3) - PI2_12 + 0.75 * LPHI ** 2
         + 1.5 * LPHI * ln(0.25 * PHI ** 3)),
        ("id10", lambda: L(x) - 0.25 * L(-4.0 * PHI ** 3) - PI2_12 + 0.75 * LPHI ** 2
         - 3.0 * LN2 * LPHI),
    ]
    entries = [_E(f"g06-{name}", "4.2", q, fn) for name, fn in rows]
    entries += [
        _E("g06-two-phi", "4.2", "nice and simple formula below",
           lambda: L(2.0 / PHI ** 2) + L(-2.0 * PHI) + 4.5 * LPHI ** 2),
        _E("g06-phi-half", "4.2", "derive the connection between",
           lambda: L(PHI / 2.0) + L(0.5 / PHI ** 2) - PI2_6
           + ln(PHI / 2.0) * ln(0.5 / PHI ** 2)),
        _E("g06-mutual", "4.2", "derive their mutual connection",
           lambda: L(0.5 / PHI ** 2) - L(2.0 / PHI ** 2) + PI2_12 + 0.5 * LN2 ** 2
           - 2.0 * LPHI * ln(PHI ** 2 / 2.0)),
        _E("g06-limits", "4.2", "with the integration limits",
           lambda: L(0.5 / PHI ** 2) - L(-0.5 / PHI) - PI2_12 + LPHI * LN2),
        _E("g06-half-phi", "4.2", "also introduced in the paper of",
           lambda: L(0.5 * PHI) + L(-0.5 / PHI) - PI2_12 - 2.0 * LPHI ** 2 + LN2 ** 2),
    ]
    return entries


def _g7() -> list:
    P = _const("plastic")
    S = _const("supergolden")
    T1 = _const("theta1")
    A4 = _const("a4")
    lp, ls, lt, la = ln(P), ln(S), ln(T1), ln(A4)
    entries = [
        _E("g07-plastic-semitrivial", "4.3", "can also be called a semi-trivial",
           lambda: L(1.0 / P) + 0.5 * L(-1.0 / P) - PI2_12 + 2.0 * lp ** 2),
        _E("g07-plastic-square", "4.3", "a similar kind of two term identity",
           lambda: L(1.0 / P) + 0.5 * L(P ** -2) - PI2_6 + 4.0 * lp ** 2),
        _E("g07-plastic-t1", "4.3", "involving the plastic constant",
           lambda: L(P - 1.0) - L(P ** -4)),
        _E("g07-plastic-t2", "4.3", "involving the plastic constant",
           lambda: L(P * P - 2.0) - L(-(P ** -5))),
        _E("g07-plastic-t3", "4.3", "involving the plastic constant",
           lambda: L(1.0 / P) - 0.5 * L(P ** -3) - PI2_12 + lp ** 2),
        _E("g07-plastic-t4", "4.3", "involving the plastic constant",
           lambda: L(1.0 / P) + L(P ** -5) - PI2_6 + 5.0 * lp ** 2),
        _E("g07-plastic-t5", "4.3", "involving the plastic constant",
           lambda: L(1.0 / P) - L(-(P ** -4)) - PI2_6 + 4.5 * lp ** 2),
        _E("g07-plastic-pair", "4.3", "involving the plastic constant",
           lambda: L(P ** -5) + L(-(P ** -4)) + 0.5 * lp ** 2),
        _E("g07-plastic-ladder", "4.3", "Several ladders can be derived",
           lambda: 2.0 * L(P ** -3) + 2.0 * L(P ** -4) + 2.0 * L(P ** -5)
           - L(P ** -8) - PI2 / 3.0 + 15.0 * lp ** 2),
        _E("g07-super-ladder", "4.4", "derive a ladder by using",
           lambda: 4.0 * L(S ** -2) - 2.0 * L(S ** -3) + 4.0 * L(S ** -5)
           + L(S ** -6) - 2.0 * L(S ** -10) - PI2 / 3.0 + 8.0 * ls ** 2),
        _E("g07-super-t1", "4.4", "derive a ladder by using", lambda: L(S - 1.0) - L(S ** -2)),
        _E("g07-super-t2", "4.4", "derive a ladder by using", lambda: L(S * S - 2.0) - L(S ** -5)),
        _E("g07-super-t3", "4.4", "derive a ladder by using",
           lambda: L(1.0 / S) - L(-(S ** -2)) - PI2_6 + 2.5 * ls ** 2),
        _E("g07-super-t4", "4.4", "derive a ladder by using",
           lambda: L(1.0 / S) + L(S ** -3) - PI2_6 + 3.0 * ls ** 2),
        _E("g07-super-c1", "4.4", "derive a ladder by using",
           lambda: L(S ** -3) + L(-(S ** -2)) + 0.5 * ls ** 2),
        _E("g07-super-c2", "4.4", "derive a ladder by using",
           lambda: L(3.0 - 2.0 * S) + L(-0.5 * S ** -5)
           - ln(0.5 * S * S) * ln(3.0 * S ** 7 - 2.0 * S ** 8)
           + 0.5 * LN2 ** 2 - 2.0 * LN2 * ls + 2.0 * ls ** 2),
        _E("g07-theta1-ladder", "4.5", "generate a six-term ladder",
           lambda: 2.0 * L(1.0 / T1) + 2.0 * L(T1 ** -2) + L(T1 ** -4)
           - 2.0 * L(T1 ** -5) - 2.0 * L(T1 ** -7) + L(T1 ** -14)
           - PI2 / 3.0 + 2.0 * lt * ln(T1 * T1 + 1.0) + 45.0 * lt ** 2
           + ln(1.0 + T1 ** 7) * ln((1.0 + T1 ** 7) / T1 ** 14)
           - ln(T1 * T1 + 1.0) * ln((T1 * T1 + 1.0) / T1 ** 4)),
        _E("g07-theta1-t1", "4.5", "generate a six-term ladder",
           lambda: L(T1 - 1.0) - L(T1 ** -3)),
        _E("g07-theta1-t2", "4.5", "generate a six-term ladder",
           lambda: L(1.0 / T1) + L(T1 ** -4) - PI2_6 + 4.0 * lt ** 2),
        _E("g07-theta1-t3", "4.5", "generate a six-term ladder",
           lambda: L(1.0 / T1) - L(-(T1 ** -3)) - PI2_6 + 3.5 * lt ** 2),
        _E("g07-theta1-t4", "4.5", "generate a six-term ladder",
           lambda: L(T1 ** -4) + L(-(T1 ** -3)) + 0.5 * lt ** 2),
        _E("g07-a4-ladder-1", "4.6", "without being a Pisot number",
           lambda: 2.0 * L(1.0 / A4) + 4.0 * L(A4 ** -2) - 2.0 * L(A4 ** -3)
           - L(A4 ** -4) - 2.0 * L(A4 ** -5) + L(A4 ** -10)
           - PI2 / 3.0 + 21.0 * la ** 2
           + ln(A4 ** 5 + 1.0) * ln((A4 ** 5 + 1.0) / A4 ** 10)
           + 2.0 * la * ln(A4 * A4 + 1.0)
           - ln(A4 * A4 + 1.0) * ln((A4 * A4 + 1.0) / A4 ** 4)),
        _E("g07-a4-ladder-2", "4.6", "has seven dilogarithm terms",
           lambda: 2.0 * L(1.0 / A4) + L(A4 ** -2) + 2.0 * L(A4 ** -3)
           - L(A4 ** -4) + 2.0 * L(A4 ** -5) + 2.0 * L(A4 ** -7)
           - L(A4 ** -10) - 2.0 * PI2 / 3.0 + 38.0 * la ** 2),
    ]
    trin = [
        ("phi", PHI, 2.0, 1.0),
        ("plastic-31", P, 3.0, 1.0),
        ("plastic-54", P, 5.0, 4.0),
        ("super", S, 3.0, 2.0),
        ("theta1", T1, 4.0, 3.0),
        ("a4", A4, 4.0, 1.0),
    ]
    entries += [
        _E(f"g07-trinomial-{name}", "4.7", "general identity formula based on",
           lambda _x=xv, _n=n, _m=m: _trinomial(_x, _n, _m))
        for name, xv, n, m in trin
    ]
    return entries


def _g8() -> list:
    K = _const("k0")
    T = _const("tribonacci")
    lk, lt = ln(K), ln(T)

    def star_area() -> complex:
        closed = 8.0 * lk * ln(K / (K - 1.0)) + 16.0 * L((K - 1.0) / K).real
        tail = integrate(lambda x: value(GeminiParams(0.0), x), ln(K / (K - 1.0)), math.inf, 1e-12)
        quad = 8.0 * lk * ln(K / (K - 1.0)) + 16.0 * tail
        return complex(closed - quad)

    return [
        _E("g08-k0-trinomial", "4.8", "satisfies the trinomial equation identity",
           lambda: L(1.0 / K) + L(-(K ** SQ2)) + 0.5 * (SQ2 + 1.0) ** 2 * lk ** 2),
        _E("g08-k0-sector", "4.8", "We can obtain the same area",
           lambda: L(1.0 / K) + L(-(K ** SQ2))
           + lk * ln(K * math.sqrt(K) / (K - 1.0))),
        _E("g08-k0-third", "4.8", "third two-term identity for the constant",
           lambda: L(K ** -(SQ2 + 1.0)) + L(-(K ** -SQ2)) + 0.5 * lk ** 2),
        _E("g08-k0-star-area", "4.8", "area of this star like figure", star_area, tol=1e-8),
        _E("g08-k0-octagon-ratio", "4.8", "area of this star like figure",
           lambda: complex(lk / ln(K / (K - 1.0)) - (SQ2 - 1.0))),
        _E("g08-nbonacci-ladder", "4.9", "contains only three dilogarithm terms",
           _nbonacci, params=(ParamSpec("N", 2, 5, "integer"),)),
        _E("g08-naddinacci-ladder", "4.9", "includes five dilogarithm terms",
           _naddinacci, params=(ParamSpec("N", 2, 4, "integer"),)),
        _E("g08-addinacci-4", "4.9", "corresponding to the 4-addinacci constant",
           lambda: _naddinacci(4.0)),
        _E("g08-tribonacci-ladder-1", "4.9", "three-term 3-bonacci constant ladder",
           lambda: 2.0 * L(1.0 / T) + L(T ** -2) - 2.0 * L(T ** -3) - PI2_6 + lt ** 2),
        _E("g08-tribonacci-ladder-2", "4.9", "another tribonacci ladder",
           lambda: 2.0 * L(1.0 / T) + 2.0 * L(T ** -2) + 2.0 * L(T ** -3)
           - L(T ** -4) - PI2 / 3.0 + 3.0 * lt ** 2),
        _E("g08-tribonacci-combined", "4.9", "Combining these two formulae",
           lambda: 6.0 * L(1.0 / T) + 5.0 * L(T ** -2) + 2.0 * L(T ** -3)
           - 2.0 * L(T ** -4) - 5.0 * PI2 / 6.0 + 7.0 * lt ** 2),
    ]


def _g9() -> list:
    G = gieseking()
    C = catalan()
    phii = cmath.exp(1j * PI / 3.0)

    def eq60() -> complex:
        w = 1j / (5.0 ** 0.25 * PHI ** 1.5)
        rhs_im = math.sqrt(PHI * PHI + 1.0) / 200.0 * (
            trigamma(0.1) / PHI
            + (4.0 / PHI + 1.0) * trigamma(0.2)
            + trigamma(0.3)
            + (1.0 / PHI - 4.0) * trigamma(0.4)
            + (4.0 - 1.0 / PHI) * trigamma(0.6)
            - trigamma(0.7)
            - (4.0 / PHI + 1.0) * trigamma(0.8)
            - trigamma(0.9) / PHI
        ) - PI / 20.0 * ln(5.0 * PHI ** 6)
        return Lc(w) - Lc(-w) - 1j * rhs_im

    def eq61() -> complex:
        z = complex(0.5, math.sqrt(PHI * PHI + 1.0) / (2.0 * PHI * PHI))
        root = math.sqrt(PHI * PHI + 1.0)
        rhs = complex(
            19.0 * PI2 / 300.0 - 0.5 * LPHI ** 2,
            root / 200.0 * (trigamma(0.1) + trigamma(0.4) - trigamma(0.6) - trigamma(0.9))
            + root / (200.0 * PHI)
            * (trigamma(0.8) + trigamma(0.7) - trigamma(0.3) - trigamma(0.2))
            - PI * LPHI / 5.0,
        )
        return Lc(z) - rhs

    return [
        _E("g09-inversion", "5.1", "more familiar complex domain identity",
           lambda z: L(z) + L(1.0 / z) - PI2 / 3.0 + 0.5 * ln(z) ** 2
           + 1j * PI * ln(z),
           params=(ParamSpec("z", 1.001, 1e3, "log", 32),),
           convention="lower-lip"),
        _E("g09-li2-two", "5.1", "the exact values for",
           lambda: L(2.0) - complex(PI2 / 4.0, -PI * LN2), convention="lower-lip"),
        _E("g09-li2-phi", "5.1", "the exact values for",
           lambda: L(PHI) - complex(7.0 * PI2 / 30.0 + 0.5 * LPHI ** 2, -PI * LPHI),
           convention="lower-lip"),
        _E("g09-li2-phi2", "5.1", "the exact values for",
           lambda: L(PHI ** 2)
           - complex(4.0 * PI2 / 15.0 - LPHI ** 2, -2.0 * PI * LPHI),
           convention="lower-lip"),
        _E("g09-li2-one-minus-i-half", "5.2", "calculating the exact value for",
           lambda: Lc(complex(0.5, -0.5))
           - complex(5.0 * PI2 / 96.0 - 0.125 * LN2 ** 2, PI * LN2 / 8.0 - C)),
        _E("g09-li2-i", "5.2", "calculating the exact value for",
           lambda: Lc(1j) - complex(-PI2 / 48.0, C)),
        _E("g09-imag-sqrt3", "5.3", "unexpected simple outcome",
           lambda: Lc(1j * (2.0 - SQ3)) - Lc(1j * (SQ3 - 2.0))
           - 1j * (4.0 * C / 3.0 - PI * ln(2.0 + SQ3) / 6.0)),
        _E("g09-imag-sqrt2", "5.3", "plays the key role now",
           lambda: Lc(1j * (SQ2 - 1.0)) - Lc(1j * (1.0 - SQ2))
           - 1j * ((trigamma(0.125) + trigamma(0.375)
                    - trigamma(0.625) - trigamma(0.875)) / (32.0 * SQ2)
                   - 0.25 * PI * ln(SQ2 + 1.0))),
        _E("g09-quarter-root-five", "5.4", "complex number to be the initial value", eq60),
        _E("g09-single-value", "5.5", "final single value representation", eq61),
        _E("g09-re-sqrt7-a", "5.6", "exact value for a real part",
           lambda: complex(Lc(complex(1.5, 0.5 * SQ7)).real
                           - (-PI2 / 24.0 - 0.25 * LN2 ** 2
                              + 0.5 * PI * math.atan(SQ7 / 5.0)
                              + 0.5 * math.atan(SQ7 / 3.0) * math.atan(SQ7)))),
        _E("g09-re-sqrt7-b", "5.7", "another exact real part",
           lambda: complex(Lc(complex(0.625, SQ7 / 8.0)).real
                           - (7.0 * PI2 / 24.0 - 0.25 * LN2 ** 2
                              - 0.5 * PI * math.atan(SQ7 / 5.0)
                              - 1.5 * math.atan(SQ7 / 3.0) * math.atan(SQ7)))),
        _E("g09-li2-phii", "5.8", "the imaginary golden ratio",
           lambda: Lc(phii) - complex(PI2 / 36.0, G)),
        _E("g09-gieseking-pair", "5.8", "the imaginary golden ratio",
           lambda: Lc(1j / SQ3) - Lc(-1j / SQ3)
           - 1j * (5.0 * G / 3.0 - PI * LN3 / 6.0)),
        _E("g09-trigamma-sum", "5.8", "a nice trigamma-identity of the form",
           lambda: complex(trigamma(1.0 / 6.0) + 5.0 * trigamma(1.0 / 3.0)
                           + 5.0 * trigamma(2.0 / 3.0) + trigamma(5.0 / 6.0)
                           - 32.0 * PI2 / 3.0)),
        _E("g09-im-half-phii", "5.8", "derive the imaginary part for",
           lambda: complex(Lc(0.5 * phii).imag - (5.0 * G / 6.0 - PI * LN2 / 6.0))),
        _E("g09-im-two-phii", "5.8", "exploit the above result",
           lambda: complex(Lc(2.0 * phii).imag - (5.0 * G / 6.0 + PI * LN2 / 2.0))),
    ]


def _g10() -> list:
    G = gieseking()
    phii = cmath.exp(1j * PI / 3.0)
    th = math.atan(SQ2)  # the magic angle
    q = "couple of three-term identities"
    items = [
        ("item1", lambda: L(-0.5) - PI2 / 24.0
         + L((1.0 + SQ2) / 3.0) + L((1.0 - SQ2) / 3.0)
         + ln((2.0 - SQ2) / 3.0) * ln((1.0 + SQ2) / 3.0)
         + 0.5 * LN2 * ln((2.0 * SQ2 - 2.0) / 3.0)),
        ("item2", lambda: L(-0.5)
         - 2.0 / 3.0 * L((1.0 - SQ3) / 4.0) - 2.0 / 3.0 * L((1.0 + SQ3) / 4.0)
         + PI2 / 9.0 - 5.0 / 6.0 * LN2 ** 2 + LN3 ** 2 / 3.0
         - LN3 * ln(0.75) / 6.0 - 4.0 / 3.0 * LN2 * ln(1.5)
         - ln((16.0 - 8.0 * SQ3) / 3.0) * ln((6.0 + 2.0 * SQ3) / 3.0) / 3.0),
        ("item3", lambda: L(-0.5) - L((3.0 * SQ2 - 4.0) / 2.0) + L(4.0 - 3.0 * SQ2)
         + PI2 / 8.0 + 0.625 * LN2 ** 2 - 0.5 * LN2 * ln(4.0 + 3.0 * SQ2)),
        ("item4", lambda: L(-0.5) - 2.0 / 3.0 * L(3.0 - 2.0 * SQ3)
         + 2.0 / 3.0 * L((2.0 * SQ3 - 3.0) / 3.0)
         - LN3 ** 2 / 12.0 + 0.5 * LN2 ** 2 - LN2 * LN3
         + LN3 * ln(3.0 + 2.0 * SQ3) / 3.0),
        ("item5", lambda: L(-0.5) - 0.5 * L(0.5 / PHI ** 4) + 0.5 * L(2.0 / PHI ** 4)
         + PI2 / 24.0 + 0.25 * LN2 ** 2 - 2.0 * LN2 * LPHI + 2.0 * LPHI ** 2),
        ("item6", lambda: L(-0.5) - L(0.125 / PHI ** 4) / 6.0 - L(PHI ** 4 / 8.0) / 6.0
         + PI2_12 + 4.0 / 3.0 * LPHI ** 2 - LN2 ** 2),
    ]
    entries = [_E(f"g10-{name}", "6", q, fn) for name, fn in items]
    entries += [
        _E("g10-item7", "6", "an unorthodox maneuver",
           lambda: L(-0.5) + 2.0 * Lc(2.0 * phii).real + 0.5 * LN2 ** 2),
        _E("g10-item8", "6", "substitute this value in the all",
           lambda: L(-0.5) - 2.0 * Lc(0.5 * phii).real + PI2 / 9.0 - 0.5 * LN2 ** 2),
        _E("g10-item9", "6", "magic angle",
           lambda: L(-0.5) + Lc(complex(2.0, 2.0 * SQ2)).real
           - PI2_12 + th * th + 0.5 * LN2 ** 2 + 0.25 * LN3 ** 2,
           expected="flagged"),
        _E("g10-re-sum", "6", "two-term identity related to",
           lambda: complex(Lc(0.5 * phii).real + Lc(2.0 * phii).real
                           - PI2 / 18.0 + 0.5 * LN2 ** 2)),
        _E("g10-complex-sum", "6", "including the complex golden ratio",
           lambda: Lc(0.5 * phii) + Lc(2.0 * phii)
           - complex(PI2 / 18.0 - 0.5 * LN2 ** 2,
                     5.0 * G / 3.0 + PI * LN2 / 3.0)),
    ]
    return entries


def _g11() -> list:
    k6 = math.exp(PI / math.sqrt(6.0))

    def example2_root() -> complex:
        f = lambda x: (fixed_point(x * x - 2.0 * x) ** 2
                       + 2.0 * L(1.0 / x).real - PI2_6 + L(2.0 * x - x * x).real)
        return complex(find_root(f, 1.0001, 2.49) - 2.0)

    def eq82(k: float) -> complex:
        return (L(1.0 / k - 1.0) - L(1.0 - 1.0 / k) - L(1.0 - 2.0 * k)
                + L(2.0 * k - 1.0) - PI2 / 4.0
                + ln(1.0 / k - 1.0) * ln(2.0 * k - 1.0))

    def median_example(cid: str, power: int) -> complex:
        m = _const(cid)
        a = m ** power
        return complex(median(a) - ln(m))

    def rule_1(a: float) -> complex:
        return complex(median_rule_residuals(a)[0])

    def rule_2(a: float) -> complex:
        return complex(median_rule_residuals(a)[1])

    def phi_pair_n() -> float:
        return 22.0 * PI2 / (7.0 * PI2 - 15.0 * LPHI ** 2) - 2.0

    entries = [
        _E("g11-r-at-one", "7.1", "define the critical shape factor",
           lambda: complex(area_ratio_r(1.0) - PI2 / (4.0 * ln(1.0 + SQ2) ** 2))),
        _E("g11-r-critical", "7.1", "define the critical shape factor",
           lambda: complex(area_ratio_r(_const("a_c")) - 3.0)),
        _E("g11-r-limit", "7.1", "define the critical shape factor",
           lambda: complex(area_ratio_r(1e8) - 2.0), kind="limit", tol=5e-2),
        _E("g11-middle-square-root", "7.1", "the degenerate form", example2_root),
        _E("g11-exp-pi-sqrt6-a", "7.1", "identity without the constant terms",
           lambda: L(2.0 - k6) - L(1.0 / k6) - 0.5 * L(2.0 * k6 - k6 * k6)),
        _E("g11-exp-pi-sqrt6-b", "7.1", "common root for the both identities",
           lambda: L(k6) + L(2.0 - 1.0 / k6) + L(1.0 - 2.0 * k6) - L(2.0 * k6 - 1.0),
           convention="lower-lip"),
        _E("g11-exp-pi-sqrt6-c", "7.1", "constant term free identities",
           eq82, params=(ParamSpec("k", 0.501, 0.999, "linear", 24),)),
        _E("g11-median-equation", "7.2", "the formula for a median is given by", _median_half_area,
           params=(ParamSpec("a", -0.9, 50.0, "log", 8),), tol=1e-8),
        _E("g11-median-rule-1", "7.2", "is equal to the rectangle area",
           rule_1, params=(ParamSpec("a", -0.9, 20.0, "log", 16),)),
        _E("g11-median-rule-2", "7.2", "always half of the area",
           rule_2, params=(ParamSpec("a", -0.9, 20.0, "log", 16),)),
        _E("g11-median-example-4", "7.2", "the formula for a median is given by",
           lambda: median_example("median_n1", 1)),
        _E("g11-median-example-5", "7.2", "the formula for a median is given by",
           lambda: median_example("median_n2", 2)),
        _E("g11-median-example-6", "7.2", "the formula for a median is given by",
           lambda: _five_term_median(_const("median_n2"))),
        _E("g11-median-example-7", "7.2", "the formula for a median is given by",
           lambda: median_example("median_n3", 3)),
        _E("g11-median-asymptotic-1", "7.2", "an indeterminate form",
           lambda: _ex8_pair(1, 1e6), kind="limit", tol=1e-3),
        _E("g11-median-asymptotic-2", "7.2", "asymptotic median equation",
           lambda: _ex8_pair(2, 1e6), kind="limit", tol=1e-3),
        _E("g11-rxa-phi-0", "7.3", "an inverse gemini function pair",
           lambda: complex(area_ratio_rxa(PHI, 0.0) - 5.0)),
        _E("g11-rxa-phi-1", "7.3", "an inverse gemini function pair",
           lambda: complex(area_ratio_rxa(PHI, 1.0) - 3.0)),
        _E("g11-inverse-pair-phi", "7.3", "values for the inverse function pairs",
           lambda: _inverse_pair(PHI, phi_pair_n())),
        _E("g11-no-pi2-pair", "7.3", "values for the inverse function pairs",
           lambda: complex(abs(L(-_const("a_no_pi2")) + PI2_6),
                           abs(L(-1.0 / _const("a_no_pi2"))
                               + 0.5 * ln(_const("a_no_pi2")) ** 2))),
        _E("g11-exp-i-pi-sqrt3", "7.3", "extremely simple complex valued two-term identity",
           lambda: Lc(-cmath.exp(1j * PI / SQ3)) + Lc(-cmath.exp(-1j * PI / SQ3))),
    ]
    entries += [
        _E(f"g11-inverse-pair-n{n}", "7.3", "values for the inverse function pairs",
           lambda _n=n: _inverse_pair(_const(f"inverse_pair_a_n{_n}"), float(_n)))
        for n in range(2, 8)
    ]
    return entries


def _five_term_median(m: float) -> complex:
    m2 = m * m
    return (L(2.0 / (m2 + 1.0)) - L((m2 - 1.0) / (2.0 * m2)) + PI2_12 + ln(m) ** 2
            - 2.0 * ln(m) * ln(2.0 * m2 / (m2 - 1.0))
            + 0.5 * ln((m2 + 1.0) / 2.0)
            * ln((2.0 * m2 + 2.0) / (m2 * m2 - 2.0 * m2 + 1.0)))


def _g12() -> list:
    def critical_derivative() -> complex:
        a = _const("a_crit_p2")
        h = 1e-5
        d = (atot_of_a_p(a + h, 2.0) - atot_of_a_p(a - h, 2.0)) / (2.0 * h)
        return complex(d)

    def a_of_p_quad(p: float) -> complex:
        q = integrate(lambda a: atot_of_a_p(a, p), -1.0 + 1e-12, math.inf, 1e-10)
        return complex(A_of_p(p) - q)

    def median_zero_p() -> complex:
        return complex(constant_by_id("p_median_zero").fn(_const("p_median_zero")))

    def intersections() -> complex:
        x1, x2 = _fit_intersections()
        return complex(x1 - 0.219604, x2 - 2.213083)

    def zero_sum() -> complex:
        return complex(integrate(_scale_fit_diff, 0.0, math.inf, 1e-11))

    def half_split() -> complex:
        x1, x2 = _fit_intersections()
        i1 = integrate(_scale_fit_diff, 0.0, x1, 1e-12)
        i2 = integrate(_scale_fit_diff, x1, x2, 1e-12)
        i3 = integrate(_scale_fit_diff, x2, math.inf, 1e-12)
        return complex(i1 - i3, i1 - 0.5 * abs(i2))

    return [
        _E("g12-critical-a", "9.1", "scale factor starts to dominate",
           critical_derivative, tol=1e-6),
        _E("g12-a-of-p", "9.1", "The result of this improper integral",
           a_of_p_quad, params=(ParamSpec("p", 1.2, 10.0, "log", 6),), tol=1e-7),
        _E("g12-median-zero-p", "9.1", "single-term dilogarithm representation", median_zero_p),
        _E("g12-fit-scale", "9.2", "fit an arbitrary gemini function",
           lambda: complex(total_area(_FIT_DEGENERATE) - PI2 / 4.0)),
        _E("g12-fit-intersections", "9.2", "fit an arbitrary gemini function",
           intersections, tol=1e-5),
        _E("g12-fit-zero-sum", "9.2", "fit an arbitrary gemini function", zero_sum, tol=1e-8),
        _E("g12-fit-half-split", "9.2", "fit an arbitrary gemini function", half_split, tol=1e-8),
    ]


def _g13() -> list:
    y = (_const("tribonacci") + 1.0) / _const("tribonacci")
    T = _const("tribonacci")

    def campbell() -> complex:
        z1 = _campbell_arg1()
        z2 = complex(0.5, -0.5 * math.sqrt(4.0 * PHI * PHI - 1.0))
        rhs = complex(0.5 * LPHI ** 2 + PI2 / 150.0, 3.0 * PI * LPHI / 5.0)
        return Lc(z1) - Lc(z2) - rhs

    def campbell_chain() -> complex:
        z1 = _campbell_arg1()
        return Lc(z1) + _li2_eipi5_closed() - complex(13.0 * PI2 / 150.0, PI * LPHI / 5.0)

    def chain_link() -> complex:
        z = complex(0.5, 0.5 * math.sqrt(SQ5 * PHI ** 3))
        return (Lc(z) - Lc(cmath.exp(1j * PI / 5.0))
                + complex(11.0 * PI2 / 150.0 + 0.5 * LPHI ** 2, -2.0 * PI * LPHI / 5.0))

    return [
        _E("g13-campbell", "10.1", "a numerically discovered identity", campbell),
        _E("g13-campbell-chain", "10.1", "a numerically discovered identity", campbell_chain),
        _E("g13-campbell-link", "10.1", "a numerically discovered identity", chain_link),
        _E("g13-re-half-iu", "10.1", "real part can always be determined",
           lambda u: complex(Lc(complex(0.5, u)).real
                             - (PI2_12 - 0.125 * ln((1.0 + 4.0 * u * u) / 4.0) ** 2
                                - 0.5 * math.atan(2.0 * u) ** 2)),
           params=(ParamSpec("u", -10.0, 10.0, "linear", 32),)),
        _E("g13-re-phi-point", "10.1", "real part can always be determined",
           lambda: complex(Lc(complex(0.5, 0.5 * math.sqrt(SQ5 * PHI ** 3))).real
                           - (PI2 / 300.0 - 0.5 * LPHI ** 2))),
        _E("g13-kummer", "10.1", "aid of Kummer's rule",
           lambda t: complex(Lc(cmath.exp(1j * t)).real
                             - (PI2_6 - (2.0 * PI * t - t * t) / 4.0)),
           params=(ParamSpec("theta", 1e-3, 2.0 * PI - 1e-3, "linear", 32),)),
        _E("g13-re-ei-pi5", "10.1", "aid of Kummer's rule",
           lambda: complex(Lc(cmath.exp(1j * PI / 5.0)).real - 23.0 * PI2 / 300.0)),
        _E("g13-li2-ei-pi5", "10.1", "workable exercise with trigamma functions",
           lambda: Lc(cmath.exp(1j * PI / 5.0)) - _li2_eipi5_closed()),
        _E("g13-half-ladder-1", "10.2", "ladders in the base",
           lambda: 4.0 * L(0.5) - 6.0 * L(0.25) - 2.0 * L(0.125)
           + L(1.0 / 64.0) - LN2 ** 2),
        _E("g13-half-ladder-2", "10.2", "ladders in the base",
           lambda: 36.0 * L(0.5) - 36.0 * L(0.25) - 12.0 * L(0.125)
           + 6.0 * L(1.0 / 64.0) - PI2),
        _E("g13-tribonacci-y", "10.3", "derive a five-term ladder",
           lambda: 4.0 * L(y ** -3) - 4.0 * L(y ** -4) - 2.0 * L(y ** -6)
           - 2.0 * L(y ** -7) + L(y ** -14) - ln(y) ** 2),
        _E("g13-tribonacci-t", "10.3", "derive a five-term ladder",
           lambda: 4.0 * L(0.5 / T) - 4.0 * L(1.0 / (2.0 * T + 2.0))
           - 2.0 * L(0.25 / (T * T)) - 2.0 * L((2.0 - T) / (4.0 * T - 4.0))
           + L((5.0 * T - 9.0) / (64.0 * T - 32.0)) - ln((T + 1.0) / T) ** 2),
    ]


def _g14() -> list:
    lam = _const("laplace_limit")
    xs = math.asinh(lam)

    def vol_closed(a: float, expr: float) -> complex:
        return complex(geminoid_volume(GeminiParams(a)) - 2.0 * PI * expr)

    def vol_quad(a: float) -> complex:
        return complex(geminoid_volume(GeminiParams(a))
                       - geminoid_volume_quad(GeminiParams(a), tol=1e-10))

    def moment_quad(s: float) -> complex:
        return complex(raw_moment(s) - raw_moment_quad(s, tol=1e-11))

    def kg_closed() -> complex:
        prof = curvature_profile(xs)
        pred = -lam * lam / ((1.0 + lam * lam) ** 1.5
                             * ln((1.0 + math.sqrt(1.0 + lam * lam)) / lam))
        return complex(prof.gauss_curvature - pred)

    def radii() -> complex:
        prof = curvature_profile(equal_radii_point())
        return complex(abs(prof.R1) - abs(prof.R2))

    def pi_hole_residual() -> complex:
        h = pi_hole(tol=1e-10)
        return complex(h.volume - PI ** 3, h.cross_section - PI2)

    return [
        _E("g14-volume-half", "A.1", "Volumes of solid of revolutions",
           lambda: vol_closed(-0.5, zeta3() / 8.0 + PI2 * LN2 / 12.0 - LN2 ** 3 / 6.0)),
        _E("g14-volume-inv-phi2", "A.1", "Volumes of solid of revolutions",
           lambda: vol_closed(-1.0 / PHI ** 2,
                              zeta3() / 5.0 - 2.0 / 3.0 * LPHI ** 3
                              + 2.0 / 15.0 * PI2 * LPHI)),
        _E("g14-volume-zero", "A.1", "Volumes of solid of revolutions",
           lambda: vol_closed(0.0, zeta3())),
        _E("g14-volume-one", "A.1", "Volumes of solid of revolutions",
           lambda: vol_closed(1.0, 7.0 * zeta3() / 4.0)),
        _E("g14-volume-quad", "A.1", "Volumes of solid of revolutions", vol_quad,
           params=(ParamSpec("a", -0.5, 1.0, "linear", 4,
                             edges=(-1.0 / PHI ** 2, 0.0)),),
           tol=1e-7),
        # convergence is O(1/ln^2 a): at a = 1e8 the gap is still ~8e-2, so the
        # limit is sampled far out where the stated tolerance is meaningful
        _E("g14-volume-ratio-limit", "A.1", "resembling an Euclidean 3D cone",
           lambda: complex(volume_ratio(1e32) - 8.0 / 3.0), kind="limit", tol=1e-2),
        _E("g14-moment", "A.1", "raw moment for a non-normalized",
           moment_quad, params=(ParamSpec("s", 1.0, 3.5, "linear", 3, edges=(2.0,)),),
           tol=1e-8),
        _E("g14-combined-integral", "A.1", "connects the Riemann zeta and gamma",
           lambda s: complex(combined_zeta_gamma_residual(s, tol=1e-10)),
           params=(ParamSpec("s", 1.5, 3.0, "linear", 2),), tol=1e-8),
        _E("g14-laplace-point", "A.2", "is the Laplace limit",
           lambda: complex(equal_radii_point() - xs)),
        _E("g14-curvature-kg", "A.2", "is the Laplace limit",
           lambda: complex(curvature_profile(xs).gauss_curvature + 0.212045),
           tol=1e-5),
        _E("g14-curvature-kg-closed", "A.2", "is the Laplace limit", kg_closed),
        _E("g14-curvature-radii", "A.2", "is the Laplace limit", radii),
        _E("g14-curvature-radius-value", "A.2", "is the Laplace limit",
           lambda: complex(abs(curvature_profile(xs).R1) - 2.171623), tol=1e-5),
        _E("g14-curvature-theta", "A.2", "is the Laplace limit",
           lambda: complex(curvature_profile(xs).theta - math.atan(lam))),
        _E("g14-cfp", "A.2", "hyperbolic cotangent fixed point constant",
           lambda: complex(_const("C_CFP") - math.asinh(1.0 / lam))),
        _E("g14-cfp-gemini-value", "A.2", "hyperbolic cotangent fixed point constant",
           lambda: complex(value(GeminiParams(1.0), xs) - _const("C_CFP"))),
        _E("g14-mamikon", "A.3", "Mamikon's tangent sweep theorem",
           lambda: complex(mamikon_area(tol=1e-11) - PI2 / 4.0)),
        _E("g14-pi-hole", "A.4", "call this solid of revolution a", pi_hole_residual, tol=1e-8),
    ]


@lru_cache(maxsize=1)
def builtin_catalog() -> Tuple[IdentityEntry, ...]:
    """The built-in identity catalog, ordered by entry id."""
    entries = (
        _g1() + _g2() + _g3() + _g4() + _g5() + _g6() + _g7()
        + _g8() + _g9() + _g10() + _g11() + _g12() + _g13() + _g14()
    )
    entries.sort(key=lambda e: e.id)
    ids = [e.id for e in entries]
    if len(ids) != len(set(ids)):
        raise RuntimeError("duplicate catalog ids")
    return tuple(entries)
