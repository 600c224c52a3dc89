"""The error contract of the public numerics API.

Every public function of ``polylog``, ``gemini`` and ``geometry``, and
``analysis.solve_nstep``, returns finite floats or complexes (tuples
and dataclass fields included) or raises ``ValueError`` (which ``BracketError``
subclasses) or ``AccuracyError``.  Nothing else may escape: no
``ZeroDivisionError``, no ``OverflowError``, no silent inf or nan.  The
catalog's sampling takes any Python int as its seed and never raises.
``integrate`` returns a value within its tolerance of the closed form, or
raises ``AccuracyError`` with an estimate above the tolerance.  ``find_root``
returns a root to within its xtol + rtol*|x|, or raises ``ValueError`` or
``AccuracyError``.
"""

import dataclasses
import math
import sys

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from gemini_dilog import analysis, catalog, gemini, geometry, polylog
from gemini_dilog.analysis import AccuracyError
from gemini_dilog.gemini import GeminiParams

DBL_MAX = sys.float_info.max

# edges of binary64 and of the functions' own ranges
SPECIAL = (
    0.0, -0.0, 1.0, -1.0, 2.0, 0.5, math.inf, -math.inf, math.nan,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e-17, 1e-10,
    DBL_MAX, -DBL_MAX, DBL_MAX / 2.0, DBL_MAX / math.sqrt(2.0), 1.3e154, 1.4e154, -1.4e154,
    709.78, 710.0, -502.0, -503.0, 1e100, -1e100,
    1.2418461352273484e-05, 1.926097818855344e-05,
)

# inputs that broke the contract before it was enforced, and edges where the
# gemini function is finite although a naive form of it overflows
REPRODUCED = [
    (gemini.value, (GeminiParams(709.78, 1.4222345118556956e16), 2.225073858507203e-309)),
    (gemini.value, (GeminiParams(1.7e308), 1e-10)),
    (gemini.symmetric_partner, (1.0, 710.0)),
    (gemini.symmetric_partner, (math.nan, 1.0)),
    (gemini.symmetric_partner, (math.inf, 1.0)),
    (gemini.symmetric_partner, (1.0, math.inf)),
    (gemini.symmetric_partner, (1.0, math.nan)),
    (gemini.atot_of_a_p, (1.0, -1.0)),
    (gemini.atot_of_a_p, (1.0, 1.4e154)),
    (gemini.atot_of_a_p, (1.0, -1.4e154)),
    (gemini.atot_of_a_p, (1.0, math.nan)),
    (gemini.inverse_pair_prediction, (DBL_MAX,)),
    (gemini.inverse_pair_prediction, (math.inf,)),
    (analysis.solve_nstep, (646, "plus")),
    (analysis.solve_nstep, (1023, "minus")),
]


def _finite(v) -> bool:
    if isinstance(v, (tuple, list)):
        return all(_finite(u) for u in v)
    if dataclasses.is_dataclass(v):
        return all(_finite(getattr(v, f.name)) for f in dataclasses.fields(v))
    if isinstance(v, complex):
        return math.isfinite(v.real) and math.isfinite(v.imag)
    return isinstance(v, (int, float)) and math.isfinite(v)


def _keeps_contract(fn, args) -> None:
    """Call fn(*args), where a pair (a, b) stands for GeminiParams(a, b)."""
    try:
        out = fn(*[GeminiParams(*x) if isinstance(x, tuple) else x for x in args])
    except (ValueError, AccuracyError):
        return
    assert _finite(out), (fn.__name__, args, out)


F = st.one_of(st.floats(), st.sampled_from(SPECIAL))
P = st.tuples(F, F)
C = st.one_of(st.complex_numbers(allow_nan=True, allow_infinity=True), st.builds(complex, F, F))
# li2_unit_circle reduces p modulo 2q in integers; q >= 2^1000 has its own path
I = st.one_of(st.integers(), st.sampled_from((0, 1, -1, 2 ** 1000, -2 ** 1000, 2 ** 1100)))
# a small tol costs the quadrature its finest level; draw few of those
TOL = st.one_of(st.sampled_from((1e-9, 1e-12, 0.0, -1.0, math.inf, math.nan, 5e-324)),
                st.floats(min_value=1e-14, max_value=1.0))

CALLS = {
    polylog.li2_re: (F,),
    polylog.li2_real: (F,),
    polylog.li2_complex: (C,),
    polylog.li3_real: (F,),
    polylog.chi2: (F,),
    polylog.clausen_cl2: (F,),
    polylog.trigamma: (F,),
    polylog.li2_unit_circle: (I, I),
    polylog.gamma_fn: (F,),
    polylog.zeta_fn: (F,),
    polylog.catalan: (),
    polylog.gieseking: (),
    polylog.zeta3: (),
    gemini.value: (P, F),
    gemini.antiderivative: (P, F),
    gemini.area_between: (P, F, F),
    gemini.total_area: (P,),
    gemini.fixed_point: (F,),
    gemini.symmetric_partner: (F, F),
    gemini.area_decomposition: (P,),
    gemini.area_ratio_r: (F,),
    gemini.area_ratio_rxa: (F, F),
    gemini.median: (F,),
    gemini.median_rule_residuals: (F,),
    gemini.inverse_pair_prediction: (F,),
    gemini.scale_fit: (F, F),
    gemini.atot_of_a_p: (F, F),
    gemini.A_of_p: (F,),
    geometry.geminoid_volume: (P,),
    geometry.geminoid_volume_quad: (P, TOL),
    geometry.volume_ratio: (F,),
    geometry.raw_moment: (F,),
    geometry.raw_moment_quad: (F, TOL),
    geometry.combined_zeta_gamma_residual: (F, TOL),
    geometry.curvature_profile: (F,),
    geometry.equal_radii_point: (),
    geometry.arcgd: (F,),
    geometry.mamikon_area: (TOL,),
    geometry.pi_hole: (TOL,),
    analysis.solve_nstep: (st.one_of(st.integers(), F), st.sampled_from(("plus", "minus", "x"))),
}


def test_every_public_function_is_fuzzed():
    public = {getattr(m, name) for m in (polylog, gemini, geometry) for name in m.__all__}
    public = {f for f in public if callable(f) and not isinstance(f, type)}
    assert public - set(CALLS) == set()


@pytest.mark.parametrize("fn, args", REPRODUCED,
                         ids=[f"{fn.__name__}{args}" for fn, args in REPRODUCED])
def test_reproduced_inputs(fn, args):
    try:
        out = fn(*args)
    except ValueError as exc:
        assert f"{fn.__name__}(" in str(exc)  # names the function and its arguments
        return
    assert _finite(out), out


@pytest.mark.parametrize("fn", list(CALLS), ids=[fn.__name__ for fn in CALLS])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_error_contract(fn, data):
    args = data.draw(st.tuples(*CALLS[fn]))
    _keeps_contract(fn, args)


# seeds beyond 32 bits, negative and huge: only the low 32 bits are used
SEED = st.one_of(st.integers(), st.sampled_from(
    (0, -1, -5, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3, -2 ** 100, 10 ** 30)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(entry=st.sampled_from([e for e in catalog.builtin_catalog() if e.params]), seed=SEED)
def test_catalog_sampling_takes_any_seed(entry, seed):
    pts = catalog._sample_points(entry, seed)
    assert pts == catalog._sample_points(entry, seed & 0xFFFFFFFF)
    for pt in pts:
        assert len(pt) == len(entry.params)
        for v, ps in zip(pt, entry.params):
            assert type(v) is float and ps.lower <= v <= ps.upper, (entry.id, ps.name, v)


# integrate is fuzzed through integrands with closed forms: x^alpha e^(-beta x)
# on [lo, inf), and x^alpha (1-x)^gamma between two points of [0, 1] in either
# order, singular at 0 or 1 for negative exponents
EXPONENT = st.floats(min_value=-0.95, max_value=4.0)
UNIT = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from((0.0, 1.0)))
QUAD_TOL = st.floats(min_value=1e-12, max_value=1e-3)


def _integrate_keeps_contract(f, lo, hi, tol, exact) -> None:
    """integrate(f, lo, hi, tol) is within tol of exact or raises AccuracyError
    with an estimate above tol; f is only called strictly inside."""
    a, b = min(lo, hi), max(lo, hi)

    def inside(x):
        assert a < x < b, (lo, hi, x)
        return f(x)

    try:
        got = analysis.integrate(inside, lo, hi, tol)
    except AccuracyError as exc:
        assert exc.estimate > tol, (lo, hi, tol, exc.estimate)
        return
    assert abs(got - exact) <= tol, (lo, hi, tol, got, exact)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(alpha=EXPONENT, beta=st.floats(min_value=0.1, max_value=10.0),
       lo=st.one_of(st.floats(min_value=0.0, max_value=30.0), st.just(0.0)), tol=QUAD_TOL)
def test_integrate_exponential_family(alpha, beta, lo, tol):
    with mpmath.workdps(30):
        exact = float(mpmath.gammainc(alpha + 1, beta * mpmath.mpf(lo))
                      / mpmath.mpf(beta) ** (alpha + 1))
    _integrate_keeps_contract(lambda x: x ** alpha * math.exp(-beta * x),
                              lo, math.inf, tol, exact)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(alpha=EXPONENT, gamma=EXPONENT, lo=UNIT, hi=UNIT, tol=QUAD_TOL)
# (1-x)^gamma puts mass within an ulp of 1, where no binary64 x lies
@example(alpha=0.0, gamma=-0.5, lo=0.0, hi=1.0, tol=1e-8)
@example(alpha=-0.5, gamma=-0.8, lo=1.0, hi=0.0, tol=1e-4)
def test_integrate_beta_family(alpha, gamma, lo, hi, tol):
    with mpmath.workdps(30):
        exact = float(mpmath.betainc(alpha + 1, gamma + 1, lo, hi))
    _integrate_keeps_contract(lambda x: x ** alpha * (1.0 - x) ** gamma, lo, hi, tol, exact)


# find_root is fuzzed through functions whose sign changes exactly at r: x - r
# and atan(x - r) (their floating-point sign is the sign of x - r), a step,
# and (x - r)^3, which is flat enough near r to use up the iterations
ROOT_FAMILIES = {
    "linear": lambda r: lambda x: x - r,
    "atan": lambda r: lambda x: math.atan(x - r),
    "step": lambda r: lambda x: -1.0 if x < r else 1.0,
    "cubic": lambda r: lambda x: (x - r) * (x - r) * (x - r),
}
ROOT_X = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(min_value=-1e3, max_value=1e3),
                   st.sampled_from((0.0, 1.0, -1.0, 5e-324, 1e-300, DBL_MAX, -DBL_MAX,
                                    DBL_MAX / 2.0, 2.0 ** 1023)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(sorted(ROOT_FAMILIES)), r=ROOT_X, lo=ROOT_X,
       hi=st.one_of(ROOT_X, st.just(math.inf)))
@example(family="linear", r=DBL_MAX, lo=-DBL_MAX, hi=DBL_MAX)
@example(family="step", r=1e300, lo=1.0, hi=math.inf)
# hi - lo overflows: brentq.c steps to -inf, then to nan
@example(family="atan", r=0.0, lo=-9.9792015476736e+291, hi=DBL_MAX)
def test_find_root_brackets_its_root(family, r, lo, hi):
    """find_root returns x with |x - r| <= xtol + rtol*|x|, or raises
    ValueError (BracketError for a finite bracket only when r is not
    strictly inside it) or AccuracyError."""
    try:
        x = analysis.find_root(ROOT_FAMILIES[family](r), lo, hi)
    except analysis.BracketError:
        assert hi == math.inf or not min(lo, hi) < r < max(lo, hi), (lo, hi)
        return
    except ValueError:
        assert hi == math.inf and not lo > 0.0, (lo, hi)
        return
    except AccuracyError:
        return
    assert math.isfinite(x) and abs(x - r) <= analysis._XTOL + analysis._RTOL * abs(x), (x, r)
