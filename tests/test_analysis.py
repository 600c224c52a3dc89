"""Unit tests for quadrature, root finding and the constant registry."""

import math

import pytest

from gemini_dilog import analysis, gemini
from gemini_dilog.analysis import (
    AccuracyError,
    BracketError,
    NamedConstant,
    constant_by_id,
    constants_table,
    find_root,
    integrate,
    solve_constant,
    solve_nstep,
)


class TestIntegrate:
    def test_finite_interval(self):
        got = integrate(math.sin, 0.0, math.pi)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_semi_infinite(self):
        got = integrate(lambda x: math.exp(-x) * x)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_log_singularity_at_zero(self):
        # int_0^1 ln(1/x) dx = 1
        got = integrate(lambda x: -math.log(x), 0.0, 1.0)
        assert got == pytest.approx(1.0, abs=1e-11)

    def test_log_singularity_infinite_upper(self):
        # int_0^inf ln(1/(1-e^{-x})) dx = pi^2/6
        f = lambda x: -math.log(-math.expm1(-x))
        got = integrate(f, 0.0, math.inf)
        assert got == pytest.approx(math.pi ** 2 / 6.0, abs=1e-10)

    def test_spec_validation(self):
        for tol in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                integrate(math.sin, 0.0, 1.0, tol)

    def test_raises_when_estimate_misses(self):
        # int_0^1 dx/x diverges; the error estimate says so
        with pytest.raises(AccuracyError) as info:
            integrate(lambda x: 1.0 / x, 0.0, 1.0)
        assert info.value.estimate > 1e-10

    def test_raises_when_integrand_fails(self):
        # ln(x - 1) is undefined on [0, 1): math raises ValueError
        with pytest.raises(AccuracyError):
            integrate(lambda x: math.log(x - 1.0), 0.0, 2.0)

    def test_non_finite_integrand_names_x(self):
        with pytest.raises(AccuracyError, match=r"integrand is nan at x = 0\.5$") as info:
            integrate(lambda x: math.nan, 0.0, 1.0)
        assert info.value.estimate == math.inf
        # inf beyond 0.9 first shows at the level-0 node 1 - (1 - tanh(pi/2 sinh 1))/2
        with pytest.raises(AccuracyError, match=r"integrand is inf at x = 0\.9756") as info:
            integrate(lambda x: math.inf if x > 0.9 else 1.0, 0.0, 1.0)
        assert info.value.estimate == math.inf

    def test_reversed_and_empty_intervals(self):
        assert integrate(math.sin, math.pi, 0.0) == -integrate(math.sin, 0.0, math.pi)
        seen = []
        assert integrate(lambda x: seen.append(x) or 1.0, 2.0, 2.0) == 0.0
        assert seen == []


class TestQuadpackConverges:
    """Catalog-type integrals meet their tolerance."""

    def test_log_singular_endpoint(self):
        # int_0^inf g_1 = pi^2/4 with g_1 ~ ln(1/x) at 0, never sampled there
        f = lambda x: gemini.value(gemini.GeminiParams(1.0), x)
        got = integrate(f, 0.0, math.inf, 1e-12)
        assert abs(got - math.pi ** 2 / 4.0) <= 1e-12

    @pytest.mark.parametrize("a", [10.0, 20.0])
    def test_absolute_stopping_rule(self, a):
        # the median half-area tail of g11-median-equation, to an absolute 1e-12
        p = gemini.GeminiParams(a)
        tail = integrate(lambda x: gemini.value(p, x), gemini.median(a), math.inf, 1e-12)
        assert tail == pytest.approx(0.5 * gemini.total_area(p), abs=1e-10)


class TestFindRoot:
    def test_simple_root(self):
        assert find_root(lambda x: x * x - 2.0, 1.0, 2.0) == pytest.approx(
            math.sqrt(2.0), abs=1e-13)

    def test_endpoint_root(self):
        assert find_root(lambda x: x - 1.0, 1.0, 2.0) == 1.0

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_deterministic(self):
        f = lambda x: math.cos(x) - x
        assert find_root(f, 0.0, 1.0) == find_root(f, 0.0, 1.0)

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: x ** 3 - 1e6, 1.0 + 1e-9, 128.0),
        (lambda x: x ** 3 - 1e6, 1.0, 128.0),
        (lambda x: x ** 3 - 1e6, 0.3, 128.0),
        (lambda x: x ** 3 - 1e6, 70.0, 128.0),
        (lambda x: math.log(x) - 2.0, 1e-300, 8.0),
    ])
    def test_grown_bracket_equals_finite_bracket(self, f, lo, hi):
        # doubling from the first power of two above lo stops at hi
        assert find_root(f, lo, math.inf) == find_root(f, lo, hi)

    def test_grown_bracket_reuses_endpoint_values(self):
        xs = []
        find_root(lambda x: xs.append(x) or x - 5.0, 1.0, math.inf)
        assert xs[:4] == [1.0, 2.0, 4.0, 8.0]
        assert len(xs) == len(set(xs))

    def test_grown_bracket_returns_a_zero_endpoint(self):
        assert find_root(lambda x: x - 8.0, 1.0, math.inf) == 8.0

    def test_no_sign_change_before_overflow(self):
        with pytest.raises(BracketError):
            find_root(lambda x: 1.0 + 1.0 / x, 1.0, math.inf)
        with pytest.raises(BracketError):
            find_root(lambda x: -x, 1e308, math.inf)

    @pytest.mark.parametrize("lo", [0.0, -1.0, -math.inf, math.inf, math.nan])
    def test_grown_bracket_needs_finite_positive_lo(self, lo):
        with pytest.raises(ValueError, match="finite lo > 0"):
            find_root(lambda x: x - 5.0, lo, math.inf)

    @staticmethod
    def _trinomial(n, m):
        # x^n - x^m - 1, +inf where x^n overflows (above the root, f > 0)
        def f(x):
            try:
                return x ** n - x ** m - 1.0
            except OverflowError:
                return math.inf
        return f

    # mpmath roots (60 digits); f(hi) is already +inf at the first grown hi, 2.0
    @pytest.mark.parametrize("n, m, root", [
        (2000, 1, "1.000346720356469264162217"),
        (1100.0, 1.0, "1.000630619157104166879738"),
        (2000, 1100, "1.000504346092692941482072"),
    ])
    def test_grown_bracket_with_infinite_f_hi(self, n, m, root):
        x = find_root(self._trinomial(n, m), 1.0 + 1e-12, math.inf)
        assert abs(x - float(root)) <= 2.0 * math.ulp(x)

    def test_infinite_f_lo_is_a_bracket_error(self):
        # the root lies below lo = 1 + 1e-12, where x^n already overflows
        with pytest.raises(BracketError):
            find_root(self._trinomial(1e300, 1.0), 1.0 + 1e-12, math.inf)


class TestAlgebraicSolvers:
    def test_nbonacci_limits(self):
        # N-bonacci constants increase toward 2, N-addinacci decrease toward 2
        prev = 0.0
        for N in (2, 3, 4, 5, 10):
            x = solve_nstep(N, "minus")
            assert prev < x < 2.0
            prev = x
        prev = 3.0
        for N in (2, 3, 4, 5, 10):
            x = solve_nstep(N, "plus")
            assert 2.0 < x < prev
            prev = x

    def test_nstep_tribonacci(self):
        # 3-bonacci root of x^4 - 2x^3 + 1 factors through the tribonacci cubic
        x = solve_nstep(3, "minus")
        assert abs(x ** 3 - x * x - x - 1.0) < 1e-12

    def test_nstep_validation(self):
        with pytest.raises(ValueError):
            solve_nstep(1, "minus")
        with pytest.raises(ValueError):
            solve_nstep(3, "times")


class TestConstantRegistry:
    def test_ids_unique(self):
        ids = [c.id for c in constants_table()]
        assert len(ids) == len(set(ids))

    def test_lookup(self):
        assert constant_by_id("phi").reference_value == pytest.approx(1.618034)
        with pytest.raises(KeyError):
            constant_by_id("no-such-constant")

    def test_provenance_tags(self):
        assert {c.provenance for c in constants_table()} == {"PAPER", "DERIVED"}

    def test_bracket_defaults_to_reference_plus_minus_half(self):
        explicit = {c.id: c.bracket for c in constants_table()
                    if c.bracket != (c.reference_value - 0.5, c.reference_value + 0.5)}
        assert explicit == {"addinacci_2": (2.0, 3.0), "p_median_zero": (1.01, 1.641080),
                            "a_crit_p2": (-0.9, -0.1)}

    def test_every_constant_back_substitutes(self):
        for c in constants_table():
            x = solve_constant(c)
            assert abs(c.fn(x)) < 1e-12, c.id

    def test_reference_values_six_decimals(self):
        for c in constants_table():
            x = solve_constant(c)
            assert x == pytest.approx(c.reference_value, abs=1e-5), c.id

    def test_known_roots(self):
        assert solve_constant(constant_by_id("phi")) == pytest.approx(
            (1.0 + math.sqrt(5.0)) / 2.0, abs=1e-13)
        assert solve_constant(constant_by_id("infinacci")) == pytest.approx(
            2.0, abs=1e-13)
        assert solve_constant(constant_by_id("delta_s")) == pytest.approx(
            math.log(1.0 + math.sqrt(2.0)), abs=1e-13)
        assert solve_constant(constant_by_id("magic_angle")) == pytest.approx(
            math.atan(math.sqrt(2.0)), abs=1e-13)

    def test_table_is_immutable_sequence(self):
        t = constants_table()
        assert t is constants_table()
        with pytest.raises(TypeError):
            t[0] = NamedConstant("x", "x = 0", lambda x: x, 0.0, "DERIVED")
