"""Oracles for the pure-Python numerics: mpmath, and outputs pinned as data.

``integrate`` must land within its tolerance of mpmath's quadrature of the
same integrand, and ``zeta_fn`` within 2 ulps of mpmath.  ``find_root``
ports ``brentq.c`` line for line, and ``_sampling`` ports ``linspace`` and
``geomspace``; where bit identity with the ported code is the property, the
outputs it gave were pinned (the roots as literals and a sha256, the grids
as a sha256 and a few literal grids), so a move of 1 ulp fails.
"""

import hashlib
import math
import random
import sys

import mpmath
import pytest

from gemini_dilog import _sampling, analysis, catalog, gemini, geometry, polylog
from gemini_dilog.analysis import AccuracyError, integrate


def _cold_verify_all(seed):
    """verify_all with every cache the package keeps emptied first, so it
    makes the same solves whichever tests ran before it."""
    analysis.constants_table.cache_clear()
    catalog.builtin_catalog.cache_clear()
    catalog._const.cache_clear()
    catalog._fit_intersections.cache_clear()
    return catalog.verify_all(seed=seed)


@pytest.fixture(scope="module")
def verify_calls():
    """Every quadrature and root solve of a cold verify_all(seed=42)."""
    quads, roots = [], []
    find_root = analysis.find_root

    def rec_integrate(f, lo=0.0, hi=math.inf, tol=1e-10):
        value = integrate(f, lo, hi, tol)
        quads.append((f, lo, hi, tol, value))
        return value

    def rec_find_root(f, lo, hi):
        # the bracket Brent ran: with hi = inf, the last of the doubled
        # points find_root evaluated after lo, before Brent's own iterates
        xs = []
        x = find_root(lambda t: xs.append(t) or f(t), lo, hi)
        if hi == math.inf:
            k = 1
            while k + 1 < len(xs) and xs[k + 1] == 2.0 * xs[k]:
                k += 1
            hi = xs[k]
        roots.append((f, lo, hi, x))
        return x

    mp = pytest.MonkeyPatch()
    for module in (catalog, geometry):
        mp.setattr(module, "integrate", rec_integrate)
    for module in (analysis, catalog, gemini, geometry):
        mp.setattr(module, "find_root", rec_find_root)
    try:
        _cold_verify_all(42)
    finally:
        mp.undo()
    return quads, roots


def _mp_quad(f, lo, hi):
    """mpmath's quadrature (30 digits) of the binary64 integrand f.  Points
    that round onto an end or beyond it, where f may be undefined, count 0:
    they span less than an ulp."""
    def g(t):
        x = float(t)
        return f(x) if lo < x < hi else 0.0

    with mpmath.workdps(30):
        return float(mpmath.quad(g, [lo, hi]))


class TestIntegrateAgainstMpmath:
    def test_every_verify_call_within_tol(self, verify_calls):
        quads, _ = verify_calls
        assert len(quads) > 50
        for f, lo, hi, tol, value in quads:
            assert abs(value - _mp_quad(f, lo, hi)) <= tol, (lo, hi, tol)

    @pytest.mark.parametrize("f, a, b, tol, ref", [
        (lambda x: -math.log(x), 0.0, 1.0, 2.5e-11, 1.0),  # ln x endpoint
        (lambda x: math.log(x) ** 2 * x ** -0.9, 0.0, 1.0, 1e-6, 2000.0),  # 2/0.1^3
        (lambda x: -math.log(-math.expm1(-x)), 0.0, math.inf, 2.5e-13, math.pi ** 2 / 6.0),
        (lambda x: 1.0 / (1.0 + x * x), 2.0, math.inf, 1e-12, float(mpmath.acot(2))),
        (math.sin, math.pi, 0.0, 1e-10, -2.0),  # reversed interval
        (lambda x: math.cos(100.0 * x), 0.0, 10.0, 1e-12, float(mpmath.sin(1000) / 100)),
    ])
    def test_synthetic_within_tol(self, f, a, b, tol, ref):
        try:
            got = integrate(f, a, b, tol)
        except AccuracyError as exc:  # allowed only with an honest estimate
            assert exc.estimate > tol
            return
        assert abs(got - ref) <= tol

    def test_oscillation_without_end_raises(self):
        # sin(1/x) oscillates without end at 0: no level agrees with the last
        with pytest.raises(AccuracyError) as info:
            integrate(lambda x: math.sin(1.0 / x), 0.0, 1.0, 1e-10)
        assert info.value.estimate > 1e-10

    def test_tolerance_below_roundoff_floor_raises(self):
        # a tolerance below 50*eps*int|f| cannot be met
        with pytest.raises(AccuracyError) as info:
            integrate(math.sin, 0.0, math.pi, 1e-16)
        assert info.value.estimate > 1e-16

    def test_integrate_rejects_infinite_lower_limit(self):
        with pytest.raises(ValueError):
            integrate(math.exp, -math.inf, 0.0)
        with pytest.raises(ValueError):
            integrate(math.exp, 0.0, -math.inf)

    def test_subnormal_tolerance_is_rejected(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 0.0, 1.0, 5e-324)

    def test_divergent_integral_raises(self):
        with pytest.raises(AccuracyError):
            integrate(lambda x: 1.0 / x, 0.0, 1.0)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_node_tables_match_mpmath(self, k):
        # level k holds t = j/2^k outward, odd j only above level 0, up to the
        # last t whose offsets stay normal floats.  Offsets and weights are
        # exp(-+c*u) with u = pi/2 sinh t, so rounding u costs c*u*eps
        eps = sys.float_info.epsilon
        tanh_sinh, _ = analysis._level(analysis._TANH_SINH, k)
        right, left = analysis._level(analysis._EXP_SINH, k)
        step = 1 if k == 0 else 2
        with mpmath.workdps(40):
            for nodes, c in ((tanh_sinh, -2), (right, 1), (left, -1)):
                ts = [mpmath.mpf(1 + step * i) / 2 ** k for i in range(len(nodes) + 1)]
                # the next node would leave the normal range
                assert mpmath.exp(-abs(c) * mpmath.pi / 2 * mpmath.sinh(ts[-1])) \
                    < sys.float_info.min
                for (offset, w), t in zip(nodes, ts):
                    u, v = mpmath.pi / 2 * mpmath.sinh(t), mpmath.pi / 2 * mpmath.cosh(t)
                    if c == -2:  # 1 - tanh u, and the weight pi/2 cosh t / cosh^2 u
                        ref = (2 / (mpmath.exp(2 * u) + 1), v / mpmath.cosh(u) ** 2)
                    else:
                        ref = (mpmath.exp(c * u), mpmath.exp(c * u) * v)
                    for got, want in zip((offset, w), ref):
                        assert abs(got - want) <= (4 + abs(c) * u) * eps * want, (c, k, t)


@pytest.fixture(scope="module")
def quadrature_entries():
    """The catalog entries whose verification integrates."""
    seen = set()

    def flag(f, lo=0.0, hi=math.inf, tol=1e-10):
        seen.add(entry.id)
        return integrate(f, lo, hi, tol)

    mp = pytest.MonkeyPatch()
    for module in (catalog, geometry):
        mp.setattr(module, "integrate", flag)
    try:
        for entry in catalog.builtin_catalog():
            catalog.verify_entry(entry)
    finally:
        mp.undo()
    return [e for e in catalog.builtin_catalog() if e.id in seen]


def test_quadrature_entries_pass_over_50_seeds(quadrature_entries):
    assert len(quadrature_entries) == 11
    for seed in range(50):
        for entry in quadrature_entries:
            report = catalog.verify_entry(entry, seed=seed)
            assert report.status == "pass", (entry.id, seed, report.max_abs_residual)


def _sha256_hex(rows):
    """sha256 of each row's numbers as ``float.hex``, one line per row."""
    text = "".join(" ".join(v.hex() for v in row) + "\n" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


# brentq.c's roots (xtol = eps, rtol = 4*eps) on the registry's brackets
_REGISTRY_ROOTS = {
    "phi": 1.618033988749895,
    "plastic": 1.324717957244746,
    "supergolden": 1.465571231876768,
    "theta1": 1.3802775690976141,
    "a4": 1.2207440846057596,
    "tribonacci": 1.8392867552141614,
    "k0": 1.542007703773042,
    "addinacci_super_fixed_point": 2.1002112883251645,
    "addinacci_2": 2.2055694304005904,
    "infinacci": 2.0,
    "a_c": 2.582815463847544,
    "laplace_limit": 0.6627434193491816,
    "C_CFP": 1.1996786402577337,
    "magic_angle": 0.9553166181245093,
    "delta_s": 0.8813735870195432,
    "median_n1": 1.7985330292065396,
    "median_n2": 2.0192832947190715,
    "median_n3": 2.9058616906903647,
    "a_no_pi2": 2.393307971410338,
    "p_median_zero": 1.1410799757471615,
    "a_crit_p2": -0.5140909211359718,
    "inverse_pair_a_n2": 3.531383758146416,
    "inverse_pair_a_n3": 7.900376772532308,
    "inverse_pair_a_n4": 14.759176103504121,
    "inverse_pair_a_n5": 24.941162858148424,
    "inverse_pair_a_n6": 39.48204420525902,
    "inverse_pair_a_n7": 59.654745905512414,
}


class TestBrentPinned:
    def test_registry_roots(self):
        table = analysis.constants_table()
        assert [c.id for c in table] == list(_REGISTRY_ROOTS)
        for c in table:
            assert analysis.solve_constant(c) == _REGISTRY_ROOTS[c.id], c.id

    def test_every_catalog_solve(self, verify_calls):
        # brentq.c's (lo, hi, root) for each solve, in call order: 127
        # solves, 89 of them distinct
        _, roots = verify_calls
        triples = [(lo, hi, x) for _, lo, hi, x in roots]
        assert len(triples) == 127 and len(set(triples)) == 89
        assert any(hi > 2.0 for lo, hi, _ in triples if lo == 1.0 + 1e-9)  # grown brackets
        assert triples[:4] == [(0.8247180000000001, 1.824718, 1.324717957244746),
                               (0.965571, 1.965571, 1.465571231876768),
                               (0.8802779999999999, 1.880278, 1.3802775690976141),
                               (0.720744, 1.720744, 1.2207440846057596)]
        assert _sha256_hex(triples) == \
            "aebc0aa995e1fc21cbc7a1467365be5b5df4082a5771c9d4e2b190f347d6a43d"

    # the first inverse-pair relation at n, solved upward from 1, and the
    # bracket find_root grows for it
    @pytest.mark.parametrize("n, hi, root", [
        (80525.27375437916, 2.0 ** 743, 3.382223425068879e+223),
        (51918.44309310768, 2.0 ** 597, 3.0487133374319655e+179),
    ])
    def test_zero_interpolation_denominator_bisects(self, n, hi, root):
        # Brent's interpolation meets fcur == fpre, where C's division gives
        # inf or nan, which fails the step test, so brentq.c bisects
        (A, B), _ = gemini.inverse_pair_prediction(n)
        f = lambda a: polylog.li2_re(-a) - A * polylog.PI2_6 - B * math.log(a) ** 2
        lo = 1.0 + 1e-9
        assert analysis.find_root(f, lo, hi) == root
        assert analysis.find_root(f, lo, math.inf) == root

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            analysis.find_root(lambda x: math.nan, 0.0, 1.0)
        with pytest.raises(ValueError):
            analysis.find_root(lambda x: x - 0.3 if x < 0.9 else math.nan, 0.0, 1.0)


def _re_li2(x):
    return mpmath.re(mpmath.polylog(2, x))


# the registry's defining equations, written independently in mpmath
_MP_CONSTANTS = {
    "phi": lambda x: x * x - x - 1,
    "plastic": lambda x: x ** 3 - x - 1,
    "supergolden": lambda x: x ** 3 - x * x - 1,
    "theta1": lambda x: x ** 4 - x ** 3 - 1,
    "a4": lambda x: x ** 4 - x - 1,
    "tribonacci": lambda x: x ** 3 - x * x - x - 1,
    "k0": lambda x: x ** (mpmath.sqrt(2) + 1) - x ** mpmath.sqrt(2) - 1,
    "addinacci_super_fixed_point": lambda x: x - 1 - mpmath.sqrt(1 + x ** -x),
    "addinacci_2": lambda x: x ** 3 - 2 * x * x - 1,
    "infinacci": lambda x: x - 2,
    "a_c": lambda a: (_re_li2(-a) - mpmath.pi ** 2 / 6
                      + 3 * mpmath.log(1 + mpmath.sqrt(1 + a)) ** 2),
    "laplace_limit": lambda x: (mpmath.log((1 + mpmath.sqrt(1 + x * x)) / x)
                                - mpmath.sqrt(1 + x * x)),
    "C_CFP": lambda x: mpmath.coth(x) - x,
    "magic_angle": lambda x: mpmath.tan(x) - mpmath.sqrt(2),
    "delta_s": lambda x: mpmath.exp(x) - 1 - mpmath.sqrt(2),
    "median_n1": lambda a: _re_li2(1 / a) + _re_li2(-a) / 2,
    "median_n2": lambda m: ((_re_li2(1 / m ** 2) - _re_li2(-1 / m ** 2)) / 2
                            - mpmath.log(m) ** 2 / 2),
    "median_n3": lambda m: (_re_li2(1 / m) - _re_li2(-m ** 2) - mpmath.pi ** 2 / 12
                            + _re_li2(-m ** 3) / 2),
    "a_no_pi2": lambda a: _re_li2(-a) + mpmath.pi ** 2 / 6,
    "p_median_zero": lambda p: (_re_li2(1 / p) - mpmath.pi ** 2 / 4
                                + mpmath.log(mpmath.sqrt(p - 1)) ** 2
                                + mpmath.log(p) * mpmath.log(mpmath.sqrt(p) / (p - 1))),
    "a_crit_p2": lambda a: (_re_li2(-a) - mpmath.pi ** 2 / 6
                            + (a + 2) / (2 * a) * mpmath.log(a + 1)),
}
for _n in range(2, 8):
    _MP_CONSTANTS[f"inverse_pair_a_n{_n}"] = (
        lambda a, n=_n: _re_li2(-a) + mpmath.mpf(2 * n - 1) / (n + 1) * mpmath.pi ** 2 / 6
        + mpmath.mpf(n) / (n + 1) * mpmath.log(a) ** 2 / 2)


class TestConstantsAgainstMpmath:
    def test_every_constant_within_5_ulps_of_its_root(self):
        # Brent stops at the binary64 limit; what is left is the rounding of
        # each equation in binary64 (every row but inverse_pair_a_n7 is
        # within 1.3 ulps, and n7 needs 4.7)
        table = analysis.constants_table()
        assert {c.id for c in table} == set(_MP_CONSTANTS)
        for c in table:
            x = analysis.solve_constant(c)
            with mpmath.workdps(40):
                root = mpmath.findroot(_MP_CONSTANTS[c.id], mpmath.mpf(x))
            assert abs(x - root) <= 5 * math.ulp(float(root)), c.id

    def test_critical_a_at_p2_within_1_ulp(self):
        with mpmath.workdps(40):
            root = mpmath.findroot(_MP_CONSTANTS["a_crit_p2"], mpmath.mpf(-0.514091))
        x = analysis.solve_constant(analysis.constant_by_id("a_crit_p2"))
        assert abs(x - root) <= math.ulp(float(root)), x


class TestZeta:
    def test_within_2_ulps_of_mpmath(self):
        # ulp error against mpmath on 1600 points of (1, 60]: 800 log-spaced
        # towards the pole, 800 uniform; measured worst 1.26
        rng = random.Random(60)
        pts = [1.0 + 10.0 ** rng.uniform(-12.0, math.log10(59.0)) for _ in range(800)]
        pts += [rng.uniform(1.0, 60.0) for _ in range(800)]
        worst = 0.0
        with mpmath.workprec(113):
            for s in pts:
                ref = mpmath.zeta(s)
                worst = max(worst, float(abs(polylog.zeta_fn(s) - ref)) / math.ulp(float(ref)))
        assert worst <= 2.0

    def test_large_arguments(self):
        for s in (61.0, 400.0, 1e10, 1e300):
            assert polylog.zeta_fn(s) == 1.0


# the distinct grids the catalog built when the outputs below were pinned: its
# linear axes, and its log axes (a shifted axis samples geomspace(1e-3, 1, n))
_CATALOG_LINEAR = [(-10.0, 10.0, 32), (-0.5, 1.0, 2), (0.001, 6.282185307179586, 32),
                   (0.501, 0.999, 24), (1.0, 3.5, 2), (1.5, 3.0, 2)]
_CATALOG_LOG = [(0.001, 1.0, 8), (0.001, 1.0, 16), (0.001, 1.0, 30), (0.001, 1.0, 31),
                (0.001, 1000.0, 48), (1.001, 50.0, 32), (1.001, 1000.0, 32),
                (1.001, 1000.0, 48), (1.2, 10.0, 6)]


class TestSamplingPinned:
    def test_linspace(self):
        assert list(_sampling.linspace(0.0, 1.0, 11)) == [
            0.0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6000000000000001,
            0.7000000000000001, 0.8, 0.9, 1.0]
        assert list(_sampling.linspace(-100.0, 100.0, 4)) == [
            -100.0, -33.33333333333333, 33.33333333333334, 100.0]
        rng = random.Random(14)
        grids = list(_CATALOG_LINEAR)
        for _ in range(2000):
            lo = rng.uniform(-100.0, 100.0)
            grids.append((lo, lo + rng.uniform(-50.0, 200.0), rng.randint(2, 300)))
        points = []
        for lo, hi, n in grids:
            points.append(list(_sampling.linspace(lo, hi, n)))
            assert len(points[-1]) == n and points[-1][0] == lo and points[-1][-1] == hi
        assert _sha256_hex(points) == \
            "2acdddb3a041273bb3535c215fcd7f7eea8a5cc153bcedb760a002b2a046abd4"

    def test_geomspace(self):
        # the catalog's log grids and plot-data's three series at seeded sizes
        assert list(_sampling.geomspace(0.001, 1000.0, 7)) == [
            0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0]
        assert list(_sampling.geomspace(0.05, 5.0, 5)) == [
            0.05, 0.15811388300841894, 0.49999999999999994, 1.5811388300841895, 5.0]
        grids = list(_CATALOG_LOG)
        rng = random.Random(15)
        for lo, hi in ((1e-4, 1.0), (1.1, 10.0), (0.05, 5.0)):
            grids += [(lo, hi, n) for n in [2, 3, 200] + rng.sample(range(4, 3000), 30)]
        points = []
        for lo, hi, n in grids:
            points.append(list(_sampling.geomspace(lo, hi, n)))
            assert len(points[-1]) == n and points[-1][0] == lo and points[-1][-1] == hi
        assert _sha256_hex(points) == \
            "9cdd23c326e27e1a080742cec01c22473d24994b3354f940de89ed370c8b9f6b"
