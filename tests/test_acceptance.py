"""Acceptance gate: spot targets, tolerances and runtime budgets.

Each test pins the tolerance it claims; none of the bounds here may be
loosened without an entry in the decision ledger.
"""

import math
import time

import numpy as np
import pytest

from gemini_dilog import catalog, gemini, geometry
from gemini_dilog.analysis import (
    constants_table,
    integrate,
    solve_constant,
)
from gemini_dilog.gemini import GeminiParams
from gemini_dilog.polylog import li2_real, trigamma

PI = math.pi
PI2 = PI * PI
PHI = (1.0 + math.sqrt(5.0)) / 2.0
LPHI = math.log(PHI)


class Budget:
    """Wall-clock guard for a criterion's runtime bound."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            assert time.perf_counter() - self.t0 < self.seconds


def test_criterion_1_eight_exact_real_values():
    cases = [
        (1.0, PI2 / 6.0),
        (-1.0, -PI2 / 12.0),
        (0.5, PI2 / 12.0 - math.log(2.0) ** 2 / 2.0),
        (1.0 / PHI, PI2 / 10.0 - LPHI ** 2),
        (-1.0 / PHI, -PI2 / 15.0 + LPHI ** 2 / 2.0),
        (1.0 / PHI ** 2, PI2 / 15.0 - LPHI ** 2),
        (-PHI, -PI2 / 10.0 - LPHI ** 2),
        (0.0, 0.0),
    ]
    with Budget(1.0):
        for x, ref in cases:
            z = li2_real(x)
            assert z.imag == 0.0
            assert abs(z.real - ref) < 1e-12, x


def test_criterion_2_classical_equations():
    with Budget(5.0):
        reports = catalog.verify_all(group="G3", tol=1e-11)
        assert len(reports) == 6
        for rep in reports:
            assert rep.status == "pass", (rep.id, rep.max_abs_residual)
            assert rep.samples >= 42


def test_criterion_3_five_term_grid():
    entry = catalog.catalog_entry("g02-five-term")
    a_grid = np.concatenate([[-1.0, -0.999], np.geomspace(1e-3, 21.0, 30) - 1.0])
    x_grid = np.concatenate([[1.001, 50.0], np.geomspace(1.002, 49.0, 30)])
    assert len(a_grid) == 32 and len(x_grid) == 32
    with Budget(30.0):
        worst = 0.0
        for a in a_grid:
            for x in x_grid:
                worst = max(worst, abs(catalog.residual(entry, (float(a),
                                                                float(x)))))
        assert worst < 1e-9


def test_criterion_4_full_catalog():
    with Budget(300.0):
        first = catalog.verify_all(tol=1e-9)
        second = catalog.verify_all(tol=1e-9)
    expected = {e.id: e.expected for e in catalog.builtin_catalog()}
    for rep in first:
        if expected[rep.id] == "holds":
            assert rep.status == "pass", (rep.id, rep.max_abs_residual)
        else:
            assert rep.status in ("flagged-but-passing", "flagged-discrepancy")
    # flagged residuals are stable, measured values
    for a, b in zip(first, second):
        if expected[a.id] == "flagged":
            assert a.max_abs_residual == b.max_abs_residual


def test_criterion_5_paper_constants():
    for c in constants_table():
        if c.provenance != "PAPER":
            continue
        x = solve_constant(c)
        assert abs(x - c.reference_value) < 1e-5, c.id
        assert abs(c.fn(x)) < 1e-12, c.id


def test_criterion_6_quadrature_vs_closed_form():
    with Budget(60.0):
        for a in (-0.5, 0.0, 1.0, 4.0):
            p = GeminiParams(a)
            q = integrate(lambda x: gemini.value(p, x), 0.0, math.inf, 1e-10)
            assert abs(gemini.total_area(p) - q) < 1e-7
            d = gemini.area_decomposition(p)
            x0 = gemini.fixed_point(a)
            tail = integrate(lambda x: gemini.value(p, x), x0, math.inf, 1e-10)
            assert abs(d.apex - tail) < 1e-7
            assert abs(d.total - (d.middle_square + 2.0 * d.apex)) < 1e-12

        assert abs(gemini.A_of_p(2.0) - PI2 / 4.0) < 1e-7
        assert abs(geometry.mamikon_area() - PI2 / 4.0) < 1e-7

        for s in (0.5, 1.0, 2.0, 3.5, 5.0):
            assert abs(geometry.raw_moment(s)
                       - geometry.raw_moment_quad(s)) < 1e-7

        for a in (-0.5, -1.0 / PHI ** 2, 0.0, 1.0):
            p = GeminiParams(a)
            assert abs(geometry.geminoid_volume(p)
                       - geometry.geminoid_volume_quad(p)) < 1e-7


def test_criterion_7_complex_suite():
    # fixed complex closed forms of G9 and G13 at 1e-10
    for e in catalog.builtin_catalog():
        if e.group in ("G9", "G13") and e.kind == "closed_form":
            rep = catalog.verify_entry(e, tol=1e-10)
            assert rep.status == "pass", (rep.id, rep.max_abs_residual)

    # psi1(1/6) + 5 psi1(1/3) + 5 psi1(2/3) + psi1(5/6) = 32 pi^2 / 3
    sum_ = (trigamma(1.0 / 6.0) + 5.0 * trigamma(1.0 / 3.0)
            + 5.0 * trigamma(2.0 / 3.0) + trigamma(5.0 / 6.0))
    assert abs(sum_ - 32.0 * PI2 / 3.0) < 1e-10

    # the discovered chain end-to-end
    for eid in ("g13-campbell", "g13-campbell-chain", "g13-campbell-link",
                "g13-li2-ei-pi5"):
        rep = catalog.verify_entry(catalog.catalog_entry(eid), tol=1e-9)
        assert rep.status == "pass", (rep.id, rep.max_abs_residual)


def test_criterion_8_geometry_spot_values():
    xs = geometry.equal_radii_point()
    pr = geometry.curvature_profile(xs)
    assert pr.gauss_curvature == pytest.approx(-0.212045, abs=1e-5)
    assert abs(pr.R1) == pytest.approx(2.171623, abs=1e-5)
    assert abs(pr.R2) == pytest.approx(2.171623, abs=1e-5)
    assert pr.theta == pytest.approx(0.585281, abs=1e-5)

    # star figure built on k0: octagon plus eight vertex areas
    k0 = solve_constant(next(c for c in constants_table() if c.id == "k0"))
    star = (8.0 * math.log(k0) * math.log(k0 / (k0 - 1.0))
            + 16.0 * li2_real((k0 - 1.0) / k0).real)
    assert star == pytest.approx(9.837682, abs=1e-5)

    hole = geometry.pi_hole()
    assert hole.volume == pytest.approx(PI ** 3, abs=1e-6)
    assert hole.cross_section == pytest.approx(PI2, abs=1e-6)
    assert hole.throat == pytest.approx(PI, abs=1e-6)


class TestCriterion9Properties:
    def test_self_inverse(self):
        for a in (-0.999, -0.5, 0.0, 1.0, 10.0):
            p = GeminiParams(a)
            n = 0
            for x in np.geomspace(1e-2, 15.0, 64):
                y = gemini.value(p, float(x))
                if y <= 1e-8:
                    continue
                assert gemini.value(p, y) == pytest.approx(float(x), rel=1e-9,
                                                           abs=1e-10)
                n += 1
            assert n >= 42

    def test_derivative_consistency(self):
        h = 1e-6
        for a in (-0.5, 0.0, 1.0, 5.0):
            p = GeminiParams(a)
            for x in np.geomspace(0.05, 8.0, 48):
                x = float(x)
                num = (gemini.antiderivative(p, x + h)
                       - gemini.antiderivative(p, x - h)) / (2.0 * h)
                assert num == pytest.approx(gemini.value(p, x), rel=1e-7,
                                            abs=1e-9)

    def test_apex_symmetry(self):
        for a in (-0.5, 0.0, 1.0, 4.0):
            p = GeminiParams(a)
            x0 = gemini.fixed_point(a)
            left = integrate(lambda x: gemini.value(p, x) - x0, 0.0, x0, 1e-10)
            right = integrate(lambda x: gemini.value(p, x), x0, math.inf, 1e-10)
            assert left == pytest.approx(right, abs=1e-9)

    def test_median_rules(self):
        for a in (0.0, 0.5, 1.0, 3.0, 10.0):
            r1, r2 = gemini.median_rule_residuals(a)
            assert abs(r1) < 1e-10
            assert abs(r2) < 1e-10

    def test_conjugation(self):
        from gemini_dilog.polylog import li2_complex
        rng = np.random.default_rng(0)
        for _ in range(64):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.01, 3))
            assert abs(li2_complex(z.conjugate())
                       - li2_complex(z).conjugate()) < 5e-14

    def test_determinism(self):
        assert catalog.verify_all(seed=11) == catalog.verify_all(seed=11)
