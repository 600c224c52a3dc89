"""Unit tests for the identity catalog and its verifier."""

import dataclasses
import math

import mpmath
import pytest

from gemini_dilog import catalog
from gemini_dilog.catalog import (
    builtin_catalog,
    catalog_entry,
    residual,
    verify_all,
    verify_entry,
)

ALL_GROUPS = tuple(f"G{i}" for i in range(1, 15))


class TestCatalogShape:
    def test_size(self):
        assert len(builtin_catalog()) >= 80

    def test_ids_unique(self):
        ids = [e.id for e in builtin_catalog()]
        assert len(ids) == len(set(ids))

    def test_every_group_populated(self):
        present = {e.group for e in builtin_catalog()}
        assert present == set(ALL_GROUPS)

    def test_kinds(self):
        kinds = {e.kind for e in builtin_catalog()}
        assert kinds <= {"closed_form", "parametric", "limit"}
        assert "parametric" in kinds and "limit" in kinds

    def test_anchors_populated(self):
        for e in builtin_catalog():
            assert e.anchor.section
            assert len(e.anchor.quote) >= 8, e.id

    def test_entries_immutable(self):
        e = builtin_catalog()[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.id = "renamed"

    def test_lookup(self):
        e = catalog_entry("g02-five-term")
        assert e.group == "G2"
        assert e.kind == "parametric"
        with pytest.raises(KeyError):
            catalog_entry("g00-missing")

    def test_flagged_set(self):
        flagged = {e.id for e in builtin_catalog() if e.expected == "flagged"}
        assert {"g04-six-silver", "g04-sqrt-phi", "g04-four-term",
                "g10-item9"} <= flagged

    def test_lower_lip_convention_marked(self):
        marked = [e for e in builtin_catalog() if e.convention == "lower-lip"]
        assert marked, "entries evaluating Li2 beyond x = 1 carry the marker"


class TestResidual:
    def test_closed_form_takes_no_params(self):
        e = catalog_entry("g05-ramanujan-1")
        r = residual(e, {})
        assert isinstance(r, complex)
        assert abs(r) < 1e-12

    def test_parametric_residual_small_inside_domain(self):
        e = catalog_entry("g02-five-term")
        assert abs(residual(e, (0.5, 2.0))) < 1e-12
        assert abs(residual(e, (-1.0, 1.001))) < 1e-10


class TestSampling:
    # random.Random(int).random() is the one stream Python promises to keep
    # across versions, so these literals hold on every supported Python
    def test_seed_42_draws_two_real_axes(self):
        assert catalog._sample_points(catalog_entry("g02-five-term"), 42)[-10:] == [
            (9.854442109174645, 13.768514451820463),
            (-0.18302668530895427, 49.18665920147749),
            (5.092973430295014, 18.184063622807827),
            (2.936158503880617, 41.3673291547394),
            (5.0577754044006635, 8.029907785919304),
            (6.506654300632381, 4.309389885361261),
            (4.16206330309857, 13.67768805392299),
            (17.039007639542035, 34.88504889632259),
            (4.765553448743263, 12.74123293138626),
            (0.9371600567107685, 32.80977112711415),
        ]

    def test_seed_42_draws_an_integer_axis(self):
        pts = catalog._sample_points(catalog_entry("g04-fibonacci"), 42)
        assert pts[-10:] == [(8.0,), (6.0,), (5.0,), (4.0,), (6.0,),
                             (3.0,), (7.0,), (6.0,), (6.0,), (3.0,)]

    def test_integer_draw_never_reaches_past_upper(self):
        # the largest random() value: a float sum lo + 4*u would round to 6.0
        class Top:
            def random(self):
                return 1.0 - 2.0 ** -53

        ps = catalog.ParamSpec("n", 2, 5, "integer")
        assert catalog._random_point(ps, Top()) == 5.0


class TestFlaggedAt50Digits:
    """The flagged entries' formulas, retyped in mpmath: the four that pass in
    binary64 hold to 50 digits, and ramanujan-2 is short exactly ln 2 ln 3.
    The catalog keeps them flagged; this pins what 50 digits say."""

    @mpmath.workdps(50)
    def test_flagged_residuals(self):
        L = lambda x: mpmath.polylog(2, x)
        ln, sqrt, pi2 = mpmath.log, mpmath.sqrt, mpmath.pi ** 2
        sq2, sq5, ln2, ln3 = sqrt(2), sqrt(5), ln(2), ln(3)
        phi = (1 + sq5) / 2
        lphi, rphi = ln(phi), sqrt(phi)
        th = mpmath.atan(sq2)
        res = {
            "g04-six-silver": 6 * L(sq2 - 1) + L((2 - sq2) / 4)
            - (11 * pi2 / 24 - 3 * ln2 ** 2 / 8
               - ln(3 - 2 * sq2) * ln(2 * sq2 - 2)
               - 3 * ln(sq2 + 1) ** 2 / 2
               - 3 * ln2 * ln(2 + sq2) / 2
               + ln(sq2 + 1) * (ln2 / 2 + ln(2 + sq2))),
            "g04-sqrt-phi": L((1 + rphi) / phi ** 2) + L(phi ** 3 - phi ** 2 * rphi)
            - 17 * pi2 / 60 + 11 * lphi ** 2 / 8
            + ln(phi ** 3 * rphi - phi ** 3) * ln(phi ** 2 * rphi - 2 * phi)
            + ln(phi ** 3 * rphi - phi ** 3)
            * ln(sqrt(phi ** 6 + phi ** 5 * rphi + phi ** 4 + 2 * phi ** 3 * rphi)),
            "g04-four-term": 2 * L(1 / (phi * sq5)) - L(sq5 / phi ** 2)
            + pi2 / 30 + ln(5) ** 2 / 8 + lphi * ln(125 / phi ** 7) / 2
            + ln(phi ** 2 + 1) * ln(sqrt(phi ** 2 + 1) / phi ** 2),
            "g10-item9": L(-0.5) + mpmath.re(L(mpmath.mpc(2, 2 * sq2)))
            - pi2 / 12 + th ** 2 + ln2 ** 2 / 2 + ln3 ** 2 / 4,
            "g05-ramanujan-2": L(0.25) + L(mpmath.mpf(1) / 9) / 3
            - (pi2 / 18 - 2 * ln2 ** 2 + ln2 * ln3 - 2 * ln3 ** 2 / 3),
        }
        for eid in ("g04-six-silver", "g04-sqrt-phi", "g04-four-term", "g10-item9"):
            assert abs(res[eid]) < 1e-40, (eid, res[eid])
            assert catalog_entry(eid).expected == "flagged"
        rel = mpmath.pslq([res["g05-ramanujan-2"], ln2 ** 2, ln2 * ln3, ln3 ** 2, pi2],
                          maxcoeff=1000, maxsteps=10 ** 5)
        # residual - ln 2 ln 3 = 0, up to the overall sign
        assert rel in ([1, 0, -1, 0, 0], [-1, 0, 1, 0, 0]), rel


class TestVerifyEntry:
    def test_passing_entry(self):
        rep = verify_entry(catalog_entry("g03-reflection"))
        assert rep.status == "pass"
        assert rep.samples >= 42
        assert rep.max_abs_residual < 1e-11
        assert set(rep.worst_params) == {"x"}

    def test_flagged_but_passing(self):
        rep = verify_entry(catalog_entry("g04-sqrt-phi"))
        assert rep.status == "flagged-but-passing"

    def test_flagged_discrepancy(self):
        rep = verify_entry(catalog_entry("g05-ramanujan-2"))
        assert rep.status == "flagged-discrepancy"
        # measured residual, stable and far from zero
        assert rep.max_abs_residual == pytest.approx(0.76150001, abs=1e-6)

    def test_tol_respected(self):
        # an absurd tolerance turns a holds entry into a fail
        rep = verify_entry(catalog_entry("g03-reflection"), tol=1e-18)
        assert rep.status == "fail"

    def test_entry_tol_overrides_default(self):
        e = catalog_entry("g12-fit-intersections")
        rep = verify_entry(e, tol=1e-12)
        assert rep.tol == e.tol
        assert rep.status == "pass"

    @staticmethod
    def _raising_entry(exc):
        def res():
            raise exc
        return catalog.IdentityEntry("t-raises", "G1", "closed_form", res,
                                     catalog.Anchor("0", "synthetic"))

    def test_contract_error_is_a_failed_sample(self):
        rep = verify_entry(self._raising_entry(ValueError("outside the domain")))
        assert rep.max_abs_residual == math.inf
        assert rep.status == "fail"

    def test_programming_error_propagates(self):
        with pytest.raises(TypeError):
            verify_entry(self._raising_entry(TypeError("bad operand")))

    def test_report_fields(self):
        rep = verify_entry(catalog_entry("g01-total-area"))
        assert dataclasses.asdict(rep).keys() == {
            "id", "group", "samples", "max_abs_residual", "worst_params",
            "status", "tol"}


class TestVerifyAll:
    def test_ordered_by_id(self):
        reports = verify_all()
        ids = [r.id for r in reports]
        assert ids == sorted(ids)
        assert len(reports) == len(builtin_catalog())

    def test_group_filter(self):
        reports = verify_all(group="G3")
        assert len(reports) == 6
        assert all(r.group == "G3" for r in reports)

    def test_filter_naming_nothing_raises(self):
        with pytest.raises(ValueError, match="unknown group: G99"):
            verify_all(group="G99")
        with pytest.raises(ValueError, match="unknown entry id: nope"):
            verify_all(entry_id="nope")
        with pytest.raises(ValueError, match="unknown entry id: g02-five-term in group G1"):
            verify_all(group="G1", entry_id="g02-five-term")

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
    def test_tol_outside_the_positive_reals_raises(self, tol):
        # a tol no residual can meet is a usage error, not a failed entry
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            verify_entry(catalog_entry("g03-reflection"), tol=tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            verify_all(entry_id="g03-reflection", tol=tol)

    def test_id_filter(self):
        reports = verify_all(entry_id="g02-five-term")
        assert [r.id for r in reports] == ["g02-five-term"]

    def test_deterministic_under_seed(self):
        a = verify_all(group="G2", seed=7)
        b = verify_all(group="G2", seed=7)
        assert a == b

    def test_no_failures_at_default_tolerance(self):
        for rep in verify_all():
            assert rep.status != "fail", (rep.id, rep.max_abs_residual)
