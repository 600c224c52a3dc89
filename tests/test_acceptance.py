"""Acceptance gate: spot targets, tolerances and runtime budgets.

Each test pins the tolerance it claims; none of the bounds here may be
loosened without an entry in the decision ledger.
"""

import math
import time

import pytest

from gemini_dilog import catalog, gemini, geometry
from gemini_dilog._sampling import geomspace
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
    a_grid = [-1.0, -0.999] + [g - 1.0 for g in geomspace(1e-3, 21.0, 30)]
    x_grid = [1.001, 50.0] + list(geomspace(1.002, 49.0, 30))
    assert len(a_grid) == 32 and len(x_grid) == 32
    with Budget(30.0):
        worst = 0.0
        for a in a_grid:
            for x in x_grid:
                worst = max(worst, abs(catalog.residual(entry, (a, x))))
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


# Property-test points, pinned: 64 and 48 log-spaced points on [1e-2, 15]
# and [0.05, 8] (geomspace would move 4 and 1 of them by 1 ulp), and 64
# seeded points of the upper half-plane
_SELF_INVERSE_X = (
    0.01, 0.011230889311182062, 0.012613287472002355, 0.014165843544817784,
    0.015909502085137153, 0.017867785691419558, 0.02006711233362557, 0.022537151741400523,
    0.025311225659698334, 0.02842675737144233, 0.03192577655144975, 0.03585548626228639,
    0.040268899741034765, 0.04522555556746497, 0.05079232086149127, 0.05704429334534519,
    0.06406581443961713, 0.07195160706020698, 0.08080805346548507, 0.09075463039229449,
    0.10192552084130987, 0.11447142425533322, 0.12856158951050087, 0.144386098146206,
    0.16215842863535102, 0.18211833628788426, 0.20453508763858605, 0.22971109295218825,
    0.257985985849668, 0.2897412050913804, 0.32540514032697937, 0.36545891123019736,
    0.4104428579811457, 0.4609638306551466, 0.5177033758546427, 0.5814269310248776,
    0.6529941504880691, 0.7333705024980866, 0.8236402937641978, 0.9250212971495186,
    1.0388811798772295, 1.1667559538671386, 1.3103706971044489, 1.4716628255796542,
    1.6528082297466529, 1.856250628089543, 2.0847345337885836, 2.3413422792178347,
    2.6295355977486223, 2.9532023238127736, 3.3167088412266903, 3.7249589873235878,
    4.183460207532408, 4.698397852853121, 5.276718622528887, 5.9262242775875,
    6.65567688948251, 7.474917043677066, 8.394996592780538, 9.428327750126876,
    10.588850535122114, 11.892220829260742, 13.356021579756126, 15.0,
)
_DERIVATIVE_X = (
    0.05, 0.055701408119125065, 0.06205293732906664, 0.0691287197431366,
    0.07701134062330141, 0.08579280227718936, 0.09557559786650253, 0.10647390765982875,
    0.11861493169196316, 0.13214037438392362, 0.14720809845145819, 0.16399396740570032,
    0.18269389815078813, 0.20352614763541838, 0.22673386024707481, 0.2525879056809396,
    0.28139004040578175, 0.31347642962599087, 0.34922157084647004, 0.3890426648344235,
    0.43340448499388423, 0.4828248019860712, 0.5378804269092381, 0.5992139435712136,
    0.667541208430611, 0.7436597057425479, 0.8284578554262825, 0.9229253822918895,
    1.0281648676508013, 1.1454046181352693, 1.2760130019256648, 1.4215144197114278,
    1.5836070967913496, 1.7641829039743553, 1.965349438621176, 2.1894546235466295,
    2.439114110889522, 2.7172418107954828, 3.0270839012293926, 3.3722567158642334,
    3.756788952256281, 4.185168692940948, 4.662395788257777, 5.194040212292726,
    5.786307073041286, 6.446109035561051, 7.1811470034033125, 8.0,
)
_CONJUGATION_Z = (
    (0.8217701239287258+0.8166622741539723j), (-2.7541588563828316+0.059417630230302j),
    (1.879621435201635+2.739139176060388j), (0.6398146546030792+2.1911947173421553j),
    (0.261749948792537+2.805866547125427j), (1.8951213247291925+0.018188115508742803j),
    (2.1444256595254156+0.11042087016333842j), (1.3779326785796648+0.5352103056016515j),
    (2.1790735340993193+1.6289690485447843j), (-1.2017286567756913+1.2738347913809989j),
    (-2.830081973127222+0.38160699673369625j), (1.0237464881617822+1.945096639607008j),
    (0.6923106688875231+1.1571958872430315j), (2.9832596147352657+2.942697662940928j),
    (1.1132519068841678+1.9548732360407708j), (1.1306803834256405+1.1728750576975204j),
    (-2.189420969865533+2.167250137180304j), (0.15212593485435555+0.9376232079212775j),
    (-0.08498784700926532+2.6695686247035106j), (2.604261095737498+1.07980763816012j),
    (0.4291789843785656+0.9723894793170671j), (0.5658001811981808+1.0203545642663285j),
    (-0.6502859968310326+2.671920312494329j), (-1.6370544387997217+1.873329562611267j),
    (-2.495907938505691+2.4996060014836594j), (1.7225898449321004+0.725714634548927j),
    (2.2589053848642227+0.18511842406753112j), (-0.9832976367260375+0.45933560601556883j),
    (-0.29796380010427814+2.3910095681590096j), (-1.6161467460375154+0.16554369018258475j),
    (-0.5726889610708308+0.6035540030826735j), (-2.4554817262852686+1.7451938341006836j),
    (-1.2078232030864644+2.0192646850895146j), (-1.8029073361907202+2.8269182004144287j),
    (-0.8093389905310286+0.3254308859149863j), (0.7746489092382554+2.7821921136729237j),
    (-0.3577370717052961+2.864225576135304j), (-0.0006251178741178975+1.281433588298736j),
    (0.7212807120922671+2.985338550653619j), (2.6936620496265924+1.3855349665341974j),
    (1.5463730718497484+1.4972938595079808j), (0.17587296118062223+2.3594992451342844j),
    (-0.5120649038659755+2.206105879648301j), (1.2668572679384988+2.7968584629740008j),
    (-2.3104042003145686+2.189755200058165j), (2.5645435717473593+2.904099307874693j),
    (-2.9117621702077843+2.5922838698342714j), (2.8871702403980652+2.872058437036781j),
    (-2.1074159266050128+2.918160153330635j), (2.339613334323124+2.4688977443537805j),
    (-0.12007245715300696+0.7047950297215185j), (1.8112834723098477+2.771355177752574j),
    (-1.4032183662462445+1.621413878790339j), (-0.343483026152811+2.7937417747836535j),
    (-2.756935732869392+2.198698525013117j), (0.6862394816939799+0.09481244168942796j),
    (1.3153186369604422+0.05781527127548021j), (1.5477060141385683+1.5431485825536135j),
    (2.574625324782037+0.20758666520498348j), (2.0479036776742996+0.20940312621363322j),
    (-0.9341401271752492+1.2965932085240217j), (2.7963724847044213+1.6910732082630866j),
    (-1.4468124409744065+0.7326103851420915j), (2.3287099239550795+0.6853495909677999j),
)


class TestCriterion9Properties:
    def test_self_inverse(self):
        for a in (-0.999, -0.5, 0.0, 1.0, 10.0):
            p = GeminiParams(a)
            n = 0
            for x in _SELF_INVERSE_X:
                y = gemini.value(p, x)
                if y <= 1e-8:
                    continue
                assert gemini.value(p, y) == pytest.approx(x, rel=1e-9, abs=1e-10)
                n += 1
            assert n >= 42

    def test_derivative_consistency(self):
        h = 1e-6
        for a in (-0.5, 0.0, 1.0, 5.0):
            p = GeminiParams(a)
            for x in _DERIVATIVE_X:
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
        for z in _CONJUGATION_Z:
            assert abs(li2_complex(z.conjugate())
                       - li2_complex(z).conjugate()) < 5e-14

    def test_determinism(self):
        assert catalog.verify_all(seed=11) == catalog.verify_all(seed=11)
