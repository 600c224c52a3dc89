"""End-to-end tests of the command-line front end."""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from gemini_dilog import cli


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_li2_above_one_canonical_string(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "li2", "2")
        assert code == 0
        assert out == "2.467401100272340 - 2.177586090303602 i\n"

    def test_li2_half(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "li2", "0.5")
        assert out == "0.582240526465012\n"

    def test_li2c(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "li2c", "0", "1")
        re, _, im = out.strip().rpartition(" + ")
        assert float(re) == pytest.approx(-math.pi ** 2 / 48.0, abs=1e-14)
        assert im.endswith(" i")

    def test_real_functions(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "li3", "1")
        assert float(out) == pytest.approx(1.2020569031595943, abs=1e-14)
        _, out, _ = run_cli(capsys, "eval", "chi2", "1")
        assert float(out) == pytest.approx(math.pi ** 2 / 8.0, abs=1e-14)
        _, out, _ = run_cli(capsys, "eval", "cl2", "0")
        assert float(out) == 0.0
        _, out, _ = run_cli(capsys, "eval", "trigamma", "1")
        assert float(out) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-13)

    def test_unit_circle(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "unit-circle", "1", "3")
        assert out.startswith("0.274155677808038 + ")

    def test_bad_argument_count(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "eval", "li2", "1", "2")
        assert exc.value.code == 2

    def test_unknown_function(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "eval", "li9", "1")
        assert exc.value.code == 2

    def test_unit_circle_q_beyond_binary64(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "unit-circle", "3" + "0" * 320, "1" + "0" * 321)
        assert code == 0
        assert out == run_cli(capsys, "eval", "unit-circle", "3", "10")[1]

    def test_trigamma_overflow_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "eval", "trigamma", "5e-324")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "gemini-dilog: error: trigamma(5e-324) overflows binary64"

    def test_non_numeric_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "eval", "li2", "one")
        assert exc.value.code == 2
        assert capsys.readouterr().err != ""


@pytest.mark.parametrize("argv", [
    ["eval", "li2", "-1e-3"], ["eval", "li2c", "0.5", "-2e-1"], ["area", "-5e-1"],
    ["median", "-5E-1"],
])
def test_negative_scientific_notation_is_a_number(capsys, argv):
    # argparse before Python 3.13 reads -1e-3 as an option; after -- it is
    # always an argument
    code, out, _ = run_cli(capsys, *argv)
    first = next(i for i, arg in enumerate(argv) if arg.startswith("-"))
    assert (code, out) == run_cli(capsys, *argv[:first], "--", *argv[first:])[:2]
    assert out


def test_python_dash_m_runs_main():
    done = subprocess.run([sys.executable, "-m", "gemini_dilog.cli", "eval", "li2", "0.5"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout == "0.582240526465012\n"
    assert done.stderr == ""


_SUBMODULES = ("analysis", "catalog", "cli", "gemini", "geometry", "polylog")

# a bare import loads no submodule; then each one resolves on first access,
# by attribute or by from-import, whichever comes first
_FIRST_ACCESS = """
import sys, gemini_dilog
print(sorted(m for m in sys.modules if m.startswith("gemini_dilog")))
for name in {names!r}:
    if {by_attribute}:
        first = getattr(gemini_dilog, name)
        exec(f"from gemini_dilog import {{name}} as second")
    else:
        exec(f"from gemini_dilog import {{name}} as first")
        second = getattr(gemini_dilog, name)
    assert first is second is sys.modules["gemini_dilog." + name], name
"""


@pytest.mark.parametrize("by_attribute", [True, False])
def test_every_submodule_loads_on_first_access(by_attribute):
    script = _FIRST_ACCESS.format(names=_SUBMODULES, by_attribute=by_attribute)
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "['gemini_dilog']\n", "")


def test_unknown_attribute_of_the_package():
    import gemini_dilog
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        gemini_dilog.nope


# a process compiles every module it imports, so each subcommand loads only
# the modules it runs, and none of them loads numpy
_LOADED = """
import contextlib, io, json, sys
from gemini_dilog import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(json.loads(sys.argv[1]))
print(code, sorted(m[len("gemini_dilog."):] for m in sys.modules
                   if m.startswith("gemini_dilog.")), "numpy" in sys.modules)
"""


@pytest.mark.parametrize("argv, loaded", [
    (["eval", "li2", "0.5"], ["cli", "polylog"]),
    (["area", "1"], ["analysis", "cli", "gemini", "polylog"]),
    (["median", "1.5"], ["analysis", "cli", "gemini", "polylog"]),
    (["volume", "1", "--b", "1.2"], ["analysis", "cli", "gemini", "geometry", "polylog"]),
    (["moment", "2"], ["analysis", "cli", "gemini", "geometry", "polylog"]),
    (["constants", "--format", "json"], ["analysis", "cli", "gemini", "polylog"]),
    (["verify", "--group", "G14"],  # quadrature on [lo, hi] and on [lo, inf)
     ["_sampling", "analysis", "catalog", "cli", "gemini", "geometry", "polylog"]),
    (["plot-data", "atot-p", "--points", "5"],
     ["_sampling", "analysis", "cli", "gemini", "geometry", "polylog"]),
], ids=["eval", "area", "median", "volume", "moment", "constants", "verify", "plot-data"])
def test_subcommand_loads_only_the_modules_it_runs(argv, loaded):
    done = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(argv)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"0 {loaded} False\n", "")


def test_import_leaves_mpmath_out():
    # mpmath is a test oracle only; the package never imports it
    done = subprocess.run([sys.executable, "-c",
                           "import sys, gemini_dilog; print('mpmath' in sys.modules)"],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_import_and_eval_leave_numpy_and_scipy_out():
    done = subprocess.run([sys.executable, "-c",
                           "import sys, gemini_dilog\n"
                           "gemini_dilog.cli.run(['eval', 'li2', '0.5'])\n"
                           "print([m for m in ('numpy', 'scipy') if m in sys.modules])"],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0.582240526465012\n[]\n", "")


_EVERY_SUBCOMMAND = [
    ["eval", "li2", "0.5"], ["eval", "li2c", "0.3", "0.4"], ["area", "0.5"],
    ["median", "1"], ["volume", "2"], ["moment", "1.5"], ["constants"],
    ["plot-data", "r-of-a", "--points", "5"], ["plot-data", "atot-p", "--points", "5"],
    ["plot-data", "geminoid-profile", "--points", "5"], ["verify", "--format", "json"],
]

# runs every argv in-process; prints [exit code, stdout] per argv as JSON
_RUN_ALL = """
import contextlib, io, json, sys
from gemini_dilog import cli
rows = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    rows.append([code, out.getvalue()])
print(json.dumps(rows))
"""


def test_every_subcommand_runs_without_scipy():
    # scipy and numpy are benchmark references only: blocking their import changes no output
    argvs = json.dumps(_EVERY_SUBCOMMAND)
    outputs = []
    for prelude in ("", "import sys; sys.modules['scipy'] = sys.modules['numpy'] = None\n"):
        done = subprocess.run([sys.executable, "-c", prelude + _RUN_ALL, argvs],
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1]
    assert all(code == 0 and out for code, out in outputs[0])


class TestConstants:
    def test_text_table(self, capsys):
        code, out, _ = run_cli(capsys, "constants")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("id")
        assert len(lines) == 28  # header + 27 constants

    def test_json(self, capsys):
        _, out, _ = run_cli(capsys, "constants", "--format", "json")
        rows = json.loads(out)
        by_id = {r["id"]: r for r in rows}
        assert by_id["k0"]["value"] == pytest.approx(1.542007, abs=1e-5)
        assert set(rows[0]) == {"id", "value", "reference", "equation",
                                "provenance"}

    def test_csv_header(self, capsys):
        _, out, _ = run_cli(capsys, "constants", "--format", "csv")
        assert out.splitlines()[0] == "id,value,reference,equation,provenance"


class TestVerify:
    def test_group_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--group", "G3",
                               "--tol", "1e-9")
        assert code == 0
        assert "6 entries: 6 pass" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--group", "G1",
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)
        for r in rows:
            assert set(r) == {"id", "group", "samples", "max_abs_residual",
                              "worst_params", "status", "tol"}

    def test_single_id(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--id", "g02-five-term",
                               "--format", "json")
        assert code == 0
        assert [r["id"] for r in json.loads(out)] == ["g02-five-term"]

    def test_flagged_discrepancy_not_failing(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--id", "g05-ramanujan-2")
        assert code == 0

    def test_strict_trips_on_discrepancy(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--id", "g05-ramanujan-2",
                             "--strict")
        assert code == 1

    def test_unknown_group_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "--group", "G99")
        assert exc.value.code == 2

    def test_unknown_id_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "--id", "nope")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "gemini-dilog: error: unknown entry id: nope"

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_tol_outside_the_positive_reals_is_a_usage_error(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "--id", "g03-reflection", "--tol", tol)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "gemini-dilog: error: tol must be positive and finite, got ")

    def test_byte_identical_reruns(self, capsys):
        _, a, _ = run_cli(capsys, "verify", "--group", "G2", "--seed", "5")
        _, b, _ = run_cli(capsys, "verify", "--group", "G2", "--seed", "5")
        assert a == b


class TestGeometryCommands:
    def test_area(self, capsys):
        code, out, _ = run_cli(capsys, "area", "1")
        assert code == 0
        kv = dict(line.split(" = ") for line in out.splitlines())
        assert float(kv["total"]) == pytest.approx(math.pi ** 2 / 4.0,
                                                   abs=1e-13)
        assert float(kv["middle_square"]) == pytest.approx(
            math.log(1.0 + math.sqrt(2.0)) ** 2, abs=1e-13)

    def test_area_scale(self, capsys):
        _, out1, _ = run_cli(capsys, "area", "1")
        _, out2, _ = run_cli(capsys, "area", "1", "--b", "2")
        t1 = float(out1.splitlines()[0].split(" = ")[1])
        t2 = float(out2.splitlines()[0].split(" = ")[1])
        assert t2 == pytest.approx(4.0 * t1, rel=1e-12)

    def test_median(self, capsys):
        _, out, _ = run_cli(capsys, "median", "1.798533")
        assert float(out) == pytest.approx(math.log(1.798533), abs=1e-5)

    def test_median_of_a_huge_shape_factor(self, capsys):
        # the bracket grows to the root wherever it lies below overflow
        code, out, _ = run_cli(capsys, "median", "1e100")
        assert code == 0
        assert math.isfinite(float(out))

    def test_volume(self, capsys):
        _, out, _ = run_cli(capsys, "volume", "1")
        assert float(out) == pytest.approx(13.217306, abs=1e-5)

    def test_moment(self, capsys):
        _, out, _ = run_cli(capsys, "moment", "1")
        assert float(out) == pytest.approx(1.2020569031595943, abs=1e-13)

    def test_moment_overflow_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "moment", "700")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "gemini-dilog: error: gamma_fn(701.0) overflows binary64"

    def test_volume_nan_names_the_value(self, capsys):
        # nan fails no range test; the finiteness check names it
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "volume", "nan")
        assert exc.value.code == 2
        assert "a=nan" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["area", "1", "--b", "1e200"],
         "area_decomposition(GeminiParams(a=1.0, b=1e+200)) overflows binary64"),
        (["volume", "1", "--b", "1e200"],
         "geminoid_volume(GeminiParams(a=1.0, b=1e+200)) overflows binary64"),
        (["area", "1", "--b", "nan"], "gemini parameters must be finite, got a=1.0, b=nan"),
        (["area", "1", "--b", "-2"], "scale factor must be positive"),
    ])
    def test_bad_or_overflowing_scale_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, *argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"gemini-dilog: error: {message}"

    def test_invalid_shape_factor(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "area", "-2")
        assert exc.value.code == 2


class TestPlotData:
    @pytest.mark.parametrize("series,header", [
        ("r-of-a", "a,r"),
        ("atot-p", "p,A"),
        ("geminoid-profile", "x,kappa1,arc_length,theta,R1,R2,gauss_curvature"),
    ])
    def test_headers_and_shape(self, capsys, series, header):
        code, out, _ = run_cli(capsys, "plot-data", series, "--points", "16")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == header
        assert len(lines) == 17
        for line in lines[1:]:
            assert all(math.isfinite(float(v)) for v in line.split(","))

    def test_too_few_points(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "plot-data", "r-of-a", "--points", "1")
        assert exc.value.code == 2

    def test_too_many_points_allocates_nothing(self, capsys):
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                run_cli(capsys, "plot-data", "r-of-a", "--points", "100000000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        assert "--points must be at most 10000000" in capsys.readouterr().err
        assert peak < 1_000_000

    def test_unknown_series(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "plot-data", "spiral")
        assert exc.value.code == 2


# argv fuzz: floats print with repr, so nan, inf, subnormals, +-1.7e308 and
# forms like -1e-05 reach the parser; unit-circle takes ints up to 10^400
_NUMBER = st.floats().map(repr)
_ARGV = st.one_of(
    st.tuples(st.just("eval"), st.sampled_from(["li2", "li3", "chi2", "cl2", "trigamma"]),
              _NUMBER),
    st.tuples(st.just("eval"), st.just("li2c"), _NUMBER, _NUMBER),
    st.tuples(st.just("eval"), st.just("unit-circle"),
              *[st.integers(-10 ** 400, 10 ** 400).map(str)] * 2),
    st.tuples(st.sampled_from(["area", "volume", "median", "moment"]), _NUMBER),
    st.tuples(st.sampled_from(["area", "volume"]), _NUMBER, st.just("--b"), _NUMBER),
    st.tuples(st.just("verify"), st.just("--id"), st.just("g03-reflection"), st.just("--tol"),
              _NUMBER),
).map(list)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=_ARGV)
def test_argv_fuzz_exit_codes_and_finite_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # usage errors; any other exception fails the test
            code = exc.code
    text = out.getvalue()
    assert code in (0, 1, 2)
    if code == 1:
        # only a verification failure, and a tol outside (0, inf) is a usage error
        assert argv[0] == "verify" and text.splitlines()[-1].endswith(" 1 fail")
        assert 0.0 < float(argv[-1]) < math.inf
    if code == 0:
        assert not re.search(r"\b(nan|inf|infinity)\b", text, re.IGNORECASE), text
