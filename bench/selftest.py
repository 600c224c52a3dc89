#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

Checks seed discipline (byte-identical inputs for one seed, across processes
and hash seeds; different inputs for another seed), that BENCHMARK.json
names exactly the metrics the code reports, that the tracer sees every layer
on verify-sweep and no ``analysis`` call on kernel-grid, that traced counts
repeat exactly, that the output checks reject wrong output, and that the
benchmark fails without printing a result when the program is missing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
import refs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _plain(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    return obj


def inputs_digest(seed: int) -> str:
    """SHA-256 of every generated input of every workload for ``seed``."""
    batches = inputs.kernel_batches(seed)
    blob = json.dumps(_plain({
        "cli-cold": inputs.cli_ops(seed, 200),
        "verify-sweep": inputs.verify_seeds(seed, 200),
        "kernel-grid": batches,
        "mpmath-subset": inputs.mpmath_subset(seed, batches),
        "accuracy-grid": inputs.accuracy_grid(),
    }))  # json writes floats with repr, so -0.0 and every digit survive
    return hashlib.sha256(blob.encode()).hexdigest()


def check_seed_discipline() -> None:
    here = inputs_digest(7)
    assert here == inputs_digest(7), "same seed, same process: inputs differ"
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        other = subprocess.run(
            [sys.executable, "-c",
             "import selftest; print(selftest.inputs_digest(7))"],
            cwd=BENCH_DIR, env=env, capture_output=True, text=True, check=True).stdout.strip()
        assert other == here, f"same seed, PYTHONHASHSEED={hash_seed}: inputs differ"
    assert inputs_digest(8) != here, "different seeds gave the same inputs"
    assert inputs.cli_first_block(7) == inputs.cli_ops(7, len(inputs.cli_first_block(7)))
    assert {a[0] for a in inputs.cli_first_block(7)} == set(inputs.CLI_SUBCOMMANDS)


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert e2e == list(layers.END_TO_END), "BENCHMARK.json end_to_end differs from layers.py"
    per = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per == list(layers.PER_LAYER), "BENCHMARK.json per_layer differs from layers.py"
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def check_tracer() -> None:
    import gemini_dilog  # noqa: F401  (the forked children inherit it)

    seed = inputs.verify_seeds(3, 2)[1]
    first, _ = workloads.forked(workloads._verify_op(seed, True))
    second, _ = workloads.forked(workloads._verify_op(seed, True))
    calls = layers.layer_calls(first["trace"])
    for layer in ("catalog", "analysis", "gemini", "geometry", "polylog"):
        assert calls.get(layer, 0) > 0, f"verify-sweep: no {layer} calls traced"
    for summary in (first["trace"], second["trace"]):
        for agg in summary["spans"].values():
            agg.pop("self_ns"), agg.pop("total_ns")
        summary.pop("group_ns")
    assert first["trace"] == second["trace"], "traced counts differ between identical ops"
    assert first["trace"]["spans"]["analysis.fallback"]["calls"] > 0

    import mpmath
    import scipy.integrate
    from gemini_dilog import polylog

    originals = (mpmath.quad, scipy.integrate.quad, polylog.li2_real)
    tr = tracer.Tracer()
    wrapped = tr.install()
    try:
        batch = inputs.kernel_batch(3, 0)
        for fn, pts in batch.items():
            for _, a in pts:
                wrapped[f"polylog.{fn}"](a)
        assert polylog.li2_real is not wrapped["polylog.li2_real"], "wrapped in its own module"
    finally:
        tr.uninstall()
    calls = layers.layer_calls(tr.summary())
    assert calls.get("polylog", 0) == sum(len(p) for p in batch.values())
    assert set(calls) == {"polylog"}, f"kernel-grid touched other layers: {calls}"
    assert (mpmath.quad, scipy.integrate.quad, polylog.li2_real) == originals, \
        "uninstall left a wrapper behind"


def check_output_checks() -> None:
    from gemini_dilog import cli

    checker = refs.CliChecker()
    for argv in inputs.cli_first_block(5):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.run(argv)
        checker.check(argv, buf.getvalue())
        if argv[0] in ("eval", "median", "moment", "volume"):
            bad = buf.getvalue().replace(buf.getvalue().split()[0],
                                         repr(float(buf.getvalue().split()[0]) + 1e-9), 1)
            try:
                checker.check(argv, bad)
            except ValueError:
                continue
            raise AssertionError(f"wrong output for {argv} passed the check")
    try:
        refs.check_statuses({"g05-ramanujan-2": "pass"}, {})
    except ValueError:
        pass
    else:
        raise AssertionError("a wrong status table passed the check")


def check_missing_program() -> None:
    out = BENCH_DIR / "out" / "no-program"
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(BENCH_DIR, out / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", out)
    try:
        p = subprocess.run([sys.executable, "bench/run.py", "--workload", "kernel-grid",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=out, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(out)
    assert p.returncode != 0 and not p.stdout.strip(), "ran without the program"


def main() -> int:
    for check in (check_seed_discipline, check_benchmark_json, check_tracer,
                  check_output_checks, check_missing_program):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
