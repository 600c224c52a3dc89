#!/usr/bin/env python3
"""Benchmark of gemini-dilog: cold CLI, catalog verification and polylog kernels.

    python3 bench/run.py --workload cli-cold|verify-sweep|kernel-grid \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` it reports the end-to-end metrics of the workload, with
``--trace 1`` the per-layer metrics from an outside-in traced run (see
``tracer.py``), including the tracing overhead.  Every output is checked
against an independent reference.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the environment, the calibration loop, the tail percentile and
its sample count.

End-to-end metrics:

* ``setup_s``: median over fresh processes of ``import gemini_dilog`` plus one
  warm-up op (for cli-cold: one in-process ``eval``).  Input and reference
  generation is not included.
* ``op_p50_ms``, ``op_tail_ms``: median op latency and the highest percentile
  with at least ten samples beyond it.
* ``ops_per_s``: ops completed per second of op time.
* ``max_rel_err``: worst error of the checked outputs, floored at 2**-53
  (binary64 cannot resolve less).  cli-cold: printed values against mpmath;
  verify-sweep: the ``g05-ramanujan-2`` residual against ln 2 * ln 3;
  kernel-grid: the fixed accuracy grid against mpmath, relative to each
  function's conditioning.
* ``peak_rss_mb``: median over ops of the op process's peak RSS (cli-cold and
  verify-sweep); the benchmark process's own peak RSS (kernel-grid, which runs
  in-process).

Failed ops are counted in ``failed`` of ``attempted``; their ratio is printed
as ``failed_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNIT_ROUNDOFF = 2.0 ** -53


def _calibration_ms() -> float:
    """A fixed pure-Python loop; recorded to show machine drift, never used to
    rescale a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return 1e3 * (time.perf_counter() - t0)


def _environment() -> dict:
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg()}
    for pkg in ("numpy", "scipy", "mpmath"):
        env[pkg] = metadata.version(pkg)
    try:
        with open("/proc/cpuinfo") as f:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in f
                               if ln.startswith("model name")), platform.processor())
    except OSError:
        env["cpu"] = platform.processor()
    return env


def _tail(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)  # every workload runs at least MIN_OPS = 11 ops
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cli-cold", "verify-sweep", "kernel-grid"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "gemini_dilog" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'gemini_dilog'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    env = _environment()
    calib_start = _calibration_ms()
    run = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    calib_end = _calibration_ms()

    lat_ms = [1e3 * s for s in run.latencies_s]
    tail_ms, tail_pct = _tail(lat_ms)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": len(lat_ms), "op_tail_percentile": tail_pct,
        "failed_ratio": run.failed / max(run.attempted, 1),
        "setup_samples_s": run.setup_s,
        "calibration_ms": {"start": calib_start, "end": calib_end},
        "environment": env, **run.detail,
    }
    if args.trace:
        units = layers.PER_LAYER_UNITS
        values = {name: run.layer_metrics.get(name, 0.0) for name in units}
    else:
        units = {name: unit for name, unit, _ in layers.END_TO_END}
        values = {
            "setup_s": statistics.median(run.setup_s),
            "op_p50_ms": statistics.median(lat_ms),
            "op_tail_ms": tail_ms,
            "ops_per_s": len(lat_ms) / sum(run.latencies_s),
            "max_rel_err": max(run.max_err, UNIT_ROUNDOFF),
            "peak_rss_mb": statistics.median(run.rss_mb),
        }
    if args.trace:
        spans_file = ROOT / "bench" / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent"],
                                          "ops": run.spans}))
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    for name, value in values.items():
        print(f"{args.workload:12s} {name:42s} {value:.6g} {units[name]}")
    print(f"{args.workload:12s} {'failed_ratio':42s} {detail['failed_ratio']:.6g} ratio")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
