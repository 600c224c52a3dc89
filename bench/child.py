"""Subprocess entry points of the benchmark.

``python3 bench/child.py cli <argv...>``
    One traced cold CLI run: times ``import gemini_dilog``, installs the
    tracer, runs ``cli.run(argv)`` with stdout untouched, and writes its
    timings and trace summary as the last line of stderr.

``python3 bench/child.py setup <workload> <seed>``
    One set-up probe in a fresh interpreter: the time of ``import
    gemini_dilog`` plus one warm-up op, printed as JSON.  Input generation is
    not timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def traced_cli(argv: list) -> int:
    t0 = time.perf_counter()
    from gemini_dilog import cli
    import_ms = 1e3 * (time.perf_counter() - t0)

    import tracer

    t0 = time.perf_counter()
    tr = tracer.Tracer()
    tr.install()
    install_ms = 1e3 * (time.perf_counter() - t0)
    t0 = time.perf_counter()
    try:
        code = cli.run(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    run_ms = 1e3 * (time.perf_counter() - t0)
    sys.stdout.flush()
    print(json.dumps({"import_ms": import_ms, "install_ms": install_ms, "run_ms": run_ms,
                      "trace": tr.summary(), "spans": tr.export()}), file=sys.stderr)
    return code


def setup_probe(workload: str, seed: int) -> None:
    import inputs

    if workload == "cli-cold":
        argv = next(a for a in inputs.cli_ops(seed, 64) if a[0] == "eval")
    elif workload == "verify-sweep":
        verify_seed = inputs.verify_seeds(seed, 1)[0]
    else:
        batch = inputs.kernel_batch(seed, 0)
        args = {fn: [a for _, a in pts] for fn, pts in batch.items()}

    t0 = time.perf_counter()
    import gemini_dilog
    import_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    if workload == "cli-cold":
        with contextlib.redirect_stdout(io.StringIO()):
            gemini_dilog.cli.run(argv)
    elif workload == "verify-sweep":
        gemini_dilog.catalog.verify_all(seed=verify_seed)
    else:
        for fn, xs in args.items():
            f = getattr(gemini_dilog.polylog, fn)
            for x in xs:
                f(x)
    warmup_s = time.perf_counter() - t0
    print(json.dumps({"import_s": import_s, "warmup_s": warmup_s}))


if __name__ == "__main__":
    if sys.argv[1] == "cli":
        sys.exit(traced_cli(sys.argv[2:]))
    setup_probe(sys.argv[2], int(sys.argv[3]))
