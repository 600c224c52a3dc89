"""The three workloads.  Each is a closed loop with one client.

* ``cli-cold``: every op spawns one fresh CLI process and waits for it to
  exit.  Interpreter start and ``import gemini_dilog`` dominate, so start-up
  and import changes show here and in-process kernel changes barely do.
* ``verify-sweep``: every op is one full ``catalog.verify_all(seed=s_k)`` in a
  child forked from a parent that has only imported ``gemini_dilog``, so no
  cache filled by one op (``catalog._const``, mpmath's quadrature nodes)
  serves the next -- ``gemini-dilog verify`` pays those fills on every run.
  Quadrature, fallbacks and root solves dominate; polylog calls come clustered
  inside integrands and root brackets.
* ``kernel-grid``: every op is one fixed-size batch of seeded points sent
  through the public polylog functions, warm and in-process.  It runs only the
  polylog layer, at spread-out points across every reduction branch.

Each runner returns a ``Run``: untraced op latencies, set-up samples, failure
counts, the worst checked error and peak RSS; with tracing, the per-layer
metrics as well.
"""

from __future__ import annotations

import json
import os
import resource
import selectors
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import layers
import refs
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
MIN_OPS = 11  # a tail percentile needs ten samples beyond it
VERIFY_TRACED_OPS = 8
CLI_MAIN = "from gemini_dilog.cli import main; main()"


@dataclass
class Run:
    latencies_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    max_err: float = 0.0
    rss_mb: list = field(default_factory=list)
    layer_metrics: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)  # per traced op, see Tracer.export
    detail: dict = field(default_factory=dict)

    def record(self, latency_s: float, error: float = None, message: str = "") -> None:
        """One untraced op; ``error`` is its worst checked error, None if it failed."""
        self.latencies_s.append(latency_s)
        if self.tally(error, message):
            self.max_err = max(self.max_err, error)

    def tally(self, error, message: str) -> bool:
        """Count one op as attempted, and as failed when ``error`` is None."""
        self.attempted += 1
        if error is None:
            self.failed += 1
            if self.failed <= 5:
                print(f"op failed: {message}", file=sys.stderr)
        return error is not None


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("GEMINI_DILOG_SEED", None)  # it would override the generated --seed
    return env


def spawn(cmd: list) -> tuple:
    """Run ``cmd`` to completion: (wall s, exit code, stdout, stderr, peak RSS MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(chunks[f]).decode() for f in (proc.stdout, proc.stderr))
    return wall, proc.returncode, out, err, usage.ru_maxrss / 1024.0


def forked(fn) -> tuple:
    """Run ``fn()`` in a forked child: (its JSON result or None, peak RSS MB)."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # child: never return into the parent's code
        os.close(read_fd)
        code = 0
        try:
            payload = json.dumps(fn())
        except BaseException:
            payload, code = json.dumps({"error": traceback.format_exc()}), 1
        with os.fdopen(write_fd, "w") as f:
            f.write(payload)
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as f:
        data = f.read()
    _, status, usage = os.wait4(pid, 0)
    result = json.loads(data) if data else None
    if os.waitstatus_to_exitcode(status) != 0 and result is not None:
        print(result.get("error", ""), file=sys.stderr)
        result = None
    return result, usage.ru_maxrss / 1024.0


def setup_samples(workload: str, seed: int) -> list:
    """Set-up time (import + warm-up op) of fresh processes, in seconds."""
    out = []
    for _ in range(SETUP_PROBES):
        _, code, stdout, stderr, _ = spawn(
            [sys.executable, str(BENCH_DIR / "child.py"), "setup", workload, str(seed)])
        if code != 0:
            raise RuntimeError(f"set-up probe failed:\n{stderr}")
        probe = json.loads(stdout.strip().splitlines()[-1])
        out.append(probe["import_s"] + probe["warmup_s"])
    return out


def _loop(seconds: float, op) -> None:
    """Run ``op(k)`` for k = 0, 1, ... until ``seconds`` pass and MIN_OPS ran."""
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_OPS or time.perf_counter() < deadline:
        op(k)
        k += 1


# -- cli-cold ------------------------------------------------------------------

def _interp_start_ms() -> float:
    return 1e3 * statistics.median(
        spawn([sys.executable, "-c", "pass"])[0] for _ in range(SETUP_PROBES))


def _importtime_ms() -> dict:
    """Self time of ``import gemini_dilog`` attributed to scipy, numpy, mpmath
    and the rest (``-X importtime``; each line's self time goes to its nearest
    ancestor-or-self among those packages)."""
    _, code, _, err, _ = spawn([sys.executable, "-X", "importtime", "-c", "import gemini_dilog"])
    if code != 0:
        raise RuntimeError(err)
    tracked = layers.IMPORT_PACKAGES + ("gemini_dilog",)
    totals = dict.fromkeys(tracked, 0.0)
    pending: list = []  # post-order: (depth, self_us, package, children)
    for line in err.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        pkg = name.strip().split(".")[0]
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, int(self_us), pkg if pkg in tracked else None, children))
    stack = [(node, None) for node in pending]
    while stack:
        (_, self_us, pkg, children), owner = stack.pop()
        owner = pkg or owner
        if owner is not None:
            totals[owner] += self_us / 1e3
        stack.extend((c, owner) for c in children)
    return totals


def cli_cold(seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    checker = refs.CliChecker()
    ops = inputs.cli_ops(seed, 64)

    def argv(k):
        while k >= len(ops):
            ops.extend(inputs.cli_ops(seed, 2 * len(ops))[len(ops):])
        return ops[k]

    def untraced(k):
        a = argv(k)
        wall, code, out, err, rss = spawn([sys.executable, "-c", CLI_MAIN, *a])
        run.rss_mb.append(rss)
        run.record(wall, *_cli_check(checker, a, code, out, err))

    if not trace:
        run.setup_s = setup_samples("cli-cold", seed)
        _loop(seconds, untraced)
        return run

    _loop(seconds / 2.0, untraced)
    interp_ms = _interp_start_ms()
    traced_lat, import_ms, other_ms, summaries = [], [], [], []
    run_ms: dict = {c: [] for c in inputs.CLI_SUBCOMMANDS}
    for a in inputs.cli_first_block(seed):
        wall, code, out, err, _ = spawn(
            [sys.executable, str(BENCH_DIR / "child.py"), "cli", *a])
        lines = err.splitlines()
        stats = json.loads(lines.pop()) if lines and lines[-1].startswith("{") else None
        error, message = _cli_check(checker, a, code, out, "\n".join(lines))
        if stats is None:
            error, message = None, f"no trace from {a}: {err[-2000:]}"
        if not run.tally(error, message):
            continue
        traced_lat.append(wall)
        import_ms.append(stats["import_ms"])
        run_ms[a[0]].append(stats["run_ms"])
        other_ms.append(1e3 * wall - interp_ms - stats["import_ms"] - stats["run_ms"]
                        - stats["install_ms"])
        summaries.append(stats["trace"])
        run.spans.append(stats["spans"])
    m = layers.from_trace(tracer.merge(summaries), max(len(summaries), 1))
    m["cli.interp_start_ms"] = interp_ms
    m["cli.import_ms"] = _median(import_ms)
    for pkg, ms in _importtime_ms().items():
        m["cli.import.gemini_dilog_self_ms" if pkg == "gemini_dilog"
          else f"cli.import.{pkg}_ms"] = ms
    for c, vals in run_ms.items():
        m[f"cli.run_ms.{c}"] = _median(vals)
    m["cli.other_ms"] = _median(other_ms)
    m["trace.overhead_ms"] = 1e3 * (_median(traced_lat) - statistics.median(run.latencies_s))
    run.layer_metrics = m
    return run


def _cli_check(checker, argv: list, code: int, out: str, err: str) -> tuple:
    if code != 0:
        return None, f"{argv}: exit {code}: {err[-2000:]}"
    try:
        return checker.check(argv, out), ""
    except Exception as exc:  # any malformed output is one failed op
        return None, f"{argv}: {exc!r}"


# -- verify-sweep --------------------------------------------------------------

def _verify_op(verify_seed: int, trace: bool, keep_spans: bool = False):
    def op():
        from gemini_dilog import catalog

        verify_all, tr = catalog.verify_all, None
        if trace:
            tr = tracer.Tracer()
            verify_all = tr.install()["catalog.verify_all"]
        t0 = time.perf_counter()
        reports = verify_all(seed=verify_seed)
        elapsed = time.perf_counter() - t0
        return {
            "s": elapsed,
            "status": {r.id: r.status for r in reports},
            "residual": {r.id: r.max_abs_residual for r in reports
                         if r.id == refs.DISCREPANCY},
            "trace": tr.summary() if tr else None,
            "spans": tr.export() if keep_spans else None,
        }
    return op


def _verify_check(result: dict) -> tuple:
    try:
        if len(result["status"]) != refs.CATALOG_SIZE:
            raise ValueError(f"{len(result['status'])} catalog entries")
        return refs.check_statuses(result["status"], result["residual"]), ""
    except ValueError as exc:
        return None, str(exc)


def verify_sweep(seed: int, seconds: float, trace: bool) -> Run:
    import gemini_dilog  # noqa: F401  (forked children inherit the import)

    run = Run()
    seeds = inputs.verify_seeds(seed, 4096)
    if not trace:
        run.setup_s = setup_samples("verify-sweep", seed)

    def untraced(k):
        result, rss = forked(_verify_op(seeds[k + 1], False))
        if result is None:
            run.record(0.0, None, f"verify_all(seed={seeds[k + 1]}) crashed")
            return
        run.rss_mb.append(rss)
        run.record(result["s"], *_verify_check(result))

    _loop(seconds / 2.0 if trace else seconds, untraced)
    if trace:
        traced_lat, summaries = [], []
        for k, s in enumerate(seeds[1:1 + VERIFY_TRACED_OPS]):
            # the spans of one op are enough to read; the metrics use them all
            result, _ = forked(_verify_op(s, True, keep_spans=k == 0))
            error, message = (None, "crashed") if result is None else _verify_check(result)
            if not run.tally(error, message):
                continue
            traced_lat.append(result["s"])
            summaries.append(result["trace"])
            if result["spans"]:
                run.spans.append(result["spans"])
        merged = tracer.merge(summaries)
        run.detail["layer_calls"] = layers.layer_calls(merged)
        m = layers.from_trace(merged, max(len(summaries), 1))
        m["trace.overhead_ms"] = 1e3 * (_median(traced_lat)
                                        - statistics.median(run.latencies_s))
        run.layer_metrics = m
    return run


# -- kernel-grid ---------------------------------------------------------------

class KernelGrid:
    """Seeded batches, their references, and one op per batch."""

    def __init__(self, seed: int):
        import numpy as np

        self.batches = inputs.kernel_batches(seed)
        self.args = [{fn: [a for _, a in pts] for fn, pts in b.items()} for b in self.batches]
        self.spence = [{fn: refs.spence_ref(fn, np.array(a)) for fn, a in b.items()}
                       for b in self.args]
        self.mp = {}
        for b, fn, i in inputs.mpmath_subset(seed, self.batches):
            self.mp.setdefault((b, fn), []).append(
                (i, *refs.kernel_ref(fn, self.args[b][fn][i])))

    def run(self, k: int, fns: dict) -> tuple:
        """Op k: (latency s, outputs)."""
        args = self.args[k % len(self.args)]
        t0 = time.perf_counter()
        out = {fn: [f(a) for a in args[fn]] for fn, f in fns.items()}
        return time.perf_counter() - t0, out

    def check(self, k: int, out: dict) -> tuple:
        """Op k's outputs against spence (every point) and mpmath (the seeded
        subset): (0.0, "") if all hold, else (None, message)."""
        import numpy as np

        b = k % len(self.args)
        for fn, values in out.items():
            ref = self.spence[b][fn]
            if ref is not None:
                errs = refs.spence_errors(np.array(values, dtype=ref.dtype), ref)
                if not errs.max() <= refs.SPENCE_TOL:
                    i = int(np.argmax(errs))
                    return None, f"{fn}({self.args[b][fn][i]!r}) off spence by {errs[i]:.3e}"
            for i, value, scale in self.mp[(b, fn)]:
                err = abs(complex(values[i]) - value) / scale
                if not err <= refs.TOL:
                    return None, f"{fn}({self.args[b][fn][i]!r}) off mpmath by {err:.3e}"
        return 0.0, ""

    @staticmethod
    def accuracy(fns: dict) -> float:
        """Worst conditioning-relative error over the fixed accuracy grid."""
        worst = 0.0
        for fn, arg in inputs.accuracy_grid():
            value, scale = refs.kernel_ref(fn, arg)
            worst = max(worst, abs(complex(fns[fn](arg)) - value) / scale)
        return worst

    def branch_ns(self, fns: dict) -> dict:
        """Untraced ns per call for every reduction branch: the median of
        five passes over the branch's first 2000 points."""
        by_branch: dict = {}
        for batch in self.batches:
            for fn in ("li2_real", "li2_complex", "li3_real"):
                for branch, a in batch[fn]:
                    by_branch.setdefault((fn, branch), []).append(a)
        out = {}
        for (fn, branch), args in by_branch.items():
            f, times, args = fns[fn], [], args[:2000]
            for _ in range(5):
                t0 = time.perf_counter_ns()
                for a in args:
                    f(a)
                times.append((time.perf_counter_ns() - t0) / len(args))
            out[f"polylog.{fn}.ns.{branch}"] = statistics.median(times)
        return out


def kernel_grid(seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    if not trace:
        run.setup_s = setup_samples("kernel-grid", seed)
    from gemini_dilog import polylog

    grid = KernelGrid(seed)
    fns = {fn: getattr(polylog, fn) for fn in inputs.KERNEL_FNS}
    grid.run(0, fns)  # warm-up op; its cost is in setup_s

    def untraced(k):
        latency, out = grid.run(k, fns)
        run.record(latency, *grid.check(k, out))

    _loop(seconds / 2.0 if trace else seconds, untraced)
    run.rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if not trace:
        run.max_err = grid.accuracy(fns)
        return run
    m = grid.branch_ns(fns)
    tr = tracer.Tracer()
    wrapped = tr.install()
    traced_fns = {fn: wrapped[f"polylog.{fn}"] for fn in inputs.KERNEL_FNS}
    traced_lat = []
    try:
        for k in range(len(grid.args)):
            latency, out = grid.run(k, traced_fns)
            run.tally(*grid.check(k, out))
            traced_lat.append(latency)
    finally:
        tr.uninstall()
    m.update(layers.from_trace(tr.summary(), len(grid.args)))
    m["trace.overhead_ms"] = 1e3 * (_median(traced_lat) - statistics.median(run.latencies_s))
    run.detail["layer_calls"] = layers.layer_calls(tr.summary())
    run.spans.append(tr.export())
    run.layer_metrics = m
    return run


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


WORKLOADS = {"cli-cold": cli_cold, "verify-sweep": verify_sweep, "kernel-grid": kernel_grid}
