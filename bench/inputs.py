"""Seeded input generation for the three benchmark workloads.

Every input is drawn from ``random.Random`` seeded with a string that names
the workload and the benchmark seed, so the same seed gives byte-identical
inputs in any process.  The program under test only ever receives what these
functions return: CLI argv lists, point lists and ``verify_all`` seeds.
"""

from __future__ import annotations

import math
import random

# Real reduction branches of li2_real, as half-open ranges of x.
LI2_REAL_BRANCHES = {
    "x_gt_2": (2.0, 1e3),
    "x_1_2": (1.0, 2.0),
    "x_half_1": (0.5, 1.0),
    "x_taylor": (-0.5, 0.5),
    "x_landen": (-1.0, -0.5),
    "x_lt_m1": (-1e3, -1.0),
}
# Regions of li2_complex: |z| <= 1/2 (Taylor), 1/2 < |z| <= 1 with
# Re z <= 1/2 (Bernoulli), |z| <= 1 with Re z > 1/2 (reflection), |z| > 1.
LI2_COMPLEX_REGIONS = ("taylor", "bernoulli", "reflection", "inversion")
LI3_BRANCHES = {
    "x_lt_m1": (-1e3, -1.0),
    "x_dup": (-1.0, -0.5),
    "x_taylor": (-0.5, 0.5),
    "x_refl": (0.5, 1.0),
}
KERNEL_FNS = ("li2_real", "li2_complex", "li3_real", "clausen_cl2", "chi2", "trigamma")

GROUPS = tuple(f"G{k}" for k in range(1, 15))
EVAL_FNS = ("li2", "li2c", "li3", "chi2", "cl2", "trigamma", "unit-circle")
CLI_SUBCOMMANDS = ("eval", "area", "median", "volume", "moment", "constants", "verify")


def _rng(workload: str, seed: int, stream: str = "") -> random.Random:
    return random.Random(f"gemini-dilog-bench/{workload}/{seed}/{stream}")


def _span(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform on [lo, hi], or log-uniform in |x| when the range spans decades."""
    if lo > 0.0 and hi / lo > 100.0:
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))
    if hi < 0.0 and lo / hi > 100.0:
        return -math.exp(rng.uniform(math.log(-hi), math.log(-lo)))
    return rng.uniform(lo, hi)


def li2_real_point(rng: random.Random, branch: str) -> float:
    lo, hi = LI2_REAL_BRANCHES[branch]
    return _span(rng, lo, hi)


def li3_point(rng: random.Random, branch: str) -> float:
    lo, hi = LI3_BRANCHES[branch]
    return _span(rng, lo, hi)


def li2_complex_point(rng: random.Random, region: str) -> complex:
    """A point of one li2_complex region.

    A quarter of the points sit on the delicate sets: the unit circle
    (|z| within 1e-9 of 1), the neighbourhood of z = 1, and the real axis
    with a +0.0 or -0.0 imaginary part.
    """
    special = rng.random() < 0.25
    if region == "taylor":
        r, t = rng.uniform(1e-3, 0.5), rng.uniform(-math.pi, math.pi)
        if special:
            return complex(rng.uniform(-0.5, 0.5), rng.choice((0.0, -0.0)))
        return complex(r * math.cos(t), r * math.sin(t))
    if region == "bernoulli":
        while True:
            r = 1.0 - rng.uniform(0.0, 1e-9) if special else rng.uniform(0.5, 1.0)
            t = rng.uniform(-math.pi, math.pi)
            z = complex(r * math.cos(t), r * math.sin(t))
            if z.real <= 0.5 and abs(z) > 0.5 and z.imag != 0.0:
                return z
    if region == "reflection":
        while True:
            if special:
                z = 1.0 + complex(_signed_log(rng, 1e-8, 1e-2), _signed_log(rng, 1e-8, 1e-2))
            else:
                r, t = rng.uniform(0.5, 1.0), rng.uniform(-math.pi / 3.0, math.pi / 3.0)
                z = complex(r * math.cos(t), r * math.sin(t))
            if z.real > 0.5 and abs(z) <= 1.0 and z.imag != 0.0:
                return z
    # inversion
    if special:
        if rng.random() < 0.5:
            return complex(_span(rng, 1.0 + 1e-9, 1e3), rng.choice((0.0, -0.0)))
        r, t = 1.0 + rng.uniform(1e-12, 1e-9), rng.uniform(-math.pi, math.pi)
    else:
        r, t = _span(rng, 1.0 + 1e-6, 1e3), rng.uniform(-math.pi, math.pi)
    return complex(r * math.cos(t), r * math.sin(t))


def _signed_log(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * _span(rng, lo, hi)


# -- kernel-grid -------------------------------------------------------------

# Points of one batch, per function and branch.  A batch is ~14k calls, so one
# op takes ~0.2 s: the tail percentile then sits near p94 and reads the
# machine's slow spells, which span several ops, rather than single hiccups.
_PER_LI2_BRANCH = 900
_PER_LI2C_REGION = 750
_PER_LI3_BRANCH = 600
_PER_OTHER = 1200
KERNEL_BATCHES = 8
MPMATH_PER_FN = 8  # seeded points per function and batch checked against mpmath
ACCURACY_PER_BRANCH = 32


def kernel_batch(seed: int, index: int) -> dict:
    """One kernel-grid batch: ``{fn: [(branch, arg), ...]}`` in call order."""
    rng = _rng("kernel-grid", seed, f"batch{index}")
    batch = {
        "li2_real": [(b, li2_real_point(rng, b))
                     for b in LI2_REAL_BRANCHES for _ in range(_PER_LI2_BRANCH)],
        "li2_complex": [(r, li2_complex_point(rng, r))
                        for r in LI2_COMPLEX_REGIONS for _ in range(_PER_LI2C_REGION)],
        "li3_real": [(b, li3_point(rng, b))
                     for b in LI3_BRANCHES for _ in range(_PER_LI3_BRANCH)],
        "clausen_cl2": [("all", rng.uniform(-4.0 * math.pi, 4.0 * math.pi))
                        for _ in range(_PER_OTHER)],
        "chi2": [("all", rng.uniform(-1.0, 1.0)) for _ in range(_PER_OTHER)],
        "trigamma": [("all", _span(rng, 1e-3, 1e3)) for _ in range(_PER_OTHER)],
    }
    # interleave branches so that one op does not run a branch in a tight block
    for pts in batch.values():
        rng.shuffle(pts)
    return batch


def kernel_batches(seed: int) -> list:
    return [kernel_batch(seed, i) for i in range(KERNEL_BATCHES)]


def mpmath_subset(seed: int, batches: list) -> list:
    """Seeded ``(batch, fn, position)`` triples checked against mpmath."""
    rng = _rng("kernel-grid", seed, "mpmath-subset")
    picks = []
    for b, batch in enumerate(batches):
        for fn in KERNEL_FNS:
            for i in sorted(rng.sample(range(len(batch[fn])), MPMATH_PER_FN)):
                picks.append((b, fn, i))
    return picks


def accuracy_grid() -> list:
    """``(fn, arg)`` pairs of the fixed accuracy grid, the same for every seed.

    The worst error over ~2000 seeded points spread 26% (quartile distance
    over median) between ten seeds, because it rests on the few points
    nearest each function's error peak.  A fixed grid covering every branch gives a worst error that
    repeats exactly, so a change in kernel accuracy is not lost in that noise.
    """
    rng = random.Random("gemini-dilog-bench/accuracy-grid")
    per_branch = ACCURACY_PER_BRANCH
    grid = [("li2_real", li2_real_point(rng, b))
            for b in LI2_REAL_BRANCHES for _ in range(per_branch)]
    grid += [("li2_complex", li2_complex_point(rng, r))
             for r in LI2_COMPLEX_REGIONS for _ in range(per_branch)]
    grid += [("li3_real", li3_point(rng, b)) for b in LI3_BRANCHES for _ in range(per_branch)]
    grid += [("clausen_cl2", rng.uniform(-4.0 * math.pi, 4.0 * math.pi))
             for _ in range(2 * per_branch)]
    grid += [("chi2", rng.uniform(-1.0, 1.0)) for _ in range(2 * per_branch)]
    grid += [("trigamma", _span(rng, 1e-3, 1e3)) for _ in range(2 * per_branch)]
    return grid


# -- verify-sweep ------------------------------------------------------------

def verify_seeds(seed: int, n: int) -> list:
    """Per-op ``verify_all`` seeds; the first is the warm-up op's."""
    rng = _rng("verify-sweep", seed)
    return [rng.randrange(1, 2 ** 31 - 1) for _ in range(n)]


# -- cli-cold ----------------------------------------------------------------

def _num(x: float) -> str:
    # fixed notation: argparse reads "-1e-05" as an option, "-0.000010" as a number
    return f"{x:.6f}"


def _eval_argv(rng: random.Random, fn: str) -> list:
    if fn == "li2":
        return ["eval", "li2", _num(li2_real_point(rng, rng.choice(list(LI2_REAL_BRANCHES))))]
    if fn == "li2c":
        z = li2_complex_point(rng, rng.choice(LI2_COMPLEX_REGIONS))
        im = "-0.0" if z.imag == 0.0 and math.copysign(1.0, z.imag) < 0 else _num(z.imag)
        return ["eval", "li2c", _num(z.real), im]
    if fn == "li3":
        return ["eval", "li3", _num(li3_point(rng, rng.choice(list(LI3_BRANCHES))))]
    if fn == "chi2":
        return ["eval", "chi2", _num(rng.uniform(-1.0, 1.0))]
    if fn == "cl2":
        return ["eval", "cl2", _num(rng.uniform(-10.0, 10.0))]
    if fn == "trigamma":
        return ["eval", "trigamma", _num(_span(rng, 1e-2, 1e2))]
    return ["eval", "unit-circle", str(rng.randint(-24, 24)), str(rng.randint(1, 12))]


def _cli_block(rng: random.Random, index: int) -> list:
    """One shuffled block: every eval function and every other subcommand once.

    Every third block, starting with the second, also runs one full
    ``verify``, so a run of ~25 ops includes one.
    """
    ops = [_eval_argv(rng, fn) for fn in EVAL_FNS]
    ops += [
        ["area", _num(_span(rng, -0.95, 20.0))],
        ["median", _num(_span(rng, -0.95, 20.0))],
        ["volume", _num(_span(rng, -0.95, 10.0)), "--b", _num(rng.uniform(0.5, 2.0))],
        ["moment", _num(rng.uniform(0.0, 8.0))],
        ["constants", "--format", "json"],
        ["verify", "--group", rng.choice(GROUPS)],
    ]
    if index % 3 == 1:
        ops.append(["verify", "--format", "json"])
    rng.shuffle(ops)
    return ops


def cli_ops(seed: int, n: int) -> list:
    """The first ``n`` argv lists of the cli-cold op stream."""
    rng = _rng("cli-cold", seed)
    ops: list = []
    block = 0
    while len(ops) < n:
        ops += _cli_block(rng, block)
        block += 1
    return ops[:n]


def cli_first_block(seed: int) -> list:
    """The stream's first block, which holds one op of every subcommand."""
    rng = _rng("cli-cold", seed)
    return _cli_block(rng, 0)
