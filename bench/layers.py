"""Metric catalog: the end-to-end metrics and the per-layer metrics.

``BENCHMARK.json`` lists the same names; ``selftest.py`` checks that they agree.
Per-layer values are per op of the traced run; self times include the
tracer's own cost per call (``trace.overhead_ms`` gives the total).  A layer
that a workload does not run reads 0 there (``cli.*`` outside cli-cold, the
branch timings outside kernel-grid, ``analysis.*`` on kernel-grid).

Which end-to-end metric each layer should move:

* ``cli.*``: cli-cold ``op_p50_ms``, and ``setup_s`` on the other workloads.
* ``catalog.*``, ``analysis.*``, ``gemini.*``, ``geometry.*``: verify-sweep
  ``op_p50_ms``.
* ``polylog.*``: kernel-grid ``ops_per_s``, then verify-sweep ``op_p50_ms``.

``analysis.integrate.f_evals`` counts integrand evaluations made by
``scipy.integrate.quad`` and ``mpmath.quad``; ``analysis.find_root.f_evals``
counts the evaluations ``brentq`` makes, which include the solves analysis
runs for itself (``solve_constant``): those show in ``brent_calls`` but not in
``find_root.calls``, which counts calls from the other modules.
"""

from __future__ import annotations

from inputs import CLI_SUBCOMMANDS, GROUPS, KERNEL_FNS, LI2_COMPLEX_REGIONS, \
    LI2_REAL_BRANCHES, LI3_BRANCHES

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("max_rel_err", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Public functions of gemini and geometry that the workloads call.
GEMINI_FNS = ("value", "atot_of_a_p", "median", "median_rule_residuals", "total_area",
              "A_of_p", "area_decomposition", "fixed_point", "critical_a",
              "area_ratio_r", "area_ratio_rxa")
GEOMETRY_FNS = ("geminoid_volume", "geminoid_volume_quad", "volume_ratio", "raw_moment",
                "raw_moment_quad", "combined_zeta_gamma_residual", "curvature_profile",
                "equal_radii_point", "mamikon_area", "pi_hole")
IMPORT_PACKAGES = ("scipy", "numpy", "mpmath")


def _per_layer() -> tuple:
    m = [("cli.interp_start_ms", "ms"), ("cli.import_ms", "ms")]
    m += [(f"cli.import.{p}_ms", "ms") for p in IMPORT_PACKAGES]
    m += [("cli.import.gemini_dilog_self_ms", "ms")]
    m += [(f"cli.run_ms.{c}", "ms") for c in CLI_SUBCOMMANDS]
    m += [("cli.other_ms", "ms")]
    m += [("catalog.verify_entry.calls", "count"), ("catalog.verify_entry.self_ms", "ms"),
          ("catalog.samples", "count")]
    m += [(f"catalog.group.{g}_ms", "ms") for g in GROUPS]
    m += [("analysis.integrate.calls", "count"), ("analysis.integrate.self_ms", "ms"),
          ("analysis.integrate.f_evals", "count"),
          ("analysis.gk_calls", "count"), ("analysis.gk_self_ms", "ms"),
          ("analysis.fallbacks", "count"), ("analysis.fallback_self_ms", "ms"),
          ("analysis.fallback_ratio", "ratio"),
          ("analysis.find_root.calls", "count"), ("analysis.find_root.self_ms", "ms"),
          ("analysis.find_root.f_evals", "count"),
          ("analysis.brent_calls", "count"), ("analysis.solve_constant.calls", "count")]
    for mod, fns in (("gemini", GEMINI_FNS), ("geometry", GEOMETRY_FNS)):
        for fn in fns:
            m += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.self_ms", "ms")]
    for fn in KERNEL_FNS:
        m += [(f"polylog.{fn}.calls", "count"), (f"polylog.{fn}.self_ms", "ms"),
              (f"polylog.{fn}.ns_per_call", "ns")]
    m += [(f"polylog.li2_real.ns.{b}", "ns") for b in LI2_REAL_BRANCHES]
    m += [(f"polylog.li2_complex.ns.{r}", "ns") for r in LI2_COMPLEX_REGIONS]
    m += [(f"polylog.li3_real.ns.{b}", "ns") for b in LI3_BRANCHES]
    m += [("trace.overhead_ms", "ms")]
    return tuple(m)


PER_LAYER = _per_layer()
PER_LAYER_UNITS = dict(PER_LAYER)


def from_trace(summary: dict, n_ops: int) -> dict:
    """Per-op layer metrics from a merged tracer summary of ``n_ops`` traced ops."""
    spans, counters = summary["spans"], summary["counters"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0) / n_ops

    def self_ms(name):
        return spans.get(name, {}).get("self_ns", 0) / 1e6 / n_ops

    out = {
        "catalog.verify_entry.calls": calls("catalog.verify_entry"),
        "catalog.verify_entry.self_ms": self_ms("catalog.verify_entry"),
        "catalog.samples": counters.get("catalog.samples", 0) / n_ops,
        "analysis.integrate.calls": calls("analysis.integrate"),
        "analysis.integrate.self_ms": self_ms("analysis.integrate"),
        "analysis.integrate.f_evals": counters.get("analysis.integrate.f_evals", 0) / n_ops,
        "analysis.gk_calls": calls("analysis.gk"),
        "analysis.gk_self_ms": self_ms("analysis.gk"),
        "analysis.fallbacks": calls("analysis.fallback"),
        "analysis.fallback_self_ms": self_ms("analysis.fallback"),
        "analysis.find_root.calls": calls("analysis.find_root"),
        "analysis.find_root.self_ms": self_ms("analysis.find_root"),
        "analysis.find_root.f_evals": counters.get("analysis.find_root.f_evals", 0) / n_ops,
        "analysis.brent_calls": calls("analysis.brent"),
        "analysis.solve_constant.calls": calls("analysis.solve_constant"),
    }
    integrate_calls = out["analysis.integrate.calls"]
    out["analysis.fallback_ratio"] = (out["analysis.fallbacks"] / integrate_calls
                                      if integrate_calls else 0.0)
    for g in GROUPS:
        out[f"catalog.group.{g}_ms"] = summary["group_ns"].get(g, 0) / 1e6 / n_ops
    for mod, fns in (("gemini", GEMINI_FNS), ("geometry", GEOMETRY_FNS)):
        for fn in fns:
            out[f"{mod}.{fn}.calls"] = calls(f"{mod}.{fn}")
            out[f"{mod}.{fn}.self_ms"] = self_ms(f"{mod}.{fn}")
    for fn in KERNEL_FNS:
        c, ms = calls(f"polylog.{fn}"), self_ms(f"polylog.{fn}")
        out[f"polylog.{fn}.calls"] = c
        out[f"polylog.{fn}.self_ms"] = ms
        out[f"polylog.{fn}.ns_per_call"] = ms * 1e6 / c if c else 0.0
    return out


def layer_calls(summary: dict) -> dict:
    """Calls recorded per layer (module), for the self-test's coverage checks."""
    out: dict = {}
    for name, agg in summary["spans"].items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0) + agg["calls"]
    return out
