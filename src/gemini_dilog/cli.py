"""Command-line front end.

One binary with subcommands for special-function evaluation, the named
constant table, catalog verification, gemini-function geometry and CSV
plot-data emission.  Exit codes: 0 success, 1 verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys

# Each subcommand imports the modules it runs, so a cold process compiles
# only those: ``eval`` loads polylog alone, and only verify and plot-data
# load ``_sampling``.

# eval function -> (argument count, argument type, call on the polylog module);
# every value prints through _fmt_complex, which prints a real one as _fmt does
_EVAL = {
    "li2": (1, float, lambda pl, x: pl.li2_real(x)),
    "li2c": (2, float, lambda pl, x, y: pl.li2_complex(complex(x, y))),
    "li3": (1, float, lambda pl, x: pl.li3_real(x)),
    "chi2": (1, float, lambda pl, x: pl.chi2(x)),
    "cl2": (1, float, lambda pl, x: pl.clausen_cl2(x)),
    "trigamma": (1, float, lambda pl, x: pl.trigamma(x)),
    "unit-circle": (2, int, lambda pl, p, q: pl.li2_unit_circle(p, q)),
}
_PLOT_SERIES = ("r-of-a", "atot-p", "geminoid-profile")
_MAX_POINTS = 10 ** 7  # plot-data streams its grid: this bounds run time, not memory


def _fmt(x: float) -> str:
    """15-decimal fixed-point format, scientific outside a sane range.

    Rounds the shortest decimal representation (repr) half-even so that
    exact closed forms print their canonical digit strings.
    """
    if x == 0.0:
        return "0.000000000000000"
    if not (1e-6 <= abs(x) < 1e7):
        return f"{x:.15e}"
    import decimal

    d = decimal.Decimal(repr(x)).quantize(decimal.Decimal("1e-15"),
                                          rounding=decimal.ROUND_HALF_EVEN)
    return format(d, "f")


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return _fmt(z.real)
    sign = "-" if z.imag < 0.0 else "+"
    return f"{_fmt(z.real)} {sign} {_fmt(abs(z.imag))} i"


class _Parser(argparse.ArgumentParser):
    """Reads -1e-3 as a negative number, not as an option.

    argparse before Python 3.13 takes only the -12 and -1.5 forms for numbers;
    subparsers are built from the same class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="gemini-dilog",
        description="Gemini-function and dilogarithm identity toolkit.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a special function")
    pe.add_argument("fn", choices=_EVAL)
    pe.add_argument("args", nargs="+", help="function arguments")

    pc = sub.add_parser("constants", help="print the named-constant table")
    pc.add_argument("--format", choices=("text", "json", "csv"), default="text")

    pv = sub.add_parser("verify", help="verify the identity catalog")
    pv.add_argument("--group", default=None, help="restrict to one group (G1..G14)")
    pv.add_argument("--id", dest="entry_id", default=None, help="restrict to one entry id")
    pv.add_argument("--tol", type=float, default=1e-9, help="tolerance (default 1e-9)")
    pv.add_argument("--seed", type=int, default=42,
                    help="sampling seed (default 42)")
    pv.add_argument("--strict", action="store_true",
                    help="flagged-discrepancy entries also fail the run")
    pv.add_argument("--format", choices=("text", "json", "csv"), default="text")

    pa = sub.add_parser("area", help="area decomposition of a gemini function")
    pa.add_argument("a", type=float)
    pa.add_argument("--b", type=float, default=1.0)
    pa.add_argument("--format", choices=("text", "json", "csv"), default="text")

    pm = sub.add_parser("median", help="median abscissa ln(m) of a gemini function")
    pm.add_argument("a", type=float)

    pvol = sub.add_parser("volume", help="geminoid volume 2*pi*b^3*[zeta(3)-Li3(-a)]")
    pvol.add_argument("a", type=float)
    pvol.add_argument("--b", type=float, default=1.0)

    pmom = sub.add_parser("moment", help="raw moment Gamma(s+1)*zeta(s+2)")
    pmom.add_argument("s", type=float)

    pp = sub.add_parser("plot-data", help="emit a CSV data series")
    pp.add_argument("series", choices=_PLOT_SERIES)
    pp.add_argument("--points", type=int, default=200)
    return p


def _eval_command(ns: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import polylog

    n, kind, call = _EVAL[ns.fn]
    if len(ns.args) != n:
        parser.error(f"expected {n} argument(s), got {len(ns.args)}")
    print(_fmt_complex(call(polylog, *map(kind, ns.args))))
    return 0


def _constants_rows() -> list:
    from . import analysis

    rows = []
    for c in analysis.constants_table():
        rows.append({
            "id": c.id,
            "value": analysis.solve_constant(c),
            "reference": c.reference_value,
            "equation": c.defining_equation,
            "provenance": c.provenance,
        })
    return rows


def _print_table(rows: list, columns: list, fmt: str) -> None:
    if fmt == "json":
        import json

        print(json.dumps(rows, indent=2))
        return
    if fmt == "csv":
        import csv
        import io

        out = io.StringIO()
        w = csv.DictWriter(out, fieldnames=columns, lineterminator="\n")
        w.writeheader()
        for r in rows:
            w.writerow(r)
        sys.stdout.write(out.getvalue())
        return
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in columns))


def _constants_command(ns: argparse.Namespace) -> int:
    rows = _constants_rows()
    display = [dict(r, value=_fmt(r["value"]), reference=_fmt(r["reference"]))
               for r in rows]
    if ns.format == "json":
        _print_table(rows, [], "json")
    else:
        _print_table(display, ["id", "value", "reference", "equation", "provenance"],
                     ns.format)
    return 0


def _verify_command(ns: argparse.Namespace) -> int:
    import dataclasses

    from . import catalog

    reports = catalog.verify_all(group=ns.group, entry_id=ns.entry_id,
                                 tol=ns.tol, seed=ns.seed)
    if ns.format == "text":
        for r in reports:
            print(f"{r.id:36s} {r.group:4s} {r.status:20s} "
                  f"max|res|={r.max_abs_residual:.3e} "
                  f"tol={r.tol:.0e} samples={r.samples}")
        n_fail = sum(1 for r in reports if r.status == "fail")
        n_flag = sum(1 for r in reports if r.status.startswith("flagged"))
        print(f"{len(reports)} entries: {len(reports) - n_fail - n_flag} pass, "
              f"{n_flag} flagged, {n_fail} fail")
    else:
        rows = [dataclasses.asdict(r) for r in reports]
        if ns.format == "csv":
            for r in rows:
                r["worst_params"] = ";".join(f"{k}={v!r}" for k, v in r["worst_params"].items())
        columns = [f.name for f in dataclasses.fields(catalog.VerificationReport)]
        _print_table(rows, columns, ns.format)

    failed = any(r.status == "fail" for r in reports)
    if ns.strict:
        failed = failed or any(r.status == "flagged-discrepancy" for r in reports)
    return 1 if failed else 0


def _area_command(ns: argparse.Namespace) -> int:
    import dataclasses

    from . import gemini

    row = dataclasses.asdict(gemini.area_decomposition(gemini.GeminiParams(ns.a, ns.b)))
    if ns.format == "json":
        import json

        print(json.dumps(row, indent=2))
    elif ns.format == "csv":
        cols = list(row)
        _print_table([{k: _fmt(v) for k, v in row.items()}], cols, "csv")
    else:
        for k, v in row.items():
            print(f"{k} = {_fmt(v)}")
    return 0


def _plot_command(ns: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    n = ns.points
    if n < 2:
        parser.error("--points must be at least 2")
    if n > _MAX_POINTS:
        parser.error(f"--points must be at most {_MAX_POINTS}, got {n}")
    import csv

    from . import gemini, geometry
    from ._sampling import geomspace

    w = csv.writer(sys.stdout, lineterminator="\n")
    if ns.series == "r-of-a":
        w.writerow(["a", "r"])
        for g in geomspace(1e-4, 1.0, n):
            a = -1.0 + (101.0 - 1e-2) * g
            w.writerow([f"{a:.15g}", f"{gemini.area_ratio_r(a):.15g}"])
    elif ns.series == "atot-p":
        w.writerow(["p", "A"])
        for p in geomspace(1.1, 10.0, n):
            w.writerow([f"{p:.15g}", f"{gemini.A_of_p(p):.15g}"])
    else:  # geminoid-profile
        w.writerow(["x", "kappa1", "arc_length", "theta", "R1", "R2",
                    "gauss_curvature"])
        for x in geomspace(0.05, 5.0, n):
            pr = geometry.curvature_profile(x)
            w.writerow([f"{v:.15g}" for v in
                        (pr.x, pr.kappa1, pr.arc_length, pr.theta, pr.R1, pr.R2,
                         pr.gauss_curvature)])
    return 0


def run(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.command == "eval":
            return _eval_command(ns, parser)
        if ns.command == "constants":
            return _constants_command(ns)
        if ns.command == "verify":
            return _verify_command(ns)
        if ns.command == "area":
            return _area_command(ns)
        if ns.command == "median":
            from . import gemini

            print(_fmt(gemini.median(ns.a)))
            return 0
        if ns.command == "volume":
            from . import gemini, geometry

            print(_fmt(geometry.geminoid_volume(gemini.GeminiParams(ns.a, ns.b))))
            return 0
        if ns.command == "moment":
            from . import geometry

            print(_fmt(geometry.raw_moment(ns.s)))
            return 0
        return _plot_command(ns, parser)  # plot-data
    except ValueError as exc:
        parser.error(str(exc))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
