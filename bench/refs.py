"""Independent references and output checks.

References come from mpmath at 30 digits and, for the dilogarithm family at
every kernel-grid point, from ``scipy.special.spence`` (Li2(z) = spence(1-z)).
On the cut z > 1 both give the lower lip, which is the program's convention
for either sign of a zero imaginary part.

CLI errors are relative with the reference magnitude floored at 1, because
the CLI prints fixed notation with 15 decimals, whose resolution is absolute.
Kernel errors against mpmath are relative to the function's conditioning
(see ``kernel_ref``).
"""

from __future__ import annotations

import json
import math
import re

import mpmath
import numpy as np
from scipy import special

TOL = 1e-12
# scipy's spence is itself only good to ~6e-12 near x = -0.27, so the
# every-point check against it catches branch and reduction mistakes, not ulps
SPENCE_TOL = 1e-10
LN2_LN3 = math.log(2.0) * math.log(3.0)
DISCREPANCY = "g05-ramanujan-2"
FLAGGED_PASSING = frozenset({"g04-four-term", "g04-six-silver", "g04-sqrt-phi", "g10-item9"})
CATALOG_SIZE = 185

mp = mpmath.mp


# -- mpmath references -------------------------------------------------------

def _li2(x):
    """Li2 of a real or complex value; real x > 1 gives the lower lip."""
    return mp.polylog(2, x)


def _chi2(x):
    return (_li2(x) - _li2(-x)) / 2


def kernel_ref(fn: str, arg) -> tuple:
    """30-digit reference of one polylog-layer call: ``(value, scale)``.

    ``scale`` is max(|f(x)|, |x f'(x)|).  Rounding the argument alone moves
    f by about u * |x f'(x)|, so an error at that scale is as good as the
    input allows; near a zero of f (Cl2 at multiples of pi) or a log
    singularity (Li2 near z = 1, Cl2 near multiples of 2*pi) the relative
    error would otherwise measure the argument's rounding, not the kernel.
    """
    with mpmath.workdps(30):
        if fn == "li2_real":
            x = mp.mpf(arg)
            v, xdf = _li2(x), mp.log(1 - x)
        elif fn == "li2_complex":
            z = complex(arg)
            x = mp.mpf(z.real) if z.imag == 0.0 else mp.mpc(z.real, z.imag)
            v, xdf = _li2(x), mp.log(1 - x)
        elif fn == "li3_real":
            x = mp.mpf(arg)
            v, xdf = mp.polylog(3, x), _li2(x)
        elif fn == "clausen_cl2":
            x = mp.mpf(arg)
            v, xdf = mp.clsin(2, x), x * mp.log(abs(2 * mp.sin(x / 2)))
        elif fn == "chi2":
            x = mp.mpf(arg)
            v, xdf = _chi2(x), mp.atanh(x)
        else:  # trigamma
            x = mp.mpf(arg)
            v, xdf = mp.psi(1, x), x * mp.psi(2, x)
        return complex(v), float(max(abs(v), abs(xdf)))


def _spence_li2(z: np.ndarray) -> np.ndarray:
    """Li2 at complex points; real points use the (more accurate) real spence."""
    on_axis = z.imag == 0.0
    below = on_axis & (z.real <= 1.0)
    out = np.empty(z.shape, dtype=complex)
    out[below] = special.spence(1.0 - z.real[below])
    # a zero imaginary part of either sign means the lower lip, spence(1 - x + 0j)
    out[on_axis & ~below] = special.spence((1.0 - z.real[on_axis & ~below]) + 0j)
    out[~on_axis] = special.spence(1.0 - z[~on_axis])
    return out


def spence_ref(fn: str, args: np.ndarray):
    """Vectorised scipy reference for every point of one function, or None."""
    if fn in ("li2_real", "li2_complex"):
        return _spence_li2(np.asarray(args, dtype=complex))
    if fn == "chi2":
        return 0.5 * (special.spence(1.0 - args) - special.spence(1.0 + args))
    if fn == "clausen_cl2":
        return special.spence(1.0 - np.exp(1j * args)).imag
    if fn == "trigamma":
        return special.polygamma(1, args)
    return None


def spence_errors(values: np.ndarray, ref: np.ndarray) -> np.ndarray:
    return np.abs(values - ref) / np.maximum(np.abs(ref), 1.0)


# -- CLI output checks ---------------------------------------------------------

def _parse_number(text: str) -> complex:
    """Parse ``_fmt``/``_fmt_complex`` output: "re", "re + im i" or "re - im i"."""
    parts = text.split()
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 4 and parts[1] in "+-" and parts[3] == "i":
        im = float(parts[2])
        return complex(float(parts[0]), im if parts[1] == "+" else -im)
    raise ValueError(f"unparseable number: {text!r}")


def _eval_ref(args: list) -> complex:
    fn = args[0]
    if fn == "li2":
        return complex(_li2(mp.mpf(args[1])))
    if fn == "li2c":
        re_, im = float(args[1]), float(args[2])
        return complex(_li2(mp.mpf(args[1])) if im == 0.0 else _li2(mp.mpc(re_, im)))
    if fn == "li3":
        return complex(mp.polylog(3, mp.mpf(args[1])))
    if fn == "chi2":
        return complex(_chi2(mp.mpf(args[1])))
    if fn == "cl2":
        return complex(mp.clsin(2, mp.mpf(args[1])))
    if fn == "trigamma":
        return complex(mp.psi(1, mp.mpf(args[1])))
    # unit-circle p q
    return complex(_li2(mp.expjpi(mp.mpf(int(args[1])) / int(args[2]))))


def _root(f, x0: float) -> float:
    return float(mp.findroot(f, mp.mpf(x0)))


def _re_li2(x):
    return mp.re(_li2(x))


# Defining equations of the named constants, written independently in mpmath.
_CONSTANT_EQUATIONS = {
    "phi": lambda x: x * x - x - 1,
    "plastic": lambda x: x ** 3 - x - 1,
    "supergolden": lambda x: x ** 3 - x * x - 1,
    "theta1": lambda x: x ** 4 - x ** 3 - 1,
    "a4": lambda x: x ** 4 - x - 1,
    "tribonacci": lambda x: x ** 3 - x * x - x - 1,
    "k0": lambda x: x ** (mp.sqrt(2) + 1) - x ** mp.sqrt(2) - 1,
    "addinacci_super_fixed_point": lambda x: x - 1 - mp.sqrt(1 + x ** (-x)),
    "addinacci_2": lambda x: x ** 3 - 2 * x * x - 1,
    "infinacci": lambda x: x - 2,
    "a_c": lambda a: _re_li2(-a) - mp.pi ** 2 / 6 + 3 * mp.log(1 + mp.sqrt(1 + a)) ** 2,
    "laplace_limit": lambda x: mp.log((1 + mp.sqrt(1 + x * x)) / x) - mp.sqrt(1 + x * x),
    "C_CFP": lambda x: mp.coth(x) - x,
    "magic_angle": lambda x: mp.tan(x) - mp.sqrt(2),
    "delta_s": lambda x: mp.exp(x) - 1 - mp.sqrt(2),
    "median_n1": lambda a: _re_li2(1 / a) + _re_li2(-a) / 2,
    "median_n2": lambda m: mp.re(_chi2(1 / (m * m))) - mp.log(m) ** 2 / 2,
    "median_n3": lambda m: (_re_li2(1 / m) - _re_li2(-m ** 2) - mp.pi ** 2 / 12
                            + _re_li2(-m ** 3) / 2),
    "a_no_pi2": lambda a: _re_li2(-a) + mp.pi ** 2 / 6,
    "p_median_zero": lambda p: (_re_li2(1 / p) - mp.pi ** 2 / 4
                                + mp.log(mp.sqrt(p - 1)) ** 2
                                + mp.log(p) * mp.log(mp.sqrt(p) / (p - 1))),
    "a_crit_p2": lambda a: _re_li2(-a) - mp.pi ** 2 / 6 + (a + 2) / (2 * a) * mp.log(a + 1),
}
for _n in range(2, 8):
    _CONSTANT_EQUATIONS[f"inverse_pair_a_n{_n}"] = (
        lambda a, n=_n: _re_li2(-a) + mp.mpf(2 * n - 1) / (n + 1) * mp.pi ** 2 / 6
        + mp.mpf(n) / (n + 1) * mp.log(a) ** 2 / 2)


class CliChecker:
    """Checks one CLI op's stdout; returns the worst error or raises ValueError."""

    def __init__(self) -> None:
        self._constant_roots: dict = {}

    def check(self, argv: list, stdout: str) -> float:
        with mpmath.workdps(30):
            return getattr(self, "_" + argv[0])(argv[1:], stdout)

    def _eval(self, args: list, out: str) -> float:
        return self._close(_parse_number(out.strip()), _eval_ref(args))

    def _area(self, args: list, out: str) -> float:
        a = mp.mpf(args[0])
        total = mp.pi ** 2 / 6 - _re_li2(-a)
        middle = mp.log(1 + mp.sqrt(1 + a)) ** 2
        refs = {"total": total, "middle_square": middle, "apex": (total - middle) / 2,
                "rectangle": middle, "between_limits": mp.mpf(0)}
        got = dict(line.split(" = ") for line in out.strip().splitlines())
        if set(got) != set(refs):
            raise ValueError(f"area rows {sorted(got)}")
        return max(self._close(_parse_number(got[k]), v) for k, v in refs.items())

    def _median(self, args: list, out: str) -> float:
        a = mp.mpf(args[0])
        half = mp.pi ** 2 / 12 - _re_li2(-a) / 2

        def f(x):
            m = mp.exp(x)
            return _re_li2(1 / m) - _re_li2(-a / m) - half

        x = float(out.strip())
        return self._close(x, _root(f, x))

    def _volume(self, args: list, out: str) -> float:
        a, b = mp.mpf(args[0]), mp.mpf(args[2])
        return self._close(float(out.strip()),
                           2 * mp.pi * b ** 3 * (mp.zeta(3) - mp.polylog(3, -a)))

    def _moment(self, args: list, out: str) -> float:
        s = mp.mpf(args[0])
        return self._close(float(out.strip()), mp.gamma(s + 1) * mp.zeta(s + 2))

    def _constants(self, args: list, out: str) -> float:
        rows = json.loads(out)
        if {r["id"] for r in rows} != set(_CONSTANT_EQUATIONS):
            raise ValueError("constants table ids differ")
        worst = 0.0
        for r in rows:
            key = (r["id"], r["value"])
            if key not in self._constant_roots:
                self._constant_roots[key] = _root(_CONSTANT_EQUATIONS[r["id"]], r["value"])
            worst = max(worst, self._close(r["value"], self._constant_roots[key]))
        return worst

    def _verify(self, args: list, out: str) -> float:
        if "--format" in args:  # full catalog, JSON
            rows = json.loads(out)
            statuses = {r["id"]: r["status"] for r in rows}
            residual = {r["id"]: r["max_abs_residual"] for r in rows}
            if len(rows) != CATALOG_SIZE:
                raise ValueError(f"{len(rows)} catalog entries")
        else:
            group = args[args.index("--group") + 1]
            lines = out.strip().splitlines()
            statuses = {}
            for line in lines[:-1]:
                eid, grp, status = line.split()[:3]
                if grp != group:
                    raise ValueError(f"{eid} reported in {grp}, asked for {group}")
                statuses[eid] = status
            summary = re.fullmatch(r"(\d+) entries: (\d+) pass, (\d+) flagged, (\d+) fail",
                                   lines[-1])
            n_flagged = sum(st.startswith("flagged") for st in statuses.values())
            counts = (len(statuses), len(statuses) - n_flagged, n_flagged, 0)
            if not statuses or summary is None \
                    or tuple(int(g) for g in summary.groups()) != counts:
                raise ValueError(f"summary line {lines[-1]!r} does not match the table")
            residual = {}
        return check_statuses(statuses, residual)

    @staticmethod
    def _close(value, ref) -> float:
        ref = complex(ref)
        err = abs(complex(value) - ref) / max(abs(ref), 1.0)
        if not err <= TOL:
            raise ValueError(f"{value!r} vs reference {ref!r}: error {err:.3e}")
        return err


def check_statuses(statuses: dict, residual: dict) -> float:
    """Check a verification table; returns the discrepancy's relative error.

    Expected: every entry passes except four flagged-but-passing ones and
    ``g05-ramanujan-2``, a flagged discrepancy whose residual is ln 2 * ln 3.
    Returns 0.0 when the table does not hold the discrepancy entry.
    """
    for eid, status in statuses.items():
        want = ("flagged-discrepancy" if eid == DISCREPANCY
                else "flagged-but-passing" if eid in FLAGGED_PASSING else "pass")
        if status != want:
            raise ValueError(f"{eid}: {status}, expected {want}")
    if DISCREPANCY not in residual:
        return 0.0
    err = abs(residual[DISCREPANCY] - LN2_LN3)
    if not err <= 1e-12:
        raise ValueError(f"{DISCREPANCY} residual off ln2*ln3 by {err:.3e}")
    return err / LN2_LN3
