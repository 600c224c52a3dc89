"""Golden CLI transcripts: the argv list that CI runs, and the pins of their output.

Each argv runs in-process with RuntimeWarning as an error.  ``cli_golden.json``
pins its exit code and its stdout: the full text, line by line, for the short
outputs, so that a failing test shows the moved digits, and a sha256 for the
long ones.  A change that moves a printed digit regenerates the pins, and the
diff of ``cli_golden.json`` lists what moved:

    PYTHONPATH=src python tests/cli_golden.py           # rewrite cli_golden.json
    PYTHONPATH=src python tests/cli_golden.py --argv    # one argv per line, for CI
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import warnings

from gemini_dilog import cli

ARGV = [
    ["eval", "li2", "0.5"],
    ["eval", "li2c", "1.0000000001", "0.00000001"],  # just outside |z| = 1 near z = 1
    ["eval", "li2c", "1.2", "-0.9"],  # the lens |z| > 1, |1 - z| < 1
    ["eval", "li2c", "3", "-0.0"],  # the lower lip of the cut
    ["eval", "cl2", "-0.000000001"],
    ["eval", "cl2", "9.5"],
    ["eval", "cl2", "9.424778"],
    ["eval", "cl2", "-12.566370614359172"],
    ["eval", "unit-circle", "5", "7"],
    ["eval", "li3", "0.75"],
    ["eval", "trigamma", "0.001"],
    ["area", "0.5"],
    ["area", "-0.999999"],
    ["volume", "-0.999999"],
    ["median", "1"],
    ["volume", "2"],
    ["moment", "1.5"],
    ["constants"],
    ["plot-data", "r-of-a", "--points", "5"],
    ["plot-data", "atot-p", "--points", "5"],
    ["plot-data", "geminoid-profile", "--points", "5"],
    ["verify", "--format", "json"],  # the default seed, 42
    ["verify", "--seed", "1"],
    ["verify", "--seed", "1", "--format", "json"],
    ["verify", "--seed", "7", "--format", "json"],
    ["verify", "--seed", "2147483646", "--format", "csv"],
]

# subcommands that print a few lines, pinned in full
_FULL_TEXT = {"eval", "area", "median", "volume", "moment", "constants"}

PINS = pathlib.Path(__file__).with_name("cli_golden.json")


def pin(argv: list) -> dict:
    """Exit code and stdout of ``gemini-dilog *argv``, run in this process."""
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.run(list(argv))
    stdout = out.getvalue()
    if argv[0] in _FULL_TEXT:
        return {"exit": code, "stdout": stdout.splitlines()}
    return {"exit": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}


if __name__ == "__main__":
    if sys.argv[1:] == ["--argv"]:
        print("\n".join(" ".join(argv) for argv in ARGV))
    else:
        pins = {" ".join(argv): pin(argv) for argv in ARGV}
        PINS.write_text(json.dumps(pins, indent=1, ensure_ascii=False) + "\n")
