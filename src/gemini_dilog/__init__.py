"""Gemini-function and dilogarithm identity toolkit.

The submodules load on first access (PEP 562), so ``import gemini_dilog``
compiles nothing but this file, and each CLI subcommand pays only for the
modules it runs.  ``gemini_dilog.catalog`` and ``from gemini_dilog import
polylog`` work as if they had been imported here.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset(
    ("analysis", "catalog", "cli", "gemini", "geometry", "polylog"))


def __getattr__(name: str):
    # the import binds the submodule as a package attribute, so this runs
    # once per name; ``cli`` must stay lazy in any case, because ``python -m
    # gemini_dilog.cli`` warns when it finds the module already imported
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
