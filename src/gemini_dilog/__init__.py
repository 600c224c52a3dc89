"""Gemini-function and dilogarithm identity toolkit."""

import importlib

from . import analysis, catalog, gemini, geometry, polylog  # noqa: F401

__version__ = "0.1.0"


def __getattr__(name: str):
    # ``cli`` loads on first use: imported eagerly here, ``python -m
    # gemini_dilog.cli`` would find it in sys.modules and warn before running
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
