"""Sample grids in pure Python.

``linspace`` performs numpy's two roundings per point, i*step + lo, so it is
bit-identical to ``numpy.linspace``.  ``geomspace`` raises 10 to a linspace
of the log10 endpoints with libm's ``pow``; numpy's SIMD ``power`` may round
a point the other way, so it can differ from ``numpy.geomspace`` by 1 ulp.
Both held on every grid of ``tests/test_oracles.py::TestSamplingPinned``
when its digests were taken from these functions; the digests now hold
their outputs bit for bit.
Both grids are generators and pin their last point (and geomspace its
first) to the endpoint given.
"""

from __future__ import annotations

import math
from itertools import islice


def linspace(lo: float, hi: float, n: int):
    """n >= 2 evenly spaced points from lo to hi, as ``numpy.linspace``."""
    step = (hi - lo) / (n - 1)
    for i in range(n - 1):
        yield i * step + lo
    yield hi


def geomspace(lo: float, hi: float, n: int):
    """n >= 2 log-spaced points from lo > 0 to hi > 0, both pinned."""
    yield lo
    for y in islice(linspace(math.log10(lo), math.log10(hi), n), 1, n - 1):
        yield 10.0 ** y
    yield hi
