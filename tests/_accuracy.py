"""Accuracy measures shared by the mpmath comparison tests."""

import math

import mpmath


def ulps(got, ref):
    """Error of the float ``got`` in units in the last place of the mpmath value ``ref``."""
    return float(abs(mpmath.mpf(got) - ref)) / math.ulp(float(ref))
