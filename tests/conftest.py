"""Shared fixtures."""

import mpmath
import pytest


@pytest.fixture
def fallback_calls(monkeypatch):
    """Record every tanh-sinh fallback (``mpmath.quad`` call) a test makes."""
    calls = []
    quad = mpmath.quad

    def counting_quad(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(mpmath, "quad", counting_quad)
    return calls
