"""Every argv in ``cli_golden.ARGV`` prints its pinned transcript."""

import json

import pytest

from cli_golden import ARGV, PINS, pin

_PINNED = json.loads(PINS.read_text())


def test_every_argv_is_pinned():
    assert list(_PINNED) == [" ".join(argv) for argv in ARGV]


@pytest.mark.parametrize("argv", ARGV, ids=" ".join)
def test_transcript(argv):
    assert pin(argv) == _PINNED[" ".join(argv)]
