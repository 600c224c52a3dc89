"""numpy's default random generator and sample grids, in pure Python.

``Generator(word)`` draws what ``numpy.random.default_rng(word)`` draws for a
seed word 0 <= word < 2**32: numpy's ``SeedSequence`` seeds a PCG64 generator
(O'Neill 2014, 128-bit LCG with the XSL-RR output), and ``random()`` and the
bounded ``integers(lo, hi)`` consume its 64-bit outputs as numpy does.

``linspace`` performs numpy's two roundings per point, i*step + lo, so it is
bit-identical to ``numpy.linspace``.  ``geomspace`` raises 10 to a linspace
of the log10 endpoints with libm's ``pow``; numpy's SIMD ``power`` may round
a point the other way, so it can differ from ``numpy.geomspace`` by 1 ulp.
Both grids are generators and pin their last point (and geomspace its
first) to the endpoint given.
"""

from __future__ import annotations

import math
from itertools import islice

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_words(word: int) -> list:
    """``SeedSequence(word).generate_state(8, uint32)`` for one 32-bit word."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(word)] + [hashmix(0) for _ in range(_POOL_SIZE - 1)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    return out


class Generator:
    """``numpy.random.default_rng(word)``'s ``random()`` and ``integers()``.

    Raises ValueError unless 0 <= word < 2**32.
    """

    __slots__ = ("_state", "_inc", "_upper")

    def __init__(self, word: int):
        if not 0 <= word <= _M32:
            raise ValueError(f"seed word must lie in [0, 2**32), got {word!r}")
        w = _seed_words(word)
        # the eight words, read as four little-endian 64-bit words, are the
        # 128-bit initial state and stream of pcg_setseq_128_srandom_r
        u = [w[k] | w[k + 1] << 32 for k in range(0, 8, 2)]
        self._inc = ((u[2] << 64 | u[3]) << 1 | 1) & _M128
        self._state = (self._inc + (u[0] << 64 | u[1])) * _PCG_MULT + self._inc & _M128
        self._upper = None  # the unused upper half of the last 32-bit draw

    def _next64(self) -> int:
        self._state = state = self._state * _PCG_MULT + self._inc & _M128
        value = (state >> 64 ^ state) & _M64
        rot = state >> 122
        return (value >> rot | value << (64 - rot)) & _M64

    def _next32(self) -> int:
        upper = self._upper
        if upper is not None:
            self._upper = None
            return upper
        value = self._next64()
        self._upper = value >> 32
        return value & _M32

    def random(self) -> float:
        """A uniform float in [0, 1) from the top 53 bits of one output."""
        return (self._next64() >> 11) * 2.0 ** -53

    def integers(self, lo: int, hi: int) -> int:
        """A uniform int in [lo, hi) by Lemire's bounded 32-bit draw.

        Raises ValueError unless 1 <= hi - lo < 2**32.
        """
        span = hi - lo
        if not 1 <= span <= _M32:
            raise ValueError(f"integers needs 1 <= hi - lo < 2**32, got [{lo}, {hi})")
        if span == 1:
            return lo
        threshold = (2 ** 32 - span) % span
        m = self._next32() * span
        while m & _M32 < threshold:
            m = self._next32() * span
        return lo + (m >> 32)


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
