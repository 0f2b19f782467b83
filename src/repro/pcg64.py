"""The stream of ``numpy.random.default_rng(seed)``, in pure Python.

Every seeded draw that ``src/`` makes outside the simulator — random
DAG generation, heterogeneous bags, ``RandomScheduler``'s placements,
the prediction model's noise — is a scalar ``integers`` / ``uniform``
or a small ``choice``.  Importing numpy for them cost 14 MB of a DAG
run's resident set, and numpy's per-call overhead dominated the
generation time; this module replays the same stream bit for bit:

* ``SeedSequence`` entropy mixing: a non-negative int split into 32-bit
  words, hashmixed into a 4-word pool (words past the fourth, seeds
  >= 2**128, are mixed into every pool word), then
  ``generate_state(4, uint64)``;
* PCG64: the 128-bit LCG with the XSL-RR output, and the upper half of
  a 64-bit draw that ``next_uint32`` buffers for the next 32-bit draw
  (a ``next_double`` in between leaves the buffer alone);
* ``integers``: Lemire's method on 32-bit draws for ranges below 2**32,
  on 64-bit draws above;
* ``uniform``: ``low + (high - low) * next_double``;
* ``choice(n, size, replace=False)``: Floyd's algorithm followed by a
  shuffle of the sample, or, when ``n > 10_000`` and
  ``size > n // 50``, a shuffle of the tail of ``range(n)``.

``tests/property/test_pcg64_stream.py`` checks it against numpy on
every supported Python; the simulator's streams (``Simulator.rng``)
stay on numpy, whose ``exponential`` and ``normal`` draw from ziggurat
tables this module does not replicate.
"""

from __future__ import annotations

import operator
from typing import List, Optional

__all__ = ["PCG64", "check_seed"]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: PCG's default 128-bit LCG multiplier
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
#: SeedSequence's hashmix constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
#: ``next_double`` scales the top 53 bits of a 64-bit draw by this
_2_TO_MINUS_53 = 1.0 / 9007199254740992.0
#: ``choice`` shuffles the tail of ``range(n)`` above this population
_TAIL_SHUFFLE_POPULATION = 10_000


def check_seed(seed: int) -> int:
    """``seed`` as the int ``SeedSequence`` takes: any non-negative
    integer (``True`` included).  A negative one raises ``ValueError``,
    anything else — a float, a str, ``None`` — ``TypeError``, as numpy
    does (numpy draws OS entropy for ``None``; a seeded stream cannot)."""
    value = operator.index(seed)
    if value < 0:
        raise ValueError(f"seed must be a non-negative integer, not {value}")
    return value


def _seed_words(seed: int) -> List[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    value = check_seed(seed)
    entropy = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        entropy.append(value & _MASK32)

    hash_const = _INIT_A

    def hashmix(word: int) -> int:
        nonlocal hash_const
        word ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        word = word * hash_const & _MASK32
        return word ^ (word >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):  # 4 uint64 words, each low half first
        word = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const & _MASK32
        state.append(word ^ (word >> 16))
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """``numpy.random.default_rng(seed)`` for scalar ``integers`` and
    ``uniform`` draws and ``choice(n, size, replace=False)``; ``seed``
    as :func:`check_seed` takes it."""

    __slots__ = ("_state", "_inc", "_upper")

    def __init__(self, seed: int) -> None:
        s0, s1, i0, i1 = _seed_words(seed)
        # pcg64_set_seed: one step from 0 (which lands on the increment),
        # add the initial state, one more step
        inc = self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = ((inc + (s0 << 64 | s1)) * _MULTIPLIER + inc) & _MASK128
        #: the upper half of the last 64-bit draw, owed to the next
        #: 32-bit draw (numpy's ``has_uint32`` / ``uinteger``)
        self._upper = -1

    def _next64(self) -> int:
        state = self._state = (self._state * _MULTIPLIER + self._inc) & _MASK128
        x = (state >> 64) ^ (state & _MASK64)
        rot = state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        upper = self._upper
        if upper >= 0:
            self._upper = -1
            return upper
        draw = self._next64()
        self._upper = draw >> 32
        return draw & _MASK32

    def _bounded(self, rng: int) -> int:
        """A uniform int in ``[0, rng]`` (numpy's ``random_bounded_uint64``
        without the mask)."""
        if rng == 0:
            return 0
        if rng < _MASK32:
            excl = rng + 1
            m = self._next32() * excl
            if m & _MASK32 < excl:
                threshold = (_MASK32 - rng) % excl
                while m & _MASK32 < threshold:
                    m = self._next32() * excl
            return m >> 32
        if rng == _MASK32:
            return self._next32()
        if rng == _MASK64:
            return self._next64()
        excl = rng + 1
        m = self._next64() * excl
        if m & _MASK64 < excl:
            threshold = (_MASK64 - rng) % excl
            while m & _MASK64 < threshold:
                m = self._next64() * excl
        return m >> 64

    def _shuffle(self, data: List[int], first: int) -> None:
        """Fisher-Yates from the end down to index ``first``: position
        ``i`` swaps with a uniform ``j`` in ``[0, i]`` (numpy's
        ``_shuffle_int``)."""
        for i in range(len(data) - 1, first - 1, -1):
            j = self._bounded(i)
            data[i], data[j] = data[j], data[i]

    def integers(self, low: int, high: Optional[int] = None) -> int:
        """A uniform int in ``[low, high)`` (``[0, low)`` when ``high`` is
        omitted), within numpy's int64 bounds."""
        if high is None:
            low, high = 0, low
        if not -(1 << 63) <= low < high <= 1 << 63:
            raise ValueError(f"empty or out-of-int64 range [{low}, {high})")
        return low + self._bounded(high - low - 1)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A uniform float in ``[low, high)``."""
        return low + (high - low) * ((self._next64() >> 11) * _2_TO_MINUS_53)

    def choice(self, a: int, size: int, replace: bool = True) -> List[int]:
        """``size`` distinct ints of ``range(a)``, in numpy's order."""
        if replace:
            raise NotImplementedError("only replace=False is replicated")
        if size < 0 or size > a:
            raise ValueError(f"cannot take {size} distinct samples of {a}")
        if a > _TAIL_SHUFFLE_POPULATION and size > a // 50:
            population = list(range(a))
            self._shuffle(population, max(a - size, 1))
            return population[a - size:]
        sample: List[int] = []
        seen = set()
        for j in range(a - size, a):
            value = self._bounded(j)
            if value in seen:
                value = j
            seen.add(value)
            sample.append(value)
        self._shuffle(sample, 1)
        return sample
