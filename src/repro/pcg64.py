"""The streams of ``numpy.random.default_rng``, in pure Python.

Every seeded draw that ``src/`` makes — random DAG generation,
heterogeneous bags, ``RandomScheduler``'s placements, the prediction
model's noise, and the simulator's named streams (``Simulator.rng``:
fault plans, failure and repair times, message loss, retry jitter, load
generators) — is a scalar draw or a small ``choice``.  Importing numpy
for them cost 14 MB of a run's resident set, and numpy's per-call
overhead dominated the drawing time; this module replays the same
streams bit for bit:

* ``SeedSequence`` entropy mixing: a non-negative int split into 32-bit
  words, hashmixed into a 4-word pool (words past the fourth, seeds
  >= 2**128, are mixed into every pool word), then
  ``generate_state(4, uint64)``.  A spawn key (a stream name's UTF-8
  bytes, one word each) follows the seed's words padded to a full pool;
* PCG64: the 128-bit LCG with the XSL-RR output, and the upper half of
  a 64-bit draw that ``next_uint32`` buffers for the next 32-bit draw
  (a ``next_double`` in between leaves the buffer alone);
* ``integers`` and a scalar ``choice(n)`` (numpy's ``integers(0, n)``):
  Lemire's method on 32-bit draws for ranges below 2**32, on 64-bit
  draws above;
* ``random``: ``next_double``; ``uniform``: ``low + (high - low) *
  next_double``;
* ``exponential`` and ``normal``: numpy's ziggurats
  (``random_standard_exponential`` / ``random_standard_normal`` of its
  ``distributions.c``, after Marsaglia & Tsang, J. Stat. Softw. 5(8),
  2000), on numpy's own tables, which :mod:`repro._ziggurat` holds as
  literals copied from numpy 2.4.6 and loads on the first such draw;
* ``choice(n, size, replace=False)``: Floyd's algorithm followed by a
  shuffle of the sample, or, when ``n > 10_000`` and
  ``size > n // 50``, a shuffle of the tail of ``range(n)``.

``tests/property/test_pcg64_stream.py`` checks it against numpy on
every supported Python, named streams and every path of both ziggurats
included.
"""

from __future__ import annotations

import operator
from math import copysign, exp, isnan, log1p
from typing import List, Optional, Tuple, Union

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
#: the ziggurat's tail starts: the exponential's, the normal's and its
#: reciprocal (numpy's ``ziggurat_exp_r``, ``ziggurat_nor_r``,
#: ``ziggurat_nor_inv_r``)
_EXP_R = 7.6971174701310497140446280481
_NORMAL_R = 3.6541528853610087963519472518
_NORMAL_INV_R = 0.27366123732975827203338247596
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


def _check_scale(scale: float) -> float:
    """``scale``, unless its sign bit is set (``-0.0`` included): numpy
    refuses those with ``ValueError`` and lets NaN through."""
    if copysign(1.0, scale) < 0 and not isnan(scale):
        raise ValueError("scale < 0")
    return scale


def _load_ziggurat():
    """The tables of :mod:`repro._ziggurat`, imported on the first
    ``normal`` or ``exponential`` draw."""
    global _ziggurat
    from repro import _ziggurat as tables

    _ziggurat = (tables.KI, tables.WI, tables.FI,
                 tables.KE, tables.WE, tables.FE)
    return _ziggurat


#: ``(KI, WI, FI, KE, WE, FE)`` once :func:`_load_ziggurat` ran
_ziggurat = None


def _hash_schedule(n: int) -> Tuple[List[int], List[int]]:
    """The xor and multiplier constants of the first ``n`` hashmix steps.

    SeedSequence's k-th hashmix xors ``h_k`` into its word and multiplies
    by ``h_{k+1}``, with ``h_k = _INIT_A * _MULT_A**k mod 2**32``: the
    schedule does not depend on the data, so it is computed once and
    grown for longer spawn keys."""
    xors, mults = _HASH_XORS, _HASH_MULTS
    while len(xors) < n:
        xors.append(mults[-1] if mults else _INIT_A)
        mults.append(xors[-1] * _MULT_A & _MASK32)
    return xors, mults


#: the hashmix schedule, grown by :func:`_hash_schedule`
_HASH_XORS: List[int] = []
_HASH_MULTS: List[int] = []
#: ``generate_state``'s schedule (``_INIT_B`` / ``_MULT_B``), one
#: ``(xor, multiplier)`` pair per 32-bit output word
_STATE_STEPS = [(_INIT_B * _MULT_B ** k & _MASK32,
                 _INIT_B * _MULT_B ** (k + 1) & _MASK32)
                for k in range(2 * _POOL_SIZE)]


def _seed_words(seed: int, spawn_key: bytes = b"") -> List[int]:
    """``SeedSequence(seed, spawn_key=tuple(spawn_key)).generate_state(4,
    uint64)``."""
    value = check_seed(seed)
    entropy = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        entropy.append(value & _MASK32)
    # get_assembled_entropy pads the seed's words to a full pool before
    # a spawn key, one word per byte; without a key, the pool's missing
    # words hash a 0 anyway
    entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy += spawn_key
    xors, mults = _hash_schedule(_POOL_SIZE * len(entropy))
    mask, left, right = _MASK32, _MIX_MULT_L, _MIX_MULT_R

    # one hashmix per entropy word (steps 0-3), every pool word mixed
    # into every other (steps 4-15), then every word past the pool (a
    # seed >= 2**128, a spawn key) mixed into all four
    pool = []
    for word, xor, mult in zip(entropy, xors, mults[:_POOL_SIZE]):
        word = (word ^ xor) * mult & mask
        pool.append(word ^ word >> 16)
    k = _POOL_SIZE
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixed = (pool[i_src] ^ xors[k]) * mults[k] & mask
                mixed = (left * pool[i_dst]
                         - right * (mixed ^ mixed >> 16)) & mask
                pool[i_dst] = mixed ^ mixed >> 16
                k += 1
    p0, p1, p2, p3 = pool
    for word in entropy[_POOL_SIZE:]:
        mixed = (word ^ xors[k]) * mults[k] & mask
        mixed = (left * p0 - right * (mixed ^ mixed >> 16)) & mask
        p0 = mixed ^ mixed >> 16
        mixed = (word ^ xors[k + 1]) * mults[k + 1] & mask
        mixed = (left * p1 - right * (mixed ^ mixed >> 16)) & mask
        p1 = mixed ^ mixed >> 16
        mixed = (word ^ xors[k + 2]) * mults[k + 2] & mask
        mixed = (left * p2 - right * (mixed ^ mixed >> 16)) & mask
        p2 = mixed ^ mixed >> 16
        mixed = (word ^ xors[k + 3]) * mults[k + 3] & mask
        mixed = (left * p3 - right * (mixed ^ mixed >> 16)) & mask
        p3 = mixed ^ mixed >> 16
        k += _POOL_SIZE

    # generate_state: 4 uint64 words, each low half first
    state = []
    for word, (xor, mult) in zip((p0, p1, p2, p3, p0, p1, p2, p3),
                                 _STATE_STEPS):
        word = (word ^ xor) * mult & mask
        state.append(word ^ word >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """``numpy.random.default_rng(SeedSequence(seed,
    spawn_key=tuple(spawn_key)))`` — ``default_rng(seed)`` when the key
    is empty — for the scalar draws below and ``choice(n, size,
    replace=False)``; ``seed`` as :func:`check_seed` takes it."""

    __slots__ = ("_state", "_inc", "_upper")

    def __init__(self, seed: int, spawn_key: bytes = b"") -> None:
        s0, s1, i0, i1 = _seed_words(seed, spawn_key)
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

    def random(self) -> float:
        """A uniform float in ``[0, 1)`` (numpy's ``next_double``)."""
        return (self._next64() >> 11) * _2_TO_MINUS_53

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A uniform float in ``[low, high)``."""
        return low + (high - low) * ((self._next64() >> 11) * _2_TO_MINUS_53)

    def exponential(self, scale: float = 1.0) -> float:
        """``scale`` times a standard exponential draw."""
        return _check_scale(scale) * self._standard_exponential()

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """``loc`` plus ``scale`` times a standard normal draw."""
        return loc + _check_scale(scale) * self._standard_normal()

    def _standard_exponential(self) -> float:
        """numpy's ``random_standard_exponential``: the ziggurat on the
        top 61 bits of a 64-bit draw (8 of them pick the layer)."""
        _, _, _, ke, we, fe = _ziggurat or _load_ziggurat()
        while True:
            ri = self._next64() >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * we[idx]
            if ri < ke[idx]:
                return x
            if idx == 0:  # the tail, past the last layer
                return _EXP_R - log1p(-self.random())
            if (fe[idx - 1] - fe[idx]) * self.random() + fe[idx] < exp(-x):
                return x

    def _standard_normal(self) -> float:
        """numpy's ``random_standard_normal``: 8 bits of a 64-bit draw
        pick the layer, the next one the sign, the next 52 the abscissa."""
        ki, wi, fi, _, _, _ = _ziggurat or _load_ziggurat()
        while True:
            r = self._next64()
            idx = r & 0xFF
            r >>= 8
            rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
            x = rabs * wi[idx]
            if r & 1:
                x = -x
            if rabs < ki[idx]:
                return x
            if idx == 0:  # the tail, past the last layer
                while True:
                    xx = -_NORMAL_INV_R * log1p(-self.random())
                    yy = -log1p(-self.random())
                    if yy + yy > xx * xx:
                        return (-(_NORMAL_R + xx) if (rabs >> 8) & 1
                                else _NORMAL_R + xx)
            if (fi[idx - 1] - fi[idx]) * self.random() + fi[idx] \
                    < exp(-0.5 * x * x):
                return x

    def choice(self, a: int, size: Optional[int] = None,
               replace: bool = True) -> Union[int, List[int]]:
        """One int of ``range(a)`` when ``size`` is omitted (numpy's
        ``integers(0, a)``), else ``size`` distinct ones, in numpy's
        order."""
        if size is None:
            if not replace:
                raise NotImplementedError("a scalar draw is with replacement")
            if a <= 0:
                raise ValueError(f"cannot draw from an empty range({a})")
            return self._bounded(a - 1)
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
