"""Child generators of a seed: child i of ``SeedSequence(entropy)`` is
``default_rng(SeedSequence(entropy, spawn_key=(i,)))``.

Building each child's generator with ``default_rng`` cost more than a
one-step walk, so ``_child_rngs`` computes the children's PCG64 states with
the same bits: the part of SeedSequence's hash that depends only on the seed
once per call, the part that depends on the child's index and PCG's seeding
arithmetic for up to 1,020 children at once in numpy. One generator takes
each state in turn, its four words written straight into its state struct.
``_ChildIntegers`` draws a few bounded integers from each child with no
generator, from its first outputs (``_child_outputs``), and then places a
generator just past each child's words for the draws that follow.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = _PCG64_MULT >> 64, _PCG64_MULT & _M64
# a PCG64 state whose four words and uinteger are six distinct values
_PROBE = {"bit_generator": "PCG64",
          "state": {"state": 0x0123456789ABCDEF_FEDCBA9876543210,
                    "inc": 0x0F1E2D3C4B5A6978_8796A5B4C3D2E1F1},
          "has_uint32": 1, "uinteger": 0x9E3779B9}


def _words(entropy) -> list[int]:
    """``entropy`` as SeedSequence reads it: 32-bit words, least significant
    first, an integer's words followed by those of the next."""
    if isinstance(entropy, (int, np.integer)):
        n = int(entropy)
        return [n >> (32 * k) & _M32 for k in range(max(1, (n.bit_length() + 31) // 32))]
    return [w for e in entropy for w in _words(e)]


def _layout_error(what: str) -> RuntimeError:
    return RuntimeError(f"numpy {np.__version__}: PCG64 does not keep its {what} where "
                        "segnoise looks for it, so child generators cannot be seeded")


def _in_object(bit_generator, address: int, ctype):
    """A ``ctype`` over the memory at ``address``, which must lie wholly
    inside ``bit_generator``'s own object; RuntimeError otherwise."""
    start = id(bit_generator)  # in CPython, the object's address
    if not start <= address <= start + type(bit_generator).__basicsize__ - ctypes.sizeof(ctype):
        raise _layout_error("state")
    return ctype.from_address(address)


def _find(values, value, what: str) -> int:
    """The one index of ``value`` in ``values``; RuntimeError unless it occurs once."""
    values = list(values)
    if values.count(value) != 1:
        raise _layout_error(what)
    return values.index(value)


@functools.cache
def _pcg64_layout() -> tuple[int, int, int, list[int]]:
    """Where a PCG64 keeps its state, learned once per process from the
    public setter.

    The struct at ``ctypes.state_address`` holds a pointer to the four
    64-bit state words, then ``has_uint32`` and ``uinteger``. Returns the
    pointer's 8-byte slot in that struct, the 4-byte slots of ``has_uint32``
    and ``uinteger``, and the word slots of the state's high and low words
    and then the increment's. A probe is set to ``_PROBE``, and each value
    must be found exactly once, in the probe's own memory; ``has_uint32`` is
    the slot that setting it from 0 to 1 changes. Anything else raises
    RuntimeError naming numpy's version, before any child is seeded.
    """
    probe = np.random.PCG64(0)
    address = probe.ctypes.state_address
    slots = _in_object(probe, address, ctypes.c_uint32 * 4)
    probe.state = dict(_PROBE, has_uint32=0)
    cleared = list(slots)
    probe.state = _PROBE
    has_uint32 = _find([a - b for a, b in zip(slots, cleared)], 1, "has_uint32")
    uinteger = _find(slots, _PROBE["uinteger"], "uinteger")
    pointer = {0, 1} - {has_uint32 // 2, uinteger // 2}
    if len(pointer) != 1:
        raise _layout_error("state pointer")
    pointer = pointer.pop()
    words = _in_object(probe, (ctypes.c_uint64 * 2).from_address(address)[pointer],
                       ctypes.c_uint64 * 4)
    state, inc = _PROBE["state"]["state"], _PROBE["state"]["inc"]
    order = [_find(words, v, "state words")
             for v in (state >> 64, state & _M64, inc >> 64, inc & _M64)]
    return pointer, has_uint32, uinteger, order


def _add128(a_hi, a_lo, b_hi, b_lo):
    """``(a + b) mod 2**128`` on (high, low) uint64 words. The low words'
    halves cannot wrap when summed, so that sum's top bit is their carry."""
    carry = ((a_lo >> 1) + (b_lo >> 1) + (a_lo & b_lo & 1)) >> 63
    return a_hi + b_hi + carry, a_lo + b_lo


def _times_mult(hi, lo):
    """``(hi << 64 | lo) * _PCG64_MULT mod 2**128`` on (high, low) uint64
    words. The low words' full product is summed from 32-bit halves, whose
    partial sums cannot wrap, rather than with carries found by comparing:
    a uint64 comparison is numpy code that the noise walk never runs, and
    loading it cost 128 kB of resident memory."""
    m1, m0 = _MULT_LO >> 32, _MULT_LO & _M32
    l1, l0 = lo >> 32, lo & _M32
    low, cross, cross2 = l0 * m0, l0 * m1, l1 * m0
    mid = (low >> 32) + (cross & _M32) + (cross2 & _M32)
    product_hi = l1 * m1 + (cross >> 32) + (cross2 >> 32) + (mid >> 32)
    return (product_hi + hi * _MULT_LO + lo * _MULT_HI,
            mid << 32 | low & _M32)


def _child_states(words: list[int], lo: int, hi: int):
    """The PCG64 states of ``default_rng(SeedSequence(entropy,
    spawn_key=(i,)))`` for i in lo..hi-1, where ``words`` is
    ``_words(entropy)``: four uint64 arrays, the state's high and low words,
    then the increment's.

    SeedSequence hashes the run entropy, padded to 4 words, into a 4-word
    pool, mixes the pool's words together, then mixes in any entropy words
    beyond the fourth and last the spawn-key word. Everything before that
    word is the same for every child, so it runs once on Python ints; the
    last mix and ``generate_state(4, uint64)`` run for all i at once in
    uint64 arithmetic masked to 32 bits. PCG64 takes the 4 words as
    initstate ``s0<<64|s1`` and initseq ``s2<<64|s3`` and runs PCG's
    srandom, ``inc = initseq<<1 | 1`` and ``state = (inc + initstate) * mult
    + inc`` mod 2**128, done here on the high and low words.
    """
    if hi > 2**32:  # child 2**32 would need a second spawn-key word
        raise ValueError(f"child indices must be below 2**32, got up to {hi - 1}")

    def hasher(hash_const, mult):
        def hashmix(value):  # a new value: never in place, arrays included
            nonlocal hash_const
            value = value ^ hash_const
            hash_const = hash_const * mult & _M32
            value = value * hash_const & _M32
            return value ^ value >> 16
        return hashmix

    def mix(x, y):
        result = (0xca01f9dd * x - 0x4973f715 * y) & _M32
        return result ^ result >> 16

    hashmix = hasher(0x43b0d7e5, 0x931e8875)
    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        pool = [mix(p, hashmix(w)) for p in pool]
    # from here the same operations run on a uint64 array of spawn-key words
    key = np.arange(lo, hi, dtype=np.uint64)
    pool = [mix(p, hashmix(key)) for p in pool]
    scramble = hasher(0x8b51f9dd, 0x58f38ded)
    halves = [scramble(pool[k % 4]) for k in range(8)]  # generate_state's 8 words
    s0, s1, s2, s3 = (halves[2 * k] | halves[2 * k + 1] << 32 for k in range(4))  # little-endian
    inc_hi, inc_lo = s2 << 1 | s3 >> 63, s3 << 1 | 1
    state = _times_mult(*_add128(inc_hi, inc_lo, s0, s1))
    return (*_add128(*state, inc_hi, inc_lo), inc_hi, inc_lo)


# children seeded per block: a numpy operation on 1,020 words costs about
# 1.2 times one on 255, and a block's arrays and Python ints stay under 300 kB
_SEED_BLOCK = 1020


def _child_rngs(entropy, lo: int, hi: int):
    """One generator, set in turn to the state of
    ``default_rng(SeedSequence(entropy, spawn_key=(i,)))`` for i in lo..hi-1
    (hi <= 2**32, so that i is one word), and yielded after each.

    ``_child_states`` computes the states ``_SEED_BLOCK`` children at a time.
    Each child's four words are written straight into the generator's state
    struct, and its ``has_uint32`` and ``uinteger`` reset to 0, as the public
    ``state`` setter would; so no buffered 32-bit half passes from one child
    to the next. ``_pcg64_layout`` says where those values live, and raises
    RuntimeError, before the first child, on a layout it does not recognise.
    """
    words = _words(entropy)
    pointer, has_uint32, uinteger, order = _pcg64_layout()
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    address = bit_generator.ctypes.state_address
    slots = _in_object(bit_generator, address, ctypes.c_uint32 * 4)
    state = _in_object(bit_generator, (ctypes.c_uint64 * 2).from_address(address)[pointer],
                       ctypes.c_uint64 * 4)
    for first in range(lo, hi, _SEED_BLOCK):
        last = min(first + _SEED_BLOCK, hi)
        block = np.empty((last - first, 4), dtype=np.uint64)
        block[:, order] = np.stack(_child_states(words, first, last), axis=1)
        for row in block.tolist():
            state[:] = row
            slots[has_uint32] = slots[uinteger] = 0
            yield rng


def _child_outputs(words: list[int], lo: int, hi: int, k: int) -> np.ndarray:
    """The first ``k`` 64-bit outputs of each child lo..hi-1 of
    ``_child_states``, one row per child: what its generator's
    ``bit_generator.random_raw(k)`` returns. Each output steps the state,
    ``state * mult + inc`` mod 2**128, and then takes PCG64's XSL-RR of it:
    the high and low words xor'ed, rotated right by the state's top 6 bits."""
    s_hi, s_lo, inc_hi, inc_lo = _child_states(words, lo, hi)
    out = np.empty((hi - lo, k), dtype=np.uint64)
    for j in range(k):
        s_hi, s_lo = _add128(*_times_mult(s_hi, s_lo), inc_hi, inc_lo)
        x, turn = s_hi ^ s_lo, s_hi >> 58
        out[:, j] = x >> turn | x << (64 - turn & 63)
    return out


class _ChildIntegers:
    """``Generator.integers(low, high)`` for each child lo..hi-1 of
    ``SeedSequence(entropy)`` at once, drawn from the children's words as
    their generators would draw them.

    A fresh child buffers no 32-bit half, so its 32-bit words are the low
    and then the high half of each output. A range of n = high - low values,
    n below 2**32, takes Lemire's bounded method, as numpy does: a word x
    gives ``x * n``, whose high half is the draw unless its low half falls
    below ``2**32 mod n``, in which case that child takes its next word and
    tries again. A range of one value takes no word. ``cursor`` holds each
    child's next place in ``stream``; a child runs out of computed words
    only after rejections, and then twice as many outputs are computed.
    """

    def __init__(self, entropy, lo: int, hi: int, words: int):
        self.entropy, self.lo, self.hi = _words(entropy), lo, hi
        self.cursor = np.zeros(hi - lo, dtype=np.intp)
        self._compute((words + 1) // 2)

    def _compute(self, k: int):
        out = _child_outputs(self.entropy, self.lo, self.hi, k)
        self.stream = np.stack((out & _M32, out >> 32), axis=-1).reshape(len(out), 2 * k)

    def integers(self, low, high, draws=True) -> np.ndarray:
        """One draw per child where ``draws`` holds, from ``low`` to
        ``high`` - 1 (scalars or int64 arrays, one per child); 0 elsewhere."""
        span = np.broadcast_to(np.asarray(high, dtype=np.int64) - low, self.cursor.shape)
        if span.size and span.max() >= 1 << 32:  # numpy draws those some other way
            raise ValueError(f"a range of {span.max()} values is too wide to draw")
        span = span.astype(np.uint64)
        reject_below = (1 << 32) % span  # numpy's threshold
        value = np.zeros(self.cursor.shape, dtype=np.uint64)
        # no integer arrays are compared: `segnoise synth` of 64^3 volumes peaks
        # before any other such comparison, and numpy's loops added 192 kB there
        rows = np.flatnonzero(np.where(draws, span >> 1, 0))  # 2 or more values
        while rows.size:
            while self.cursor[rows].max() >= self.stream.shape[1]:
                self._compute(self.stream.shape[1])
            scaled = self.stream[rows, self.cursor[rows]] * span[rows]
            self.cursor[rows] += 1
            value[rows] = scaled >> 32
            # a low half below the threshold wraps when it is subtracted
            rows = rows[np.flatnonzero(((scaled & _M32) - reject_below[rows]) >> 63)]
        return np.where(draws, low + value.astype(np.int64), 0)

    def rngs(self):
        """One generator, set in turn to each child's state after the
        ``integers`` calls so far, and yielded after each. ``cursor`` words
        are ``(cursor + 1) // 2`` outputs; a generator keeps the last one's
        high half in ``uinteger``, unread (``has_uint32``) after an odd count."""
        children = _child_rngs(self.entropy, self.lo, self.hi)
        for rng, used, words in zip(children, self.cursor.tolist(), self.stream):
            rng.bit_generator.advance((used + 1) // 2)
            if used:
                rng.bit_generator.state = dict(rng.bit_generator.state, has_uint32=used % 2,
                                               uinteger=int(words[used - 1 | 1]))
            yield rng
