"""Markov boundary noise for binary masks.

A noisy mask is produced from a clean one by T boundary steps followed by a
sparse flip pass:

* each step draws one coin (probability theta1) choosing expansion or
  shrinkage, then flips an independent theta2 coin at every site of the
  relevant boundary layer (background boundary when expanding, foreground
  boundary when shrinking); winners change label. Expansion and shrinkage
  therefore move the contour by at most one layer per step.
* after the steps (and an optional Gaussian smoothing of the intermediate
  mask) every *stable* site, one whose label survived all steps, flips with
  probability theta3. Sites the walk changed are never flipped.

Randomness is reproducible: a parameter set fixes the PCG64 stream and the
draw order is part of the contract. Per step, the expansion coin is drawn
first, then one coin per boundary site in row-major order; flip coins come
last, one per stable site in row-major order. Monte Carlo sample i draws
from the i-th child of ``SeedSequence(seed)``, so it is the same no matter
how many samples are drawn around it, or in which process. Building
each child's generator with ``default_rng`` cost more than a one-step walk,
so the Monte Carlo builds the children's PCG64 states itself, with the same
bits: the part of SeedSequence's hash that depends only on the seed is
computed once per call, the part that depends on the child's index, and
PCG's seeding arithmetic after it, run for up to 1,020 children at once in
numpy, and one generator takes each state in turn, its four words written
straight into its state struct. A caller that needs only a few bounded
integers from each child needs no generator at all: ``_child_outputs`` steps
the same states in numpy to each child's first outputs, and
``_ChildIntegers`` decodes them as ``Generator.integers`` would.

A step can change only its own boundary layer, so the walk keeps both layers
and after each step recomputes membership only at the flipped sites and
their neighbours. Apart from one pass over a boolean array that lists the
chosen layer's sites in row-major order, a step costs time in proportion to
its boundary band rather than to the grid. Monte Carlo samples share one
starting state: the first step's bands are built once per call, and come
with each band's sites already listed in row-major order, so the first step
scans nothing. Votes are tallied in uint8 and added to the int64 counts
every 255 samples, before a tally can wrap. A single step with no flips and
no smoothing, the setting of the one-step lemma, can change only the sites
of one layer that win their coin, so its Monte Carlo walks no grid at all:
it draws each sample's coins into one row of a block, and counts each
layer site's wins on the two layers' site lists. None of this changes the
draw order above.
"""

from __future__ import annotations

import configparser
import ctypes
import functools
import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._fanout import map_ranges
from .grid import as_mask, boundary_layer, dilate_one, erode_one

__all__ = [
    "MarkovNoiseParams",
    "PRESETS",
    "preset",
    "load_presets",
    "generate",
    "expected_label_mc",
    "bayes_mask_one_step",
]


@dataclass(frozen=True)
class MarkovNoiseParams:
    """Noise process parameters.

    steps: number of boundary steps (T >= 0).
    theta1: probability a step expands rather than shrinks.
    theta2: per-site probability a boundary site changes in a step.
    theta3: per-site flip probability on stable sites; must stay below 0.5
        or flipped sites would dominate their own signal.
    smooth_sigma: if positive, the mask after the steps is blurred with a
        Gaussian (truncated at 3 sigma) and re-thresholded at 0.5 before
        the flip pass.
    seed: base seed for the PCG64 stream.
    """

    steps: int
    theta1: float
    theta2: float
    theta3: float = 0.0
    smooth_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        for name in ("theta1", "theta2", "theta3"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.theta3 >= 0.5:
            raise ValueError(f"theta3 must be < 0.5, got {self.theta3}")
        if self.theta3 > 0.1:
            warnings.warn(f"theta3={self.theta3} is unusually high; flips will "
                          "dominate thin structures", stacklevel=2)
        if not 0 <= self.smooth_sigma < np.inf:  # so also not NaN
            raise ValueError(f"smooth_sigma must be finite and >= 0, got {self.smooth_sigma}")


def _p(steps, theta1, theta2, theta3):
    return MarkovNoiseParams(steps=steps, theta1=theta1, theta2=theta2, theta3=theta3)


PRESETS: dict[str, MarkovNoiseParams] = {
    "jsrt-lung-se": _p(180, 0.7, 0.03, 0.1),
    "jsrt-heart-se": _p(180, 0.7, 0.03, 0.1),
    "jsrt-clavicle-se": _p(100, 0.7, 0.03, 0.1),
    "jsrt-lung-ss": _p(200, 0.3, 0.05, 0.1),
    "jsrt-heart-ss": _p(200, 0.3, 0.05, 0.1),
    "jsrt-clavicle-ss": _p(120, 0.3, 0.05, 0.1),
    "isic-se": _p(200, 0.8, 0.05, 0.1),
    "isic-ss": _p(200, 0.2, 0.05, 0.1),
    "brats-se": _p(80, 0.7, 0.05, 0.1),
    "brats-ss": _p(80, 0.3, 0.05, 0.1),
    # desk-scale expansion/shrinkage pair for ~64x64 grids, not from the paper
    "tiny-se": _p(8, 0.8, 0.5, 0.02),
    "tiny-ss": _p(8, 0.2, 0.5, 0.02),
}


def preset(name: str) -> MarkovNoiseParams:
    """Look up a named parameter preset."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {name!r}; known presets: {known}") from None


def load_presets(path) -> dict[str, MarkovNoiseParams]:
    """Read presets from an INI-style file.

    Each ``[preset.NAME]`` section may set ``T``, ``theta1``, ``theta2``,
    ``theta3`` and ``smooth_sigma``; T, theta1 and theta2 are required,
    theta3 and smooth_sigma default to 0. Unknown sections or keys are
    rejected.
    """
    cp = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh, source=str(path))
    out: dict[str, MarkovNoiseParams] = {}
    for section in cp.sections():
        if not section.startswith("preset."):
            raise ValueError(f"{path}: unexpected section [{section}]")
        name = section[len("preset."):]
        if not name:
            raise ValueError(f"{path}: empty preset name")
        keys = set(cp[section])
        # configparser lowercases keys, so "T" arrives as "t"
        unknown = {k for k in keys if k not in {"t", "theta1", "theta2", "theta3", "smooth_sigma"}}
        if unknown:
            raise ValueError(f"{path}: unknown keys in [{section}]: {sorted(unknown)}")
        for req in ("t", "theta1", "theta2"):
            if req not in keys:
                raise ValueError(f"{path}: [{section}] is missing key {req.upper() if req == 't' else req}")
        sec = cp[section]
        try:
            out[name] = MarkovNoiseParams(
                steps=sec.getint("t"),
                theta1=sec.getfloat("theta1"),
                theta2=sec.getfloat("theta2"),
                theta3=sec.getfloat("theta3", fallback=0.0),
                smooth_sigma=sec.getfloat("smooth_sigma", fallback=0.0),
            )
        except ValueError as e:  # a value that does not parse, or that the params reject
            raise ValueError(f"{path}: [{section}]: {e}") from None
    return out


def _walk_state(mask: np.ndarray) -> tuple[np.ndarray, list, list]:
    """The walk's starting point: the mask as an int8 grid padded by one ring
    of -1 sites, its shrink and expand boundary layers padded with False, and
    each layer's sites as flat indices into the padded grid.

    The ring makes every in-grid site's neighbours addressable without edge
    cases or wrapping, and it holds no boundary site, so the row-major order
    of a padded layer's sites is that of the unpadded grid.
    """
    layers = [np.pad(boundary_layer(mask, expand), 1) for expand in (False, True)]
    return (np.pad(mask.astype(np.int8), 1, constant_values=-1), layers,
            [np.flatnonzero(a) for a in layers])


def _run_process(mask: np.ndarray, params: MarkovNoiseParams,
                 rng: np.random.Generator, state=None) -> np.ndarray:
    """Drive the full process with a caller-supplied generator.

    ``state`` is ``_walk_state(mask)`` for callers that walk one mask many
    times; it is read, never written.
    """
    grid, layers, start = _walk_state(mask) if state is None else state
    grid = grid.copy()
    if params.steps > 1:  # the last step leaves the layers as they are
        layers = [a.copy() for a in layers]
        strides = np.array(grid.strides)  # in sites: int8 takes one byte
        around = np.concatenate(([0], strides, -strides))  # a site, then its neighbours
    flat = grid.reshape(-1)
    bands = [a.reshape(-1) for a in layers]  # indexed by the expand coin
    for step in range(params.steps):
        expand = rng.random() < params.theta1
        # row-major draw order; the first step's sites come with the state
        sites = np.flatnonzero(bands[expand]) if step else start[expand]
        if sites.size:
            flipped = sites[rng.random(sites.size) < params.theta2]
            flat[flipped] = expand
            if flipped.size and step + 1 < params.steps:
                # only a flipped site and its neighbours can change layers
                near = (flipped[:, None] + around).reshape(-1)
                near = near[flat[near] >= 0]
                label = flat[near]
                nbrs = flat[around[1:, None] + near]  # one row per direction
                bands[0][near] = (label == 1) & (nbrs == 0).any(axis=0)
                bands[1][near] = (label == 0) & (nbrs == 1).any(axis=0)
    out = grid[(slice(1, -1),) * grid.ndim] == 1
    flat = out.reshape(-1)
    if params.smooth_sigma > 0:
        from scipy import ndimage  # only a smoothed walk needs scipy

        blurred = ndimage.gaussian_filter(out.astype(np.float64), params.smooth_sigma,
                                          mode="constant", cval=0.0, truncate=3.0)
        out = blurred >= 0.5
        flat = out.reshape(-1)
    if params.theta3 > 0:
        stable = np.flatnonzero(flat == mask.reshape(-1))  # row-major
        if stable.size:
            hit = stable[rng.random(stable.size) < params.theta3]
            flat[hit] = ~flat[hit]
    return out


def generate(mask, params: MarkovNoiseParams) -> np.ndarray:
    """Sample one noisy mask; identical inputs give identical output bits."""
    m = as_mask(mask)
    return _run_process(m, params, np.random.default_rng(params.seed))


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
        rows = np.flatnonzero(draws & (span > 1))
        while rows.size:
            while self.cursor[rows].max() >= self.stream.shape[1]:
                self._compute(self.stream.shape[1])
            scaled = self.stream[rows, self.cursor[rows]] * span[rows]
            self.cursor[rows] += 1
            value[rows] = scaled >> 32
            rows = rows[(scaled & _M32) < reject_below[rows]]
        return np.where(draws, low + value.astype(np.int64), 0)


# the samples that one more process pays for, on each of the two Monte
# Carlo paths. On a 64^2 disk of radius 16, 2 CPUs (medians of 21 and 31
# alternating calls in one process, one process against two, where the
# caller computes the first range and one forked helper the second): a
# one-step walk with theta3 = 0.05 takes 40-56 us a sample and broke even
# between 200 and 400 samples (9 and 10 ms at 200; 22 and 17 ms at 400; 24
# and 20 ms at 600; 44 and 31 ms at 1,000), while the one-step layer tally
# takes 1.9-3.2 us and broke even between 4,000 and 6,000 (6 and 13 ms at
# 2,000; 8 and 14 ms at 4,000; 18 and 14 ms at 6,000; 26 and 17 ms at
# 8,000; 34 and 32 ms at 16,000; a second run of 15 calls read 11 and 11
# ms at 6,000). So a walk forks from 800 samples and a tally from 4,000
_MC_GRAIN = 400
_TALLY_GRAIN = 2000


def _tallies(params: MarkovNoiseParams) -> bool:
    """Whether the Monte Carlo of ``params`` is one step with no flips and no
    smoothing, which ``_one_step_votes`` tallies without walking."""
    return params.steps == 1 and params.theta3 == 0 and params.smooth_sigma == 0


def _mc_votes(mask: np.ndarray, params: MarkovNoiseParams, state, entropy,
              lo: int, hi: int) -> np.ndarray:
    """Foreground votes of samples lo..hi-1; sample i draws from the i-th
    child of ``SeedSequence(entropy)``."""
    if _tallies(params):
        return _one_step_votes(params, state, entropy, lo, hi)
    counts = np.zeros(mask.shape, dtype=np.int64)
    children = _child_rngs(entropy, lo, hi)
    for first in range(lo, hi, 255):  # a uint8 tally holds 255 votes
        votes = np.zeros(mask.shape, dtype=np.uint8)
        for rng in islice(children, 255):
            votes += _run_process(mask, params, rng, state).view(np.uint8)
        counts += votes
    return counts


def _one_step_votes(params: MarkovNoiseParams, state, entropy, lo: int, hi: int) -> np.ndarray:
    """``_mc_votes`` of one step with no flips and no smoothing, tallied on
    the two boundary layers' site lists.

    Such a sample changes only the sites of one layer that win their coin,
    so it needs only its coins: the direction coin, then one per site of the
    chosen layer. A row of ``1 + max layer size`` doubles holds them, in the
    order the walk draws them (scalar and vector ``random`` both take one
    double at a time); the doubles past the chosen layer's size are never
    read. Votes are then the mask's own, once per sample, plus the expand
    hits on the background layer, minus the shrink hits on the foreground
    layer.
    """
    grid, _, start = state
    hits = [np.zeros(s.size, dtype=np.int64) for s in start]  # indexed by the expand coin
    rows = np.empty((min(255, hi - lo), 1 + max(s.size for s in start)))
    children = _child_rngs(entropy, lo, hi)
    for first in range(lo, hi, 255):
        block = rows[:min(255, hi - first)]
        for row, rng in zip(block, children):  # block first: no child is skipped
            rng.random(out=row)
        expand = block[:, 0] < params.theta1
        won = block[:, 1:] < params.theta2
        for side, chosen in ((0, ~expand), (1, expand)):
            hits[side] += won[chosen, :start[side].size].sum(axis=0)
    counts = (hi - lo) * (grid == 1)  # int64, on the walk's padded grid
    flat = counts.reshape(-1)
    flat[start[1]] += hits[1]
    flat[start[0]] -= hits[0]
    return counts[(slice(1, -1),) * grid.ndim]


def expected_label_mc(mask, params: MarkovNoiseParams, n_samples: int,
                      threads: int = 1) -> np.ndarray:
    """Per-site foreground frequency over independent noise draws.

    Sample i uses the i-th child seed of ``params.seed``, so results do not
    depend on n_samples beyond truncation; at most 2**32 samples. The call
    asks ``map_ranges`` for ``threads`` processes, this one among them, but
    for no more than one per ``_MC_GRAIN`` samples of a walk or
    ``_TALLY_GRAIN`` of a tally, and runs on at most one per CPU this
    process may use. Each works on a consecutive range of samples: this
    process computes the first range and a forked helper each other one.
    Integer vote counts make the sum exact, so the field is the same for
    every ``threads``.
    """
    m = as_mask(mask)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if n_samples > 2**32:  # sample 2**32 would need a second spawn-key word
        raise ValueError(f"n_samples must be <= 2**32, got {n_samples}")
    entropy = np.random.SeedSequence(params.seed).entropy
    state = _walk_state(m)  # every sample starts from the same bands
    if params.smooth_sigma > 0:
        # each sample smooths with scipy: import it before the fork, or each
        # helper pays about 0.35 s to import it anew
        import scipy.ndimage  # noqa: F401
    grain = _TALLY_GRAIN if _tallies(params) else _MC_GRAIN
    parts = map_ranges(_mc_votes, n_samples, min(threads, n_samples // grain),
                       m, params, state, entropy)
    return np.sum(parts, axis=0) / float(n_samples)  # integer sum: order-independent


def _one_step_regime(theta1: float, theta2: float) -> str:
    """``"expand"``, ``"shrink"`` or ``"identity"``: the one-step regime
    under the conditions that ``bayes_mask_one_step`` states. Raises
    ValueError for a theta outside [0, 1]."""
    for name, v in (("theta1", theta1), ("theta2", theta2)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {v}")
    if theta1 * theta2 >= 0.5:
        return "expand"
    if 1.0 + theta1 * theta2 - theta2 < 0.5:
        return "shrink"
    return "identity"


def bayes_mask_one_step(mask, theta1: float, theta2: float) -> np.ndarray:
    """Most-likely-label mask after a single noise step.

    A single step moves only boundary sites, so thresholding the expected
    noisy label at 1/2 yields the whole dilated mask when boundary sites are
    more likely on than off (theta1*theta2 >= 1/2), the eroded mask when
    foreground-boundary sites are more likely lost than kept
    (1 + theta1*theta2 - theta2 < 1/2), and the input mask otherwise. The
    two conditions are mutually exclusive.
    """
    regime = _one_step_regime(theta1, theta2)
    m = as_mask(mask)
    if regime == "expand":
        return dilate_one(m)
    if regime == "shrink":
        return erode_one(m)
    return m.copy()
