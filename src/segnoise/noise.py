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
from the i-th child of ``SeedSequence(seed)`` (see ``_seeds``) in any process.

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
import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._fanout import map_ranges
from ._seeds import _child_rngs
from .grid import _gaussian_blur, as_mask, boundary_layer, dilate_one, erode_one

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
        out = _gaussian_blur(out, params.smooth_sigma) >= 0.5
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
