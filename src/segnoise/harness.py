"""Synthetic fixtures and empirical verification harnesses.

Everything here is seeded and deterministic: fixtures derive one child seed
per image, Monte Carlo verdicts accumulate integer counts, and report
artifacts contain no volatile values, so a rerun with the same arguments
reproduces every byte.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from ._fanout import map_ranges
from ._seeds import _SEED_BLOCK, _ChildIntegers
from .bound import ValidationBoundInputs, required_validation_size
from .correct import CorrectionParams, spatial_correction
from .formats import save_csv
from .grid import _gaussian_blur, as_mask, dice, threshold
from .model import LogisticSegmenter, TrainConfig
from .noise import (MarkovNoiseParams, _one_step_regime, bayes_mask_one_step, expected_label_mc,
                    generate)
from .sdf import DegenerateMaskError, signed_distance

__all__ = [
    "SynthSpec",
    "synth_masks",
    "synth_dataset",
    "centered_disk",
    "TrialReport",
    "write_trial_report",
    "verify_bayes_mask",
    "verify_validation_bound",
    "PipelineResult",
    "run_pipeline",
    "sweep",
]


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic segmentation dataset description.

    Masks are random blobs (single balls or unions of 1-3 axis-aligned
    ellipses) kept at least 2 sites (``_MARGIN``) away from the grid edge.
    Images are ``contrast * blur(mask) + N(0, noise_sigma)``. The optional
    ``holes=(count, radius)`` punches that many interior background balls
    into every mask, each fully surrounded by foreground. Mask i draws from
    the i-th child seed, so ``count`` is at most 2**32.
    """

    count: int
    shape: tuple[int, ...]
    family: str = "disks"
    contrast: float = 1.0
    blur_sigma: float = 1.5
    noise_sigma: float = 0.3
    holes: tuple[int, int] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.count > 2**32:  # mask 2**32 would need a second spawn-key word
            raise ValueError(f"count must be <= 2**32, got {self.count}")
        if len(self.shape) not in (2, 3):
            raise ValueError(f"shape must be 2D or 3D, got {self.shape}")
        if min(self.shape) < 12:
            raise ValueError("extents below 12 leave no room for shapes with margin")
        if self.family not in ("disks", "ellipse-unions"):
            raise ValueError(f"unknown family {self.family!r}")
        if not 0 < self.contrast < math.inf:  # so also not NaN
            raise ValueError(f"contrast must be finite and positive, got {self.contrast}")
        for name in ("blur_sigma", "noise_sigma"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.holes is not None:
            hc, hr = self.holes
            if hc < 1 or hr < 1:
                raise ValueError("holes=(count, radius) must both be >= 1")


# sites between every synthetic shape and the grid's edge
_MARGIN = 2


def _ball(shape: tuple[int, ...], center: Sequence[float],
          radii: Sequence[float]) -> np.ndarray:
    # the quadric is evaluated on the ball's bounding box widened by one
    # site; beyond it one term alone exceeds 1
    box = tuple(slice(max(0, math.floor(c - r) - 1), min(e, math.ceil(c + r) + 2))
                for e, c, r in zip(shape, center, radii))
    grids = np.ogrid[box]
    q = sum(((g - c) / r) ** 2 for g, c, r in zip(grids, center, radii))
    out = np.zeros(shape, dtype=bool)
    np.less_equal(q, 1.0, out=out[box])
    return out


def _paint(shape: tuple[int, ...], balls) -> np.ndarray:
    """The union of ``balls``, each an integer ``(center, radii)``, on a grid of
    ``shape``; a ball's bits depend only on its radii and where its center
    sits on the grid."""
    mask = np.zeros(shape, dtype=bool)
    for center, radii in balls:
        mask |= _ball(shape, center, radii)
    return mask


def _drawn_masks(spec: SynthSpec, images: bool) -> Iterator[tuple[np.ndarray, np.random.Generator]]:
    """Each mask of ``spec``, its ``_batch_balls`` shapes painted and then
    holed, with the generator that drew the hole centers. A mask's generator
    is placed only where holes or, with ``images``, an image reads it; None
    stands in for it elsewhere."""
    for lo in range(0, spec.count, _POOL_BLOCK):
        centers, radii, rngs = _batch_balls(spec, lo, min(lo + _POOL_BLOCK, spec.count))
        if not images and spec.holes is None:
            rngs = itertools.repeat(None)
        for cs, rs, rng in zip(centers.tolist(), radii.tolist(), rngs):
            mask = _paint(spec.shape, [(c, r) for c, r in zip(cs, rs) if r[0]])
            if spec.holes is not None:
                hc, hr = spec.holes
                depth_needed = hr + 2  # hole stays strictly interior: a full FG layer survives
                candidates = np.flatnonzero(signed_distance(mask) <= -depth_needed)
                if candidates.size < hc:
                    raise ValueError(f"mask too small for {hc} holes of radius {hr}")
                for flat in rng.choice(candidates, size=hc, replace=False):
                    center = np.array(np.unravel_index(flat, spec.shape), dtype=float)
                    mask &= ~_ball(spec.shape, center, np.full(len(spec.shape), float(hr)))
            yield mask, rng


def synth_masks(spec: SynthSpec) -> Iterator[np.ndarray]:
    """The masks of synth_dataset(spec), without the images: shapes drawn per
    ``_POOL_BLOCK`` masks, each mask painted when the iteration reaches it."""
    return (mask for mask, _ in _drawn_masks(spec, images=False))


def synth_dataset(spec: SynthSpec) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Generate (images, masks). Image i continues mask i's child stream."""
    images, masks = [], []
    for mask, rng in _drawn_masks(spec, images=True):
        clean = spec.contrast * (_gaussian_blur(mask, spec.blur_sigma)
                                 if spec.blur_sigma > 0 else mask.astype(np.float64))
        img = clean + spec.noise_sigma * rng.standard_normal(spec.shape)
        images.append(img)
        masks.append(mask)
    return images, masks


def centered_disk(shape: tuple[int, ...], radius: int | None = None) -> np.ndarray:
    """Deterministic centered ball fixture (radius defaults to min extent / 4,
    and must be at least 1)."""
    if radius is None:
        radius = max(2, min(shape) // 4)
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    center = np.array([(e - 1) / 2.0 for e in shape])
    return _ball(tuple(shape), center, np.full(len(shape), float(radius)))


# ---------------------------------------------------------------------------
# reports


@dataclass
class TrialReport:
    """Outcome of one verification run."""

    name: str
    passed: bool
    seed: int
    params: dict
    measurements: dict

    def rows(self) -> list[tuple[str, str]]:
        def fmt(v) -> str:
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, float):
                return repr(v)
            return str(v)

        out = [("name", self.name), ("passed", fmt(self.passed)), ("seed", str(self.seed))]
        out += [(f"params.{k}", fmt(v)) for k, v in self.params.items()]
        out += [(f"measurements.{k}", fmt(v)) for k, v in self.measurements.items()]
        return out


def write_trial_report(report: TrialReport, path) -> None:
    save_csv(path, ["key", "value"], report.rows())


# ---------------------------------------------------------------------------
# harness 1: one-step expected label vs the closed-form most-likely mask


def verify_bayes_mask(mask, theta1: float, theta2: float, theta3: float,
                      n_samples: int, *, seed: int = 0, threads: int = 1) -> TrialReport:
    """Monte Carlo check of the one-step most-likely-label mask.

    Estimates the per-site foreground frequency over ``n_samples`` single
    step draws, thresholds it at 1/2, and compares with
    ``bayes_mask_one_step`` on every *decided* site: a site is undecided
    when its frequency lies within 3 binomial standard errors of 1/2, where
    a vote either way would be noise. A mask with no boundary (all
    foreground or all background) raises DegenerateMaskError: no site of it
    can move, so every site would pass as decided.
    """
    m = as_mask(mask)
    if m.all() or not m.any():
        raise DegenerateMaskError("mask is all foreground or all background; "
                                  "a one-step check needs a boundary")
    params = MarkovNoiseParams(steps=1, theta1=theta1, theta2=theta2,
                               theta3=theta3, seed=seed)
    mean = expected_label_mc(m, params, n_samples, threads=threads)
    expected = bayes_mask_one_step(m, theta1, theta2)
    sigma = np.sqrt(mean * (1.0 - mean) / n_samples)
    decided = np.abs(mean - 0.5) > 3.0 * sigma
    mc_mask = mean >= 0.5
    disagree = int((decided & (mc_mask != expected)).sum())
    return TrialReport(
        name="bayes-mask-one-step",
        passed=disagree == 0,
        seed=seed,
        params={"theta1": theta1, "theta2": theta2, "theta3": theta3,
                "n_samples": n_samples, "grid": "x".join(map(str, m.shape))},
        measurements={"regime": _one_step_regime(theta1, theta2),
                      "decided_fraction": float(decided.mean()),
                      "n_decided": int(decided.sum()),
                      "n_sites": int(m.size),
                      "n_disagree": disagree},
    )


# ---------------------------------------------------------------------------
# harness 2: empirical check of the validation-set size bound


def draw_offsets(rng: np.random.Generator, n: int, eps0: float, eps1: float) -> np.ndarray:
    """Per-image offsets; hit coins are drawn first, then sign coins.

    Offset i is ``sign * eps1 * b`` with ``b ~ Bernoulli(eps0/eps1)`` and a
    fair sign coin, so the mean magnitude is eps0 and none exceeds eps1.
    """
    if eps1 == 0:
        # eps0 <= eps1 forces eps0 == 0: every offset is exactly zero
        return np.zeros(n)
    hit = rng.random(n) < (eps0 / eps1)
    sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return sign * eps1 * hit


# the sites of the pool's distinct crops that one more process pays for. A
# crop costs about 0.1 us per site at 256^2 and up to 1 us at 32^2, where
# each crop's fixed cost dominates, so the break-even falls with the grid. Medians of alternating
# calls of _pool_gaps in one process against two (the caller and one forked
# helper), 2 CPUs, 15 calls each: 256^2 disks 132 and 128 ms at 0.35 M sites
# (two faster in 4 of 15); 256^2 ellipse unions 50 and 40 ms at 0.52 M, 67
# and 47 ms at 0.69 M; 32^2 ellipse unions 214 and 179 ms at 0.19 M. Over 9
# calls: 32^2 ellipse unions 22 and 36 ms at 0.03 M, 111 and 110 ms at 0.10
# M; 64^2 ellipse unions 81 and 73 ms at 0.19 M; 32^3 ellipse unions 74 and
# 57 ms at 0.44 M. So this grain forks at no loss, while a small grid
# forgoes up to a sixth below it. Every 256^2 disk pool has at most 33
# distinct crops, 0.35 M sites, and never forks
_POOL_SITE_GRAIN = 400_000


def _crop_shape(balls) -> tuple[int, ...]:
    """The shape of the crop whose shapes are ``balls``, their centers
    relative to it: each axis ends 2 sites past the last shape's end."""
    return tuple(max(c[a] + r[a] for c, r in balls) + 3 for a in range(len(balls[0][0])))


def _crop_gaps(keys: list, theta1: float, theta2: float, lo: int, hi: int) -> list:
    """``(edge sums, min gap, max gap)`` of the crops ``keys[lo:hi]`` of
    ``_pool_gaps``, each given by its shapes' centers relative to it and
    their radii."""
    out = []
    for balls in keys[lo:hi]:
        mask = _paint(_crop_shape(balls), balls)
        likely = bayes_mask_one_step(mask, theta1, theta2)
        diff = signed_distance(likely) - signed_distance(mask)
        sums = diff
        for _ in range(diff.ndim):
            # the last axis becomes a leading axis of 3: its sum, first, last
            sums = np.stack((sums.sum(axis=-1), sums[..., 0], sums[..., -1]))
        out.append((sums, diff.min(), diff.max()))
    return out


def _batch_balls(spec: SynthSpec, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, Iterator]:
    """The shapes of masks lo..hi-1 of ``synth_masks(spec)``, drawn at once
    from their child words as ``Generator.integers`` draws them. Draw order
    (normative for reproducibility): shape count (ellipse unions only), then
    per shape the radius/semi-axes per axis, then the center per axis. Along
    each axis a shape covers ``center - r`` to ``center + r``, at least
    ``_MARGIN`` sites from the grid's edge.

    Returns int64 arrays of centers and radii, one row per mask, one column
    per shape slot (1 for disks, 3 for ellipse unions; radii 0 in a mask's
    unused slots) and one entry per axis; then ``_ChildIntegers.rngs``, each
    mask's generator past its shape words, which seeds nothing until read.

    Raises ValueError on a grid side that gives a center 2**32 or more
    values to take, which numpy draws some other way."""
    ndim = len(spec.shape)
    r_lo = max(2, min(spec.shape) // 8)
    r_hi = max(r_lo, min(spec.shape) // 4)
    for e in spec.shape:  # the least radius leaves a center the most values
        if e - 2 * (_MARGIN + r_lo) >= 2**32:
            raise ValueError(f"grid side {e} is too long for the shape draw")
    disks = spec.family == "disks"
    slots = 1 if disks else 3
    draws = _ChildIntegers(np.random.SeedSequence(spec.seed).entropy, lo, hi,
                           1 + ndim if disks else 1 + slots * 2 * ndim)
    count = 1 if disks else draws.integers(1, 4)
    centers = np.zeros((hi - lo, slots, ndim), dtype=np.int64)
    radii = np.zeros_like(centers)
    for s in range(slots):
        drawn = np.array([c > s for c in range(4)])[count]  # count > s; see _ChildIntegers.integers
        if disks:
            radii[:, s] = draws.integers(r_lo, r_hi + 1)[:, None]
        else:
            for a in range(ndim):
                radii[:, s, a] = draws.integers(r_lo, r_hi + 1, drawn)
        for a, e in enumerate(spec.shape):
            r = radii[:, s, a]
            centers[:, s, a] = draws.integers(_MARGIN + r, e - _MARGIN - r, drawn)
    return centers, radii, draws.rngs()


# masks whose shapes one _batch_balls call draws, and one pass of _pool_gaps
# weighs: its largest array, a 3-D mask's 27 edge sums, takes under 1 MB
_POOL_BLOCK = 4 * _SEED_BLOCK


def _pool_gaps(spec: SynthSpec, theta1: float, theta2: float) -> np.ndarray:
    """Rows mean, min and max of the SDF gap between the one-step
    most-likely mask and the clean mask, one column per mask of
    ``synth_masks(spec)``, for a spec without holes.

    Each mask's shapes are drawn but not painted on the grid. The mask is
    cropped to its foreground box grown by 2 sites: along each axis, the
    sites ``min(center - r) - 2`` to ``max(center + r) + 2`` over its
    shapes. Every shape keeps ``_MARGIN`` = 2 sites from the grid's edge, so
    the crop lies inside the grid, and everything is computed on the crop,
    with the same bits as over the whole grid:

    * The most-likely mask is the mask, its erosion or its dilation, so its
      foreground lies within the box grown by 1, and the two masks differ
      only inside the crop. Every site within one step of a foreground site
      lies within the box grown by 1, so its neighbours lie in the crop, and
      the one-step morphology of the crop sees the same neighbours as on the
      grid. Both masks' boundary layers L lie within one step of their
      foreground, so inside the crop, and a crop's signed distance equals
      the full one on the crop.
    * A site x outside the crop is background in both masks, as is the crop
      site p that x clips to, and |phi(x)| = 1 + |x-p|_1 + d(p, L) in both
      fields (see ``sdf``). So x repeats p's gap, and min and max over the
      crop are those over the grid.
    * The mean weights each crop site by the number of grid sites that clip
      to it: the outer product of per-axis multiplicities, each 1, plus
      ``start`` at the crop's first index and ``n - stop`` at its last.
      Every gap is an integer, so the weighted sum is exact, and dividing it
      by the grid size gives the bits of ``diff.mean()`` over the grid.

    The shapes are drawn by ``_batch_balls``, ``_POOL_BLOCK`` masks at a
    time, as for ``synth_masks``, with no generator per mask.

    A crop's bits depend only on its shapes' radii and their centers
    relative to the crop, so those integers, one row per mask, key the crop:
    each distinct row, in sorted order, is painted and computed once per
    call, and a mask that repeats one is never painted. Its position enters
    only through the weights, and the weighted sum splits by axis: along
    each axis, the sum over the whole axis plus ``start`` times the first
    index plus ``n - stop`` times the last. So a distinct crop keeps only
    min, max and the 3^ndim sums that take the whole axis, the first or the
    last index along each axis; each mask's mean contracts those sums with
    the per-axis vectors ``(1, start, n - stop)``. Every term is an integer
    below 2^53, so each order of additions gives the same bits as the
    weighted sum over the crop.

    The distinct crops are computed in ``map_ranges``, which is asked for
    one process, this one among them, per ``_POOL_SITE_GRAIN`` of their
    sites.
    """
    ndim = len(spec.shape)
    starts, stops, keys = [], [], []
    for lo in range(0, spec.count, _POOL_BLOCK):
        centers, radii, _ = _batch_balls(spec, lo, min(lo + _POOL_BLOCK, spec.count))
        drawn = radii[..., :1] > 0  # an empty slot bounds no crop
        start = np.where(drawn, centers - radii, spec.shape).min(axis=1) - 2
        starts.append(start)
        stops.append(np.where(drawn, centers + radii, 0).max(axis=1) + 3)
        relative = np.where(drawn, centers - start[:, None], 0)
        keys.append(np.concatenate((relative, radii), axis=2).reshape(len(start), -1))
    rows, place = np.unique(np.concatenate(keys), axis=0, return_inverse=True)
    place = place.reshape(-1)
    keys = [[(tuple(c), tuple(r)) for c, r in row if r[0]]
            for row in rows.reshape(len(rows), -1, 2, ndim).tolist()]
    shapes = [_crop_shape(key) for key in keys]
    sites = sum(map(math.prod, shapes))
    parts = map_ranges(_crop_gaps, len(keys), sites // _POOL_SITE_GRAIN, keys, theta1, theta2)
    crops = [crop for part in parts for crop in part]
    sums = np.stack([total for total, _, _ in crops])
    start, stop = np.concatenate(starts), np.concatenate(stops)
    out = np.empty((3, spec.count))
    out[1:] = np.array([(low, high) for _, low, high in crops]).T[:, place]
    for lo in range(0, spec.count, _POOL_BLOCK):
        block = slice(lo, lo + _POOL_BLOCK)
        total = sums[place[block]]
        for a, n in enumerate(spec.shape):  # sums out the leading axis
            total = total.reshape(len(total), 3, -1)
            total = (total[:, 0] + start[block, a, None] * total[:, 1]
                     + (n - stop[block, a, None]) * total[:, 2])
        out[0, block] = total.reshape(-1) / math.prod(spec.shape)
    return out


def verify_validation_bound(inputs: ValidationBoundInputs, n_trials: int, *,
                            theta1: float = 0.7, theta2: float = 0.9,
                            holdout: int = 200, family: str = "disks",
                            seed: int = 0) -> TrialReport:
    """Empirically test the validation-size bound on a synthetic pool.

    Builds a pool of clean masks on the square grid of
    ``inputs.image_size`` sites, whose "predictor" is the one-step
    most-likely mask's SDF plus a controlled per-image offset (mean
    magnitude eps0, sup eps1). Each trial re-draws the offsets, samples the
    bound's V validation images, estimates the bias as the grand mean of
    per-image mean SDF gaps, and measures the residual sup error on the
    held-out images. A trial fails when the held-out mean sup error exceeds
    eps + eps0; the run passes unless the one-sided exact binomial test is
    95% confident the failure rate exceeds alpha.

    Per-trial draw order: offset hit coins, offset sign coins, then the
    pool permutation. Pool mask i is drawn from the i-th child seed, as in
    ``synth_masks``, so the pool holds at most 2**32 masks; it is built in up to one process per CPU
    this process may use, and the report is the same for every CPU count.
    In the identity regime the most-likely mask is the mask itself, so every
    gap is exactly 0 and no pool is built.
    """
    regime = _one_step_regime(theta1, theta2)  # checks both thetas first
    if inputs.alpha > 1.0:
        raise ValueError("alpha must be <= 1 for an empirical failure-rate test")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if holdout < 1:
        raise ValueError("holdout must be >= 1")
    side = math.isqrt(inputs.image_size)
    if side * side != inputs.image_size:
        raise ValueError(f"image_size must be a perfect square, got {inputs.image_size}")
    v_needed = required_validation_size(inputs)
    if v_needed < 1:
        raise ValueError("the bound asks for zero validation images; nothing to verify")
    pool_size = v_needed + holdout
    if pool_size > 2**32:  # as SynthSpec, but naming what makes the pool
        raise ValueError(f"the pool of v_required + holdout = {v_needed} + {holdout} "
                         "masks must hold at most 2**32")

    pool_ss, trial_ss = np.random.SeedSequence(seed).spawn(2)
    spec = SynthSpec(count=pool_size, shape=(side, side), family=family,
                     seed=int(pool_ss.generate_state(1)[0]))
    if regime == "identity":
        # the most-likely mask is the mask itself: every gap is exactly 0
        gaps = lo = hi = np.zeros(pool_size)
    else:
        try:
            gaps, lo, hi = _pool_gaps(spec, theta1, theta2)
        except MemoryError:  # a crop spans up to half the grid along each axis
            raise ValueError(f"the pool of {pool_size} masks on a {side}x{side} grid "
                             f"(image_size {inputs.image_size}) needs more memory than "
                             "is available") from None

    failures = 0
    error_sum = 0.0
    fail_threshold = inputs.eps + inputs.eps0
    for child in trial_ss.spawn(n_trials):
        rng = np.random.default_rng(child)
        offs = draw_offsets(rng, pool_size, inputs.eps0, inputs.eps1)
        perm = rng.permutation(pool_size)
        val, held = perm[:v_needed], perm[v_needed:]
        delta_hat = float(np.mean(gaps[val] + offs[val]))
        shift = offs[held] - delta_hat
        sup_err = np.maximum(np.abs(lo[held] + shift), np.abs(hi[held] + shift))
        err = float(sup_err.mean())
        error_sum += err
        if err > fail_threshold:
            failures += 1

    # Clopper-Pearson bounds: beta quantiles, read straight from the
    # incomplete-beta inverse so that scipy.stats is never imported
    from scipy.special import betaincinv

    rate = failures / n_trials
    lb = float(betaincinv(failures, n_trials - failures + 1, 0.05)) if failures else 0.0
    ci_lo = float(betaincinv(failures, n_trials - failures + 1, 0.025)) if failures else 0.0
    ci_hi = (float(betaincinv(failures + 1, n_trials - failures, 0.975))
             if failures < n_trials else 1.0)
    return TrialReport(
        name="validation-size-bound",
        passed=lb <= inputs.alpha,
        seed=seed,
        params={"eps0": inputs.eps0, "eps1": inputs.eps1, "eps": inputs.eps,
                "alpha": inputs.alpha, "image_size": inputs.image_size,
                "theta1": theta1, "theta2": theta2, "n_trials": n_trials,
                "holdout": holdout, "family": family},
        measurements={"v_required": v_needed, "pool_size": pool_size,
                      "failures": failures, "failure_rate": rate,
                      "rate_lower_95_one_sided": lb,
                      "rate_ci95_low": ci_lo, "rate_ci95_high": ci_hi,
                      "mean_error": error_sum / n_trials,
                      "fail_threshold": fail_threshold},
    )


# ---------------------------------------------------------------------------
# end-to-end pipeline and sweeps

LabelNoise = MarkovNoiseParams | Callable[[np.ndarray, int], np.ndarray]


@dataclass
class PipelineResult:
    metrics: list[dict]
    sc_records: list
    train_masks: list[np.ndarray]
    noisy_labels: list[np.ndarray]
    corrected_labels: list[np.ndarray]


def _apply_noise(noise: LabelNoise, mask: np.ndarray, seed: int) -> np.ndarray:
    if isinstance(noise, MarkovNoiseParams):
        return generate(mask, replace(noise, seed=seed))
    return noise(mask, seed)


# the site-epochs (training sites x epochs) of the label sets' fits that one
# more process pays for: the fits run side by side, the first label sets' in
# this process and the rest in forked helpers, from this many a fit.
# A pair of fits on 8 images of 32^2 took 20 ms in turn and 25 ms side by
# side at 0.41 M (medians of 9 alternating calls, 2 CPUs), 28 and 25 ms at
# 0.50 M, 34 and 29 ms at 0.60 M, 42 and 32 ms at 0.82 M (of 15), and 12
# images of 64^2 took 0.90 and 0.72 s at 39 M (of 9)
_FIT_GRAIN = 600_000


def _fit_arms(cfg: TrainConfig, images: list, label_sets: list, lo: int, hi: int) -> list:
    """Fresh models fitted on ``label_sets[lo:hi]``, one per label set: the
    clean training masks and each distinct noise's labels of ``_pipelines``."""
    return [LogisticSegmenter(cfg).fit(images, label_sets[i]) for i in range(lo, hi)]


def _mean_test_dsc(model, images, masks) -> float:
    return float(np.mean([dice(threshold(model.predict_logits(x), 0.0, mode="ge"), m)
                          for x, m in zip(images, masks)]))


def run_pipeline(spec: SynthSpec, noise: LabelNoise,
                 correction: CorrectionParams | None = None,
                 train_cfg: TrainConfig | None = None, *,
                 n_val: int, n_test: int, seed: int = 0) -> PipelineResult:
    """Three-arm comparison on one synthetic dataset.

    Splits ``spec.count`` images into train/val/test, corrupts the training
    labels with ``noise`` (a parameter set or any ``(mask, seed) -> mask``
    callable), and reports the test Dice of three identically configured
    models: trained on clean labels (ceiling), on the noisy labels
    (baseline), and with the correction loop driven by the clean validation
    images.

    All randomness derives from ``seed``; ``spec.seed`` is ignored so one
    argument controls the whole experiment.

    This is the one-cell case of ``_pipelines``. With two CPUs the noisy arm
    is fitted in a forked helper and each refit of the loop splits its epochs
    with one; the results are the same bits for every CPU count.
    """
    return _pipelines(spec, [(noise, n_val)], correction, train_cfg, n_val, n_test, seed)[0]


def _pipelines(spec: SynthSpec, cells: list, correction: CorrectionParams | None,
               train_cfg: TrainConfig | None, n_val, n_test, seed) -> list[PipelineResult]:
    """``run_pipeline``'s bits for each cell, a ``(noise, validation images
    used)`` pair. Every cell is checked before any work. The dataset is drawn
    and each distinct noise applied once; the clean masks and each noise's
    labels are fitted once, in one ``map_ranges`` call asked for one process
    per ``_FIT_GRAIN`` of their site-epochs. Each cell's loop starts from a
    copy of its noise's model: its first fit is a no-op, and no cell sees
    another's refits."""
    train_cfg = train_cfg or TrainConfig()
    n_train = spec.count - n_val - n_test
    if n_train < 1 or n_val < 1 or n_test < 1:
        raise ValueError(f"bad split: {n_train} train / {n_val} val / {n_test} test")
    for _, used in cells:
        if not 1 <= used <= n_val:
            raise ValueError(f"val_size values must be in [1, n_val={n_val}], got {used}")
    if not cells:
        return []
    data_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    images, masks = synth_dataset(replace(spec, seed=int(data_ss.generate_state(1)[0])))
    tr, te = slice(0, n_train), slice(spec.count - n_test, spec.count)
    noise_seeds = [int(c.generate_state(1)[0]) for c in noise_ss.spawn(n_train)]
    noisy = {noise: [_apply_noise(noise, m, s) for m, s in zip(masks[tr], noise_seeds)]
             for noise in dict.fromkeys(noise for noise, _ in cells)}
    label_sets = [masks[tr], *noisy.values()]
    site_epochs = sum(x.size for x in images[tr]) * train_cfg.epochs
    parts = map_ranges(_fit_arms, len(label_sets), len(label_sets) * site_epochs // _FIT_GRAIN,
                       train_cfg, images[tr], label_sets)
    models = [model for part in parts for model in part]
    dscs = [_mean_test_dsc(model, images[te], masks[te]) for model in models]
    arm = {noise: k for k, noise in enumerate(noisy, 1)}  # its label set, model and Dice
    results = []
    for noise, used in cells:
        va = slice(n_train, n_train + used)
        sc = spatial_correction(images[tr], noisy[noise], images[va], masks[va],
                                copy.deepcopy(models[arm[noise]]), correction,
                                train_truth=masks[tr])
        metrics = [{"arm": name, "seed": seed, "test_dsc": dsc} for name, dsc in (
            ("clean", dscs[0]), ("noisy", dscs[arm[noise]]),
            ("sc", _mean_test_dsc(sc.model, images[te], masks[te])))]
        results.append(PipelineResult(metrics, sc.records, list(masks[tr]), noisy[noise], sc.labels))
    return results


def sweep(kind: str, values: Sequence[int], spec: SynthSpec, noise: MarkovNoiseParams,
          correction: CorrectionParams | None = None,
          train_cfg: TrainConfig | None = None, *,
          n_val: int, n_test: int, seed: int = 0, csv_path=None) -> list[dict]:
    """Run the pipeline along one axis; one output row per setting per arm.

    ``kind="noise_level"`` varies the step count T, ``kind="val_size"`` how
    many of the ``n_val`` validation images the correction loop uses. The
    cells share one seed, so one ``_pipelines`` call runs them all, each
    value checked before any fit; each row has its ``run_pipeline``'s bits.
    """
    if kind not in ("noise_level", "val_size"):
        raise ValueError(f"kind must be 'noise_level' or 'val_size', got {kind!r}")
    values = [int(v) for v in values]
    cells = [(replace(noise, steps=v), n_val) if kind == "noise_level" else (noise, v)
             for v in values]
    results = _pipelines(spec, cells, correction, train_cfg, n_val, n_test, seed)
    rows = [{"kind": kind, "value": v, "arm": m["arm"], "seed": seed, "test_dsc": m["test_dsc"]}
            for v, res in zip(values, results) for m in res.metrics]
    if csv_path is not None:
        save_csv(csv_path, ["kind", "value", "arm", "seed", "test_dsc"],
                 [[r["kind"], r["value"], r["arm"], r["seed"], repr(r["test_dsc"])]
                  for r in rows])
    return rows
