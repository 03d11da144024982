"""Synthetic fixtures and empirical verification harnesses.

Everything here is seeded and deterministic: fixtures derive one child seed
per image, Monte Carlo verdicts accumulate integer counts, and report
artifacts contain no volatile values, so a rerun with the same arguments
reproduces every byte.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy import ndimage
from scipy.special import betaincinv

from ._fanout import map_ranges
from .correct import (CorrectionParams, ValidationBoundInputs,
                      required_validation_size, spatial_correction)
from .formats import save_csv
from .grid import as_mask, dice, threshold
from .model import LogisticSegmenter, TrainConfig
from .noise import (MarkovNoiseParams, _one_step_regime, bayes_mask_one_step,
                    expected_label_mc, generate)
from .sdf import signed_distance

__all__ = [
    "SynthSpec",
    "synth_masks",
    "synth_dataset",
    "centered_disk",
    "interior_hole_flips",
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
    ellipses) kept at least ``margin`` sites away from the grid edge.
    Images are ``contrast * blur(mask) + N(0, noise_sigma)``. The optional
    ``holes=(count, radius)`` punches that many interior background balls
    into every mask, each fully surrounded by foreground.
    """

    count: int
    shape: tuple[int, ...]
    family: str = "disks"
    contrast: float = 1.0
    blur_sigma: float = 1.5
    noise_sigma: float = 0.3
    holes: tuple[int, int] | None = None
    margin: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if len(self.shape) not in (2, 3):
            raise ValueError(f"shape must be 2D or 3D, got {self.shape}")
        if min(self.shape) < 12:
            raise ValueError("extents below 12 leave no room for shapes with margin")
        if self.family not in ("disks", "ellipse-unions"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.contrast <= 0:
            raise ValueError("contrast must be positive")
        if self.blur_sigma < 0 or self.noise_sigma < 0:
            raise ValueError("sigmas must be >= 0")
        if self.margin < 2:
            raise ValueError("margin must be >= 2")
        if self.holes is not None:
            hc, hr = self.holes
            if hc < 1 or hr < 1:
                raise ValueError("holes=(count, radius) must both be >= 1")


def _ball(shape: tuple[int, ...], center: np.ndarray, radii: np.ndarray) -> np.ndarray:
    grids = np.ogrid[tuple(slice(0, e) for e in shape)]
    q = sum(((g - c) / r) ** 2 for g, c, r in zip(grids, center, radii))
    return q <= 1.0


def _draw_mask(rng: np.random.Generator, spec: SynthSpec) -> np.ndarray:
    """Draw one mask. Draw order (normative for reproducibility): shape count
    (ellipse unions only), then per shape the radius/semi-axes per axis, then
    the center per axis; hole centers last."""
    lo = max(2, min(spec.shape) // 8)
    hi = max(lo, min(spec.shape) // 4)
    mask = np.zeros(spec.shape, dtype=bool)
    n_shapes = 1 if spec.family == "disks" else int(rng.integers(1, 4))
    for _ in range(n_shapes):
        if spec.family == "disks":
            radii = np.full(len(spec.shape), int(rng.integers(lo, hi + 1)), dtype=float)
        else:
            radii = rng.integers(lo, hi + 1, size=len(spec.shape)).astype(float)
        center = np.array([
            int(rng.integers(spec.margin + int(r), e - spec.margin - int(r)))
            for e, r in zip(spec.shape, radii)
        ], dtype=float)
        mask |= _ball(spec.shape, center, radii)
    if spec.holes is not None:
        hc, hr = spec.holes
        depth_needed = hr + 2  # hole stays strictly interior: a full FG layer survives
        phi = signed_distance(mask)
        candidates = np.flatnonzero(phi <= -depth_needed)
        if candidates.size < hc:
            raise ValueError(f"mask too small for {hc} holes of radius {hr}")
        picks = rng.choice(candidates, size=hc, replace=False)
        for flat in picks:
            center = np.array(np.unravel_index(flat, spec.shape), dtype=float)
            mask &= ~_ball(spec.shape, center, np.full(len(spec.shape), float(hr)))
    return mask


def _nth_mask(spec: SynthSpec, i: int) -> np.ndarray:
    """Mask i of synth_masks(spec), drawn from the i-th child seed alone."""
    child = np.random.SeedSequence(spec.seed, spawn_key=(i,))  # = spawn(count)[i]
    return _draw_mask(np.random.default_rng(child), spec)


def synth_masks(spec: SynthSpec) -> Iterator[np.ndarray]:
    """The masks of synth_dataset(spec), without the images, each drawn only
    when the caller's iteration reaches it, so a large pool is never held."""
    return (_nth_mask(spec, i) for i in range(spec.count))


def synth_dataset(spec: SynthSpec) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Generate (images, masks). Image i continues mask i's child stream."""
    children = np.random.SeedSequence(spec.seed).spawn(spec.count)
    images, masks = [], []
    for child in children:
        rng = np.random.default_rng(child)
        mask = _draw_mask(rng, spec)
        clean = spec.contrast * (
            ndimage.gaussian_filter(mask.astype(np.float64), spec.blur_sigma,
                                    mode="constant", cval=0.0, truncate=3.0)
            if spec.blur_sigma > 0 else mask.astype(np.float64))
        img = clean + spec.noise_sigma * rng.standard_normal(spec.shape)
        images.append(img)
        masks.append(mask)
    return images, masks


def centered_disk(shape: tuple[int, ...], radius: int | None = None) -> np.ndarray:
    """Deterministic centered ball fixture (radius defaults to min extent / 4)."""
    if radius is None:
        radius = max(2, min(shape) // 4)
    center = np.array([(e - 1) / 2.0 for e in shape])
    return _ball(tuple(shape), center, np.full(len(shape), float(radius)))


def interior_hole_flips(mask, rate: float, min_depth: int = 3, seed: int = 0) -> np.ndarray:
    """Flip deep-interior foreground sites to background with probability ``rate``.

    Only sites at signed distance <= -min_depth are eligible, so the flips
    form holes strictly inside the object. Eligible sites are visited in
    row-major order; one coin each.
    """
    m = as_mask(mask)
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    if min_depth < 2:
        raise ValueError("min_depth must be >= 2 to keep holes interior")
    phi = signed_distance(m)
    sites = np.flatnonzero(phi <= -float(min_depth))
    out = m.copy()
    if sites.size:
        hit = sites[np.random.default_rng(seed).random(sites.size) < rate]
        out.reshape(-1)[hit] = False
    return out


# ---------------------------------------------------------------------------
# reports


@dataclass
class TrialReport:
    """Outcome of one verification run.

    ``wall_time_s`` is kept in memory for operators but deliberately left
    out of serialized artifacts so reruns are byte-identical.
    """

    name: str
    passed: bool
    seed: int
    params: dict
    measurements: dict
    wall_time_s: float = 0.0

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
    a vote either way would be noise.
    """
    t0 = time.perf_counter()
    m = as_mask(mask)
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
        wall_time_s=time.perf_counter() - t0,
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


# the fewest pool masks that repay a worker process: a mask takes 0.5 ms at
# 32^2 and 2.3 ms at 256^2, and two workers broke even near 100 masks at 32^2
_POOL_GRAIN = 50


def _pool_gaps(spec: SynthSpec, theta1: float, theta2: float,
               lo: int, hi: int) -> np.ndarray:
    """Rows mean, min and max of the SDF gap between the one-step
    most-likely mask and the clean mask, one column per pool mask lo..hi-1."""
    out = np.empty((3, hi - lo))
    for k in range(hi - lo):
        mask = _nth_mask(spec, lo + k)
        diff = signed_distance(bayes_mask_one_step(mask, theta1, theta2)) - signed_distance(mask)
        out[:, k] = diff.mean(), diff.min(), diff.max()
    return out


def verify_validation_bound(inputs: ValidationBoundInputs, n_trials: int, *,
                            theta1: float = 0.7, theta2: float = 0.9,
                            grid_shape: tuple[int, ...] | None = None,
                            holdout: int = 200, family: str = "disks",
                            max_pool: int | None = None,
                            seed: int = 0) -> TrialReport:
    """Empirically test the validation-size bound on a synthetic pool.

    Builds a pool of clean masks whose "predictor" is the one-step
    most-likely mask's SDF plus a controlled per-image offset (mean
    magnitude eps0, sup eps1). Each trial re-draws the offsets, samples the
    bound's V validation images, estimates the bias as the grand mean of
    per-image mean SDF gaps, and measures the residual sup error on the
    held-out images. A trial fails when the held-out mean sup error exceeds
    eps + eps0; the run passes unless the one-sided exact binomial test is
    95% confident the failure rate exceeds alpha.

    Per-trial draw order: offset hit coins, offset sign coins, then the
    pool permutation. Pool mask i is drawn from the i-th child seed, as in
    ``synth_masks``; the pool is built in up to ``os.cpu_count()`` worker
    processes, and the report is the same for every CPU count.
    """
    t0 = time.perf_counter()
    if inputs.alpha > 1.0:
        raise ValueError("alpha must be <= 1 for an empirical failure-rate test")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if holdout < 1:
        raise ValueError("holdout must be >= 1")
    if grid_shape is None:
        side = math.isqrt(inputs.image_size)
        if side * side != inputs.image_size:
            raise ValueError("image_size is not a perfect square; pass grid_shape explicitly")
        grid_shape = (side, side)
    if int(np.prod(grid_shape)) != inputs.image_size:
        raise ValueError(f"grid_shape {grid_shape} has {int(np.prod(grid_shape))} sites, "
                         f"inputs.image_size says {inputs.image_size}")
    v_needed = required_validation_size(inputs)
    if v_needed < 1:
        raise ValueError("the bound asks for zero validation images; nothing to verify")
    pool_size = v_needed + holdout
    if max_pool is not None and pool_size > max_pool:
        raise ValueError(f"required V={v_needed} plus holdout={holdout} exceeds "
                         f"the fixture pool cap of {max_pool} images")

    pool_ss, trial_ss = np.random.SeedSequence(seed).spawn(2)
    spec = SynthSpec(count=pool_size, shape=tuple(grid_shape), family=family,
                     seed=int(pool_ss.generate_state(1)[0]))
    parts = map_ranges(_pool_gaps, pool_size, os.cpu_count() or 1, _POOL_GRAIN,
                       spec, theta1, theta2)
    gaps, lo, hi = np.concatenate(parts, axis=1)

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
        wall_time_s=time.perf_counter() - t0,
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


# the fewest site-epochs (training sites x epochs) of one fit that repay
# fitting the clean and noisy arms in two worker processes: a pair of fits
# took 36 ms in turn and 42 ms forked at 0.8 M, 70 and 62 ms at 1.6 M, and
# 1.42 and 0.78 s at 39 M
_FIT_GRAIN = 1_000_000


def _fit_arms(cfg: TrainConfig, images: list, label_sets: list, seed: int,
              lo: int, hi: int) -> list:
    """Fresh models fitted on ``label_sets[lo:hi]``, one per label set."""
    return [LogisticSegmenter(cfg).fit(images, label_sets[i], seed) for i in range(lo, hi)]


def _mean_test_dsc(model, images, masks) -> float:
    return float(np.mean([dice(threshold(model.predict_logits(x), 0.0, mode="ge"), m)
                          for x, m in zip(images, masks)]))


def run_pipeline(spec: SynthSpec, noise: LabelNoise,
                 correction: CorrectionParams | None = None,
                 train_cfg: TrainConfig | None = None, *,
                 n_val: int, n_test: int, seed: int = 0,
                 n_val_used: int | None = None,
                 metrics_path=None, sc_report_path=None) -> PipelineResult:
    """Three-arm comparison on one synthetic dataset.

    Splits ``spec.count`` images into train/val/test, corrupts the training
    labels with ``noise`` (a parameter set or any ``(mask, seed) -> mask``
    callable), and reports the test Dice of three identically configured
    models: trained on clean labels (ceiling), on the noisy labels
    (baseline), and with the correction loop driven by ``n_val_used``
    (default: all) of the clean validation images.

    All randomness derives from ``seed``; ``spec.seed`` is ignored so one
    argument controls the whole experiment.

    The clean and noisy fits are independent, so with two or more CPUs they
    run at the same time in two forked worker processes, unless a fit is too
    small to repay the fork (``_FIT_GRAIN`` site-epochs); those workers fork
    nothing more. The noisy model comes back with the digest of its data, so
    the correction loop's first fit is a no-op. The loop and its refits run
    in this process, and each refit splits its epochs with a forked helper
    over both CPUs (``LogisticSegmenter.fit``). The results are the same
    bits for every CPU count.
    """
    correction = correction or CorrectionParams()
    train_cfg = train_cfg or TrainConfig()
    n_train = spec.count - n_val - n_test
    if n_train < 1 or n_val < 1 or n_test < 1:
        raise ValueError(f"bad split: {n_train} train / {n_val} val / {n_test} test")
    used = n_val if n_val_used is None else n_val_used
    if not 1 <= used <= n_val:
        raise ValueError(f"n_val_used must be in [1, {n_val}], got {used}")

    data_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    images, masks = synth_dataset(replace(spec, seed=int(data_ss.generate_state(1)[0])))
    tr = slice(0, n_train)
    va = slice(n_train, n_train + used)
    te = slice(spec.count - n_test, spec.count)

    noisy = [_apply_noise(noise, m, int(c.generate_state(1)[0]))
             for m, c in zip(masks[tr], noise_ss.spawn(n_train))]

    site_epochs = sum(x.size for x in images[tr]) * train_cfg.epochs
    parts = map_ranges(_fit_arms, 2, 2 if site_epochs >= _FIT_GRAIN else 1, 1,
                       train_cfg, images[tr], [masks[tr], noisy], seed)
    clean_model, noisy_model = [model for part in parts for model in part]
    metrics = [{"arm": "clean", "seed": seed,
                "test_dsc": _mean_test_dsc(clean_model, images[te], masks[te])},
               {"arm": "noisy", "seed": seed,
                "test_dsc": _mean_test_dsc(noisy_model, images[te], masks[te])}]
    # the loop's first fit is the noisy arm's, which noisy_model already holds
    sc = spatial_correction(images[tr], noisy, images[va], masks[va],
                            noisy_model, correction, seed=seed,
                            train_truth=masks[tr], report_path=sc_report_path)
    metrics.append({"arm": "sc", "seed": seed,
                    "test_dsc": _mean_test_dsc(sc.model, images[te], masks[te])})

    if metrics_path is not None:
        save_csv(metrics_path, ["arm", "seed", "test_dsc"],
                 [[row["arm"], row["seed"], repr(row["test_dsc"])] for row in metrics])
    return PipelineResult(metrics=metrics, sc_records=sc.records,
                          train_masks=list(masks[tr]), noisy_labels=noisy,
                          corrected_labels=sc.labels)


def sweep(kind: str, values: Sequence[int], spec: SynthSpec, noise: MarkovNoiseParams,
          correction: CorrectionParams | None = None,
          train_cfg: TrainConfig | None = None, *,
          n_val: int, n_test: int, seed: int = 0, csv_path=None) -> list[dict]:
    """Run the pipeline along one axis; one output row per setting per arm.

    ``kind="noise_level"`` varies the step count T, ``kind="val_size"``
    varies how many validation images the correction loop may use. Every
    cell reuses the same seed so the underlying data is held fixed.
    """
    if kind not in ("noise_level", "val_size"):
        raise ValueError(f"kind must be 'noise_level' or 'val_size', got {kind!r}")
    rows: list[dict] = []
    for value in values:
        v = int(value)
        if kind == "noise_level":
            res = run_pipeline(spec, replace(noise, steps=v), correction, train_cfg,
                               n_val=n_val, n_test=n_test, seed=seed)
        else:
            res = run_pipeline(spec, noise, correction, train_cfg,
                               n_val=n_val, n_test=n_test, seed=seed, n_val_used=v)
        for m in res.metrics:
            rows.append({"kind": kind, "value": v, "arm": m["arm"],
                         "seed": seed, "test_dsc": m["test_dsc"]})
    if csv_path is not None:
        save_csv(csv_path, ["kind", "value", "arm", "seed", "test_dsc"],
                 [[r["kind"], r["value"], r["arm"], r["seed"], repr(r["test_dsc"])]
                  for r in rows])
    return rows
