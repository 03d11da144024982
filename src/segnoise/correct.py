"""Bias estimation from clean validation images and iterative label correction.

Systematic over- or under-segmentation shows up as a mean offset between the
signed-distance fields of predicted masks and of clean masks. That offset is
estimated on a small clean validation set, then removed: directly from an
SDF (naive_correct), or in logit space with a boundary-localized shift whose
magnitude tapers off away from the predicted contour (logit_correct). The
full loop (spatial_correction) alternates training, bias estimation and
training-label correction until the bias drops below one lattice layer.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

# exported here too, for callers that import the bound from this module
from .bound import ValidationBoundInputs, required_validation_size
from .formats import save_csv
from .grid import as_field, as_mask, dice, threshold
from .model import Segmenter
from .sdf import DegenerateMaskError, sdf_gap, signed_distance

__all__ = [
    "EmptyBandError",
    "BiasEstimate",
    "estimate_bias",
    "naive_correct",
    "lambda_bias",
    "logit_correct",
    "CorrectionParams",
    "IterationRecord",
    "SpatialCorrectionResult",
    "spatial_correction",
    "write_report",
    "ValidationBoundInputs",
    "required_validation_size",
]

log = logging.getLogger(__name__)


class EmptyBandError(ValueError):
    """No site falls inside the correction band."""


@dataclass(frozen=True)
class BiasEstimate:
    """Mean SDF gap over a validation set.

    delta_hat: grand mean of per-image mean gaps (predicted minus clean).
    per_image_gaps: the per-image means that were averaged.
    v_used: number of image pairs that contributed.
    skipped: pairs dropped because either side was missing (degenerate mask
        upstream, passed here as None).
    """

    delta_hat: float
    per_image_gaps: tuple[float, ...]
    v_used: int
    skipped: int


def estimate_bias(predicted_sdfs: Sequence[np.ndarray | None],
                  clean_sdfs: Sequence[np.ndarray | None]) -> BiasEstimate:
    """Average the per-image mean gap between predicted and clean SDFs.

    Entries may be None to mark pairs excluded upstream (e.g. a prediction
    with no boundary); they are counted in ``skipped``. Raises if the lists
    disagree in length or no pair remains.
    """
    if len(predicted_sdfs) != len(clean_sdfs):
        raise ValueError(f"got {len(predicted_sdfs)} predictions for {len(clean_sdfs)} references")
    if not predicted_sdfs:
        raise ValueError("validation set is empty")
    gaps: list[float] = []
    skipped = 0
    for pred, clean in zip(predicted_sdfs, clean_sdfs):
        if pred is None or clean is None:
            skipped += 1
            continue
        gaps.append(sdf_gap(pred, clean))
    if not gaps:
        raise ValueError("every validation pair was skipped; nothing to estimate from")
    return BiasEstimate(delta_hat=float(np.mean(gaps)),
                        per_image_gaps=tuple(gaps),
                        v_used=len(gaps), skipped=skipped)


def naive_correct(sdf, delta_hat: float) -> np.ndarray:
    """Shift an SDF by the estimated bias and threshold at zero.

    Returns the mask ``{s : sdf(s) - delta_hat <= 0}``.
    """
    return threshold(as_field(sdf) - delta_hat, 0.0, mode="le")


def lambda_bias(logits, sdf, delta_hat: float) -> float:
    """Correction amplitude: the extreme logit inside the bias band.

    For delta_hat >= 1 the band is the background layers ``1 <= sdf <=
    delta_hat`` and the amplitude is minus their smallest logit; for
    delta_hat <= -1 it is the foreground layers ``delta_hat <= sdf <= -1``
    and minus their largest logit. Either way the sign opposes the bias.
    """
    f = as_field(logits)
    d = as_field(sdf)
    if f.shape != d.shape:
        raise ValueError(f"shape mismatch: {f.shape} vs {d.shape}")
    if abs(delta_hat) < 1.0:
        raise ValueError(f"|delta_hat| < 1 is below one lattice layer; "
                         f"skip the correction instead (got {delta_hat})")
    if delta_hat > 0:
        band = (d >= 1.0) & (d <= delta_hat)
        if not band.any():
            raise EmptyBandError(f"no site with 1 <= sdf <= {delta_hat}")
        extreme = float(f[band].min())
    else:
        band = (d >= delta_hat) & (d <= -1.0)
        if not band.any():
            raise EmptyBandError(f"no site with {delta_hat} <= sdf <= -1")
        extreme = float(f[band].max())
    return -extreme


def _check_gamma_and_stop(gamma: float, stop_threshold: float) -> None:
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if not math.isfinite(stop_threshold):  # NaN fails every comparison
        raise ValueError(f"stop_threshold must be finite, got {stop_threshold}")
    if stop_threshold < 1.0:
        # a bias below one lattice layer has no band for lambda_bias to read
        raise ValueError(f"stop_threshold must be >= 1, got {stop_threshold}")


def logit_correct(logits, sdf, delta_hat: float, gamma: float = 1.0, *,
                  lam: float | None = None, stop_threshold: float = 1.0) -> np.ndarray:
    """Add a Gaussian-tapered shift to the logits around the predicted contour.

    The shift is ``lam * exp(-sdf^2 / (2 (gamma*delta_hat)^2))``: full
    amplitude at the contour, decaying with distance, so far-field logits
    are essentially preserved. ``lam`` defaults to lambda_bias of this
    image. Below ``stop_threshold`` the bias is considered noise and the
    logits are returned unchanged (as a copy); the threshold must be at
    least one lattice layer. ``delta_hat`` must be finite: an infinite one
    would shift every site of the image by the same ``lam``.
    """
    f = as_field(logits)
    _check_gamma_and_stop(gamma, stop_threshold)
    if not math.isfinite(delta_hat):
        raise ValueError(f"delta_hat must be finite, got {delta_hat}")
    if abs(delta_hat) < stop_threshold:
        return f.copy()
    d = as_field(sdf)
    if f.shape != d.shape:
        raise ValueError(f"shape mismatch: {f.shape} vs {d.shape}")
    if lam is None:
        lam = lambda_bias(f, d, delta_hat)
    width = gamma * delta_hat
    return f + lam * np.exp(-(d * d) / (2.0 * width * width))


@dataclass(frozen=True)
class CorrectionParams:
    gamma: float = 1.0
    max_iters: int = 5
    stop_threshold: float = 1.0

    def __post_init__(self):
        _check_gamma_and_stop(self.gamma, self.stop_threshold)
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")


@dataclass(frozen=True)
class IterationRecord:
    """One row of the correction loop's report.

    ``iteration`` 0 is the state right after the initial fit; later rows
    follow each relabel+refit. ``lambda_mean`` averages the per-image
    correction amplitudes that produced this iteration's labels (nan for
    iteration 0). ``train_label_dsc`` compares the current training labels
    to the clean truth when it was supplied (nan otherwise).
    """

    iteration: int
    delta_hat: float
    lambda_mean: float
    train_label_dsc: float
    val_dsc: float


@dataclass
class SpatialCorrectionResult:
    model: Segmenter
    labels: list[np.ndarray]
    records: list[IterationRecord]


def write_report(records: Sequence[IterationRecord], path) -> None:
    """Write loop records as CSV (missing values are left empty)."""

    def cell(v: float) -> str:
        return "" if math.isnan(v) else repr(float(v))

    save_csv(path, ["iter", "delta_hat", "lambda_mean", "train_label_dsc_vs_truth", "val_dsc"],
             [[r.iteration, repr(float(r.delta_hat)), cell(r.lambda_mean),
               cell(r.train_label_dsc), cell(r.val_dsc)] for r in records])


def _predicted_sdf(model: Segmenter, image: np.ndarray) -> tuple:
    """The model's logits for ``image``, the mask they predict, and that
    mask's SDF, or None when it has no boundary."""
    logits = model.predict_logits(image)
    mask = threshold(logits, 0.0, mode="ge")
    try:
        return logits, mask, signed_distance(mask)
    except DegenerateMaskError:
        return logits, mask, None


def spatial_correction(train_images: Sequence[np.ndarray],
                       train_labels: Sequence[np.ndarray],
                       val_images: Sequence[np.ndarray],
                       val_masks: Sequence[np.ndarray],
                       model: Segmenter,
                       params: CorrectionParams | None = None,
                       *,
                       train_truth: Sequence[np.ndarray] | None = None) -> SpatialCorrectionResult:
    """Train on noisy labels, then iteratively unbias them.

    Each round fits ``model`` on the current labels, measures the mean SDF
    gap of its validation predictions against the clean validation masks,
    and, while that gap is at least ``stop_threshold`` in magnitude and the
    round budget remains, rewrites every training label by thresholding the
    bias-corrected logits at zero. Degenerate predictions are skipped: on
    validation they are dropped from the estimate, on training the image
    keeps its current label. If every validation prediction of a refit is
    degenerate, the loop stops there with a warning and keeps what it has;
    after the initial fit that raises instead.

    ``train_truth`` is only used for reporting. Returns the final model, the
    final labels, and one IterationRecord per fit whose bias was estimated.
    """
    rounds = list(_rounds(train_images, train_labels, val_images, val_masks,
                          model, params or CorrectionParams(), train_truth))
    return SpatialCorrectionResult(model=model, labels=rounds[-1][1],
                                   records=[record for record, _ in rounds])


def _rounds(train_images, train_labels, val_images, val_masks, model: Segmenter,
            params: CorrectionParams,
            train_truth) -> Iterator[tuple[IterationRecord, list[np.ndarray]]]:
    """spatial_correction's loop. After each finished round it yields that
    round's record and the loop's own list of labels: relabelled when the loop
    goes on to a refit, the ones just fitted when it stops."""
    if len(train_images) != len(train_labels) or not train_images:
        raise ValueError("need equally many training images and labels, at least one")
    if len(val_images) != len(val_masks) or not val_images:
        raise ValueError("need equally many validation images and masks, at least one")
    if train_truth is not None and len(train_truth) != len(train_images):
        raise ValueError("train_truth must match the training set")

    val_sdfs: list[np.ndarray | None] = []
    for i, m in enumerate(val_masks):
        try:
            val_sdfs.append(signed_distance(m))
        except DegenerateMaskError:
            log.warning("validation mask %d has no boundary; excluded", i)
            val_sdfs.append(None)
    if all(s is None for s in val_sdfs):
        raise ValueError("no usable validation mask (all degenerate)")

    labels = [as_mask(l).copy() for l in train_labels]
    lam_mean = float("nan")
    model.fit(train_images, labels)
    for iteration in range(params.max_iters + 1):
        pred_sdfs: list[np.ndarray | None] = []
        dscs = []
        for img, vmask, vsdf in zip(val_images, val_masks, val_sdfs):
            _, pmask, psdf = _predicted_sdf(model, img)
            pred_sdfs.append(psdf if vsdf is not None else None)
            dscs.append(dice(pmask, vmask))
        if iteration > 0 and all(p is None for p in pred_sdfs):
            log.warning("stopping at round %d: no validation prediction of its refit "
                        "has a boundary, so no bias can be estimated; keeping the "
                        "labels and the records so far", iteration)
            return
        est = estimate_bias(pred_sdfs, val_sdfs)
        truth_dsc = (float("nan") if train_truth is None else
                     float(np.mean([dice(l, t) for l, t in zip(labels, train_truth)])))
        record = IterationRecord(iteration=iteration, delta_hat=est.delta_hat,
                                 lambda_mean=lam_mean, train_label_dsc=truth_dsc,
                                 val_dsc=float(np.mean(dscs)))
        if abs(est.delta_hat) < params.stop_threshold or iteration == params.max_iters:
            yield record, labels
            return
        lams = []
        for i, img in enumerate(train_images):
            logits, _, psdf = _predicted_sdf(model, img)
            if psdf is None:
                log.warning("training prediction %d has no boundary; label kept as is", i)
                continue
            lam = lambda_bias(logits, psdf, est.delta_hat)
            lams.append(lam)
            corrected = logit_correct(logits, psdf, est.delta_hat, params.gamma,
                                      lam=lam, stop_threshold=params.stop_threshold)
            labels[i] = threshold(corrected, 0.0, mode="ge")
        lam_mean = float(np.mean(lams)) if lams else float("nan")
        yield record, labels
        model.fit(train_images, labels)
