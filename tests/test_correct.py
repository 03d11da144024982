"""Bias estimation, the two correction routes, the loop, the sample-size bound."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from segnoise import (
    CorrectionParams,
    EmptyBandError,
    ValidationBoundInputs,
    centered_disk,
    dice,
    dilate_one,
    erode_one,
    estimate_bias,
    lambda_bias,
    logit_correct,
    naive_correct,
    required_validation_size,
    signed_distance,
    spatial_correction,
    threshold,
    write_report,
)
from segnoise.correct import IterationRecord, _rounds


# ---------------------------------------------------------------- estimate


def test_constant_shift_estimate(disk9):
    phi = signed_distance(disk9)
    est = estimate_bias([phi + 3.0], [phi])
    assert est.delta_hat == 3.0
    assert est.v_used == 1 and est.skipped == 0


def test_estimate_is_the_mean_of_per_image_gaps():
    a = np.full((2, 2), 1.0)
    est = estimate_bias([a - 1.2, a - 0.8], [a, a])
    assert est.delta_hat == pytest.approx(-1.0)
    assert est.per_image_gaps == pytest.approx((-1.2, -0.8))


def test_estimate_on_dilated_disk_prediction(disk9):
    phi = signed_distance(disk9)
    plus = signed_distance(dilate_one(disk9))
    est = estimate_bias([plus], [phi])
    assert est.delta_hat == pytest.approx(-1.0 - 12.0 / 81.0, rel=1e-14)


def test_estimate_skips_degenerate_pairs_and_counts_them(disk9):
    phi = signed_distance(disk9)
    est = estimate_bias([phi + 1.0, None], [phi, None])
    assert est.v_used == 1 and est.skipped == 1
    with pytest.raises(ValueError):
        estimate_bias([None], [None])
    with pytest.raises(ValueError):
        estimate_bias([], [])
    with pytest.raises(ValueError):
        estimate_bias([phi], [phi, phi])


@given(st.permutations(range(4)))
def test_estimate_is_order_invariant(perm):
    base = np.zeros((3, 3))
    preds = [base + c for c in (0.5, -1.5, 2.0, 3.25)]
    cleans = [base] * 4
    ref = estimate_bias(preds, cleans).delta_hat
    got = estimate_bias([preds[i] for i in perm], [cleans[i] for i in perm]).delta_hat
    assert got == pytest.approx(ref)


# ---------------------------------------------------------------- naive route


def test_zero_shift_returns_the_predictors_own_mask(disk9):
    phi = signed_distance(dilate_one(disk9))
    assert np.array_equal(naive_correct(phi, 0.0), dilate_one(disk9))


def test_naive_recovery_from_one_dilation(disk9):
    phi = signed_distance(disk9)
    plus = signed_distance(dilate_one(disk9))
    delta = estimate_bias([plus], [phi]).delta_hat
    assert dice(naive_correct(plus, delta), disk9) == 1.0


def test_naive_recovery_from_one_erosion():
    m = centered_disk((15, 15), radius=4)
    minus = signed_distance(erode_one(m))
    delta = estimate_bias([minus], [signed_distance(m)]).delta_hat
    assert delta > 1.0
    assert dice(naive_correct(minus, delta), m) == 1.0


@pytest.mark.parametrize("c", [-3, -1, 2, 4])
def test_naive_recovery_from_any_constant_shift(c):
    m = centered_disk((21, 21), radius=4)
    phi = signed_distance(m)
    delta = estimate_bias([phi + c], [phi]).delta_hat
    assert delta == float(c)
    assert np.array_equal(naive_correct(phi + c, delta), m)


# ---------------------------------------------------------------- logit route


def test_lambda_band_hand_values(disk9):
    phi = signed_distance(disk9)
    f = -phi
    assert lambda_bias(f, phi, 2.0) == 2.0
    assert lambda_bias(f, phi, -2.0) == -2.0


def test_lambda_requires_a_meaningful_shift_and_a_band(disk9):
    phi = signed_distance(disk9)
    with pytest.raises(ValueError):
        lambda_bias(-phi, phi, 0.5)
    # a genuine distance field always populates the band with its +-1 layer;
    # only a miscalibrated prediction (here: shifted far positive) empties it
    with pytest.raises(EmptyBandError):
        lambda_bias(-phi, phi + 20.0, 2.0)


def test_logit_correction_hand_values(disk9):
    phi = signed_distance(dilate_one(disk9))
    f = -phi
    out = logit_correct(f, phi, 2.0, gamma=1.0)
    ring = phi == 1
    deep = phi == 2
    assert np.allclose(out[ring], -1.0 + 2.0 * math.exp(-1.0 / 8.0))
    assert out[ring].max() == pytest.approx(0.7649938, abs=1e-6)
    assert np.allclose(out[deep], -2.0 + 2.0 * math.exp(-0.5))
    assert out[deep].max() == pytest.approx(-0.7869387, abs=1e-6)


def test_far_field_is_essentially_untouched():
    m = centered_disk((41, 41), radius=6)
    phi = signed_distance(m)
    f = -phi
    out = logit_correct(f, phi, 2.0, gamma=1.0)
    far = np.abs(phi) >= 10
    assert np.abs(out[far] - f[far]).max() < 2.0 * math.exp(-12.5)
    assert np.abs(out - f).max() <= abs(lambda_bias(f, phi, 2.0)) + 1e-12


def test_small_shift_skips_the_correction(disk9):
    phi = signed_distance(disk9)
    f = -phi
    out = logit_correct(f, phi, 0.8)
    assert np.array_equal(out, f)


def test_gamma_is_validated(disk9):
    phi = signed_distance(disk9)
    with pytest.raises(ValueError):
        logit_correct(-phi, phi, 2.0, gamma=0.0)
    with pytest.raises(ValueError):
        logit_correct(-phi, phi, 2.0, gamma=1.5)


@pytest.mark.parametrize("value", [0.5, math.nan, math.inf])
def test_stop_threshold_below_one_layer_is_rejected(value):
    # below one layer a bias passes the stop check that lambda_bias then
    # refuses; NaN passes every check, and inf stops every loop at its first fit
    rule = ">= 1" if value == 0.5 else "finite"
    with pytest.raises(ValueError, match=f"^stop_threshold must be {rule}, got {value}$"):
        CorrectionParams(stop_threshold=value)
    assert CorrectionParams(stop_threshold=1.0).stop_threshold == 1.0


def test_logit_correct_rejects_a_stop_threshold_below_one_layer(disk9):
    phi = signed_distance(disk9)
    with pytest.raises(ValueError, match="stop_threshold must be >= 1, got 0.5"):
        logit_correct(-phi, phi, 0.8, stop_threshold=0.5)


@pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan])
def test_logit_correct_rejects_a_non_finite_bias(disk9, delta):
    phi = signed_distance(disk9)
    with pytest.raises(ValueError, match=f"^delta_hat must be finite, got {delta}$"):
        logit_correct(-phi, phi, delta)


def test_one_pass_with_a_two_deep_band_recovers_the_disk():
    # With |shift| = 2 the band reaches depth two, lambda = -2 outweighs the
    # rim logit, and thresholding undoes exactly one dilation.
    m = centered_disk((15, 15), radius=4)
    pred = dilate_one(m)
    phi = signed_distance(pred)
    corrected = threshold(logit_correct(-phi, phi, -2.0, gamma=1.0), 0.0, mode="ge")
    assert np.array_equal(corrected, m)


def test_shallow_shift_cannot_flip_the_site_that_supplies_lambda():
    # For 1 < |shift| < 2 the band holds only the depth-one ring; the
    # corrected value there is -lam * (1 - decay), which keeps its sign.
    m = centered_disk((15, 15), radius=4)
    pred = dilate_one(m)
    phi = signed_distance(pred)
    delta = estimate_bias([signed_distance(pred)], [signed_distance(m)]).delta_hat
    assert -2.0 < delta < -1.0
    corrected = threshold(logit_correct(-phi, phi, delta, gamma=1.0), 0.0, mode="ge")
    assert np.array_equal(corrected, pred)  # idealized logits stall here


def test_correction_moves_the_measured_gap_toward_zero():
    m = centered_disk((17, 17), radius=4)
    for pred in (dilate_one(m), erode_one(m)):
        phi_pred = signed_distance(pred)
        phi = signed_distance(m)
        delta = estimate_bias([phi_pred], [phi]).delta_hat
        # force the two-deep band so the idealized logits can move
        forced = 2.0 * np.sign(delta)
        out = threshold(logit_correct(-phi_pred, phi_pred, forced), 0.0, mode="ge")
        gap_after = estimate_bias([signed_distance(out)], [phi]).delta_hat
        assert abs(gap_after) < abs(delta)


# ---------------------------------------------------------------- loop


class MemorizingStub:
    """Predicts the negated distance field of whatever labels it last saw.

    Keys by image bytes, so validation images must reuse training images.
    """

    def __init__(self):
        self._by_key = {}

    def fit(self, images, labels):
        self._by_key = {
            img.tobytes(): signed_distance(lbl) for img, lbl in zip(images, labels)
        }
        return self

    def predict_logits(self, image):
        return -self._by_key[np.asarray(image, dtype=np.float64).tobytes()]


def test_loop_stops_immediately_when_labels_are_clean():
    masks = [centered_disk((15, 15), radius=4), centered_disk((15, 15), radius=3)]
    images = [m.astype(np.float64) for m in masks]
    result = spatial_correction(
        images, masks, images, masks, MemorizingStub(), CorrectionParams(max_iters=4)
    )
    assert len(result.records) == 1
    assert abs(result.records[0].delta_hat) < 1.0
    for lbl, m in zip(result.labels, masks):
        assert np.array_equal(lbl, m)


def test_loop_reports_the_stall_of_idealized_logits(tmp_path):
    # Dilated labels, logit field = negated distance: the shift estimate sits
    # in (-2, -1) where the band cannot move labels, so the loop runs out its
    # budget with a constant estimate. Real trained logits vary over the ring
    # and do make progress; that path is covered by the pipeline tests.
    masks = [centered_disk((15, 15), radius=4), centered_disk((15, 15), radius=3)]
    images = [m.astype(np.float64) * (i + 1.0) for i, m in enumerate(masks)]
    noisy = [dilate_one(m) for m in masks]
    result = spatial_correction(
        images,
        noisy,
        images,
        masks,
        MemorizingStub(),
        CorrectionParams(max_iters=3),
        train_truth=masks,
    )
    assert len(result.records) == 4  # initial fit + 3 capped iterations
    deltas = [r.delta_hat for r in result.records]
    assert all(-2.0 < d < -1.0 for d in deltas)
    assert deltas[1] == pytest.approx(deltas[-1])
    for lbl, noisy_lbl in zip(result.labels, noisy):
        assert np.array_equal(lbl, noisy_lbl)
    report = tmp_path / "r.csv"
    write_report(result.records, report)
    text = report.read_text().splitlines()
    assert text[0] == "iter,delta_hat,lambda_mean,train_label_dsc_vs_truth,val_dsc"
    assert len(text) == 5


def test_loop_rejects_all_degenerate_validation():
    m = centered_disk((9, 9), radius=2)
    img = m.astype(np.float64)
    degenerate = np.zeros((9, 9), dtype=bool)
    with pytest.raises(ValueError):
        spatial_correction([img], [m], [img], [degenerate], MemorizingStub())


class BlankAfterFits(MemorizingStub):
    """A MemorizingStub whose fits after the first ``good`` predict background
    everywhere, so that none of their predictions has a boundary."""

    def __init__(self, good):
        super().__init__()
        self.good = good
        self.fits = 0

    def fit(self, images, labels):
        self.fits += 1
        return super().fit(images, labels)

    def predict_logits(self, image):
        if self.fits > self.good:
            return np.full(np.shape(image), -1.0)
        return super().predict_logits(image)


def test_loop_keeps_its_records_when_a_refit_goes_blank(tmp_path, caplog):
    # the stall setup of the test above, with a model that forgets everything
    # on its first refit: the loop must stop there, not raise
    masks = [centered_disk((15, 15), radius=4), centered_disk((15, 15), radius=3)]
    images = [m.astype(np.float64) * (i + 1.0) for i, m in enumerate(masks)]
    noisy = [dilate_one(m) for m in masks]
    model = BlankAfterFits(good=1)
    with caplog.at_level("WARNING", logger="segnoise.correct"):
        result = spatial_correction(images, noisy, images, masks, model,
                                    CorrectionParams(max_iters=3), train_truth=masks)
    assert model.fits == 2
    assert result.model is model
    assert [r.iteration for r in result.records] == [0]
    assert -2.0 < result.records[0].delta_hat < -1.0
    for lbl, noisy_lbl in zip(result.labels, noisy):
        assert np.array_equal(lbl, noisy_lbl)
    assert "stopping at round 1: no validation prediction" in caplog.text
    report = tmp_path / "r.csv"
    write_report(result.records, report)
    text = report.read_text().splitlines()
    assert text[0] == "iter,delta_hat,lambda_mean,train_label_dsc_vs_truth,val_dsc"
    assert len(text) == 2 and text[1].startswith("0,")

    # a blank initial fit leaves nothing to keep, so it still raises, before
    # the loop hands back any round
    rounds = _rounds(images, noisy, images, masks, BlankAfterFits(good=0),
                     CorrectionParams(max_iters=3), None)
    with pytest.raises(ValueError, match="every validation pair was skipped"):
        next(rounds)


class FitFails(MemorizingStub):
    """A MemorizingStub whose fit number ``fail_at`` raises TimeoutError, as
    an external trainer's fit does when no DONE sentinel comes."""

    def __init__(self, fail_at):
        super().__init__()
        self.fail_at = fail_at
        self.fits = 0

    def fit(self, images, labels):
        self.fits += 1
        if self.fits == self.fail_at:
            raise TimeoutError("no DONE after 1.0s")
        return super().fit(images, labels)


def test_loop_writes_the_finished_rounds_when_a_refit_raises(tmp_path):
    # the stall setup above: without the failure the loop writes 4 rows
    masks = [centered_disk((15, 15), radius=4), centered_disk((15, 15), radius=3)]
    images = [m.astype(np.float64) * (i + 1.0) for i, m in enumerate(masks)]
    noisy = [dilate_one(m) for m in masks]
    whole, cut = tmp_path / "whole.csv", tmp_path / "cut.csv"
    result = spatial_correction(images, noisy, images, masks, MemorizingStub(),
                                CorrectionParams(max_iters=3), train_truth=masks)
    write_report(result.records, whole)
    kept = []
    with pytest.raises(TimeoutError):
        for record, labels in _rounds(images, noisy, images, masks, FitFails(fail_at=3),
                                      CorrectionParams(max_iters=3), masks):
            kept.append((record, [lbl.copy() for lbl in labels]))
    write_report([record for record, _ in kept], cut)
    assert cut.read_text().splitlines() == whole.read_text().splitlines()[:3]
    # the stall leaves every label as it was; the last round handed back holds
    # the labels that the failed refit was given
    for lbl, noisy_lbl in zip(kept[-1][1], noisy):
        assert np.array_equal(lbl, noisy_lbl)


def test_report_formats_missing_lambda_as_empty(tmp_path):
    rec = [
        IterationRecord(0, -1.5, float("nan"), 0.9, 0.8),
        IterationRecord(1, -0.5, -1.25, 1.0, 0.95),
    ]
    path = tmp_path / "report.csv"
    write_report(rec, path)
    lines = path.read_text().splitlines()
    assert lines[1].startswith("0,-1.5,,")
    assert lines[2].split(",")[2] == "-1.25"


# ---------------------------------------------------------------- bound


def test_bound_worked_example():
    inp = ValidationBoundInputs(eps0=1.0, eps1=20.0, eps=2.0, alpha=0.05, image_size=65536)
    assert required_validation_size(inp) == 2956
    # direct evaluation, kept alongside as the frozen reference
    assert math.ceil(20.0**2 / (2 * (2.0 - 1.0) ** 2) * math.log(2 * 65536 / 0.05)) == 2956


def test_bound_log_argument_one_gives_zero():
    inp = ValidationBoundInputs(eps0=0.0, eps1=5.0, eps=1.0, alpha=2 * 64, image_size=64)
    assert required_validation_size(inp) == 0


@pytest.mark.parametrize("alpha", [0.05, 1e-320])
def test_bound_of_an_exact_predictor_is_zero(alpha):
    # at alpha 1e-320 the log is inf, and 0 * inf would be NaN
    inp = ValidationBoundInputs(eps0=0.0, eps1=0.0, eps=1.0, alpha=alpha, image_size=65536)
    assert required_validation_size(inp) == 0


def test_bound_quarter_rule():
    a = ValidationBoundInputs(eps0=1.0, eps1=20.0, eps=2.0, alpha=0.05, image_size=65536)
    b = ValidationBoundInputs(eps0=1.0, eps1=20.0, eps=3.0, alpha=0.05, image_size=65536)
    va, vb = required_validation_size(a), required_validation_size(b)
    # doubling eps - eps0 quarters the pre-ceiling bound
    assert va / 4 - 1 <= vb <= math.ceil(va / 4)


def test_bound_monotonicity():
    base = dict(eps0=1.0, eps1=20.0, eps=2.0, alpha=0.05, image_size=65536)
    v = required_validation_size(ValidationBoundInputs(**base))
    assert required_validation_size(ValidationBoundInputs(**{**base, "eps": 2.5})) <= v
    assert required_validation_size(ValidationBoundInputs(**{**base, "alpha": 0.2})) <= v
    assert required_validation_size(ValidationBoundInputs(**{**base, "eps1": 30.0})) >= v
    assert (
        required_validation_size(ValidationBoundInputs(**{**base, "image_size": 2 * 65536}))
        >= v
    )


@pytest.mark.parametrize("eps0, eps1, eps", [
    (1.0, 1e200, 2.0),     # eps1 ** 2 overflows
    (1.0, 20.0, 1e300),    # (eps - eps0) ** 2 overflows
    (0.0, 1e-100, 1e-170),  # (eps - eps0) ** 2 underflows to a zero divisor
])
def test_bound_out_of_float_range_names_its_inputs(eps0, eps1, eps):
    inp = ValidationBoundInputs(eps0=eps0, eps1=eps1, eps=eps, alpha=0.05, image_size=65536)
    with pytest.raises(ValueError, match=re.escape(
            f"leaves the floating-point range at eps0={eps0}, eps1={eps1}, eps={eps}, "
            f"alpha=0.05, image_size=65536")):
        required_validation_size(inp)


def test_bound_rejects_unreachable_accuracy():
    with pytest.raises(ValueError):
        ValidationBoundInputs(eps0=2.0, eps1=20.0, eps=2.0, alpha=0.05, image_size=64)
    with pytest.raises(ValueError):
        ValidationBoundInputs(eps0=1.0, eps1=20.0, eps=2.0, alpha=0.0, image_size=64)
    # the error budget itself: mean magnitude eps0 >= 0 and at most the sup eps1
    with pytest.raises(ValueError, match="eps0 must be >= 0"):
        ValidationBoundInputs(eps0=-0.5, eps1=1.0, eps=2.0, alpha=0.05, image_size=64)
    with pytest.raises(ValueError, match="eps1 must be >= eps0"):
        ValidationBoundInputs(eps0=2.0, eps1=1.0, eps=3.0, alpha=0.05, image_size=64)
