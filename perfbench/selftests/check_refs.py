"""Each benchmark check passes on the program's real output and fails on a
deliberately wrong one.

The file names do not match pytest's ``test_*.py`` pattern, so a test run over
the whole repository leaves these out; name them on the command line (see
README.md in the directory above).
"""

import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np
import pytest

import refs
import tracing
from segnoise import (MarkovNoiseParams, ValidationBoundInputs, expected_label_mc, generate,
                      preset, signed_distance, verify_bayes_mask, verify_validation_bound)
from segnoise.formats import save_mask
from segnoise.model import loss_and_grad

QUICK_BOUND = {"eps0": 0.5, "eps1": 2.0, "eps": 1.0, "alpha": 0.5, "image_size": 1024}


def disk(shape=(64, 64), radius=16.0):
    grids = np.indices(shape)
    centre = [(e - 1) / 2 for e in shape]
    return sum((g - c) ** 2 for g, c in zip(grids, centre)) <= radius ** 2


@pytest.mark.parametrize("name, shape", [("jsrt-lung-se", (48, 40)), ("brats-se", (20, 18, 16))])
def test_walk_check_passes_on_generate_and_fails_on_one_flipped_bit(name, shape):
    clean = disk(shape, min(shape) / 3)
    noisy = generate(clean, replace(preset(name), seed=5))
    assert refs.check_walk(clean, noisy, name, 5) == []
    noisy.flat[noisy.size // 2] ^= True
    assert refs.check_walk(clean, noisy, name, 5)


def test_walk_check_fails_on_another_seed():
    clean = disk((48, 48), 12)
    noisy = generate(clean, replace(preset("jsrt-lung-se"), seed=5))
    assert refs.check_walk(clean, noisy, "jsrt-lung-se", 6)


def test_gtf_reader_reads_saved_masks(tmp_path):
    mask = disk((12, 10, 8), 3)
    save_mask(mask, tmp_path / "m.gtf")
    assert np.array_equal(refs.read_gtf_mask(tmp_path / "m.gtf"), mask)


def test_sdf_check_passes_and_fails_on_a_shifted_field():
    rng = np.random.default_rng(3)
    mask = refs.random_blob_mask(rng, (64, 64))
    phi = signed_distance(mask)
    assert refs.check_signed_distance(mask, phi) == []
    assert refs.check_signed_distance(mask, phi + 1.0)
    phi[10, 10] += 1.0
    assert refs.check_signed_distance(mask, phi)


def test_bound_formula_and_report_check():
    assert refs.required_validation_size(**refs.WORKED_BOUND) == 2956
    rep = verify_validation_bound(ValidationBoundInputs(**QUICK_BOUND), 5, holdout=8, seed=2)
    assert refs.check_bound_report(rep.measurements, rep.passed, QUICK_BOUND, 8) == []
    wrong = dict(rep.measurements, v_required=rep.measurements["v_required"] - 1)
    assert refs.check_bound_report(wrong, rep.passed, QUICK_BOUND, 8)
    assert refs.check_bound_report(rep.measurements, False, QUICK_BOUND, 8)


def test_bound_answer_check():
    assert refs.check_bound_answer("2956\n") == []
    assert refs.check_bound_answer("2955\n")


@pytest.mark.parametrize("theta1, theta2", [(0.7, 0.9), (0.2, 0.8), (0.5, 0.5)])
def test_bayes_report_check(theta1, theta2):
    rep = verify_bayes_mask(disk(), theta1, theta2, 0.0, 400, seed=7, threads=2)
    assert refs.check_bayes_report(rep.measurements, rep.passed, theta1, theta2) == []
    other = {"expand": "identity", "shrink": "expand", "identity": "shrink"}
    renamed = dict(rep.measurements, regime=other[rep.measurements["regime"]])
    assert refs.check_bayes_report(renamed, rep.passed, theta1, theta2)
    disagree = dict(rep.measurements, n_disagree=1)
    assert refs.check_bayes_report(disagree, False, theta1, theta2)


@pytest.mark.parametrize("theta1, theta2", [(0.7, 0.9), (0.2, 0.8), (0.5, 0.5)])
def test_one_step_means_check(theta1, theta2):
    mask = disk()
    params = MarkovNoiseParams(steps=1, theta1=theta1, theta2=theta2, seed=11)
    mean = expected_label_mc(mask, params, 2000, threads=2)
    assert refs.check_one_step_means(mask, mean, theta1, theta2, 2000) == []
    fg_nb, _ = refs.neighbour_any(mask)
    shifted = mean + 0.05 * (~mask & fg_nb)
    assert refs.check_one_step_means(mask, shifted, theta1, theta2, 2000)
    moved = mean.copy()
    moved[32, 32] = 0.5
    assert refs.check_one_step_means(mask, moved, theta1, theta2, 2000)


def test_recovery_check():
    fixed = [-1.7, -0.4]
    assert refs.check_recovery({"clean": 0.97, "noisy": 0.90, "sc": 0.965}, fixed) == []
    assert refs.check_recovery({"clean": 0.97, "noisy": 0.90, "sc": 0.92}, fixed)
    assert refs.check_recovery({"clean": 0.97, "noisy": 0.90, "sc": 0.985}, fixed)
    assert refs.check_recovery({"clean": 0.90, "noisy": 0.90, "sc": 0.90}, fixed)
    assert refs.check_recovery({"clean": 0.97, "noisy": 0.94, "sc": 0.94}, [-0.8]) == []
    assert refs.check_recovery({"clean": 0.97, "noisy": 0.94, "sc": 0.95}, [-0.8])
    assert refs.check_recovery({"clean": 0.97, "noisy": 0.94, "sc": 0.94}, [-1.2])


def test_loss_and_grad_check():
    assert refs.check_loss_and_grad(loss_and_grad, np.random.default_rng(0)) == []

    def wrong_grad(w, X, y, l2):
        loss, grad = loss_and_grad(w, X, y, l2)
        return loss, grad * 1.01

    def wrong_loss(w, X, y, l2):
        loss, grad = loss_and_grad(w, X, y, l2)
        return loss + 1e-6, grad

    assert refs.check_loss_and_grad(wrong_grad, np.random.default_rng(0))
    assert refs.check_loss_and_grad(wrong_loss, np.random.default_rng(0))


def test_self_time_and_pool_split():
    spans = [
        {"id": 0, "name": "harness.verify_validation_bound", "parent": None, "start": 0.0, "end": 10.0, "cpu": 0},
        {"id": 1, "name": "sdf.signed_distance", "parent": 0, "start": 1.0, "end": 4.0, "cpu": 0, "sites": 9},
        {"id": 2, "name": "model.draw_offsets", "parent": 0, "start": 6.0, "end": 7.0, "cpu": 0},
        {"id": 3, "name": "model.draw_offsets", "parent": 0, "start": 8.0, "end": 8.5, "cpu": 0},
    ]
    agg = tracing.summarise(spans)
    assert agg["harness.verify_validation_bound"]["self_s"] == pytest.approx(5.5)
    assert agg["sdf.signed_distance"]["sites"] == 9
    assert tracing.pool_and_trials(spans) == pytest.approx((6.0, 2.5))
