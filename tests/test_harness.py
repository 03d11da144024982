"""Synthetic data and the verification experiments at desk scale."""

import hashlib
import os
import re
from dataclasses import replace
from itertools import repeat

import numpy as np
import pytest
from scipy.ndimage import binary_fill_holes
from scipy.special import betaincinv
from scipy.stats import beta

from segnoise import (
    CorrectionParams,
    DegenerateMaskError,
    MarkovNoiseParams,
    SynthSpec,
    TrainConfig,
    TrainingDivergedError,
    TrialReport,
    ValidationBoundInputs,
    bayes_mask_one_step,
    centered_disk,
    dice,
    dilate_one,
    run_pipeline,
    signed_distance,
    sweep,
    synth_dataset,
    synth_masks,
    verify_bayes_mask,
    verify_validation_bound,
    write_trial_report,
)

from _oracles import assert_no_child_left, interior_hole_flips, reference_balls


# ---------------------------------------------------------------- synthesis


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(count=1, shape=(8, 8))  # too small for shapes with margin
    with pytest.raises(ValueError):
        SynthSpec(count=1, shape=(32, 32), family="squares")
    with pytest.raises(ValueError):
        SynthSpec(count=0, shape=(32, 32))
    with pytest.raises(ValueError):
        SynthSpec(count=1, shape=(32, 32), holes=(0, 2))
    for name in ("contrast", "blur_sigma", "noise_sigma"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                SynthSpec(count=1, shape=(32, 32), **{name: value})


def test_masks_fit_inside_the_margin():
    spec = SynthSpec(count=30, shape=(32, 32), seed=1)
    for m in synth_masks(spec):
        assert m.any() and not m.all()
        assert not m[:2, :].any() and not m[-2:, :].any()
        assert not m[:, :2].any() and not m[:, -2:].any()


def test_ellipse_union_family_also_respects_margins():
    spec = SynthSpec(count=20, shape=(40, 40), family="ellipse-unions", seed=5)
    for m in synth_masks(spec):
        assert m.any()
        assert not m[:2, :].any() and not m[-2:, :].any()
        assert not m[:, :2].any() and not m[:, -2:].any()


def test_dataset_is_deterministic_and_masks_match():
    spec = SynthSpec(count=6, shape=(32, 32), seed=9)
    imgs_a, masks_a = synth_dataset(spec)
    imgs_b, masks_b = synth_dataset(spec)
    for a, b in zip(imgs_a, imgs_b):
        assert np.array_equal(a, b)
    for a, b in zip(masks_a, masks_b):
        assert np.array_equal(a, b)
    for a, b in zip(masks_a, synth_masks(spec)):
        assert np.array_equal(a, b)


def test_noiseless_unblurred_image_is_a_scaled_mask():
    spec = SynthSpec(count=3, shape=(32, 32), contrast=2.5, blur_sigma=0.0, noise_sigma=0.0)
    images, masks = synth_dataset(spec)
    for img, m in zip(images, masks):
        assert np.array_equal(img, 2.5 * m.astype(np.float64))


def test_hole_option_punches_interior_background():
    spec = SynthSpec(count=12, shape=(48, 48), holes=(2, 2), seed=3)
    solid = synth_masks(SynthSpec(count=12, shape=(48, 48), seed=3))
    holed = synth_masks(spec)
    for m, s in zip(holed, solid):
        assert (s & ~m).sum() >= 2  # something was removed from the interior
        filled = binary_fill_holes(m, structure=np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]]))
        assert (filled & ~m).any()  # and it is enclosed, not a bite off the rim
        assert not (m & ~s).any()


def test_3d_masks_are_supported():
    spec = SynthSpec(count=4, shape=(20, 20, 20), seed=2)
    for m in synth_masks(spec):
        assert m.ndim == 3 and m.any() and not m.all()


def _masks_digest(masks):
    h = hashlib.sha256()
    for m in masks:
        h.update(np.ascontiguousarray(m, dtype=np.uint8).tobytes())
    return h.hexdigest()


# Six masks per spec (seed 17), recorded from the shape drawing that evaluated
# every ball on the whole grid; holes=(2, 1) picks its centres from a signed
# distance field, so these also pin signed_distance.
SYNTH_DIGESTS = {
    ((64, 64), "disks", None): "000d6b5d07221e94f003ed04151e0a959ce6aba1a9b58de3fb3d5a9b5951d604",
    ((64, 64), "disks", (2, 1)): "4d5a15198f7a0e5739d908993bcd97cb50422ec52ded29f4e96f215b5a4a5bb2",
    ((64, 64), "ellipse-unions", None): "bac8bfc40b1a317f73e38b600609744a44fe668b1e8c1d97f6bb3c44ab8fd43b",
    ((64, 64), "ellipse-unions", (2, 1)): "1465163c51844bb7c9fa211adc7f59da3057947994b51c4262546588186d5c1d",
    ((24, 24, 24), "disks", None): "9b4a8915262252b66a82b71fff10a4f11204de937aff8cc9e81efdc3da701e26",
    ((24, 24, 24), "disks", (2, 1)): "3c5975771b069b2636dd43e036857ce3956905254b10ded87817894ab92579a0",
    ((24, 24, 24), "ellipse-unions", None): "19b5321822b3e34f9b2782595493d0f8df5afbeb3375c0e824115d067d493b6d",
    ((24, 24, 24), "ellipse-unions", (2, 1)): "fe03f5f9f35358cf054661578c93c133e022e8f239b411230910a42b992f6f69",
}


@pytest.mark.parametrize("shape,family,holes", sorted(SYNTH_DIGESTS, key=repr),
                         ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_synthetic_masks_keep_their_bits(shape, family, holes):
    spec = SynthSpec(count=6, shape=shape, family=family, holes=holes, seed=17)
    assert _masks_digest(synth_masks(spec)) == SYNTH_DIGESTS[shape, family, holes]


# SHA-256 of synth_dataset's images and masks, recorded from the synthesis
# that drew each mask's shapes with its own generator. A 2-D disk takes 3
# shape words, so its image starts from half an output; a 3-D disk takes 4.
# Holes draw from the same stream before the image noise, and 2**40 + 3 is a
# seed of two words
DATASET_DIGESTS = {
    "disks-64x64": ((64, 64), "disks", None, 17,
                    "9c3a76629841f191f6dd3b3c22b9a1acb985ab986747156d2fdcc8a9e27b6c51"),
    "disks-24x24x24": ((24, 24, 24), "disks", None, 17,
                       "833c216137feb2207b29467408cc99b4c5ccc4f4a8f1dcc0f591049bd6a6440d"),
    "ellipse-unions-holes-64x64": ((64, 64), "ellipse-unions", (2, 1), 17,
                                   "eb58ddebd60f4f3a32981640ea1ecf19a817d8d5ea39f7cd5ce42c1a37f4c08f"),
    "disks-holes-seed-2**40+3": ((32, 32), "disks", (1, 1), 2**40 + 3,
                                 "780044a9240c465d55313ba901c6f112f1405bf4307091e9f1ef8afb913e6d63"),
}


@pytest.mark.parametrize("block", [None, 2], ids=["one-block", "blocks-of-2"])
@pytest.mark.parametrize("case", list(DATASET_DIGESTS))
def test_synthetic_images_keep_their_bits(monkeypatch, case, block):
    from segnoise import harness

    if block:  # masks whose shapes are drawn a block at a time keep their bits
        monkeypatch.setattr(harness, "_POOL_BLOCK", block)
    shape, family, holes, seed, digest = DATASET_DIGESTS[case]
    images, masks = synth_dataset(SynthSpec(count=5, shape=shape, family=family,
                                            holes=holes, seed=seed))
    h = hashlib.sha256()
    for img, m in zip(images, masks):
        h.update(img.tobytes())
        h.update(np.ascontiguousarray(m, dtype=np.uint8).tobytes())
    assert h.hexdigest() == digest


def test_centered_disk_default_radius():
    m = centered_disk((33, 33))
    assert m[16, 16] and m.any() and not m.all()
    assert np.array_equal(m, m[::-1, :]) and np.array_equal(m, m[:, ::-1])


def test_interior_hole_flips_stay_deep():
    m = centered_disk((41, 41), radius=12)
    phi = signed_distance(m)
    out = interior_hole_flips(m, rate=0.2, min_depth=4, seed=1)
    changed = out != m
    assert changed.any()
    assert (phi[changed] <= -4).all()


# ---------------------------------------------------------------- reports


def test_trial_report_rows_and_csv(tmp_path):
    rep = TrialReport(
        name="demo",
        passed=True,
        seed=7,
        params={"theta1": 0.7},
        measurements={"rate": 0.25, "ok": True},
    )
    rows = rep.rows()
    keys = [k for k, _ in rows]
    assert keys[:3] == ["name", "passed", "seed"]
    assert "params.theta1" in keys and "measurements.rate" in keys
    path = tmp_path / "t.csv"
    write_trial_report(rep, path)
    text = path.read_text()
    assert text.splitlines()[0] == "key,value"
    assert "params.theta1,0.7" in text
    assert "passed,true" in text


# ---------------------------------------------------------------- one-step check


@pytest.mark.parametrize(
    "theta1,theta2,regime",
    [(0.7, 0.9, "expand"), (0.2, 0.8, "shrink"), (0.5, 0.5, "identity")],
)
def test_one_step_check_passes_each_regime(theta1, theta2, regime):
    mask = centered_disk((32, 32), radius=7)
    rep = verify_bayes_mask(mask, theta1, theta2, 0.0, n_samples=12000, seed=3)
    assert rep.passed
    assert rep.measurements["n_disagree"] == 0
    assert rep.measurements["regime"] == regime
    assert rep.measurements["decided_fraction"] > 0.9


def test_one_step_check_refuses_a_mask_without_boundary():
    # an empty or all-foreground fixture has no site that can move, so every
    # site would be "decided" and the check would pass on nothing
    for radius in (0, -3):
        with pytest.raises(ValueError, match="radius"):
            centered_disk((12, 12), radius)
    for mask in (np.zeros((12, 12), bool), centered_disk((12, 12), 100)):
        with pytest.raises(DegenerateMaskError):
            verify_bayes_mask(mask, 0.7, 0.9, 0.0, n_samples=300)


@pytest.mark.parametrize("threads", [0, -1])
def test_one_step_check_refuses_fewer_than_one_thread(threads):
    with pytest.raises(ValueError, match=f"^threads must be >= 1, got {threads}$"):
        verify_bayes_mask(centered_disk((12, 12), 4), 0.7, 0.9, 0.0, n_samples=300,
                          threads=threads)


def test_one_step_check_decides_more_sites_with_more_samples():
    mask = centered_disk((24, 24), radius=5)
    small = verify_bayes_mask(mask, 0.7, 0.9, 0.0, n_samples=2000, seed=1)
    big = verify_bayes_mask(mask, 0.7, 0.9, 0.0, n_samples=30000, seed=1)
    assert big.measurements["decided_fraction"] >= small.measurements["decided_fraction"]
    assert big.passed


def test_one_step_check_is_reproducible():
    mask = centered_disk((24, 24), radius=5)
    a = verify_bayes_mask(mask, 0.7, 0.9, 0.02, n_samples=4000, seed=11)
    b = verify_bayes_mask(mask, 0.7, 0.9, 0.02, n_samples=4000, seed=11)
    assert a.measurements == b.measurements and a.passed == b.passed


# ---------------------------------------------------------------- bound check


def small_bound_inputs():
    # V = ceil(8 * ln(2 * 1024 / 0.5)) = ceil(66.54) = 67 on a 32x32 grid
    return ValidationBoundInputs(eps0=0.5, eps1=2.0, eps=1.0, alpha=0.5, image_size=1024)


def test_bound_check_passes_at_desk_scale():
    rep = verify_validation_bound(small_bound_inputs(), n_trials=60, holdout=30, seed=5)
    assert rep.passed
    assert rep.measurements["v_required"] == 67
    assert rep.measurements["failure_rate"] <= 0.5
    assert rep.measurements["mean_error"] <= rep.measurements["fail_threshold"]


def test_bound_check_exact_oracle_never_fails():
    inputs = ValidationBoundInputs(eps0=0.0, eps1=2.0, eps=1.0, alpha=0.05, image_size=1024)
    rep = verify_validation_bound(inputs, n_trials=50, holdout=20, seed=2)
    assert rep.passed
    assert rep.measurements["failures"] == 0


def test_bound_check_single_validation_image_with_exact_oracle():
    # V = ceil(4 / 32 * ln(2 * 1024 / 0.9)) = ceil(0.966) = 1; with an exact
    # oracle the per-image gap equals the shared shift, so one sample recovers it
    inputs = ValidationBoundInputs(eps0=0.0, eps1=2.0, eps=4.0, alpha=0.9, image_size=1024)
    rep = verify_validation_bound(inputs, n_trials=40, holdout=20, seed=4)
    assert rep.measurements["v_required"] == 1
    assert rep.measurements["failures"] == 0 and rep.passed


def test_bound_check_is_reproducible():
    a = verify_validation_bound(small_bound_inputs(), n_trials=20, holdout=10, seed=9)
    b = verify_validation_bound(small_bound_inputs(), n_trials=20, holdout=10, seed=9)
    assert a.measurements == b.measurements


def test_bound_report_does_not_depend_on_the_cpu_count(monkeypatch):
    # V = ceil(8 ln 262144) = 100 plus 10 held out: a pool of 110 256^2 ellipse
    # unions, whose distinct crops hold enough sites for two worker processes
    from segnoise import _fanout

    inputs = ValidationBoundInputs(eps0=0.5, eps1=2.0, eps=1.0, alpha=0.5, image_size=65536)
    rows = {}
    for cpus in (1, 2):
        with monkeypatch.context() as mp:
            mp.setattr(_fanout.os, "cpu_count", lambda: cpus)
            workers = []
            spy(mp, _fanout, "_processes", workers)
            rep = verify_validation_bound(inputs, n_trials=5, holdout=10,
                                          family="ellipse-unions", seed=3)
        assert rep.measurements["pool_size"] == 110
        assert workers == [cpus]
        rows[cpus] = rep.rows()
    assert rows[1] == rows[2]


def no_fork():
    raise AssertionError("a helper process was forked")


def test_the_worked_example_disk_pool_starts_no_process(monkeypatch):
    # its 3,156 masks repeat 33 distinct crops, too few sites to repay a fork
    from segnoise import _fanout

    monkeypatch.setattr(_fanout.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_fanout.os, "fork", no_fork)
    inputs = ValidationBoundInputs(eps0=1.0, eps1=20.0, eps=2.0, alpha=0.05, image_size=65536)
    rep = verify_validation_bound(inputs, n_trials=5, seed=5)
    assert rep.measurements["pool_size"] == 3156
    assert_no_child_left()


@pytest.mark.parametrize("family", ["disks", "ellipse-unions"])
def test_a_pool_crop_is_the_mask_box_grown_by_two_inside_the_grid(monkeypatch, family):
    # the pool crops each mask from its drawn shapes alone: along each axis
    # from min(center - r) - 2 to max(center + r) + 2, which must be the
    # painted mask's box grown by 2, and which the margin keeps on the grid
    from segnoise import harness
    from segnoise.sdf import _box

    drawn = []
    spy(monkeypatch, harness, "_batch_balls", drawn)
    for shape in ((12, 12), (12, 30), (32, 32), (64, 64), (256, 256),
                  (12, 12, 12), (24, 24, 24), (40, 24, 32)):
        drawn.clear()
        masks = list(synth_masks(SynthSpec(count=150, shape=shape, family=family, seed=4)))
        centers = np.concatenate([c for c, _, _ in drawn]).tolist()
        radii = np.concatenate([r for _, r, _ in drawn]).tolist()
        at_first = at_last = 0
        for mask, cs, rs in zip(masks, centers, radii, strict=True):
            balls = [(c, r) for c, r in zip(cs, rs) if r[0]]
            crop = [(min(c[a] - r[a] for c, r in balls) - 2,
                     max(c[a] + r[a] for c, r in balls) + 3) for a in range(len(shape))]
            assert crop == [(b.start - 2, b.stop + 2) for b in _box(mask)]
            assert all(0 <= lo and hi <= n for (lo, hi), n in zip(crop, shape))
            at_first += any(lo == 0 for lo, _ in crop)
            at_last += any(hi == n for (_, hi), n in zip(crop, shape))
        assert at_first and at_last, shape  # the crop reaches the grid's edge


def _full_grid_gaps(mask, theta1, theta2):
    diff = signed_distance(bayes_mask_one_step(mask, theta1, theta2)) - signed_distance(mask)
    return diff.mean(), diff.min(), diff.max()


@pytest.mark.parametrize("theta1,theta2", [(0.7, 0.9), (0.2, 0.8), (0.5, 0.5)])
def test_pool_gaps_are_the_full_grid_gaps(theta1, theta2):
    # the pool works on each shape's box; its mean, min and max must be the
    # bits of the whole grid's
    from segnoise import harness

    for spec in (SynthSpec(count=3, shape=(256, 256), seed=8),
                 SynthSpec(count=12, shape=(64, 64), family="ellipse-unions", seed=9),
                 SynthSpec(count=3, shape=(24, 24, 24), seed=10),
                 SynthSpec(count=40, shape=(64, 64), seed=11),  # repeated crops
                 SynthSpec(count=30, shape=(12, 12), family="ellipse-unions", seed=12)):
        got = harness._pool_gaps(spec, theta1, theta2)
        want = np.array([_full_grid_gaps(m, theta1, theta2) for m in synth_masks(spec)]).T
        assert got.tobytes() == want.tobytes()


def test_the_pool_computes_each_distinct_crop_once(monkeypatch):
    # a crop is keyed by its shapes' radii and their centers relative to it:
    # these six draws crop to three arrays, a small disk three times (once
    # at the grid's first row and column), a large disk twice (once at its
    # last row) and a union of two ellipses once
    from segnoise import harness

    shape = (40, 30)
    small, large = (4, 4), (6, 6)
    geometries = [[((19, 14), small)], [((24, 11), small)], [((19, 14), large)],
                  [((6, 6), small)], [((31, 16), large)],
                  [((12, 10), (3, 5)), ((16, 14), (4, 3))]]
    # the pool's batch draw: two shape slots a mask, radii 0 in an empty one
    centers = np.zeros((6, 2, 2), dtype=np.int64)
    radii = np.zeros_like(centers)
    for k, balls in enumerate(geometries):
        for slot, (c, r) in enumerate(balls):
            centers[k, slot], radii[k, slot] = c, r
    # and no generator: these masks draw nothing past their shapes
    monkeypatch.setattr(harness, "_batch_balls",
                        lambda spec, lo, hi: (centers[lo:hi], radii[lo:hi], repeat(None)))
    calls = []

    def counted(mask):
        calls.append(mask.shape)
        return signed_distance(mask)

    monkeypatch.setattr(harness, "signed_distance", counted)
    spec = SynthSpec(count=6, shape=shape)
    got = harness._pool_gaps(spec, 0.7, 0.9)
    assert len(calls) == 6  # the most-likely mask and the mask, per distinct crop
    assert calls[0::2] == calls[1::2]
    monkeypatch.setattr(harness, "signed_distance", signed_distance)
    masks = list(synth_masks(spec))  # the same six draws, painted on the grid
    assert got.tobytes() == np.array([_full_grid_gaps(m, 0.7, 0.9) for m in masks]).T.tobytes()


def worked_example_pool_seed():
    """The pool seed that ``verify_validation_bound(seed=1)`` gives its spec."""
    pool_ss, _ = np.random.SeedSequence(1).spawn(2)
    return int(pool_ss.generate_state(1)[0])


# SHA-256 of _pool_gaps(...).tobytes(), recorded from the pool that drew each
# mask's shapes with its own generator: the worked example's 3,156 disks on
# 256^2, a 256^2 ellipse-union pool in the shrink regime, and a 24^3 disk pool
POOL_DIGESTS = {
    "worked-example": ((3156, (256, 256), "disks", None), 0.7, 0.9,
                       "3c7fd4f1ea0aa6c933a28bc7714f8598a9315d56b5bb611d5169f206c796cc27"),
    "ellipse-unions-256": ((100, (256, 256), "ellipse-unions", 21), 0.2, 0.8,
                           "c7841f782a2a0f4b8c1dbaf0d8ce8fe14cff6cba401a731e40c9f36d6f755b60"),
    "disks-24^3": ((1000, (24, 24, 24), "disks", 22), 0.7, 0.9,
                   "3daa6c874e34123ac36b71359f5a0a6a8b13700dc2bd080bdb85604957383123"),
}


@pytest.mark.parametrize("block", [None, 333], ids=["one-block", "blocks-of-333"])
@pytest.mark.parametrize("case", list(POOL_DIGESTS))
def test_pools_keep_their_bits(monkeypatch, case, block):
    from segnoise import harness

    if block:  # masks drawn and weighed a block at a time keep their bits
        monkeypatch.setattr(harness, "_POOL_BLOCK", block)
    (count, shape, family, seed), theta1, theta2, digest = POOL_DIGESTS[case]
    spec = SynthSpec(count=count, shape=shape, family=family,
                     seed=worked_example_pool_seed() if seed is None else seed)
    gaps = harness._pool_gaps(spec, theta1, theta2)
    assert hashlib.sha256(gaps.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("family", ["disks", "ellipse-unions"])
@pytest.mark.parametrize("shape", [(12, 12), (12, 30), (256, 256), (12, 12, 12), (40, 24, 32)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_the_batch_draw_is_each_masks_draw(family, shape):
    # two calls, the second starting mid-stream, against one generator a mask
    # and each mask's generator stands where its own stands after the draw
    from segnoise import harness

    spec = SynthSpec(count=2100, shape=shape, family=family, seed=6)
    children = np.random.SeedSequence(6).spawn(2100)
    for lo, hi in ((0, 1000), (1000, 2100)):
        centers, radii, rngs = harness._batch_balls(spec, lo, hi)
        for cs, rs, rng, child in zip(centers.tolist(), radii.tolist(), rngs, children[lo:hi],
                                      strict=True):
            own = np.random.default_rng(child)
            assert ([(tuple(c), tuple(r)) for c, r in zip(cs, rs) if r[0]]
                    == reference_balls(own, shape, family))
            assert rng.bit_generator.state == own.bit_generator.state


def test_a_grid_side_that_numpy_draws_another_way_is_refused():
    # a range of 2**32 values or more takes numpy off Lemire's 32-bit path;
    # no pool comes near it
    from segnoise import harness

    side = 2**32 + 2 * (harness._MARGIN + 2)  # at the least radius, 2, 2**32 centers
    for e, refused in ((side - 1, False), (side, True)):
        spec = SynthSpec(count=3, shape=(12, e))
        if refused:
            with pytest.raises(ValueError, match=f"^grid side {e} "):
                harness._batch_balls(spec, 0, 3)
        else:
            assert harness._batch_balls(spec, 0, 3)[1].shape == (3, 1, 2)


def no_draw(*args):
    raise AssertionError("a mask's shapes were drawn")


def test_the_worked_example_pool_draws_through_no_generator(monkeypatch):
    from segnoise import _seeds, noise

    for module in (_seeds, noise):
        monkeypatch.setattr(module, "_child_rngs", no_draw)
    inputs = ValidationBoundInputs(eps0=1.0, eps1=20.0, eps=2.0, alpha=0.05, image_size=65536)
    rep = verify_validation_bound(inputs, n_trials=5, seed=1)
    assert rep.measurements["pool_size"] == 3156


def test_a_pool_of_more_than_2_to_the_32_masks_is_refused_before_any_draw(monkeypatch):
    from segnoise import harness

    monkeypatch.setattr(harness, "_batch_balls", no_draw)
    inputs = ValidationBoundInputs(eps0=1.0, eps1=20.0, eps=2.0, alpha=0.05, image_size=65536)
    with pytest.raises(ValueError, match=r"v_required \+ holdout = 2956 \+ 4294964341 "):
        verify_validation_bound(inputs, n_trials=5, holdout=2**32 - 2955)
    with pytest.raises(ValueError, match=r"^count must be <= 2\*\*32, got 4294967297$"):
        SynthSpec(count=2**32 + 1, shape=(12, 12))
    assert SynthSpec(count=2**32, shape=(12, 12)).count == 2**32


def test_incomplete_beta_inverse_is_the_beta_quantile():
    # the harness reads its Clopper-Pearson bounds from betaincinv; they must
    # be scipy.stats' beta quantiles to the bit, at every failure count
    for n in (1, 2, 3, 20, 199, 200, 1000, 5000):
        k = np.unique(np.linspace(1, n, 60).astype(int))
        for q in (0.05, 0.025):
            assert np.array_equal(betaincinv(k, n - k + 1, q), beta.ppf(q, k, n - k + 1))
        k = k[k < n]
        assert np.array_equal(betaincinv(k + 1, n - k, 0.975), beta.ppf(0.975, k + 1, n - k))


def test_bound_check_asks_for_a_square_image_size():
    inputs = ValidationBoundInputs(eps0=1.0, eps1=6.0, eps=2.5, alpha=0.05, image_size=1000)
    with pytest.raises(ValueError, match="^image_size must be a perfect square, got 1000$"):
        verify_validation_bound(inputs, n_trials=10, holdout=10, seed=0)


def test_bound_check_confidence_bounds_are_clopper_pearson():
    rep = verify_validation_bound(small_bound_inputs(), n_trials=20, holdout=10, seed=9)
    n, k = 20, rep.measurements["failures"]
    assert 0 < k < n
    assert rep.measurements["rate_lower_95_one_sided"] == float(beta.ppf(0.05, k, n - k + 1))
    assert rep.measurements["rate_ci95_low"] == float(beta.ppf(0.025, k, n - k + 1))
    assert rep.measurements["rate_ci95_high"] == float(beta.ppf(0.975, k + 1, n - k))


# ---------------------------------------------------------------- pipeline


def tiny_spec(count=40, seed=0):
    return SynthSpec(count=count, shape=(32, 32), blur_sigma=1.2, noise_sigma=0.25, seed=seed)


def test_pipeline_zero_noise_keeps_all_arms_close():
    noise = MarkovNoiseParams(steps=0, theta1=0.5, theta2=0.5)
    res = run_pipeline(
        tiny_spec(),
        noise,
        CorrectionParams(max_iters=2),
        TrainConfig(epochs=150),
        n_val=4,
        n_test=8,
        seed=0,
    )
    scores = {row["arm"]: row["test_dsc"] for row in res.metrics}
    assert set(scores) == {"clean", "noisy", "sc"}
    assert abs(scores["clean"] - scores["noisy"]) < 0.005
    assert abs(scores["clean"] - scores["sc"]) < 0.005


def test_pipeline_correction_reduces_the_label_gap():
    # drift must be deep enough that the first estimate clears the |delta|>=1
    # stop threshold even after the model partially denoises the labels
    noise = MarkovNoiseParams(steps=8, theta1=0.9, theta2=0.6, theta3=0.02, seed=0)
    res = run_pipeline(
        tiny_spec(count=48, seed=3),
        noise,
        CorrectionParams(max_iters=3),
        TrainConfig(epochs=200),
        n_val=6,
        n_test=10,
        seed=3,
    )
    noisy_dsc = np.mean([dice(n, t) for n, t in zip(res.noisy_labels, res.train_masks)])
    corrected_dsc = np.mean(
        [dice(c, t) for c, t in zip(res.corrected_labels, res.train_masks)]
    )
    assert corrected_dsc > noisy_dsc
    assert len(res.sc_records) >= 2
    assert abs(res.sc_records[0].delta_hat) >= 1.0


def spy(monkeypatch, module, name, results):
    """Replace ``module.name`` by a wrapper that appends each result to ``results``."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, wrapper)


def test_pipeline_does_not_depend_on_the_cpu_count(monkeypatch):
    # 32 training images of 32^2 for 200 epochs: 6.6 M site-epochs a fit, so
    # with two CPUs the clean and noisy arms are fitted in two workers
    from segnoise import _fanout, harness
    from segnoise import model as model_module

    noise = MarkovNoiseParams(steps=8, theta1=0.9, theta2=0.6, theta3=0.02, seed=0)
    cfg = TrainConfig(epochs=200)
    runs = {}
    for cpus in (1, 2):
        with monkeypatch.context() as mp:
            mp.setattr(_fanout.os, "cpu_count", lambda: cpus)
            arms, workers, calls = [], [], []
            spy(mp, harness, "map_ranges", arms)
            spy(mp, _fanout, "_processes", workers)
            spy(mp, model_module, "loss_and_grad", calls)
            res = run_pipeline(tiny_spec(count=48, seed=3), noise, CorrectionParams(max_iters=3),
                               cfg, n_val=6, n_test=10, seed=3)
        assert len(res.sc_records) >= 2
        # the loop's first fit is a no-op on the noisy arm's model, also when
        # that model comes back from a helper; each later round refits here,
        # and with two CPUs the clean arm is fitted here and the noisy one in
        # the helper
        refits = len(res.sc_records) - 1
        # the arms' count, then one per fit of 32,768 rows in this process:
        # the clean arm's fit, computed inside the fan-out, forks no helper
        assert workers == ([1] * (3 + refits) if cpus == 1 else [2, 1] + [2] * refits)
        assert len(calls) == cfg.epochs * (refits + (2 if cpus == 1 else 1))
        runs[cpus] = res, [model for part in arms[0] for model in part]
    (one, models_one), (two, models_two) = runs[1], runs[2]
    assert one.metrics == two.metrics
    assert repr(one.sc_records) == repr(two.sc_records)
    for a, b in ((one.noisy_labels, two.noisy_labels),
                 (one.corrected_labels, two.corrected_labels)):
        assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
    for a, b in zip(models_one, models_two, strict=True):
        assert np.array_equal(a.weights, b.weights) and a.losses == b.losses


def test_a_pipeline_fit_too_small_for_a_fork_starts_no_process(monkeypatch):
    from segnoise import _fanout, harness

    monkeypatch.setattr(_fanout.os, "cpu_count", lambda: 2)
    noise = MarkovNoiseParams(steps=2, theta1=0.9, theta2=0.6, seed=0)
    # 8 training images of 32^2: 73 epochs fall short of the grain, 74 reach it
    for epochs, forked in ((73, False), (74, True)):
        assert (8 * 32 * 32 * epochs >= harness._FIT_GRAIN) == forked
        with monkeypatch.context() as mp:
            workers = []
            spy(mp, _fanout, "_processes", workers)
            if not forked:
                mp.setattr(_fanout.os, "fork", no_fork)
            res = run_pipeline(tiny_spec(count=14), noise, CorrectionParams(max_iters=1),
                               TrainConfig(epochs=epochs), n_val=2, n_test=4, seed=0)
        # the arms' count, then one per fit in this process, each of 8,192
        # rows: too few for an epoch helper
        fits_here = (1 if forked else 2) + len(res.sc_records) - 1
        assert workers == [2 if forked else 1] + [1] * fits_here
        assert_no_child_left()


def test_a_forked_pipeline_forks_once_for_its_arms_and_once_per_refit(monkeypatch):
    # every fit may fork an epoch helper (a grain of one row), but neither
    # the clean arm's fit, here, nor the noisy arm's, in the arm helper, does
    from segnoise import _fanout
    from segnoise import model as model_module

    real_fork = _fanout.os.fork
    read, write = os.pipe()

    def fork():  # one byte per fork, from whichever process forks
        os.write(write, b"f")
        return real_fork()

    monkeypatch.setattr(_fanout.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_fanout.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(model_module, "_HALF_GRAIN", 1)
    monkeypatch.setattr(_fanout.os, "fork", fork)
    noise = MarkovNoiseParams(steps=8, theta1=0.9, theta2=0.6, seed=0)  # two refits
    try:
        res = run_pipeline(tiny_spec(count=14), noise, CorrectionParams(max_iters=3),
                           TrainConfig(epochs=123), n_val=2, n_test=4, seed=0)
    finally:
        os.close(write)
    forks = os.read(read, 4096)
    os.close(read)
    refits = len(res.sc_records) - 1
    assert refits >= 1
    assert len(forks) == 1 + refits
    assert_no_child_left()


def test_a_diverging_arm_fit_in_a_worker_reaches_the_caller(monkeypatch):
    from segnoise import _fanout

    monkeypatch.setattr(_fanout.os, "cpu_count", lambda: 2)
    workers = []
    spy(monkeypatch, _fanout, "_processes", workers)
    cfg = TrainConfig(learning_rate=1e300, epochs=200)
    noise = MarkovNoiseParams(steps=2, theta1=0.9, theta2=0.6, seed=0)
    with pytest.raises(TrainingDivergedError, match=f"^{re.escape(f'loss diverged under {cfg}')}$"):
        run_pipeline(tiny_spec(count=14), noise, CorrectionParams(), cfg,
                     n_val=2, n_test=4, seed=0)
    assert workers == [2, 1]  # the arms, then the clean arm's fit, which diverges here
    assert_no_child_left()


def test_pipeline_custom_noise_hook():
    calls = []

    def hole_noise(mask, seed):
        calls.append(seed)
        return interior_hole_flips(mask, rate=0.3, min_depth=3, seed=seed)

    res = run_pipeline(
        tiny_spec(count=30, seed=7),
        hole_noise,
        CorrectionParams(max_iters=2),
        TrainConfig(epochs=120),
        n_val=4,
        n_test=6,
        seed=7,
    )
    assert len(calls) == len(res.train_masks)
    assert len(set(calls)) == len(calls)  # one derived seed per image


def test_pipeline_corrections_fill_interior_holes():
    def hole_noise(mask, seed):
        return interior_hole_flips(mask, rate=0.35, min_depth=3, seed=seed)

    res = run_pipeline(
        tiny_spec(count=36, seed=11),
        hole_noise,
        CorrectionParams(max_iters=2),
        TrainConfig(epochs=200),
        n_val=4,
        n_test=6,
        seed=11,
    )
    hole_total = 0
    healed = 0
    for truth, noisy, corrected in zip(
        res.train_masks, res.noisy_labels, res.corrected_labels
    ):
        holes = truth & ~noisy
        hole_total += int(holes.sum())
        healed += int((corrected & holes).sum())
    assert hole_total > 0
    assert healed / hole_total >= 0.99


def test_sweep_emits_one_row_per_arm_per_value(tmp_path):
    noise = MarkovNoiseParams(steps=2, theta1=0.8, theta2=0.5, seed=0)
    csv_path = tmp_path / "sweep.csv"
    rows = sweep(
        "noise_level",
        [2],
        tiny_spec(count=24),
        noise,
        CorrectionParams(max_iters=1),
        TrainConfig(epochs=80),
        n_val=3,
        n_test=5,
        seed=0,
        csv_path=csv_path,
    )
    assert len(rows) == 3
    assert {r["arm"] for r in rows} == {"clean", "noisy", "sc"}
    assert all(r["kind"] == "noise_level" and r["value"] == 2 for r in rows)
    assert csv_path.read_text().splitlines()[0] == "kind,value,arm,seed,test_dsc"


def test_sweep_val_size_uses_the_requested_budget():
    noise = MarkovNoiseParams(steps=2, theta1=0.8, theta2=0.5, seed=0)
    rows = sweep(
        "val_size",
        [1, 2],
        tiny_spec(count=24),
        noise,
        CorrectionParams(max_iters=1),
        TrainConfig(epochs=80),
        n_val=4,
        n_test=5,
        seed=0,
    )
    assert len(rows) == 6
    assert {r["value"] for r in rows} == {1, 2}


# refits in several cells: the first bias estimate clears one lattice layer
SWEEP_NOISE = MarkovNoiseParams(steps=8, theta1=0.9, theta2=0.6, theta3=0.02, seed=0)


@pytest.mark.parametrize("kind, values, label_sets", [
    ("noise_level", [2, 4, 6, 8], 5), ("val_size", [1, 6], 2)])
def test_a_sweep_draws_its_data_once_and_fits_each_label_set_once(monkeypatch, kind, values,
                                                                   label_sets):
    # one process, so every fit runs here: the clean masks and each distinct
    # noise's labels once, then each cell's refits. Each cell's loop starts
    # from a copy of its noise's model, so its first fit is a no-op
    from segnoise import _fanout, harness
    from segnoise import model as model_module

    monkeypatch.setattr(_fanout.os, "cpu_count", lambda: 1)
    draws, fits, loops, calls = [], [], [], []
    spy(monkeypatch, harness, "synth_dataset", draws)
    spy(monkeypatch, harness, "_fit_arms", fits)
    spy(monkeypatch, model_module, "loss_and_grad", calls)
    spy(monkeypatch, harness, "spatial_correction", loops)
    cfg = TrainConfig(epochs=120)
    rows = sweep(kind, values, tiny_spec(count=48, seed=3), SWEEP_NOISE,
                 CorrectionParams(max_iters=3), cfg, n_val=6, n_test=10, seed=3)
    assert len(rows) == 3 * len(values)
    assert len(draws) == 1
    assert [len(models) for models in fits] == [label_sets]
    refits = sum(len(loop.records) - 1 for loop in loops)
    assert len(loops) == len(values) and refits >= 1
    assert len(calls) == cfg.epochs * (label_sets + refits)


def test_each_sweep_row_matches_its_own_pipeline():
    spec, params, cfg = tiny_spec(count=48, seed=3), CorrectionParams(max_iters=3), \
        TrainConfig(epochs=120)

    def arms(rows, value):
        return [(r["arm"], r["test_dsc"]) for r in rows if r["value"] == value]

    def pipeline(noise):
        res = run_pipeline(spec, noise, params, cfg, n_val=6, n_test=10, seed=3)
        return res, [(m["arm"], m["test_dsc"]) for m in res.metrics]

    full, full_arms = pipeline(SWEEP_NOISE)
    assert len(full.sc_records) >= 2  # its loop refits, so its sc arm is its own
    # a repeated value shares its label set and its fit, and still gets its rows
    rows = sweep("noise_level", [8, 4, 8], spec, SWEEP_NOISE, params, cfg,
                 n_val=6, n_test=10, seed=3)
    assert [r["value"] for r in rows] == [8] * 3 + [4] * 3 + [8] * 3
    assert arms(rows, 8) == 2 * full_arms
    assert arms(rows, 4) == pipeline(replace(SWEEP_NOISE, steps=4))[1]
    rows = sweep("val_size", [2, 6], spec, SWEEP_NOISE, params, cfg, n_val=6, n_test=10,
                 seed=3)
    assert arms(rows, 6) == full_arms


def test_sweep_rejects_unknown_kind():
    with pytest.raises(ValueError):
        sweep(
            "gamma",
            [1],
            tiny_spec(count=24),
            MarkovNoiseParams(steps=1, theta1=0.5, theta2=0.5),
            n_val=2,
            n_test=2,
        )
