"""Reference segmenter, Theorem-1 error offsets, external-trainer bridge."""

import os
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from segnoise import (
    CorrectionParams,
    ExternalSegmenter,
    LogisticSegmenter,
    MarkovNoiseParams,
    Segmenter,
    SynthSpec,
    TrainConfig,
    TrainingDivergedError,
    centered_disk,
    dice,
    loss_and_grad,
    run_pipeline,
    save_field,
    spatial_correction,
    synth_dataset,
    threshold,
)
from segnoise import _fanout
from segnoise import model as model_module
from segnoise.harness import draw_offsets
from _oracles import finite_difference_grad, run_fresh


def toy_data(n_images=3, shape=(12, 12), seed=0, noise=0.25):
    rng = np.random.default_rng(seed)
    images, labels = [], []
    for _ in range(n_images):
        m = centered_disk(shape, radius=int(rng.integers(2, 4)))
        img = m.astype(np.float64) + noise * rng.standard_normal(shape)
        images.append(img)
        labels.append(m)
    return images, labels


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(l2=-1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_a_non_finite_step_or_penalty(value):
    # NaN passes both sign checks, and an infinite step diverges only later
    with pytest.raises(ValueError, match=f"^learning_rate must be positive and finite, got {value}$"):
        TrainConfig(learning_rate=value)
    with pytest.raises(ValueError, match=f"^l2 must be >= 0 and finite, got {value}$"):
        TrainConfig(l2=value)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(5)
    for _ in range(8):
        n, d = int(rng.integers(20, 60)), int(rng.integers(2, 6))
        X = rng.standard_normal((n, d))
        y = (rng.random(n) < 0.5).astype(np.float64)
        l2 = float(rng.uniform(0, 0.1))
        w = rng.standard_normal(d)
        _, g = loss_and_grad(w, X, y, l2)
        ref = finite_difference_grad(lambda v: loss_and_grad(v, X, y, l2)[0], w)
        assert np.abs(g - ref).max() <= 1e-5 * max(1.0, np.abs(ref).max())


def reference_loss_and_grad(w, X, y, l2):
    """The written-out loss and gradient: logaddexp for the loss, expit for the sigmoid."""
    f = X @ w
    reg = w.copy()
    reg[0] = 0.0
    loss = float(np.mean(np.logaddexp(0.0, f) - y * f)) + 0.5 * l2 * float(reg @ reg)
    return loss, X.T @ (expit(f) - y) / y.size + l2 * reg


def test_fused_loss_and_grad_matches_the_written_out_reference():
    rng = np.random.default_rng(17)
    n, d = 600, 4
    # row scales from 1e-4 to 1e4 put logits of both signs across that whole range
    X = rng.standard_normal((n, d)) * np.logspace(-4, 4, n)[:, None]
    X[:5] = 0.0  # logits of exactly 0.0
    w = np.array([0.3, -1.2, 0.8, 0.5])
    f = X @ w
    assert f.min() < -1e3 and f.max() > 1e3 and (f == 0.0).sum() == 5
    scratch = np.full((3, n), np.nan)  # stale contents must not leak
    for Xo in (X, np.asfortranarray(X)):  # a fit's design is in column order
        for y in (rng.random(n), (rng.random(n) < 0.5).astype(np.float64)):
            halves = _fanout.halves_in_turn(model_module._half_sums, n, Xo, y, scratch)
            split = model_module._split(Xo, y, halves)  # as a fit passes it
            for l2 in (0.0, 0.01):
                ref_loss, ref_grad = reference_loss_and_grad(w, Xo, y, l2)
                copies = w.copy(), Xo.copy(order="K"), y.copy()
                for out in (loss_and_grad(w, Xo, y, l2), loss_and_grad(w, Xo, y, l2, split)):
                    np.testing.assert_allclose(out[0], ref_loss, rtol=1e-12, atol=0)
                    np.testing.assert_allclose(out[1], ref_grad, rtol=1e-12, atol=0)
                for before, after in zip(copies, (w, Xo, y)):
                    assert np.array_equal(before, after)


@pytest.mark.parametrize("n", [1, 2])
def test_loss_and_grad_on_one_or_two_rows(n):
    # the first half holds no row, then one
    rng = np.random.default_rng(n)
    X, y, w = rng.standard_normal((n, 3)), np.array([1.0, 0.0][:n]), rng.standard_normal(3)
    for l2 in (0.0, 0.1):
        loss, grad = loss_and_grad(w, X, y, l2)
        ref_loss, ref_grad = reference_loss_and_grad(w, X, y, l2)
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-12, atol=0)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=0)


@pytest.fixture
def helper(monkeypatch, deadline):
    """Force a helper process onto every fit: two CPUs, in the count and in
    the affinity set, and a grain of one row. Yields the pids that ``fork``
    returned to this process."""
    from segnoise import _fanout

    pids = []
    real_fork = _fanout.os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(_fanout.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_fanout.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(model_module, "_HALF_GRAIN", 1)
    monkeypatch.setattr(_fanout.os, "fork", fork)
    yield pids
    with pytest.raises(ChildProcessError):  # every helper was reaped
        os.waitpid(-1, os.WNOHANG)


def test_fit_bits_do_not_depend_on_the_helper(helper, monkeypatch):
    images, labels = toy_data(shape=(11, 13), noise=0.3, seed=6)  # 429 rows: halves of 214 and 215
    cfg = TrainConfig(learning_rate=2.0, epochs=60)
    with_helper = LogisticSegmenter(cfg).fit(images, labels)
    assert len(helper) == 1
    monkeypatch.setattr(_fanout.os, "cpu_count", lambda: 1)
    alone = LogisticSegmenter(cfg).fit(images, labels)
    assert len(helper) == 1
    assert np.array_equal(with_helper.weights, alone.weights)
    assert with_helper.losses == alone.losses


def test_a_diverging_fit_reaps_its_helper(helper):
    images, labels = toy_data(noise=0.2)
    with pytest.raises(TrainingDivergedError):
        LogisticSegmenter(TrainConfig(learning_rate=1e300, epochs=20)).fit(images, labels)
    assert len(helper) == 1


def test_an_error_mid_descent_reaps_the_helper(helper, monkeypatch):
    real, calls = model_module.loss_and_grad, []

    def fail_on_the_fifth(*args):
        calls.append(1)
        if len(calls) == 5:
            raise MemoryError("mid-descent")
        return real(*args)

    monkeypatch.setattr(model_module, "loss_and_grad", fail_on_the_fifth)
    with pytest.raises(MemoryError, match="mid-descent"):
        LogisticSegmenter(TrainConfig(epochs=20)).fit(*toy_data())
    assert len(helper) == 1


def test_a_helper_that_dies_mid_fit_is_a_clear_error(helper, monkeypatch):
    real, parent = model_module._half_sums, os.getpid()

    def die_in_the_helper_on_the_third(*args):
        die_in_the_helper_on_the_third.calls += 1
        if os.getpid() != parent and die_in_the_helper_on_the_third.calls == 3:
            os._exit(9)
        return real(*args)

    die_in_the_helper_on_the_third.calls = 0
    monkeypatch.setattr(model_module, "_half_sums", die_in_the_helper_on_the_third)
    with pytest.raises(RuntimeError, match=r"^the helper process computing rows \[216, 432\) "
                                           r"ended mid-fit with exit code 9$"):
        LogisticSegmenter(TrainConfig(epochs=20)).fit(*toy_data())
    assert len(helper) == 1


def test_fit_bits_do_not_depend_on_the_openblas_thread_count():
    # 49,152 training rows: enough for a threaded BLAS dot to split its sum
    code = """if True:
        import hashlib, numpy as np
        from segnoise import LogisticSegmenter, SynthSpec, TrainConfig, synth_dataset
        images, masks = synth_dataset(SynthSpec(count=12, shape=(64, 64), blur_sigma=2.0,
                                                noise_sigma=0.2, seed=1))
        model = LogisticSegmenter(TrainConfig(learning_rate=1.0, epochs=40)).fit(images, masks)
        for a in (model.weights, np.array(model.losses), model.predict_logits(images[0])):
            print(hashlib.sha256(a.tobytes()).hexdigest())
    """
    outs = []
    for threads in ("1", "2"):
        proc = run_fresh(code, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.split())
    assert len(outs[0]) == 3
    for name, one, two in zip(("weights", "losses", "logits"), *outs):
        assert one == two, f"{name} differ between 1 and 2 OpenBLAS threads"


@pytest.mark.parametrize("w0", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("label", [0.0, 0.5, 1.0])
def test_non_finite_logits_give_a_non_finite_loss(w0, label):
    X = np.ones((8, 2))
    y = np.full(8, label)
    with np.errstate(over="ignore", invalid="ignore"):
        loss, _ = loss_and_grad(np.array([w0, 0.5]), X, y, 0.0)
    assert not np.isfinite(loss)


def test_overflowing_fit_still_reports_divergence():
    images, labels = toy_data(noise=0.2)
    with pytest.raises(TrainingDivergedError):
        LogisticSegmenter(TrainConfig(learning_rate=1e300, epochs=20)).fit(images, labels)


def test_identical_refit_is_a_no_op(monkeypatch):
    images, labels = toy_data(noise=0.2, seed=4)
    cfg = TrainConfig(epochs=40)
    calls = []
    real = model_module.loss_and_grad
    monkeypatch.setattr(model_module, "loss_and_grad",
                        lambda *args: calls.append(1) or real(*args))
    model = LogisticSegmenter(cfg).fit(images, labels)
    assert len(calls) == 40
    weights, losses = model.weights.copy(), list(model.losses)

    model.fit([img.copy() for img in images], [lbl.copy() for lbl in labels], seed=5)
    assert len(calls) == 40
    assert np.array_equal(model.weights, weights)
    assert model.losses == losses
    assert model.seed == 5

    flipped = [lbl.copy() for lbl in labels]
    flipped[1][0, 0] = ~flipped[1][0, 0]
    model.fit(images, flipped)
    assert len(calls) == 80
    assert not np.array_equal(model.weights, weights)
    assert np.array_equal(model.weights, LogisticSegmenter(cfg).fit(images, flipped).weights)


def test_pipeline_sc_arm_matches_a_fresh_segmenter():
    # run_pipeline hands its noisy-arm model to the loop; the loop must give
    # what a fresh model would: same records, labels and test Dice
    spec = SynthSpec(count=48, shape=(32, 32), blur_sigma=1.2, noise_sigma=0.25)
    noise = MarkovNoiseParams(steps=8, theta1=0.9, theta2=0.6, theta3=0.02)
    cfg, params, seed = TrainConfig(epochs=200), CorrectionParams(max_iters=3), 3
    res = run_pipeline(spec, noise, params, cfg, n_val=6, n_test=10, seed=seed)

    # the split and data derivation documented by run_pipeline
    data_ss, _ = np.random.SeedSequence(seed).spawn(2)
    images, masks = synth_dataset(replace(spec, seed=int(data_ss.generate_state(1)[0])))
    tr, va, te = slice(0, 32), slice(32, 38), slice(38, 48)
    assert all(np.array_equal(a, b) for a, b in zip(res.train_masks, masks[tr]))
    ref = spatial_correction(images[tr], res.noisy_labels, images[va], masks[va],
                             LogisticSegmenter(cfg), params, seed=seed,
                             train_truth=masks[tr])
    assert len(ref.records) >= 2
    assert repr(res.sc_records) == repr(ref.records)
    assert all(np.array_equal(a, b) for a, b in zip(res.corrected_labels, ref.labels))
    sc_dsc = float(np.mean([dice(threshold(ref.model.predict_logits(x), 0.0, mode="ge"), m)
                            for x, m in zip(images[te], masks[te])]))
    assert {row["arm"]: row["test_dsc"] for row in res.metrics}["sc"] == sc_dsc


def test_separable_data_reaches_perfect_training_accuracy():
    images, labels = toy_data(noise=0.0)
    model = LogisticSegmenter(TrainConfig(epochs=300)).fit(images, labels)
    for img, lbl in zip(images, labels):
        assert np.array_equal(threshold(model.predict_logits(img), 0.0, mode="ge"), lbl)


def test_loss_is_nonincreasing_within_tolerance():
    images, labels = toy_data(noise=0.3)
    model = LogisticSegmenter(TrainConfig(epochs=120)).fit(images, labels)
    losses = np.asarray(model.losses)
    assert (np.diff(losses) <= 1e-9).all()


def test_label_flip_negates_the_logits():
    images, labels = toy_data(noise=0.2, seed=3)
    cfg = TrainConfig(epochs=80)
    a = LogisticSegmenter(cfg).fit(images, labels)
    b = LogisticSegmenter(cfg).fit(images, [~l for l in labels])
    for img in images:
        assert np.allclose(a.predict_logits(img), -b.predict_logits(img), atol=1e-8)


def test_fit_is_deterministic():
    images, labels = toy_data(noise=0.2, seed=9)
    cfg = TrainConfig(epochs=60)
    w1 = LogisticSegmenter(cfg).fit(images, labels).weights
    w2 = LogisticSegmenter(cfg).fit(images, labels).weights
    assert np.array_equal(w1, w2)


def test_divergence_is_reported():
    images, labels = toy_data(noise=0.2)
    with pytest.raises(TrainingDivergedError):
        LogisticSegmenter(TrainConfig(learning_rate=1e12, epochs=60)).fit(images, labels)


def test_fit_rejects_a_label_shaped_unlike_its_image():
    # same total site count, so only a per-pair check can tell
    images = [np.zeros((8, 16)), np.ones((8, 16))]
    labels = [np.zeros((8, 16), dtype=bool), np.ones((16, 8), dtype=bool)]
    with pytest.raises(ValueError, match=r"image 1 has shape \(8, 16\), its label has shape \(16, 8\)"):
        LogisticSegmenter(TrainConfig(epochs=5)).fit(images, labels)
    images[1] = np.ones((16, 8))
    with pytest.raises(ValueError, match="image 0 has shape"):
        LogisticSegmenter(TrainConfig(epochs=5)).fit(images, labels[::-1])


def test_predict_before_fit_is_an_error():
    model = LogisticSegmenter(TrainConfig())
    with pytest.raises(RuntimeError):
        model.predict_logits(np.zeros((4, 4)))


def test_json_round_trip(tmp_path):
    images, labels = toy_data(noise=0.2, seed=2)
    model = LogisticSegmenter(TrainConfig(epochs=60)).fit(images, labels)
    blob = model.to_json()
    again = LogisticSegmenter.from_json(blob)
    for img in images:
        assert np.array_equal(model.predict_logits(img), again.predict_logits(img))
    with pytest.raises(ValueError):
        LogisticSegmenter.from_json('{"kind": "unexpected"}')


def test_logistic_satisfies_the_segmenter_protocol():
    assert isinstance(LogisticSegmenter(TrainConfig()), Segmenter)


# ------------------------------------------------------- controlled errors


def test_offsets_support_and_mean():
    rng = np.random.default_rng(0)
    assert not draw_offsets(rng, 50, 0.0, 0.0).any()
    # no error budget under a positive cap: every offset is exactly zero
    assert not draw_offsets(rng, 50, 0.0, 5.0).any()
    all_on = draw_offsets(rng, 200, 3.0, 3.0)
    assert (np.abs(all_on) == 3.0).all()

    n = 10000
    offs = draw_offsets(np.random.default_rng(1), n, eps0=1.0, eps1=20.0)
    assert set(np.unique(np.abs(offs))) <= {0.0, 20.0}
    # |a| is 20 with probability 1/20, so mean |a| concentrates at eps0
    sigma = 20.0 * np.sqrt(0.05 * 0.95 / n)
    assert abs(np.abs(offs).mean() - 1.0) < 3 * sigma


# ------------------------------------------------------- external trainer


def _respond(root, n_train, n_val, scale=1.0, shape=(8, 8)):
    """Background stand-in for an external training process."""
    import time

    rdir = None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        rounds = sorted(root.glob("round_*"))
        if rounds and (rounds[-1] / "LABELS_DONE").exists():
            rdir = rounds[-1]
            break
        time.sleep(0.02)
    assert rdir is not None
    (rdir / "logits").mkdir()
    for kind, count in (("train", n_train), ("val", n_val)):
        for i in range(count):
            field = np.full(shape, scale * (i + 1), dtype=np.float64)
            save_field(field, rdir / "logits" / f"{kind}_{i:05d}.gtf")
    (rdir / "DONE").touch()


@pytest.mark.parametrize("name, value", [
    ("poll_interval", float("inf")), ("poll_interval", float("nan")), ("poll_interval", 0.0),
    ("timeout", float("nan")), ("timeout", float("inf")), ("timeout", -1.0),
])
def test_external_refuses_a_wait_it_cannot_keep_before_writing(tmp_path, name, value):
    # a NaN timeout fails every comparison, so the wait would never expire
    root = tmp_path / "ext"
    with pytest.raises(ValueError, match=rf"^{name} must be positive and finite, got {value}$"):
        ExternalSegmenter(root, [np.zeros((8, 8))], [], **{name: value})
    assert not root.exists()


def test_external_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    train = [rng.standard_normal((8, 8)) for _ in range(2)]
    val = [rng.standard_normal((8, 8)) for _ in range(1)]
    seg = ExternalSegmenter(tmp_path, train, val, poll_interval=0.02, timeout=30.0)
    assert (tmp_path / "images" / "train_00001.gtf").exists()
    assert (tmp_path / "images" / "val_00000.gtf").exists()

    labels = [np.zeros((8, 8), dtype=bool) for _ in train]
    worker = threading.Thread(target=_respond, args=(tmp_path, 2, 1))
    worker.start()
    try:
        seg.fit(train, labels)
    finally:
        worker.join()
    assert np.array_equal(seg.predict_logits(train[1]), np.full((8, 8), 2.0))
    assert np.array_equal(seg.predict_logits(val[0]), np.full((8, 8), 1.0))
    with pytest.raises(KeyError):
        seg.predict_logits(np.ones((8, 8)))


def test_external_refuses_a_root_holding_an_earlier_round(tmp_path):
    train = [np.zeros((8, 8)), np.ones((8, 8))]
    seg = ExternalSegmenter(tmp_path, train, [], poll_interval=0.02, timeout=30.0)
    worker = threading.Thread(target=_respond, args=(tmp_path, 2, 0))
    worker.start()
    try:
        seg.fit(train, [np.zeros((8, 8), dtype=bool)] * 2)
    finally:
        worker.join()
    before = {p: p.read_bytes() for p in (tmp_path / "images").iterdir()}
    # a second run on the same root would reuse round_000 and its DONE sentinel
    with pytest.raises(ValueError, match=r"round_000 is left from an earlier run"):
        ExternalSegmenter(tmp_path, [np.full((8, 8), 5.0)], [], poll_interval=0.02)
    assert {p: p.read_bytes() for p in (tmp_path / "images").iterdir()} == before
    # other names under the root are no obstacle
    other = tmp_path / "other"
    (other / "round_notes").mkdir(parents=True)
    (other / "round_001.txt").touch()
    ExternalSegmenter(other, train, [], poll_interval=0.02)


def test_external_fit_rejects_logits_of_the_wrong_shape(tmp_path):
    train = [np.zeros((8, 8)), np.ones((8, 8))]
    seg = ExternalSegmenter(tmp_path, train, [np.zeros((8, 8))], poll_interval=0.02, timeout=30.0)
    worker = threading.Thread(target=_respond, args=(tmp_path, 2, 1), kwargs={"shape": (8, 7)})
    worker.start()
    try:
        with pytest.raises(ValueError, match=r"train_00000\.gtf.*\(8, 7\).*\(8, 8\)"):
            seg.fit(train, [np.zeros((8, 8), dtype=bool)] * 2)
    finally:
        worker.join()


def test_external_fit_times_out_without_a_responder(tmp_path):
    train = [np.zeros((8, 8))]
    seg = ExternalSegmenter(tmp_path, train, [], poll_interval=0.02, timeout=0.2)
    with pytest.raises(TimeoutError):
        seg.fit(train, [np.zeros((8, 8), dtype=bool)])


def test_external_fit_rejects_foreign_images(tmp_path):
    train = [np.zeros((8, 8))]
    seg = ExternalSegmenter(tmp_path, train, [], poll_interval=0.02, timeout=0.2)
    with pytest.raises(ValueError):
        seg.fit([np.ones((8, 8))], [np.zeros((8, 8), dtype=bool)])
