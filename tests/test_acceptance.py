"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Each test prints ``[acceptance] <name>: PASS/FAIL`` so the suite output reads
as a checklist. Tolerances and time budgets are pinned in the assertions.
"""

import hashlib
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from segnoise import (CorrectionParams, MarkovNoiseParams, SynthSpec,
                      TrainConfig, ValidationBoundInputs, bayes_mask_one_step,
                      centered_disk, dice, estimate_bias,
                      expected_label_mc, generate, naive_correct, preset,
                      run_pipeline, signed_distance, sweep, verify_bayes_mask,
                      verify_validation_bound)
from segnoise.cli import main as cli_main
from segnoise.model import loss_and_grad

from _oracles import (boundaries, boundary_mean_sigma, brute_signed_distance,
                      finite_difference_grad, one_step_expectation, random_mask)

THREADS = os.cpu_count() or 1


@contextmanager
def criterion(capsys, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance] {name}: PASS")


# 1 ---------------------------------------------------------------------------


def test_signed_distance_matches_graph_shortest_path(capsys):
    with criterion(capsys, "signed distance matches graph shortest path"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(500):
            shape = tuple(rng.integers(2, 17, size=2))
            m = random_mask(rng, shape)
            assert np.array_equal(signed_distance(m), brute_signed_distance(m))
        for _ in range(100):
            shape = tuple(rng.integers(2, 9, size=3))
            m = random_mask(rng, shape)
            assert np.array_equal(signed_distance(m), brute_signed_distance(m))
        assert time.perf_counter() - t0 < 10.0


# 2 ---------------------------------------------------------------------------


def test_noise_confined_within_t_of_the_boundary(capsys):
    with criterion(capsys, "noise confined within T of the boundary"):
        t0 = time.perf_counter()
        mask = centered_disk((64, 64))
        phi_abs = np.abs(signed_distance(mask))
        rng = np.random.default_rng(202)
        any_changed = False
        for i in range(1000):
            steps = (1, 4, 8)[i % 3]
            params = MarkovNoiseParams(steps=steps,
                                       theta1=float(rng.uniform(0.1, 0.9)),
                                       theta2=float(rng.uniform(0.3, 1.0)),
                                       theta3=0.0, smooth_sigma=0.0, seed=i)
            changed = generate(mask, params) != mask
            any_changed |= bool(changed.any())
            assert not (changed & (phi_abs > steps)).any()
        assert any_changed
        assert time.perf_counter() - t0 < 30.0


# 3 ---------------------------------------------------------------------------


def test_one_step_most_likely_mask_all_regimes(capsys):
    with criterion(capsys, "one-step most-likely mask, all regimes"):
        t0 = time.perf_counter()
        mask = centered_disk((64, 64))
        cases = [(0.7, 0.9, "expand"), (0.2, 0.8, "shrink"), (0.5, 0.5, "identity")]
        for theta1, theta2, regime in cases:
            for theta3 in (0.0, 0.02):
                rep = verify_bayes_mask(mask, theta1, theta2, theta3,
                                        n_samples=100_000, seed=7, threads=THREADS)
                assert rep.measurements["regime"] == regime
                assert rep.measurements["n_disagree"] == 0
                assert rep.passed
        assert time.perf_counter() - t0 < 120.0


# 4 ---------------------------------------------------------------------------


def test_one_step_per_site_expectations(capsys):
    with criterion(capsys, "one-step per-site expectations"):
        t0 = time.perf_counter()
        mask = centered_disk((64, 64))
        theta1, theta2, n = 0.7, 0.5, 100_000
        fg_b, bg_b = boundaries(mask)
        interior = ~(fg_b | bg_b)
        cov = theta1 * (1.0 - theta1) * theta2 * theta2
        for theta3 in (0.0, 0.1):
            params = MarkovNoiseParams(steps=1, theta1=theta1, theta2=theta2,
                                       theta3=theta3, seed=11)
            mean = expected_label_mc(mask, params, n, threads=THREADS)
            expected = one_step_expectation(mask, theta1, theta2, theta3)
            # foreground boundary kept with 1 - (1-theta1)*theta2 = 0.85, background
            # boundary (the expansion side) on with theta1*theta2 = 0.35, plus the flip term
            for layer in (fg_b, bg_b):
                p = expected[layer][0]
                assert np.allclose(expected[layer], p)
                sigma = boundary_mean_sigma(p, cov, n, int(layer.sum()))
                assert abs(mean[layer].mean() - p) <= 3.0 * sigma
            if theta3 == 0.0:
                assert np.array_equal(mean[interior], mask[interior].astype(float))
            else:
                for side, target in ((mask, 1.0 - theta3), (~mask, theta3)):
                    sel = interior & side
                    sigma = np.sqrt(theta3 * (1.0 - theta3) / (n * sel.sum()))
                    assert abs(mean[sel].mean() - target) <= 3.0 * sigma
        assert time.perf_counter() - t0 < 60.0


# 5 ---------------------------------------------------------------------------


def ellipse(shape, a, b):
    rr, cc = np.indices(shape)
    cy, cx = (shape[0] - 1) / 2, (shape[1] - 1) / 2
    return ((rr - cy) / a) ** 2 + ((cc - cx) / b) ** 2 <= 1.0


def test_single_clean_sample_exact_recovery(capsys):
    with criterion(capsys, "single clean sample exact recovery"):
        t0 = time.perf_counter()
        fixtures = {
            "disk": [centered_disk((48, 48), radius=r) for r in (8, 12, 17)],
            "ellipse": [ellipse((48, 48), a, b) for a, b in ((7, 13), (10, 16), (5, 9))],
        }
        regimes = {"expansion": (0.7, 0.9), "shrinkage": (0.2, 0.8)}
        for masks in fixtures.values():
            clean_sdfs = [signed_distance(m) for m in masks]
            for theta1, theta2 in regimes.values():
                # the exact one-step predictor: Theorem 1's with eps0 = 0
                preds = [signed_distance(bayes_mask_one_step(m, theta1, theta2))
                         for m in masks]
                est = estimate_bias(preds[:1], clean_sdfs[:1])
                assert est.v_used == 1
                for pred, m in zip(preds, masks):
                    recovered = naive_correct(pred, est.delta_hat)
                    assert dice(recovered, m) == 1.0
        assert time.perf_counter() - t0 < 5.0


# 6 ---------------------------------------------------------------------------


def test_validation_size_bound(capsys):
    with criterion(capsys, "validation size bound"):
        t0 = time.perf_counter()
        worked = ValidationBoundInputs(eps0=1.0, eps1=20.0, eps=2.0,
                                       alpha=0.05, image_size=65536)
        rep = verify_validation_bound(worked, n_trials=200, seed=0)
        assert rep.measurements["v_required"] == 2956
        # pass rule: one-sided 95% exact binomial CI must not exclude alpha
        assert rep.passed
        exact = ValidationBoundInputs(eps0=0.0, eps1=20.0, eps=2.0,
                                      alpha=0.05, image_size=65536)
        rep0 = verify_validation_bound(exact, n_trials=500, seed=1)
        assert rep0.measurements["failures"] == 0
        assert rep0.passed
        assert time.perf_counter() - t0 < 1200.0


# 7 ---------------------------------------------------------------------------


def reference_train_config():
    # sharp fit on smooth images so the trained model inherits the label bias
    return TrainConfig(learning_rate=1.0, epochs=800, l2=0.0)


def test_correction_recovers_test_accuracy(capsys):
    with criterion(capsys, "correction recovers test accuracy"):
        t0 = time.perf_counter()
        noise = preset("tiny-se")
        for seed in range(5):
            spec = SynthSpec(count=200, shape=(64, 64), blur_sigma=2.0,
                             noise_sigma=0.2, seed=seed)
            res = run_pipeline(spec, noise, CorrectionParams(),
                               reference_train_config(), n_val=8, n_test=25,
                               seed=seed)
            scores = {row["arm"]: row["test_dsc"] for row in res.metrics}
            assert scores["sc"] >= scores["noisy"] + 0.05, (seed, scores)
            assert scores["sc"] <= scores["clean"] + 0.01, (seed, scores)
        assert time.perf_counter() - t0 < 600.0


# 8 ---------------------------------------------------------------------------


def test_noise_and_validation_size_trends(capsys):
    with criterion(capsys, "noise and validation-size trends"):
        t0 = time.perf_counter()
        noise = preset("tiny-se")
        spec = SynthSpec(count=120, shape=(64, 64), blur_sigma=2.0,
                         noise_sigma=0.2, seed=0)
        rows = sweep("noise_level", [4, 8, 12, 16], spec, noise,
                     CorrectionParams(), reference_train_config(),
                     n_val=8, n_test=20, seed=0)
        by = {(r["value"], r["arm"]): r["test_dsc"] for r in rows}
        sc_decline = by[(4, "sc")] - by[(16, "sc")]
        noisy_decline = by[(4, "noisy")] - by[(16, "noisy")]
        assert sc_decline < noisy_decline, (sc_decline, noisy_decline)

        rows = sweep("val_size", [1, 16], spec, noise, CorrectionParams(),
                     reference_train_config(), n_val=16, n_test=20, seed=0)
        by = {(r["value"], r["arm"]): r["test_dsc"] for r in rows}
        assert abs(by[(1, "sc")] - by[(16, "sc")]) <= 0.03
        assert time.perf_counter() - t0 < 1800.0


# 9 ---------------------------------------------------------------------------


def test_analytic_gradients_match_finite_differences(capsys):
    with criterion(capsys, "analytic gradients match finite differences"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(909)
        for _ in range(20):
            n = int(rng.integers(30, 120))
            k = int(rng.integers(3, 10))
            X = rng.normal(size=(n, k))
            y = rng.random(n) < 0.5
            w = rng.normal(scale=0.5, size=k)
            l2 = float(rng.choice([0.0, 1e-4, 1e-2]))
            _, grad = loss_and_grad(w, X, y, l2)
            fd = finite_difference_grad(lambda v: loss_and_grad(v, X, y, l2)[0], w)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel <= 1e-5, rel
        assert time.perf_counter() - t0 < 10.0


# 10 --------------------------------------------------------------------------


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def run_every_command(capsys, root: Path) -> tuple[dict[str, str], str]:
    """One pass over every CLI command at desk scale; returns (hashes, stdout)."""
    out_log = []

    def run(*argv):
        rc = cli_main([str(a) for a in argv])
        cap = capsys.readouterr()
        assert rc == 0, (argv, rc, cap.err)
        out_log.append(cap.out.replace(str(root), "<root>"))

    ds, val = root / "ds", root / "val"
    run("synth", "--count", 6, "--size", "24x24", "--blur-sigma", 1.0,
        "--noise-sigma", 0.2, "--seed", 3, "--out", ds)
    run("synth", "--count", 3, "--size", "24x24", "--blur-sigma", 1.0,
        "--noise-sigma", 0.2, "--seed", 4, "--out", val)
    labels = root / "labels"
    labels.mkdir()
    for path in sorted((ds / "masks").iterdir()):
        run("gen-noise", "--mask", path, "-T", 3, "--theta1", 0.9,
            "--theta2", 0.6, "--seed", 5, "--out", labels / path.name)
    run("sdf", "--mask", ds / "masks" / "mask_00000.gtf", "--out", root / "phi.gtf")
    run("estimate-bias", "--pred-dir", labels, "--clean-dir", ds / "masks",
        "--out", root / "gaps.csv")
    run("train", "--images-dir", ds / "images", "--labels-dir", labels,
        "--epochs", 40, "--out", root / "model.json")
    run("predict", "--model", root / "model.json", "--images-dir", ds / "images",
        "--out-dir", root / "logits")
    run("correct", "--logits-dir", root / "logits", "--delta", "-1.2",
        "--out-dir", root / "corrected")
    run("sc-run", "--train-images", ds / "images", "--train-labels", labels,
        "--val-images", val / "images", "--val-masks", val / "masks",
        "--truth-dir", ds / "masks", "--max-iters", 1, "--epochs", 40,
        "--out", root / "sc")
    run("verify", "lemma1", "--theta1", 0.7, "--theta2", 0.9, "--samples", 2000,
        "--size", "16x16", "--seed", 8, "--threads", 2, "--out", root / "lemma.csv")
    run("verify", "theorem1", "--eps0", 0.5, "--eps1", 2, "--eps", 1,
        "--alpha", 0.5, "--image-size", 1024, "--trials", 5, "--holdout", 8,
        "--seed", 9, "--out", root / "bound.csv")
    run("sweep", "--kind", "val_size", "--values", "2", "--count", 10,
        "--size", "24x24", "--blur-sigma", 1.0, "--noise-sigma", 0.2,
        "-T", 2, "--theta1", 0.8, "--theta2", 0.6, "--epochs", 40,
        "--max-iters", 1, "--n-val", 3, "--n-test", 3, "--seed", 10,
        "--out", root / "sweep.csv")
    run("bound", "--eps0", 1, "--eps1", 20, "--eps", 2, "--alpha", 0.05,
        "--image-size", 65536)
    return tree_digest(root), "".join(out_log)


def test_cli_reruns_are_byte_identical(tmp_path, capsys):
    with criterion(capsys, "CLI reruns are byte-identical"):
        first = run_every_command(capsys, tmp_path / "run1")
        second = run_every_command(capsys, tmp_path / "run2")
        assert first == second
