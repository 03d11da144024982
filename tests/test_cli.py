"""End-to-end tests of the command line interface.

Commands run in-process through ``main(argv)`` so exit codes and stdout are
asserted directly. Two tests shell out to the entry points: one always runs
``python -m segnoise`` and the ``[project.scripts]`` target declared in
``pyproject.toml`` the way the generated wrapper calls it; the other runs the
``segnoise`` script itself and only when it is on ``PATH``, which it is only
after the package is installed. A few more run the CLI in a fresh
interpreter to see which modules a cold start and a command load.
"""

import hashlib
import json
import re
import shutil
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from segnoise import (CorrectionParams, LogisticSegmenter, MarkovNoiseParams, TrainConfig,
                      TrainingDivergedError, centered_disk, dilate_one, estimate_bias,
                      generate, sdf_gap, signed_distance, spatial_correction, write_report)
from segnoise.cli import build_parser, main
from segnoise.formats import load_field, load_mask, save_field, save_mask
from _oracles import run_fresh


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def make_dataset(capsys, out: Path, count=6, size="24x24", seed=0, **extra):
    argv = ["synth", "--count", str(count), "--size", size, "--seed", str(seed),
            "--blur-sigma", "1.0", "--noise-sigma", "0.2", "--out", str(out)]
    for flag, value in extra.items():
        argv += [f"--{flag}", str(value)]
    rc, out_text, _ = run(capsys, *argv)
    assert rc == 0, out_text
    return out / "images", out / "masks"


# ---------------------------------------------------------------- bound


def test_bound_prints_the_worked_value(capsys):
    rc, out, _ = run(capsys, "bound", "--eps0", "1", "--eps1", "20", "--eps", "2",
                     "--alpha", "0.05", "--image-size", "65536")
    assert rc == 0
    assert out.strip() == "2956"


def test_bound_rejects_slack_below_the_floor(capsys):
    rc, _, err = run(capsys, "bound", "--eps0", "2", "--eps1", "20", "--eps", "1",
                     "--alpha", "0.05", "--image-size", "65536")
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("eps1, eps", [("1e200", "2"), ("20", "1e300")])
def test_a_bound_out_of_float_range_exits_2_without_a_traceback(capsys, eps1, eps):
    rc, out, err = run(capsys, "bound", "--eps0", "1", "--eps1", eps1, "--eps", eps,
                       "--alpha", "0.05", "--image-size", "65536")
    assert (rc, out) == (2, "")
    assert err == (f"error: the validation-size bound leaves the floating-point range at "
                   f"eps0=1.0, eps1={float(eps1)}, eps={float(eps)}, alpha=0.05, "
                   f"image_size=65536\n")


@pytest.mark.parametrize("command", ["bound", "theorem1"])
@pytest.mark.parametrize("name, value", [("eps0", "nan"), ("eps1", "nan"), ("eps1", "inf"),
                                         ("eps", "nan"), ("eps", "inf"), ("alpha", "nan"),
                                         ("alpha", "inf")])
def test_a_non_finite_bound_input_exits_2_without_a_traceback(capsys, command, name, value):
    # inf once overflowed the bound's ceil, NaN failed as an integer
    # conversion, and eps = inf asked for no image at all
    bound = {"eps0": "1", "eps1": "20", "eps": "2", "alpha": "0.05", name: value}
    argv = ["bound"] if command == "bound" else ["verify", "theorem1", "--trials", "5"]
    for flag, v in bound.items():
        argv.append(f"--{flag}={v}")
    rc, out, err = run(capsys, *argv, "--image-size", "65536")
    assert (rc, out, err) == (2, "", f"error: {name} must be finite, got {value}\n")


# ---------------------------------------------------------------- usage errors


def test_missing_subcommand_is_a_usage_error(capsys):
    rc, _, err = run(capsys)
    assert rc == 1
    assert "usage error" in err


def test_unknown_flag_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "bound", "--nope", "1")
    assert rc == 1
    assert "usage error" in err


SEEDED_COMMANDS = {
    "synth": ["synth", "--count", "1", "--size", "12x12", "--out", "unused"],
    "gen-noise": ["gen-noise", "--mask", "unused.gtf", "--preset", "demo", "--out", "unused"],
    "verify lemma1": ["verify", "lemma1", "--theta1", "0.7", "--theta2", "0.9"],
    "verify theorem1": ["verify", "theorem1", "--eps0", "1", "--eps1", "20", "--eps", "2",
                        "--alpha", "0.05", "--image-size", "65536"],
    "sweep": ["sweep", "--kind", "val_size", "--values", "2", "--out", "unused"],
}


@pytest.mark.parametrize("command", sorted(SEEDED_COMMANDS))
def test_a_negative_seed_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *SEEDED_COMMANDS[command], "--seed", "-1")
    assert rc == 1
    assert out == ""
    assert err == "usage error: argument --seed: seed must be >= 0, got -1\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["synth", "sweep"])
@pytest.mark.parametrize("size", ["10x10", "12x11", "12x12x8"])
def test_a_synthetic_size_below_12_names_the_flag(tmp_path, capsys, command, size):
    argv = {"synth": ["synth", "--count", "1"],
            "sweep": ["sweep", "--kind", "val_size", "--values", "2"]}[command]
    out_path = tmp_path / "out"
    rc, out, err = run(capsys, *argv, "--size", size, "--out", str(out_path))
    assert rc == 2
    assert out == ""
    assert err == (f"error: --size needs every extent >= 12 to leave room for shapes "
                   f"with margin, got {size}\n")
    assert not out_path.exists()


def test_main_builds_its_parser_once(monkeypatch, capsys):
    from segnoise import cli

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        for argv in (BOUND_ARGV, ["bound", "--nope", "1"], BOUND_ARGV, ["sdf"]):
            run(capsys, *argv)
        assert run(capsys, *BOUND_ARGV) == (0, "2956\n", "")
    finally:
        cli._parser.cache_clear()  # later tests build their own from the real one
    assert built == [1]


# ---------------------------------------------------------------- synth


def test_synth_writes_loadable_images_and_masks(tmp_path, capsys):
    images_dir, masks_dir = make_dataset(capsys, tmp_path / "ds", count=4)
    images = sorted(images_dir.iterdir())
    masks = sorted(masks_dir.iterdir())
    assert len(images) == len(masks) == 4
    img = load_field(images[0])
    mask = load_mask(masks[0])
    assert img.shape == mask.shape == (24, 24)
    assert img.dtype == np.float32 and mask.dtype == bool
    assert mask.any() and not mask.all()


def test_synth_can_write_pgm_masks(tmp_path, capsys):
    _, masks_dir = make_dataset(capsys, tmp_path / "ds", count=2, format="pgm")
    files = sorted(masks_dir.iterdir())
    assert [p.suffix for p in files] == [".pgm", ".pgm"]
    assert load_mask(files[0]).dtype == bool


def test_synth_same_seed_same_bytes(tmp_path, capsys):
    make_dataset(capsys, tmp_path / "a", count=3, seed=9)
    make_dataset(capsys, tmp_path / "b", count=3, seed=9)
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


# ---------------------------------------------------------------- gen-noise


def test_gen_noise_with_explicit_thetas_stays_local(tmp_path, capsys):
    _, masks_dir = make_dataset(capsys, tmp_path / "ds", count=1, size="32x32")
    src = next(masks_dir.iterdir())
    out = tmp_path / "noisy.gtf"
    rc, _, _ = run(capsys, "gen-noise", "--mask", str(src), "-T", "3",
                   "--theta1", "0.8", "--theta2", "0.6", "--seed", "5",
                   "--out", str(out))
    assert rc == 0
    clean = load_mask(src)
    noisy = load_mask(out)
    changed = clean != noisy
    assert changed.any()
    assert np.all(np.abs(signed_distance(clean)[changed]) <= 3)


def test_gen_noise_zero_steps_copies_the_mask(tmp_path, capsys):
    _, masks_dir = make_dataset(capsys, tmp_path / "ds", count=1)
    src = next(masks_dir.iterdir())
    out = tmp_path / "same.gtf"
    rc, _, _ = run(capsys, "gen-noise", "--mask", str(src), "-T", "0",
                   "--theta1", "0.5", "--theta2", "0.5", "--out", str(out))
    assert rc == 0
    assert np.array_equal(load_mask(src), load_mask(out))


def test_gen_noise_named_preset(tmp_path, capsys):
    _, masks_dir = make_dataset(capsys, tmp_path / "ds", count=1, size="32x32")
    src = next(masks_dir.iterdir())
    rc, _, _ = run(capsys, "gen-noise", "--mask", str(src), "--preset", "tiny-se",
                   "--seed", "2", "--out", str(tmp_path / "n.gtf"))
    assert rc == 0


def test_gen_noise_unknown_preset_exits_1(tmp_path, capsys):
    _, masks_dir = make_dataset(capsys, tmp_path / "ds", count=1)
    src = next(masks_dir.iterdir())
    rc, _, err = run(capsys, "gen-noise", "--mask", str(src), "--preset", "bogus",
                     "--out", str(tmp_path / "n.gtf"))
    assert rc == 1
    assert "unknown preset" in err


def test_gen_noise_without_preset_needs_all_thetas(tmp_path, capsys):
    _, masks_dir = make_dataset(capsys, tmp_path / "ds", count=1)
    src = next(masks_dir.iterdir())
    rc, _, err = run(capsys, "gen-noise", "--mask", str(src), "-T", "2",
                     "--out", str(tmp_path / "n.gtf"))
    assert rc == 1
    assert "--theta1" in err


def test_gen_noise_config_file_preset_matches_the_library(tmp_path, capsys):
    _, masks_dir = make_dataset(capsys, tmp_path / "ds", count=1, size="32x32")
    src = next(masks_dir.iterdir())
    cfg = tmp_path / "extra.ini"
    cfg.write_text("[preset.demo]\nT = 2\ntheta1 = 0.9\ntheta2 = 0.5\n")
    out = tmp_path / "n.gtf"
    rc, _, _ = run(capsys, "gen-noise", "--mask", str(src), "--config", str(cfg),
                   "--preset", "demo", "--seed", "7", "--out", str(out))
    assert rc == 0
    params = MarkovNoiseParams(steps=2, theta1=0.9, theta2=0.5, seed=7)
    assert np.array_equal(load_mask(out), generate(load_mask(src), params))


def test_gen_noise_same_seed_same_bytes(tmp_path, capsys):
    _, masks_dir = make_dataset(capsys, tmp_path / "ds", count=1, size="32x32")
    src = next(masks_dir.iterdir())
    for name in ("a.gtf", "b.gtf"):
        rc, _, _ = run(capsys, "gen-noise", "--mask", str(src), "-T", "4",
                       "--theta1", "0.7", "--theta2", "0.5", "--theta3", "0.05",
                       "--seed", "3", "--out", str(tmp_path / name))
        assert rc == 0
    assert (tmp_path / "a.gtf").read_bytes() == (tmp_path / "b.gtf").read_bytes()


# ---------------------------------------------------------------- sdf


def test_sdf_command_matches_the_library(tmp_path, capsys):
    _, masks_dir = make_dataset(capsys, tmp_path / "ds", count=1)
    src = next(masks_dir.iterdir())
    out = tmp_path / "phi.gtf"
    rc, _, _ = run(capsys, "sdf", "--mask", str(src), "--out", str(out))
    assert rc == 0
    expected = signed_distance(load_mask(src)).astype(np.float32)
    assert np.array_equal(load_field(out), expected)


def test_sdf_uniform_mask_exits_2(tmp_path, capsys):
    path = tmp_path / "full.gtf"
    save_mask(np.ones((8, 8), dtype=bool), path)
    rc, _, err = run(capsys, "sdf", "--mask", str(path), "--out", str(tmp_path / "phi.gtf"))
    assert rc == 2
    assert "error:" in err


def test_corrupt_file_reports_a_byte_offset(tmp_path, capsys):
    path = tmp_path / "trunc.gtf"
    save_mask(np.zeros((8, 8), dtype=bool) | (np.eye(8) > 0), path)
    path.write_bytes(path.read_bytes()[:-5])
    rc, _, err = run(capsys, "sdf", "--mask", str(path), "--out", str(tmp_path / "phi.gtf"))
    assert rc == 2
    assert "at byte" in err


def test_huge_gtf_extents_report_a_byte_offset(tmp_path, capsys):
    path = tmp_path / "huge.gtf"
    path.write_bytes(b"GTF1" + bytes([0, 3, 0, 0]) + struct.pack("<3I", *[4194304] * 3))
    rc, _, err = run(capsys, "sdf", "--mask", str(path), "--out", str(tmp_path / "x.gtf"))
    assert rc == 2
    assert "at byte 20" in err


# ---------------------------------------------------------------- estimate-bias


def test_estimate_bias_reports_the_dilation_gap(tmp_path, capsys):
    _, masks_dir = make_dataset(capsys, tmp_path / "ds", count=4, size="32x32")
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    masks = [load_mask(p) for p in sorted(masks_dir.iterdir())]
    for i, m in enumerate(masks):
        save_mask(dilate_one(m), pred_dir / f"mask_{i:05d}.gtf")
    expected = estimate_bias([signed_distance(dilate_one(m)) for m in masks],
                             [signed_distance(m) for m in masks])
    csv_out = tmp_path / "gaps.csv"
    rc, out, _ = run(capsys, "estimate-bias", "--pred-dir", str(pred_dir),
                     "--clean-dir", str(masks_dir), "--out", str(csv_out))
    assert rc == 0
    assert f"delta_hat {expected.delta_hat!r}" in out
    assert "over 4 image pairs (0 skipped)" in out
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "pred_file,clean_file,gap"
    assert len(lines) == 5 and all(line.rsplit(",", 1)[1] for line in lines[1:])


def test_estimate_bias_csv_leaves_a_skipped_pair_blank(tmp_path, capsys):
    _, masks_dir = make_dataset(capsys, tmp_path / "ds", count=4, size="32x32")
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    masks = [load_mask(p) for p in sorted(masks_dir.iterdir())]
    preds = [dilate_one(masks[0]), np.zeros_like(masks[1]),
             dilate_one(dilate_one(masks[2])), masks[3]]
    for i, p in enumerate(preds):
        save_mask(p, pred_dir / f"mask_{i:05d}.gtf")
    csv_out = tmp_path / "gaps.csv"
    rc, out, _ = run(capsys, "estimate-bias", "--pred-dir", str(pred_dir),
                     "--clean-dir", str(masks_dir), "--out", str(csv_out))
    assert rc == 0
    assert "over 3 image pairs (1 skipped)" in out
    rows = [line.split(",") for line in csv_out.read_text().splitlines()[1:]]
    assert [r[0] for r in rows] == [f"mask_{i:05d}.gtf" for i in range(4)]
    assert rows[1][2] == ""
    for i in (0, 2, 3):
        assert rows[i][2] == repr(sdf_gap(signed_distance(preds[i]), signed_distance(masks[i])))


def test_estimate_bias_rejects_raw_logit_fields(tmp_path, capsys):
    # logits are not distances: feeding them in would skew the estimate by
    # their arbitrary scale, so the loader insists on SDF-shaped values
    _, masks_dir = make_dataset(capsys, tmp_path / "ds", count=2)
    pred_dir = tmp_path / "logits"
    pred_dir.mkdir()
    rng = np.random.default_rng(0)
    for i in range(2):
        save_field(rng.normal(size=(24, 24)), pred_dir / f"p_{i}.gtf")
    rc, _, err = run(capsys, "estimate-bias", "--pred-dir", str(pred_dir),
                     "--clean-dir", str(masks_dir))
    assert rc == 2
    assert "not a signed distance field" in err


def test_estimate_bias_count_mismatch_exits_2(tmp_path, capsys):
    _, masks_dir = make_dataset(capsys, tmp_path / "ds", count=2)
    pred_dir = tmp_path / "pred"
    pred_dir.mkdir()
    save_mask(load_mask(next(iter(sorted(masks_dir.iterdir())))), pred_dir / "one.gtf")
    rc, _, err = run(capsys, "estimate-bias", "--pred-dir", str(pred_dir),
                     "--clean-dir", str(masks_dir))
    assert rc == 2
    assert "error:" in err


# ---------------------------------------------------------------- train/predict/correct


def test_train_predict_correct_roundtrip(tmp_path, capsys):
    images_dir, masks_dir = make_dataset(capsys, tmp_path / "ds", count=6)
    model_path = tmp_path / "model.json"
    rc, _, _ = run(capsys, "train", "--images-dir", str(images_dir),
                   "--labels-dir", str(masks_dir), "--epochs", "80",
                   "--out", str(model_path))
    assert rc == 0 and model_path.exists()

    logits_dir = tmp_path / "logits"
    rc, _, _ = run(capsys, "predict", "--model", str(model_path),
                   "--images-dir", str(images_dir), "--out-dir", str(logits_dir))
    assert rc == 0
    logit_files = sorted(logits_dir.iterdir())
    assert len(logit_files) == 6
    assert load_field(logit_files[0]).dtype == np.float32

    out_dir = tmp_path / "corrected"
    rc, out, _ = run(capsys, "correct", "--logits-dir", str(logits_dir),
                     "--delta", "-1.0", "--out-dir", str(out_dir))
    assert rc == 0
    assert "wrote 6 corrected masks" in out
    assert load_mask(sorted(out_dir.iterdir())[0]).dtype == bool


def test_predict_same_model_same_bytes(tmp_path, capsys):
    images_dir, masks_dir = make_dataset(capsys, tmp_path / "ds", count=3)
    model_path = tmp_path / "model.json"
    run(capsys, "train", "--images-dir", str(images_dir), "--labels-dir",
        str(masks_dir), "--epochs", "40", "--out", str(model_path))
    for name in ("p1", "p2"):
        rc, _, _ = run(capsys, "predict", "--model", str(model_path),
                       "--images-dir", str(images_dir), "--out-dir", str(tmp_path / name))
        assert rc == 0
    assert tree_digest(tmp_path / "p1") == tree_digest(tmp_path / "p2")


def test_train_same_seed_same_model(tmp_path, capsys):
    images_dir, masks_dir = make_dataset(capsys, tmp_path / "ds", count=3)
    for name in ("m1.json", "m2.json"):
        rc, _, _ = run(capsys, "train", "--images-dir", str(images_dir),
                       "--labels-dir", str(masks_dir), "--epochs", "40",
                       "--seed", "6", "--out", str(tmp_path / name))
        assert rc == 0
    assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()


_CONFIG = {"learning_rate": 0.5, "epochs": 10, "l2": 0.0001, "feature_radii": [1], "seed": 0}


@pytest.mark.parametrize("text, detail", [
    ("[1, 2]", "a model file holds a JSON object, not a list"),
    (json.dumps({"kind": "logistic", "weights": [0.0, 0.0, 0.0], "config": [1]}),
     "'config' must be an object, got [1]"),
    ("not json", "Expecting value: line 1 column 1 (char 0)"),
    (json.dumps({"kind": "logistic", "weights": [0.0, 0.0, 0.0]}),
     "'config' must be an object, got None"),
    (json.dumps({"kind": "logistic", "weights": [0.0, 0.0], "config": _CONFIG}),
     "'weights' must be a list of 3 finite numbers"),
    ('{"kind": "logistic", "weights": [0, 1e999, 0], "config": %s}' % json.dumps(_CONFIG),
     "'weights' must be a list of 3 finite numbers"),
    (json.dumps({"kind": "logistic", "weights": [0.0, 0.0, 0.0],
                 "config": dict(_CONFIG, seed=None)}),
     "'config.seed' must be an integer, got None"),
    (json.dumps({"kind": "logistic", "weights": [0.0, 0.0, 0.0],
                 "config": {k: v for k, v in _CONFIG.items() if k != "l2"}}),
     "'config' lacks 'l2'"),
], ids=["array", "config-list", "not-json", "no-config", "two-weights", "infinite-weight",
        "seed-null", "no-l2"])
def test_predict_names_a_malformed_model_file(tmp_path, capsys, text, detail):
    model = tmp_path / "model.json"
    model.write_text(text, encoding="utf-8")
    rc, out, err = run(capsys, "predict", "--model", str(model),
                       "--images-dir", str(tmp_path), "--out-dir", str(tmp_path / "logits"))
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {model}: {detail}")
    assert not (tmp_path / "logits").exists()


# ---------------------------------------------------------------- sc-run


def test_sc_run_local_trainer(tmp_path, capsys):
    images_dir, masks_dir = make_dataset(capsys, tmp_path / "train", count=10,
                                         size="32x32", seed=1)
    val_images, val_masks = make_dataset(capsys, tmp_path / "val", count=4,
                                         size="32x32", seed=2)
    labels_dir = tmp_path / "labels"
    labels_dir.mkdir()
    for path in sorted(masks_dir.iterdir()):
        rc, _, _ = run(capsys, "gen-noise", "--mask", str(path), "-T", "6",
                       "--theta1", "0.9", "--theta2", "0.6", "--seed", "11",
                       "--out", str(labels_dir / path.name))
        assert rc == 0
    out = tmp_path / "run"
    rc, text, _ = run(capsys, "sc-run", "--train-images", str(images_dir),
                      "--train-labels", str(labels_dir), "--val-images", str(val_images),
                      "--val-masks", str(val_masks), "--truth-dir", str(masks_dir),
                      "--max-iters", "2", "--epochs", "60", "--seed", "4",
                      "--out", str(out))
    assert rc == 0
    assert "finished after" in text
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "iter,delta_hat,lambda_mean,train_label_dsc_vs_truth,val_dsc"
    assert len(report) >= 2
    assert len(list((out / "corrected").iterdir())) == 10
    assert (out / "model.json").exists()


def noisy_run_flags(capsys, root: Path, steps=6) -> list[str]:
    """sc-run's input flags for 10 training images of 32² whose labels carry
    ``steps`` steps of growing noise, the clean masks as truth, and 4
    validation pairs. At ``--max-iters 3 --epochs 60 --seed 4`` the loop runs
    4 rounds after 6 steps; after 10, its first refit predicts no boundary,
    which ends the loop after round 0."""
    images_dir, masks_dir = make_dataset(capsys, root / "train", count=10,
                                         size="32x32", seed=1)
    val_images, val_masks = make_dataset(capsys, root / "val", count=4,
                                         size="32x32", seed=2)
    labels_dir = root / "labels"
    labels_dir.mkdir()
    for path in sorted(masks_dir.iterdir()):
        rc, _, _ = run(capsys, "gen-noise", "--mask", str(path), "-T", str(steps),
                       "--theta1", "1", "--theta2", "0.9", "--seed", "11",
                       "--out", str(labels_dir / path.name))
        assert rc == 0
    return ["--train-images", str(images_dir), "--train-labels", str(labels_dir),
            "--val-images", str(val_images), "--val-masks", str(val_masks),
            "--truth-dir", str(masks_dir)]


@pytest.mark.parametrize("steps, rounds", [(6, 4), (10, 1)])
def test_sc_run_writes_what_spatial_correction_returns(tmp_path, capsys, steps, rounds):
    flags = noisy_run_flags(capsys, tmp_path, steps)
    out = tmp_path / "run"
    rc, _, _ = run(capsys, "sc-run", *flags, "--max-iters", "3", "--epochs", "60",
                   "--seed", "4", "--out", str(out))
    assert rc == 0
    dirs = dict(zip(flags[0::2], map(Path, flags[1::2])))

    def load(flag, loader):
        return [loader(p) for p in sorted(dirs[flag].iterdir())]
    model = LogisticSegmenter(TrainConfig(epochs=60, seed=4))
    result = spatial_correction(
        load("--train-images", lambda p: load_field(p).astype(np.float64)),
        load("--train-labels", load_mask),
        load("--val-images", lambda p: load_field(p).astype(np.float64)),
        load("--val-masks", load_mask), model, CorrectionParams(max_iters=3), seed=4,
        train_truth=load("--truth-dir", load_mask))
    assert len(result.records) == rounds
    write_report(result.records, tmp_path / "report.csv")
    assert (out / "report.csv").read_bytes() == (tmp_path / "report.csv").read_bytes()
    names = [p.name for p in sorted(dirs["--train-labels"].iterdir())]
    assert [p.name for p in sorted((out / "corrected").iterdir())] == names
    for name, label in zip(names, result.labels):
        assert np.array_equal(load_mask(out / "corrected" / name), label)
    assert (out / "model.json").read_text(encoding="utf-8") == model.to_json()


# a local fit's error names no round by itself, so sc-run names it: the
# third fit is round 2's
@pytest.mark.parametrize("fail_at, error", [(3, TrainingDivergedError), (3, TimeoutError),
                                            (3, ValueError), (3, KeyboardInterrupt),
                                            (1, TrainingDivergedError)])
def test_sc_run_keeps_the_rounds_before_a_failed_fit(tmp_path, capsys, monkeypatch,
                                                      fail_at, error):
    flags = noisy_run_flags(capsys, tmp_path)
    fit, calls, seen = LogisticSegmenter.fit, [], {}

    def fit_that_fails(self, images, labels, seed=None):
        calls.append(seed)
        if len(calls) == fail_at:  # what the rounds before this fit left
            seen["labels"] = [lbl.copy() for lbl in labels]
            seen["model"] = self.to_json() if fail_at > 1 else None
            raise error("loss diverged at epoch 7")
        return fit(self, images, labels, seed)

    monkeypatch.setattr(LogisticSegmenter, "fit", fit_that_fails)
    out = tmp_path / "run"
    argv = ["sc-run", *flags, "--max-iters", "3", "--epochs", "60", "--seed", "4",
            "--out", str(out)]
    if error is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert run(capsys, *argv)[::2] == (
            2, f"error: loss diverged at epoch 7 (in round {fail_at - 1})\n")
    if fail_at == 1:
        assert not out.exists()
        return
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "iter,delta_hat,lambda_mean,train_label_dsc_vs_truth,val_dsc"
    assert [row.split(",")[0] for row in report[1:]] == ["0", "1"]
    corrected = sorted((out / "corrected").iterdir())
    assert len(corrected) == len(seen["labels"]) == 10
    for path, label in zip(corrected, seen["labels"]):
        assert np.array_equal(load_mask(path), label)
    assert (out / "model.json").read_text(encoding="utf-8") == seen["model"]


def answer_round_0(ext: Path, train_masks, val_masks) -> None:
    """An external trainer that answers round_000 and then goes quiet. Its
    logits are the negated signed distances of the clean masks dilated twice,
    so the validation bias is about -2 and the loop goes on to round_001."""
    rdir = ext / "round_000"
    for _ in range(1500):
        if (rdir / "LABELS_DONE").exists():
            break
        time.sleep(0.02)
    else:
        return
    (rdir / "logits").mkdir()
    for split, masks in (("train", train_masks), ("val", val_masks)):
        for i, m in enumerate(masks):
            save_field(-signed_distance(dilate_one(dilate_one(m))),
                       rdir / "logits" / f"{split}_{i:05d}.gtf")
    (rdir / "DONE").touch()


def test_sc_run_keeps_round_0_when_the_external_trainer_goes_quiet(tmp_path, capsys,
                                                                    deadline):
    images_dir, masks_dir = make_dataset(capsys, tmp_path / "train", count=3, size="24x24",
                                         seed=1)
    val_images, val_masks = make_dataset(capsys, tmp_path / "val", count=2, size="24x24",
                                         seed=2)
    ext, out = tmp_path / "ext", tmp_path / "run"
    trainer = threading.Thread(target=answer_round_0, daemon=True, args=(
        ext, [load_mask(p) for p in sorted(masks_dir.iterdir())],
        [load_mask(p) for p in sorted(val_masks.iterdir())]))
    trainer.start()
    rc, _, err = run(capsys, "sc-run", "--train-images", str(images_dir),
                     "--train-labels", str(masks_dir), "--val-images", str(val_images),
                     "--val-masks", str(val_masks), "--external-dir", str(ext),
                     "--timeout", "1", "--poll-interval", "0.05", "--out", str(out))
    trainer.join()
    assert rc == 2
    assert err == f"error: no DONE after 1.0s in {ext / 'round_001'} (in round 1)\n"
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "iter,delta_hat,lambda_mean,train_label_dsc_vs_truth,val_dsc"
    assert len(report) == 2 and report[1].startswith("0,")
    # the labels round_001 was given, file for file
    sent = sorted((ext / "round_001" / "labels").iterdir())
    kept = sorted((out / "corrected").iterdir())
    assert len(kept) == len(sent) == 3
    assert [p.read_bytes() for p in kept] == [p.read_bytes() for p in sent]
    assert not (out / "model.json").exists()


@pytest.mark.parametrize("value", ["0.5", "nan", "inf"])
def test_sc_run_rejects_a_stop_threshold_below_one_layer(tmp_path, capsys, value):
    images_dir, masks_dir = make_dataset(capsys, tmp_path / "data", count=2, size="16x16")
    rc, _, err = run(capsys, "sc-run", "--train-images", str(images_dir),
                     "--train-labels", str(masks_dir), "--val-images", str(images_dir),
                     "--val-masks", str(masks_dir), f"--stop-threshold={value}",
                     "--out", str(tmp_path / "run"))
    assert rc == 2
    assert err.startswith("error: ") and "stop_threshold" in err
    assert not (tmp_path / "run").exists()  # refused before anything was fitted


@pytest.mark.parametrize("value", ["0.5", "nan", "inf"])
def test_correct_rejects_a_stop_threshold_below_one_layer(tmp_path, capsys, value):
    logits_dir = tmp_path / "logits"
    logits_dir.mkdir()
    save_field(np.where(dilate_one(np.eye(8, dtype=bool)), 1.0, -1.0),
               logits_dir / "a.gtf")
    out_dir = tmp_path / "corrected"
    rc, _, err = run(capsys, "correct", "--logits-dir", str(logits_dir), "--delta", "0.8",
                     f"--stop-threshold={value}", "--out-dir", str(out_dir))
    assert rc == 2
    rule = ">= 1" if value == "0.5" else "finite"
    assert err == f"error: stop_threshold must be {rule}, got {value}\n"
    assert not out_dir.exists()  # refused before anything was written


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_correct_rejects_a_non_finite_delta_before_writing(tmp_path, capsys, value):
    # an infinite delta would shift every logit by the band's extreme: all foreground
    logits_dir = tmp_path / "logits"
    logits_dir.mkdir()
    save_field(np.where(dilate_one(np.eye(8, dtype=bool)), 1.0, -1.0), logits_dir / "a.gtf")
    out_dir = tmp_path / "corrected"
    rc, _, err = run(capsys, "correct", "--logits-dir", str(logits_dir), f"--delta={value}",
                     "--out-dir", str(out_dir))
    assert (rc, err) == (2, f"error: --delta must be finite, got {float(value)}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("inputs", ["empty", "masks"])
def test_correct_reads_every_input_before_it_creates_the_out_dir(tmp_path, capsys, inputs):
    logits_dir = tmp_path / "logits"
    logits_dir.mkdir()
    if inputs == "masks":  # a directory of GTF masks where logit fields belong
        save_field(np.ones((8, 8)), logits_dir / "a.gtf")
        save_mask(np.eye(8, dtype=bool), logits_dir / "b.gtf")
    out_dir = tmp_path / "corrected"
    rc, _, err = run(capsys, "correct", "--logits-dir", str(logits_dir), "--delta", "2",
                     "--out-dir", str(out_dir))
    assert rc == 2
    assert err.startswith("error: ")
    assert ("no .gtf files" if inputs == "empty" else "found a u8 mask") in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["train", "sc-run", "sweep"])
def test_a_diverged_fit_exits_2_without_a_traceback(tmp_path, capsys, command):
    images_dir, masks_dir = make_dataset(capsys, tmp_path / "data", count=2, size="16x16")
    diverge = ["--lr", "1e300", "--epochs", "5"]
    argv = {
        "train": ["train", "--images-dir", str(images_dir), "--labels-dir", str(masks_dir),
                  "--out", str(tmp_path / "model.json")],
        "sc-run": ["sc-run", "--train-images", str(images_dir),
                   "--train-labels", str(masks_dir), "--val-images", str(images_dir),
                   "--val-masks", str(masks_dir), "--out", str(tmp_path / "run")],
        "sweep": ["sweep", "--kind", "noise_level", "--values", "1", "--count", "4",
                  "--size", "16x16", "--n-val", "1", "--n-test", "1", "--preset", "tiny-se",
                  "--out", str(tmp_path / "sweep.csv")],
    }[command]
    rc, _, err = run(capsys, *argv, *diverge)
    assert rc == 2
    assert err.startswith("error: loss diverged")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "sc-run", "sweep"])
@pytest.mark.parametrize("flag, value, message", [
    ("--lr", "nan", "learning_rate must be positive and finite, got nan"),
    ("--lr", "inf", "learning_rate must be positive and finite, got inf"),
    ("--l2", "nan", "l2 must be >= 0 and finite, got nan"),
    ("--l2", "-inf", "l2 must be >= 0 and finite, got -inf"),
])
def test_a_non_finite_step_or_penalty_exits_2_before_reading(tmp_path, capsys, command,
                                                             flag, value, message):
    # the input directories do not exist, so any read would fail differently
    missing = str(tmp_path / "missing")
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--images-dir", missing, "--labels-dir", missing,
                  "--out", str(out)],
        "sc-run": ["sc-run", "--train-images", missing, "--train-labels", missing,
                   "--val-images", missing, "--val-masks", missing, "--out", str(out)],
        "sweep": ["sweep", "--kind", "noise_level", "--values", "1", "--count", "4",
                  "--size", "16x16", "--n-val", "1", "--n-test", "1", "--preset", "tiny-se",
                  "--out", str(out)],
    }[command]
    rc, _, err = run(capsys, *argv, f"{flag}={value}")
    assert (rc, err) == (2, f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, flag", [
    ("gen-noise", "--smooth-sigma"), ("sweep", "--smooth-sigma"),
    ("synth", "--contrast"), ("synth", "--blur-sigma"), ("synth", "--noise-sigma"),
    ("sweep", "--blur-sigma"), ("sweep", "--noise-sigma"),
])
def test_a_non_finite_noise_or_synthesis_parameter_exits_2_before_writing(
        tmp_path, capsys, command, flag, value):
    # a NaN sigma used to smooth or blur nothing, and an infinite one to
    # raise OverflowError with a traceback
    mask = tmp_path / "mask.pgm"
    save_mask(centered_disk((16, 16)), mask)
    out = tmp_path / "out"
    argv = {
        "gen-noise": ["gen-noise", "--mask", str(mask), "-T", "3",
                      "--theta1", "0.5", "--theta2", "0.5"],
        "synth": ["synth", "--count", "2", "--size", "16x16"],
        "sweep": ["sweep", "--kind", "noise_level", "--values", "1", "--count", "4",
                  "--size", "16x16", "--n-val", "1", "--n-test", "1", "--preset", "tiny-se"],
    }[command]
    rc, _, err = run(capsys, *argv, f"{flag}={value}", "--out", str(out))
    name = flag[2:].replace("-", "_")
    bound = "positive" if name == "contrast" else ">= 0"
    assert (rc, err) == (2, f"error: {name} must be finite and {bound}, got {value}\n")
    assert not out.exists()


def test_a_config_preset_with_an_infinite_smooth_sigma_exits_2_before_writing(
        tmp_path, capsys):
    mask = tmp_path / "mask.pgm"
    save_mask(centered_disk((16, 16)), mask)
    cfg = tmp_path / "extra.ini"
    cfg.write_text("[preset.demo]\nT = 2\ntheta1 = 0.9\ntheta2 = 0.5\nsmooth_sigma = inf\n")
    out = tmp_path / "n.gtf"
    rc, _, err = run(capsys, "gen-noise", "--mask", str(mask), "--config", str(cfg),
                     "--preset", "demo", "--out", str(out))
    assert (rc, err) == (2, f"error: {cfg}: [preset.demo]: "
                            "smooth_sigma must be finite and >= 0, got inf\n")
    assert not out.exists()


def test_sc_run_refuses_a_used_external_dir(tmp_path, capsys):
    images_dir, masks_dir = make_dataset(capsys, tmp_path / "data", count=2, size="16x16")
    ext = tmp_path / "ext"
    (ext / "round_000" / "labels").mkdir(parents=True)
    (ext / "round_000" / "DONE").touch()
    rc, _, err = run(capsys, "sc-run", "--train-images", str(images_dir),
                     "--train-labels", str(masks_dir), "--val-images", str(images_dir),
                     "--val-masks", str(masks_dir), "--external-dir", str(ext),
                     "--timeout", "1", "--out", str(tmp_path / "run"))
    assert rc == 2
    assert err.startswith("error: ") and str(ext / "round_000") in err
    assert "Traceback" not in err
    assert sorted(p.name for p in ext.iterdir()) == ["round_000"]  # no image written


@pytest.mark.parametrize("flag, value", [
    ("--poll-interval", "inf"), ("--poll-interval", "nan"), ("--poll-interval", "0"),
    ("--timeout", "nan"), ("--timeout", "inf"), ("--timeout", "-1"),
])
def test_sc_run_refuses_an_external_wait_it_cannot_keep_before_writing(tmp_path, capsys,
                                                                       deadline, flag, value):
    images_dir, masks_dir = make_dataset(capsys, tmp_path / "data", count=2, size="16x16")
    ext, out = tmp_path / "ext", tmp_path / "run"
    rc, _, err = run(capsys, "sc-run", "--train-images", str(images_dir),
                     "--train-labels", str(masks_dir), "--val-images", str(images_dir),
                     "--val-masks", str(masks_dir), "--external-dir", str(ext),
                     f"{flag}={value}", "--out", str(out))
    name = flag[2:].replace("-", "_")
    assert (rc, err) == (2, f"error: {name} must be positive and finite, got {float(value)}\n")
    assert not ext.exists() and not out.exists()


# ---------------------------------------------------------------- verify


def test_verify_lemma1_passes_and_writes_a_report(tmp_path, capsys):
    report = tmp_path / "report.csv"
    rc, out, _ = run(capsys, "verify", "lemma1", "--theta1", "0.7", "--theta2", "0.9",
                     "--samples", "3000", "--size", "16x16", "--seed", "1",
                     "--threads", "2", "--out", str(report))
    assert rc == 0
    assert out.startswith("PASS")
    lines = report.read_text().splitlines()
    assert lines[0] == "key,value"
    assert "measurements.n_disagree,0" in lines


@pytest.mark.filterwarnings("ignore:theta3=0.45")
def test_verify_lemma1_reports_an_honest_failure(capsys):
    # theta3 just under 1/2 with a weak walk flips the boundary majority away
    # from the flip-free closed form: decided disagreements, exit code 3
    rc, out, _ = run(capsys, "verify", "lemma1", "--theta1", "0.5", "--theta2", "0.6",
                     "--theta3", "0.45", "--samples", "4000", "--size", "16x16",
                     "--seed", "1")
    assert rc == 3
    assert out.startswith("FAIL")


@pytest.mark.parametrize("fixture", [["--radius", "0"], ["--radius", "-3"],
                                     ["--size", "12x12", "--radius", "100"]])
def test_verify_lemma1_refuses_a_fixture_without_boundary(capsys, fixture):
    # an empty or all-foreground disk has nothing to move: no vacuous PASS
    rc, out, err = run(capsys, "verify", "lemma1", "--theta1", "0.7", "--theta2", "0.9",
                       "--samples", "300", *fixture)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_verify_lemma1_refuses_fewer_than_one_thread(tmp_path, capsys, threads):
    report = tmp_path / "report.csv"
    rc, out, err = run(capsys, "verify", "lemma1", "--theta1", "0.7", "--theta2", "0.9",
                       "--samples", "200", "--threads", threads, "--out", str(report))
    assert rc == 1
    assert out == ""
    assert err == f"usage error: argument --threads: threads must be >= 1, got {threads}\n"
    assert not report.exists()


def test_verify_theorem1_cli(capsys):
    rc, out, _ = run(capsys, "verify", "theorem1", "--eps0", "0.5", "--eps1", "2",
                     "--eps", "1", "--alpha", "0.5", "--image-size", "1024",
                     "--trials", "10", "--holdout", "10", "--seed", "3")
    assert rc == 0
    assert out.startswith("PASS")
    assert "V=67" in out


def test_verify_theorem1_rejects_bad_inputs(capsys):
    rc, _, err = run(capsys, "verify", "theorem1", "--eps0", "1", "--eps1", "0.5",
                     "--eps", "2", "--alpha", "0.05", "--image-size", "1024",
                     "--trials", "5")
    assert rc == 2
    assert "error:" in err


def test_verify_theorem1_asks_for_a_square_image_size(capsys):
    rc, out, err = run(capsys, "verify", "theorem1", "--eps0", "0.5", "--eps1", "2",
                       "--eps", "1", "--alpha", "0.5", "--image-size", "1000")
    assert rc == 2
    assert out == ""
    assert err == ("error: --image-size must be a perfect square, got 1000: "
                   "the CLI verifies square 2-D grids\n")


def test_verify_theorem1_names_the_smallest_image_size(capsys):
    rc, out, err = run(capsys, "verify", "theorem1", "--eps0", "1", "--eps1", "6",
                       "--eps", "2.5", "--alpha", "0.05", "--image-size", "100")
    assert rc == 2
    assert out == ""
    assert err == ("error: --image-size must be at least 144 (a 12x12 grid) to leave room "
                   "for shapes with margin, got 100\n")


@pytest.mark.parametrize("command", ["synth", "theorem1"])
def test_more_than_2_to_the_32_masks_exit_2_before_any_draw(tmp_path, capsys, command):
    # mask 2**32 would need a second spawn-key word; these once ran until killed
    out = tmp_path / "out"
    argv = {
        "synth": ["synth", "--count", "4294967297", "--size", "16x16"],
        "theorem1": ["verify", "theorem1", "--eps0", "1", "--eps1", "20", "--eps", "2",
                     "--alpha", "0.05", "--image-size", "65536", "--holdout", "4294967297"],
    }[command]
    rc, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (rc, stdout) == (2, "")
    assert err == {
        "synth": "error: count must be <= 2**32, got 4294967297\n",
        "theorem1": "error: the pool of v_required + holdout = 2956 + 4294967297 masks "
                    "must hold at most 2**32\n",
    }[command]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sc-run", "sweep", "theorem1"])
def test_a_size_beyond_memory_exits_2_without_a_traceback(tmp_path, capsys, command):
    # a box filter padded by 10**12 sites, or a pool crop of a 10**6-wide
    # grid, once ended in a MemoryError traceback at exit 1
    images_dir, masks_dir = make_dataset(capsys, tmp_path / "data", count=2, size="16x16")
    out = tmp_path / "out"
    radii = ["--radii", "1000000000000", "--epochs", "2"]
    argv = {
        "train": ["train", "--images-dir", str(images_dir), "--labels-dir", str(masks_dir),
                  *radii],
        "sc-run": ["sc-run", "--train-images", str(images_dir),
                   "--train-labels", str(masks_dir), "--val-images", str(images_dir),
                   "--val-masks", str(masks_dir), *radii],
        "sweep": ["sweep", "--kind", "noise_level", "--values", "1", "--count", "4",
                  "--size", "16x16", "--n-val", "1", "--n-test", "1", "--preset", "tiny-se",
                  *radii],
        "theorem1": ["verify", "theorem1", "--eps0", "1", "--eps1", "20", "--eps", "2",
                     "--alpha", "0.05", "--image-size", "1000000000000", "--trials", "2",
                     "--holdout", "2"],
    }[command]
    rc, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (rc, stdout) == (2, "")
    radius = "error: feature radius 1000000000000 pads each line of a 16x16 image beyond " \
             "the memory available"
    assert err == {
        "train": radius + "\n",
        "sc-run": radius + " (in round 0)\n",
        "sweep": radius + "\n",
        "theorem1": "error: the pool of 6266 masks on a 1000000x1000000 grid (image_size "
                    "1000000000000) needs more memory than is available\n",
    }[command]
    assert not out.exists()


def test_verify_theorem1_rejects_a_theta_out_of_range_in_the_identity_regime(capsys):
    # theta 0.5/-0.1 reads as the identity regime, which builds no pool; the
    # range check must come first
    rc, out, err = run(capsys, "verify", "theorem1", "--theta1", "0.5", "--theta2", "-0.1",
                       "--eps0", "0.5", "--eps1", "2", "--eps", "1", "--alpha", "0.5",
                       "--image-size", "1024", "--trials", "5", "--holdout", "10")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: theta2 must be in [0, 1]")


# ---------------------------------------------------------------- sweep


def test_sweep_cli_writes_the_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc, text, _ = run(capsys, "sweep", "--kind", "val_size", "--values", "2,4",
                      "--count", "16", "--size", "24x24", "--blur-sigma", "1.0",
                      "--noise-sigma", "0.2", "-T", "2", "--theta1", "0.8",
                      "--theta2", "0.6", "--epochs", "60", "--max-iters", "2",
                      "--n-val", "4", "--n-test", "4", "--seed", "2",
                      "--out", str(out))
    assert rc == 0
    assert "wrote 6 rows" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,value,arm,seed,test_dsc"
    assert len(lines) == 7
    assert {line.split(",")[1] for line in lines[1:]} == {"2", "4"}


@pytest.mark.parametrize("values, bad", [("2,99", 99), ("0,2", 0)])
def test_sweep_checks_every_value_before_the_first_fit(tmp_path, capsys, monkeypatch,
                                                       values, bad):
    def fit(self, images, labels, seed=None):
        raise AssertionError("a fit started")

    monkeypatch.setattr(LogisticSegmenter, "fit", fit)
    out = tmp_path / "sweep.csv"
    rc, text, err = run(capsys, "sweep", "--kind", "val_size", "--values", values,
                        "--count", "16", "--size", "24x24", "-T", "2", "--theta1", "0.8",
                        "--theta2", "0.6", "--epochs", "60", "--n-val", "4", "--n-test", "4",
                        "--out", str(out))
    assert (rc, text) == (2, "")
    assert err == f"error: val_size values must be in [1, n_val=4], got {bad}\n"
    assert not out.exists()


# ---------------------------------------------------------------- entry points


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
BOUND_ARGV = ["bound", "--eps0", "1", "--eps1", "20", "--eps", "2",
              "--alpha", "0.05", "--image-size", "65536"]


def declared_console_script(name):
    # tomllib only exists from Python 3.11 and the package supports 3.10, so
    # the one ``name = "module:attr"`` entry is read from its table by hand
    table = re.search(r"^\[project\.scripts\]\s*$(.*?)(?=^\[|\Z)",
                      PYPROJECT.read_text(), re.M | re.S)
    assert table, f"no [project.scripts] table in {PYPROJECT}"
    entry = re.search(rf'^{name}\s*=\s*"([\w.]+):(\w+)"\s*$', table.group(1), re.M)
    assert entry, f"no {name} entry under [project.scripts]"
    return entry.group(1), entry.group(2)


def test_installed_entry_points_answer():
    as_module = subprocess.run([sys.executable, "-m", "segnoise", *BOUND_ARGV],
                               capture_output=True, text=True)
    assert as_module.returncode == 0 and as_module.stdout.strip() == "2956"
    # call the declared target with no arguments, as the installed wrapper
    # does, so it has to read the command line from sys.argv
    module, attr = declared_console_script("segnoise")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    as_target = subprocess.run([sys.executable, "-c", wrapper, *BOUND_ARGV],
                               capture_output=True, text=True)
    assert as_target.returncode == 0, as_target.stderr
    assert as_target.stdout.strip() == "2956"


@pytest.mark.skipif(shutil.which("segnoise") is None,
                    reason="no segnoise console script on PATH (package not installed)")
def test_console_script_on_path_answers():
    as_script = subprocess.run(["segnoise", *BOUND_ARGV], capture_output=True, text=True)
    assert as_script.returncode == 0 and as_script.stdout.strip() == "2956"


# scipy.stats costs most of a second to import and tens of MB of memory;
# nothing in the package needs it


def test_cli_import_leaves_scipy_stats_unloaded():
    proc = run_fresh("import segnoise.cli, sys; sys.exit('scipy.stats' in sys.modules)")
    assert proc.returncode == 0, proc.stderr or "scipy.stats was imported"


SCIPY_LOADED_AFTER = """\
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import segnoise.cli
loaded = {"import": scipy_modules()}
for name, argv in %r:
    loaded[name] = [segnoise.cli.main(argv), scipy_modules()]
print(json.dumps(loaded))
"""


def test_bound_and_an_unsmoothed_gen_noise_load_no_scipy(tmp_path):
    # scipy takes most of a cold start to import, and neither command calls
    # it; the commands that do import it at first use and write the same bytes
    mask = tmp_path / "mask.gtf"
    save_mask(centered_disk((20, 24)), mask)
    noise = ["gen-noise", "--mask", str(mask), "--preset", "tiny-se", "--seed", "4"]

    def argvs(out):
        return [("bound", BOUND_ARGV),
                ("gen-noise", [*noise, "--out", str(out / "noisy.gtf")]),
                ("smoothed", [*noise, "--smooth-sigma", "1", "--out", str(out / "smoothed.gtf")]),
                ("sdf", ["sdf", "--mask", str(mask), "--out", str(out / "sdf.gtf")])]

    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir()
    here.mkdir()
    proc = run_fresh(SCIPY_LOADED_AFTER % argvs(fresh))
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["import"] == []
    assert loaded["bound"] == [0, []]
    assert loaded["gen-noise"] == [0, []]
    assert loaded["smoothed"][0] == 0 and "scipy.ndimage" in loaded["smoothed"][1]
    assert loaded["sdf"][0] == 0
    for _, argv in argvs(here):
        assert main(argv) == 0
    for name in ("noisy.gtf", "smoothed.gtf", "sdf.gtf"):
        assert (fresh / name).read_bytes() == (here / name).read_bytes(), name


LOADED_AFTER = """\
import contextlib, io, json, sys
def loaded():
    return ["numpy" in sys.modules,
            sorted(m for m in sys.modules if m == "segnoise" or m.startswith("segnoise."))]
import segnoise.cli
seen = {"import": loaded()}
for name, argv in %r:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = segnoise.cli.main(argv)
        except SystemExit as e:  # --help
            rc = e.code
    seen[name] = [rc, *loaded()]
print(json.dumps(seen))
"""


def test_bound_help_and_usage_errors_load_no_numpy_and_no_other_module(tmp_path):
    # numpy and the package's modules are most of a cold start; a command
    # that needs them loads them first and writes the same bytes
    mask = tmp_path / "mask.gtf"
    save_mask(centered_disk((20, 24)), mask)
    noise = ["gen-noise", "--mask", str(mask), "--preset", "tiny-se", "--seed", "4"]
    proc = run_fresh(LOADED_AFTER % [
        ("bound", BOUND_ARGV), ("help", ["--help"]), ("sub-help", ["sweep", "--help"]),
        ("unknown flag", ["bound", "--nope", "1"]), ("missing flag", noise),
        ("gen-noise", [*noise, "--out", str(tmp_path / "fresh.gtf")])])
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    light = [False, ["segnoise", "segnoise.bound", "segnoise.cli"]]
    assert seen.pop("import") == light
    assert seen.pop("bound") == [0, *light]
    assert seen.pop("help") == [0, *light]
    assert seen.pop("sub-help") == [0, *light]
    assert seen.pop("unknown flag") == [1, *light]
    assert seen.pop("missing flag") == [1, *light]
    rc, numpy_loaded, modules = seen.pop("gen-noise")
    assert (rc, numpy_loaded) == (0, True) and "segnoise.noise" in modules
    assert main([*noise, "--out", str(tmp_path / "here.gtf")]) == 0
    assert (tmp_path / "fresh.gtf").read_bytes() == (tmp_path / "here.gtf").read_bytes()


PATCHED_BEFORE_THE_FIRST_COMMAND = """\
import json, sys
import segnoise.cli as cli
from segnoise import formats
calls, originals = [], {}
def patch(name, original):
    originals[name] = original
    def patched(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    setattr(cli, name, patched)
patch("save_mask", formats.save_mask)  # set before the CLI's own names are bound
patch("generate", getattr(cli, "generate"))  # as a tracer does: read, then replace
first = cli.main(%r)
for name, original in originals.items():
    setattr(cli, name, original)
second = cli.main(%r)
noise = sys.modules["segnoise.noise"]
print(json.dumps([first, second, calls, originals["generate"] is noise.generate,
                  originals["save_mask"] is formats.save_mask,
                  cli.generate is noise.generate, cli.save_mask is formats.save_mask]))
"""


def test_names_patched_before_the_first_command_are_called_and_restored(tmp_path):
    mask = tmp_path / "mask.gtf"
    save_mask(centered_disk((20, 24)), mask)
    noise = ["gen-noise", "--mask", str(mask), "--preset", "tiny-se", "--seed", "4"]
    proc = run_fresh(PATCHED_BEFORE_THE_FIRST_COMMAND % (
        [*noise, "--out", str(tmp_path / "patched.gtf")],
        [*noise, "--out", str(tmp_path / "restored.gtf")]))
    assert proc.returncode == 0, proc.stderr
    first, second, calls, *originals = json.loads(proc.stdout.splitlines()[-1])
    assert (first, second) == (0, 0)
    assert calls == ["generate", "save_mask"]  # the first command only
    assert originals == [True, True, True, True]
    assert (tmp_path / "patched.gtf").read_bytes() == (tmp_path / "restored.gtf").read_bytes()


def test_cli_import_leaves_multiprocessing_unloaded():
    # only a fan-out over worker processes needs it
    proc = run_fresh("import segnoise.cli, sys; sys.exit('multiprocessing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr or "multiprocessing was imported"


def test_verify_theorem1_leaves_scipy_stats_unloaded():
    # seed 3 fails 6 of 20 trials, so the run computes its confidence bounds
    argv = ["verify", "theorem1", "--eps0", "0.5", "--eps1", "2", "--eps", "1",
            "--alpha", "0.5", "--image-size", "1024", "--trials", "20",
            "--holdout", "10", "--seed", "3"]
    proc = run_fresh("import sys; from segnoise.cli import main; main(%r); "
                     "print('scipy.stats' in sys.modules)" % argv)
    assert proc.returncode == 0, proc.stderr
    assert "6/20 failures" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "False"
