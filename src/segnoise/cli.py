"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 a verification
command ran fine but the property under test failed.

A command's cold start is mostly imports, so this module imports only the
standard library and ``bound`` at the top: ``import segnoise.cli``,
``segnoise bound``, ``--help`` and a usage error load neither numpy nor the
rest of the package. ``_load`` imports them before any other command runs,
in this process, so a fan-out's forked helpers find them loaded, and binds
the names in ``_DEFERRED`` as globals of this module. It never rebinds a
name that is already set, and the commands call whatever these globals
hold: a tracer may replace one with a wrapper before the first command
(reading it first loads them all, through the module's ``__getattr__``)
and put the original back afterwards.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import math
import os
import sys
from pathlib import Path

from .bound import ValidationBoundInputs, required_validation_size

__all__ = ["main"]

# what the commands other than `bound` use, by module; `_load` binds these
_DEFERRED = {
    "correct": ("CorrectionParams", "_rounds", "estimate_bias", "logit_correct",
                "write_report"),
    "formats": ("load_field", "load_gtf", "load_mask", "save_csv", "save_field", "save_mask"),
    "grid": ("threshold",),
    "harness": ("SynthSpec", "centered_disk", "sweep", "synth_dataset", "verify_bayes_mask",
                "verify_validation_bound", "write_trial_report"),
    "model": ("ExternalSegmenter", "LogisticSegmenter", "TrainConfig",
              "TrainingDivergedError"),
    "noise": ("PRESETS", "MarkovNoiseParams", "generate", "load_presets"),
    "sdf": ("DegenerateMaskError", "signed_distance"),
}

# the errors of bad data, which exit 2: format, degenerate-mask and JSON
# errors are ValueErrors, a timeout an OSError; `_load` adds a diverged fit
_DATA_ERRORS: tuple[type[Exception], ...] = (OSError, ValueError, KeyError)
_loaded = False


def _load() -> None:
    """Import numpy and the modules that the commands use, and bind numpy as
    ``np`` and each name in ``_DEFERRED`` here, unless it is already set."""
    global _DATA_ERRORS, _loaded
    if _loaded:
        return
    namespace = globals()
    namespace.setdefault("np", importlib.import_module("numpy"))
    for module, names in _DEFERRED.items():
        home = importlib.import_module(f".{module}", __package__)
        for name in names:
            namespace.setdefault(name, getattr(home, name))
    _DATA_ERRORS += (TrainingDivergedError,)
    _loaded = True


def __getattr__(name: str):
    if name == "np" or any(name in names for names in _DEFERRED.values()):
        _load()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise _UsageError(message)


def _size(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size {text!r}, expected e.g. 64x64")
    if len(dims) not in (2, 3) or min(dims) < 1:
        raise argparse.ArgumentTypeError(f"bad size {text!r}, expected 2 or 3 positive extents")
    return dims


def _int_from(name: str, low: int):
    """An argparse type: an integer of at least ``low``, called ``name`` in
    its error messages."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {name} {text!r}, expected an integer")
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}, got {value}")
        return value
    return parse


_seed = _int_from("seed", 0)
_threads = _int_from("threads", 1)


def _synth_size(size: tuple[int, ...]) -> tuple[int, ...]:
    """``--size`` of a synthetic dataset, which needs room for shapes with margin."""
    if min(size) < 12:
        raise ValueError(f"--size needs every extent >= 12 to leave room for shapes "
                         f"with margin, got {'x'.join(map(str, size))}")
    return size


def _int_list(text: str) -> list[int]:
    try:
        vals = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad list {text!r}, expected e.g. 4,8,12")
    if not vals:
        raise argparse.ArgumentTypeError("empty list")
    return vals


def _pair(text: str) -> tuple[int, int]:
    vals = _int_list(text)
    if len(vals) != 2:
        raise argparse.ArgumentTypeError(f"expected two integers, got {text!r}")
    return vals[0], vals[1]


def _grid_files(directory) -> list[Path]:
    d = Path(directory)
    if not d.is_dir():
        raise FileNotFoundError(f"{d} is not a directory")
    files = sorted(p for p in d.iterdir() if p.suffix in (".gtf", ".pgm"))
    if not files:
        raise ValueError(f"no .gtf or .pgm files in {d}")
    return files


def _load_image(path: Path) -> np.ndarray:
    """Images are f32 GTF fields; a mask file is accepted as a 0/1 image."""
    arr = load_gtf(path) if path.suffix == ".gtf" else load_mask(path)
    return arr.astype(np.float64)


def _load_sdf_like(path: Path) -> np.ndarray | None:
    """A float field is taken as a ready SDF; a mask gets its SDF computed.

    Returns None for masks without a boundary (caller counts the skip).
    Float fields must actually look like signed distances (integral values,
    magnitude >= 1): raw logit fields fed here would silently skew the
    estimate by their arbitrary scale.
    """
    arr = load_gtf(path) if path.suffix == ".gtf" else load_mask(path)
    if arr.dtype == bool:
        try:
            return signed_distance(arr)
        except DegenerateMaskError:
            return None
    field = arr.astype(np.float64)
    if np.abs(field).min() < 1.0 or (field != np.round(field)).any():
        raise ValueError(
            f"{path} is not a signed distance field (values must be integral "
            f"with magnitude >= 1); for logit fields, threshold into masks "
            f"first, e.g. `segnoise correct --delta 0`")
    return field


# ---------------------------------------------------------------------------
# commands


def _cmd_synth(args) -> int:
    spec = SynthSpec(count=args.count, shape=_synth_size(args.size), family=args.family,
                     contrast=args.contrast, blur_sigma=args.blur_sigma,
                     noise_sigma=args.noise_sigma, holes=args.holes, seed=args.seed)
    images, masks = synth_dataset(spec)
    out = Path(args.out)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "masks").mkdir(parents=True, exist_ok=True)
    ext = args.format
    for i, (img, mask) in enumerate(zip(images, masks)):
        save_field(img, out / "images" / f"image_{i:05d}.gtf")
        save_mask(mask, out / "masks" / f"mask_{i:05d}.{ext}")
    print(f"wrote {len(images)} images and masks under {out}")
    return 0


def _resolve_noise_params(args) -> MarkovNoiseParams:
    presets = dict(PRESETS)
    if args.config:
        presets.update(load_presets(args.config))
    base = None
    if args.preset:
        if args.preset not in presets:
            raise _UsageError(f"unknown preset {args.preset!r}; "
                              f"known: {', '.join(sorted(presets))}")
        base = presets[args.preset]
    fields = {}
    for attr, flag in (("steps", "steps"), ("theta1", "theta1"), ("theta2", "theta2"),
                       ("theta3", "theta3"), ("smooth_sigma", "smooth_sigma")):
        v = getattr(args, flag)
        if v is not None:
            fields[attr] = v
        elif base is not None:
            fields[attr] = getattr(base, attr)
        elif attr in ("theta3", "smooth_sigma"):
            fields[attr] = 0.0
        else:
            raise _UsageError(f"--{flag.replace('_', '-')} is required without --preset")
    return MarkovNoiseParams(seed=args.seed, **fields)


def _cmd_gen_noise(args) -> int:
    params = _resolve_noise_params(args)
    mask = load_mask(args.mask)
    save_mask(generate(mask, params), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_sdf(args) -> int:
    save_field(signed_distance(load_mask(args.mask)), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_estimate_bias(args) -> int:
    pred_files = _grid_files(args.pred_dir)
    clean_files = _grid_files(args.clean_dir)
    if len(pred_files) != len(clean_files):
        raise ValueError(f"{len(pred_files)} predicted vs {len(clean_files)} clean files")
    preds = [_load_sdf_like(p) for p in pred_files]
    cleans = [_load_sdf_like(p) for p in clean_files]
    est = estimate_bias(preds, cleans)
    if args.out:
        gaps = iter(est.per_image_gaps)  # one gap per pair that was not skipped, in order
        save_csv(args.out, ["pred_file", "clean_file", "gap"],
                 [[pf.name, cf.name, "" if p is None or c is None else repr(next(gaps))]
                  for pf, cf, p, c in zip(pred_files, clean_files, preds, cleans)])
    print(f"delta_hat {est.delta_hat!r} over {est.v_used} image pairs "
          f"({est.skipped} skipped)")
    return 0


def _cmd_correct(args) -> int:
    # check the flags before anything touches the disk
    CorrectionParams(gamma=args.gamma, stop_threshold=args.stop_threshold)
    if not math.isfinite(args.delta):
        raise ValueError(f"--delta must be finite, got {args.delta}")
    files = sorted(Path(args.logits_dir).glob("*.gtf"))
    if not files:
        raise ValueError(f"no .gtf files in {args.logits_dir}")
    # read every input before the output directory exists, so a bad input
    # leaves nothing behind
    fields = [load_field(path) for path in files]
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    skipped = 0
    for path, field in zip(files, fields):
        logits = field.astype(np.float64)
        mask = threshold(logits, 0.0, mode="ge")
        try:
            phi = signed_distance(mask)
        except DegenerateMaskError:
            skipped += 1
            save_mask(mask, out / f"{path.stem}.{args.format}")
            continue
        corrected = logit_correct(logits, phi, args.delta, args.gamma,
                                  stop_threshold=args.stop_threshold)
        save_mask(threshold(corrected, 0.0, mode="ge"), out / f"{path.stem}.{args.format}")
    note = f" ({skipped} without a boundary, passed through)" if skipped else ""
    print(f"wrote {len(files)} corrected masks under {out}{note}")
    return 0


def _train_cfg(args) -> TrainConfig:
    return TrainConfig(learning_rate=args.lr, epochs=args.epochs, l2=args.l2,
                       feature_radii=tuple(args.radii), seed=args.seed)


def _cmd_train(args) -> int:
    model = LogisticSegmenter(_train_cfg(args))  # a bad flag exits before any file is read
    images = [_load_image(p) for p in _grid_files(args.images_dir)]
    labels = [load_mask(p) for p in _grid_files(args.labels_dir)]
    model.fit(images, labels, args.seed)
    Path(args.out).write_text(model.to_json(), encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def _cmd_predict(args) -> int:
    try:
        model = LogisticSegmenter.from_json(Path(args.model).read_text(encoding="utf-8"))
    except ValueError as e:  # a JSON or UTF-8 error names no file
        raise ValueError(f"{args.model}: {e}") from None
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = _grid_files(args.images_dir)
    for path in files:
        save_field(model.predict_logits(_load_image(path)), out / f"{path.stem}.gtf")
    print(f"wrote {len(files)} logit fields under {out}")
    return 0


def _cmd_sc_run(args) -> int:
    params = CorrectionParams(gamma=args.gamma, max_iters=args.max_iters,
                              stop_threshold=args.stop_threshold)
    train_cfg = _train_cfg(args)
    train_images = [_load_image(p) for p in _grid_files(args.train_images)]
    label_files = _grid_files(args.train_labels)
    train_labels = [load_mask(p) for p in label_files]
    val_images = [_load_image(p) for p in _grid_files(args.val_images)]
    val_masks = [load_mask(p) for p in _grid_files(args.val_masks)]
    truth = ([load_mask(p) for p in _grid_files(args.truth_dir)]
             if args.truth_dir else None)
    # the external segmenter checks its flags before it writes anything
    if args.external_dir:
        model = ExternalSegmenter(args.external_dir, train_images, val_images,
                                  poll_interval=args.poll_interval,
                                  timeout=args.timeout)
    else:
        model = LogisticSegmenter(train_cfg)
    out = Path(args.out)
    records = []  # each finished round rewrites what a failure in a later one leaves
    try:
        for record, labels in _rounds(train_images, train_labels, val_images, val_masks,
                                      model, params, args.seed, truth):
            (out / "corrected").mkdir(parents=True, exist_ok=True)
            write_report(records + [record], out / "report.csv")
            for path, label in zip(label_files, labels):
                save_mask(label, out / "corrected" / path.name)
            if isinstance(model, LogisticSegmenter):
                (out / "model.json").write_text(model.to_json(), encoding="utf-8")
            records.append(record)
    # main's data errors, named with the round whose fit or files raised them
    except _DATA_ERRORS as e:
        print(f"error: {e} (in round {len(records)})", file=sys.stderr)
        return 2
    if isinstance(model, LogisticSegmenter):  # also after a refit that went blank
        (out / "model.json").write_text(model.to_json(), encoding="utf-8")
    last = records[-1]
    print(f"finished after {last.iteration + 1} fits; final delta_hat {last.delta_hat!r}, "
          f"val_dsc {last.val_dsc!r}; report at {out / 'report.csv'}")
    return 0


def _cmd_verify_lemma1(args) -> int:
    mask = centered_disk(args.size, args.radius)
    report = verify_bayes_mask(mask, args.theta1, args.theta2, args.theta3,
                               args.samples, seed=args.seed, threads=args.threads)
    if args.out:
        write_trial_report(report, args.out)
    status = "PASS" if report.passed else "FAIL"
    m = report.measurements
    print(f"{status} one-step most-likely mask ({m['regime']}): "
          f"{m['n_disagree']} disagreements on {m['n_decided']}/{m['n_sites']} decided sites")
    return 0 if report.passed else 3


def _cmd_verify_theorem1(args) -> int:
    inputs = _bound_inputs(args)
    if math.isqrt(inputs.image_size) ** 2 != inputs.image_size:
        raise ValueError(f"--image-size must be a perfect square, got {inputs.image_size}: "
                         "the CLI verifies square 2-D grids")
    if inputs.image_size < 144:
        raise ValueError(f"--image-size must be at least 144 (a 12x12 grid) to leave room "
                         f"for shapes with margin, got {inputs.image_size}")
    report = verify_validation_bound(inputs, args.trials,
                                     theta1=args.theta1, theta2=args.theta2,
                                     holdout=args.holdout, family=args.family,
                                     seed=args.seed)
    if args.out:
        write_trial_report(report, args.out)
    status = "PASS" if report.passed else "FAIL"
    m = report.measurements
    print(f"{status} validation-size bound: V={m['v_required']}, "
          f"{m['failures']}/{args.trials} failures "
          f"(rate {m['failure_rate']!r}, alpha {args.alpha!r})")
    return 0 if report.passed else 3


def _cmd_sweep(args) -> int:
    spec = SynthSpec(count=args.count, shape=_synth_size(args.size), blur_sigma=args.blur_sigma,
                     noise_sigma=args.noise_sigma, seed=args.seed)
    noise = _resolve_noise_params(args)
    rows = sweep(args.kind, args.values, spec, noise,
                 CorrectionParams(gamma=args.gamma, max_iters=args.max_iters),
                 _train_cfg(args), n_val=args.n_val, n_test=args.n_test,
                 seed=args.seed, csv_path=args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_bound(args) -> int:
    print(required_validation_size(_bound_inputs(args)))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_noise_flags(p: _Parser) -> None:
    p.add_argument("--preset", help="named noise parameter preset")
    p.add_argument("--config", help="INI file with extra [preset.NAME] sections")
    p.add_argument("-T", "--steps", type=int, default=None, help="boundary steps")
    p.add_argument("--theta1", type=float, default=None, help="expansion probability")
    p.add_argument("--theta2", type=float, default=None, help="per-site march probability")
    p.add_argument("--theta3", type=float, default=None, help="stable-site flip probability")
    p.add_argument("--smooth-sigma", type=float, default=None,
                   help="Gaussian smoothing before the flip pass")


def _add_bound_flags(p: _Parser) -> None:
    """The inputs of the validation-size bound, all required."""
    p.add_argument("--eps0", type=float, required=True)
    p.add_argument("--eps1", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--image-size", type=int, required=True)


def _bound_inputs(args) -> ValidationBoundInputs:
    return ValidationBoundInputs(eps0=args.eps0, eps1=args.eps1, eps=args.eps,
                                 alpha=args.alpha, image_size=args.image_size)


def _add_train_flags(p: _Parser) -> None:
    p.add_argument("--lr", type=float, default=0.5, help="gradient descent step size")
    p.add_argument("--epochs", type=int, default=400)
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--radii", type=_int_list, default=[1, 3],
                   help="box-mean feature radii, e.g. 1,3")


def build_parser() -> _Parser:
    parser = _Parser(prog="segnoise",
                     description="Boundary-noise simulation, signed-distance bias "
                                 "estimation, and label correction for masks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic image/mask dataset")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--size", type=_size, required=True, help="e.g. 64x64 or 32x32x32")
    p.add_argument("--family", choices=("disks", "ellipse-unions"), default="disks")
    p.add_argument("--contrast", type=float, default=1.0)
    p.add_argument("--blur-sigma", type=float, default=1.5)
    p.add_argument("--noise-sigma", type=float, default=0.3)
    p.add_argument("--holes", type=_pair, default=None, help="interior holes: COUNT,RADIUS")
    p.add_argument("--format", choices=("gtf", "pgm"), default="gtf", help="mask file format")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("gen-noise", help="corrupt a mask with boundary noise")
    p.add_argument("--mask", required=True)
    _add_noise_flags(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_noise)

    p = sub.add_parser("sdf", help="signed distance field of a mask")
    p.add_argument("--mask", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sdf)

    p = sub.add_parser("estimate-bias",
                       help="mean SDF gap between predicted and clean masks/SDFs")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--clean-dir", required=True)
    p.add_argument("--out", default=None, help="per-image gap CSV")
    p.set_defaults(func=_cmd_estimate_bias)

    p = sub.add_parser("correct", help="bias-correct logit fields into masks")
    p.add_argument("--logits-dir", required=True)
    p.add_argument("--delta", type=float, required=True, help="estimated bias")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--stop-threshold", type=float, default=1.0)
    p.add_argument("--format", choices=("gtf", "pgm"), default="gtf")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("train", help="fit the per-pixel logistic segmenter")
    p.add_argument("--images-dir", required=True)
    p.add_argument("--labels-dir", required=True)
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="write logit fields for a directory of images")
    p.add_argument("--model", required=True)
    p.add_argument("--images-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("sc-run", help="train on noisy labels and run the correction loop")
    p.add_argument("--train-images", required=True)
    p.add_argument("--train-labels", required=True)
    p.add_argument("--val-images", required=True)
    p.add_argument("--val-masks", required=True)
    p.add_argument("--truth-dir", default=None, help="clean training masks, for reporting only")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--max-iters", type=int, default=5)
    p.add_argument("--stop-threshold", type=float, default=1.0)
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--external-dir", default=None,
                   help="serve fits through this directory instead of training locally")
    p.add_argument("--poll-interval", type=float, default=0.5,
                   help="seconds between checks for the external DONE sentinel")
    p.add_argument("--timeout", type=float, default=None,
                   help="give up waiting for the external trainer after this many "
                        "seconds (default: wait forever)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sc_run)

    p = sub.add_parser("verify", help="empirical verification harnesses")
    vsub = p.add_subparsers(dest="check", required=True)

    v = vsub.add_parser("lemma1", help="one-step expected label vs closed-form mask")
    v.add_argument("--theta1", type=float, required=True)
    v.add_argument("--theta2", type=float, required=True)
    v.add_argument("--theta3", type=float, default=0.0)
    v.add_argument("--samples", type=int, default=100_000)
    v.add_argument("--size", type=_size, default=(64, 64))
    v.add_argument("--radius", type=int, default=None, help="disk fixture radius")
    v.add_argument("--seed", type=_seed, default=0)
    v.add_argument("--threads", type=_threads, default=os.cpu_count() or 1,
                   help="processes for the Monte Carlo, this one among them, at most the "
                        "CPU count (default: the CPU count); the report does not depend on it")
    v.add_argument("--out", default=None, help="report CSV")
    v.set_defaults(func=_cmd_verify_lemma1)

    v = vsub.add_parser("theorem1", help="validation-set size bound, empirically")
    _add_bound_flags(v)
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--holdout", type=int, default=200)
    v.add_argument("--theta1", type=float, default=0.7)
    v.add_argument("--theta2", type=float, default=0.9)
    v.add_argument("--family", choices=("disks", "ellipse-unions"), default="disks")
    v.add_argument("--seed", type=_seed, default=0)
    v.add_argument("--out", default=None, help="report CSV")
    v.set_defaults(func=_cmd_verify_theorem1)

    p = sub.add_parser("sweep", help="pipeline sweep over noise level or validation size")
    p.add_argument("--kind", choices=("noise_level", "val_size"), required=True)
    p.add_argument("--values", type=_int_list, required=True, help="e.g. 4,8,12,16")
    p.add_argument("--count", type=int, default=60)
    p.add_argument("--size", type=_size, default=(64, 64))
    p.add_argument("--blur-sigma", type=float, default=1.5)
    p.add_argument("--noise-sigma", type=float, default=0.3)
    _add_noise_flags(p)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--max-iters", type=int, default=5)
    _add_train_flags(p)
    p.add_argument("--n-val", type=int, default=8)
    p.add_argument("--n-test", type=int, default=16)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="results CSV")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bound", help="validation-set size sufficient for recovery")
    _add_bound_flags(p)
    p.set_defaults(func=_cmd_bound)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser that ``main`` uses, built at its first call. Parsing reads
    it and changes nothing in it, so one serves every call in a process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    if args.func is not _cmd_bound:
        _load()
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
