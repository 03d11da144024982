"""The benchmark's three workloads: what one round does and how it is checked.

A round is a fixed list of operations (one three-arm pipeline run, one
``gen-noise`` call, or one harness call), each timed on its own. The program
is always reached through module attributes at call time, so the traced run
sees every call the untraced run makes.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import refs
from segnoise import cli, correct, harness, model, noise, sdf

NPROC = os.cpu_count() or 1


@dataclass
class Op:
    kind: str
    seconds: float
    problems: list[str] = field(default_factory=list)


def timed(kind: str, fn, *args, **kwargs):
    """Run one operation; an exception makes it a failed operation, not a crash."""
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception:
        return Op(kind, time.perf_counter() - t0, [f"{kind} raised:\n{traceback.format_exc()}"]), None
    return Op(kind, time.perf_counter() - t0), result


def derive_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue()


class Pipeline:
    """run_pipeline at acceptance test 7's configuration (tiny-se noise, 64^2
    images, the sharp fit lr 1.0 / 800 epochs / l2 0) with 12 training images
    instead of 167. Each round is one three-arm run on fresh data."""

    name = "pipeline"

    def __init__(self, seed: int, work: Path, quick: bool):
        self.seed = seed
        self.n_train, self.n_val, self.n_test = (4, 2, 6) if quick else (12, 4, 40)
        self.scores: list[dict] = []

    def prepare(self) -> None:
        self.noise = noise.preset("tiny-se")
        self.fit = model.TrainConfig(learning_rate=1.0, epochs=800, l2=0.0)
        self.spec = harness.SynthSpec(count=self.n_train + self.n_val + self.n_test,
                                      shape=(64, 64), blur_sigma=2.0, noise_sigma=0.2)

    def round(self, r: int) -> list[Op]:
        op, res = timed("pipeline", harness.run_pipeline, self.spec, self.noise,
                        correct.CorrectionParams(), self.fit, n_val=self.n_val,
                        n_test=self.n_test, seed=derive_seed(self.seed, r))
        if res is not None:
            scores = {row["arm"]: row["test_dsc"] for row in res.metrics}
            op.problems += refs.check_recovery(scores, [rec.delta_hat for rec in res.sc_records])
            self.scores.append(scores)
        return [op]

    def run_checks(self) -> list[str]:
        return refs.check_loss_and_grad(model.loss_and_grad,
                                        np.random.default_rng(derive_seed(self.seed, 909)))

    def report(self, ops: list[Op]) -> dict[str, tuple[float, str]]:
        med = {arm: statistics.median(s[arm] for s in self.scores) for arm in ("clean", "noisy", "sc")}
        gain = sum(s["sc"] >= s["noisy"] + 0.05 for s in self.scores)
        return {"pipeline_s": (statistics.median(o.seconds for o in ops), "s"),
                "sc_test_dsc": (med["sc"], "dice"),
                "noisy_test_dsc": (med["noisy"], "dice"),
                "clean_test_dsc": (med["clean"], "dice"),
                "runs_with_gain_0.05": (gain, f"of {len(self.scores)}")}


class Walk:
    """``segnoise gen-noise`` in process on a synthetic dataset at paper scale:
    256^2 ellipse-union masks under jsrt-lung-se and 64^3 volumes under
    brats-se, synthesised with ``segnoise synth`` and stored as GTF. A round
    corrupts every file once, each call with its own seed."""

    name = "walk"

    def __init__(self, seed: int, work: Path, quick: bool):
        self.seed = seed
        self.work = work
        self.n2, self.size2, self.n3, self.size3 = ((2, "64x64", 1, "24x24x24") if quick
                                                    else (4, "256x256", 2, "64x64x64"))

    def prepare(self) -> None:
        files = []
        for ndim, count, size, preset in ((2, self.n2, self.size2, "jsrt-lung-se"),
                                          (3, self.n3, self.size3, "brats-se")):
            tag = f"d{ndim}"
            out = self.work / tag
            rc, _ = run_cli(["synth", "--count", count, "--size", size, "--family",
                             "ellipse-unions", "--seed", derive_seed(self.seed, ndim),
                             "--out", out])
            if rc != 0:
                raise RuntimeError(f"segnoise synth exited {rc}")
            files += [(p, preset, tag) for p in sorted((out / "masks").glob("*.gtf"))]
        self.files = files

    def round(self, r: int) -> list[Op]:
        ops = []
        for i, (path, preset, tag) in enumerate(self.files):
            s = derive_seed(self.seed, r, i)
            out = self.work / f"noisy_{i}.gtf"
            op, res = timed(tag, run_cli, ["gen-noise", "--mask", path, "--preset", preset,
                                           "--seed", s, "--out", out])
            if res is not None and res[0] != 0:
                op.problems.append(f"gen-noise exited {res[0]}")
            # one 2-D and one 3-D output per run against the reference walk
            if r == 0 and i in (0, self.n2) and not op.problems:
                op.problems += refs.check_walk(refs.read_gtf_mask(path),
                                               refs.read_gtf_mask(out), preset, s)
            ops.append(op)
        return ops

    def run_checks(self) -> list[str]:
        return []

    def report(self, ops: list[Op]) -> dict[str, tuple[float, str]]:
        def rate(tag):
            sel = [o.seconds for o in ops if o.kind == tag]
            return len(sel) / sum(sel)

        return {"walk_2d_masks_per_s": (rate("d2"), "1/s"),
                "walk_3d_volumes_per_s": (rate("d3"), "1/s")}


REGIMES = ((0.7, 0.9), (0.2, 0.8), (0.5, 0.5))  # expand, shrink, identity


class Verify:
    """Both guarantee harnesses as a user runs them: the one-step Monte Carlo
    on a 64^2 disk in the three regimes with threads = nproc, then the
    validation-size bound at the worked example (V = 2956, a pool of 3156
    256^2 images)."""

    name = "verify"
    # Monte Carlo seeds of acceptance tests 3 and 4, fixed: the 3-sigma layer
    # check is statistical, and a stream drawn from --seed would fail it by
    # chance on some seeds.
    BAYES_SEED, MEANS_SEED = 7, 11

    def __init__(self, seed: int, work: Path, quick: bool):
        self.seed = seed
        self.samples = 400 if quick else 16000
        if quick:
            self.bound = {"eps0": 0.5, "eps1": 2.0, "eps": 1.0, "alpha": 0.5, "image_size": 1024}
            self.trials, self.holdout, self.sdf_shape = 5, 8, (64, 64)
        else:
            self.bound, self.trials, self.holdout = refs.WORKED_BOUND, 200, 200
            self.sdf_shape = (256, 256)

    def prepare(self) -> None:
        rr, cc = np.indices((64, 64))
        self.disk = (rr - 31.5) ** 2 + (cc - 31.5) ** 2 <= 16.0 ** 2
        self.inputs = correct.ValidationBoundInputs(**self.bound)

    def round(self, r: int) -> list[Op]:
        ops = []
        for theta1, theta2 in REGIMES:
            op, rep = timed("lemma", harness.verify_bayes_mask, self.disk, theta1, theta2, 0.0,
                            self.samples, seed=self.BAYES_SEED, threads=NPROC)
            if rep is not None:
                op.problems += refs.check_bayes_report(rep.measurements, rep.passed, theta1, theta2)
            ops.append(op)
            params = noise.MarkovNoiseParams(steps=1, theta1=theta1, theta2=theta2,
                                             seed=self.MEANS_SEED)
            op, mean = timed("lemma", noise.expected_label_mc, self.disk, params,
                             self.samples, threads=NPROC)
            if mean is not None:
                op.problems += refs.check_one_step_means(self.disk, mean, theta1, theta2,
                                                         self.samples)
            ops.append(op)
        op, rep = timed("theorem1", harness.verify_validation_bound, self.inputs,
                        n_trials=self.trials, holdout=self.holdout,
                        seed=derive_seed(self.seed, r))
        if rep is not None:
            op.problems += refs.check_bound_report(rep.measurements, rep.passed, self.bound,
                                                   self.holdout)
        ops.append(op)
        return ops

    def run_checks(self) -> list[str]:
        rng = np.random.default_rng(derive_seed(self.seed, 1))
        problems = []
        for _ in range(3):
            mask = refs.random_blob_mask(rng, self.sdf_shape)
            problems += refs.check_signed_distance(mask, sdf.signed_distance(mask))
        return problems

    def mc_scaling(self) -> float:
        """Samples per second at nproc threads over samples per second at one,
        from the faster of two alternating calls at each setting."""
        params = noise.MarkovNoiseParams(steps=1, theta1=0.7, theta2=0.9, seed=self.BAYES_SEED)
        best = {1: float("inf"), NPROC: float("inf")}
        for threads in (1, NPROC, 1, NPROC):
            t0 = time.perf_counter()
            noise.expected_label_mc(self.disk, params, self.samples, threads=threads)
            best[threads] = min(best[threads], time.perf_counter() - t0)
        return best[1] / best[NPROC]

    def report(self, ops: list[Op]) -> dict[str, tuple[float, str]]:
        lemma = [o.seconds for o in ops if o.kind == "lemma"]
        return {"lemma_samples_per_s": (len(lemma) * self.samples / sum(lemma), "1/s"),
                "theorem1_s": (statistics.median(o.seconds for o in ops
                                                 if o.kind == "theorem1"), "s")}


WORKLOADS = {w.name: w for w in (Pipeline, Walk, Verify)}
