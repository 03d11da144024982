"""Spans around calls into segnoise's modules, recorded from outside the package.

A Tracer replaces a module attribute, or a class method, with a wrapper that
records one span per call: name, start, end, parent span, process CPU time,
and a few notes (rows, sites, samples, bytes) taken from the arguments or the
result. It patches the name the caller looks up: ``fit`` reaches the loss as
``segnoise.model.loss_and_grad``, ``run_pipeline`` reaches the walk as
``segnoise.harness.generate``, so those are the attributes replaced. Spans
stay in memory until ``write``; ``close`` restores every original.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span called ``name``.

        ``note(args, kwargs, result)`` returns extra numeric fields for the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"id": next(self._ids), "name": name,
                    "parent": stack[-1]["id"] if stack else None}
            self.spans.append(span)
            stack.append(span)
            cpu = time.process_time()
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu"] = time.process_time() - cpu
                stack.pop()
            if note is not None:
                span.update(note(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _rows(args, kwargs, result):
    return {"rows": int(_arg(args, kwargs, 1, "X").shape[0])}


def _steps(args, kwargs, result):
    return {"steps": int(_arg(args, kwargs, 1, "params").steps)}


def _samples(args, kwargs, result):
    threads = args[3] if len(args) > 3 else kwargs.get("threads", 1)
    return {"samples": int(_arg(args, kwargs, 2, "n_samples")), "threads": max(1, int(threads))}


def _sites(args, kwargs, result):
    return {"sites": int(np.asarray(args[0]).size)}


def _relabelled(args, kwargs, result):
    before = _arg(args, kwargs, 1, "train_labels")
    return {"relabelled": int(sum(int((np.asarray(b) != a).sum())
                                  for b, a in zip(before, result.labels))),
            "label_sites": int(sum(np.asarray(b).size for b in before)),
            "rounds": len(result.records)}


def _bytes_read(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def instrument(tracer: Tracer, cli, correct, harness, model, noise) -> None:
    """Wrap every call into a layer that the three workloads make."""
    wrap = tracer.wrap
    # entry points the benchmark itself calls
    wrap(cli, "main", "cli.main")
    wrap(harness, "run_pipeline", "harness.run_pipeline")
    wrap(harness, "verify_bayes_mask", "harness.verify_bayes_mask")
    wrap(harness, "verify_validation_bound", "harness.verify_validation_bound")
    wrap(noise, "expected_label_mc", "noise.expected_label_mc", _samples)
    # calls from one layer into another, under the name the caller uses
    wrap(harness, "synth_dataset", "harness.synth")
    wrap(harness, "synth_masks", "harness.synth")
    wrap(harness, "spatial_correction", "correct.spatial_correction", _relabelled)
    wrap(harness, "expected_label_mc", "noise.expected_label_mc", _samples)
    wrap(harness, "bayes_mask_one_step", "noise.bayes_mask_one_step")
    wrap(harness, "draw_offsets", "model.draw_offsets")
    wrap(correct, "estimate_bias", "correct.estimate_bias")
    wrap(correct, "logit_correct", "correct.logit_correct")
    wrap(model, "loss_and_grad", "model.loss_and_grad", _rows)
    wrap(model.LogisticSegmenter, "fit", "model.fit")
    wrap(model.LogisticSegmenter, "predict_logits", "model.predict")
    wrap(cli, "load_mask", "formats.load", _bytes_read)
    wrap(cli, "save_mask", "formats.save", _bytes_written)
    for owner in (harness, cli):
        wrap(owner, "generate", "noise.generate", _steps)
    for owner in (harness, correct, cli):
        wrap(owner, "signed_distance", "sdf.signed_distance", _sites)
    for owner in (harness, correct):
        wrap(owner, "dice", "grid.dice")
        wrap(owner, "threshold", "grid.threshold")


def summarise(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds (minus direct
    children), CPU seconds, wall x threads, and the sum of each note."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        d = out[s["name"]]
        wall = s["end"] - s["start"]
        d["calls"] += 1
        d["s"] += wall
        d["self_s"] += wall - child[s["id"]]
        d["cpu_s"] += s["cpu"]
        d["thread_s"] += wall * s.get("threads", 1)
        for key in ("rows", "steps", "samples", "sites", "relabelled", "label_sites",
                    "rounds", "bytes"):
            d[key] += s.get(key, 0)
    return out


def pool_and_trials(spans: list[dict]) -> tuple[float, float]:
    """Split each verify_validation_bound span at its first draw_offsets call:
    before it the pool is built; after it the trials run. Returns the summed
    pool wall time and the trials' self time (minus child spans)."""
    by_parent = defaultdict(list)
    for s in spans:
        by_parent[s["parent"]].append(s)
    pool = trials = 0.0
    for s in spans:
        if s["name"] != "harness.verify_validation_bound":
            continue
        kids = by_parent[s["id"]]
        draws = [k["start"] for k in kids if k["name"] == "model.draw_offsets"]
        split = min(draws) if draws else s["end"]
        pool += split - s["start"]
        trials += (s["end"] - split) - sum(k["end"] - k["start"] for k in kids
                                           if k["start"] >= split)
    return pool, trials


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], rounds: int) -> dict[str, float]:
    """Per-layer figures per measured round (times, calls, work), plus rates."""
    agg = summarise(spans)

    def g(name, key="s"):
        return agg[name][key] if name in agg else 0.0

    per = 1.0 / rounds
    pool, trials = pool_and_trials(spans)
    return {
        "model.loss_and_grad_s": g("model.loss_and_grad") * per,
        "model.loss_and_grad_calls": g("model.loss_and_grad", "calls") * per,
        "model.loss_and_grad_us_per_row": _ratio(g("model.loss_and_grad") * 1e6,
                                                 g("model.loss_and_grad", "rows")),
        "model.fit_s": g("model.fit") * per,
        "model.fit_calls": g("model.fit", "calls") * per,
        "model.predict_s": g("model.predict") * per,
        "correct.spatial_correction_self_s": g("correct.spatial_correction", "self_s") * per,
        "correct.estimate_bias_s": g("correct.estimate_bias") * per,
        "correct.logit_correct_s": g("correct.logit_correct") * per,
        "correct.rounds": _ratio(g("correct.spatial_correction", "rounds"),
                                 g("correct.spatial_correction", "calls")),
        "correct.relabelled_fraction": _ratio(g("correct.spatial_correction", "relabelled"),
                                              g("correct.spatial_correction", "label_sites")),
        "grid.dice_s": g("grid.dice") * per,
        "grid.threshold_s": g("grid.threshold") * per,
        "noise.generate_s": g("noise.generate") * per,
        "noise.generate_calls": g("noise.generate", "calls") * per,
        "noise.walk_steps": g("noise.generate", "steps") * per,
        "noise.generate_us_per_step": _ratio(g("noise.generate") * 1e6,
                                             g("noise.generate", "steps")),
        "noise.mc_s": g("noise.expected_label_mc") * per,
        "noise.mc_samples": g("noise.expected_label_mc", "samples") * per,
        "noise.mc_us_per_sample": _ratio(g("noise.expected_label_mc") * 1e6,
                                         g("noise.expected_label_mc", "samples")),
        "noise.mc_cpu_util": _ratio(g("noise.expected_label_mc", "cpu_s"),
                                    g("noise.expected_label_mc", "thread_s")),
        "noise.bayes_mask_one_step_s": g("noise.bayes_mask_one_step") * per,
        "sdf.signed_distance_s": g("sdf.signed_distance") * per,
        "sdf.signed_distance_calls": g("sdf.signed_distance", "calls") * per,
        "sdf.sites": g("sdf.signed_distance", "sites") * per,
        "sdf.ns_per_site": _ratio(g("sdf.signed_distance") * 1e9,
                                  g("sdf.signed_distance", "sites")),
        "harness.synth_s": g("harness.synth") * per,
        "harness.pool_build_s": pool * per,
        "harness.trials_self_s": trials * per,
        "formats.load_s": g("formats.load") * per,
        "formats.save_s": g("formats.save") * per,
        "formats.bytes_read": g("formats.load", "bytes") * per,
        "formats.bytes_written": g("formats.save", "bytes") * per,
        "cli.main_self_s": g("cli.main", "self_s") * per,
        "cli.calls": g("cli.main", "calls") * per,
    }
