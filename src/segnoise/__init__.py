"""Boundary noise for segmentation masks and signed-distance label correction.

The package simulates annotator-style boundary distortion of binary masks
(random expand/shrink walks plus sparse flips), quantifies the systematic
over/under-segmentation a model learns from such labels as a mean
signed-distance gap against a few clean validation images, and removes it,
either directly on a distance field or iteratively in logit space while
retraining. Empirical harnesses check the one-step most-likely-mask rule and
the validation-set size bound, and a small pipeline compares clean / noisy /
corrected training end to end.

Each exported name is imported from its module when it is first read
(PEP 562), so ``import segnoise`` loads neither numpy nor any module of the
package.
"""

import importlib

_EXPORTS = {
    "bound": ("ValidationBoundInputs", "required_validation_size"),
    "correct": ("BiasEstimate", "CorrectionParams", "EmptyBandError", "IterationRecord",
                "SpatialCorrectionResult", "estimate_bias", "lambda_bias", "logit_correct",
                "naive_correct", "spatial_correction", "write_report"),
    "formats": ("FormatError", "load_field", "load_gtf", "load_mask", "load_pgm", "save_csv",
                "save_field", "save_gtf", "save_mask", "save_pgm"),
    "grid": ("as_field", "as_mask", "boundary_layer", "dice", "dilate_one", "erode_one",
             "threshold"),
    "harness": ("PipelineResult", "SynthSpec", "TrialReport", "centered_disk", "run_pipeline",
                "sweep", "synth_dataset", "synth_masks", "verify_bayes_mask",
                "verify_validation_bound", "write_trial_report"),
    "model": ("ExternalSegmenter", "LogisticSegmenter", "Segmenter", "TrainConfig",
              "TrainingDivergedError", "loss_and_grad"),
    "noise": ("PRESETS", "MarkovNoiseParams", "bayes_mask_one_step", "expected_label_mc",
              "generate", "load_presets", "preset"),
    "sdf": ("DegenerateMaskError", "sdf_gap", "signed_distance"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
