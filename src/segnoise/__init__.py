"""Boundary noise for segmentation masks and signed-distance label correction.

The package simulates annotator-style boundary distortion of binary masks
(random expand/shrink walks plus sparse flips), quantifies the systematic
over/under-segmentation a model learns from such labels as a mean
signed-distance gap against a few clean validation images, and removes it,
either directly on a distance field or iteratively in logit space while
retraining. Empirical harnesses check the one-step most-likely-mask rule and
the validation-set size bound, and a small pipeline compares clean / noisy /
corrected training end to end.
"""

from .correct import (BiasEstimate, CorrectionParams, EmptyBandError,
                      IterationRecord, SpatialCorrectionResult,
                      ValidationBoundInputs, estimate_bias, lambda_bias,
                      logit_correct, naive_correct, required_validation_size,
                      spatial_correction, write_report)
from .formats import (FormatError, load_field, load_gtf, load_mask, load_pgm,
                      save_csv, save_field, save_gtf, save_mask, save_pgm)
from .grid import (as_field, as_mask, boundary_layer, dice, dilate_one, erode_one,
                   threshold)
from .harness import (PipelineResult, SynthSpec, TrialReport, centered_disk,
                      run_pipeline, sweep, synth_dataset, synth_masks,
                      verify_bayes_mask, verify_validation_bound, write_trial_report)
from .model import (ExternalSegmenter, LogisticSegmenter, Segmenter,
                    TrainConfig, TrainingDivergedError, loss_and_grad)
from .noise import (PRESETS, MarkovNoiseParams, bayes_mask_one_step,
                    expected_label_mc, generate, load_presets, preset)
from .sdf import DegenerateMaskError, sdf_gap, signed_distance

__version__ = "0.1.0"
