"""The package's exported names, each imported from its module at first use."""

import importlib
import json

import pytest

import segnoise
from _oracles import run_fresh

# every name `import segnoise` exports, by the module that defines or owns it
HOMES = {
    "bound": ["ValidationBoundInputs", "required_validation_size"],
    "correct": ["BiasEstimate", "CorrectionParams", "EmptyBandError", "IterationRecord",
                "SpatialCorrectionResult", "estimate_bias", "lambda_bias", "logit_correct",
                "naive_correct", "spatial_correction", "write_report"],
    "formats": ["FormatError", "load_field", "load_gtf", "load_mask", "load_pgm", "save_csv",
                "save_field", "save_gtf", "save_mask", "save_pgm"],
    "grid": ["as_field", "as_mask", "boundary_layer", "dice", "dilate_one", "erode_one",
             "threshold"],
    "harness": ["PipelineResult", "SynthSpec", "TrialReport", "centered_disk", "run_pipeline",
                "sweep", "synth_dataset", "synth_masks", "verify_bayes_mask",
                "verify_validation_bound", "write_trial_report"],
    "model": ["ExternalSegmenter", "LogisticSegmenter", "Segmenter", "TrainConfig",
              "TrainingDivergedError", "loss_and_grad"],
    "noise": ["PRESETS", "MarkovNoiseParams", "bayes_mask_one_step", "expected_label_mc",
              "generate", "load_presets", "preset"],
    "sdf": ["DegenerateMaskError", "sdf_gap", "signed_distance"],
}
NAMES = sorted(name for names in HOMES.values() for name in names)


def test_the_package_exports_its_57_names():
    assert len(NAMES) == 57
    assert sorted(segnoise.__all__) == NAMES
    assert segnoise.__version__ == "0.1.0"


@pytest.mark.parametrize("module, name", [(m, n) for m, names in HOMES.items() for n in names])
def test_each_name_is_its_modules_object(module, name):
    home = importlib.import_module(f"segnoise.{module}")
    assert getattr(segnoise, name) is getattr(home, name)
    assert name in dir(segnoise)


def test_correct_still_exports_the_bound():
    from segnoise import bound, correct

    assert correct.ValidationBoundInputs is bound.ValidationBoundInputs
    assert correct.required_validation_size is bound.required_validation_size
    assert {"ValidationBoundInputs", "required_validation_size"} <= set(correct.__all__)


def test_an_unknown_name_raises_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="'segnoise' has no attribute 'nope'"):
        segnoise.nope  # noqa: B018


def test_a_fresh_import_loads_each_module_at_its_first_name():
    proc = run_fresh(
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith(('segnoise', 'numpy')))\n"
        "import segnoise\n"
        "seen = [loaded()]\n"
        "segnoise.required_validation_size\n"
        "seen.append(loaded())\n"
        "from segnoise import cli\n"
        "seen.append([cli.__name__, 'segnoise.cli' in sys.modules])\n"
        "from segnoise import *\n"
        "seen.append(sorted(n for n in segnoise.__all__ if n not in globals()))\n"
        "print(json.dumps(seen))")
    assert proc.returncode == 0, proc.stderr
    imported, bound, cli, missing = json.loads(proc.stdout)
    assert imported == ["segnoise"]
    assert bound == ["segnoise", "segnoise.bound"]
    assert cli == ["segnoise.cli", True]
    assert missing == []
