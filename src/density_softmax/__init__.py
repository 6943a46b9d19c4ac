"""Density-scaled softmax classification with calibrated uncertainty.

Train a residual encoder + linear head by ERM, fit a density model (KDE or
a coupling flow) on the frozen train latents, scale its likelihood into
(0, 1], and multiply it into the logits at inference. One forward pass
yields both the class probabilities and a distance-aware uncertainty.
"""

from .config import (DensityConfig, EncoderConfig, ExperimentConfig, FlowConfig,
                     OptimizerSpec, ReoptConfig, ShiftSpec, TrainConfig, build_datasets,
                     load_config, parse_config)
from .data import (LabeledSet, apply_shift, load_csv, make_ood_cluster, make_two_moons,
                   make_two_ovals, save_csv)
from .density import FlowModel, KdeModel, ScaledDensity, compute_scale, flow_fit, kde_fit
from .metrics import (EvalReport, accuracy, auroc, aupr, brier_score,
                      evaluate_predictions, expected_calibration_error,
                      misclassified_ece, negative_log_likelihood,
                      ood_detection, reliability_bins)
from .model import Classifier, Encoder, erm_train, init_model
from .ops import entropy, softmax
from .optim import Adam
from .predictor import (DensitySoftmaxModel, Ensemble, Prediction, PipelineResult,
                        ensemble_train, predictive_summaries, reoptimize_classifier,
                        train_pipeline)

__version__ = "0.1.0"

__all__ = [
    "Adam", "Classifier", "DensityConfig", "DensitySoftmaxModel",
    "Encoder", "EncoderConfig", "Ensemble", "EvalReport", "ExperimentConfig",
    "FlowConfig", "FlowModel", "KdeModel", "LabeledSet", "OptimizerSpec",
    "PipelineResult", "Prediction", "ReoptConfig", "ScaledDensity",
    "ShiftSpec", "TrainConfig",
    "accuracy", "apply_shift", "auroc", "aupr", "brier_score",
    "build_datasets", "compute_scale", "ensemble_train",
    "entropy", "erm_train", "evaluate_predictions",
    "expected_calibration_error", "flow_fit", "init_model", "kde_fit",
    "load_config", "load_csv", "make_ood_cluster", "make_two_moons",
    "make_two_ovals", "misclassified_ece", "negative_log_likelihood",
    "ood_detection", "parse_config", "predictive_summaries",
    "reliability_bins", "reoptimize_classifier", "save_csv", "softmax",
    "train_pipeline",
]
