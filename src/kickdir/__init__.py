"""Penalty-kick direction prediction from precomputed clip embeddings.

The model reads two short sequences of clip embeddings per penalty (the
approach run-up and the contact-centered kicking window), encodes each with
a stack of selective state-space layers, pools them with learned attention,
fuses the pooled vectors with an embedded metadata pair (pitch side,
kicking foot), and classifies the kick direction. Everything — forward
passes, hand-derived gradients, the optimizer, and the evaluation
harness — is plain numpy.
"""

from .augment import AugmentConfig, augment
from .config import TrainConfig
from .data import (
    BINARY_CLASS_NAMES,
    CLASS_NAMES,
    DatasetManifest,
    FoldSplit,
    Metadata,
    PenaltySample,
    SampleTable,
    as_table,
    binarize,
    compute_class_weights,
    generate_synthetic,
    load_dataset,
    save_dataset,
    stratified_kfold,
)
from .errors import (
    ConfigError,
    DataError,
    KickdirError,
    TrainingDivergedError,
)
from .metrics import (
    ConfusionMatrix,
    MetricReport,
    confusion_from_labels,
    evaluate,
    gk_baseline,
    mean_report,
    metrics_from_confusion,
    pool_confusions,
)
from .model import ALL_BRANCHES, ModelBundle, build_model, predict, \
    predict_logits
from .train import (
    TrainHistory,
    cosine_warmup_lr,
    load_checkpoint,
    save_checkpoint,
    train_fold,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_BRANCHES",
    "AugmentConfig",
    "BINARY_CLASS_NAMES",
    "CLASS_NAMES",
    "ConfigError",
    "ConfusionMatrix",
    "DataError",
    "DatasetManifest",
    "FoldSplit",
    "KickdirError",
    "Metadata",
    "MetricReport",
    "ModelBundle",
    "PenaltySample",
    "SampleTable",
    "TrainConfig",
    "TrainHistory",
    "TrainingDivergedError",
    "as_table",
    "augment",
    "binarize",
    "build_model",
    "compute_class_weights",
    "confusion_from_labels",
    "cosine_warmup_lr",
    "evaluate",
    "gk_baseline",
    "generate_synthetic",
    "load_checkpoint",
    "load_dataset",
    "mean_report",
    "metrics_from_confusion",
    "pool_confusions",
    "predict",
    "predict_logits",
    "save_checkpoint",
    "save_dataset",
    "stratified_kfold",
    "train_fold",
]
