"""Evaluation: confusion matrices, accuracy, macro precision/recall/F1,
metadata subgroup breakdowns, and the goalkeeper baseline."""

from dataclasses import dataclass, field

import numpy as np

from .data import BINARY_CLASS_NAMES, CLASS_NAMES
from .errors import DataError
from .model import predict

SUBGROUP_KEYS = ("side_right", "side_left", "foot_right", "foot_left")


def class_names(n_classes):
    return CLASS_NAMES if n_classes == 3 else BINARY_CLASS_NAMES


@dataclass
class ConfusionMatrix:
    """Rows are true classes, columns are predictions."""

    counts: np.ndarray

    @property
    def n_classes(self):
        return self.counts.shape[0]

    @property
    def total(self):
        return int(self.counts.sum())

    @property
    def accuracy(self):
        return float(np.trace(self.counts)) / self.total

    def row_normalized(self):
        """Each row rescaled to sum to 1; empty rows stay all-zero."""
        counts = self.counts.astype(np.float64)
        sums = counts.sum(axis=1, keepdims=True)
        return np.divide(counts, sums, out=np.zeros_like(counts),
                         where=sums > 0)


def confusion_from_labels(true_labels, pred_labels, n_classes):
    true_labels = np.asarray(true_labels, dtype=np.int64)
    pred_labels = np.asarray(pred_labels, dtype=np.int64)
    if true_labels.shape != pred_labels.shape:
        raise ValueError("label arrays must have matching length")
    if true_labels.size == 0:
        raise DataError("cannot evaluate an empty sample set")
    for name, arr in (("true", true_labels), ("predicted", pred_labels)):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise DataError(f"{name} label outside the {n_classes}-class "
                            f"label space")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (true_labels, pred_labels), 1)
    return ConfusionMatrix(counts=counts)


@dataclass
class SubgroupStats:
    count: int
    accuracy: float

    @property
    def error(self):
        return 1.0 - self.accuracy


@dataclass
class MetricReport:
    accuracy: float
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float
    n_samples: int
    subgroups: dict = field(default_factory=dict)


def metrics_from_confusion(cm):
    """Per-class and macro metrics. A class absent from both the truth and
    the predictions contributes zero to every macro mean."""
    counts = cm.counts.astype(np.float64)
    diag = np.diag(counts)
    col = counts.sum(axis=0)
    row = counts.sum(axis=1)
    precision = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr,
                   out=np.zeros_like(diag), where=pr > 0)
    return MetricReport(
        accuracy=cm.accuracy,
        precision=precision, recall=recall, f1=f1,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        n_samples=cm.total)


def _subgroup_stats(samples, true_labels, pred_labels):
    """Accuracy within each side/foot subgroup; absent groups map to None."""
    correct = np.asarray(true_labels) == np.asarray(pred_labels)
    masks = {
        "side_right": np.array([s.meta.side == 0 for s in samples]),
        "side_left": np.array([s.meta.side == 1 for s in samples]),
        "foot_right": np.array([s.meta.foot == 0 for s in samples]),
        "foot_left": np.array([s.meta.foot == 1 for s in samples]),
    }
    out = {}
    for key in SUBGROUP_KEYS:
        mask = masks[key]
        n = int(mask.sum())
        out[key] = SubgroupStats(n, float(correct[mask].mean())) if n else None
    return out


def _score(samples, true_labels, pred_labels, n_classes):
    cm = confusion_from_labels(true_labels, pred_labels, n_classes)
    report = metrics_from_confusion(cm)
    report.subgroups = _subgroup_stats(samples, true_labels, pred_labels)
    return cm, report


def evaluate(bundle, samples, branches=None):
    """Eval-mode inference and scoring; returns (ConfusionMatrix, report)."""
    if not samples:
        raise DataError("cannot evaluate an empty sample set")
    labels = np.array([s.label for s in samples], dtype=np.int64)
    if labels.max() >= bundle.n_classes:
        raise DataError(
            f"dataset labels exceed the model's {bundle.n_classes}-class "
            f"output")
    preds = predict(bundle, samples, branches=branches)
    return _score(samples, labels, preds, bundle.n_classes)


def gk_baseline(samples, n_classes=3):
    """Score the goalkeeper's actual dive direction as a predictor."""
    if not samples:
        raise DataError("cannot evaluate an empty sample set")
    missing = [s.id for s in samples if s.gk_direction is None]
    if missing:
        raise DataError(
            "goalkeeper direction missing for samples: "
            + ", ".join(repr(i) for i in missing))
    labels = [s.label for s in samples]
    preds = [s.gk_direction for s in samples]
    _, report = _score(samples, labels, preds, n_classes)
    return report


def pool_confusions(matrices):
    """Element-wise sum: the all-fold matrix over every evaluated sample."""
    if not matrices:
        raise ValueError("nothing to pool")
    n = matrices[0].n_classes
    if any(m.n_classes != n for m in matrices):
        raise ValueError("confusion matrices disagree on class count")
    return ConfusionMatrix(counts=sum(m.counts for m in matrices))


def mean_report(reports):
    """Unweighted fold mean of every metric; subgroup means skip folds where
    a subgroup is absent."""
    if not reports:
        raise ValueError("nothing to average")
    subgroups = {}
    for key in SUBGROUP_KEYS:
        present = [r.subgroups[key] for r in reports
                   if r.subgroups.get(key) is not None]
        if present:
            subgroups[key] = SubgroupStats(
                count=sum(s.count for s in present),
                accuracy=float(np.mean([s.accuracy for s in present])))
        else:
            subgroups[key] = None
    return MetricReport(
        accuracy=float(np.mean([r.accuracy for r in reports])),
        precision=np.mean([r.precision for r in reports], axis=0),
        recall=np.mean([r.recall for r in reports], axis=0),
        f1=np.mean([r.f1 for r in reports], axis=0),
        macro_precision=float(np.mean([r.macro_precision for r in reports])),
        macro_recall=float(np.mean([r.macro_recall for r in reports])),
        macro_f1=float(np.mean([r.macro_f1 for r in reports])),
        n_samples=sum(r.n_samples for r in reports),
        subgroups=subgroups)
