"""Scoring: confusion matrices, macro metrics, subgroups, GK baseline."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from kickdir.config import TrainConfig
from kickdir.data import Metadata, PenaltySample, generate_synthetic
from kickdir.errors import DataError
from kickdir.metrics import (
    SUBGROUP_KEYS,
    ConfusionMatrix,
    confusion_from_labels,
    evaluate,
    gk_baseline,
    mean_report,
    metrics_from_confusion,
    pool_confusions,
)
from kickdir.model import build_model, predict
from kickdir.report import (
    build_crossval_kv,
    confusion_svg,
    metric_row,
    parse_kv,
    render_confusion_text,
    render_kv,
    render_metrics_table,
    render_subgroup_table,
)


def make_sample(i, label, side=0, foot=0, gk=None, d=4):
    return PenaltySample(
        id=f"s{i:04d}", run_seq=np.zeros((2, d), dtype=np.float32),
        kick_seq=np.zeros((2, d), dtype=np.float32),
        meta=Metadata(side=side, foot=foot), label=label, gk_direction=gk)


# ----------------------------------------------------------- confusion


def test_confusion_counts_and_normalization():
    cm = confusion_from_labels([0, 0, 1, 2, 2, 2], [0, 1, 1, 2, 0, 2], 3)
    assert cm.counts.tolist() == [[1, 1, 0], [0, 1, 0], [1, 0, 2]]
    assert cm.total == 6
    assert cm.accuracy == 4 / 6
    norm = cm.row_normalized()
    assert np.allclose(norm.sum(axis=1), 1.0)
    assert np.allclose(np.diag(norm), [0.5, 1.0, 2 / 3])


def test_confusion_empty_row_stays_zero():
    cm = confusion_from_labels([0, 0], [0, 1], 3)
    norm = cm.row_normalized()
    assert not norm[1].any() and not norm[2].any()


def test_micro_consistency():
    rng = np.random.default_rng(0)
    true = rng.integers(0, 3, size=200)
    pred = rng.integers(0, 3, size=200)
    cm = confusion_from_labels(true, pred, 3)
    assert cm.counts.sum(axis=1).sum() == 200
    assert cm.counts.sum(axis=0).sum() == 200
    assert cm.accuracy == np.trace(cm.counts) / 200


def test_confusion_rejects_bad_labels():
    with pytest.raises(DataError):
        confusion_from_labels([], [], 3)
    with pytest.raises(DataError):
        confusion_from_labels([0, 3], [0, 0], 3)
    with pytest.raises(DataError):
        confusion_from_labels([0, 0], [0, -1], 3)


# ------------------------------------------------------------- metrics


def test_perfect_predictions():
    cm = confusion_from_labels([0, 1, 2, 1], [0, 1, 2, 1], 3)
    rep = metrics_from_confusion(cm)
    assert rep.accuracy == 1.0
    assert np.array_equal(cm.row_normalized(), np.eye(3))
    assert rep.macro_f1 == 1.0


def test_constant_left_on_reference_counts():
    true = [0] * 294 + [1] * 103 + [2] * 225
    pred = [0] * 622
    rep = metrics_from_confusion(confusion_from_labels(true, pred, 3))
    assert abs(rep.accuracy - 294 / 622) < 1e-9
    assert np.allclose(rep.recall, [1.0, 0.0, 0.0])
    assert np.isclose(rep.macro_recall, 1 / 3)


def test_left_recall_from_row_counts():
    # left row of 294 with 219 on the diagonal
    true = [0] * 294 + [2] * 100
    pred = [0] * 219 + [2] * 75 + [2] * 100
    rep = metrics_from_confusion(confusion_from_labels(true, pred, 3))
    assert abs(100 * rep.recall[0] - 74.5) < 0.05


def test_recall_equals_normalized_diagonal():
    rng = np.random.default_rng(1)
    cm = confusion_from_labels(rng.integers(0, 3, 300),
                               rng.integers(0, 3, 300), 3)
    rep = metrics_from_confusion(cm)
    assert np.allclose(rep.recall, np.diag(cm.row_normalized()))


def test_macro_f1_is_mean_of_class_f1_not_f1_of_means():
    cm = ConfusionMatrix(counts=np.array([[5, 5], [0, 10]]))
    rep = metrics_from_confusion(cm)
    assert np.isclose(rep.f1[0], 2 / 3)
    assert np.isclose(rep.f1[1], 4 / 5)
    assert np.isclose(rep.macro_f1, 11 / 15)
    p, r = rep.macro_precision, rep.macro_recall
    f1_of_means = 2 * p * r / (p + r)
    assert abs(rep.macro_f1 - f1_of_means) > 1e-3


def test_absent_class_contributes_zero():
    cm = ConfusionMatrix(counts=np.array([[2, 0, 0], [0, 3, 0], [0, 0, 0]]))
    rep = metrics_from_confusion(cm)
    assert rep.f1[2] == 0.0 and rep.precision[2] == 0.0
    assert np.isclose(rep.macro_f1, 2 / 3)


# ------------------------------------------------------------ evaluate


def test_evaluate_matches_manual_prediction_comparison():
    cfg = TrainConfig(branch_width=4, state_size=2, n_layers=1, conv_width=3,
                      meta_dim=3, fusion_hidden=6)
    bundle = build_model(6, 3, cfg, np.random.default_rng(0))
    _, samples = generate_synthetic(40, embedding_dim=6, n_r=3, n_k=2, seed=2)
    cm, rep = evaluate(bundle, samples)
    preds = predict(bundle, samples)
    labels = np.array([s.label for s in samples])
    assert rep.accuracy == np.mean(preds == labels)
    assert cm.total == 40
    assert set(rep.subgroups) == set(SUBGROUP_KEYS)


def test_evaluate_rejects_empty_and_label_mismatch():
    cfg = TrainConfig(branch_width=4, state_size=2, n_layers=1, conv_width=3,
                      meta_dim=3, fusion_hidden=6)
    bundle = build_model(6, 2, cfg, np.random.default_rng(0))
    with pytest.raises(DataError):
        evaluate(bundle, [])
    three_class = [make_sample(0, 2, d=6)]
    with pytest.raises(DataError):
        evaluate(bundle, three_class)


# ---------------------------------------------------------- gk baseline


def test_gk_oracle_and_never():
    oracle = [make_sample(i, i % 3, gk=i % 3) for i in range(9)]
    assert gk_baseline(oracle).accuracy == 1.0
    never = [make_sample(i, 0, gk=2) for i in range(5)]
    assert gk_baseline(never).accuracy == 0.0


def test_gk_match_rate_monte_carlo():
    rng = np.random.default_rng(3)
    samples = []
    for i in range(10_000):
        label = int(rng.choice([0, 2]))
        if rng.random() < 0.46:
            gk = label
        else:
            gk = 2 - label
        samples.append(make_sample(i, label, gk=gk))
    rep = gk_baseline(samples)
    assert abs(rep.accuracy - 0.46) < 0.015


def test_gk_missing_direction_lists_ids():
    samples = [make_sample(0, 0, gk=0), make_sample(1, 1), make_sample(2, 2)]
    with pytest.raises(DataError) as info:
        gk_baseline(samples)
    assert "s0001" in str(info.value) and "s0002" in str(info.value)
    assert "s0000" not in str(info.value)


# ------------------------------------------------------------ subgroups


def test_subgroups_absent_when_empty():
    samples = [make_sample(i, 0, side=0, foot=0, gk=0) for i in range(4)]
    rep = gk_baseline(samples)
    assert rep.subgroups["side_left"] is None
    assert rep.subgroups["foot_left"] is None
    assert rep.subgroups["side_right"].count == 4
    assert rep.subgroups["side_right"].accuracy == 1.0
    assert rep.subgroups["side_right"].error == 0.0


def test_subgroup_planted_rates_monte_carlo():
    rng = np.random.default_rng(4)
    samples = []
    for i in range(5000):
        side = int(rng.integers(0, 2))
        label = int(rng.choice([0, 2]))
        rate = 0.6 if side == 0 else 0.4
        gk = label if rng.random() < rate else 2 - label
        samples.append(make_sample(i, label, side=side, foot=side, gk=gk))
    rep = gk_baseline(samples)
    assert abs(rep.subgroups["side_right"].accuracy - 0.6) < 0.03
    assert abs(rep.subgroups["side_left"].accuracy - 0.4) < 0.03


def test_subgroup_report_via_model():
    cfg = TrainConfig(branch_width=4, state_size=2, n_layers=1, conv_width=3,
                      meta_dim=3, fusion_hidden=6)
    bundle = build_model(6, 3, cfg, np.random.default_rng(1))
    _, samples = generate_synthetic(60, embedding_dim=6, n_r=3, n_k=2, seed=5)
    groups = evaluate(bundle, samples)[1].subgroups
    present = [g for g in groups.values() if g is not None]
    assert sum(g.count for g in present if g is not None) == 2 * 60


# ----------------------------------------------------------- aggregation


def test_pool_confusions_sums_counts():
    a = confusion_from_labels([0, 1], [0, 1], 2)
    b = confusion_from_labels([0, 1], [1, 1], 2)
    pooled = pool_confusions([a, b])
    assert pooled.counts.tolist() == [[1, 1], [0, 2]]
    with pytest.raises(ValueError):
        pool_confusions([])


def test_mean_report_averages_metrics():
    r1 = metrics_from_confusion(confusion_from_labels([0, 1], [0, 1], 2))
    r2 = metrics_from_confusion(confusion_from_labels([0, 1], [1, 0], 2))
    r1.subgroups = {k: None for k in SUBGROUP_KEYS}
    r2.subgroups = {k: None for k in SUBGROUP_KEYS}
    mean = mean_report([r1, r2])
    assert mean.accuracy == 0.5
    assert mean.n_samples == 4
    assert mean.subgroups["side_left"] is None


# ------------------------------------------------------------ rendering


def test_metrics_table_layout():
    rep = metrics_from_confusion(confusion_from_labels([0, 1], [0, 1], 2))
    text = render_metrics_table([metric_row("fold 0", rep),
                                 metric_row("mean", rep)])
    lines = text.splitlines()
    assert len(lines) == 3
    assert "acc" in lines[0] and "f1" in lines[0]
    assert lines[1].startswith("fold 0") and "100.00" in lines[1]
    assert text == render_metrics_table([metric_row("fold 0", rep),
                                         metric_row("mean", rep)])


def test_subgroup_table_marks_absent():
    samples = [make_sample(i, 0, side=0, foot=1, gk=0) for i in range(3)]
    rep = gk_baseline(samples)
    text = render_subgroup_table(rep.subgroups)
    assert "side left" in text and "absent" in text
    assert "foot left" in text


def test_confusion_text_contains_counts_and_percentages():
    cm = confusion_from_labels([0] * 294 + [1] * 103 + [2] * 225, [0] * 622, 3)
    text = render_confusion_text(cm, ["left", "center", "right"])
    assert "294" in text and "100.0%" in text
    assert text == render_confusion_text(cm, ["left", "center", "right"])


def test_confusion_svg_is_well_formed():
    cm = confusion_from_labels([0, 0, 1, 2, 2, 2], [0, 1, 1, 2, 0, 2], 3)
    svg = confusion_svg(cm, ["left", "center", "right"])
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    rects = root.findall("s:rect", ns)
    assert len(rects) == 1 + 9  # background + one per cell
    texts = [t.text for t in root.findall("s:text", ns)]
    assert "2" in texts and "66.7%" in texts
    assert svg == confusion_svg(cm, ["left", "center", "right"])


def test_kv_round_trip_preserves_floats():
    pairs = [("mean.accuracy", 0.1 + 0.2), ("folds", 10), ("flag", True)]
    text = render_kv(pairs)
    parsed = parse_kv(text)
    assert float(parsed["mean.accuracy"]) == 0.1 + 0.2
    assert parsed["folds"] == "10"
    assert parsed["flag"] == "true"


def test_kv_parse_errors():
    with pytest.raises(DataError):
        parse_kv("just a line\n")
    with pytest.raises(DataError):
        parse_kv("a=1\na=2\n")


def test_crossval_kv_structure():
    rep = metrics_from_confusion(confusion_from_labels([0, 1], [0, 1], 2))
    rep.subgroups = {k: None for k in SUBGROUP_KEYS}
    cm = confusion_from_labels([0, 1], [0, 1], 2)
    pairs = build_crossval_kv(2, ["left", "right"], [rep], rep, cm,
                              gk_report=None)
    parsed = parse_kv(render_kv(pairs))
    assert parsed["n_classes"] == "2"
    assert parsed["fold.0.accuracy"] == "1.0"
    assert parsed["mean.macro_f1"] == "1.0"
    assert parsed["confusion.left.left"] == "1"
    assert "gk.accuracy" not in parsed
