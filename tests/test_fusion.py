"""Tests for the metadata branch, fusion head, and the loss."""

import numpy as np
import pytest

from kickdir.fusion import (
    LossConfig,
    batch_norm_forward,
    fuse_and_classify,
    fusion_backward,
    fusion_param_arrays,
    init_fusion,
    loss_backward,
    meta_branch_backward,
    meta_branch_forward,
    unit_loss_config,
    weighted_smoothed_ce,
)
from kickdir.gradcheck import max_rel_error, numerical_grad
from kickdir.numerics import relu, softmax


def test_meta_branch_zero_weights():
    rng = np.random.default_rng(0)
    params = init_fusion(branch_width=4, n_classes=3, rng=rng, meta_dim=3)
    params.w_meta[:] = 0.0
    params.b_meta[:] = [-1.0, 0.5, 2.0]
    out, _ = meta_branch_forward(np.array([[0.0, 1.0]]), params)
    assert np.array_equal(out, [[0.0, 0.5, 2.0]])


def test_meta_branch_separates_corners():
    rng = np.random.default_rng(1)
    params = init_fusion(branch_width=4, n_classes=3, rng=rng, meta_dim=4)
    a, _ = meta_branch_forward(np.array([[0.0, 0.0]]), params)
    b, _ = meta_branch_forward(np.array([[1.0, 1.0]]), params)
    assert not np.allclose(a, b)


def test_meta_branch_matches_oracle():
    rng = np.random.default_rng(2)
    params = init_fusion(branch_width=4, n_classes=3, rng=rng, meta_dim=5)
    gamma = rng.random(size=(6, 2))
    out, _ = meta_branch_forward(gamma, params)
    oracle = relu(gamma @ params.w_meta.T + params.b_meta)
    assert np.array_equal(out, oracle)


def test_batch_norm_degenerate_batch_is_beta():
    gamma = np.array([2.0, 3.0])
    beta = np.array([-1.0, 4.0])
    rm, rv = np.zeros(2), np.ones(2)
    x = np.tile([[5.0, -2.0]], (4, 1))
    y, _ = batch_norm_forward(x, gamma, beta, rm, rv, "train")
    assert np.array_equal(y, np.tile(beta, (4, 1)))


def test_batch_norm_normalizes_batch():
    rng = np.random.default_rng(3)
    x = rng.normal(loc=3.0, scale=2.0, size=(64, 5))
    y, _ = batch_norm_forward(x, np.ones(5), np.zeros(5),
                              np.zeros(5), np.ones(5), "train")
    assert np.allclose(y.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(y.var(axis=0), 1.0, atol=1e-4)


def test_batch_norm_running_stats_update():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(8, 3))
    rm, rv = np.zeros(3), np.ones(3)
    batch_norm_forward(x, np.ones(3), np.zeros(3), rm, rv, "train")
    assert np.allclose(rm, 0.1 * x.mean(axis=0))
    assert np.allclose(rv, 0.9 + 0.1 * x.var(axis=0, ddof=1))


def test_batch_norm_rejects_single_sample_train():
    with pytest.raises(ValueError):
        batch_norm_forward(np.ones((1, 3)), np.ones(3), np.zeros(3),
                           np.zeros(3), np.ones(3), "train")


def make_head(rng, branch_width=4, meta_dim=3, hidden=6, n_classes=3,
              dropout=0.3):
    return init_fusion(branch_width=branch_width, n_classes=n_classes,
                       rng=rng, meta_dim=meta_dim, hidden=hidden,
                       dropout=dropout)


def make_inputs(rng, batch=5, branch_width=4):
    t_run = rng.normal(size=(batch, branch_width))
    t_kick = rng.normal(size=(batch, branch_width))
    gamma = rng.integers(0, 2, size=(batch, 2)).astype(np.float64)
    return t_run, t_kick, gamma


def embed_meta(gamma, head):
    return meta_branch_forward(gamma, head)[0]


def test_eval_mode_ignores_dropout():
    rng = np.random.default_rng(5)
    head = make_head(rng, dropout=0.5)
    t_run, t_kick, gamma = make_inputs(rng)
    t_meta = embed_meta(gamma, head)
    y1, _ = fuse_and_classify(t_run, t_kick, t_meta, head, mode="eval")
    head.dropout = 0.0
    y2, _ = fuse_and_classify(t_run, t_kick, t_meta, head, mode="eval")
    assert np.array_equal(y1, y2)


def test_eval_mode_is_deterministic():
    rng = np.random.default_rng(6)
    head = make_head(rng)
    t_run, t_kick, gamma = make_inputs(rng)
    t_meta = embed_meta(gamma, head)
    y1, _ = fuse_and_classify(t_run, t_kick, t_meta, head, mode="eval")
    y2, _ = fuse_and_classify(t_run, t_kick, t_meta, head, mode="eval")
    assert np.array_equal(y1, y2)


def test_train_mode_requires_rng_and_batch():
    rng = np.random.default_rng(7)
    head = make_head(rng)
    t_run, t_kick, gamma = make_inputs(rng)
    t_meta = embed_meta(gamma, head)
    with pytest.raises(ValueError):
        fuse_and_classify(t_run, t_kick, t_meta, head, mode="train")
    with pytest.raises(ValueError):
        fuse_and_classify(t_run[:1], t_kick[:1], t_meta[:1], head,
                          mode="train", rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        fuse_and_classify(t_run, t_kick, t_meta, head, mode="predict")


def test_fusion_gradients():
    rng = np.random.default_rng(8)
    head = make_head(rng)
    t_run, t_kick, gamma = make_inputs(rng)
    r = rng.normal(size=(5, 3))

    def loss(tr=None, tk=None):
        t_meta, _ = meta_branch_forward(gamma, head)
        logits, _ = fuse_and_classify(
            t_run if tr is None else tr, t_kick if tk is None else tk,
            t_meta, head, mode="train", rng=np.random.default_rng(999))
        return float(np.sum(logits * r))

    t_meta, meta_cache = meta_branch_forward(gamma, head)
    _, cache = fuse_and_classify(t_run, t_kick, t_meta, head, mode="train",
                                 rng=np.random.default_rng(999))
    grads = {n: np.full_like(a, np.nan) for n, a in fusion_param_arrays(head)}
    dt_run, dt_kick, dt_meta = fusion_backward(cache, r, grads)
    meta_branch_backward(meta_cache, dt_meta, grads)

    assert max_rel_error(dt_run, numerical_grad(lambda v: loss(tr=v), t_run,
                                                eps=1e-5)) < 1e-4
    assert max_rel_error(dt_kick, numerical_grad(lambda v: loss(tk=v), t_kick,
                                                 eps=1e-5)) < 1e-4
    names = dict(fusion_param_arrays(head))
    for name, arr in names.items():
        num = numerical_grad(lambda _: loss(), arr, eps=1e-5)
        err = max_rel_error(grads[name], num)
        assert err < 1e-4, f"{name}: rel err {err}"


def test_loss_uniform_logits():
    cfg = unit_loss_config(3)
    loss = weighted_smoothed_ce(np.zeros((4, 3)), np.array([0, 1, 2, 0]), cfg)
    assert abs(loss - np.log(3.0)) < 1e-12


def test_loss_weight_scale_invariance():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    base = weighted_smoothed_ce(logits, labels, unit_loss_config(3))
    doubled = weighted_smoothed_ce(
        logits, labels, LossConfig(class_weights=np.full(3, 2.0),
                                   label_smoothing=0.0))
    assert abs(base - doubled) < 1e-15


def test_loss_smoothed_hand_value():
    logits = np.array([[np.log(3.0), 0.0]])  # p = [0.75, 0.25]
    cfg = LossConfig(class_weights=np.ones(2), label_smoothing=0.01)
    loss = weighted_smoothed_ce(logits, np.array([0]), cfg)
    expected = -(0.995 * np.log(0.75) + 0.005 * np.log(0.25))
    assert abs(loss - expected) < 1e-12


def test_loss_reduction_identity_is_bitwise():
    # zero smoothing and unit weights must reproduce the plain mean of
    # -log p at the label, bit for bit
    rng = np.random.default_rng(10)
    logits = rng.normal(size=(7, 3)) * 3.0
    labels = rng.integers(0, 3, size=7)
    cfg = unit_loss_config(3)
    loss = weighted_smoothed_ce(logits, labels, cfg)
    from kickdir.numerics import log_softmax

    logp = log_softmax(logits, axis=-1)
    plain = float(np.sum(-logp[np.arange(7), labels]) / 7.0)
    assert loss == plain


def test_loss_shift_invariance():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)
    cfg = LossConfig(class_weights=np.array([1.0, 2.0, 0.5]),
                     label_smoothing=0.01)
    base = weighted_smoothed_ce(logits, labels, cfg)
    shifted = weighted_smoothed_ce(logits + 37.5, labels, cfg)
    assert abs(base - shifted) < 1e-12
    p1 = softmax(logits, axis=-1)
    p2 = softmax(logits + 37.5, axis=-1)
    assert np.max(np.abs(p1 - p2)) < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(12)
    p = softmax(rng.normal(size=(20, 3)) * 10.0, axis=-1)
    assert np.max(np.abs(p.sum(axis=-1) - 1.0)) < 1e-12


def test_loss_rejects_bad_labels():
    cfg = unit_loss_config(3)
    with pytest.raises(ValueError):
        weighted_smoothed_ce(np.zeros((2, 3)), np.array([0, 3]), cfg)
    with pytest.raises(ValueError):
        weighted_smoothed_ce(np.zeros((2, 3)), np.array([-1, 0]), cfg)
    with pytest.raises(ValueError):
        weighted_smoothed_ce(np.full((2, 3), np.inf), np.array([0, 1]), cfg)


def test_loss_backward_zero_at_target():
    # logits chosen so softmax reproduces the smoothed target
    s = 0.2
    q = np.array([[1.0 - s / 2.0, s / 2.0]])
    cfg = LossConfig(class_weights=np.ones(2), label_smoothing=s)
    d = loss_backward(np.log(q), np.array([0]), cfg)
    assert np.max(np.abs(d)) < 1e-14


def test_loss_backward_uniform_hand_value():
    cfg = unit_loss_config(3)
    d = loss_backward(np.zeros((4, 3)), np.array([0, 1, 2, 0]), cfg)
    onehot = np.eye(3)[[0, 1, 2, 0]]
    assert np.allclose(d, (1.0 / 3.0 - onehot) / 4.0, atol=1e-15)


def test_loss_backward_matches_finite_differences():
    rng = np.random.default_rng(13)
    logits = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    cfg = LossConfig(class_weights=np.array([0.7, 1.9, 1.2]),
                     label_smoothing=0.01)
    d = loss_backward(logits, labels, cfg)
    num = numerical_grad(lambda v: weighted_smoothed_ce(v, labels, cfg),
                         logits, eps=1e-6)
    assert max_rel_error(d, num) < 1e-6


def test_class_weight_monotonicity():
    rng = np.random.default_rng(14)
    logits = rng.normal(size=(2, 3))
    labels = np.array([0, 1])
    norms = []
    for w0 in (0.5, 1.0, 2.0, 4.0):
        cfg = LossConfig(class_weights=np.array([w0, 1.0, 1.0]),
                         label_smoothing=0.0)
        d = loss_backward(logits, labels, cfg)
        norms.append(np.linalg.norm(d[0]))
    assert all(a < b for a, b in zip(norms, norms[1:]))


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(class_weights=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        LossConfig(class_weights=np.ones(2), label_smoothing=1.0)
    with pytest.raises(ValueError):
        LossConfig(class_weights=np.ones(2), normalization="mean")
