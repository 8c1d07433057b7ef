"""Tests for layer norm, attention pooling, and the branch encoder."""

import numpy as np
import pytest

from kickdir.encoder import (
    attn_pool,
    attn_pool_backward,
    attn_pool_forward,
    branch_param_arrays,
    encode_branch_backward,
    encode_branch_forward,
    init_branch_encoder,
    layer_norm_backward,
    layer_norm_forward,
)
from kickdir.gradcheck import max_rel_error, numerical_grad


def nan_grads(arrays):
    """A gradient mapping for a backward to fill; NaN shows a missed element."""
    return {name: np.full_like(arr, np.nan) for name, arr in arrays}


def test_layer_norm_reference():
    x = np.array([[1.0, 2.0, 3.0]])
    y, _ = layer_norm_forward(x, np.ones(3), np.zeros(3))
    inv = 1.0 / np.sqrt(2.0 / 3.0 + 1e-5)
    assert np.allclose(y, np.array([[-inv, 0.0, inv]]), atol=1e-12)


def test_layer_norm_scale_shift():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 5))
    gamma = rng.normal(size=5)
    beta = rng.normal(size=5)
    y, _ = layer_norm_forward(x, gamma, beta)
    y0, _ = layer_norm_forward(x, np.ones(5), np.zeros(5))
    assert np.allclose(y, gamma * y0 + beta)


def test_layer_norm_backward():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 4, 5))
    gamma = rng.normal(size=5)
    beta = rng.normal(size=5)
    r = rng.normal(size=(2, 4, 5))

    def loss(xv, g=gamma, b=beta):
        return float(np.sum(layer_norm_forward(xv, g, b)[0] * r))

    _, cache = layer_norm_forward(x, gamma, beta)
    dgamma, dbeta = np.full((2, 5), np.nan)
    dx = layer_norm_backward(cache, r, dgamma, dbeta)
    assert max_rel_error(dx, numerical_grad(loss, x)) < 1e-5
    assert max_rel_error(
        dgamma, numerical_grad(lambda _: loss(x), gamma)) < 1e-5
    assert max_rel_error(dbeta, numerical_grad(lambda _: loss(x), beta)) < 1e-5


def test_attn_pool_zero_weights_is_mean():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(3, 7, 4))
    pooled, _ = attn_pool_forward(h, np.zeros(4))
    assert np.allclose(pooled, h.mean(axis=1), atol=1e-12)


def test_attn_pool_reference():
    # T=2 one-hot rows: scores are (w0, w1) and the pool interpolates
    h = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    w = np.array([1.0, 0.0])
    pooled, _ = attn_pool_forward(h, w)
    a0 = np.exp(1.0) / (np.exp(1.0) + 1.0)
    assert np.allclose(pooled, [[a0, 1.0 - a0]], atol=1e-12)


def test_attn_pool_singleton():
    h = np.array([[3.0, -1.0, 2.0]])
    pooled, alpha = attn_pool(h, np.array([0.4, 0.0, -2.0]))
    assert np.array_equal(alpha, [1.0])
    assert np.array_equal(pooled, h[0])


def test_attn_pool_two_score_closed_form():
    # scores e = (0, ln 3) -> alpha = (0.25, 0.75)
    h = np.array([[0.0, 5.0], [np.log(3.0), -2.0]])
    w = np.array([1.0, 0.0])
    pooled, alpha = attn_pool(h, w)
    assert np.allclose(alpha, [0.25, 0.75], atol=1e-12)
    assert np.allclose(pooled, 0.25 * h[0] + 0.75 * h[1], atol=1e-12)


def test_attn_pool_rejects_empty():
    with pytest.raises(ValueError):
        attn_pool(np.zeros((0, 3)), np.zeros(3))


def test_attn_pool_score_shift_invariance():
    rng = np.random.default_rng(8)
    h = rng.normal(size=(5, 4))
    w = rng.normal(size=4)
    _, alpha = attn_pool(h, w)
    # shifting every score by a constant leaves the weights unchanged
    _, alpha_shift = attn_pool(h + 11.0 * w / np.dot(w, w), w)
    assert np.max(np.abs(alpha - alpha_shift)) < 1e-12


def test_attn_pool_weights_sum_to_one():
    rng = np.random.default_rng(9)
    h = rng.normal(size=(2, 11, 3))
    w = rng.normal(size=3)
    _, (_, _, alpha) = attn_pool_forward(h, w)
    assert np.allclose(alpha.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(alpha > 0)


def test_attn_pool_backward():
    rng = np.random.default_rng(11)
    h = rng.normal(size=(2, 6, 4))
    w = rng.normal(size=4)
    r = rng.normal(size=(2, 4))

    def loss(hv, wv):
        return float(np.sum(attn_pool_forward(hv, wv)[0] * r))

    _, cache = attn_pool_forward(h, w)
    dw = np.full(4, np.nan)
    dh = attn_pool_backward(cache, r, dw)
    assert max_rel_error(dh, numerical_grad(lambda v: loss(v, w), h)) < 1e-5
    assert max_rel_error(dw, numerical_grad(lambda v: loss(h, v), w)) < 1e-5


def test_encoder_shapes():
    rng = np.random.default_rng(13)
    enc = init_branch_encoder(in_dim=6, width=8, state_size=4, n_layers=2, rng=rng)
    x = rng.normal(size=(3, 10, 6))
    pooled, _ = encode_branch_forward(x, enc)
    assert pooled.shape == (3, 8)


def test_encoder_rejects_wrong_width():
    rng = np.random.default_rng(13)
    enc = init_branch_encoder(in_dim=6, width=8, state_size=4, n_layers=1, rng=rng)
    with pytest.raises(ValueError):
        encode_branch_forward(rng.normal(size=(2, 5, 7)), enc)
    with pytest.raises(ValueError):
        encode_branch_forward(rng.normal(size=(5, 6)), enc)


def test_encoder_backward():
    rng = np.random.default_rng(19)
    enc = init_branch_encoder(in_dim=4, width=5, state_size=2, n_layers=2, rng=rng)
    x = rng.normal(size=(2, 6, 4))
    r = rng.normal(size=(2, 5))

    def loss(xv):
        return float(np.sum(encode_branch_forward(xv, enc)[0] * r))

    _, cache = encode_branch_forward(x, enc)
    grads = nan_grads(branch_param_arrays(enc))
    dx = encode_branch_backward(cache, r, grads)
    assert max_rel_error(dx, numerical_grad(loss, x, eps=1e-4)) < 1e-4

    names = dict(branch_param_arrays(enc))
    for name, arr in names.items():
        num = numerical_grad(lambda _: loss(x), arr, eps=1e-4)
        err = max_rel_error(grads[name], num)
        assert err < 1e-4, f"{name}: rel err {err}"


def test_encoder_constant_sequence_degenerate():
    # gate open, scan driven purely by the feedthrough, block output zeroed:
    # the branch vector is exactly the projected clip vector
    rng = np.random.default_rng(29)
    enc = init_branch_encoder(in_dim=4, width=5, state_size=2, n_layers=1,
                              rng=rng, use_conv=False)
    blk = enc.layers[0].block
    blk.w_gate[:] = 0.0
    blk.b_gate[:] = 50.0  # sigmoid rounds to exactly 1.0
    blk.ssm.w_c[:] = 0.0
    blk.ssm.b_c[:] = 0.0
    blk.ssm.skip_d[:] = 1.0
    blk.w_out[:] = 0.0
    blk.b_out[:] = 0.0
    clip = rng.normal(size=4)
    x = np.tile(clip, (1, 6, 1))
    pooled, _ = encode_branch_forward(x, enc)
    assert np.allclose(pooled[0], enc.w_proj @ clip + enc.b_proj, atol=1e-12)


def test_encoder_sees_last_clip():
    rng = np.random.default_rng(31)
    enc = init_branch_encoder(in_dim=4, width=5, state_size=2, n_layers=1, rng=rng)
    x = rng.normal(size=(1, 8, 4))
    xp = x.copy()
    xp[0, -1] += 1.0
    ya, _ = encode_branch_forward(x, enc)
    yb, _ = encode_branch_forward(xp, enc)
    assert not np.allclose(ya, yb)


def test_encoder_backward_zero_cotangent():
    rng = np.random.default_rng(37)
    enc = init_branch_encoder(in_dim=4, width=5, state_size=2, n_layers=1, rng=rng)
    x = rng.normal(size=(2, 6, 4))
    _, cache = encode_branch_forward(x, enc)
    grads = nan_grads(branch_param_arrays(enc))
    dx = encode_branch_backward(cache, np.zeros((2, 5)), grads)
    assert np.all(dx == 0.0)
    assert all(np.all(g == 0.0) for g in grads.values())


def test_encoder_backward_single_step():
    rng = np.random.default_rng(41)
    enc = init_branch_encoder(in_dim=3, width=4, state_size=2, n_layers=1, rng=rng)
    x = rng.normal(size=(2, 1, 3))
    r = rng.normal(size=(2, 4))

    def loss(xv):
        return float(np.sum(encode_branch_forward(xv, enc)[0] * r))

    _, cache = encode_branch_forward(x, enc)
    dx = encode_branch_backward(cache, r, nan_grads(branch_param_arrays(enc)))
    assert max_rel_error(dx, numerical_grad(loss, x, eps=1e-4)) < 1e-4


def test_encoder_requires_layers():
    with pytest.raises(ValueError):
        init_branch_encoder(in_dim=4, width=5, state_size=2, n_layers=0,
                            rng=np.random.default_rng(0))


def test_encoders_are_independent():
    # two branches initialized from one stream share no arrays and disagree
    rng = np.random.default_rng(23)
    enc_a = init_branch_encoder(in_dim=4, width=5, state_size=2, n_layers=1, rng=rng)
    enc_b = init_branch_encoder(in_dim=4, width=5, state_size=2, n_layers=1, rng=rng)
    arrays_a = dict(branch_param_arrays(enc_a))
    arrays_b = dict(branch_param_arrays(enc_b))
    for name in arrays_a:
        assert arrays_a[name] is not arrays_b[name]
    x = rng.normal(size=(2, 6, 4))
    ya, _ = encode_branch_forward(x, enc_a)
    yb, _ = encode_branch_forward(x, enc_b)
    assert not np.allclose(ya, yb)
