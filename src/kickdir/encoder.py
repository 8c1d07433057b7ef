"""Temporal branch encoder: input projection, a pre-norm residual stack of
gated SSM blocks, and attention pooling down to a single vector per sequence.
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import softmax, weight_grad
from .ssm import (
    SsmLayerParams,
    init_ssm_layer,
    ssm_layer_backward,
    ssm_layer_forward,
    ssm_layer_param_arrays,
)

LN_EPS = 1e-5


def layer_norm_forward(x, gamma, beta, eps=LN_EPS):
    """Normalize over the last axis, then scale and shift."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def layer_norm_backward(cache, dy, dgamma, dbeta):
    """Returns dx and overwrites dgamma and dbeta."""
    xhat, inv, gamma = cache
    axes = tuple(range(dy.ndim - 1))
    np.sum(dy * xhat, axis=axes, out=dgamma)
    np.sum(dy, axis=axes, out=dbeta)
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2)


def attn_pool_forward(h, w):
    """Score each timestep by <w, h_t>, softmax over time, weighted sum.

    h: (B, T, D), w: (D,) -> (pooled (B, D), cache). A zero w gives uniform
    weights, so the pool starts out as a plain mean over time.
    """
    if h.shape[-2] < 1:
        raise ValueError("attn_pool: empty sequence")
    scores = h @ w
    alpha = softmax(scores, axis=-1)
    pooled = np.einsum("bt,btd->bd", alpha, h)
    return pooled, (h, w, alpha)


def attn_pool(h, w):
    """Public pooling entry point: returns (pooled, alphas).

    Accepts a single (T, D) sequence or a (B, T, D) batch.
    """
    h = np.asarray(h, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    squeeze = h.ndim == 2
    if squeeze:
        h = h[None]
    pooled, (_, _, alpha) = attn_pool_forward(h, w)
    return (pooled[0], alpha[0]) if squeeze else (pooled, alpha)


def attn_pool_backward(cache, dpooled, dw):
    """Returns dh and overwrites dw."""
    h, w, alpha = cache
    dh = alpha[..., None] * dpooled[:, None, :]
    dalpha = np.einsum("bd,btd->bt", dpooled, h)
    # softmax jacobian applied to dalpha
    dscores = alpha * (dalpha - np.sum(alpha * dalpha, axis=-1, keepdims=True))
    np.einsum("bt,btd->d", dscores, h, out=dw)
    dh += dscores[..., None] * w
    return dh


@dataclass
class EncoderLayer:
    ln_gamma: np.ndarray
    ln_beta: np.ndarray
    block: SsmLayerParams


@dataclass
class BranchEncoderParams:
    """One temporal branch: project to the working width, run the residual
    SSM stack, pool over time. Each branch owns an independent copy."""

    w_proj: np.ndarray  # (H, D_in)
    b_proj: np.ndarray  # (H,)
    layers: list[EncoderLayer] = field(default_factory=list)
    pool_w: np.ndarray = None  # (H,)

    @property
    def width(self):
        return self.w_proj.shape[0]


def init_branch_encoder(in_dim, width, state_size, n_layers, rng, expand=2,
                        conv_width=4, use_conv=True, delta_range=(0.001, 0.1)):
    if n_layers < 1:
        raise ValueError("branch encoder needs at least one layer")
    scale = 1.0 / np.sqrt(in_dim)
    layers = [
        EncoderLayer(
            ln_gamma=np.ones(width),
            ln_beta=np.zeros(width),
            block=init_ssm_layer(width, state_size, rng, expand=expand,
                                 conv_width=conv_width, use_conv=use_conv,
                                 delta_range=delta_range),
        )
        for _ in range(n_layers)
    ]
    return BranchEncoderParams(
        w_proj=rng.uniform(-scale, scale, size=(width, in_dim)),
        b_proj=np.zeros(width),
        layers=layers,
        pool_w=np.zeros(width),
    )


@dataclass
class BranchEncoderCache:
    x_in: np.ndarray
    layer_caches: list
    pool_cache: tuple
    params: BranchEncoderParams


def encode_branch_forward(x, params, need_cache=True):
    """x: (B, T, D_in) -> (pooled (B, H), cache).

    need_cache=False is the evaluation path: no intermediates are kept and
    the cache is None.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError("encode_branch_forward: expected (B, T, D) input")
    if x.shape[-1] != params.w_proj.shape[1]:
        raise ValueError(
            f"encode_branch_forward: expected {params.w_proj.shape[1]} features, "
            f"got {x.shape[-1]}")
    h = x @ params.w_proj.T + params.b_proj
    layer_caches = []
    for lay in params.layers:
        normed, ln_cache = layer_norm_forward(h, lay.ln_gamma, lay.ln_beta)
        out, blk_cache = ssm_layer_forward(normed, lay.block, need_cache)
        if need_cache:
            layer_caches.append((ln_cache, blk_cache))
        h = h + out
    pooled, pool_cache = attn_pool_forward(h, params.pool_w)
    if not need_cache:
        return pooled, None
    return pooled, BranchEncoderCache(x_in=x, layer_caches=layer_caches,
                                      pool_cache=pool_cache, params=params)


def encode_branch_backward(cache, dpooled, grads, prefix=""):
    """Overwrites grads[prefix + name] for every name branch_param_arrays
    yields and returns dx."""
    params = cache.params
    dh = attn_pool_backward(cache.pool_cache, dpooled, grads[prefix + "pool_w"])
    for i in range(len(params.layers) - 1, -1, -1):
        ln_cache, blk_cache = cache.layer_caches[i]
        layer = f"{prefix}layers.{i}."
        dnormed = ssm_layer_backward(blk_cache, dh, grads, layer)
        dh = dh + layer_norm_backward(ln_cache, dnormed,
                                      grads[layer + "ln_gamma"],
                                      grads[layer + "ln_beta"])
    weight_grad(dh, cache.x_in, grads[prefix + "proj_w"])
    np.sum(dh, axis=(0, 1), out=grads[prefix + "proj_b"])
    return dh @ params.w_proj


def branch_param_arrays(params, prefix=""):
    """Yield (name, array) for every learnable tensor in the branch."""
    yield prefix + "proj_w", params.w_proj
    yield prefix + "proj_b", params.b_proj
    for i, lay in enumerate(params.layers):
        yield f"{prefix}layers.{i}.ln_gamma", lay.ln_gamma
        yield f"{prefix}layers.{i}.ln_beta", lay.ln_beta
        yield from ssm_layer_param_arrays(lay.block, prefix=f"{prefix}layers.{i}.")
    yield prefix + "pool_w", params.pool_w
