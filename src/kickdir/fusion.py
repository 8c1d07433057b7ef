"""Metadata branch, fusion classifier head, and the training objective.

The head concatenates the two pooled branch vectors with the metadata
embedding, then applies affine -> batch norm -> relu -> dropout -> affine.
The loss is class-weighted cross entropy against label-smoothed targets.
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import log_softmax, relu, require_finite, softmax

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


@dataclass
class FusionParams:
    w_meta: np.ndarray  # (M, 2)
    b_meta: np.ndarray  # (M,)
    w_h: np.ndarray     # (F, 2*D' + M)
    b_h: np.ndarray     # (F,)
    bn_gamma: np.ndarray  # (F,)
    bn_beta: np.ndarray   # (F,)
    bn_running_mean: np.ndarray  # (F,) buffer, not learnable
    bn_running_var: np.ndarray   # (F,) buffer, not learnable
    w_out: np.ndarray   # (n_classes, F)
    b_out: np.ndarray   # (n_classes,)
    dropout: float = 0.3
    bn_eps: float = BN_EPS
    bn_momentum: float = BN_MOMENTUM

    @property
    def n_classes(self):
        return self.w_out.shape[0]

    @property
    def meta_dim(self):
        return self.w_meta.shape[0]


def init_fusion(branch_width, n_classes, rng, meta_dim=16, hidden=128,
                dropout=0.3, bn_eps=BN_EPS, bn_momentum=BN_MOMENTUM,
                with_kick=True, with_meta=True):
    """with_kick / with_meta control which segments the hidden affine map
    expects, so a head can be built narrower when a branch is removed
    outright instead of zero-masked."""
    if not 0.0 <= dropout < 1.0:
        raise ValueError("dropout must be in [0, 1)")
    concat = branch_width * (2 if with_kick else 1) + \
        (meta_dim if with_meta else 0)
    s_meta = 1.0 / np.sqrt(2.0)
    s_h = 1.0 / np.sqrt(concat)
    s_out = 1.0 / np.sqrt(hidden)
    return FusionParams(
        w_meta=rng.uniform(-s_meta, s_meta, size=(meta_dim, 2)),
        b_meta=np.zeros(meta_dim),
        w_h=rng.uniform(-s_h, s_h, size=(hidden, concat)),
        b_h=np.zeros(hidden),
        bn_gamma=np.ones(hidden),
        bn_beta=np.zeros(hidden),
        bn_running_mean=np.zeros(hidden),
        bn_running_var=np.ones(hidden),
        w_out=rng.uniform(-s_out, s_out, size=(n_classes, hidden)),
        b_out=np.zeros(n_classes),
        dropout=dropout,
        bn_eps=bn_eps,
        bn_momentum=bn_momentum,
    )


def meta_branch_forward(gamma, params):
    """Embed the two metadata bits (given as floats): relu of an affine map.

    gamma: float64 (B, 2) -> (t_meta (B, M), cache).
    """
    pre = gamma @ params.w_meta.T + params.b_meta
    return relu(pre), (gamma, pre)


def meta_branch_backward(cache, dout, grads, prefix=""):
    """Overwrites grads[prefix + "w_meta"] and grads[prefix + "b_meta"].
    Metadata is data, not a parameter, so no input gradient is formed."""
    gamma, pre = cache
    dpre = dout * (pre > 0)
    np.matmul(dpre.T, gamma, out=grads[prefix + "w_meta"])
    np.sum(dpre, axis=0, out=grads[prefix + "b_meta"])


def batch_norm_forward(x, gamma, beta, running_mean, running_var, mode,
                       momentum=BN_MOMENTUM, eps=BN_EPS):
    """Per-feature normalization over the batch axis.

    Train mode normalizes with biased batch statistics and folds them into
    the running buffers (variance stored unbiased); a single-sample batch is
    rejected because the unbiased estimate is undefined. Eval mode uses the
    running buffers only, never mutates them and returns no cache.
    """
    if mode == "train":
        m = x.shape[0]
        if m < 2:
            raise ValueError(
                "batch_norm_forward: train mode needs a batch of at least 2 "
                "(unbiased variance is undefined for a single sample)")
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x - mu) * inv
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * var * m / (m - 1)
        cache = (xhat, inv, gamma)
    else:
        inv = 1.0 / np.sqrt(running_var + eps)
        xhat = (x - running_mean) * inv
        cache = None
    return gamma * xhat + beta, cache


def batch_norm_backward(cache, dy, dgamma, dbeta):
    """Backward of a train-mode batch_norm_forward: returns dx and
    overwrites dgamma and dbeta."""
    xhat, inv, gamma = cache
    np.sum(dy * xhat, axis=0, out=dgamma)
    np.sum(dy, axis=0, out=dbeta)
    dxhat = dy * gamma
    m = dy.shape[0]
    return inv / m * (m * dxhat - dxhat.sum(axis=0)
                      - xhat * np.sum(dxhat * xhat, axis=0))


@dataclass
class FusionCache:
    z: np.ndarray
    bn_cache: tuple
    post_relu: np.ndarray
    drop_mask: np.ndarray | None
    dropped: np.ndarray
    params: FusionParams
    split: tuple


def fuse_and_classify(t_run, t_kick, t_meta, params, mode="train", rng=None):
    """Concatenate the branch vectors and classify.

    In train mode batch norm uses batch statistics (and updates the running
    buffers) and dropout needs an rng; eval mode is deterministic.
    t_kick / t_meta may be None when the head was built without that
    segment; the backward pass then returns None in their place.
    Returns (logits (B, n), cache); cache is None in eval mode.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"fuse_and_classify: unknown mode {mode!r}")
    segments = [t for t in (t_run, t_kick, t_meta) if t is not None]
    z = np.concatenate(segments, axis=1)
    pre = z @ params.w_h.T + params.b_h
    normed, bn_cache = batch_norm_forward(
        pre, params.bn_gamma, params.bn_beta,
        params.bn_running_mean, params.bn_running_var, mode,
        momentum=params.bn_momentum, eps=params.bn_eps)
    post = relu(normed)
    drop_mask = None
    dropped = post
    if mode == "train" and params.dropout > 0.0:
        if rng is None:
            raise ValueError("fuse_and_classify: train-mode dropout needs rng")
        keep = 1.0 - params.dropout
        drop_mask = (rng.random(post.shape) < keep) / keep
        dropped = post * drop_mask
    logits = dropped @ params.w_out.T + params.b_out
    if mode == "eval":
        return logits, None
    cache = FusionCache(z=z, bn_cache=bn_cache,
                        post_relu=post, drop_mask=drop_mask, dropped=dropped,
                        params=params,
                        split=(t_run.shape[1],
                               0 if t_kick is None else t_kick.shape[1],
                               0 if t_meta is None else t_meta.shape[1]))
    return logits, cache


def fusion_backward(cache, dlogits, grads, prefix=""):
    """Overwrites grads[prefix + name] for every name fusion_param_arrays
    yields except w_meta and b_meta, which meta_branch_backward writes, and
    returns (dt_run, dt_kick, dt_meta)."""
    params = cache.params
    np.matmul(dlogits.T, cache.dropped, out=grads[prefix + "w_out"])
    np.sum(dlogits, axis=0, out=grads[prefix + "b_out"])
    ddropped = dlogits @ params.w_out
    dpost = ddropped * cache.drop_mask if cache.drop_mask is not None else ddropped
    dnormed = dpost * (cache.post_relu > 0)
    dpre = batch_norm_backward(cache.bn_cache, dnormed,
                               grads[prefix + "bn_gamma"],
                               grads[prefix + "bn_beta"])
    dz = dpre @ params.w_h
    np.matmul(dpre.T, cache.z, out=grads[prefix + "w_h"])
    np.sum(dpre, axis=0, out=grads[prefix + "b_h"])
    d_run, d_kick, d_meta = cache.split
    dt_run = dz[:, :d_run]
    dt_kick = dz[:, d_run:d_run + d_kick] if d_kick else None
    dt_meta = dz[:, d_run + d_kick:] if d_meta else None
    return dt_run, dt_kick, dt_meta


def fusion_param_arrays(params, prefix=""):
    for name in ("w_meta", "b_meta", "w_h", "b_h", "bn_gamma", "bn_beta",
                 "w_out", "b_out"):
        yield prefix + name, getattr(params, name)


def fusion_state_arrays(params, prefix=""):
    """Non-learnable buffers that still belong in checkpoints."""
    yield prefix + "bn_running_mean", params.bn_running_mean
    yield prefix + "bn_running_var", params.bn_running_var


@dataclass
class LossConfig:
    """Class-weighted, label-smoothed cross entropy.

    normalization picks the denominator: "weight_sum" divides by the summed
    sample weights, "batch_size" divides by the raw count.
    """

    class_weights: np.ndarray
    label_smoothing: float = 0.01
    normalization: str = "weight_sum"

    def __post_init__(self):
        self.class_weights = np.asarray(self.class_weights, dtype=np.float64)
        if np.any(self.class_weights <= 0):
            raise ValueError("class weights must be positive")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        if self.normalization not in ("weight_sum", "batch_size"):
            raise ValueError(f"unknown normalization {self.normalization!r}")


def unit_loss_config(n_classes, label_smoothing=0.0):
    return LossConfig(class_weights=np.ones(n_classes),
                      label_smoothing=label_smoothing)


def _smoothed_targets(labels, n, s):
    q = np.full((labels.size, n), s / n)
    q[np.arange(labels.size), labels] += 1.0 - s
    return q


def _check_loss_inputs(logits, labels, cfg):
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    require_finite("loss", logits)
    n = logits.shape[1]
    if cfg.class_weights.shape != (n,):
        raise ValueError("class_weights length must match class count")
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError("labels must be a vector matching the batch")
    if np.any(labels < 0) or np.any(labels >= n):
        raise ValueError("label out of range")
    return logits, labels.astype(np.int64), n


def weighted_smoothed_ce(logits, labels, cfg):
    """Scalar loss: sum_i w_i * ce_i / Z.

    ce_i is the cross entropy of softmax(logits_i) against the smoothed
    target; terms with q = 0 are dropped before multiplying so that zero
    smoothing reproduces plain cross entropy exactly, not just closely.
    """
    logits, labels, n = _check_loss_inputs(logits, labels, cfg)
    logp = log_softmax(logits, axis=-1)
    q = _smoothed_targets(labels, n, cfg.label_smoothing)
    ce = -np.sum(np.where(q > 0, q * logp, 0.0), axis=-1)
    w = cfg.class_weights[labels]
    denom = w.sum() if cfg.normalization == "weight_sum" else float(labels.size)
    return float(np.sum(w * ce) / denom)


def loss_backward(logits, labels, cfg):
    """dlogits of weighted_smoothed_ce: w_i * (p_i - q_i) / Z."""
    logits, labels, n = _check_loss_inputs(logits, labels, cfg)
    p = softmax(logits, axis=-1)
    q = _smoothed_targets(labels, n, cfg.label_smoothing)
    w = cfg.class_weights[labels]
    denom = w.sum() if cfg.normalization == "weight_sum" else float(labels.size)
    return w[:, None] * (p - q) / denom
