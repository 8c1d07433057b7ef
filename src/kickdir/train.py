"""Optimization loop: AdamW with decoupled decay, cosine warmup, global
gradient clipping, early stopping on validation accuracy, checkpointing.

The clip and AdamW work on FlatBuffers: the parameters, the gradients and
both Adam moments are one vector each, of one layout. AdamW splits by
block: a vector of two or more ADAMW_BLOCKs, such as the parameters at
d=128, has the second half of its blocks updated on the model's worker
thread while the caller updates the first half. The update is
elementwise, so every element gets the bytes a serial loop gives.
"""

import json
import os
import zipfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .augment import augment
from .config import TrainConfig
from .data import compute_class_weights
from .errors import ConfigError, DataError, TrainingDivergedError
from . import model
from .fusion import LossConfig, loss_backward, weighted_smoothed_ce
from .model import (
    FlatBuffer,
    batch_inputs,
    build_model,
    model_backward,
    model_forward,
    predict_logits,
)

# Elements per AdamW block: the largest temporary an update makes is one
# block of float64 (256 KB) in the optimizer's scratch rows.
ADAMW_BLOCK = 2 ** 15


def clip_gradients(grads, max_norm=1.0, step=None):
    """Scale the gradient FlatBuffer by max_norm/g when its global L2 norm g
    exceeds max_norm, in place, and return g. A non-finite sum of squares
    raises TrainingDivergedError naming the tensor that holds the first
    non-finite element or, when every element is finite and only the sum
    overflowed, the largest one."""
    vec = grads.vector
    # einsum, not np.dot: BLAS splits a long dot product across its threads,
    # so the last bits of the sum would depend on the thread count.
    total = float(np.einsum("i,i->", vec, vec))
    if not np.isfinite(total):
        bad = np.argmax(np.where(np.isfinite(vec), np.abs(vec), np.inf))
        raise TrainingDivergedError(
            f"non-finite gradient in {grads.name_at(int(bad))}", step=step)
    norm = float(np.sqrt(total))
    if norm > max_norm:
        vec *= max_norm / norm
    return norm


@dataclass
class OptimizerState:
    """Adam moments m and v, FlatBuffers in the parameters' layout. scratch
    holds the block-sized rows adamw_step works in, two per thread; it is
    not saved."""

    m: FlatBuffer
    v: FlatBuffer
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    scratch: np.ndarray = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "scratch": None}


def init_optimizer(params, beta1=0.9, beta2=0.999, eps=1e-8):
    """Zero moments for the FlatBuffer params."""
    return OptimizerState(m=params.like(), v=params.like(), t=0, beta1=beta1,
                          beta2=beta2, eps=eps)


def adamw_step(params, grads, state, lr_t, wd=5e-2):
    """One decoupled-weight-decay Adam update of the FlatBuffer params, in
    place, from the FlatBuffer grads of the same layout.

    theta <- theta - lr_t * (m_hat / (sqrt(v_hat) + eps) + wd * theta)

    The vector is updated in blocks of ADAMW_BLOCK elements, with the same
    arithmetic per element as the formula above. A vector of two or more
    blocks has the second half of its blocks updated on the worker thread
    when the process may use two CPUs.
    """
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    coef = (b1, b2, state.eps, 1.0 - b1 ** state.t, 1.0 - b2 ** state.t,
            lr_t, wd)
    flat = (params.vector, grads.vector, state.m.vector, state.v.vector)
    size = params.vector.size
    blocks = -(-size // ADAMW_BLOCK)
    split = blocks > 1 and model.usable_cpus() > 1
    rows = 4 if split else 2
    if state.scratch is None or len(state.scratch) < rows:
        state.scratch = np.empty((rows, ADAMW_BLOCK))
    if split:
        mid = (blocks - blocks // 2) * ADAMW_BLOCK
        model.WORKER.run(
            partial(_adamw_blocks, flat, 0, mid, state.scratch[:2], coef),
            partial(_adamw_blocks, flat, mid, size, state.scratch[2:], coef))
    else:
        _adamw_blocks(flat, 0, size, state.scratch[:2], coef)


def _adamw_blocks(flat, lo, hi, scratch, coef):
    """The AdamW update of elements lo:hi of the flat (theta, g, m, v), one
    ADAMW_BLOCK at a time through the two scratch rows."""
    b1, b2, eps, bc1, bc2, lr_t, wd = coef
    theta, g, m, v = flat
    for start in range(lo, hi, ADAMW_BLOCK):
        stop = min(start + ADAMW_BLOCK, hi)
        th, gb, mb, vb = theta[start:stop], g[start:stop], m[start:stop], \
            v[start:stop]
        s, u = scratch[:, :th.size]
        mb *= b1
        mb += np.multiply(gb, 1.0 - b1, out=s)
        vb *= b2
        np.multiply(gb, 1.0 - b2, out=s)
        vb += np.multiply(s, gb, out=s)
        np.divide(vb, bc2, out=s)
        np.sqrt(s, out=s)
        s += eps
        np.divide(mb, bc1, out=u)
        u /= s
        u += np.multiply(th, wd, out=s)
        u *= lr_t
        th -= u


def cosine_warmup_lr(step, warmup_steps, total_steps, lr_max=1e-3):
    """Linear ramp 0 -> lr_max over warmup_steps, then a half-cosine decay
    to 0 at total_steps."""
    if not 0 <= warmup_steps < total_steps:
        raise ValueError("need 0 <= warmup_steps < total_steps")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if step < warmup_steps:
        return lr_max * step / warmup_steps
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    # Native float so logged schedules render the same after a round trip.
    return float(lr_max * 0.5 * (1.0 + np.cos(np.pi * progress)))


@dataclass
class TrainHistory:
    """Everything logged during one fold's training."""

    epoch: list = field(default_factory=list)
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_acc: list = field(default_factory=list)
    lr: list = field(default_factory=list)
    step_lr: list = field(default_factory=list)
    step_grad_norm: list = field(default_factory=list)
    step_grad_norm_clipped: list = field(default_factory=list)
    best_epoch: int = 0
    best_val_acc: float = float("-inf")
    stopped_epoch: int = 0

    def to_text(self):
        lines = []
        for i in range(len(self.epoch)):
            lines.append(
                f"epoch={self.epoch[i]} train_loss={self.train_loss[i]!r} "
                f"val_loss={self.val_loss[i]!r} val_acc={self.val_acc[i]!r} "
                f"lr={self.lr[i]!r}")
        lines.append(f"best_epoch={self.best_epoch} "
                     f"best_val_acc={self.best_val_acc!r} "
                     f"stopped_epoch={self.stopped_epoch}")
        return "\n".join(lines) + "\n"


def _require_finite_logits(logits, step):
    """Inputs are checked finite before training starts, so a non-finite
    logit means the parameters have diverged."""
    if not np.isfinite(logits).all():
        raise TrainingDivergedError("non-finite logits", step=step)


def _evaluate_loss_acc(bundle, samples, loss_cfg, branches=None, step=None):
    """Eval-mode loss and accuracy over a sample list. Non-finite logits
    raise TrainingDivergedError at `step`."""
    logits = predict_logits(bundle, samples, branches=branches)
    _require_finite_logits(logits, step)
    labels = np.array([s.label for s in samples], dtype=np.int64)
    loss = weighted_smoothed_ce(logits, labels, loss_cfg)
    return loss, int(np.sum(np.argmax(logits, axis=1) == labels)) / len(samples)


def train_fold(train_samples, val_samples, cfg, fold=0, branches=None,
               head_branches=None):
    """Train one fold to early stopping; returns (bundle, opt, history).

    The fold seed derives from (config seed, fold index) so folds can run
    concurrently with independent streams. `branches` zero-masks excluded
    branch vectors at the fusion input during both training and validation;
    `head_branches` instead builds the fusion head without them.
    """
    if len(train_samples) < cfg.batch_size:
        raise DataError("training fold smaller than one batch")
    if not val_samples:
        raise DataError("validation fold is empty")
    for s in train_samples + val_samples:
        if not (np.isfinite(s.run_seq).all() and np.isfinite(s.kick_seq).all()):
            raise DataError(f"sample {s.id!r} has non-finite embeddings")
    d = train_samples[0].run_seq.shape[1]
    rng = np.random.default_rng([cfg.seed, fold])
    bundle = build_model(d, cfg.n_classes, cfg, rng,
                         head_branches=head_branches)
    if branches is None:
        branches = bundle.head_branches
    # One gradient buffer for the whole fold, freed when it returns.
    grads = bundle.params.like()
    opt = init_optimizer(bundle.params, beta1=cfg.beta1, beta2=cfg.beta2,
                         eps=cfg.adam_eps)
    labels = [s.label for s in train_samples]
    weights = compute_class_weights(labels, cfg.n_classes)
    loss_cfg = LossConfig(class_weights=weights,
                          label_smoothing=cfg.label_smoothing,
                          normalization=cfg.loss_normalization)
    aug_cfg = cfg.augment_config() if cfg.augment else None

    batches_per_epoch = len(train_samples) // cfg.batch_size
    total_steps = cfg.max_epochs * batches_per_epoch
    warmup_steps = int(cfg.warmup_frac * total_steps)

    history = TrainHistory()
    snapshot = None
    since_improvement = 0
    global_step = 0
    for epoch in range(1, cfg.max_epochs + 1):
        perm = rng.permutation(len(train_samples))
        epoch_losses = []
        lr_t = 0.0
        for b in range(batches_per_epoch):
            idx = perm[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            chunk = [train_samples[i] for i in idx]
            if aug_cfg is not None:
                chunk = [augment(s, aug_cfg, rng) for s in chunk]
            run_x, kick_x, gamma, y = batch_inputs(chunk)
            logits, cache = model_forward(bundle, run_x, kick_x, gamma,
                                          mode="train", rng=rng,
                                          branches=branches)
            _require_finite_logits(logits, global_step)
            loss = weighted_smoothed_ce(logits, y, loss_cfg)
            model_backward(bundle, cache, loss_backward(logits, y, loss_cfg),
                           grads)
            norm = clip_gradients(grads, cfg.clip_norm, step=global_step)
            lr_t = cosine_warmup_lr(global_step, warmup_steps, total_steps,
                                    cfg.lr)
            adamw_step(bundle.params, grads, opt, lr_t, wd=cfg.weight_decay)
            history.step_lr.append(lr_t)
            history.step_grad_norm.append(norm)
            history.step_grad_norm_clipped.append(min(norm, cfg.clip_norm))
            epoch_losses.append(loss)
            global_step += 1

        val_loss, val_acc = _evaluate_loss_acc(bundle, val_samples, loss_cfg,
                                               branches=branches,
                                               step=global_step)
        history.epoch.append(epoch)
        history.train_loss.append(float(np.mean(epoch_losses)))
        history.val_loss.append(val_loss)
        history.val_acc.append(val_acc)
        history.lr.append(lr_t)
        if val_acc > history.best_val_acc:
            history.best_val_acc = val_acc
            history.best_epoch = epoch
            snapshot = (bundle.params.vector.copy(),
                        bundle.state.vector.copy())
            since_improvement = 0
        else:
            since_improvement += 1
        history.stopped_epoch = epoch
        if since_improvement >= cfg.patience:
            break

    np.copyto(bundle.params.vector, snapshot[0])
    np.copyto(bundle.state.vector, snapshot[1])
    return bundle, opt, history


@contextmanager
def atomic_write(path):
    """Open a temporary binary file beside path and move it over path when
    the block completes: readers see the old file or all of the new one. A
    failure removes the temporary file; an OSError becomes a DataError."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write {str(path)!r}: {exc.strerror or exc}") \
            from exc
    finally:
        with suppress(OSError):
            os.remove(tmp)


def save_checkpoint(path, bundle, opt, history, cfg):
    """Lossless checkpoint: the flat parameter, buffer and moment vectors,
    their name/shape tables, history, and the config text needed to rebuild
    the bundle."""
    meta = {
        "embedding_dim": bundle.embedding_dim,
        "n_classes": bundle.n_classes,
        "head_branches": sorted(bundle.head_branches),
        "opt_t": opt.t,
        "beta1": opt.beta1,
        "beta2": opt.beta2,
        "eps": opt.eps,
        "best_epoch": history.best_epoch,
        "best_val_acc": history.best_val_acc,
        "stopped_epoch": history.stopped_epoch,
        "config_text": cfg.to_text(),
        "layout": {"param": bundle.params.table, "state": bundle.state.table},
    }
    arrays = {"meta_json": np.array(json.dumps(meta)),
              "param": bundle.params.vector, "state": bundle.state.vector,
              "opt_m": opt.m.vector, "opt_v": opt.v.vector}
    for name in ("epoch", "train_loss", "val_loss", "val_acc", "lr",
                 "step_lr", "step_grad_norm", "step_grad_norm_clipped"):
        arrays[f"hist.{name}"] = np.asarray(getattr(history, name))
    # Through a file handle, so np.savez keeps the path as given instead of
    # appending ".npz".
    with atomic_write(path) as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path):
    """Returns (bundle, opt, history, cfg). An unreadable, corrupt or
    incomplete checkpoint raises DataError."""
    try:
        return _read_checkpoint(path)
    except (OSError, EOFError, KeyError, ValueError, ConfigError,
            zipfile.BadZipFile) as exc:
        raise DataError(f"cannot read checkpoint {path!r}: {exc}") from exc


def _read_checkpoint(path):
    # Through our own handle, which closes even when np.load fails partway.
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
        meta = json.loads(str(data["meta_json"]))
        cfg = TrainConfig.from_text(meta["config_text"])
        rng = np.random.default_rng(0)  # placeholder values, overwritten below
        bundle = build_model(meta["embedding_dim"], meta["n_classes"], cfg, rng,
                             head_branches=frozenset(meta["head_branches"]))
        for key, buf in (("param", bundle.params), ("state", bundle.state)):
            if meta["layout"][key] != json.loads(json.dumps(buf.table)):
                raise ValueError(f"its {key} table does not match the model "
                                 "its config builds")
            np.copyto(buf.vector, _stored_vector(data, key, buf))
        table = bundle.params.table
        opt = OptimizerState(
            m=FlatBuffer(table, _stored_vector(data, "opt_m", bundle.params)),
            v=FlatBuffer(table, _stored_vector(data, "opt_v", bundle.params)),
            t=meta["opt_t"], beta1=meta["beta1"], beta2=meta["beta2"],
            eps=meta["eps"])
        # .tolist() hands back native Python scalars, so a reloaded
        # history renders to the exact text the original produced.
        history = TrainHistory(
            epoch=data["hist.epoch"].tolist(),
            train_loss=data["hist.train_loss"].tolist(),
            val_loss=data["hist.val_loss"].tolist(),
            val_acc=data["hist.val_acc"].tolist(),
            lr=data["hist.lr"].tolist(),
            step_lr=data["hist.step_lr"].tolist(),
            step_grad_norm=data["hist.step_grad_norm"].tolist(),
            step_grad_norm_clipped=data["hist.step_grad_norm_clipped"].tolist(),
            best_epoch=meta["best_epoch"],
            best_val_acc=meta["best_val_acc"],
            stopped_epoch=meta["stopped_epoch"])
    return bundle, opt, history, cfg


def _stored_vector(data, key, buf):
    """Archive array `key`, checked to fit the layout of the FlatBuffer buf."""
    arr = data[key]
    if arr.dtype != np.float64 or arr.shape != buf.vector.shape:
        raise ValueError(f"{key!r} holds {arr.size} {arr.dtype} values, the "
                         f"model has {buf.vector.size} float64")
    return arr
