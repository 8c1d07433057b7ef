"""Optimizer, schedule, clipping, and the fold training loop."""

import numpy as np
import pytest

from kickdir.config import TrainConfig
from kickdir.data import generate_synthetic
from kickdir.errors import DataError, TrainingDivergedError
from kickdir.fusion import LossConfig
from kickdir.model import named_params, named_state, predict_logits
from kickdir.train import (
    OptimizerState,
    TrainHistory,
    _evaluate_loss_acc,
    adamw_step,
    clip_gradients,
    cosine_warmup_lr,
    init_optimizer,
    load_checkpoint,
    save_checkpoint,
    train_fold,
)


def tiny_config(**overrides):
    base = dict(batch_size=5, max_epochs=3, patience=10, lr=3e-3,
                weight_decay=1e-2, dropout=0.1, branch_width=0, state_size=2,
                n_layers=1, conv_width=3, meta_dim=4, fusion_hidden=8,
                augment=False, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def data_split(n, n_val, **kwargs):
    opts = dict(embedding_dim=6, n_r=3, n_k=2, seed=11)
    opts.update(kwargs)
    _, samples = generate_synthetic(n, **opts)
    return samples[:-n_val], samples[-n_val:]


# ---------------------------------------------------------------- clipping


def test_clip_reference_vector():
    grads = {"w": np.array([3.0, 4.0])}
    _, norm = clip_gradients(grads, max_norm=1.0)
    assert norm == 5.0
    assert np.allclose(grads["w"], [0.6, 0.8], atol=1e-12)


def test_clip_under_threshold_is_identity():
    g = np.array([0.3, 0.4])
    grads = {"w": g.copy()}
    _, norm = clip_gradients(grads, max_norm=1.0)
    assert np.array_equal(grads["w"], g)
    assert np.isclose(norm, 0.5)


def test_clip_zero_gradients_safe():
    grads = {"w": np.zeros(4), "b": np.zeros(2)}
    _, norm = clip_gradients(grads, max_norm=1.0)
    assert norm == 0.0
    assert not grads["w"].any()


def test_clip_uses_global_norm_across_arrays():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clip_gradients(grads, max_norm=1.0)
    assert np.allclose(grads["a"], [0.6], atol=1e-12)
    assert np.allclose(grads["b"], [0.8], atol=1e-12)


def test_clip_nonfinite_raises_with_step():
    grads = {"w": np.array([1.0, np.nan])}
    with pytest.raises(TrainingDivergedError) as info:
        clip_gradients(grads, max_norm=1.0, step=7)
    assert info.value.step == 7
    assert "step 7" in str(info.value)


# ----------------------------------------------------------------- AdamW


def test_adamw_first_step_reference():
    """From zero moments, |update| is lr regardless of gradient scale."""
    params = {"w": np.array([0.0])}
    opt = init_optimizer(params)
    adamw_step(params, {"w": np.array([1.0])}, opt, lr_t=0.1, wd=0.0)
    assert abs(params["w"][0] + 0.1) < 1e-8
    assert opt.t == 1


def test_adamw_pure_decay_reference():
    params = {"w": np.array([1.0])}
    opt = init_optimizer(params)
    adamw_step(params, {"w": np.array([0.0])}, opt, lr_t=1e-3, wd=5e-2)
    assert np.isclose(params["w"][0], 0.99995, atol=1e-12)


def test_adamw_zero_grad_zero_decay_fixpoint():
    params = {"w": np.array([2.5, -1.0])}
    opt = init_optimizer(params)
    for _ in range(5):
        adamw_step(params, {"w": np.zeros(2)}, opt, lr_t=1e-2, wd=0.0)
    assert np.array_equal(params["w"], [2.5, -1.0])


def test_adamw_geometric_decay_under_zero_gradients():
    rng = np.random.default_rng(0)
    theta0 = rng.normal(size=7)
    params = {"w": theta0.copy()}
    opt = init_optimizer(params)
    lr, wd = 1e-3, 5e-2
    for _ in range(100):
        adamw_step(params, {"w": np.zeros(7)}, opt, lr_t=lr, wd=wd)
    expected = theta0 * (1.0 - lr * wd) ** 100
    assert np.max(np.abs(params["w"] - expected) / np.abs(expected)) < 1e-10


def test_adamw_registry_mismatch_rejected():
    params = {"w": np.zeros(2)}
    opt = init_optimizer(params)
    with pytest.raises(ValueError):
        adamw_step(params, {"b": np.zeros(2)}, opt, lr_t=0.1)


# -------------------------------------------------------------- schedule


def test_schedule_endpoints_and_midpoint():
    lr = 2e-3
    assert cosine_warmup_lr(0, 10, 110, lr) == 0.0
    assert cosine_warmup_lr(10, 10, 110, lr) == lr
    mid = (10 + 110) // 2
    assert np.isclose(cosine_warmup_lr(mid, 10, 110, lr), lr / 2, atol=1e-12)
    assert abs(cosine_warmup_lr(110, 10, 110, lr)) < 1e-18


def test_schedule_shape():
    vals = [cosine_warmup_lr(s, 10, 110, 1e-3) for s in range(111)]
    ramp = np.diff(vals[:11])
    assert np.all(ramp > 0)
    decay = np.diff(vals[10:])
    assert np.all(decay <= 0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        cosine_warmup_lr(5, 10, 10, 1e-3)
    with pytest.raises(ValueError):
        cosine_warmup_lr(11, 0, 10, 1e-3)
    with pytest.raises(ValueError):
        cosine_warmup_lr(-1, 0, 10, 1e-3)


# ------------------------------------------------------------ train_fold


def test_train_fold_history_and_lr_trace():
    train, val = data_split(25, 5)
    cfg = tiny_config(max_epochs=3, batch_size=5)
    bundle, _, hist = train_fold(train, val, cfg)
    assert hist.epoch == [1, 2, 3]
    assert len(hist.train_loss) == len(hist.val_loss) == len(hist.val_acc) == 3
    total = 3 * (len(train) // 5)
    warmup = int(cfg.warmup_frac * total)
    assert len(hist.step_lr) == total
    for i, got in enumerate(hist.step_lr):
        assert got == cosine_warmup_lr(i, warmup, total, cfg.lr)
    bound = cfg.clip_norm * (1.0 + 1e-9)
    assert all(c <= bound for c in hist.step_grad_norm_clipped)
    assert all(np.isfinite(hist.step_grad_norm))
    assert hist.lr[-1] == hist.step_lr[-1]


def test_train_fold_drops_last_incomplete_batch():
    train, val = data_split(28, 5)  # 23 train -> 4 full batches of 5
    cfg = tiny_config(max_epochs=2)
    _, _, hist = train_fold(train, val, cfg)
    assert len(hist.step_lr) == 2 * 4


def test_train_fold_same_seed_reproducible():
    train, val = data_split(25, 5)
    cfg = tiny_config(max_epochs=2, augment=True)
    bundle_a, _, hist_a = train_fold(train, val, cfg)
    bundle_b, _, hist_b = train_fold(train, val, cfg)
    assert hist_a.train_loss == hist_b.train_loss
    assert hist_a.val_loss == hist_b.val_loss
    assert hist_a.val_acc == hist_b.val_acc
    assert hist_a.step_grad_norm == hist_b.step_grad_norm
    pa, pb = named_params(bundle_a), named_params(bundle_b)
    assert all(np.array_equal(pa[k], pb[k]) for k in pa)


def test_train_fold_index_seeds_distinct_streams():
    train, val = data_split(25, 5)
    cfg = tiny_config(max_epochs=1)
    _, _, hist0 = train_fold(train, val, cfg, fold=0)
    _, _, hist1 = train_fold(train, val, cfg, fold=1)
    assert hist0.train_loss != hist1.train_loss


def test_patience_exhaustion_with_frozen_model():
    """lr = 0 never improves after the first epoch, so training stops at
    exactly epoch 1 + patience.

    One full-size batch per epoch plus momentum 1 keeps the normalization
    statistics bit-identical across epochs (batch moments are permutation
    invariant), so the model really is frozen end to end.
    """
    train, val = data_split(50, 10, signal_strength=0.0, noise_std=1.0)
    cfg = tiny_config(lr=0.0, patience=4, max_epochs=30,
                      batch_size=len(train), bn_momentum=1.0, dropout=0.0)
    _, _, hist = train_fold(train, val, cfg)
    assert hist.best_epoch == 1
    assert hist.stopped_epoch == 1 + cfg.patience
    assert len(hist.epoch) == 1 + cfg.patience
    assert all(a == hist.val_acc[0] for a in hist.val_acc)


def test_best_snapshot_restored():
    train, val = data_split(30, 10)
    cfg = tiny_config(max_epochs=4, patience=10)
    bundle, _, hist = train_fold(train, val, cfg)
    best = hist.best_epoch - 1
    assert hist.val_acc[best] == hist.best_val_acc
    assert all(hist.val_acc[i] <= hist.best_val_acc
               for i in range(len(hist.val_acc)))
    loss_cfg = LossConfig(class_weights=np.ones(3), label_smoothing=0.01)
    _, acc = _evaluate_loss_acc(bundle, val, loss_cfg)
    assert acc == hist.best_val_acc


def test_evaluation_leaves_state_untouched():
    train, val = data_split(25, 5)
    cfg = tiny_config(max_epochs=1)
    bundle, _, _ = train_fold(train, val, cfg)
    before = {k: a.copy() for k, a in named_state(bundle).items()}
    loss_cfg = LossConfig(class_weights=np.ones(3))
    _evaluate_loss_acc(bundle, val, loss_cfg)
    after = named_state(bundle)
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_train_fold_learns_planted_signal():
    train, val = data_split(150, 30, noise_std=0.02, seed=5)
    cfg = tiny_config(batch_size=10, max_epochs=12, patience=12, lr=3e-3,
                      state_size=4, fusion_hidden=16, meta_dim=8)
    _, _, hist = train_fold(train, val, cfg)
    assert hist.best_val_acc >= 0.8, hist.val_acc


def test_train_fold_rejects_small_folds():
    train, val = data_split(25, 5)
    cfg = tiny_config(batch_size=50)
    with pytest.raises(DataError):
        train_fold(train, val, cfg)
    cfg = tiny_config()
    with pytest.raises(DataError):
        train_fold(train, [], cfg)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_divergence_raises_with_step():
    train, val = data_split(25, 5)
    cfg = tiny_config(lr=1e8, weight_decay=0.5, max_epochs=10, clip_norm=1e30)
    with pytest.raises(TrainingDivergedError) as info:
        train_fold(train, val, cfg)
    assert info.value.step is not None


def test_checkpoint_round_trip(tmp_path):
    train, val = data_split(25, 5)
    cfg = tiny_config(max_epochs=2, augment=True)
    bundle, opt, hist = train_fold(train, val, cfg)
    assert opt.t == len(hist.step_lr)
    path = tmp_path / "fold_00.npz"
    save_checkpoint(path, bundle, opt, hist, cfg)
    bundle2, opt2, hist2, cfg2 = load_checkpoint(path)
    assert bundle2.head_branches == bundle.head_branches
    p1, p2 = named_params(bundle), named_params(bundle2)
    assert all(np.array_equal(p1[k], p2[k]) for k in p1)
    s1, s2 = named_state(bundle), named_state(bundle2)
    assert all(np.array_equal(s1[k], s2[k]) for k in s1)
    assert opt2.t == opt.t and opt2.beta1 == cfg.beta1
    assert all(np.array_equal(opt.m[k], opt2.m[k]) for k in opt.m)
    assert all(np.array_equal(opt.v[k], opt2.v[k]) for k in opt.v)
    assert hist2.epoch == hist.epoch
    assert hist2.val_acc == hist.val_acc
    assert hist2.step_lr == hist.step_lr
    assert hist2.best_epoch == hist.best_epoch
    assert hist2.best_val_acc == hist.best_val_acc
    assert cfg2 == cfg
    assert np.array_equal(predict_logits(bundle, val),
                          predict_logits(bundle2, val))


def test_history_text_is_deterministic():
    hist = TrainHistory(epoch=[1], train_loss=[0.5], val_loss=[0.25],
                        val_acc=[0.75], lr=[1e-3])
    hist.best_epoch = 1
    hist.best_val_acc = 0.75
    hist.stopped_epoch = 1
    text = hist.to_text()
    assert "epoch=1" in text and "val_acc=0.75" in text
    assert text == hist.to_text()
