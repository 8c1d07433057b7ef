"""Optimizer, schedule, clipping, and the fold training loop."""

import numpy as np
import pytest

from kickdir.config import TrainConfig
from kickdir.data import (
    Metadata,
    PenaltySample,
    generate_synthetic,
    load_dataset,
    save_dataset,
    stratified_kfold,
)
from kickdir.errors import DataError, TrainingDivergedError
from kickdir.fusion import LossConfig, loss_backward
from kickdir.metrics import evaluate
from kickdir.model import (
    FlatBuffer,
    build_model,
    model_backward,
    model_forward,
    predict_logits,
)
from kickdir.train import (
    ADAMW_BLOCK,
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


def flat(**arrays):
    """A FlatBuffer holding a copy of each named array."""
    buf = FlatBuffer((name, np.shape(a)) for name, a in arrays.items())
    for name, a in arrays.items():
        buf[name][...] = a
    return buf


# ---------------------------------------------------------------- clipping


def test_clip_reference_vector():
    grads = flat(w=[3.0, 4.0])
    norm = clip_gradients(grads, max_norm=1.0)
    assert norm == 5.0
    assert np.allclose(grads["w"], [0.6, 0.8], atol=1e-12)


def test_clip_under_threshold_is_identity():
    g = np.array([0.3, 0.4])
    grads = flat(w=g)
    norm = clip_gradients(grads, max_norm=1.0)
    assert np.array_equal(grads["w"], g)
    assert np.isclose(norm, 0.5)


def test_clip_zero_gradients_safe():
    grads = flat(w=np.zeros(4), b=np.zeros(2))
    norm = clip_gradients(grads, max_norm=1.0)
    assert norm == 0.0
    assert not grads["w"].any()


def test_clip_uses_global_norm_across_arrays():
    grads = flat(a=[3.0], b=[4.0])
    clip_gradients(grads, max_norm=1.0)
    assert np.allclose(grads["a"], [0.6], atol=1e-12)
    assert np.allclose(grads["b"], [0.8], atol=1e-12)


def test_clip_nonfinite_raises_with_step():
    grads = flat(w=[1.0, np.nan])
    with pytest.raises(TrainingDivergedError) as info:
        clip_gradients(grads, max_norm=1.0, step=7)
    assert info.value.step == 7
    assert "step 7" in str(info.value)


def test_one_sum_clip_norm_matches_per_tensor_sum():
    bundle = build_model(16, 3, TrainConfig(), np.random.default_rng(4))
    rng = np.random.default_rng(5)
    run_x = rng.normal(size=(5, 5, 16))
    kick_x = rng.normal(size=(5, 3, 16))
    gamma = rng.integers(0, 2, size=(5, 2)).astype(np.float64)
    labels = np.array([0, 1, 2, 1, 0])
    logits, cache = model_forward(bundle, run_x, kick_x, gamma, mode="train",
                                  rng=rng)
    loss_cfg = LossConfig(class_weights=np.ones(3))
    grads = model_backward(bundle, cache, loss_backward(logits, labels,
                                                        loss_cfg))
    per_tensor = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    norm = clip_gradients(grads, max_norm=1e9)
    assert abs(norm - per_tensor) <= 1e-14 * per_tensor


# ----------------------------------------------------------------- AdamW


def test_adamw_first_step_reference():
    """From zero moments, |update| is lr regardless of gradient scale."""
    params = flat(w=[0.0])
    opt = init_optimizer(params)
    adamw_step(params, flat(w=[1.0]), opt, lr_t=0.1, wd=0.0)
    assert abs(params["w"][0] + 0.1) < 1e-8
    assert opt.t == 1


def test_adamw_pure_decay_reference():
    params = flat(w=[1.0])
    opt = init_optimizer(params)
    adamw_step(params, flat(w=[0.0]), opt, lr_t=1e-3, wd=5e-2)
    assert np.isclose(params["w"][0], 0.99995, atol=1e-12)


def test_adamw_zero_grad_zero_decay_fixpoint():
    params = flat(w=[2.5, -1.0])
    opt = init_optimizer(params)
    for _ in range(5):
        adamw_step(params, flat(w=np.zeros(2)), opt, lr_t=1e-2, wd=0.0)
    assert np.array_equal(params["w"], [2.5, -1.0])


def test_adamw_geometric_decay_under_zero_gradients():
    rng = np.random.default_rng(0)
    theta0 = rng.normal(size=7)
    params = flat(w=theta0)
    opt = init_optimizer(params)
    lr, wd = 1e-3, 5e-2
    for _ in range(100):
        adamw_step(params, flat(w=np.zeros(7)), opt, lr_t=lr, wd=wd)
    expected = theta0 * (1.0 - lr * wd) ** 100
    assert np.max(np.abs(params["w"] - expected) / np.abs(expected)) < 1e-10


def reference_adamw(params, grads, m, v, t, lr_t, wd, b1=0.9, b2=0.999,
                    eps=1e-8):
    """The per-tensor AdamW update as written before the flat buffers."""
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, theta in params.items():
        g = grads[name]
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        m_hat = m[name] / bc1
        v_hat = v[name] / bc2
        theta -= lr_t * (m_hat / (np.sqrt(v_hat) + eps) + wd * theta)


def test_flat_blocked_adamw_matches_per_tensor_reference():
    table = [("a", (3, 5)), ("big", (2 * ADAMW_BLOCK + 123,)), ("c", (7,))]
    rng = np.random.default_rng(1)
    params = FlatBuffer(table, rng.normal(size=2 * ADAMW_BLOCK + 145))
    grads = params.like()
    opt = init_optimizer(params)
    ref = {k: a.copy() for k, a in params.items()}
    ref_m = {k: np.zeros_like(a) for k, a in ref.items()}
    ref_v = {k: np.zeros_like(a) for k, a in ref.items()}
    for step, (lr, wd) in enumerate([(1e-3, 5e-2), (3e-3, 0.0), (1e-2, 1e-2),
                                     (2e-4, 5e-2), (0.0, 5e-2)], start=1):
        grads.vector[:] = rng.normal(size=grads.vector.size) \
            * rng.choice([1e-9, 1.0, 1e3], size=grads.vector.size)
        adamw_step(params, grads, opt, lr_t=lr, wd=wd)
        reference_adamw(ref, dict(grads), ref_m, ref_v, step, lr, wd)
        assert opt.t == step
        for k in ref:
            assert np.array_equal(params[k], ref[k]), (step, k)
            assert np.array_equal(opt.m[k], ref_m[k]), (step, k)
            assert np.array_equal(opt.v[k], ref_v[k]), (step, k)


@pytest.fixture
def one_worker(monkeypatch):
    """A fresh worker as the model's."""
    import kickdir.model as model_mod
    worker = model_mod.Worker()
    monkeypatch.setattr(model_mod, "WORKER", worker)
    return worker


def test_split_adamw_matches_serial(monkeypatch, one_worker):
    import kickdir.model as model_mod
    rng = np.random.default_rng(5)
    start = {"big": rng.normal(size=11 * ADAMW_BLOCK // 2),
             "small": rng.normal(size=(3, 4))}
    grads = [flat(**{k: rng.normal(size=a.shape) * 10.0 ** rng.integers(-9, 4)
                     for k, a in start.items()}) for _ in range(4)]
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(model_mod, "usable_cpus", lambda: cpus)
        params = flat(**start)
        opt = init_optimizer(params)
        for step, g in enumerate(grads):
            adamw_step(params, g, opt, lr_t=1e-3 * (step + 1), wd=5e-2)
        runs.append((params, opt))
        assert (one_worker._pool is not None) == (cpus == 2)
    (p1, o1), (p2, o2) = runs
    for k in start:
        assert np.array_equal(p1[k], p2[k])
        assert np.array_equal(o1.m[k], o2.m[k])
        assert np.array_equal(o1.v[k], o2.v[k])


def test_pickled_optimizer_keeps_views():
    import pickle
    bundle = build_model(6, 3, tiny_config(), np.random.default_rng(3))
    opt = init_optimizer(bundle.params)
    grads = bundle.params.like()
    grads.vector[:] = 0.25
    adamw_step(bundle.params, grads, opt, lr_t=1e-3)
    assert opt.scratch is not None
    copy = pickle.loads(pickle.dumps(opt))
    assert copy.scratch is None and copy.t == 1
    for k in copy.m:
        assert np.shares_memory(copy.m[k], copy.m.vector)
        assert np.shares_memory(copy.v[k], copy.v.vector)
    assert np.array_equal(copy.m.vector, opt.m.vector)


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
    pa, pb = bundle_a.params, bundle_b.params
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
    before = {k: a.copy() for k, a in bundle.state.items()}
    loss_cfg = LossConfig(class_weights=np.ones(3))
    _evaluate_loss_acc(bundle, val, loss_cfg)
    after = bundle.state
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


def test_bad_branches_are_an_argument_error():
    """Only non-finite logits count as divergence; a bad argument surfaces
    as the ValueError model_forward raises."""
    train, val = data_split(25, 5)
    with pytest.raises(ValueError, match=r"unknown branches: \['bogus'\]"):
        train_fold(train, val, tiny_config(), branches={"run", "bogus"})


def test_divergence_names_the_tensor(monkeypatch):
    import kickdir.train as train_mod
    real = train_mod.model_backward
    calls = []

    def planted(*args):
        grads = real(*args)
        calls.append(None)
        if len(calls) == 4:
            grads["fusion.w_out"][1, 2] = np.nan
        return grads

    monkeypatch.setattr(train_mod, "model_backward", planted)
    train, val = data_split(25, 5)
    with pytest.raises(TrainingDivergedError) as info:
        train_fold(train, val, tiny_config())
    assert info.value.step == 3
    assert str(info.value) == "non-finite gradient in fusion.w_out (step 3)"


def test_checkpoint_round_trip(tmp_path):
    train, val = data_split(25, 5)
    cfg = tiny_config(max_epochs=2, augment=True)
    bundle, opt, hist = train_fold(train, val, cfg)
    assert opt.t == len(hist.step_lr)
    path = tmp_path / "fold_00.npz"
    save_checkpoint(path, bundle, opt, hist, cfg)
    bundle2, opt2, hist2, cfg2 = load_checkpoint(path)
    assert bundle2.head_branches == bundle.head_branches
    p1, p2 = bundle.params, bundle2.params
    assert all(np.array_equal(p1[k], p2[k]) for k in p1)
    s1, s2 = bundle.state, bundle2.state
    assert all(np.array_equal(s1[k], s2[k]) for k in s1)
    assert opt2.t == opt.t and opt2.beta1 == cfg.beta1
    assert all(np.array_equal(opt.m[k], opt2.m[k]) for k in opt.m)
    assert all(np.array_equal(opt.v[k], opt2.v[k]) for k in opt.v)
    assert list(opt2.m) == list(bundle2.params)
    assert all(np.shares_memory(opt2.m[k], opt2.m.vector)
               and np.shares_memory(opt2.v[k], opt2.v.vector) for k in opt2.m)
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


def test_truncated_zip_checkpoint_closes_its_file(tmp_path):
    import gc
    import warnings
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"PK\x03\x04truncated")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DataError):
            load_checkpoint(str(path))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


# ------------------------------------------------------------ sample tables


def _loaded_table(tmp_path, n=40):
    _, samples = generate_synthetic(n, embedding_dim=6, n_r=3, n_k=2, seed=8)
    path = tmp_path / "d.pkds"
    save_dataset(path, samples)
    return load_dataset(path)[1]


def test_table_and_its_rows_train_alike(tmp_path):
    table = _loaded_table(tmp_path)
    train, val = stratified_kfold(table, k=4, seed=0).split(table, 1)
    cfg = tiny_config(max_epochs=2, augment=True)
    a, opt_a, _ = train_fold(train, val, cfg, fold=1)
    b, opt_b, _ = train_fold(list(train), list(val), cfg, fold=1)
    for x, y in ((a.params, b.params), (a.state, b.state),
                 (opt_a.m, opt_b.m), (opt_a.v, opt_b.v)):
        assert np.array_equal(x.vector, y.vector)
    assert np.array_equal(predict_logits(a, table),
                          predict_logits(a, list(table)))


def test_table_path_builds_no_sample_objects(tmp_path, monkeypatch):
    _loaded_table(tmp_path)  # writes d.pkds before the patches

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} was built")

    monkeypatch.setattr(PenaltySample, "__init__", refuse)
    monkeypatch.setattr(Metadata, "__init__", refuse)
    _, table = load_dataset(tmp_path / "d.pkds")
    train, val = stratified_kfold(table, k=4, seed=0).split(table, 0)
    bundle, _, _ = train_fold(train, val, tiny_config(max_epochs=1,
                                                      augment=True))
    cm, _ = evaluate(bundle, val)
    assert cm.total == len(val)
    assert predict_logits(bundle, table).shape == (len(table), 3)
