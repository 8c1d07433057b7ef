"""Assembled model: branch encoders feeding the fusion head."""

import numpy as np
import pytest

from kickdir.config import TrainConfig
from kickdir.data import Metadata, PenaltySample, generate_synthetic
from kickdir.fusion import loss_backward, unit_loss_config, weighted_smoothed_ce
from kickdir.gradcheck import max_rel_error, numerical_grad
from kickdir.model import (
    ALL_BRANCHES,
    FlatBuffer,
    batch_inputs,
    build_model,
    model_backward,
    model_forward,
    predict,
    predict_logits,
)
from kickdir.train import train_fold


def small_config(**overrides):
    base = dict(branch_width=4, state_size=2, n_layers=1, expand=2,
                conv_width=3, meta_dim=3, fusion_hidden=6, dropout=0.3)
    base.update(overrides)
    return TrainConfig(**base)


def make_batch(rng, batch=4, n_r=3, n_k=2, d=4):
    run_x = rng.normal(size=(batch, n_r, d))
    kick_x = rng.normal(size=(batch, n_k, d))
    gamma = rng.integers(0, 2, size=(batch, 2)).astype(np.float64)
    labels = rng.integers(0, 3, size=batch)
    return run_x, kick_x, gamma, labels


def test_forward_shapes():
    rng = np.random.default_rng(0)
    bundle = build_model(4, 3, small_config(), np.random.default_rng(1))
    run_x, kick_x, gamma, _ = make_batch(rng)
    logits, cache = model_forward(bundle, run_x, kick_x, gamma,
                                  mode="train", rng=rng)
    assert logits.shape == (4, 3)
    assert cache is not None
    logits_e, cache_e = model_forward(bundle, run_x, kick_x, gamma,
                                      mode="eval")
    assert logits_e.shape == (4, 3)
    assert cache_e is None


def test_eval_mode_deterministic():
    rng = np.random.default_rng(2)
    bundle = build_model(4, 3, small_config(), np.random.default_rng(3))
    run_x, kick_x, gamma, _ = make_batch(rng)
    a, _ = model_forward(bundle, run_x, kick_x, gamma, mode="eval")
    b, _ = model_forward(bundle, run_x, kick_x, gamma, mode="eval")
    assert np.array_equal(a, b)


def test_param_registry_matches_gradient_keys():
    rng = np.random.default_rng(4)
    bundle = build_model(4, 3, small_config(), np.random.default_rng(5))
    params = bundle.params
    assert all(k.startswith(("run_enc.", "kick_enc.", "fusion."))
               for k in params)
    run_x, kick_x, gamma, labels = make_batch(rng)
    logits, cache = model_forward(bundle, run_x, kick_x, gamma,
                                  mode="train", rng=rng)
    cfg = unit_loss_config(3)
    grads = model_backward(bundle, cache, loss_backward(logits, labels, cfg))
    assert set(grads) == set(params)
    for name, g in grads.items():
        assert g.shape == params[name].shape, name


def test_state_registry_is_batchnorm_buffers():
    bundle = build_model(4, 3, small_config(), np.random.default_rng(6))
    state = bundle.state
    assert set(state) == {"fusion.bn_running_mean", "fusion.bn_running_var"}


def test_registry_entries_alias_model_arrays():
    bundle = build_model(4, 3, small_config(), np.random.default_rng(7))
    params = bundle.params
    params["fusion.b_out"][0] = 123.0
    assert bundle.fusion.b_out[0] == 123.0


def test_full_model_gradcheck():
    rng = np.random.default_rng(8)
    bundle = build_model(3, 3, small_config(branch_width=3),
                         np.random.default_rng(9))
    run_x, kick_x, _, labels = make_batch(rng, batch=4, n_r=3, n_k=2, d=3)
    # Continuous metadata and a dithered bias keep every pre-activation off
    # the relu kink, where central differences would report half the slope.
    gamma = rng.random((4, 2))
    bundle.fusion.b_meta += 0.05 * rng.normal(size=bundle.fusion.b_meta.shape)
    cfg = unit_loss_config(3)
    params = bundle.params

    def loss_with(mode_rng):
        logits, cache = model_forward(bundle, run_x, kick_x, gamma,
                                      mode="train", rng=mode_rng)
        return logits, cache

    logits, cache = loss_with(np.random.default_rng(999))
    grads = model_backward(bundle, cache, loss_backward(logits, labels, cfg))
    worst = 0.0
    for name, theta in params.items():
        def f(_):
            lg, _c = loss_with(np.random.default_rng(999))
            return weighted_smoothed_ce(lg, labels, cfg)
        num = numerical_grad(f, theta, eps=1e-4)
        worst = max(worst, max_rel_error(grads[name], num))
    assert worst < 1e-4, worst


def test_masked_branches_zero_their_gradients():
    rng = np.random.default_rng(10)
    bundle = build_model(4, 3, small_config(), np.random.default_rng(11))
    run_x, kick_x, gamma, labels = make_batch(rng)
    cfg = unit_loss_config(3)
    logits, cache = model_forward(bundle, run_x, kick_x, gamma, mode="train",
                                  rng=np.random.default_rng(0),
                                  branches={"run"})
    grads = model_backward(bundle, cache, loss_backward(logits, labels, cfg))
    assert set(grads) == set(bundle.params)
    for name, g in grads.items():
        if name.startswith("kick_enc."):
            assert not g.any(), name
    assert any(g.any() for n, g in grads.items() if n.startswith("run_enc."))
    assert not grads["fusion.w_meta"].any()
    assert not grads["fusion.b_meta"].any()


def test_masking_equals_zeroed_branch_input():
    """Disabling a branch must equal feeding a zero vector to fusion."""
    rng = np.random.default_rng(12)
    bundle = build_model(4, 3, small_config(), np.random.default_rng(13))
    run_x, kick_x, gamma, _ = make_batch(rng)
    masked, _ = model_forward(bundle, run_x, kick_x, gamma, mode="eval",
                              branches={"run", "kick"})
    from kickdir.encoder import encode_branch_forward
    from kickdir.fusion import fuse_and_classify
    t_run = encode_branch_forward(run_x, bundle.run_enc)[0]
    t_kick = encode_branch_forward(kick_x, bundle.kick_enc)[0]
    t_meta = np.zeros((4, bundle.fusion.meta_dim))
    direct, _ = fuse_and_classify(t_run, t_kick, t_meta, bundle.fusion,
                                  mode="eval")
    assert np.allclose(masked, direct, atol=1e-12)


def test_unknown_branch_name_rejected():
    bundle = build_model(4, 3, small_config(), np.random.default_rng(14))
    rng = np.random.default_rng(15)
    run_x, kick_x, gamma, _ = make_batch(rng)
    with pytest.raises(ValueError):
        model_forward(bundle, run_x, kick_x, gamma, mode="eval",
                      branches={"run", "sideline"})


def test_empty_branch_set_rejected():
    bundle = build_model(4, 3, small_config(), np.random.default_rng(16))
    rng = np.random.default_rng(17)
    run_x, kick_x, gamma, _ = make_batch(rng)
    with pytest.raises(ValueError):
        model_forward(bundle, run_x, kick_x, gamma, mode="eval", branches=set())


def test_batch_inputs_prefers_float_metadata():
    sample = PenaltySample(
        id="a", run_seq=np.zeros((3, 4), dtype=np.float32),
        kick_seq=np.zeros((2, 4), dtype=np.float32),
        meta=Metadata(side=1, foot=0), label=2,
        meta_float=np.array([0.97, 0.02]))
    plain = PenaltySample(
        id="b", run_seq=np.zeros((3, 4), dtype=np.float32),
        kick_seq=np.zeros((2, 4), dtype=np.float32),
        meta=Metadata(side=1, foot=0), label=2)
    run_x, kick_x, gamma, labels = batch_inputs([sample, plain])
    assert run_x.dtype == np.float64 and run_x.shape == (2, 3, 4)
    assert np.allclose(gamma[0], [0.97, 0.02])
    assert np.array_equal(gamma[1], [1.0, 0.0])
    assert np.array_equal(labels, [2, 2])


def test_predict_and_ties():
    bundle = build_model(6, 3, small_config(), np.random.default_rng(18))
    # Force logits to be identical across classes: zero the final affine.
    bundle.fusion.w_out[:] = 0.0
    bundle.fusion.b_out[:] = 0.0
    _, samples = generate_synthetic(6, embedding_dim=6, n_r=3, n_k=2, seed=3)
    labels = predict(bundle, samples)
    assert np.array_equal(labels, np.zeros(6, dtype=labels.dtype))
    assert predict_logits(bundle, []).shape == (0, 3)
    assert predict(bundle, []).shape == (0,)


def test_forward_matches_manual_composition():
    """Unmasked eval forward equals hand-chaining the three stages."""
    rng = np.random.default_rng(19)
    bundle = build_model(4, 3, small_config(), np.random.default_rng(20))
    run_x, kick_x, gamma, _ = make_batch(rng)
    got, _ = model_forward(bundle, run_x, kick_x, gamma, mode="eval")
    from kickdir.encoder import encode_branch_forward
    from kickdir.fusion import fuse_and_classify, meta_branch_forward
    t_run = encode_branch_forward(run_x, bundle.run_enc)[0]
    t_kick = encode_branch_forward(kick_x, bundle.kick_enc)[0]
    t_meta, _ = meta_branch_forward(gamma, bundle.fusion)
    want, _ = fuse_and_classify(t_run, t_kick, t_meta, bundle.fusion,
                                mode="eval")
    assert np.allclose(got, want, atol=1e-12)


def test_branch_width_defaults_to_embedding_dim():
    cfg = small_config(branch_width=0)
    bundle = build_model(7, 3, cfg, np.random.default_rng(21))
    assert bundle.branch_width == 7
    assert bundle.run_enc.w_proj.shape == (7, 7)


def test_slim_head_drops_segments_from_fusion_input():
    cfg = small_config()
    bundle = build_model(4, 3, cfg, np.random.default_rng(22),
                         head_branches={"run", "meta"})
    width = bundle.branch_width
    assert bundle.fusion.w_h.shape[1] == width + bundle.fusion.meta_dim
    rng = np.random.default_rng(23)
    run_x, kick_x, gamma, labels = make_batch(rng)
    logits, cache = model_forward(bundle, run_x, kick_x, gamma, mode="train",
                                  rng=rng, branches={"run", "meta"})
    assert logits.shape == (4, 3)
    cfg_loss = unit_loss_config(3)
    grads = model_backward(bundle, cache, loss_backward(logits, labels,
                                                        cfg_loss))
    assert set(grads) == set(bundle.params)
    assert not any(g.any() for n, g in grads.items()
                   if n.startswith("kick_enc."))
    with pytest.raises(ValueError):
        model_forward(bundle, run_x, kick_x, gamma, mode="eval",
                      branches={"run", "kick"})


def test_slim_head_requires_run():
    with pytest.raises(ValueError):
        build_model(4, 3, small_config(), np.random.default_rng(24),
                    head_branches={"kick", "meta"})


def test_slim_head_gradcheck():
    rng = np.random.default_rng(25)
    bundle = build_model(3, 3, small_config(branch_width=3, dropout=0.0),
                         np.random.default_rng(26),
                         head_branches={"run", "meta"})
    run_x, kick_x, _, labels = make_batch(rng, batch=3, n_r=3, n_k=2, d=3)
    gamma = rng.random((3, 2))
    bundle.fusion.b_meta += 0.05 * rng.normal(size=bundle.fusion.b_meta.shape)
    cfg = unit_loss_config(3)
    logits, cache = model_forward(bundle, run_x, kick_x, gamma, mode="train",
                                  rng=np.random.default_rng(42),
                                  branches={"run", "meta"})
    grads = model_backward(bundle, cache, loss_backward(logits, labels, cfg))
    checked = {n: g for n, g in grads.items()
               if not n.startswith("kick_enc.")}
    worst = 0.0
    params = bundle.params
    for name, analytic in checked.items():
        def f(_):
            lg, _c = model_forward(bundle, run_x, kick_x, gamma,
                                   mode="train",
                                   rng=np.random.default_rng(42),
                                   branches={"run", "meta"})
            return weighted_smoothed_ce(lg, labels, cfg)
        num = numerical_grad(f, params[name], eps=1e-4)
        worst = max(worst, max_rel_error(analytic, num))
    assert worst < 1e-4, worst


def test_delta_init_range_reaches_every_layer():
    cfg = small_config(n_layers=2, delta_init_min=0.05, delta_init_max=0.05)
    bundle = build_model(4, 3, cfg, np.random.default_rng(23))
    from kickdir.numerics import softplus
    for enc in (bundle.run_enc, bundle.kick_enc):
        for lay in enc.layers:
            assert np.allclose(softplus(lay.block.ssm.b_delta), 0.05,
                               rtol=1e-12, atol=0.0)


def test_eval_chunk_size_follows_scan_tensor_size():
    from kickdir.model import eval_chunk_size
    narrow = build_model(16, 3, TrainConfig(), np.random.default_rng(24))
    wide = build_model(128, 3, TrainConfig(), np.random.default_rng(25))
    assert eval_chunk_size(narrow, 5) == 2 ** 18 // (5 * 32 * 16)
    assert eval_chunk_size(wide, 5) == 2 ** 18 // (5 * 256 * 16)
    assert eval_chunk_size(wide, 10 ** 9) == 1


def test_predict_logits_over_chunks_equals_single_calls(monkeypatch):
    import kickdir.model as model_mod
    bundle = build_model(6, 3, small_config(), np.random.default_rng(26))
    _, samples = generate_synthetic(11, embedding_dim=6, n_r=3, n_k=2, seed=6)
    # Three samples per chunk: (3 clips x 8 channels x 2 states) each.
    monkeypatch.setattr(model_mod, "EVAL_CHUNK_ELEMENTS", 3 * 3 * 8 * 2)
    assert model_mod.eval_chunk_size(bundle, 3) == 3
    chunked = predict_logits(bundle, samples)
    single = np.concatenate([predict_logits(bundle, [s]) for s in samples])
    assert chunked.shape == (11, 3)
    assert np.allclose(chunked, single, rtol=0.0, atol=1e-12)


def test_predict_logits_rejects_non_finite_sample():
    from kickdir.errors import DataError
    bundle = build_model(6, 3, small_config(), np.random.default_rng(27))
    _, samples = generate_synthetic(4, embedding_dim=6, n_r=3, n_k=2, seed=7)
    samples[2].kick_seq[1, 0] = np.inf
    with pytest.raises(DataError, match=samples[2].id):
        predict_logits(bundle, samples)


# ------------------------------------------------------------ flat layout


def test_flat_layout_views_tile_one_vector():
    bundle = build_model(16, 3, TrainConfig(), np.random.default_rng(28))
    for buf in (bundle.params, bundle.state):
        assert buf.vector.dtype == np.float64 and buf.vector.ndim == 1
        offset = 0
        for name, view in buf.items():
            assert view.flags.c_contiguous, name
            assert np.shares_memory(view, buf.vector), name
            assert view.ctypes.data == buf.vector.ctypes.data + 8 * offset, \
                name
            offset += view.size
        assert offset == buf.vector.size
    assert bundle.params.vector.size == 25_395
    assert len(bundle.params) == 86
    # The dataclass fields are the views themselves.
    assert bundle.params["fusion.w_out"] is bundle.fusion.w_out
    assert bundle.state["fusion.bn_running_var"] \
        is bundle.fusion.bn_running_var
    bundle.params.vector[:] = 0.5
    assert np.all(bundle.run_enc.layers[1].block.ssm.a_log == 0.5)


def test_name_at_maps_offsets_to_tensors():
    bundle = build_model(4, 3, small_config(), np.random.default_rng(29))
    buf = bundle.params
    for (name, _), lo, hi in zip(buf.table, buf.offsets, buf.offsets[1:]):
        assert buf.name_at(lo) == name and buf.name_at(hi - 1) == name


def test_pickled_bundle_keeps_views():
    import pickle
    bundle = build_model(6, 3, small_config(), np.random.default_rng(30))
    copy = pickle.loads(pickle.dumps(bundle))
    for buf in (copy.params, copy.state):
        assert all(np.shares_memory(v, buf.vector) for v in buf.values())
    assert copy.params["run_enc.proj_w"] is copy.run_enc.w_proj
    assert np.array_equal(copy.params.vector, bundle.params.vector)
    assert np.array_equal(copy.state.vector, bundle.state.vector)
    copy.fusion.b_out[0] = 7.0
    assert copy.params["fusion.b_out"][0] == 7.0
    assert bundle.fusion.b_out[0] != 7.0


def test_masked_backward_clears_stale_gradients():
    rng = np.random.default_rng(31)
    bundle = build_model(4, 3, small_config(), np.random.default_rng(32))
    run_x, kick_x, gamma, labels = make_batch(rng)
    cfg = unit_loss_config(3)
    buf = bundle.params.like()
    for branches, expect_kick in ((ALL_BRANCHES, True), ({"run"}, False)):
        logits, cache = model_forward(bundle, run_x, kick_x, gamma,
                                      mode="train",
                                      rng=np.random.default_rng(0),
                                      branches=branches)
        grads = model_backward(bundle, cache,
                               loss_backward(logits, labels, cfg), buf)
        assert grads is buf and list(grads) == list(bundle.params)
        kick = [g for n, g in grads.items() if n.startswith("kick_enc.")]
        assert any(g.any() for g in kick) == expect_kick
    assert not grads["fusion.w_meta"].any()


# ------------------------------------------------- kick branch worker thread


@pytest.fixture
def kick_worker(monkeypatch):
    """A fresh worker as the model's, on a machine that seems to have two
    usable CPUs; _force_path picks the path."""
    import kickdir.model as model_mod
    worker = model_mod.Worker()
    monkeypatch.setattr(model_mod, "WORKER", worker)
    monkeypatch.setattr(model_mod, "usable_cpus", lambda: 2)
    return worker


def _force_path(monkeypatch, threaded):
    """Threaded: every split is taken, the branch split at any size.
    Inline: one usable CPU, so no split is taken, whether by branch, by
    eval chunk or by AdamW block."""
    import kickdir.model as model_mod
    monkeypatch.setattr(model_mod, "THREAD_MIN_ELEMENTS", 0)
    monkeypatch.setattr(model_mod, "usable_cpus",
                        lambda: 2 if threaded else 1)


def _branch_outputs(d, batch):
    """Train-mode logits, the gradient vector, eval logits and the trained
    parameters and moments, at a shape above the default threshold."""
    cfg = TrainConfig(batch_size=batch, max_epochs=2, patience=2)
    _, samples = generate_synthetic(3 * batch, embedding_dim=d, seed=11)
    bundle = build_model(d, 3, cfg, np.random.default_rng(12))
    run_x, kick_x, gamma, labels = batch_inputs(samples[:batch])
    logits, cache = model_forward(bundle, run_x, kick_x, gamma, mode="train",
                                  rng=np.random.default_rng(13))
    grads = model_backward(bundle, cache,
                           loss_backward(logits, labels, unit_loss_config(3)))
    eval_logits = predict_logits(bundle, samples)
    trained, opt, _ = train_fold(samples[:2 * batch], samples[2 * batch:],
                                 cfg)
    return (logits, grads.vector, eval_logits, trained.params.vector,
            trained.state.vector, opt.m.vector, opt.v.vector)


@pytest.mark.parametrize("d, batch", [(16, 30), (128, 5)])
def test_threaded_branches_match_inline_bit_for_bit(monkeypatch, kick_worker,
                                                    d, batch):
    import kickdir.model as model_mod
    ssm = build_model(d, 3, TrainConfig(), np.random.default_rng(0)) \
        .run_enc.layers[0].block.ssm
    assert batch * 5 * ssm.channels * ssm.state_size \
        >= model_mod.THREAD_MIN_ELEMENTS
    _force_path(monkeypatch, threaded=False)
    inline = _branch_outputs(d, batch)
    assert kick_worker._pool is None
    _force_path(monkeypatch, threaded=True)
    threaded = _branch_outputs(d, batch)
    assert kick_worker._pool is not None
    for a, b in zip(inline, threaded):
        assert np.array_equal(a, b)


def test_threaded_backward_clears_stale_gradients(monkeypatch, kick_worker):
    rng = np.random.default_rng(33)
    bundle = build_model(4, 3, small_config(), np.random.default_rng(34))
    run_x, kick_x, gamma, labels = make_batch(rng)
    cfg = unit_loss_config(3)
    vectors = []
    for threaded in (False, True):
        _force_path(monkeypatch, threaded)
        buf = bundle.params.like()
        for branches in (ALL_BRANCHES, {"run", "kick"}):
            logits, cache = model_forward(bundle, run_x, kick_x, gamma,
                                          mode="train",
                                          rng=np.random.default_rng(0),
                                          branches=branches)
            model_backward(bundle, cache, loss_backward(logits, labels, cfg),
                           buf)
        assert not buf["fusion.w_meta"].any()
        vectors.append(buf.vector.copy())
    assert kick_worker._pool is not None
    assert np.array_equal(*vectors)


@pytest.mark.parametrize("threaded", [False, True], ids=["inline", "threaded"])
def test_backward_writes_every_view(monkeypatch, kick_worker, threaded):
    # Each backward overwrites the views it owns: an element it missed would
    # keep the NaN planted here. T=2 is shorter than conv_width=3, so the
    # kernel columns j >= T get no products and must still come out zero.
    _force_path(monkeypatch, threaded)
    rng = np.random.default_rng(35)
    cfg = unit_loss_config(3)
    heads = ((None, (ALL_BRANCHES, {"run"}, {"run", "kick"})),
             ({"run", "meta"}, ({"run", "meta"}, {"run"})))
    for use_conv, n_r, n_k in ((True, 3, 2), (False, 3, 2), (True, 2, 2)):
        run_x, kick_x, gamma, labels = make_batch(rng, n_r=n_r, n_k=n_k)
        for head, branch_sets in heads:
            bundle = build_model(4, 3, small_config(use_conv=use_conv),
                                 np.random.default_rng(36), head_branches=head)
            for branches in branch_sets:
                logits, cache = model_forward(bundle, run_x, kick_x, gamma,
                                              mode="train",
                                              rng=np.random.default_rng(0),
                                              branches=branches)
                dlogits = loss_backward(logits, labels, cfg)
                zero = model_backward(bundle, cache, dlogits)
                buf = bundle.params.like()
                buf.vector.fill(np.nan)
                model_backward(bundle, cache, dlogits, buf)
                case = (use_conv, n_r, head, sorted(branches))
                assert np.isfinite(buf.vector).all(), case
                assert np.array_equal(buf.vector, zero.vector), case
    assert (kick_worker._pool is not None) == threaded


def test_small_shapes_never_start_the_worker(kick_worker):
    _, samples = generate_synthetic(20, embedding_dim=16, seed=14)
    for d in (16, 128):
        bundle = build_model(d, 3, TrainConfig(), np.random.default_rng(15))
        predict_logits(bundle, generate_synthetic(
            1, embedding_dim=d, seed=16)[1])
    cfg = TrainConfig(batch_size=5, max_epochs=1, patience=1)
    train_fold(samples[:15], samples[15:], cfg)
    assert kick_worker._pool is None


@pytest.mark.parametrize("threaded", [False, True])
def test_kick_branch_overflow_raises_under_errstate(monkeypatch, kick_worker,
                                                    threaded):
    _force_path(monkeypatch, threaded)
    bundle = build_model(16, 3, TrainConfig(), np.random.default_rng(17))
    run_x, kick_x, gamma, _ = make_batch(np.random.default_rng(18), batch=30,
                                         n_r=5, n_k=3, d=16)
    # The kick branch's layer norm squares values near 1e201.
    with np.errstate(over="raise"):
        model_forward(bundle, run_x, kick_x, gamma, mode="eval")
        with pytest.raises(FloatingPointError):
            model_forward(bundle, run_x, kick_x * 1e200, gamma, mode="eval")
    assert (kick_worker._pool is not None) == threaded


def test_branch_errors_surface_in_serial_order(kick_worker):
    import threading
    import time
    kick_done = threading.Event()

    def fail(name):
        def task():
            raise RuntimeError(name)
        return task

    def slow_kick_failure():
        time.sleep(0.05)
        kick_done.set()
        raise RuntimeError("kick")

    def ok(value):
        return lambda: value

    with pytest.raises(RuntimeError, match="run"):
        kick_worker.run(fail("run"), slow_kick_failure)
    # The run-up error surfaces only once the kick task is done.
    assert kick_done.is_set()
    with pytest.raises(RuntimeError, match="kick"):
        kick_worker.run(ok("a"), fail("kick"))
    with pytest.raises(RuntimeError, match="run"):
        kick_worker.run(fail("run"), ok("b"))
    assert kick_worker.run(ok("a"), ok("b")) == ("a", "b")
    assert kick_worker._pool is not None


def test_concurrent_callers_start_one_worker(monkeypatch, kick_worker):
    import sys
    import threading
    import time
    import kickdir.model as model_mod
    pools = []

    def counted_pool(*args, **kwargs):
        time.sleep(0.01)  # widens the window between check and set
        pools.append(real_pool(*args, **kwargs))
        return pools[-1]

    real_pool = model_mod.ThreadPoolExecutor
    monkeypatch.setattr(model_mod, "ThreadPoolExecutor", counted_pool)
    bundle = build_model(4, 3, small_config(), np.random.default_rng(21))
    run_x, kick_x, gamma, _ = make_batch(np.random.default_rng(22))
    _force_path(monkeypatch, threaded=False)
    expected, _ = model_forward(bundle, run_x, kick_x, gamma, mode="eval")
    _force_path(monkeypatch, threaded=True)
    callers = 8
    start = threading.Barrier(callers)
    results = [None] * callers

    def call(i):
        start.wait(timeout=30)
        for _ in range(20):
            results[i], _ = model_forward(bundle, run_x, kick_x, gamma,
                                          mode="eval")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(pools) == 1
    for got in results:
        assert np.array_equal(got, expected)


def _threaded_logits_in_child(bundle, run_x, kick_x, gamma, expected):
    logits, _ = model_forward(bundle, run_x, kick_x, gamma, mode="eval")
    if not np.array_equal(logits, expected):
        raise SystemExit(1)


def test_forked_child_starts_its_own_worker(monkeypatch):
    import multiprocessing
    import kickdir.model as model_mod
    # The model's own worker: the fork hook is registered for it.
    monkeypatch.setattr(model_mod, "usable_cpus", lambda: 2)
    _force_path(monkeypatch, threaded=True)
    bundle = build_model(16, 3, TrainConfig(), np.random.default_rng(19))
    run_x, kick_x, gamma, _ = make_batch(np.random.default_rng(20), batch=30,
                                         n_r=5, n_k=3, d=16)
    expected, _ = model_forward(bundle, run_x, kick_x, gamma, mode="eval")
    assert model_mod.WORKER._pool is not None
    child = multiprocessing.get_context("fork").Process(
        target=_threaded_logits_in_child,
        args=(bundle, run_x, kick_x, gamma, expected))
    child.start()
    child.join(timeout=120)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child waited on its parent's worker thread")
    assert child.exitcode == 0


# ------------------------------------------ eval chunks and AdamW blocks


def _seven_chunks(monkeypatch, n=20):
    """A small model and n samples that eval splits into chunks of three."""
    import kickdir.model as model_mod
    bundle = build_model(6, 3, small_config(), np.random.default_rng(40))
    _, samples = generate_synthetic(n, embedding_dim=6, n_r=3, n_k=2, seed=41)
    monkeypatch.setattr(model_mod, "EVAL_CHUNK_ELEMENTS", 3 * 3 * 8 * 2)
    assert -(-n // model_mod.eval_chunk_size(bundle, 3)) == 7
    return bundle, samples


def test_chunk_parallel_predict_matches_one_cpu(monkeypatch, kick_worker):
    bundle, samples = _seven_chunks(monkeypatch)
    _force_path(monkeypatch, threaded=False)
    serial = predict_logits(bundle, samples)
    assert kick_worker._pool is None
    _force_path(monkeypatch, threaded=True)
    for _ in range(5):
        assert np.array_equal(predict_logits(bundle, samples), serial)
    assert kick_worker._pool is not None


def test_chunk_errors_name_the_first_bad_sample(monkeypatch, kick_worker):
    from kickdir.errors import DataError
    bundle, samples = _seven_chunks(monkeypatch)
    expected = predict_logits(bundle, samples)
    assert kick_worker._pool is not None
    bad = [samples[i] for i in (4, 13)]  # in the second and fifth chunks
    bad[0].run_seq[0, 0] = np.nan
    bad[1].kick_seq[1, 2] = np.inf
    for _ in range(5):
        with pytest.raises(DataError, match=bad[0].id):
            predict_logits(bundle, samples)
    clean = samples[:3] + samples[6:12] + samples[15:]
    assert np.array_equal(predict_logits(bundle, clean),
                          np.concatenate([expected[:3], expected[6:12],
                                          expected[15:]]))


def test_worker_raises_the_first_failing_task(kick_worker):
    import threading
    import time
    started = threading.Event()

    def slow_failure():
        started.wait(timeout=30)  # the worker has taken the second task
        time.sleep(0.02)
        raise RuntimeError("first")

    def quick_failure():
        started.set()
        raise RuntimeError("second")

    with pytest.raises(RuntimeError, match="first"):
        kick_worker.run(slow_failure, quick_failure, lambda: 3)
    assert kick_worker.run(lambda: 1, lambda: 2, lambda: 3) == (1, 2, 3)


def test_errstate_reaches_a_chunk_on_the_worker(monkeypatch, kick_worker):
    import threading
    import kickdir.model as model_mod
    bundle, samples = _seven_chunks(monkeypatch)
    bundle.kick_enc.w_proj *= 1e200  # the kick branch's layer norm overflows
    worker_ran = threading.Event()
    runs = []  # (on the worker, raised FloatingPointError) per chunk
    real_forward = model_mod.model_forward

    def forward(*args, **kwargs):
        on_worker = threading.current_thread().name.startswith("kickdir")
        if not on_worker:
            # The caller holds its first chunk until the worker has run one.
            assert worker_ran.wait(timeout=30)
        overflow = False
        try:
            return real_forward(*args, **kwargs)
        except FloatingPointError:
            overflow = True
            raise
        finally:
            runs.append((on_worker, overflow))
            if on_worker:
                worker_ran.set()

    monkeypatch.setattr(model_mod, "model_forward", forward)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            predict_logits(bundle, samples)
    assert len(runs) == 7 and any(on_worker for on_worker, _ in runs)
    assert all(overflow for _, overflow in runs)


def test_concurrent_multi_chunk_callers_finish(monkeypatch, kick_worker):
    import sys
    import threading
    bundle, samples = _seven_chunks(monkeypatch)
    callers = 6
    _force_path(monkeypatch, threaded=False)
    expected = [predict_logits(bundle, samples[i:]) for i in range(callers)]
    _force_path(monkeypatch, threaded=True)
    start = threading.Barrier(callers)
    results = [[] for _ in range(callers)]

    def call(i):
        start.wait(timeout=30)
        for _ in range(10):
            results[i].append(predict_logits(bundle, samples[i:]))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for i, got in enumerate(results):
        assert len(got) == 10
        assert all(np.array_equal(g, expected[i]) for g in got)


def test_one_chunk_and_one_block_never_start_the_worker(monkeypatch,
                                                       kick_worker):
    import kickdir.model as model_mod
    from kickdir.train import ADAMW_BLOCK, adamw_step, init_optimizer
    bundle, samples = _seven_chunks(monkeypatch)
    # No branch split, so only a chunk split can start the worker.
    monkeypatch.setattr(model_mod, "THREAD_MIN_ELEMENTS", 2 ** 62)
    predict_logits(bundle, samples[:3])
    rng = np.random.default_rng(44)
    params = FlatBuffer([("w", (ADAMW_BLOCK,))], rng.normal(size=ADAMW_BLOCK))
    adamw_step(params, FlatBuffer(params.table, rng.normal(size=ADAMW_BLOCK)),
               init_optimizer(params), lr_t=1e-3)
    assert kick_worker._pool is None
    predict_logits(bundle, samples[:4])
    assert kick_worker._pool is not None


def test_nested_run_stays_on_its_thread(monkeypatch, kick_worker):
    import threading
    submits = []
    executor = kick_worker._executor
    monkeypatch.setattr(kick_worker, "_executor",
                        lambda: submits.append(1) or executor())

    def name():
        return threading.current_thread().name

    def nested():
        return kick_worker.run(name, name) + (name(),)

    for names in kick_worker.run(nested, nested):
        assert len(set(names)) == 1
    assert len(submits) == 1
