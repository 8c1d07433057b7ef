"""Acceptance gate: eleven shipping criteria, one test per criterion.

Each test prints a single `criterion NN <name>: PASS/FAIL (detail)` line
(visible with -s, or in captured output on failure) and asserts the stated
tolerance. The heavy end-to-end criteria train real models, so this module
takes several minutes; everything is seeded and deterministic.
"""

import math
import time

import numpy as np
import pytest

from kickdir.cli import EXIT_OK, main
from kickdir.config import TrainConfig
from kickdir.data import (
    CENTER,
    LEFT,
    Metadata,
    PenaltySample,
    binarize,
    generate_synthetic,
    load_dataset,
    save_dataset,
    stratified_kfold,
)
from kickdir.augment import AugmentConfig, augment
from kickdir.fusion import (
    LossConfig,
    loss_backward,
    unit_loss_config,
    weighted_smoothed_ce,
)
from kickdir.gradcheck import max_rel_error, numerical_grad
from kickdir.metrics import (
    confusion_from_labels,
    evaluate,
    mean_report,
)
from kickdir.model import (
    FlatBuffer,
    build_model,
    model_backward,
    model_forward,
    predict_logits,
)
from kickdir.numerics import log_softmax
from kickdir.report import parse_kv
from kickdir.ssm import (
    ZOH_LIMIT,
    discretize_zoh,
    init_ssm_params,
    scan_parallel,
    scan_recurrent,
)
from kickdir.train import (
    adamw_step,
    cosine_warmup_lr,
    init_optimizer,
    load_checkpoint,
    save_checkpoint,
    train_fold,
)


def _verdict(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _crossval_mean_accuracy(samples, cfg, branches=None):
    split = stratified_kfold(samples, k=cfg.k_folds, seed=cfg.seed)
    reports = []
    for fold in range(cfg.k_folds):
        train_s, val_s = split.split(samples, fold)
        bundle, _, _ = train_fold(train_s, val_s, cfg, fold=fold,
                                  branches=branches)
        _, report = evaluate(bundle, val_s, branches=branches)
        reports.append(report)
    return mean_report(reports).accuracy


# -------------------------------------------------------------- criterion 1


def test_criterion_01_gradient_correctness():
    cfg = TrainConfig(branch_width=8, state_size=4, n_layers=2, conv_width=4,
                      meta_dim=8, fusion_hidden=16, dropout=0.0,
                      augment=False)
    rng = np.random.default_rng(101)
    bundle = build_model(8, 3, cfg, np.random.default_rng(100))
    # Dither the zero-initialized biases so no ReLU sits exactly on its
    # kink, where central differences are not a valid derivative estimate.
    bundle.fusion.b_meta += 0.05 * rng.normal(size=bundle.fusion.b_meta.shape)
    bundle.fusion.b_h += 0.05 * rng.normal(size=bundle.fusion.b_h.shape)
    run_x = rng.normal(size=(4, 5, 8))
    kick_x = rng.normal(size=(4, 3, 8))
    gamma = rng.random((4, 2))
    labels = np.array([0, 1, 2, 0])
    loss_cfg = LossConfig(class_weights=np.array([1.1, 0.85, 1.05]),
                          label_smoothing=0.05)

    start = time.monotonic()
    logits, cache = model_forward(bundle, run_x, kick_x, gamma, mode="train",
                                  rng=np.random.default_rng(999))
    grads = model_backward(bundle, cache,
                           loss_backward(logits, labels, loss_cfg))
    params = bundle.params
    assert set(grads) == set(params)
    worst = 0.0
    for name, analytic in grads.items():
        def f(_):
            lg, _ = model_forward(bundle, run_x, kick_x, gamma, mode="train",
                                  rng=np.random.default_rng(999))
            return weighted_smoothed_ce(lg, labels, loss_cfg)
        numeric = numerical_grad(f, params[name], eps=1e-5)
        worst = max(worst, max_rel_error(analytic, numeric))
    elapsed = time.monotonic() - start

    ok = worst < 1e-4 and elapsed < 60.0
    assert _verdict(1, "gradient-correctness", ok,
                    f"max rel err {worst:.3e}, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 2


def test_criterion_02_scan_equivalence():
    rng = np.random.default_rng(202)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        bsz = int(rng.integers(1, 3))
        t_len = int(rng.integers(1, 65))
        h = int(rng.integers(1, 9))
        n = int(rng.integers(1, 7))
        params = init_ssm_params(h, n, rng)
        x = rng.normal(size=(bsz, t_len, h))
        worst = max(worst, max_rel_error(scan_recurrent(x, params),
                                         scan_parallel(x, params)))
    elapsed = time.monotonic() - start
    ok = worst < 1e-5 and elapsed < 10.0
    assert _verdict(2, "scan-equivalence", ok,
                    f"100 instances, max rel err {worst:.3e}, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 3


def test_criterion_03_discretization():
    a_bar, b_bar = discretize_zoh(-1.0, 1.0, math.log(2.0))
    closed_err = max(abs(float(a_bar) - 0.5), abs(float(b_bar) - 0.5))

    # Continuity at the limit-branch switch |delta * a| = 1e-6: both
    # branches evaluated at the threshold itself must agree, and a straddle
    # narrow enough (1e-4 relative) that the function's own slope stays
    # below the tolerance must show no jump.
    a = -1.0
    at = discretize_zoh(a, 1.0, ZOH_LIMIT)[1]               # limit branch
    exact = (np.exp(ZOH_LIMIT * a) - 1.0) / a               # exact formula
    below = discretize_zoh(a, 1.0, ZOH_LIMIT * (1 - 1e-4))[1]
    above = discretize_zoh(a, 1.0, ZOH_LIMIT * (1 + 1e-4))[1]
    cont_err = max(abs(float(at) - float(exact)),
                   abs(float(above) - float(below)))

    ok = closed_err <= 1e-12 and cont_err <= 1e-9
    assert _verdict(3, "discretization", ok,
                    f"closed-form err {closed_err:.2e}, "
                    f"continuity err {cont_err:.2e}")


# -------------------------------------------------------------- criterion 4


def test_criterion_04_loss_identities():
    # Uniform logits, three classes.
    uniform = weighted_smoothed_ce(np.zeros((4, 3)), np.array([0, 1, 2, 1]),
                                   unit_loss_config(3))
    uniform_err = abs(uniform - math.log(3.0))

    # Smoothing 0 + unit weights reduces to the plain mean NLL.
    rng = np.random.default_rng(404)
    logits = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    loss = weighted_smoothed_ce(logits, labels, unit_loss_config(3))
    nll = -log_softmax(logits, axis=-1)[np.arange(6), labels].mean()
    reduction_err = abs(loss - nll)

    # Adding a constant to every logit changes nothing.
    shifted = weighted_smoothed_ce(logits + 11.7, labels, unit_loss_config(3))
    shift_err = abs(loss - shifted)

    ok = (uniform_err <= 1e-12 and reduction_err <= 1e-12
          and shift_err <= 1e-12)
    assert _verdict(4, "loss-identities", ok,
                    f"ln3 err {uniform_err:.2e}, reduction err "
                    f"{reduction_err:.2e}, shift err {shift_err:.2e}")


# -------------------------------------------------------------- criterion 5


def test_criterion_05_end_to_end_learning():
    start = time.monotonic()
    _, samples = generate_synthetic(1000, embedding_dim=16, noise_std=0.0,
                                    signal_strength=1.0, seed=7)
    cfg3 = TrainConfig()
    acc3 = _crossval_mean_accuracy(samples, cfg3)
    cfg2 = TrainConfig(n_classes=2)
    acc2 = _crossval_mean_accuracy(binarize(samples, n_classes=3), cfg2)
    elapsed = time.monotonic() - start
    ok = acc3 >= 0.95 and acc2 >= 0.95 and elapsed < 600.0
    assert _verdict(5, "end-to-end-learning", ok,
                    f"3-class {acc3:.4f}, 2-class {acc2:.4f}, "
                    f"{elapsed:.0f}s")


# -------------------------------------------------------------- criterion 6


def test_criterion_06_null_signal_sanity():
    manifest, samples = generate_synthetic(1000, embedding_dim=16,
                                           noise_std=0.0,
                                           signal_strength=0.0, seed=7)
    majority = max(manifest.class_counts) / manifest.count
    acc = _crossval_mean_accuracy(samples, TrainConfig())
    gap = abs(acc - majority)
    ok = gap <= 0.05
    assert _verdict(6, "null-signal-sanity", ok,
                    f"mean acc {acc:.4f} vs majority {majority:.4f}, "
                    f"gap {gap:.4f}")


# -------------------------------------------------------------- criterion 7


def test_criterion_07_ablation_structure(tmp_path):
    data = tmp_path / "abl.pkds"
    _, samples = generate_synthetic(240, embedding_dim=12, noise_std=0.2,
                                    signal_strength=1.0, seed=13)
    save_dataset(data, samples)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "batch_size=8\nmax_epochs=14\npatience=14\nlr=0.003\nk_folds=4\n"
        "state_size=4\nn_layers=1\nconv_width=3\nmeta_dim=8\n"
        "fusion_hidden=32\ndropout=0.0\naugment=false\nseed=0\n")
    run = tmp_path / "run"
    assert main(["ablate", "--data", str(data), "--config", str(cfg),
                 "--out-dir", str(run)]) == EXIT_OK
    kv = parse_kv((run / "ablation.kv").read_text())

    labels = [kv[f"row.{i}.branches"] for i in range(int(kv["rows"]))]
    accs = [float(kv[f"row.{i}.accuracy"]) for i in range(int(kv["rows"]))]
    structure_ok = labels == ["Running", "Running+Kicking",
                              "Running+Kicking+Metadata"]
    monotone_ok = accs[0] <= accs[1] <= accs[2]
    ok = structure_ok and monotone_ok
    assert _verdict(7, "ablation-structure", ok,
                    "rows " + " / ".join(labels) + ", accuracies "
                    + " -> ".join(f"{a:.4f}" for a in accs))


# -------------------------------------------------------------- criterion 8


def _counted_samples():
    samples = []
    i = 0
    for label, count in ((0, 294), (1, 103), (2, 225)):
        for _ in range(count):
            samples.append(PenaltySample(
                id=f"s{i:06d}",
                run_seq=np.zeros((2, 6), dtype=np.float32),
                kick_seq=np.zeros((2, 6), dtype=np.float32),
                meta=Metadata(side=i % 2, foot=(i // 2) % 2),
                label=label,
                gk_direction=None))
            i += 1
    return samples


def test_criterion_08_reference_count_arithmetic():
    samples = _counted_samples()
    assert len(samples) == 622
    binary = binarize(samples, n_classes=3)

    preds = np.full(622, LEFT)
    labels = np.array([s.label for s in samples])
    acc = confusion_from_labels(labels, preds, 3).accuracy
    acc_err = abs(acc - 294.0 / 622.0)

    split = stratified_kfold(samples, k=10, seed=0)
    sizes, centers = [], []
    for fold in range(10):
        _, held = split.split(samples, fold)
        sizes.append(len(held))
        centers.append(sum(1 for s in held if s.label == CENTER))

    ok = (len(binary) == 519 and acc_err <= 1e-9
          and set(sizes) <= {62, 63} and set(centers) <= {10, 11})
    assert _verdict(8, "reference-count-arithmetic", ok,
                    f"binarized {len(binary)}, constant-left err "
                    f"{acc_err:.1e}, fold sizes {sorted(set(sizes))}, "
                    f"center counts {sorted(set(centers))}")


# -------------------------------------------------------------- criterion 9


def test_criterion_09_training_recipe_conformance():
    _, samples = generate_synthetic(70, embedding_dim=8, noise_std=0.1,
                                    seed=21)
    cfg = TrainConfig(batch_size=10, max_epochs=4, patience=4, lr=2e-3,
                      warmup_frac=0.2, k_folds=5, state_size=4, n_layers=1,
                      conv_width=3, meta_dim=4, fusion_hidden=8, dropout=0.1,
                      augment=True, seed=3)
    split = stratified_kfold(samples, k=cfg.k_folds, seed=cfg.seed)
    train_s, val_s = split.split(samples, 0)
    _, _, history = train_fold(train_s, val_s, cfg, fold=0)

    total = cfg.max_epochs * (len(train_s) // cfg.batch_size)
    warmup = int(cfg.warmup_frac * total)
    expected = [cosine_warmup_lr(i, warmup, total, lr_max=cfg.lr)
                for i in range(len(history.step_lr))]
    lr_err = max(abs(a - b) for a, b in zip(history.step_lr, expected))
    trace_ok = len(history.step_lr) == total and lr_err == 0.0
    clip_ok = all(n <= 1.0 + 1e-9 for n in history.step_grad_norm_clipped)

    # Zero-gradient AdamW is pure decoupled weight decay: exact geometric
    # parameter decay at rate (1 - lr * wd) per step.
    theta0 = np.linspace(0.5, 2.0, 7)
    params = FlatBuffer([("w", (7,))], theta0.copy())
    zero = params.like()
    opt = init_optimizer(params)
    for _ in range(100):
        adamw_step(params, zero, opt, lr_t=1e-3, wd=5e-2)
    expected_theta = theta0 * (1.0 - 1e-3 * 5e-2) ** 100
    decay_err = float(np.max(np.abs(params["w"] - expected_theta)
                             / np.abs(expected_theta)))

    ok = trace_ok and clip_ok and decay_err <= 1e-10
    assert _verdict(9, "training-recipe-conformance", ok,
                    f"lr trace err {lr_err:.1e} over {total} steps, "
                    f"post-clip max "
                    f"{max(history.step_grad_norm_clipped):.6f}, "
                    f"decay err {decay_err:.1e}")


# ------------------------------------------------------------- criterion 10


def _mc_sample(rng, n_r=12, n_k=6, d=16):
    return PenaltySample(
        id="mc", run_seq=rng.normal(size=(n_r, d)).astype(np.float32),
        kick_seq=rng.normal(size=(n_k, d)).astype(np.float32),
        meta=Metadata(side=0, foot=1), label=0, gk_direction=None)


def test_criterion_10_augmentation_statistics():
    trials = 10_000
    rng = np.random.default_rng(1010)

    # The pipeline returns the input object untouched when the gate does
    # not fire, so identity is an exact firing detector.
    gate_cfg = AugmentConfig(apply_prob=0.90)
    fired = 0
    for _ in range(trials):
        s = _mc_sample(rng)
        fired += augment(s, gate_cfg, rng) is not s
    gate_rate = fired / trials

    frame_cfg = AugmentConfig(apply_prob=1.0, temporal_mask_max_frac=0.0,
                              temporal_shift_max=0, frame_dropout=0.08,
                              gaussian_noise_std=0.0,
                              magnitude_jitter_std=0.0, feature_dropout=0.0,
                              metadata_noise_std=0.0)
    zero_rows = total_rows = 0
    for _ in range(trials):
        out = augment(_mc_sample(rng), frame_cfg, rng)
        zero_rows += int(np.sum(~out.run_seq.any(axis=1)))
        total_rows += out.run_seq.shape[0]
    frame_rate = zero_rows / total_rows

    feat_cfg = AugmentConfig(apply_prob=1.0, temporal_mask_max_frac=0.0,
                             temporal_shift_max=0, frame_dropout=0.0,
                             gaussian_noise_std=0.0,
                             magnitude_jitter_std=0.0, feature_dropout=0.05,
                             metadata_noise_std=0.0)
    zero_cols = total_cols = 0
    for _ in range(trials):
        out = augment(_mc_sample(rng), feat_cfg, rng)
        zero_cols += int(np.sum(~out.run_seq.any(axis=0)))
        total_cols += out.run_seq.shape[1]
    feat_rate = zero_cols / total_cols

    mask_cfg = AugmentConfig(apply_prob=1.0, temporal_mask_max_frac=0.25,
                             temporal_shift_max=0, frame_dropout=0.0,
                             gaussian_noise_std=0.0, magnitude_jitter_std=0.0,
                             feature_dropout=0.0, metadata_noise_std=0.0)
    mask_ok = True
    for _ in range(trials):
        out = augment(_mc_sample(rng), mask_cfg, rng)
        for seq in (out.run_seq, out.kick_seq):
            bound = math.ceil(0.25 * seq.shape[0])
            mask_ok &= int(np.sum(~seq.any(axis=1))) <= bound

    ok = (abs(gate_rate - 0.90) <= 0.01 and abs(frame_rate - 0.08) <= 0.01
          and abs(feat_rate - 0.05) <= 0.01 and mask_ok)
    assert _verdict(10, "augmentation-statistics", ok,
                    f"gate {gate_rate:.4f}, frame dropout {frame_rate:.4f}, "
                    f"feature dropout {feat_rate:.4f}, mask bound "
                    f"{'respected' if mask_ok else 'violated'}")


# ------------------------------------------------------------- criterion 11


def test_criterion_11_determinism_and_round_trip(tmp_path):
    # Identical seeds -> byte-identical dataset files.
    _, s1 = generate_synthetic(40, embedding_dim=8, seed=5)
    _, s2 = generate_synthetic(40, embedding_dim=8, seed=5)
    p1, p2 = tmp_path / "a.pkds", tmp_path / "b.pkds"
    save_dataset(p1, s1)
    save_dataset(p2, s2)
    files_ok = p1.read_bytes() == p2.read_bytes()

    # Dataset round trip is lossless.
    manifest, loaded = load_dataset(p1)
    data_ok = manifest.count == 40 and all(
        np.array_equal(a.run_seq, b.run_seq)
        and np.array_equal(a.kick_seq, b.kick_seq)
        and a.meta == b.meta and a.label == b.label
        and a.gk_direction == b.gk_direction and a.id == b.id
        for a, b in zip(s1, loaded))

    # Identical seeds -> identical history logs; checkpoints round-trip.
    cfg = TrainConfig(batch_size=8, max_epochs=3, patience=3, k_folds=4,
                      state_size=4, n_layers=1, conv_width=3, meta_dim=4,
                      fusion_hidden=8, dropout=0.1, augment=True, seed=9)
    split = stratified_kfold(s1, k=cfg.k_folds, seed=cfg.seed)
    train_s, val_s = split.split(s1, 0)
    bundle_a, opt_a, hist_a = train_fold(train_s, val_s, cfg, fold=0)
    bundle_b, _, hist_b = train_fold(train_s, val_s, cfg, fold=0)
    history_ok = hist_a.to_text() == hist_b.to_text()

    ckpt = tmp_path / "fold.npz"
    save_checkpoint(ckpt, bundle_a, opt_a, hist_a, cfg)
    bundle_c, opt_c, hist_c, cfg_c = load_checkpoint(ckpt)
    params_a, params_c = bundle_a.params, bundle_c.params
    state_a, state_c = bundle_a.state, bundle_c.state
    ckpt_ok = (
        all(np.array_equal(params_a[k], params_c[k]) for k in params_a)
        and all(np.array_equal(state_a[k], state_c[k]) for k in state_a)
        and all(np.array_equal(opt_a.m[k], opt_c.m[k]) for k in opt_a.m)
        and all(np.array_equal(opt_a.v[k], opt_c.v[k]) for k in opt_a.v)
        and opt_c.t == opt_a.t
        and hist_c.to_text() == hist_a.to_text()
        and cfg_c == cfg
        and np.array_equal(predict_logits(bundle_a, val_s),
                           predict_logits(bundle_c, val_s)))

    # Identical seeds -> byte-identical run reports, through the CLI.
    data = tmp_path / "cli.pkds"
    assert main(["generate", "--out", str(data), "--samples", "60",
                 "--dim", "8", "--seed", "5"]) == EXIT_OK
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(
        "batch_size=8\nmax_epochs=2\npatience=2\nk_folds=3\nstate_size=4\n"
        "n_layers=1\nconv_width=3\nmeta_dim=4\nfusion_hidden=8\n"
        "dropout=0.1\naugment=false\nseed=0\n")
    for run in ("r1", "r2"):
        assert main(["crossval", "--data", str(data), "--config",
                     str(cfg_path), "--out-dir", str(tmp_path / run)]) \
            == EXIT_OK
        assert main(["report", "--run-dir", str(tmp_path / run)]) == EXIT_OK
    reports_ok = all(
        (tmp_path / "r1" / rel).read_bytes()
        == (tmp_path / "r2" / rel).read_bytes()
        for rel in ("metrics.kv", "metrics.txt",
                    "folds/fold_00_history.txt", "report/report.txt",
                    "confusion_pooled.svg"))

    ok = files_ok and data_ok and history_ok and ckpt_ok and reports_ok
    assert _verdict(11, "determinism-and-round-trip", ok,
                    f"dataset files {'==' if files_ok else '!='}, "
                    f"round trips {'lossless' if data_ok and ckpt_ok else 'LOSSY'}, "
                    f"history {'==' if history_ok else '!='}, "
                    f"reports {'==' if reports_ok else '!='}")
