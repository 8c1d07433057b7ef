"""Tests for the embedding-level augmentation pipeline."""

import numpy as np
import pytest

from kickdir.augment import AugmentConfig, augment
from kickdir.data import generate_synthetic


def fresh_sample(seed=0, n_r=8, n_k=6, d=6):
    _, samples = generate_synthetic(1, embedding_dim=d, n_r=n_r, n_k=n_k,
                                    noise_std=0.3, seed=seed)
    return samples[0]


NULL = AugmentConfig(apply_prob=1.0, temporal_mask_max_frac=0.0,
                     temporal_shift_max=0, frame_dropout=0.0,
                     gaussian_noise_std=0.0, magnitude_jitter_std=0.0,
                     feature_dropout=0.0, metadata_noise_std=0.0)


def test_disabled_pipeline_is_identity():
    sample = fresh_sample()
    cfg = AugmentConfig(apply_prob=0.0)
    for seed in range(5):
        out = augment(sample, cfg, np.random.default_rng(seed))
        assert out is sample


def test_null_parameters_identity_when_firing():
    sample = fresh_sample()
    out = augment(sample, NULL, np.random.default_rng(3))
    assert out is not sample
    assert np.array_equal(out.run_seq, sample.run_seq)
    assert np.array_equal(out.kick_seq, sample.kick_seq)
    assert out.label == sample.label
    assert out.meta == sample.meta
    assert out.meta_float is None


def test_frame_dropout_monte_carlo_rate():
    from dataclasses import replace as dc_replace

    cfg = dc_replace(NULL, frame_dropout=0.08)
    rng = np.random.default_rng(123)
    sample = fresh_sample(n_r=10, n_k=10)
    zeroed = total = 0
    for _ in range(1000):
        out = augment(sample, cfg, rng)
        for seq in (out.run_seq, out.kick_seq):
            zeroed += int(np.sum(np.all(seq == 0.0, axis=1)))
            total += seq.shape[0]
    assert 0.07 <= zeroed / total <= 0.09


def test_shapes_and_labels_preserved():
    cfg = AugmentConfig()
    rng = np.random.default_rng(7)
    sample = fresh_sample()
    for _ in range(50):
        out = augment(sample, cfg, rng)
        assert out.run_seq.shape == sample.run_seq.shape
        assert out.kick_seq.shape == sample.kick_seq.shape
        assert out.label == sample.label
        assert out.gk_direction == sample.gk_direction
        assert out.meta == sample.meta


def test_mask_span_bound():
    from dataclasses import replace as dc_replace

    cfg = dc_replace(NULL, temporal_mask_max_frac=0.25)
    rng = np.random.default_rng(11)
    sample = fresh_sample(n_r=12, n_k=9)
    for _ in range(400):
        out = augment(sample, cfg, rng)
        for seq in (out.run_seq, out.kick_seq):
            t_len = seq.shape[0]
            zero_rows = int(np.sum(np.all(seq == 0.0, axis=1)))
            assert zero_rows <= int(np.ceil(0.25 * t_len))


def test_deterministic_given_seed():
    cfg = AugmentConfig()
    sample = fresh_sample()
    a = augment(sample, cfg, np.random.default_rng(42))
    b = augment(sample, cfg, np.random.default_rng(42))
    assert np.array_equal(a.run_seq, b.run_seq)
    assert np.array_equal(a.kick_seq, b.kick_seq)
    assert np.array_equal(a.meta_float, b.meta_float)


def test_metadata_noise_lands_on_float_copy():
    from dataclasses import replace as dc_replace

    cfg = dc_replace(NULL, metadata_noise_std=0.01)
    sample = fresh_sample()
    out = augment(sample, cfg, np.random.default_rng(5))
    assert out.meta == sample.meta  # stored bits untouched
    assert out.meta_float is not None
    assert not np.array_equal(out.meta_float, sample.meta.as_floats())
    assert np.max(np.abs(out.meta_float - sample.meta.as_floats())) < 0.1


def test_temporal_shift_is_circular():
    from dataclasses import replace as dc_replace

    cfg = dc_replace(NULL, temporal_shift_max=2)
    sample = fresh_sample()
    rng = np.random.default_rng(13)
    seen_nontrivial = False
    for _ in range(30):
        out = augment(sample, cfg, rng)
        # circular shift preserves the multiset of clip vectors
        got = {tuple(row) for row in out.run_seq}
        want = {tuple(row) for row in sample.run_seq}
        assert got == want
        if not np.array_equal(out.run_seq, sample.run_seq):
            seen_nontrivial = True
    assert seen_nontrivial


def test_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(apply_prob=1.5)
    with pytest.raises(ValueError):
        AugmentConfig(gaussian_noise_std=-0.1)
    with pytest.raises(ValueError):
        AugmentConfig(temporal_shift_max=-1)
