"""Training-time augmentation over clip-embedding sequences.

The whole pipeline fires with probability apply_prob; once it fires, every
transform is applied, in a fixed order, to both phases. Labels, sequence
lengths, and the stored binary metadata never change; metadata noise lands
on the float metadata pair fed to the model.
"""

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class AugmentConfig:
    apply_prob: float = 0.90
    temporal_mask_max_frac: float = 0.25
    temporal_shift_max: int = 2
    frame_dropout: float = 0.08
    gaussian_noise_std: float = 0.012
    magnitude_jitter_std: float = 0.04
    feature_dropout: float = 0.05
    metadata_noise_std: float = 0.01

    def __post_init__(self):
        for name in ("apply_prob", "temporal_mask_max_frac", "frame_dropout",
                     "feature_dropout"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("gaussian_noise_std", "magnitude_jitter_std",
                     "metadata_noise_std"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if self.temporal_shift_max < 0:
            raise ValueError("temporal_shift_max must be non-negative")


def _augment_phase(seq, cfg, rng):
    """Apply the sequence transforms to one phase. seq is (T, D) float64."""
    t_len = seq.shape[0]

    # (1) contiguous temporal mask, span ceil(u * frac_max * T)
    u = rng.random()
    span = int(np.ceil(u * cfg.temporal_mask_max_frac * t_len))
    if span > 0:
        start = int(rng.integers(0, t_len - span + 1))
        seq[start:start + span] = 0.0

    # (2) circular shift by Uniform{-max..max} clips
    if cfg.temporal_shift_max > 0:
        shift = int(rng.integers(-cfg.temporal_shift_max,
                                 cfg.temporal_shift_max + 1))
        if shift:
            seq[:] = np.roll(seq, shift, axis=0)

    # (3) per-clip dropout
    if cfg.frame_dropout > 0.0:
        drop = rng.random(t_len) < cfg.frame_dropout
        seq[drop] = 0.0

    # (4) elementwise Gaussian noise
    if cfg.gaussian_noise_std > 0.0:
        seq += rng.normal(0.0, cfg.gaussian_noise_std, size=seq.shape)

    # (5) per-clip magnitude jitter
    if cfg.magnitude_jitter_std > 0.0:
        eps = rng.normal(0.0, cfg.magnitude_jitter_std, size=(t_len, 1))
        seq *= 1.0 + eps

    # (6) per-feature-column dropout
    if cfg.feature_dropout > 0.0:
        drop = rng.random(seq.shape[1]) < cfg.feature_dropout
        seq[:, drop] = 0.0

    return seq


def augment_inputs(run, kick, meta, cfg, rng):
    """Augment one sample's float64 model inputs in place: the run and kick
    sequences, (T, D) each, and the metadata pair. Augmented sequences are
    rounded through float32, the precision embeddings are stored at.
    Returns whether the pipeline fired. The caller owns the rng stream."""
    if rng.random() >= cfg.apply_prob:
        return False
    for seq in (run, kick):
        _augment_phase(seq, cfg, rng)
        seq[...] = seq.astype(np.float32)
    if cfg.metadata_noise_std > 0.0:
        meta += rng.normal(0.0, cfg.metadata_noise_std, size=2)
    return True


def augment(sample, cfg, rng):
    """Return an augmented copy of the sample (or the sample itself when the
    pipeline does not fire), with any metadata noise in its meta_float
    slot. The caller owns the rng stream."""
    run = sample.run_seq.astype(np.float64)
    kick = sample.kick_seq.astype(np.float64)
    meta = sample.meta.as_floats()
    if not augment_inputs(run, kick, meta, cfg, rng):
        return sample
    return replace(sample,
                   run_seq=run.astype(np.float32),
                   kick_seq=kick.astype(np.float32),
                   meta_float=meta if cfg.metadata_noise_std > 0.0 else None)
