"""Run configuration: one flat dataclass covering the optimizer recipe, the
architecture defaults, and the augmentation pipeline, with a plain
key=value text representation so runs are reproducible from a single file.
"""

import dataclasses
import math
from dataclasses import dataclass

from .augment import AugmentConfig
from .errors import ConfigError


@dataclass
class TrainConfig:
    # optimization
    batch_size: int = 5
    max_epochs: int = 60
    patience: int = 10
    lr: float = 1e-3
    weight_decay: float = 5e-2
    clip_norm: float = 1.0
    label_smoothing: float = 0.01
    warmup_frac: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    k_folds: int = 10
    n_classes: int = 3
    loss_normalization: str = "weight_sum"
    # architecture
    branch_width: int = 0  # 0 = match the embedding dimension
    state_size: int = 16
    n_layers: int = 2
    expand: int = 2
    conv_width: int = 4
    use_conv: bool = True
    meta_dim: int = 16
    fusion_hidden: int = 128
    dropout: float = 0.3
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1
    delta_init_min: float = 1e-3
    delta_init_max: float = 1e-1
    # augmentation
    augment: bool = True
    augment_apply_prob: float = 0.90
    augment_temporal_mask_max_frac: float = 0.25
    augment_temporal_shift_max: int = 2
    augment_frame_dropout: float = 0.08
    augment_gaussian_noise_std: float = 0.012
    augment_magnitude_jitter_std: float = 0.04
    augment_feature_dropout: float = 0.05
    augment_metadata_noise_std: float = 0.01

    def __post_init__(self):
        self.validate()

    def validate(self):
        for f in dataclasses.fields(self):
            if f.type in (float, "float") and \
                    not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        checks = [
            (self.batch_size >= 2, "batch_size must be at least 2 (batch "
                                   "normalization needs two samples)"),
            (self.max_epochs >= 1, "max_epochs must be positive"),
            (self.patience >= 1, "patience must be at least 1"),
            (self.lr >= 0, "lr must be non-negative"),
            (self.weight_decay >= 0, "weight_decay must be non-negative"),
            (self.clip_norm > 0, "clip_norm must be positive"),
            (0 <= self.label_smoothing < 1, "label_smoothing must be in [0, 1)"),
            (0 <= self.warmup_frac < 1, "warmup_frac must be in [0, 1)"),
            (0 <= self.beta1 < 1, "beta1 must be in [0, 1)"),
            (0 <= self.beta2 < 1, "beta2 must be in [0, 1)"),
            (self.adam_eps > 0, "adam_eps must be positive"),
            (self.k_folds >= 2, "k_folds must be at least 2"),
            (self.n_classes in (2, 3), "n_classes must be 2 or 3"),
            (self.loss_normalization in ("weight_sum", "batch_size"),
             "loss_normalization must be weight_sum or batch_size"),
            (self.branch_width >= 0, "branch_width must be non-negative"),
            (self.state_size >= 1, "state_size must be positive"),
            (self.n_layers >= 1, "n_layers must be positive"),
            (self.expand >= 1, "expand must be positive"),
            (self.conv_width >= 1, "conv_width must be positive"),
            (self.meta_dim >= 1, "meta_dim must be positive"),
            (self.fusion_hidden >= 1, "fusion_hidden must be positive"),
            (0 <= self.dropout < 1, "dropout must be in [0, 1)"),
            (self.bn_eps > 0, "bn_eps must be positive"),
            (0 < self.bn_momentum <= 1, "bn_momentum must be in (0, 1]"),
            (0 < self.delta_init_min <= self.delta_init_max,
             "delta init range must satisfy 0 < min <= max"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        try:
            self.augment_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def augment_config(self):
        return AugmentConfig(
            apply_prob=self.augment_apply_prob,
            temporal_mask_max_frac=self.augment_temporal_mask_max_frac,
            temporal_shift_max=self.augment_temporal_shift_max,
            frame_dropout=self.augment_frame_dropout,
            gaussian_noise_std=self.augment_gaussian_noise_std,
            magnitude_jitter_std=self.augment_magnitude_jitter_std,
            feature_dropout=self.augment_feature_dropout,
            metadata_noise_std=self.augment_metadata_noise_std,
        )

    def to_text(self):
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep:
                raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
            if key not in fields:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            ftype = fields[key].type
            try:
                if ftype in (bool, "bool"):
                    if value not in ("true", "false"):
                        raise ValueError("expected true or false")
                    values[key] = value == "true"
                elif ftype in (int, "int"):
                    values[key] = int(value)
                elif ftype in (float, "float"):
                    values[key] = float(value)
                else:
                    values[key] = value
            except ValueError as exc:
                raise ConfigError(
                    f"line {lineno}: bad value for {key}: {exc}") from exc
        return cls(**values)

    @classmethod
    def load(cls, path):
        try:
            with open(path, "r", encoding="ascii") as fh:
                return cls.from_text(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
