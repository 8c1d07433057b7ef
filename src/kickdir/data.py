"""Dataset model, binary container format, fold splitting, class weights,
label-space reduction, and a synthetic planted-signal generator.

Container layout: a 128-byte ASCII header (magic, class count, dims, sample
counts, backbone tag) followed by records of one structured dtype: a 16-byte
id, the run then kick sequences as little-endian float32 in (time, feature)
order, side, foot and label bytes, and a keeper byte where 255 means absent.
Save and load enforce the same record rules (_check_records).
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError,
    CorruptHeaderError,
    DataError,
    DimensionMismatchError,
    TruncatedPayloadError,
)

LEFT, CENTER, RIGHT = 0, 1, 2
CLASS_NAMES = ("left", "center", "right")
BINARY_CLASS_NAMES = ("left", "right")

MAGIC = b"PKDS1"
HEADER_SIZE = 128
ID_SIZE = 16
GK_ABSENT = 255

# Dataset composition reported for the source material: 622 kicks, of which
# 388 are taken from the right side of the pitch and 136 by left-footed
# kickers. Direction percentages are conditional on each metadata value.
SIDE_LEFT_RATE = 234.0 / 622.0
FOOT_LEFT_RATE = 136.0 / 622.0
DIRECTION_GIVEN_SIDE = {
    0: np.array([46.65, 17.78, 35.57]) / 100.0,  # right side of pitch
    1: np.array([48.29, 14.53, 37.18]) / 100.0,  # left side
}
DIRECTION_GIVEN_FOOT = {
    0: np.array([51.23, 16.26, 32.51]) / 100.0,  # right-footed
    1: np.array([33.09, 17.65, 49.26]) / 100.0,  # left-footed
}


@dataclass(frozen=True)
class Metadata:
    """Two binary descriptors known before the kick."""

    side: int  # 1 = penalty taken from the left side of the pitch
    foot: int  # 1 = left-footed kicker

    def __post_init__(self):
        if self.side not in (0, 1) or self.foot not in (0, 1):
            raise ValueError("metadata bits must be 0 or 1")

    def as_floats(self):
        return np.array([self.side, self.foot], dtype=np.float64)


@dataclass
class PenaltySample:
    """One kick: per-phase embedding sequences plus context.

    meta_float is a transient real-valued relaxation of the metadata bits
    used by augmentation; it is never serialized.
    """

    id: str
    run_seq: np.ndarray   # (N_r, D) float32
    kick_seq: np.ndarray  # (N_k, D) float32
    meta: Metadata
    label: int
    gk_direction: int | None = None
    meta_float: np.ndarray | None = None

    def meta_inputs(self):
        """Float metadata vector fed to the model."""
        return self.meta.as_floats() if self.meta_float is None else self.meta_float


@dataclass(frozen=True)
class DatasetManifest:
    embedding_dim: int
    n_r: int
    n_k: int
    n_classes: int
    count: int
    class_counts: tuple
    backbone: str


@dataclass(frozen=True)
class FoldSplit:
    """Partition of sample ids into k folds."""

    k: int
    assignment: dict  # id -> fold index

    def split(self, samples, fold):
        """(train, held_out) sample lists for one fold, in dataset order."""
        if not 0 <= fold < self.k:
            raise ValueError(f"fold {fold} out of range for k={self.k}")
        train = [s for s in samples if self.assignment[s.id] != fold]
        held = [s for s in samples if self.assignment[s.id] == fold]
        return train, held


def _class_counts(labels, n_classes):
    return tuple(np.bincount(labels, minlength=n_classes).tolist())


def _record_dtype(d, n_r, n_k):
    """One container record: the id bytes, the run and kick sequences, then
    side, foot, label and keeper bytes."""
    return np.dtype([("id", "u1", (ID_SIZE,)), ("run", "<f4", (n_r, d)),
                     ("kick", "<f4", (n_k, d)), ("side", "u1"), ("foot", "u1"),
                     ("label", "u1"), ("gk", "u1")])


def _check_records(ids, label, gk, n_classes):
    """The record rules shared by save and load. Returns the ids as a bytes
    array.

    ids holds one row of byte values per record; save passes code points and
    one extra column, which must be NUL, to catch an over-long id. An id is
    1..ID_SIZE printable ASCII bytes followed only by NUL padding, and ids
    are distinct. Labels and keeper directions lie in the label space, where
    a keeper byte of GK_ABSENT means no keeper.
    """
    nul = ids == 0
    ok = ((ids >= 0x20) & (ids < 0x7F)) | nul
    ok &= ~(np.logical_or.accumulate(nul, axis=1) & ~nul)
    ok = ok.all(axis=1) & ~nul[:, 0] & nul[:, ID_SIZE:].all(axis=1)
    if not ok.all():
        raise DataError(f"sample index {np.argmin(ok)}: id must be "
                        f"1..{ID_SIZE} printable ASCII bytes followed only "
                        f"by NUL padding")
    keys = np.ascontiguousarray(ids[:, :ID_SIZE], dtype=np.uint8) \
        .view(f"S{ID_SIZE}")[:, 0]
    unique, counts = np.unique(keys, return_counts=True)
    if len(unique) < len(keys):
        dup = unique[np.argmax(counts > 1)].decode()
        raise DataError(f"duplicate sample id {dup!r}")
    bad = (label < 0) | (label >= n_classes) \
        | ((gk != GK_ABSENT) & ((gk < 0) | (gk >= n_classes)))
    if bad.any():
        i = np.argmax(bad)
        raise DataError(f"sample {keys[i].decode()}: label {label[i]} or "
                        f"keeper direction {gk[i]} out of range")
    return keys


def _build_header(d, n_r, n_k, n_classes, count, class_counts, backbone):
    if not backbone or " " in backbone or not backbone.isascii():
        raise ValueError("backbone tag must be non-empty ASCII without spaces")
    text = (f"{MAGIC.decode()} nclass={n_classes} d={d} nr={n_r} nk={n_k} "
            f"count={count} counts={','.join(str(c) for c in class_counts)} "
            f"backbone={backbone}")
    raw = text.encode("ascii")
    if len(raw) > HEADER_SIZE - 1:
        raise ValueError("header does not fit the fixed 128-byte slot")
    return raw + b" " * (HEADER_SIZE - 1 - len(raw)) + b"\n"


def save_dataset(path, samples, backbone="unspecified", n_classes=3,
                 embedding_dim=None, n_r=None, n_k=None):
    """Write samples to the binary container. Returns the manifest.

    Empty datasets need the sequence dimensions passed explicitly.
    """
    if samples:
        nr, d = samples[0].run_seq.shape
        nk = samples[0].kick_seq.shape[0]
        if embedding_dim not in (None, d) or n_r not in (None, nr) \
                or n_k not in (None, nk):
            raise DimensionMismatchError(
                "explicit dimensions disagree with the samples")
    else:
        if embedding_dim is None or n_r is None or n_k is None:
            raise ValueError("empty dataset needs embedding_dim, n_r, n_k")
        d, nr, nk = embedding_dim, n_r, n_k
    for s in samples:
        if s.run_seq.shape != (nr, d) or s.kick_seq.shape != (nk, d):
            raise DimensionMismatchError(
                f"sample {s.id}: sequence shapes differ from the rest of the set")
    # One code point per character and a spare column, which a longer id
    # fills; a non-ASCII character shows as a code point above 0x7F.
    ids = np.array([s.id for s in samples], dtype=f"U{ID_SIZE + 1}") \
        .view(np.uint32).reshape(len(samples), ID_SIZE + 1)
    label = np.array([s.label for s in samples], dtype=np.int64)
    # An explicit GK_ABSENT would load back as no keeper: map it out of range.
    gk = np.array([GK_ABSENT if g is None else -1 if g == GK_ABSENT else g
                   for g in (s.gk_direction for s in samples)], dtype=np.int64)
    _check_records(ids, label, gk, n_classes)
    # Field by field: half the time of one tuple per sample.
    records = np.zeros(len(samples), _record_dtype(d, nr, nk))
    if samples:  # [] does not broadcast to (0, n_r, d)
        records["run"] = [s.run_seq for s in samples]
        records["kick"] = [s.kick_seq for s in samples]
    records["side"] = [s.meta.side for s in samples]
    records["foot"] = [s.meta.foot for s in samples]
    records["id"], records["label"], records["gk"] = ids[:, :ID_SIZE], label, gk
    counts = _class_counts(label, n_classes)
    header = _build_header(d, nr, nk, n_classes, len(samples), counts, backbone)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(records)
    except OSError as exc:
        raise DataError(f"cannot write dataset {str(path)!r}: {exc}") from exc
    return DatasetManifest(embedding_dim=d, n_r=nr, n_k=nk,
                           n_classes=n_classes, count=len(samples),
                           class_counts=counts, backbone=backbone)


def _parse_header(raw):
    if len(raw) < HEADER_SIZE:
        raise CorruptHeaderError(
            f"file too short for a {HEADER_SIZE}-byte header")
    head = raw[:HEADER_SIZE]
    if not head.startswith(MAGIC + b" "):
        raise CorruptHeaderError("bad magic string")
    try:
        text = head.decode("ascii").rstrip("\n ").strip()
    except UnicodeDecodeError as exc:
        raise CorruptHeaderError("header is not ASCII") from exc
    fields = {}
    for token in text.split()[1:]:
        key, sep, value = token.partition("=")
        if not sep or key in fields:
            raise CorruptHeaderError(f"malformed header token {token!r}")
        fields[key] = value
    required = {"nclass", "d", "nr", "nk", "count", "counts", "backbone"}
    if set(fields) != required:
        raise CorruptHeaderError(
            f"header fields {sorted(fields)} do not match {sorted(required)}")
    try:
        n_classes = int(fields["nclass"])
        d = int(fields["d"])
        nr = int(fields["nr"])
        nk = int(fields["nk"])
        count = int(fields["count"])
        counts = tuple(int(c) for c in fields["counts"].split(","))
    except ValueError as exc:
        raise CorruptHeaderError(f"unparsable header value ({exc})") from exc
    if n_classes < 2 or d < 1 or nr < 1 or nk < 1 or count < 0:
        raise CorruptHeaderError("header dimensions out of range")
    if len(counts) != n_classes or any(c < 0 for c in counts):
        raise CorruptHeaderError("per-class counts malformed")
    if sum(counts) != count:
        raise CorruptHeaderError("per-class counts do not sum to sample count")
    return n_classes, d, nr, nk, count, counts, fields["backbone"]


def load_dataset(path):
    """Read a container file. Returns (manifest, samples).

    The samples' sequences are views into one buffer holding the file.
    """
    try:
        with open(path, "rb") as fh:
            raw = bytearray(fh.read())
    except OSError as exc:
        raise DataError(f"cannot read dataset {str(path)!r}: {exc}") from exc
    n_classes, d, nr, nk, count, counts, backbone = _parse_header(raw)
    try:
        layout = _record_dtype(d, nr, nk)
    except ValueError as exc:  # a record too large for numpy
        raise CorruptHeaderError(f"header dimensions too large ({exc})") \
            from exc
    size = len(raw) - HEADER_SIZE
    expected = count * layout.itemsize
    if size > expected:
        raise DimensionMismatchError(
            f"{size - expected} trailing bytes after the last record")
    if size < expected:
        idx, rest = divmod(size, layout.itemsize)
        if not rest:
            raise TruncatedPayloadError(
                f"payload ends {expected - size} bytes early; first "
                f"missing record has index {idx}")
        sid = raw[len(raw) - rest:][:ID_SIZE].split(b"\x00")[0]
        raise DimensionMismatchError(
            f"record boundary broken at sample index {idx} (id "
            f"{sid.decode('latin-1')!r}): row data does not match declared "
            f"dimensions")

    records = np.frombuffer(raw, dtype=layout, count=count, offset=HEADER_SIZE)
    names = _check_records(records["id"], records["label"], records["gk"],
                           n_classes).astype(f"U{ID_SIZE}").tolist()
    bad = (records["side"] > 1) | (records["foot"] > 1)
    if bad.any():
        raise DataError(f"sample {names[np.argmax(bad)]}: "
                        f"metadata bytes must be 0 or 1")
    run, kick = records["run"], records["kick"]
    finite = np.isfinite(run).all(axis=(1, 2)) & np.isfinite(kick).all(axis=(1, 2))
    if not finite.all():
        raise DataError(f"sample {names[np.argmin(finite)]}: "
                        f"non-finite embedding values")
    actual = _class_counts(records["label"], n_classes)
    if actual != counts:
        raise DataError(
            f"header class counts {counts} do not match records {actual}")
    fields = [records[f].tolist() for f in ("side", "foot", "label", "gk")]
    samples = [PenaltySample(id=sid, run_seq=r, kick_seq=k,
                             meta=Metadata(side=side, foot=foot), label=lab,
                             gk_direction=None if g == GK_ABSENT else g)
               for sid, r, k, side, foot, lab, g in zip(names, run, kick,
                                                        *fields)]
    manifest = DatasetManifest(embedding_dim=d, n_r=nr, n_k=nk,
                               n_classes=n_classes, count=count,
                               class_counts=counts, backbone=backbone)
    return manifest, samples


def stratified_kfold(samples, k=10, seed=0):
    """Shuffle within each class, then deal round-robin with a rotating
    starting fold so consecutive classes top up different folds.

    The rotation keeps every fold's total size within one sample of every
    other fold, and each class's per-fold count within one of n_c / k.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    labels = sorted({s.label for s in samples})
    rng = np.random.default_rng(seed)
    assignment = {}
    offset = 0
    for label in labels:
        ids = [s.id for s in samples if s.label == label]
        if len(ids) < k:
            raise DataError(
                f"class {label} has {len(ids)} samples, fewer than k={k}")
        order = rng.permutation(len(ids))
        for j, idx in enumerate(order):
            assignment[ids[idx]] = (offset + j) % k
        offset = (offset + len(ids)) % k
    return FoldSplit(k=k, assignment=assignment)


def compute_class_weights(labels, n_classes):
    """Inverse-frequency weights rescaled to mean 1."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError("label out of range")
    counts = np.bincount(labels, minlength=n_classes)
    if np.any(counts == 0):
        missing = [i for i, c in enumerate(counts) if c == 0]
        raise DataError(f"classes absent from training fold: {missing}")
    w = 1.0 / counts
    return w * (n_classes / w.sum())


def binarize(samples, n_classes=3):
    """Drop center kicks and remap to {left = 0, right = 1}.

    The label space must be passed because a flat sample list cannot
    distinguish "right" in the binary space from "center" in the ternary
    one; n_classes = 2 input is returned unchanged, which makes repeated
    application idempotent.
    """
    if n_classes == 2:
        return list(samples)
    if n_classes != 3:
        raise ValueError("binarize expects a two- or three-class dataset")
    out = []
    for s in samples:
        if s.label == CENTER:
            continue
        gk = s.gk_direction
        if gk is not None:
            gk = None if gk == CENTER else (0 if gk == LEFT else 1)
        out.append(replace(s, label=0 if s.label == LEFT else 1,
                           gk_direction=gk))
    return out


# Direction vectors for the planted signal: left, center, right rays at
# 150, 90, and 30 degrees in the plane of the first two signal dims.
_SIGNAL_ANGLES = np.deg2rad([150.0, 90.0, 30.0])
_SIGNAL_DIRS = np.stack([np.cos(_SIGNAL_ANGLES), np.sin(_SIGNAL_ANGLES)], axis=1)


def _side_given_direction():
    """P(side = left | direction) from the composition table via Bayes."""
    p_y = (DIRECTION_GIVEN_SIDE[1] * SIDE_LEFT_RATE
           + DIRECTION_GIVEN_SIDE[0] * (1.0 - SIDE_LEFT_RATE))
    return DIRECTION_GIVEN_SIDE[1] * SIDE_LEFT_RATE / p_y


def generate_synthetic(num_samples, embedding_dim=16, n_r=5, n_k=3,
                       signal_strength=1.0, noise_std=0.05, seed=0,
                       gk_match_rate=0.46, backbone="synthetic"):
    """Build a planted-signal dataset shaped like the real one.

    The label is drawn conditionally on a sampled dominant foot using the
    composition table, and the pitch side conditionally on the label, so
    metadata carries real signal. The direction is planted as a linear ramp
    along a class-specific ray: full strength in kick dims 0-1, half
    strength in run dims 2-3, plus isotropic noise everywhere.

    signal_strength gates every planted association, not just the embedding
    ramps: the metadata/label couplings are blended toward their independent
    marginals by min(signal_strength, 1), so a zero-signal dataset carries no
    learnable structure at all. Strengths >= 1 use the composition tables
    unchanged while the ramps keep scaling.

    Returns (manifest, samples). Deterministic given the configuration.
    """
    if embedding_dim < 6:
        raise ConfigError("embedding_dim must be at least 6 to carry the "
                          "planted signal")
    if num_samples < 0 or n_r < 1 or n_k < 1:
        raise ConfigError("invalid synthetic dataset shape")
    if not (0 <= noise_std < np.inf and 0 <= signal_strength < np.inf
            and 0 <= gk_match_rate <= 1):
        raise ConfigError("invalid synthetic dataset parameters")
    rng = np.random.default_rng(seed)
    blend = min(signal_strength, 1.0)
    label_marginal = (FOOT_LEFT_RATE * np.asarray(DIRECTION_GIVEN_FOOT[1])
                      + (1.0 - FOOT_LEFT_RATE)
                      * np.asarray(DIRECTION_GIVEN_FOOT[0]))
    direction_given_foot = {
        f: blend * np.asarray(DIRECTION_GIVEN_FOOT[f])
        + (1.0 - blend) * label_marginal
        for f in (0, 1)}
    p_side_left = (blend * _side_given_direction()
                   + (1.0 - blend) * SIDE_LEFT_RATE)
    ramp_run = (np.arange(1, n_r + 1) / n_r)[:, None]
    ramp_kick = (np.arange(1, n_k + 1) / n_k)[:, None]
    samples = []
    for i in range(num_samples):
        foot = int(rng.random() < FOOT_LEFT_RATE)
        label = int(rng.choice(3, p=direction_given_foot[foot]))
        side = int(rng.random() < p_side_left[label])
        if label == CENTER:
            gk = int(rng.random() < 0.5) * 2  # keeper picks a side regardless
        elif rng.random() < gk_match_rate:
            gk = label
        else:
            gk = RIGHT if label == LEFT else LEFT
        run = rng.normal(0.0, noise_std, size=(n_r, embedding_dim)) \
            if noise_std > 0 else np.zeros((n_r, embedding_dim))
        kick = rng.normal(0.0, noise_std, size=(n_k, embedding_dim)) \
            if noise_std > 0 else np.zeros((n_k, embedding_dim))
        run[:, 2:4] += 0.5 * signal_strength * ramp_run * _SIGNAL_DIRS[label]
        kick[:, 0:2] += signal_strength * ramp_kick * _SIGNAL_DIRS[label]
        samples.append(PenaltySample(
            id=f"s{i:06d}",
            run_seq=run.astype(np.float32),
            kick_seq=kick.astype(np.float32),
            meta=Metadata(side=side, foot=foot),
            label=label,
            gk_direction=gk,
        ))
    labels = np.array([s.label for s in samples], dtype=np.int64)
    counts = _class_counts(labels, 3)
    manifest = DatasetManifest(embedding_dim=embedding_dim, n_r=n_r, n_k=n_k,
                               n_classes=3, count=num_samples,
                               class_counts=counts, backbone=backbone)
    return manifest, samples


def manifest_summary(manifest, samples):
    """Human-readable dataset summary broken down by the metadata fields."""
    names = CLASS_NAMES if manifest.n_classes == 3 else BINARY_CLASS_NAMES
    lines = [
        "dataset summary",
        f"samples: {manifest.count}",
        "classes: " + " ".join(
            f"{n}={c}" for n, c in zip(names, manifest.class_counts)),
        f"embedding dim: {manifest.embedding_dim}",
        f"run clips: {manifest.n_r}  kick clips: {manifest.n_k}",
        f"backbone: {manifest.backbone}",
        "",
        "direction counts by pitch side",
    ]

    def rows(group_fn, values, labels_for):
        for value in values:
            subset = [s for s in samples if group_fn(s) == value]
            counts = np.bincount([s.label for s in subset],
                                 minlength=manifest.n_classes)
            body = " ".join(f"{n}={c}" for n, c in zip(names, counts))
            lines.append(f"  {labels_for[value]}: {body} total={len(subset)}")

    rows(lambda s: s.meta.side, (0, 1), {0: "right side", 1: "left side"})
    lines.append("")
    lines.append("direction counts by kicker foot")
    rows(lambda s: s.meta.foot, (0, 1), {0: "right-footed", 1: "left-footed"})
    n_gk = sum(1 for s in samples if s.gk_direction is not None)
    lines.append("")
    lines.append(f"gk direction present: {n_gk}/{manifest.count}")
    return "\n".join(lines) + "\n"
