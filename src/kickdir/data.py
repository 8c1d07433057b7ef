"""Dataset model, binary container format, fold splitting, class weights,
label-space reduction, and a synthetic planted-signal generator.

Container layout: a 128-byte ASCII header (magic, class count, dims, sample
counts, backbone tag) followed by records of one structured dtype: a 16-byte
id, the run then kick sequences as little-endian float32 in (time, feature)
order, side, foot and label bytes, and a keeper byte where 255 means absent.
Save and load enforce the same record rules (_check_records).

In memory a dataset is a SampleTable over an array of those records. Every
function that takes samples accepts a table or a list of PenaltySample and
converts the list once, through as_table.
"""

from dataclasses import dataclass
from functools import lru_cache

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

    meta_float holds the real-valued metadata that augment draws; it is
    never serialized, and as_table rejects a sample that carries it.
    """

    id: str
    run_seq: np.ndarray   # (N_r, D) float32
    kick_seq: np.ndarray  # (N_k, D) float32
    meta: Metadata
    label: int
    gk_direction: int | None = None
    meta_float: np.ndarray | None = None


@dataclass(frozen=True)
class DatasetManifest:
    embedding_dim: int
    n_r: int
    n_k: int
    n_classes: int
    count: int
    class_counts: tuple
    backbone: str


# Cached: building a structured dtype is a large share of converting a
# one-kick list, which every single-kick prediction does.
@lru_cache(maxsize=4)
def _record_dtype(d, n_r, n_k):
    """One container record: the id bytes, the run and kick sequences, then
    side, foot, label and keeper bytes."""
    return np.dtype([("id", f"S{ID_SIZE}"), ("run", "<f4", (n_r, d)),
                     ("kick", "<f4", (n_k, d)), ("side", "u1"), ("foot", "u1"),
                     ("label", "u1"), ("gk", "u1")])


class SampleTable:
    """Samples held as columns: one structured array of container records.

    run (S, N_r, D) and kick (S, N_k, D) are float32 columns; side, foot,
    label and gk are byte columns, where a gk of GK_ABSENT means no keeper.
    A loaded table's columns are views into the buffer holding the file.

    len() counts the samples. An integer index builds one PenaltySample
    whose sequences are writable views into the table; its scalar fields
    are a snapshot, so assigning to them does not write the table. A slice,
    a boolean mask or an index array gives a sub-table.
    """

    def __init__(self, records):
        self.records = records

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, index):
        if not isinstance(index, (int, np.integer)):
            return SampleTable(self.records[index])
        gk = int(self.gk[index])
        return PenaltySample(
            id=self.name(index), run_seq=self.run[index],
            kick_seq=self.kick[index],
            meta=Metadata(side=int(self.side[index]),
                          foot=int(self.foot[index])),
            label=int(self.label[index]),
            gk_direction=None if gk == GK_ABSENT else gk)

    run = property(lambda self: self.records["run"])
    kick = property(lambda self: self.records["kick"])
    side = property(lambda self: self.records["side"])
    foot = property(lambda self: self.records["foot"])
    label = property(lambda self: self.records["label"])
    gk = property(lambda self: self.records["gk"])

    def name(self, index):
        """The id of one sample, without building its row."""
        return self.records["id"][index].decode()

    def require_finite(self):
        """Raise DataError naming the first sample whose sequences hold a
        NaN or an infinity."""
        # One reduction over each whole column first: half the time of the
        # per-sample reductions that locate a bad sample.
        if np.isfinite(self.run).all() and np.isfinite(self.kick).all():
            return
        finite = np.isfinite(self.run).all(axis=(1, 2)) \
            & np.isfinite(self.kick).all(axis=(1, 2))
        raise DataError(f"sample {self.name(np.argmin(finite))!r} has "
                        f"non-finite embeddings")


def as_table(samples):
    """The samples as a SampleTable. A table passes through; a sequence of
    PenaltySample is copied into new records, its embeddings rounded to
    float32 as the container stores them.

    A sample's id must be ASCII of at most ID_SIZE characters and its label
    and keeper direction must fit a record byte; save_dataset checks the
    rest of the record rules. An empty sequence gives an empty table with
    zero-sized sequences.
    """
    if isinstance(samples, SampleTable):
        return samples
    samples = list(samples)
    if not samples:
        return SampleTable(np.zeros(0, _record_dtype(0, 0, 0)))
    nr, d = run_shape = samples[0].run_seq.shape
    kick_shape = samples[0].kick_seq.shape
    for s in samples:
        g = s.gk_direction
        if s.run_seq.shape != run_shape or s.kick_seq.shape != kick_shape:
            raise DimensionMismatchError(
                f"sample {s.id}: sequence shapes differ from the rest of the set")
        # GK_ABSENT itself is not a direction: it would read back as None.
        if not (0 <= s.label < GK_ABSENT and (g is None or 0 <= g < GK_ABSENT)):
            raise DataError(f"sample {s.id}: label {s.label} or keeper "
                            f"direction {g} out of range")
        if s.meta_float is not None:
            raise ValueError(f"sample {s.id}: augmented metadata "
                             f"(meta_float) is not part of a record")
    ids = [s.id for s in samples]
    if max(map(len, ids)) > ID_SIZE:
        raise DataError(f"sample {max(ids, key=len)!r}: id is longer than "
                        f"{ID_SIZE} characters")
    try:
        # The lengths are checked, so a fixed width truncates nothing; it
        # converts at twice the speed of a discovered one.
        ids = np.array(ids, dtype=f"S{ID_SIZE}")
    except UnicodeEncodeError as exc:
        raise DataError(f"sample {exc.object!r}: id is not ASCII") from exc
    # Field by field: half the time of one tuple per sample.
    records = np.zeros(len(samples), _record_dtype(d, nr, kick_shape[0]))
    records["id"] = ids
    records["label"] = [s.label for s in samples]
    records["gk"] = [GK_ABSENT if s.gk_direction is None else s.gk_direction
                     for s in samples]
    # An embedding beyond float32 range becomes an infinity, which the
    # finiteness checks of save, training and scoring reject.
    with np.errstate(over="ignore"):
        records["run"] = [s.run_seq for s in samples]
        records["kick"] = [s.kick_seq for s in samples]
    records["side"] = [s.meta.side for s in samples]
    records["foot"] = [s.meta.foot for s in samples]
    return SampleTable(records)


def _class_counts(labels, n_classes):
    return tuple(np.bincount(labels, minlength=n_classes).tolist())


def _check_records(table, n_classes):
    """The record rules shared by save and load: each id is 1..ID_SIZE
    printable ASCII bytes followed only by NUL padding, ids are distinct,
    labels and keeper directions lie in the label space, metadata bytes are
    bits, and embeddings are finite."""
    ids = table.records["id"]
    codes = np.ascontiguousarray(ids).view(np.uint8).reshape(-1, ID_SIZE)
    nul = codes == 0
    ok = (((codes >= 0x20) & (codes < 0x7F)) | nul).all(axis=1)
    # Non-empty, and no NUL is followed by another byte.
    ok &= ~nul[:, 0] & (nul[:, :-1] <= nul[:, 1:]).all(axis=1)
    if not ok.all():
        raise DataError(f"sample index {np.argmin(ok)}: id must be "
                        f"1..{ID_SIZE} printable ASCII bytes followed only "
                        f"by NUL padding")
    unique, counts = np.unique(ids, return_counts=True)
    if len(unique) < len(ids):
        dup = unique[np.argmax(counts > 1)].decode()
        raise DataError(f"duplicate sample id {dup!r}")
    label, gk = table.label, table.gk
    bad = (label >= n_classes) | ((gk != GK_ABSENT) & (gk >= n_classes))
    if bad.any():
        i = np.argmax(bad)
        raise DataError(f"sample {table.name(i)}: label {label[i]} or keeper "
                        f"direction {gk[i]} out of range")
    bad = (table.side > 1) | (table.foot > 1)
    if bad.any():
        raise DataError(f"sample {table.name(np.argmax(bad))}: "
                        f"metadata bytes must be 0 or 1")
    table.require_finite()


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
    """Write a SampleTable or a sequence of samples to the binary container.
    Returns the manifest. A sample that breaks a record rule raises
    DataError and no file is written.

    Empty datasets need the sequence dimensions passed explicitly.
    """
    table = as_table(samples)
    if len(table):
        _, nr, d = table.run.shape
        nk = table.kick.shape[1]
        if embedding_dim not in (None, d) or n_r not in (None, nr) \
                or n_k not in (None, nk):
            raise DimensionMismatchError(
                "explicit dimensions disagree with the samples")
    else:
        if embedding_dim is None or n_r is None or n_k is None:
            raise ValueError("empty dataset needs embedding_dim, n_r, n_k")
        d, nr, nk = embedding_dim, n_r, n_k
        table = SampleTable(np.zeros(0, _record_dtype(d, nr, nk)))
    _check_records(table, n_classes)
    counts = _class_counts(table.label, n_classes)
    header = _build_header(d, nr, nk, n_classes, len(table), counts, backbone)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(table.records))
    except OSError as exc:
        raise DataError(f"cannot write dataset {str(path)!r}: {exc}") from exc
    return DatasetManifest(embedding_dim=d, n_r=nr, n_k=nk,
                           n_classes=n_classes, count=len(table),
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
    """Read a container file. Returns (manifest, SampleTable).

    The table's columns are views into one buffer holding the file.
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
    table = SampleTable(records)
    _check_records(table, n_classes)
    actual = _class_counts(table.label, n_classes)
    if actual != counts:
        raise DataError(
            f"header class counts {counts} do not match records {actual}")
    manifest = DatasetManifest(embedding_dim=d, n_r=nr, n_k=nk,
                               n_classes=n_classes, count=count,
                               class_counts=counts, backbone=backbone)
    return manifest, table


@dataclass(frozen=True, eq=False)
class FoldSplit:
    """Partition of a dataset's samples into k folds: fold[i] is the fold
    of sample i."""

    k: int
    fold: np.ndarray

    def __eq__(self, other):
        return isinstance(other, FoldSplit) and self.k == other.k \
            and np.array_equal(self.fold, other.fold)

    def split(self, samples, fold):
        """(train, held_out) sub-tables of the dataset this split was made
        from, for one fold, in dataset order."""
        if not 0 <= fold < self.k:
            raise ValueError(f"fold {fold} out of range for k={self.k}")
        table = as_table(samples)
        if len(table) != len(self.fold):
            raise ValueError(f"split covers {len(self.fold)} samples, the "
                             f"dataset has {len(table)}")
        held = self.fold == fold
        return table[~held], table[held]


def stratified_kfold(samples, k=10, seed=0):
    """Shuffle within each class, then deal round-robin with a rotating
    starting fold so consecutive classes top up different folds.

    The rotation keeps every fold's total size within one sample of every
    other fold, and each class's per-fold count within one of n_c / k.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    labels = as_table(samples).label
    if not len(labels):
        raise DataError("cannot split an empty sample set into folds")
    rng = np.random.default_rng(seed)
    fold = np.empty(len(labels), dtype=np.int64)
    offset = 0
    for label in np.unique(labels):
        rows = np.flatnonzero(labels == label)
        if len(rows) < k:
            raise DataError(
                f"class {label} has {len(rows)} samples, fewer than k={k}")
        fold[rows[rng.permutation(len(rows))]] = \
            (offset + np.arange(len(rows))) % k
        offset = (offset + len(rows)) % k
    return FoldSplit(k=k, fold=fold)


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

    Returns a SampleTable. The label space must be passed because a sample
    set cannot distinguish "right" in the binary space from "center" in the
    ternary one; n_classes = 2 input is returned unchanged, which makes
    repeated application idempotent.
    """
    table = as_table(samples)
    if n_classes == 2:
        return table
    if n_classes != 3:
        raise ValueError("binarize expects a two- or three-class dataset")
    records = table.records[table.label != CENTER]
    gk = records["gk"]
    records["label"] = records["label"] != LEFT
    records["gk"] = np.where((gk == CENTER) | (gk == GK_ABSENT), GK_ABSENT,
                             gk != LEFT)
    return SampleTable(records)


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

    table = as_table(samples)

    def rows(column, labels_for):
        for value in (0, 1):
            mask = column == value
            counts = np.bincount(table.label[mask],
                                 minlength=manifest.n_classes)
            body = " ".join(f"{n}={c}" for n, c in zip(names, counts))
            lines.append(f"  {labels_for[value]}: {body} "
                         f"total={int(mask.sum())}")

    rows(table.side, {0: "right side", 1: "left side"})
    lines.append("")
    lines.append("direction counts by kicker foot")
    rows(table.foot, {0: "right-footed", 1: "left-footed"})
    n_gk = int(np.sum(table.gk != GK_ABSENT))
    lines.append("")
    lines.append(f"gk direction present: {n_gk}/{manifest.count}")
    return "\n".join(lines) + "\n"
