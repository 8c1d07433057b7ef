"""Tests for the dataset container, folds, weights, and the generator."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kickdir.data import (
    CENTER,
    DIRECTION_GIVEN_FOOT,
    FOOT_LEFT_RATE,
    GK_ABSENT,
    LEFT,
    RIGHT,
    SIDE_LEFT_RATE,
    Metadata,
    PenaltySample,
    binarize,
    compute_class_weights,
    generate_synthetic,
    load_dataset,
    manifest_summary,
    save_dataset,
    stratified_kfold,
)
from kickdir.errors import (
    ConfigError,
    CorruptHeaderError,
    DataError,
    DimensionMismatchError,
    TruncatedPayloadError,
)


def make_sample(i, label, d=4, n_r=2, n_k=2, gk=None, side=0, foot=0):
    rng = np.random.default_rng(100 + i)
    return PenaltySample(
        id=f"s{i:06d}",
        run_seq=rng.normal(size=(n_r, d)).astype(np.float32),
        kick_seq=rng.normal(size=(n_k, d)).astype(np.float32),
        meta=Metadata(side=side, foot=foot),
        label=label,
        gk_direction=gk,
    )


def test_metadata_validation():
    with pytest.raises(ValueError):
        Metadata(side=2, foot=0)
    assert np.array_equal(Metadata(side=1, foot=0).as_floats(), [1.0, 0.0])


def test_empty_dataset_round_trip(tmp_path):
    path = tmp_path / "empty.pkds"
    save_dataset(path, [], embedding_dim=8, n_r=3, n_k=2)
    manifest, samples = load_dataset(path)
    assert samples == []
    assert manifest.count == 0
    assert manifest.embedding_dim == 8
    assert manifest.class_counts == (0, 0, 0)


def test_round_trip_bit_exact(tmp_path):
    _, samples = generate_synthetic(3, embedding_dim=7, seed=5)
    samples[1].gk_direction = None  # exercise the absent-keeper byte
    path = tmp_path / "three.pkds"
    manifest = save_dataset(path, samples, backbone="synthetic")
    loaded_manifest, loaded = load_dataset(path)
    assert loaded_manifest == manifest
    for a, b in zip(samples, loaded):
        assert a.id == b.id
        assert np.array_equal(a.run_seq, b.run_seq)
        assert np.array_equal(a.kick_seq, b.kick_seq)
        assert a.meta == b.meta
        assert a.label == b.label
        assert a.gk_direction == b.gk_direction
    # a second save of the loaded data reproduces the file byte for byte
    path2 = tmp_path / "again.pkds"
    save_dataset(path2, loaded, backbone="synthetic")
    assert path.read_bytes() == path2.read_bytes()


def test_corrupt_header(tmp_path):
    path = tmp_path / "bad.pkds"
    path.write_bytes(b"NOPE!" + b" " * 200)
    with pytest.raises(CorruptHeaderError):
        load_dataset(path)
    path.write_bytes(b"PKDS1 short")
    with pytest.raises(CorruptHeaderError):
        load_dataset(path)


def test_header_count_mismatch(tmp_path):
    path = tmp_path / "counts.pkds"
    save_dataset(path, [make_sample(0, LEFT), make_sample(1, RIGHT)])
    raw = bytearray(path.read_bytes())
    head = raw[:128].decode().replace("counts=1,0,1", "counts=2,0,0")
    raw[:128] = head.encode()
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        load_dataset(path)


def test_short_row_names_sample(tmp_path):
    # declared D = 64 but the (single) row carries 63 floats
    path = tmp_path / "short.pkds"
    save_dataset(path, [make_sample(0, LEFT, d=64, n_r=1, n_k=1)])
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])  # drop one float plus the trailing bytes
    with pytest.raises(DimensionMismatchError) as err:
        load_dataset(path)
    assert "s000000" in str(err.value)


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.pkds"
    samples = [make_sample(i, i % 3) for i in range(3)]
    save_dataset(path, samples)
    raw = path.read_bytes()
    record = (len(raw) - 128) // 3
    path.write_bytes(raw[:128 + 2 * record])  # drop the whole last record
    with pytest.raises(TruncatedPayloadError) as err:
        load_dataset(path)
    assert "s000002" not in str(err.value)  # its id bytes are gone
    assert "index 2" in str(err.value)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "extra.pkds"
    save_dataset(path, [make_sample(0, LEFT)])
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(DimensionMismatchError):
        load_dataset(path)


def test_save_rejects_bad_samples(tmp_path):
    path = tmp_path / "bad.pkds"
    with pytest.raises(DataError):
        save_dataset(path, [make_sample(0, LEFT), make_sample(0, RIGHT)])
    odd = [make_sample(0, LEFT), make_sample(1, RIGHT, d=5)]
    with pytest.raises(DimensionMismatchError):
        save_dataset(path, odd)
    with pytest.raises(DataError):
        save_dataset(path, [make_sample(0, 3)])
    with pytest.raises(DataError):  # the no-keeper byte is not a direction
        save_dataset(path, [make_sample(0, LEFT, gk=GK_ABSENT)])


def test_kfold_exact_divisibility():
    samples = [make_sample(i, i % 3) for i in range(30)]
    split = stratified_kfold(samples, k=10, seed=1)
    for fold in range(10):
        _, held = split.split(samples, fold)
        assert len(held) == 3
        assert sorted(s.label for s in held) == [0, 1, 2]


def test_kfold_reference_counts():
    # 294 left, 103 center, 225 right: every fold lands at 62 or 63 samples
    # and carries 10 or 11 center kicks
    labels = [LEFT] * 294 + [CENTER] * 103 + [RIGHT] * 225
    samples = [make_sample(i, lab, d=2, n_r=1, n_k=1)
               for i, lab in enumerate(labels)]
    split = stratified_kfold(samples, k=10, seed=3)
    sizes = []
    for fold in range(10):
        _, held = split.split(samples, fold)
        sizes.append(len(held))
        centers = sum(1 for s in held if s.label == CENTER)
        assert centers in (10, 11)
    assert set(sizes) <= {62, 63}
    assert sum(sizes) == 622


def test_kfold_deterministic_and_partition():
    samples = [make_sample(i, i % 3) for i in range(47)]
    a = stratified_kfold(samples, k=4, seed=9)
    b = stratified_kfold(samples, k=4, seed=9)
    assert a == b
    c = stratified_kfold(samples, k=4, seed=10)
    assert a != c
    seen = set()
    for fold in range(4):
        _, held = a.split(samples, fold)
        ids = {s.id for s in held}
        assert not ids & seen
        seen |= ids
    assert seen == {s.id for s in samples}


def test_kfold_stratification_bound():
    rng = np.random.default_rng(12)
    labels = rng.integers(0, 3, size=200)
    samples = [make_sample(i, int(lab), d=2, n_r=1, n_k=1)
               for i, lab in enumerate(labels)]
    split = stratified_kfold(samples, k=7, seed=0)
    for label in range(3):
        n_c = int(np.sum(labels == label))
        for fold in range(7):
            _, held = split.split(samples, fold)
            got = sum(1 for s in held if s.label == label)
            assert abs(got - n_c / 7) <= 1.0


def test_kfold_rejects_small_class():
    samples = [make_sample(i, 0) for i in range(20)] + [make_sample(99, 1)]
    with pytest.raises(DataError):
        stratified_kfold(samples, k=10, seed=0)


def test_class_weights_balanced():
    w = compute_class_weights([0, 1, 2, 0, 1, 2], 3)
    assert np.allclose(w, 1.0)


def test_class_weights_reference_counts():
    labels = [0] * 294 + [1] * 103 + [2] * 225
    w = compute_class_weights(labels, 3)
    raw = np.array([1 / 294, 1 / 103, 1 / 225])
    assert np.allclose(w, raw * 3 / raw.sum())
    assert abs(w.mean() - 1.0) < 1e-12


def test_class_weights_small_case():
    w = compute_class_weights([0, 0, 0, 1], 2)
    assert np.allclose(w, [0.5, 1.5])


def test_class_weights_rejects_absent_class():
    with pytest.raises(DataError):
        compute_class_weights([0, 0, 2], 3)


def test_binarize_reference_counts():
    labels = [LEFT] * 294 + [CENTER] * 103 + [RIGHT] * 225
    samples = [make_sample(i, lab, d=2, n_r=1, n_k=1, gk=(i % 3))
               for i, lab in enumerate(labels)]
    out = binarize(samples)
    assert len(out) == 519
    assert sum(1 for s in out if s.label == 0) == 294
    assert sum(1 for s in out if s.label == 1) == 225
    # keeper direction moves to the same space; center becomes absent
    assert all(s.gk_direction in (None, 0, 1) for s in out)


def test_binarize_no_centers_is_count_preserving():
    samples = [make_sample(i, LEFT if i % 2 else RIGHT) for i in range(10)]
    out = binarize(samples)
    assert len(out) == 10
    assert {s.label for s in out} == {0, 1}


def test_binarize_only_centers_empties():
    samples = [make_sample(i, CENTER) for i in range(5)]
    assert binarize(samples) == []


def test_binarize_idempotent():
    samples = [make_sample(i, i % 3, gk=(2 - i % 3)) for i in range(12)]
    once = binarize(samples, n_classes=3)
    twice = binarize(once, n_classes=2)
    assert twice == once


def test_generator_plants_exact_ramp():
    _, samples = generate_synthetic(30, embedding_dim=8, noise_std=0.0,
                                    signal_strength=2.0, seed=11)
    from kickdir.data import _SIGNAL_DIRS

    for s in samples:
        n_k = s.kick_seq.shape[0]
        ramp = (np.arange(1, n_k + 1) / n_k)[:, None]
        expected = (2.0 * ramp * _SIGNAL_DIRS[s.label]).astype(np.float32)
        assert np.array_equal(s.kick_seq[:, 0:2], expected)
        assert np.all(s.kick_seq[:, 2:] == 0.0)
        n_r = s.run_seq.shape[0]
        ramp_r = (np.arange(1, n_r + 1) / n_r)[:, None]
        expected_r = (1.0 * ramp_r * _SIGNAL_DIRS[s.label]).astype(np.float32)
        assert np.array_equal(s.run_seq[:, 2:4], expected_r)


def test_generator_zero_signal_is_pure_noise():
    _, samples = generate_synthetic(10, embedding_dim=6, noise_std=0.0,
                                    signal_strength=0.0, seed=1)
    assert all(np.all(s.run_seq == 0.0) and np.all(s.kick_seq == 0.0)
               for s in samples)


def test_generator_metadata_marginals():
    _, samples = generate_synthetic(10_000, embedding_dim=6, seed=2)
    foot = np.array([s.meta.foot for s in samples])
    side = np.array([s.meta.side for s in samples])
    labels = np.array([s.label for s in samples])
    assert abs(foot.mean() - FOOT_LEFT_RATE) < 0.02
    assert abs(side.mean() - SIDE_LEFT_RATE) < 0.02
    for f in (0, 1):
        rates = np.bincount(labels[foot == f], minlength=3) / np.sum(foot == f)
        assert np.max(np.abs(rates - DIRECTION_GIVEN_FOOT[f])) < 0.02


def test_generator_deterministic_files(tmp_path):
    _, s1 = generate_synthetic(20, embedding_dim=6, seed=77)
    _, s2 = generate_synthetic(20, embedding_dim=6, seed=77)
    p1, p2 = tmp_path / "a.pkds", tmp_path / "b.pkds"
    save_dataset(p1, s1, backbone="synthetic")
    save_dataset(p2, s2, backbone="synthetic")
    assert p1.read_bytes() == p2.read_bytes()
    _, s3 = generate_synthetic(20, embedding_dim=6, seed=78)
    save_dataset(p2, s3, backbone="synthetic")
    assert p1.read_bytes() != p2.read_bytes()


def test_generator_keeper_field():
    _, samples = generate_synthetic(500, embedding_dim=6, seed=3,
                                    gk_match_rate=1.0)
    for s in samples:
        assert s.gk_direction in (LEFT, RIGHT)
        if s.label != CENTER:
            assert s.gk_direction == s.label


def test_generator_rejects_narrow_embeddings():
    with pytest.raises(ConfigError):
        generate_synthetic(5, embedding_dim=5)


def test_sidecar_counts():
    manifest, samples = generate_synthetic(50, embedding_dim=6, seed=4)
    text = manifest_summary(manifest, samples)
    assert "samples: 50" in text
    assert "right-footed" in text and "left side" in text
    lefties = sum(1 for s in samples if s.meta.foot == 1)
    assert f"total={lefties}" in text


def test_load_rejects_non_finite_payload(tmp_path):
    samples = [make_sample(i, i % 3) for i in range(4)]
    samples[2].run_seq[1, 3] = np.nan
    path = tmp_path / "nan.pkds"
    save_dataset(path, samples)
    with pytest.raises(DataError, match=samples[2].id):
        load_dataset(path)


def test_saved_bytes_are_pinned(tmp_path):
    # SHA-256 of this archive as written by the per-record byte writer that
    # the structured record layout replaced
    _, samples = generate_synthetic(5, embedding_dim=6, seed=0)
    path = tmp_path / "golden.pkds"
    save_dataset(path, samples)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "39128da665ba60c6f919f3222127af4f9556a4e3c16a189751db6cf9c2a612e9"


# Each case patches one field of the second of three records (ids
# s000000..s000002) and names the sample the error must mention: its id where
# the id is readable, its index where the id itself is broken.
@pytest.mark.parametrize("field, value, name", [
    ("side", b"\x02", "s000001"),
    ("foot", b"\x02", "s000001"),
    ("label", b"\x03", "s000001"),
    ("gk", b"\x03", "s000001"),
    ("gk", b"\xfe", "s000001"),
    ("id", b"s000\t01", "index 1"),
    ("id", b"s000001\x00x", "index 1"),
    ("id", b"", "index 1"),
    ("id", b"s000002", "s000002"),
], ids=["side", "foot", "label", "keeper", "keeper-254", "tab-in-id",
        "byte-after-nul", "empty-id", "duplicate-id"])
def test_load_rejects_bad_record(tmp_path, field, value, name):
    path = tmp_path / "patched.pkds"
    save_dataset(path, [make_sample(i, i % 3, gk=i % 3) for i in range(3)])
    raw = bytearray(path.read_bytes())
    record = (len(raw) - 128) // 3
    offset = {"id": 0, "side": record - 4, "foot": record - 3,
              "label": record - 2, "gk": record - 1}[field]
    if field == "id":
        value = value.ljust(16, b"\x00")
    start = 128 + record + offset
    raw[start:start + len(value)] = value
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match=name):
        load_dataset(path)


@pytest.mark.parametrize("sid", ["kick\t1", "x" * 17, "kick\u00e91", "",
                                 "a\x00b"])
def test_save_rejects_invalid_id(tmp_path, sid):
    sample = make_sample(0, LEFT)
    sample.id = sid
    with pytest.raises(DataError):
        save_dataset(tmp_path / "bad.pkds", [sample, make_sample(1, RIGHT)])


def test_sixteen_byte_id_round_trips(tmp_path):
    sample = make_sample(0, LEFT)
    sample.id = "k" * 16
    path = tmp_path / "long.pkds"
    save_dataset(path, [sample])
    assert load_dataset(path)[1][0].id == "k" * 16


def test_loaded_sequences_are_writable_views(tmp_path):
    path = tmp_path / "views.pkds"
    save_dataset(path, [make_sample(i, i % 3) for i in range(3)])
    _, samples = load_dataset(path)
    for s in samples:
        for seq in (s.run_seq, s.kick_seq):
            assert seq.dtype == np.float32
            assert seq.flags.c_contiguous and seq.flags.writeable
    assert samples[0].run_seq.base is samples[1].run_seq.base


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A valid archive of four records, one without a keeper direction."""
    _, samples = generate_synthetic(4, embedding_dim=6, n_r=2, n_k=2, seed=1)
    samples[2].gk_direction = None
    path = tmp_path_factory.mktemp("fuzz") / "base.pkds"
    save_dataset(path, samples)
    return path.read_bytes()


_mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10_000)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=64)),
    st.tuples(st.just("set"), st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(0, 255)),
        min_size=1, max_size=6)),
)


@settings(max_examples=300, deadline=None)
@given(mutation=_mutations)
def test_load_fuzz_raises_only_data_errors(fuzz_base, tmp_path_factory,
                                           mutation):
    """A truncated, extended or byte-patched archive loads or raises a
    DataError, never a ValueError, IndexError or UnicodeDecodeError."""
    raw = bytearray(fuzz_base)
    kind, arg = mutation
    if kind == "truncate":
        del raw[arg % len(raw):]
    elif kind == "extend":
        raw += arg
    else:
        for pos, value in arg:
            raw[pos % len(raw)] = value
    path = tmp_path_factory.getbasetemp() / "fuzzed.pkds"
    path.write_bytes(bytes(raw))
    try:
        load_dataset(path)
    except DataError:
        pass
