"""Correctness checks that do not trust kickdir: an independent decoder for
the `.pkds` archive and a tally of checks and operations."""

import numpy as np

HEADER_SIZE = 128
ID_SIZE = 16


def record_dtype(n_r, n_k, d):
    """One `.pkds` record as data.py documents it: a NUL-padded id, the run
    then kick sequences as little-endian float32 in (time, feature) order,
    then side, foot, label and keeper bytes."""
    return np.dtype([("id", f"S{ID_SIZE}"), ("run", "<f4", (n_r, d)),
                     ("kick", "<f4", (n_k, d)), ("side", "u1"),
                     ("foot", "u1"), ("label", "u1"), ("gk", "u1")])


def decode_archive(path, n_r, n_k, d):
    with open(path, "rb") as fh:
        raw = fh.read()
    return np.frombuffer(raw, dtype=record_dtype(n_r, n_k, d),
                         offset=HEADER_SIZE)


def columns(samples):
    """The fields of a list of kickdir samples, in the decoder's layout."""
    return {
        "id": np.array([s.id.encode("ascii") for s in samples],
                       dtype=f"S{ID_SIZE}"),
        "run": np.stack([s.run_seq for s in samples]).astype("<f4"),
        "kick": np.stack([s.kick_seq for s in samples]).astype("<f4"),
        "side": np.array([s.meta.side for s in samples], dtype=np.uint8),
        "foot": np.array([s.meta.foot for s in samples], dtype=np.uint8),
        "label": np.array([s.label for s in samples], dtype=np.uint8),
        "gk": np.array([255 if s.gk_direction is None else s.gk_direction
                        for s in samples], dtype=np.uint8),
    }


def same_records(records, samples):
    """True when decoded records and samples agree field by field, the
    embeddings byte for byte."""
    if len(records) != len(samples):
        return False
    cols = columns(samples)
    return all(records[name].tobytes() == col.tobytes()
               for name, col in cols.items())


class Tally:
    """Counts operations and checks; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def ops(self, n=1):
        self.attempted += n

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)
