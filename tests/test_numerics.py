"""Tests for the shared numeric primitives."""

import numpy as np

from kickdir.numerics import sigmoid


def reference_sigmoid(x):
    """sigmoid as written before: boolean-mask indexing per sign."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_masked_formula_bit_for_bit():
    rng = np.random.default_rng(5)
    edges = np.array([np.nan, -np.nan, 0.0, -0.0, 745.0, -745.0, 746.0, -746.0,
                      np.inf, -np.inf, 1e-300, -1e-300, 36.7, -36.7])
    for x in (edges, rng.normal(scale=10.0, size=(4, 5, 6)),
              rng.normal(size=(3, 2)) * 1e3, np.float64(-2.5), 0.0):
        got = sigmoid(x)
        ref = reference_sigmoid(x)
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
