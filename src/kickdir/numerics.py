"""Small numerically-careful primitives shared across modules.

Everything operates on float64 arrays; training and the gradient checks
rely on 64-bit precision throughout.
"""

import numpy as np


def sigmoid(x):
    # 1/(1 + e^-x) for x >= 0 and e^x/(1 + e^x) below, both from e^-|x|;
    # min(x, -x) rather than -abs(x) keeps the sign of a NaN input
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def softplus(x):
    # log(1 + e^x) without overflow for large |x|
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus_inverse(y):
    # x such that softplus(x) = y; y must be positive
    y = np.asarray(y, dtype=np.float64)
    return y + np.log(-np.expm1(-y))


def softmax(x, axis=-1):
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x, axis=-1):
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def relu(x):
    return np.maximum(x, 0.0)


def require_finite(name, *arrays):
    """Raise ValueError if any array contains NaN or Inf."""
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name}: non-finite values in input")


def weight_grad(dout, inp, out=None):
    """Gradient of a linear map's weight: the outer products dout_t inp_t^T
    summed over every leading axis, as one matrix product written to out
    (a new array by default)."""
    return np.matmul(dout.reshape(-1, dout.shape[-1]).T,
                     inp.reshape(-1, inp.shape[-1]), out=out)
