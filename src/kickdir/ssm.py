"""Selective state-space layer: discretization, input-dependent projections,
and the linear recurrence. Training and evaluation both run the sequential
scan; the associative scan is kept as an independent reference for it.

The recurrence per channel h and state n is

    s_t = a_bar[t] * s_{t-1} + b_bar[t] * x_t,     y_t = <c_t, s_t> + d * x_t

where a_bar, b_bar come from zero-order-hold discretization of a diagonal
continuous-time system with an input-dependent step size, and b_t, c_t,
delta_t are affine functions of the current input (the selection mechanism).

All forward functions have hand-derived reverse-mode counterparts; every
gradient is checked against central finite differences in the test suite.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import (require_finite, sigmoid, softplus, softplus_inverse,
                       weight_grad)

# Below this |delta * a| the exact b_bar expression (exp(z)-1)/a * b is
# replaced by its limit delta * b to avoid catastrophic cancellation.
ZOH_LIMIT = 1e-6


@dataclass
class SsmParams:
    """Parameters of one selective SSM core over H channels and N states.

    The evolution parameter is diagonal per channel: a = -exp(a_log), which
    keeps every entry strictly negative so the ZOH exponential stays in (0,1)
    for any positive step size.
    """

    a_log: np.ndarray   # (H, N)
    skip_d: np.ndarray  # (H,)  direct feedthrough
    w_delta: np.ndarray  # (H, H) step-size projection
    b_delta: np.ndarray  # (H,)  step-size bias (controls initial delta)
    w_b: np.ndarray     # (N, H) input projection
    b_b: np.ndarray     # (N,)
    w_c: np.ndarray     # (N, H) readout projection
    b_c: np.ndarray     # (N,)

    @property
    def channels(self):
        return self.a_log.shape[0]

    @property
    def state_size(self):
        return self.a_log.shape[1]


def init_ssm_params(channels, state_size, rng, delta_range=(0.001, 0.1)):
    """Initialize an SSM core.

    a_log starts at log(1..N) per channel; the delta bias is sampled so the
    initial step size softplus(b_delta) lands log-uniformly in delta_range.
    """
    if channels < 1 or state_size < 1:
        raise ValueError("channels and state_size must be >= 1")
    a_log = np.tile(np.log(np.arange(1, state_size + 1, dtype=np.float64)),
                    (channels, 1))
    lo, hi = delta_range
    delta_init = np.exp(rng.uniform(np.log(lo), np.log(hi), size=channels))
    scale = 1.0 / np.sqrt(channels)
    return SsmParams(
        a_log=a_log,
        skip_d=np.ones(channels),
        w_delta=rng.uniform(-scale, scale, size=(channels, channels)),
        b_delta=softplus_inverse(delta_init),
        w_b=rng.uniform(-scale, scale, size=(state_size, channels)),
        b_b=np.zeros(state_size),
        w_c=rng.uniform(-scale, scale, size=(state_size, channels)),
        b_c=np.zeros(state_size),
    )


def ssm_param_arrays(params, prefix=""):
    """Yield (name, array) pairs for every learnable tensor of the core."""
    for field in ("a_log", "skip_d", "w_delta", "b_delta", "w_b", "b_b",
                  "w_c", "b_c"):
        yield prefix + field, getattr(params, field)


def discretize_zoh(a, b, delta):
    """Zero-order-hold discretization of the diagonal system (a, b).

    Returns (a_bar, b_bar) with a_bar = exp(delta*a) and
    b_bar = ((exp(delta*a) - 1)/a) * b, switching to the analytic limit
    delta*b when |delta*a| < ZOH_LIMIT. Inputs broadcast elementwise.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    require_finite("discretize_zoh", a, b, delta)
    if np.any(a >= 0):
        raise ValueError("discretize_zoh: evolution parameter must be negative")
    if np.any(delta < 0):
        raise ValueError("discretize_zoh: step size must be non-negative")
    phi = np.asarray(delta * a)  # z, until _zoh_phi turns it into phi
    a_bar = np.exp(phi)
    _zoh_phi(phi, delta, a, a_bar)
    return a_bar, phi * b


def _zoh_phi(buf, delta, a, a_bar):
    """Turn buf from z = delta*a into phi = (a_bar - 1)/a in place, so that
    b_bar = phi * b, with a_bar = exp(z). Where the returned mask
    z > -ZOH_LIMIT holds, phi is its limit delta instead; since delta >= 0
    and a < 0 make z <= 0, that is the same test as |z| < ZOH_LIMIT."""
    small = buf > -ZOH_LIMIT
    np.subtract(a_bar, 1.0, out=buf)
    buf /= a
    np.copyto(buf, delta, where=small)
    return small


@dataclass
class ScanCache:
    """What scan_backward reads; it recomputes phi from a_bar."""

    x: np.ndarray       # (B, T, H) scan input
    pre: np.ndarray     # (B, T, H) delta pre-activation
    delta: np.ndarray   # (B, T, H)
    b: np.ndarray       # (B, T, N)
    c: np.ndarray       # (B, T, N)
    a_bar: np.ndarray   # (B, T, H, N)
    hs: np.ndarray      # (B, T, H, N) hidden states
    params: SsmParams


def _selective_parts(x, params):
    """Shared precomputation for both scan evaluations. x is (B, T, H)."""
    pre = x @ params.w_delta.T + params.b_delta
    delta = softplus(pre)
    b = x @ params.w_b.T + params.b_b
    c = x @ params.w_c.T + params.b_c
    a = -np.exp(params.a_log)
    # the only two (B, T, H, N) arrays: a_bar, and u built in place from z
    u = np.multiply(delta[..., None], a)
    a_bar = np.exp(u)
    _zoh_phi(u, delta[..., None], a, a_bar)
    u *= b[:, :, None, :]
    u *= x[..., None]
    return pre, delta, b, c, a_bar, u


def _readout(hs, c, x, skip_d):
    return np.einsum("bthn,btn->bth", hs, c) + skip_d * x


def _check_scan_input(name, x):
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 2
    if squeeze:
        x = x[None]
    if x.ndim != 3:
        raise ValueError(f"{name}: expected (T, H) or (B, T, H) input")
    if x.shape[1] < 1:
        raise ValueError(f"{name}: empty sequence")
    require_finite(name, x)
    return x, squeeze


def scan_recurrent(x, params):
    """Left-to-right evaluation of the selective recurrence.

    x: (T, H) or (B, T, H); returns y of the same shape. O(T*H*N) work.
    """
    x, squeeze = _check_scan_input("scan_recurrent", x)
    y, _ = _scan_forward(x, params)
    return y[0] if squeeze else y


def _scan_forward(x, params, need_cache=True):
    pre, delta, b, c, a_bar, hs = _selective_parts(x, params)
    for t in range(1, x.shape[1]):  # in place over u: s_0 = u_0
        hs[:, t] += a_bar[:, t] * hs[:, t - 1]
    y = _readout(hs, c, x, params.skip_d)
    if not need_cache:
        return y, None
    cache = ScanCache(x=x, pre=pre, delta=delta, b=b, c=c, a_bar=a_bar, hs=hs,
                      params=params)
    return y, cache


def _compose_affine(a2, u2, a1, u1):
    """Composition of affine maps h -> a*h + u: apply (a1,u1) first, then (a2,u2)."""
    return a2 * a1, a2 * u1 + u2


def scan_parallel(x, params):
    """Associative-scan evaluation of the same recurrence, kept as the
    reference that the sequential scan is checked against.

    Each timestep is the affine map h -> a_bar*h + b_bar*x_t; maps compose as
    (a2,u2)o(a1,u1) = (a2*a1, a2*u1 + u2), so an inclusive scan with stride
    doubling yields all hidden states in ceil(log2 T) combine passes.
    """
    x, squeeze = _check_scan_input("scan_parallel", x)
    _, _, _, c, a_bar, u = _selective_parts(x, params)
    a_acc = a_bar.copy()
    u_acc = u.copy()
    t_len = x.shape[1]
    offset = 1
    while offset < t_len:
        a_new, u_new = _compose_affine(a_acc[:, offset:], u_acc[:, offset:],
                                       a_acc[:, :-offset], u_acc[:, :-offset])
        a_acc[:, offset:] = a_new
        u_acc[:, offset:] = u_new
        offset *= 2
    y = _readout(u_acc, c, x, params.skip_d)
    return y[0] if squeeze else y


def scan_backward(cache, dy, grads, prefix=""):
    """Reverse-mode gradients of _scan_forward.

    Overwrites grads[prefix + name] for every name ssm_param_arrays yields
    and returns dx. State gradients propagate right-to-left:
    ds_{t-1} += a_bar_t * ds_t.
    """
    p = cache.params
    x, b, delta, hs, a_bar = cache.x, cache.b, cache.delta, cache.hs, cache.a_bar
    t_len = x.shape[1]
    a = -np.exp(p.a_log)
    delta_e = delta[..., None]

    np.einsum("bth,bth->h", dy, x, out=grads[prefix + "skip_d"])
    dx = dy * p.skip_d
    dc = np.einsum("bth,bthn->btn", dy, hs)

    # d_hs starts as the readout path; g[:, t-1] = a_bar_t * ds_t is what
    # step t hands back to step t-1. g lives in work, the one scratch buffer
    d_hs = dy[..., None] * cache.c[:, :, None, :]
    work = np.empty_like(hs)
    g = work[:, 1:]
    for t in range(t_len - 1, 0, -1):
        np.multiply(a_bar[:, t], d_hs[:, t], out=g[:, t - 1])
        d_hs[:, t - 1] += g[:, t - 1]

    # through a_bar = exp(delta * a): g becomes d_a_bar * a_bar, where
    # d_a_bar_t = ds_t * h_{t-1} is zero at t = 0
    g *= hs[:, :-1]
    ddelta = np.zeros_like(delta)
    ddelta[:, 1:] = np.einsum("bthn,hn->bth", g, a)
    da_log = grads[prefix + "a_log"]  # holds d/da until the last step
    np.einsum("bthn,bth->hn", g, delta[:, 1:], out=da_log)

    # through u = phi * b * x; g is spent, work holds one product at a time
    phi = np.multiply(delta_e, a)
    small = _zoh_phi(phi, delta_e, a, a_bar)
    np.multiply(d_hs, phi, out=work)  # d_bx
    dx += np.einsum("bthn,btn->bth", work, b)
    db = np.einsum("bthn,bth->btn", work, x)
    dphi = np.multiply(d_hs, x[..., None], out=d_hs)  # d_hs is spent
    dphi *= b[:, :, None, :]
    # phi branches: limit is delta (d/ddelta = 1, d/da = 0); exact branch is
    # (a_bar - 1)/a (d/ddelta = a_bar, d/da = (delta*a_bar - phi)/a)
    np.copyto(work, a_bar)
    np.copyto(work, 1.0, where=small)
    ddelta += np.einsum("bthn,bthn->bth", dphi, work)
    np.multiply(delta_e, a_bar, out=work)
    work -= phi
    np.copyto(work, 0.0, where=small)
    da_log += np.einsum("bthn,bthn->hn", dphi, work) / a
    da_log *= a  # a = -exp(a_log)

    dpre = ddelta * sigmoid(cache.pre)
    dx += dpre @ p.w_delta
    dx += db @ p.w_b
    dx += dc @ p.w_c
    for name, d in (("delta", dpre), ("b", db), ("c", dc)):
        weight_grad(d, x, grads[f"{prefix}w_{name}"])
        np.sum(d, axis=(0, 1), out=grads[f"{prefix}b_{name}"])
    return dx


@dataclass
class SsmLayerParams:
    """Gated block around one SSM core: main branch (projection, optional
    depthwise causal conv, scan) multiplied by a sigmoid-linear gate, then an
    output projection back to the block width."""

    w_in: np.ndarray    # (E, D)
    b_in: np.ndarray    # (E,)
    w_gate: np.ndarray  # (E, D)
    b_gate: np.ndarray  # (E,)
    conv_w: np.ndarray | None  # (E, K) depthwise causal kernel, None = no conv
    conv_b: np.ndarray | None  # (E,)
    ssm: SsmParams      # channels = E
    w_out: np.ndarray   # (D, E)
    b_out: np.ndarray   # (D,)


def init_ssm_layer(d_model, state_size, rng, expand=2, conv_width=4,
                   use_conv=True, delta_range=(0.001, 0.1)):
    inner = expand * d_model
    s_in = 1.0 / np.sqrt(d_model)
    s_out = 1.0 / np.sqrt(inner)
    conv_w = conv_b = None
    if use_conv:
        s_conv = 1.0 / np.sqrt(conv_width)
        conv_w = rng.uniform(-s_conv, s_conv, size=(inner, conv_width))
        conv_b = np.zeros(inner)
    return SsmLayerParams(
        w_in=rng.uniform(-s_in, s_in, size=(inner, d_model)),
        b_in=np.zeros(inner),
        w_gate=rng.uniform(-s_in, s_in, size=(inner, d_model)),
        b_gate=np.zeros(inner),
        conv_w=conv_w,
        conv_b=conv_b,
        ssm=init_ssm_params(inner, state_size, rng, delta_range=delta_range),
        w_out=rng.uniform(-s_out, s_out, size=(d_model, inner)),
        b_out=np.zeros(d_model),
    )


def _causal_conv(u, conv_w, conv_b):
    """Depthwise causal convolution over time: out_t = conv_b +
    sum_j conv_w[:, j] * u_{t-j}, where u before the start is zero."""
    t_len = u.shape[1]
    out = np.broadcast_to(conv_b, u.shape).copy()
    for j in range(min(conv_w.shape[1], t_len)):
        out[:, j:] += conv_w[:, j] * u[:, :t_len - j]
    return out


def _causal_conv_backward(dout, u, conv_w, dconv_w, dconv_b):
    """Returns du and overwrites dconv_w and dconv_b. A kernel column
    j >= T never meets an input, so its gradient is zero."""
    t_len = u.shape[1]
    taps = min(conv_w.shape[1], t_len)
    du = np.zeros_like(u)
    for j in range(taps):
        np.einsum("bth,bth->h", dout[:, j:], u[:, :t_len - j],
                  out=dconv_w[:, j])
        du[:, :t_len - j] += conv_w[:, j] * dout[:, j:]
    dconv_w[:, taps:] = 0.0
    np.sum(dout, axis=(0, 1), out=dconv_b)
    return du


@dataclass
class SsmLayerCache:
    x: np.ndarray
    u: np.ndarray
    gate: np.ndarray
    scan_y: np.ndarray
    scan_cache: ScanCache
    layer: SsmLayerParams


def ssm_layer_forward(x, layer, need_cache=True):
    """Gated SSM block. x: (B, T, D) -> (y: (B, T, D), cache).

    With need_cache=False the intermediates for the backward pass are
    dropped as soon as they are used and the cache is None.
    """
    x = np.asarray(x, dtype=np.float64)
    u = x @ layer.w_in.T + layer.b_in
    xc = _causal_conv(u, layer.conv_w, layer.conv_b) if layer.conv_w is not None else u
    scan_y, scan_cache = _scan_forward(xc, layer.ssm, need_cache)
    gate = sigmoid(x @ layer.w_gate.T + layer.b_gate)
    y = (gate * scan_y) @ layer.w_out.T + layer.b_out
    if not need_cache:
        return y, None
    cache = SsmLayerCache(x=x, u=u, gate=gate, scan_y=scan_y,
                          scan_cache=scan_cache, layer=layer)
    return y, cache


def ssm_layer_backward(cache, dy, grads, prefix=""):
    """Reverse-mode gradients of ssm_layer_forward.

    Overwrites grads[prefix + name] for every name ssm_layer_param_arrays
    yields and returns dx.
    """
    layer = cache.layer
    dgated = dy @ layer.w_out
    weight_grad(dy, cache.gate * cache.scan_y, grads[prefix + "w_out"])
    np.sum(dy, axis=(0, 1), out=grads[prefix + "b_out"])

    dgate = dgated * cache.scan_y
    dscan_y = dgated * cache.gate
    dgpre = dgate * cache.gate * (1.0 - cache.gate)
    dx = dgpre @ layer.w_gate
    weight_grad(dgpre, cache.x, grads[prefix + "w_gate"])
    np.sum(dgpre, axis=(0, 1), out=grads[prefix + "b_gate"])

    du = scan_backward(cache.scan_cache, dscan_y, grads, prefix + "ssm.")
    if layer.conv_w is not None:
        du = _causal_conv_backward(du, cache.u, layer.conv_w,
                                   grads[prefix + "conv_w"],
                                   grads[prefix + "conv_b"])

    dx += du @ layer.w_in
    weight_grad(du, cache.x, grads[prefix + "w_in"])
    np.sum(du, axis=(0, 1), out=grads[prefix + "b_in"])
    return dx


def ssm_layer_param_arrays(layer, prefix=""):
    """Yield (name, array) pairs for every learnable tensor in the block."""
    for field in ("w_in", "b_in", "w_gate", "b_gate", "conv_w", "conv_b"):
        arr = getattr(layer, field)
        if arr is not None:
            yield prefix + field, arr
    yield from ssm_param_arrays(layer.ssm, prefix + "ssm.")
    yield prefix + "w_out", layer.w_out
    yield prefix + "b_out", layer.b_out
