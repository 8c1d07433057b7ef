"""Tests for the selective state-space core and the gated block."""

import tracemalloc

import numpy as np
import pytest

from kickdir.gradcheck import max_rel_error, numerical_grad
from kickdir.numerics import sigmoid, softplus, weight_grad
from kickdir.ssm import (
    ZOH_LIMIT,
    SsmParams,
    _causal_conv,
    _compose_affine,
    _scan_forward,
    discretize_zoh,
    init_ssm_layer,
    init_ssm_params,
    scan_backward,
    scan_parallel,
    scan_recurrent,
    ssm_layer_backward,
    ssm_layer_forward,
    ssm_layer_param_arrays,
    ssm_param_arrays,
)


def nan_grads(arrays):
    """A gradient mapping for a backward to fill; NaN shows a missed element."""
    return {name: np.full_like(arr, np.nan) for name, arr in arrays}


def constant_params(a_log=0.0, b=1.0, c=1.0, d=0.0):
    """1-channel, 1-state core whose projections ignore the input."""
    return SsmParams(
        a_log=np.array([[a_log]]),
        skip_d=np.array([d]),
        w_delta=np.zeros((1, 1)),
        b_delta=np.zeros(1),  # softplus(0) = ln 2
        w_b=np.zeros((1, 1)),
        b_b=np.array([b]),
        w_c=np.zeros((1, 1)),
        b_c=np.array([c]),
    )


def test_hand_unrolled_recurrence():
    # a = -1, delta = ln 2 -> a_bar = 0.5, b_bar = 0.5; with unit input:
    # h1 = 0.5, h2 = 0.5*0.5 + 0.5 = 0.75
    params = constant_params()
    x = np.ones((2, 1))
    y = scan_recurrent(x, params)
    assert np.allclose(y[:, 0], [0.5, 0.75], atol=1e-12)


def test_zoh_reference_values():
    a_bar, b_bar = discretize_zoh(-1.0, 1.0, np.log(2.0))
    assert abs(a_bar - 0.5) < 1e-12
    assert abs(b_bar - 0.5) < 1e-12


def test_zoh_limit_branch():
    # below the threshold the linearized rule b_bar = delta * b applies
    a_bar, b_bar = discretize_zoh(-1.0, 2.0, 1e-8)
    assert b_bar == 1e-8 * 2.0
    assert abs(a_bar - 1.0) < 1e-7


def test_zoh_zero_step():
    a_bar, b_bar = discretize_zoh(np.array([-1.0, -3.0]), np.array([1.0, 5.0]), 0.0)
    assert np.all(a_bar == 1.0)
    assert np.all(b_bar == 0.0)


def test_zoh_branch_continuity():
    # the two expressions agree near the switch point; evaluated at small
    # delta where the first-order truncation error delta^2*|a|*b/2 is tiny
    delta = 1e-3
    for a in (-1e-3 + 1e-9, -1e-3 - 1e-9):
        exact = (np.exp(delta * a) - 1.0) / a
        assert abs(exact - delta) < 1e-9
    lo = discretize_zoh(-1e-3 * (1 - 1e-10), 1.0, delta)[1]
    hi = discretize_zoh(-1e-3 * (1 + 1e-10), 1.0, delta)[1]
    assert abs(lo - hi) < 1e-9


def test_scan_discretization_is_discretize_zoh():
    # one channel below the ZOH limit switch and one above; inputs are powers
    # of two so that dividing the first hidden state by x is exact
    rng = np.random.default_rng(29)
    params = init_ssm_params(2, 3, rng)
    params.a_log[0] = np.log(1e-8)
    x = np.array([[[1.0, -2.0], [0.5, 1.0]], [[-0.5, 2.0], [2.0, -1.0]]])
    _, cache = _scan_forward(x, params)
    a = -np.exp(params.a_log)
    delta = cache.delta[..., None]
    small = np.abs(delta * a) < ZOH_LIMIT
    assert small.any() and not small.all()
    a_bar, b_bar = discretize_zoh(a, cache.b[:, :, None, :], delta)
    assert np.array_equal(cache.a_bar, a_bar)
    assert np.array_equal(cache.hs[:, 0] / x[:, 0, :, None], b_bar[:, 0])


def test_zoh_validates_inputs():
    with pytest.raises(ValueError):
        discretize_zoh(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        discretize_zoh(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        discretize_zoh(-1.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        discretize_zoh(np.nan, 1.0, 0.5)


def test_zoh_stability_region():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = -np.exp(rng.normal(size=4))
        delta = np.exp(rng.normal(size=4))
        a_bar, _ = discretize_zoh(a, 1.0, delta)
        assert np.all(a_bar > 0.0) and np.all(a_bar < 1.0)
    a_bar, _ = discretize_zoh(-1.0, 1.0, 0.0)
    assert a_bar == 1.0


def test_affine_composition_is_associative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a1, a2, a3, u1, u2, u3 = rng.normal(size=6)
        left = _compose_affine(a3, u3, *_compose_affine(a2, u2, a1, u1))
        right = _compose_affine(*_compose_affine(a3, u3, a2, u2), a1, u1)
        assert np.allclose(left, right, rtol=1e-12)
        # composed map agrees with sequential application
        h = rng.normal()
        a12, u12 = _compose_affine(a2, u2, a1, u1)
        assert np.isclose(a12 * h + u12, a2 * (a1 * h + u1) + u2)


def test_scan_parallel_matches_recurrent():
    rng = np.random.default_rng(7)
    for _ in range(25):
        bsz = int(rng.integers(1, 3))
        t_len = int(rng.integers(1, 33))
        h = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        params = init_ssm_params(h, n, rng)
        x = rng.normal(size=(bsz, t_len, h))
        ys = scan_recurrent(x, params)
        yp = scan_parallel(x, params)
        assert max_rel_error(ys, yp, floor=1e-6) < 1e-5


def test_scan_single_step_identical():
    rng = np.random.default_rng(19)
    params = init_ssm_params(3, 2, rng)
    x = rng.normal(size=(2, 1, 3))
    assert np.array_equal(scan_recurrent(x, params), scan_parallel(x, params))


def test_scan_accepts_unbatched_input():
    rng = np.random.default_rng(5)
    params = init_ssm_params(3, 2, rng)
    x = rng.normal(size=(6, 3))
    y2 = scan_recurrent(x, params)
    y3 = scan_recurrent(x[None], params)
    assert y2.shape == (6, 3)
    assert np.array_equal(y2, y3[0])


def test_scan_rejects_bad_input():
    rng = np.random.default_rng(5)
    params = init_ssm_params(3, 2, rng)
    with pytest.raises(ValueError):
        scan_recurrent(np.zeros((2, 0, 3)), params)
    with pytest.raises(ValueError):
        scan_recurrent(np.full((2, 4, 3), np.nan), params)


def test_scan_is_causal():
    rng = np.random.default_rng(23)
    params = init_ssm_params(4, 3, rng)
    x = rng.normal(size=(1, 10, 4))
    y = scan_recurrent(x, params)
    for t in (3, 7):
        xp = x.copy()
        xp[0, t] += rng.normal(size=4)
        yp = scan_recurrent(xp, params)
        assert np.array_equal(y[0, :t], yp[0, :t])
        assert not np.allclose(y[0, t:], yp[0, t:])


def scan_loss(x, params, r):
    y, _ = _scan_forward(x, params)
    return float(np.sum(y * r))


def test_scan_backward_matches_finite_differences():
    rng = np.random.default_rng(41)
    params = init_ssm_params(3, 2, rng)
    x = rng.normal(size=(2, 5, 3))
    r = rng.normal(size=(2, 5, 3))
    y, cache = _scan_forward(x, params)
    grads = nan_grads(ssm_param_arrays(params))
    dx = scan_backward(cache, r, grads)

    # eps balances central-difference truncation against roundoff from the
    # loss magnitude; entries here are small so roundoff dominates below 1e-4
    num_dx = numerical_grad(lambda v: scan_loss(v, params, r), x, eps=1e-4)
    assert max_rel_error(dx, num_dx) < 1e-5

    for name in ("a_log", "skip_d", "w_delta", "b_delta", "w_b", "b_b",
                 "w_c", "b_c"):
        arr = getattr(params, name)
        num = numerical_grad(lambda _: scan_loss(x, params, r), arr, eps=1e-4)
        err = max_rel_error(grads[name], num)
        assert err < 1e-5, f"{name}: rel err {err}"


def test_scan_backward_limit_branch_gradient():
    # push one channel into the linearized-discretization branch and make
    # sure its gradients still match finite differences
    rng = np.random.default_rng(43)
    params = init_ssm_params(2, 2, rng)
    params.a_log[0] = np.log(1e-8)  # |delta*a| ~ 1e-9, below the switch
    x = rng.normal(size=(1, 4, 2))
    r = rng.normal(size=(1, 4, 2))
    _, cache = _scan_forward(x, params)
    small = np.abs(cache.delta[..., None] * -np.exp(params.a_log)) < ZOH_LIMIT
    assert small.any() and not small.all()
    grads = nan_grads(ssm_param_arrays(params))
    dx = scan_backward(cache, r, grads)
    assert max_rel_error(
        dx, numerical_grad(lambda v: scan_loss(v, params, r), x, eps=1e-4)) < 1e-5
    num = numerical_grad(lambda _: scan_loss(x, params, r), params.b_delta, eps=1e-4)
    assert max_rel_error(grads["b_delta"], num) < 1e-5


def reference_selective_parts(x, params):
    """The forward precomputation as written before the in-place scan, with
    a fresh array for every (B, T, H, N) step and np.where for phi."""
    pre = x @ params.w_delta.T + params.b_delta
    delta = softplus(pre)
    b = x @ params.w_b.T + params.b_b
    c = x @ params.w_c.T + params.b_c
    a = -np.exp(params.a_log)
    z = delta[..., None] * a
    a_bar = np.exp(z)
    phi = np.where(np.abs(z) < ZOH_LIMIT, delta[..., None], (a_bar - 1.0) / a)
    u = phi * b[:, :, None, :] * x[..., None]
    return pre, delta, b, c, a_bar, u


def reference_scan(x, params):
    pre, delta, b, c, a_bar, hs = reference_selective_parts(x, params)
    for t in range(1, x.shape[1]):
        hs[:, t] += a_bar[:, t] * hs[:, t - 1]
    y = np.einsum("bthn,btn->bth", hs, c) + params.skip_d * x
    return y, (pre, delta, b, c, a_bar, hs)


def reference_scan_backward(x, params, parts, dy):
    """scan_backward as written before the in-place scan."""
    pre, delta, b, c, a_bar, hs = parts
    a = -np.exp(params.a_log)
    delta_e = delta[..., None]
    d_skip = np.einsum("bth,bth->h", dy, x)
    dx = dy * params.skip_d
    dc = np.einsum("bth,bthn->btn", dy, hs)
    d_hs = dy[..., None] * c[:, :, None, :]
    g = np.empty_like(hs[:, 1:])
    for t in range(x.shape[1] - 1, 0, -1):
        np.multiply(a_bar[:, t], d_hs[:, t], out=g[:, t - 1])
        d_hs[:, t - 1] += g[:, t - 1]
    g *= hs[:, :-1]
    ddelta = np.zeros_like(delta)
    ddelta[:, 1:] = np.einsum("bthn,hn->bth", g, a)
    da = np.einsum("bthn,bth->hn", g, delta[:, 1:])
    z = delta_e * a
    small = np.abs(z) < ZOH_LIMIT
    phi = np.where(small, delta_e, (a_bar - 1.0) / a)
    d_bx = d_hs * phi
    dx += np.einsum("bthn,btn->bth", d_bx, b)
    db = np.einsum("bthn,bth->btn", d_bx, x)
    dphi = d_hs * x[..., None] * b[:, :, None, :]
    ddelta += np.einsum("bthn,bthn->bth", dphi, np.where(small, 1.0, a_bar))
    da += np.einsum("bthn,bthn->hn", dphi,
                    np.where(small, 0.0, delta_e * a_bar - phi)) / a
    dpre = ddelta * sigmoid(pre)
    dx += dpre @ params.w_delta
    dx += db @ params.w_b
    dx += dc @ params.w_c
    grads = {"a_log": da * a, "skip_d": d_skip,
             "w_delta": weight_grad(dpre, x), "b_delta": dpre.sum(axis=(0, 1)),
             "w_b": weight_grad(db, x), "b_b": db.sum(axis=(0, 1)),
             "w_c": weight_grad(dc, x), "b_c": dc.sum(axis=(0, 1))}
    return dx, grads


def test_lean_scan_matches_parent_formulas():
    # the in-place scan must give the same bits as the fresh-array formulas,
    # on both sides of the ZOH switch and for one, odd and longer sequences
    rng = np.random.default_rng(67)
    params = init_ssm_params(3, 4, rng)
    params.a_log[0] = np.log(1e-8)  # |delta*a| ~ 1e-9, below the switch
    for t_len in (1, 3, 5):
        x = rng.normal(size=(2, t_len, 3))
        dy = rng.normal(size=(2, t_len, 3))
        y_ref, parts = reference_scan(x, params)
        small = np.abs(parts[1][..., None] * -np.exp(params.a_log)) < ZOH_LIMIT
        assert small.any() and not small.all()
        y, cache = _scan_forward(x, params)
        assert np.array_equal(y, y_ref), t_len
        assert np.array_equal(cache.a_bar, parts[4]), t_len
        assert np.array_equal(cache.hs, parts[5]), t_len
        dx_ref, grads_ref = reference_scan_backward(x, params, parts, dy)
        grads = nan_grads(ssm_param_arrays(params))
        dx = scan_backward(cache, dy, grads)
        assert np.array_equal(dx, dx_ref), t_len
        assert grads.keys() == grads_ref.keys()
        for name, ref in grads_ref.items():
            assert np.array_equal(grads[name], ref), (t_len, name)
        assert np.array_equal(scan_recurrent(x, params), y_ref), t_len


def test_zoh_switch_edges_match_parent_formula():
    # z = delta*a at -ZOH_LIMIT and one ulp either side: the mask z > -limit
    # takes the same branch as |z| < limit did
    def reference(a, b, delta):
        z = delta * a
        a_bar = np.exp(z)
        return a_bar, np.where(np.abs(z) < ZOH_LIMIT, delta, (a_bar - 1.0) / a) * b

    below = np.nextafter(ZOH_LIMIT, 0.0)
    above = np.nextafter(ZOH_LIMIT, 1.0)
    for delta, limit_branch in ((below, True), (ZOH_LIMIT, False),
                                (above, False), (0.0, True)):
        a_bar, b_bar = discretize_zoh(-1.0, 3.0, delta)
        ref_a_bar, ref_b_bar = reference(-1.0, 3.0, delta)
        assert a_bar == ref_a_bar and b_bar == ref_b_bar, delta
        assert (b_bar == delta * 3.0) == limit_branch, delta
    delta = np.array([[below], [ZOH_LIMIT], [above], [0.0]])
    a = np.array([-1.0, -2.0, -1e-8])
    b = np.array([2.0, -1.0, 0.5])
    for got, ref in zip(discretize_zoh(a, b, delta), reference(a, b, delta)):
        assert np.array_equal(got, ref)


def test_scan_allocations_stay_in_place():
    # at the archive-scoring training shape the forward keeps two (B, T, H, N)
    # arrays alive (a_bar and the scanned hs); the backward adds d_hs, phi
    # and one work buffer. Units: one (B, T, 2D, 16) float64 array
    batch, t_len, d_model, state = 100, 5, 16, 16
    unit = batch * t_len * 2 * d_model * state * 8
    rng = np.random.default_rng(71)
    layer = init_ssm_layer(d_model, state, rng)
    x = rng.normal(size=(batch, t_len, d_model))
    dy = rng.normal(size=(batch, t_len, d_model))
    grads = nan_grads(ssm_layer_param_arrays(layer))
    ssm_layer_backward(ssm_layer_forward(x, layer)[1], dy, grads)  # warm up

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()

    for need_cache in (True, False):
        fwd = peak(lambda: ssm_layer_forward(x, layer, need_cache=need_cache))
        assert fwd <= 3.0, (need_cache, fwd)
    both = peak(lambda: ssm_layer_backward(ssm_layer_forward(x, layer)[1], dy,
                                           grads))
    assert both <= 7.0, both


def layer_loss(x, layer, r):
    y, _ = ssm_layer_forward(x, layer)
    return float(np.sum(y * r))


# T=2 is shorter than the default conv_width of 4: the causal conv's edge
@pytest.mark.parametrize("use_conv, t_len", [(True, 5), (False, 5), (True, 2)],
                         ids=["True", "False", "True-T2"])
def test_layer_backward_matches_finite_differences(use_conv, t_len):
    rng = np.random.default_rng(47)
    layer = init_ssm_layer(3, 2, rng, use_conv=use_conv)
    x = rng.normal(size=(2, t_len, 3))
    r = rng.normal(size=(2, t_len, 3))
    _, cache = ssm_layer_forward(x, layer)
    grads = nan_grads(ssm_layer_param_arrays(layer))
    dx = ssm_layer_backward(cache, r, grads)

    num_dx = numerical_grad(lambda v: layer_loss(v, layer, r), x, eps=1e-4)
    assert max_rel_error(dx, num_dx) < 1e-5

    for name, arr in ssm_layer_param_arrays(layer):
        num = numerical_grad(lambda _: layer_loss(x, layer, r), arr, eps=1e-4)
        err = max_rel_error(grads[name], num)
        assert err < 1e-5, f"{name}: rel err {err}"


@pytest.mark.parametrize("t_len", [2, 4, 7])
def test_causal_conv_matches_numpy_convolve(t_len):
    rng = np.random.default_rng(61)
    u = rng.normal(size=(2, t_len, 3))
    conv_w = rng.normal(size=(3, 4))
    conv_b = rng.normal(size=3)
    out = _causal_conv(u, conv_w, conv_b)
    for i in range(2):
        for h in range(3):
            ref = np.convolve(u[i, :, h], conv_w[h])[:t_len] + conv_b[h]
            assert np.allclose(out[i, :, h], ref, rtol=0, atol=1e-12)


def test_layer_is_causal():
    rng = np.random.default_rng(59)
    layer = init_ssm_layer(3, 2, rng)
    x = rng.normal(size=(1, 8, 3))
    y, _ = ssm_layer_forward(x, layer)
    xp = x.copy()
    xp[0, 5] += 1.0
    yp, _ = ssm_layer_forward(xp, layer)
    assert np.array_equal(y[0, :5], yp[0, :5])


def test_init_uses_distinct_state_rates():
    rng = np.random.default_rng(1)
    params = init_ssm_params(3, 4, rng)
    a = -np.exp(params.a_log)
    assert np.allclose(a[0], [-1.0, -2.0, -3.0, -4.0])
    # initial step sizes land in the configured range
    d = softplus(params.b_delta)
    assert np.all(d >= 0.001 - 1e-12) and np.all(d <= 0.1 + 1e-12)
