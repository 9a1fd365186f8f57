import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoelastic.jets import (
    ActivationKind,
    NonFiniteError,
    _cos_sqrt_derivs,
    act_derivs,
    activate_jets,
    affine_jets,
    seed_jets,
)
from holoelastic.network import build_mlp, forward_jets

ALL_KINDS = list(ActivationKind)


def _jet(f, d1, d2):
    """One jet (value, first, second derivative) as a (3, 1, 1) batch."""
    return np.array([f, d1, d2], dtype=np.complex128).reshape(3, 1, 1)


def _act(kind, jets):
    return activate_jets(kind, jets)[0][:, 0, 0]


def test_seed_identity_jet():
    assert np.array_equal(seed_jets(np.array([0j])), _jet(0, 1, 0))
    assert np.array_equal(seed_jets(np.array([1 + 2j])), _jet(1 + 2j, 1, 0))


def test_seed_rejects_non_finite():
    with pytest.raises(ValueError):
        seed_jets(np.array([complex("nan")]))
    with pytest.raises(ValueError):
        seed_jets(np.array([complex(np.inf, 0)]))


def test_affine_examples():
    one, zero = np.ones((1, 1), dtype=complex), np.zeros(1, dtype=complex)
    z = seed_jets(np.array([0.3 + 0.7j]))
    assert np.array_equal(affine_jets(z, one, zero), z)
    out = affine_jets(_jet(1, 1, 0), np.array([[2j]]), np.array([1 + 0j]))
    assert np.array_equal(out, _jet(1 + 2j, 2j, 0))
    # two inputs summed: the units of a (3, 1, 2) batch
    ab = np.concatenate([seed_jets(np.array([0.2 + 0j])), seed_jets(np.array([-1j]))], axis=2)
    out = affine_jets(ab, np.ones((1, 2), dtype=complex), zero)
    assert np.array_equal(out, _jet(0.2 - 1j, 2, 0))


def test_exp_jet_at_zero():
    assert np.array_equal(_act(ActivationKind.EXP, _jet(0, 1, 0)), [1, 1, 1])


def test_exp_of_square_at_one():
    # exp(z^2) at z=1 carries jets (1, 2, 2); symbolic: (e, 2e, 6e)
    f, d1, d2 = _act(ActivationKind.EXP, _jet(1, 2, 2))
    e = math.e
    assert abs(f - e) < 1e-14
    assert abs(d1 - 2 * e) < 1e-13
    assert abs(d2 - 6 * e) < 1e-13


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_activation_returns_its_derivative_jet(n, dtype):
    # g is the jet of f'(y) on out's channels: exp' = exp is out itself,
    # cos' = -sin and sin' = cos bit for bit, and cos(sqrt)'s value channel
    # is act_derivs' first derivative
    rng = np.random.default_rng(n)
    jets = (rng.normal(size=(n, 4, 3)) + 1j * rng.normal(size=(n, 4, 3))).astype(dtype)
    (ec, gc), (es, gs) = (activate_jets(k, jets) for k in (ActivationKind.COS, ActivationKind.SIN))
    assert np.array_equal(gc, -es) and np.array_equal(gs, ec)
    out, g = activate_jets(ActivationKind.EXP, jets)
    assert g is out
    out, g = activate_jets(ActivationKind.COS_SQRT, jets)
    assert g.shape == out.shape == jets.shape and g.dtype == dtype
    assert np.array_equal(g[0], act_derivs(ActivationKind.COS_SQRT, jets[0], order=1)[1])


def _cos_sqrt_series(z, order, terms=40):
    # term-wise reference: sum (-1)^n n!/(n-order)! z^(n-order) / (2n)!
    total = 0.0 + 0.0j
    for n in range(order, terms):
        coef = (-1.0) ** n * math.factorial(n) / math.factorial(n - order) / math.factorial(2 * n)
        total += coef * z ** (n - order)
    return total


def test_cos_sqrt_at_pi_squared():
    f, d1, d2 = _act(ActivationKind.COS_SQRT, _jet(np.pi**2, 1, 0))
    assert abs(f - (-1.0)) < 1e-12
    assert abs(d1) < 1e-12  # -sin(pi)/(2 pi)
    assert abs(d2 - _cos_sqrt_series(np.pi**2, 2)) < 1e-12


@given(st.floats(-10, 10), st.floats(-10, 10))
@settings(max_examples=80, deadline=None)
def test_cos_sqrt_matches_even_series(x, y):
    z = complex(x, y)
    if abs(z) > 10:
        z *= 10 / abs(z)
    vals = act_derivs(ActivationKind.COS_SQRT, np.array([z]), order=1)
    for k, v in enumerate(vals):
        ref = _cos_sqrt_series(z, k)
        assert abs(v[0] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_cos_sqrt_derivatives_near_zero():
    # the closed form has a removable singularity; the series branch covers it
    for z in (0.0, 1e-12, 1e-6 + 1e-6j, 4e-3 - 2e-3j):
        vals = act_derivs(ActivationKind.COS_SQRT, np.array([z]), order=3)
        for k, v in enumerate(vals):
            ref = _cos_sqrt_series(complex(z), k)
            assert abs(v[0] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_activation_overflow_raises():
    # activations check nothing themselves; the branch forward names the layer
    net = build_mlp([1, 1, 1])
    for layer, w in zip(net.layers, (1.0, 1.0, 1e4, 1.0)):
        layer.weights[:] = w
    with pytest.raises(NonFiniteError, match=r"layer 3 \(exp\)"):
        forward_jets(net, np.array([1.0 + 0j]))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_activation_jets_match_finite_differences(kind):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=100) + 1j * rng.normal(size=100)
    pts *= np.minimum(1.0, 2.0 / np.abs(pts))
    h = 1e-5
    f0 = act_derivs(kind, pts, order=0)[0]
    val, d1, d2 = act_derivs(kind, pts, order=2)
    for step in (h, 1j * h):  # steps along both real and imaginary axes
        fp = act_derivs(kind, pts + step, order=0)[0]
        fm = act_derivs(kind, pts - step, order=0)[0]
        fd1 = (fp - fm) / (2 * step)
        fd2 = (fp - 2 * f0 + fm) / step**2
        assert np.max(np.abs(fd1 - d1) / np.maximum(1.0, np.abs(d1))) < 1e-6
        assert np.max(np.abs(fd2 - d2) / np.maximum(1.0, np.abs(d2))) < 1e-4


EXP_ULPS = 4  # complex64 exp: numpy's float32 exp, cos and sin measure up to 3.2 ulps of |e|


def _ulps(got, ref):
    """|got - ref| in float32 ulps of |ref|, for complex64 got and ref."""
    return np.abs(got.astype(np.complex128) - ref) / np.spacing(np.abs(ref))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_act_derivs_keeps_single_precision(kind):
    # complex64 in, complex64 out: exp runs on numpy's float32 exp, cos and
    # sin, within EXP_ULPS of |e| of the complex128 result rounded once; the
    # other activations evaluate in complex128 and round their results once
    rng = np.random.default_rng(3)
    y = (rng.normal(size=40) + 1j * rng.normal(size=40)).astype(np.complex64)
    got = act_derivs(kind, y, order=3)
    assert [d.dtype for d in got] == [np.dtype(np.complex64)] * 4
    for g, r in zip(got, act_derivs(kind, y.astype(np.complex128), order=3)):
        if kind is ActivationKind.EXP:
            assert np.max(_ulps(g, r.astype(np.complex64))) <= EXP_ULPS
        else:
            assert np.array_equal(g, r.astype(np.complex64))


def test_single_precision_exp_edges():
    # finite up to Re 88.6 (float32 overflows at e^88.72), 0 from Re -104
    # (half the least float32 denormal is e^-103.97), and within the bound for
    # |Im| > 71476, where numpy's float32 cos and sin leave their SIMD range
    rng = np.random.default_rng(5)
    n = 20_000

    def exp64(re, im):
        return act_derivs(ActivationKind.EXP, (re + 1j * im).astype(np.complex64), order=0)[0]

    def within_bound(re, im):
        ref = np.exp((re + 1j * im).astype(np.complex64).astype(np.complex128)).astype(np.complex64)
        got = exp64(re, im)
        return np.isfinite(got).all() and np.max(_ulps(got, ref)) <= EXP_ULPS

    im = rng.uniform(-10, 10, n)
    assert within_bound(np.r_[rng.uniform(-104, 88.6, n - 3), -104, 88.6, 0], im)
    assert not np.isfinite(exp64(np.r_[rng.uniform(88.8, 1e3, n - 2), 88.8, 1e30], im)).any()
    assert (exp64(np.r_[rng.uniform(-1e3, -104, n - 2), -104, -1e30], im) == 0).all()
    big = rng.choice([-1, 1], n) * np.r_[10 ** rng.uniform(np.log10(71477), 38, n - 1), 71477]
    assert within_bound(rng.uniform(-80, 80, n), big)


# the complex128 cases keep their ids from before the complex64 ones joined
GEMM_CASES = [pytest.param(k, np.complex128, id=str(k)) for k in ALL_KINDS] + [
    pytest.param(k, np.complex64, id=f"{k}-complex64") for k in ALL_KINDS
]


@pytest.mark.parametrize("kind, dtype", GEMM_CASES)
def test_act_derivs_bitwise_after_complex_gemm(kind, dtype):
    # act_derivs runs a real matmul before libm to dodge a slowdown after
    # complex GEMMs (the complex64 exp runs no libm and skips it); either
    # must change timing only, never a single bit
    rng = np.random.default_rng(7)
    x = rng.normal(size=(600, 100)) + 1j * rng.normal(size=(600, 100))
    w = 0.02 * (rng.normal(size=(100, 100)) + 1j * rng.normal(size=(100, 100)))
    x, w = x.astype(dtype), w.astype(dtype)
    y = x @ w.T
    got = act_derivs(kind, y, order=3)
    y0 = y.copy()
    if dtype is np.complex64:
        want = act_derivs(kind, y0, order=3)  # after no GEMM
    elif kind is ActivationKind.EXP:
        want = (np.exp(y0),) * 4
    elif kind is ActivationKind.COS:
        c, s = np.cos(y0), np.sin(y0)
        want = (c, -s, -c, s)
    elif kind is ActivationKind.SIN:
        c, s = np.cos(y0), np.sin(y0)
        want = (s, c, -s, -c)
    else:
        want = _cos_sqrt_derivs(y0, 3)
    assert len(got) == 4
    for g, r in zip(got, want):
        assert g.dtype == dtype and np.isfinite(g).all()
        assert np.array_equal(g.view(np.uint64), r.view(np.uint64))
