import math

import numpy as np
import pytest

from holoelastic.jets import (
    ActivationKind,
    NonFiniteError,
    act_derivs,
    activate_jets,
    activate_jets_adjoint,
    affine_jets,
    affine_jets_adjoint,
    seed_jets,
)
from holoelastic.network import build_mlp, forward_jets

def _jet(f, d1, d2):
    """One jet (value, first, second derivative) as a (3, 1, 1) batch."""
    return np.array([f, d1, d2], dtype=np.complex128).reshape(3, 1, 1)


def _act(kind, jets):
    return activate_jets(kind, jets)[:, 0, 0]


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
    # exp' = exp, so the activated jet is also the jet of f'(y), the one
    # array activate_jets_adjoint reads: (e, e y1, e y1^2 + e y2), e = exp(y0)
    rng = np.random.default_rng(n)
    jets = (rng.normal(size=(n, 4, 3)) + 1j * rng.normal(size=(n, 4, 3))).astype(dtype)
    g = activate_jets(ActivationKind.EXP, jets)
    assert g.shape == jets.shape and g.dtype == dtype
    y = np.zeros((3,) + jets.shape[1:], dtype=np.complex128)
    y[:n] = jets
    e = np.exp(y[0])
    want = np.array([e, e * y[1], e * y[1] ** 2 + e * y[2]][:n])
    tol = 1e-6 if dtype is np.complex64 else 1e-15
    assert np.max(np.abs(g - want)) <= tol * np.max(np.abs(want))


def test_activation_overflow_raises():
    # activations check nothing themselves; the branch forward names the layer
    net = build_mlp([1, 1, 1])
    for layer, w in zip(net.layers, (1.0, 1.0, 1e4, 1.0)):
        layer.weights[:] = w
    with pytest.raises(NonFiniteError, match=r"layer 3$"):
        forward_jets(net, seed_jets(np.array([1.0 + 0j])))


@pytest.mark.parametrize("kind", [ActivationKind.EXP])
def test_activation_jets_match_finite_differences(kind):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=100) + 1j * rng.normal(size=100)
    pts *= np.minimum(1.0, 2.0 / np.abs(pts))
    h = 1e-5
    f0 = d1 = d2 = act_derivs(kind, pts)  # exp is its own derivative
    for step in (h, 1j * h):  # steps along both real and imaginary axes
        fp = act_derivs(kind, pts + step)
        fm = act_derivs(kind, pts - step)
        fd1 = (fp - fm) / (2 * step)
        fd2 = (fp - 2 * f0 + fm) / step**2
        assert np.max(np.abs(fd1 - d1) / np.maximum(1.0, np.abs(d1))) < 1e-6
        assert np.max(np.abs(fd2 - d2) / np.maximum(1.0, np.abs(d2))) < 1e-4


EXP_ULPS = 4  # complex64 exp: numpy's float32 exp, cos and sin measure up to 3.2 ulps of |e|


def _ulps(got, ref):
    """|got - ref| in float32 ulps of |ref|, for complex64 got and ref."""
    return np.abs(got.astype(np.complex128) - ref) / np.spacing(np.abs(ref))


@pytest.mark.parametrize("kind", [ActivationKind.EXP])
def test_act_derivs_keeps_single_precision(kind):
    # complex64 in, complex64 out: exp runs on numpy's float32 exp, cos and
    # sin, within EXP_ULPS of |e| of the complex128 result rounded once
    rng = np.random.default_rng(3)
    y = (rng.normal(size=40) + 1j * rng.normal(size=40)).astype(np.complex64)
    got = act_derivs(kind, y)
    assert got.dtype == np.complex64
    want = act_derivs(kind, y.astype(np.complex128))
    assert np.max(_ulps(got, want.astype(np.complex64))) <= EXP_ULPS


def test_single_precision_exp_edges():
    # finite up to Re 88.6 (float32 overflows at e^88.72), 0 from Re -104
    # (half the least float32 denormal is e^-103.97), and within the bound for
    # |Im| > 71476, where numpy's float32 cos and sin leave their SIMD range
    rng = np.random.default_rng(5)
    n = 20_000

    def exp64(re, im):
        return act_derivs(ActivationKind.EXP, (re + 1j * im).astype(np.complex64))

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


# the complex128 case keeps its id from before the complex64 one joined
GEMM_CASES = [
    pytest.param(ActivationKind.EXP, np.complex128, id=str(ActivationKind.EXP)),
    pytest.param(ActivationKind.EXP, np.complex64, id=f"{ActivationKind.EXP}-complex64"),
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
    got = act_derivs(kind, y)
    y0 = y.copy()
    want = act_derivs(kind, y0) if dtype is np.complex64 else np.exp(y0)  # after no GEMM
    assert got.dtype == dtype and np.isfinite(got).all()
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _activate_by_copy(jets):
    """activate_jets with e^y computed in an array of its own and copied into the output jet."""
    n = jets.shape[0]
    e = act_derivs(ActivationKind.EXP, jets[0])
    out = np.empty_like(jets)
    out[0] = e
    if n > 1:
        np.multiply(e, jets[1], out=out[1])
    if n > 2:
        np.multiply(e, jets[1], out=out[2])
        out[2] *= jets[1]
        out[2] += e * jets[2]
    return out


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("points", [220, 4000])
@pytest.mark.parametrize("channels", [1, 2, 3])
def test_activate_jets_writes_e_y_into_its_output_jet_bit_for_bit(dtype, points, channels):
    # activate_jets has act_derivs write e^y straight into its output's value
    # channel; every channel keeps the bits of e^y computed apart and copied.
    # 10 units: 220 points stay below numpy's 256 KiB temporary-elision size
    # in both dtypes, 4000 points pass it
    rng = np.random.default_rng(points + channels)
    shape = (channels, points, 10)
    jets = (rng.normal(scale=0.5, size=shape) + 1j * rng.normal(scale=0.5, size=shape)).astype(dtype)
    got = activate_jets(ActivationKind.EXP, jets)
    assert got.dtype == dtype
    assert got[0].tobytes() == act_derivs(ActivationKind.EXP, jets[0]).tobytes()
    assert got.tobytes() == _activate_by_copy(jets).tobytes()


# The adjoints as the conjugated sweep ran them, on a(u) = dL/dRe u + i dL/dIm u
# (a * conj(f'(u)) through each step): references for the dL/du primitives.
def _affine_adjoint_conj_ref(adj, jets, weights):
    n, b, ni = jets.shape
    a2 = adj.reshape(n * b, adj.shape[2])
    gw = a2.T @ np.conj(jets).reshape(n * b, ni)
    w = weights if weights is None or weights.dtype == adj.dtype else weights.astype(adj.dtype)
    da = None if w is None else (a2 @ np.conj(w)).reshape(n, b, ni)
    return gw, adj[0].sum(axis=0), da


def _activate_adjoint_conj_ref(adj, g):
    n = g.shape[0]
    out = np.empty_like(g)
    out[0] = adj[0] * np.conj(g[0])
    if n > 1:
        out[0] += adj[1] * np.conj(g[1])
        out[1] = adj[1] * np.conj(g[0])
    if n > 2:
        out[0] += adj[2] * np.conj(g[2])
        out[1] += adj[2] * np.conj(2.0 * g[1])
        out[2] = adj[2] * np.conj(g[0])
    return out


def _cnormal(rng, shape, dtype):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(dtype)


def _cache_views(rng, channels, points, units, dtype):
    """A (channels, points, units) jet, contiguous and as the test-row slice
    x[:n, :b] of a 3-channel cache that holds 30 test rows after the points."""
    cache = _cnormal(rng, (3, points + 30, units), dtype)
    return {"contiguous": _cnormal(rng, (channels, points, units), dtype), "test-row slice": cache[:channels, :points]}


# 220 points x 10 units stay below numpy's 256 KiB temporary-elision size in
# both dtypes, 4000 x 10 and 4000 x 100 pass it, and 220 x 100 passes it in
# complex128 only: both operand orders of jets.G_FIRST_BYTES are reached
ADJOINT_SHAPES = [(220, 10), (220, 100), (4000, 10), (4000, 100)]


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("points, units", ADJOINT_SHAPES)
@pytest.mark.parametrize("channels", [1, 2, 3])
def test_activate_jets_adjoint_is_the_conjugated_sweep_bit_for_bit(dtype, points, units, channels):
    # fed conj(a), the dL/du adjoint returns the conjugate of the conjugated
    # sweep's a * conj(g) products, bit for bit, on either side of 256 KiB
    rng = np.random.default_rng(points + units + channels)
    for what, g in _cache_views(rng, channels, points, units, dtype).items():
        adj = _cnormal(rng, (channels, points, units), dtype)
        want = _activate_adjoint_conj_ref(adj, g)
        got = activate_jets_adjoint(np.conj(adj), g)
        assert got.dtype == dtype
        assert np.conj(got).tobytes() == want.tobytes(), what


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("points, units", ADJOINT_SHAPES)
@pytest.mark.parametrize("channels", [1, 2, 3])
def test_affine_jets_adjoint_is_the_conjugated_sweep_bit_for_bit(dtype, points, units, channels):
    # a hidden layer (units -> units), the readout (units -> 1) and the first
    # layer (1 -> units, weights None), on contiguous and test-row-sliced
    # input jets; the complex128 weights are cast to the jets' dtype
    rng = np.random.default_rng(points + units + channels)
    layers = {"hidden": (units, units), "readout": (units, 1), "first": (1, units)}
    for name, (ni, no) in layers.items():
        for what, x in _cache_views(rng, channels, points, ni, dtype).items():
            adj = _cnormal(rng, (channels, points, no), dtype)
            w = None if name == "first" else _cnormal(rng, (no, ni), np.complex128)
            want = _affine_adjoint_conj_ref(adj, x, w)
            got = affine_jets_adjoint(np.conj(adj), x, w)
            for k, (gv, wv) in enumerate(zip(got, want)):
                if wv is None:
                    assert gv is None, (name, what)
                else:
                    assert gv.dtype == dtype and np.conj(gv).tobytes() == wv.tobytes(), (name, what, k)
