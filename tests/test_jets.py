import math

import numpy as np
import pytest

from holoelastic.jets import (
    ActivationKind,
    NonFiniteError,
    act_derivs,
    activate_jets,
    affine_jets,
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
        forward_jets(net, np.array([1.0 + 0j]))


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
