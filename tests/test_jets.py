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

ALL_KINDS = list(ActivationKind)


def _jet(f, d1, d2):
    """One jet (value, first, second derivative) as a (3, 1, 1) batch."""
    return np.array([f, d1, d2], dtype=np.complex128).reshape(3, 1, 1)


def _act(kind, jets, **kw):
    return activate_jets(kind, jets, **kw)[0][:, 0, 0]


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
    with pytest.raises(NonFiniteError, match="layer three"):
        activate_jets(ActivationKind.EXP, _jet(1e4, 1, 0), context="layer three")


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


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_act_derivs_bitwise_after_complex_gemm(kind):
    # act_derivs runs a real matmul before libm to dodge a slowdown after
    # complex GEMMs; that must change timing only, never a single bit
    rng = np.random.default_rng(7)
    x = rng.normal(size=(600, 100)) + 1j * rng.normal(size=(600, 100))
    w = 0.02 * (rng.normal(size=(100, 100)) + 1j * rng.normal(size=(100, 100)))
    y = x @ w.T
    got = act_derivs(kind, y, order=3)
    y0 = y.copy()
    if kind is ActivationKind.EXP:
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
        assert np.isfinite(g).all()
        assert np.array_equal(g.view(np.uint64), r.view(np.uint64))
