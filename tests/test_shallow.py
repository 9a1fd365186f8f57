import math

import numpy as np
import pytest

from holoelastic.network import ShallowApprox, constructive_shallow, shallow_eval, unit_roots


def _disk_points(n_r=100, n_a=100):
    radii = np.linspace(0.0, 1.0, n_r)
    angles = 2.0 * np.pi * np.arange(n_a) / n_a
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def _geometric_taylor(n):
    # 1 / (1.5 - z) = sum 1.5^-(k+1) z^k
    return [1.5 ** -(k + 1) for k in range(n)]


def shallow_eval_direct(s: ShallowApprox, z) -> np.ndarray:
    """Reference: the raw sum over units, sum_j a_j e^(b_j z + c_j)."""
    z = np.asarray(z, dtype=np.complex128)
    return (s.a[:, None] * np.exp(s.b[:, None] * z.ravel()[None, :] + s.c[:, None])).sum(axis=0).reshape(z.shape)


def vandermonde_solve(taylor, b, xi=0.0):
    """Dense-solve cross-check of constructive_shallow's inverse-DFT coefficients."""
    n = len(b)
    g = np.asarray(taylor[:n], dtype=np.complex128)
    s = g * np.array([math.factorial(k) for k in range(n)], dtype=float) * np.exp(-complex(xi))
    V = np.vander(b, n, increasing=True).T
    return np.linalg.solve(V, s)


def test_single_unit_reproduces_exp():
    s = constructive_shallow([1.0], z0=0.0, xi=0.0, n=1)
    assert np.allclose(s.a, [1.0])
    assert np.allclose(s.b, [1.0])
    assert np.allclose(s.c, [0.0])
    zs = np.array([0.0, 1.0, 0.3 - 0.7j])
    assert np.allclose(shallow_eval(s, zs), np.exp(zs), rtol=1e-14)
    assert abs(shallow_eval(s, 1.0) - math.e) < 1e-14


def test_zero_coefficients_evaluate_to_zero():
    s = constructive_shallow([0.0], n=1)
    assert shallow_eval(s, 0.7 + 0.2j) == 0.0
    assert shallow_eval_direct(s, 0.7 + 0.2j) == 0.0


def test_unit_roots_exact_modulus():
    for n in (1, 2, 3, 4, 5, 8, 16, 32, 64, 100, 257, 1000, 4096):
        b = unit_roots(n)
        assert np.all(np.abs(b) == 1.0)
        # still the roots of unity to double precision
        assert np.max(np.abs(b - np.exp(2j * np.pi * np.arange(n) / n))) < 1e-14


def test_frequency_and_shift_bounds():
    z0, xi = 0.4 - 0.2j, 0.1 + 0.3j
    s = constructive_shallow(_geometric_taylor(16), z0=z0, xi=xi, n=16)
    assert np.all(np.abs(s.b) == 1.0)
    bound = abs(xi) + abs(z0)
    assert np.all(np.abs(s.c) <= bound * (1 + 4 * np.finfo(float).eps))


def test_invalid_unit_counts():
    with pytest.raises(ValueError):
        constructive_shallow([], n=0)
    with pytest.raises(ValueError):
        constructive_shallow([1.0], n=4)


def test_idft_matches_dense_vandermonde_solve():
    for n in (4, 8, 16):
        s = constructive_shallow(_geometric_taylor(n), n=n)
        dense = vandermonde_solve(_geometric_taylor(n), s.b)
        assert np.max(np.abs(s.a - dense)) < 1e-6 * max(1.0, np.max(np.abs(dense)))


def test_series_equals_direct_sum_where_stable():
    pts = _disk_points(40, 40)
    for n in (1, 2, 4, 8):
        s = constructive_shallow(_geometric_taylor(n), n=n)
        d = np.max(np.abs(shallow_eval(s, pts) - shallow_eval_direct(s, pts)))
        assert d < 1e-12


def test_sup_error_decreases_on_unit_disk():
    g = lambda z: 1.0 / (1.5 - z)
    pts = _disk_points()
    errs = []
    for n in (4, 8, 16, 32):
        s = constructive_shallow(_geometric_taylor(n), n=n)
        errs.append(float(np.max(np.abs(shallow_eval(s, pts) - g(pts)))))
    assert all(a > b for a, b in zip(errs, errs[1:])), errs
    assert abs(shallow_eval(constructive_shallow(_geometric_taylor(16), n=16), 0.0) - 2 / 3) < errs[2]


def test_taylor_coefficients_match_inputs():
    # coefficient oracle: Cauchy sampling on the unit circle + FFT
    for n in (4, 8, 16):
        g = _geometric_taylor(n)
        s = constructive_shallow(g, n=n)
        M = 512
        zs = np.exp(2j * np.pi * np.arange(M) / M)
        coeffs = np.fft.fft(shallow_eval(s, zs))[:n] / M
        assert np.max(np.abs(coeffs - np.array(g))) < 1e-8


def test_shifted_expansion_point():
    # expansion around z0 != 0 must match the target near z0
    z0 = 0.3 + 0.1j
    g = lambda z: 1.0 / (1.5 - z)
    # Taylor of g around z0: g^(k)(z0)/k! = (1.5 - z0)^-(k+1)
    taylor = [(1.5 - z0) ** -(k + 1) for k in range(16)]
    s = constructive_shallow(taylor, z0=z0, xi=0.0, n=16)
    zs = z0 + 0.4 * _disk_points(20, 20)
    # truncation tail on radius 0.4 with convergence radius |1.5 - z0|
    assert np.max(np.abs(shallow_eval(s, zs) - g(zs))) < 1e-6
