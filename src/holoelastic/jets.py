"""Truncated jet arithmetic for holomorphic functions, batched.

A jet of order k carries a complex value together with its first k
z-derivatives (truncated Taylor arithmetic, k <= 2).  Seeding the identity
jet (z, 1, 0, ...) at a point and pushing it through affine layers and entire
activations yields the value and the first k z-derivatives of the composed
function in one pass; the chain rule is applied to order k at every
activation.  A jet's order is its channel count minus one, so each primitive
reads it off the array, and its precision (complex128 or complex64) from the
dtype.  The affine layer and the activation each come with their adjoint; the
activation also returns the jet of f'(y), which is all its adjoint reads.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional

import numpy as np


class NonFiniteError(ArithmeticError):
    """A computation produced NaN or Inf."""


class ActivationKind(Enum):
    EXP = "exp"
    COS = "cos"
    SIN = "sin"
    COS_SQRT = "cos_sqrt"


# --- activation catalogue -------------------------------------------------
#
# act_derivs returns (phi, phi', ..., phi^(order)) evaluated elementwise.
# The reverse pass of an order-k jet needs order k + 1, so order goes up to 3.

# cos(sqrt(z)) is entire; the closed form -sin(w)/(2w), w = sqrt(z), has a
# removable singularity at 0 and its second/third derivatives lose all
# precision to cancellation already around |z| ~ 1e-4.  Below this radius the
# even power series is exact to machine precision with a handful of terms.
_COS_SQRT_SWITCH = 1e-2
_COS_SQRT_TERMS = 16
_COS_SQRT_COEF = [
    [(-1.0) ** n / math.factorial(2 * n) for n in range(_COS_SQRT_TERMS)],
    [(-1.0) ** n * n / math.factorial(2 * n) for n in range(1, _COS_SQRT_TERMS)],
    [(-1.0) ** n * n * (n - 1) / math.factorial(2 * n) for n in range(2, _COS_SQRT_TERMS)],
    [(-1.0) ** n * n * (n - 1) * (n - 2) / math.factorial(2 * n) for n in range(3, _COS_SQRT_TERMS)],
]


def _cos_sqrt_series(z: np.ndarray, k: int) -> np.ndarray:
    coef = _COS_SQRT_COEF[k]
    out = np.full_like(z, coef[-1])
    for c in reversed(coef[:-1]):
        out = out * z + c
    return out


def _cos_sqrt_derivs(z: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
    small = np.abs(z) < _COS_SQRT_SWITCH
    zs = np.where(small, 1.0, z)  # keep the closed form off the singularity
    w = np.sqrt(zs)
    cw, sw = np.cos(w), np.sin(w)
    outs = [np.where(small, _cos_sqrt_series(z, 0), cw)]
    if order >= 1:
        outs.append(np.where(small, _cos_sqrt_series(z, 1), -sw / (2.0 * w)))
    if order >= 2:
        closed2 = -cw / (4.0 * zs) + sw / (4.0 * zs * w)
        outs.append(np.where(small, _cos_sqrt_series(z, 2), closed2))
    if order >= 3:
        closed3 = sw / (8.0 * zs * w) + 3.0 * cw / (8.0 * zs * zs) - 3.0 * sw / (8.0 * zs * zs * w)
        outs.append(np.where(small, _cos_sqrt_series(z, 3), closed3))
    return tuple(outs)


_CLEAR = np.ones((2, 2))  # see act_derivs


def act_derivs(kind: ActivationKind, y: np.ndarray, order: int = 3) -> tuple[np.ndarray, ...]:
    """Activation value and derivatives up to `order` (elementwise), at y's complex precision.

    A complex64 exp is e^x (cos y + i sin y) on numpy's float32 exp, cos and
    sin, within 4 float32 ulps of |e| of the complex128 result.  Every other
    case evaluates in complex128 through libm and rounds its results once.
    Overflow is not clipped and not warned about here; callers detect
    non-finite results and abort with context.
    """
    y = np.asarray(y)
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is ActivationKind.EXP and y.dtype == np.complex64:
            # numpy's float32 SIMD kernels (220x100 after a GEMM, 2-vCPU Xeon: 0.19 vs 1.5 ms below)
            m = np.exp(y.real)
            e = np.empty_like(y)
            np.multiply(m, np.cos(y.imag), out=e.real)
            np.multiply(m, np.sin(y.imag), out=e.imag)
            return (e,) * (order + 1)
        # evaluated in complex128: numpy's complex64 exp/cos/sin are slower than that plus two casts
        dtype = np.result_type(y, np.complex64)
        y = y.astype(np.complex128, copy=False)
        # libm's complex exp/cos/sin run 10-20x slower right after an OpenBLAS zgemm
        # (600x100 exp, Haswell Xeon: 29 vs 1.5 ms); a real matmul restores full speed.
        _CLEAR @ _CLEAR
        if kind is ActivationKind.EXP:
            e = np.exp(y).astype(dtype, copy=False)
            return (e,) * (order + 1)
        if kind is ActivationKind.COS_SQRT:
            return tuple(d.astype(dtype, copy=False) for d in _cos_sqrt_derivs(y, order))
        c, s = np.cos(y).astype(dtype, copy=False), np.sin(y).astype(dtype, copy=False)
        if kind is ActivationKind.COS:
            return (c, -s, -c, s)[: order + 1]
        if kind is ActivationKind.SIN:
            return (s, c, -s, -c)[: order + 1]
    raise ValueError(f"unknown activation {kind!r}")


# --- vectorized layer primitives ------------------------------------------
#
# A batch of jets is one complex array of shape (k + 1, B, N): the value and
# the first k derivative channels for B points and N units.  Stacking the
# channels lets each affine layer run as a single GEMM.


def seed_jets(z: np.ndarray, order: int = 2, dtype=np.complex128) -> np.ndarray:
    """Identity jets (z, 1, 0) of the given order (0, 1 or 2) at the points z, of the complex dtype."""
    z = np.asarray(z, dtype=np.complex128).ravel()
    if not np.isfinite(z).all():
        raise ValueError("seed_jets requires finite inputs")
    out = np.zeros((order + 1, z.size, 1), dtype=dtype)
    out[0, :, 0] = z
    if order >= 1:
        out[1, :, 0] = 1.0
    return out


def affine_jets(jets: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """(n,B,Ni) jets through y = W x + b in the jets' dtype; the bias touches the value channel only."""
    n, b, ni = jets.shape
    out = (jets.reshape(n * b, ni) @ weights.astype(jets.dtype, copy=False).T).reshape(n, b, weights.shape[0])
    out[0] += bias.astype(jets.dtype, copy=False)
    return out


def affine_jets_adjoint(adj: np.ndarray, jets: np.ndarray, weights: Optional[np.ndarray]):
    """Reverse of affine_jets: (dL/dW, dL/db, dL/djets) from dL/dout.

    `jets` is the layer input (n,B,Ni) and `adj` the output adjoint
    (n,B,No); weight adjoints are packed as dL/dRe w + i dL/dIm w.  With
    `weights` None the input adjoint is skipped and returned as None.
    """
    n, b, ni = jets.shape
    a2 = adj.reshape(n * b, adj.shape[2])
    gw = a2.T @ np.conj(jets).reshape(n * b, ni)
    da = None if weights is None else (a2 @ np.conj(weights.astype(adj.dtype, copy=False))).reshape(n, b, ni)
    return gw, adj[0].sum(axis=0), da


def activate_jets(kind: ActivationKind, jets: np.ndarray):
    """Elementwise activation f on a jet batch, to the jet's own order.

    Returns (out, g), g the derivative jet: the jet of f'(y), with out's
    channels, which is all activate_jets_adjoint reads; for exp it is out
    itself.  Overflow is not checked here; network.forward_jets checks.
    """
    n = jets.shape[0]
    d = act_derivs(kind, jets[0], order=n)
    outs = []  # out by the chain rule from (f, f', ...); g from (f', f'', ...)
    for p in [d] if kind is ActivationKind.EXP else [d, d[1:]]:
        out = np.empty_like(jets)
        out[0] = p[0]
        if n > 1:
            np.multiply(p[1], jets[1], out=out[1])
        if n > 2:
            np.multiply(p[2], jets[1], out=out[2])
            out[2] *= jets[1]
            out[2] += p[1] * jets[2]
        outs.append(out)
    return outs[0], outs[-1]


def activate_jets_adjoint(adj: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Reverse of activate_jets: dL/djets from dL/dout and the derivative jet g.

    out = f(y) has d out = g . d y in truncated series arithmetic (the
    Leibniz rule), so each input channel's adjoint sums the output adjoints
    times the conjugated channels of g that multiply it.
    """
    n = g.shape[0]
    out = np.empty_like(g)
    # conj(g) is not hoisted: numpy elides the conj temporary of arrays
    # >= 256 KiB by computing a * conj(b) in place as conj(b) * a (with FMA
    # a * b and b * a differ in the imaginary part)
    out[0] = adj[0] * np.conj(g[0])
    if n > 1:
        out[0] += adj[1] * np.conj(g[1])
        out[1] = adj[1] * np.conj(g[0])
    if n > 2:
        out[0] += adj[2] * np.conj(g[2])
        out[1] += adj[2] * np.conj(2.0 * g[1])
        out[2] = adj[2] * np.conj(g[0])
    return out
