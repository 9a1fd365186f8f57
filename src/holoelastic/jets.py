"""Second-order jet arithmetic for holomorphic functions, batched.

A jet carries a complex value together with its first and second derivatives
in z (truncated Taylor arithmetic).  Seeding the identity jet (z, 1, 0) at a
point and pushing it through affine layers and entire activations yields the
value, first and second z-derivative of the composed function in one pass;
the chain rule is applied to second order at every activation.  The affine
layer and the activation each come with their adjoint for the reverse pass.
"""

from __future__ import annotations

import math
from enum import Enum

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
# Backward passes need the third derivative, so order goes up to 3.

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
    z = np.asarray(z, dtype=np.complex128)
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
    """Activation value and derivatives up to `order` (elementwise).

    Overflow is not clipped and not warned about here; callers detect
    non-finite results and abort with context.
    """
    # libm's complex exp/cos/sin run 10-20x slower right after an OpenBLAS zgemm
    # (600x100 exp, Haswell Xeon: 29 vs 1.5 ms); a real matmul restores full speed.
    _CLEAR @ _CLEAR
    y = np.asarray(y, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is ActivationKind.EXP:
            e = np.exp(y)
            return (e,) * (order + 1)
        if kind is ActivationKind.COS:
            c, s = np.cos(y), np.sin(y)
            return (c, -s, -c, s)[: order + 1]
        if kind is ActivationKind.SIN:
            c, s = np.cos(y), np.sin(y)
            return (s, c, -s, -c)[: order + 1]
        if kind is ActivationKind.COS_SQRT:
            return _cos_sqrt_derivs(y, order)
    raise ValueError(f"unknown activation {kind!r}")


# --- vectorized layer primitives ------------------------------------------
#
# A batch of jets is one complex array of shape (3, B, N): value, first and
# second derivative channels for B points and N units.  Stacking the channels
# lets each affine layer run as a single GEMM.


def seed_jets(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128).ravel()
    if not np.isfinite(z).all():
        raise ValueError("seed_jets requires finite inputs")
    out = np.zeros((3, z.size, 1), dtype=np.complex128)
    out[0, :, 0] = z
    out[1, :, 0] = 1.0
    return out


def affine_jets(jets: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """(3,B,Ni) jets through y = W x + b; the bias touches the value channel only."""
    three, b, ni = jets.shape
    out = (jets.reshape(3 * b, ni) @ weights.T).reshape(3, b, weights.shape[0])
    out[0] += bias
    return out


def affine_jets_adjoint(adj: np.ndarray, jets: np.ndarray, weights: np.ndarray):
    """Reverse of affine_jets: (dL/dW, dL/db, dL/djets) from dL/dout.

    `jets` is the layer input (3,B,Ni) and `adj` the output adjoint
    (3,B,No); weight adjoints are packed as dL/dRe w + i dL/dIm w.
    """
    three, b, ni = jets.shape
    no = weights.shape[0]
    a2 = adj.reshape(3 * b, no)
    x2 = jets.reshape(3 * b, ni)
    return a2.T @ np.conj(x2), adj[0].sum(axis=0), (a2 @ np.conj(weights)).reshape(3, b, ni)


def activate_jets(
    kind: ActivationKind, jets: np.ndarray, context: str = "activation", with_third: bool = False
):
    """Elementwise activation on a jet batch.

    Returns (out, derivs) where derivs are the activation derivatives at the
    value channel, cached for the reverse pass ((p1, p2) or (p1, p2, p3)).
    """
    order = 3 if with_third else 2
    d = act_derivs(kind, jets[0], order=order)
    out = np.empty_like(jets)
    with np.errstate(over="ignore", invalid="ignore"):
        out[0] = d[0]
        out[1] = d[1] * jets[1]
        out[2] = d[2] * jets[1] * jets[1] + d[1] * jets[2]
    if not np.isfinite(out).all():
        raise NonFiniteError(f"non-finite value in {context} ({kind.value})")
    return out, d[1:]


def activate_jets_adjoint(adj: np.ndarray, jets: np.ndarray, derivs) -> np.ndarray:
    """Reverse of activate_jets: dL/djets from dL/dout.

    `jets` is the activation input and `derivs` the (p1, p2, p3) cache of
    activate_jets(..., with_third=True).  Each channel's adjoint is the
    output adjoint times the conjugated partial derivative.
    """
    p1, p2, p3 = derivs
    d1, d2 = jets[1], jets[2]
    a0, a1, a2 = adj
    out = np.empty_like(jets)
    out[0] = a0 * np.conj(p1) + a1 * np.conj(p2 * d1) + a2 * np.conj(p3 * d1 * d1 + p2 * d2)
    out[1] = a1 * np.conj(p1) + a2 * np.conj(2.0 * p2 * d1)
    out[2] = a2 * np.conj(p1)
    return out
