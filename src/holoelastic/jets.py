"""Truncated jet arithmetic for holomorphic functions, batched.

A jet of order k carries a complex value together with its first k
z-derivatives (truncated Taylor arithmetic, k <= 2).  Seeding the identity
jet (z, 1, 0, ...) at a point and pushing it through affine layers and the
exponential activation yields the value and the first k z-derivatives of the
composed function in one pass; the chain rule is applied to order k at every
activation.  A jet's order is its channel count minus one, so each primitive
reads it off the array, and its precision (complex128 or complex64) from the
dtype.  The affine layer and the activation each come with their adjoint;
exp is its own derivative, so the activated jet is also the jet of f'(y),
which is all the activation's adjoint reads.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

import numpy as np


class NonFiniteError(ArithmeticError):
    """A computation produced NaN or Inf."""


# One member: perfbench/worker.py passes ActivationKind.EXP to
# analytics.init_diagnostics, and perfbench/spans.py reads the jets of
# act_derivs and activate_jets as args[1], after this leading `kind`.  Both
# go once perfbench stops naming them (ROADMAP item 15).
class ActivationKind(Enum):
    EXP = "exp"


_CLEAR = np.ones((2, 2))  # see act_derivs


def act_derivs(kind: ActivationKind, y: np.ndarray) -> np.ndarray:
    """e^y elementwise, at y's complex precision; it is also every derivative of exp.

    A complex64 exp is e^x (cos y + i sin y) on numpy's float32 exp, cos and
    sin, within 4 float32 ulps of |e| of the complex128 result.  Any other
    input is evaluated in complex128 through libm.  Overflow is not clipped
    and not warned about here; callers detect non-finite results and abort
    with context.
    """
    y = np.asarray(y)
    with np.errstate(over="ignore", invalid="ignore"):
        if y.dtype == np.complex64:
            # numpy's float32 SIMD kernels (220x100 after a GEMM, 2-vCPU Xeon: 0.19 vs 1.5 ms below)
            m = np.exp(y.real)
            e = np.empty_like(y)
            np.multiply(m, np.cos(y.imag), out=e.real)
            np.multiply(m, np.sin(y.imag), out=e.imag)
            return e
        # libm's complex exp runs 10-20x slower right after an OpenBLAS zgemm
        # (600x100 exp, Haswell Xeon: 29 vs 1.5 ms); a real matmul restores full speed.
        _CLEAR @ _CLEAR
        return np.exp(y.astype(np.complex128, copy=False))


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


def activate_jets(kind: ActivationKind, jets: np.ndarray) -> np.ndarray:
    """exp on a jet batch, to the jet's own order, by the chain rule.

    The result is also the derivative jet, the jet of exp'(y), which is all
    activate_jets_adjoint reads.  Overflow is not checked here;
    network.forward_jets checks.
    """
    n = jets.shape[0]
    e = act_derivs(kind, jets[0])
    out = np.empty_like(jets)
    out[0] = e
    if n > 1:
        np.multiply(e, jets[1], out=out[1])
    if n > 2:
        np.multiply(e, jets[1], out=out[2])
        out[2] *= jets[1]
        out[2] += e * jets[2]
    return out


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
