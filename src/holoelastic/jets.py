"""Truncated jet arithmetic for holomorphic functions, batched.

A jet of order k carries a complex value together with its first k
z-derivatives (truncated Taylor arithmetic, k <= 2).  Seeding the identity
jet (z, 1, 0, ...) at a point and pushing it through affine layers and the
exponential activation yields the value and the first k z-derivatives of the
composed function in one pass; the chain rule is applied to order k at every
activation.  A jet's order is its channel count minus one, so each primitive
reads it off the array, and its precision (complex128 or complex64) from the
dtype; so does network.forward_jets, which takes seed jets that a training
run builds once.  The affine layer and the activation each come with their
adjoint, on 2 dL/du (network.branch_backward converts); exp is its own
derivative, so the activated jet is also the jet of f'(y), all that the
activation's adjoint reads.
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


def act_derivs(kind: ActivationKind, y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """e^y elementwise, at y's complex precision; it is also every derivative of exp.

    A complex64 exp is e^x (cos y + i sin y) on numpy's float32 exp, cos and
    sin, within 4 float32 ulps of |e| of the complex128 result.  Any other
    input is evaluated in complex128 through libm.  The result goes into
    `out` when given (activate_jets passes its output jet's value channel),
    with the same bits as a new array.  Overflow is not clipped and not
    warned about here; callers detect non-finite results and abort with
    context.
    """
    y = np.asarray(y)
    with np.errstate(over="ignore", invalid="ignore"):
        if y.dtype == np.complex64:
            # numpy's float32 SIMD kernels (220x100 after a GEMM, 2-vCPU Xeon: 0.19 vs 1.5 ms below)
            m = np.exp(y.real)
            e = np.empty_like(y) if out is None else out
            np.multiply(m, np.cos(y.imag), out=e.real)
            np.multiply(m, np.sin(y.imag), out=e.imag)
            return e
        # libm's complex exp runs 10-20x slower right after an OpenBLAS zgemm
        # (600x100 exp, Haswell Xeon: 29 vs 1.5 ms); a real matmul restores full speed.
        _CLEAR @ _CLEAR
        return np.exp(y.astype(np.complex128, copy=False), out=out)


# --- vectorized layer primitives ------------------------------------------
#
# A batch of jets is one complex array of shape (k + 1, B, N): the value and
# the first k derivative channels for B points and N units.  Stacking the
# channels lets each affine layer run as a single GEMM.


def seed_jets(z: np.ndarray, dtype=np.complex128) -> np.ndarray:
    """Order-2 identity jets (z, 1, 0) at the points z, of the complex dtype;
    their first two channels are the order-1 ones."""
    z = np.asarray(z, dtype=np.complex128).ravel()
    if not np.isfinite(z).all():
        raise ValueError("seed_jets requires finite inputs")
    out = np.zeros((3, z.size, 1), dtype=dtype)
    out[0, :, 0], out[1, :, 0] = z, 1.0
    return out


def affine_jets(jets: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """(n,B,Ni) jets through y = W x + b in the jets' dtype; the bias touches the value channel only."""
    n, b, ni = jets.shape
    w = weights.astype(jets.dtype, copy=False)
    out = (jets.reshape(n * b, ni) @ w.T).reshape(n, b, w.shape[0])
    out[0] += bias.astype(jets.dtype, copy=False)
    return out


# The largest row block of an adjoint that affine_jets_adjoint's GEMM writes
# over at once: the one temporary it makes beside the adjoint.
SWEEP_BLOCK_BYTES = 1 << 20


def affine_jets_adjoint(adj: np.ndarray, jets: np.ndarray, weights: Optional[np.ndarray]):
    """Reverse of affine_jets: (dL/dW, dL/db, dL/djets), all as 2 dL/du, from
    the output adjoint `adj` (n,B,No) and the layer input `jets` (n,B,Ni, only
    read); with `weights` None the input adjoint is skipped and returned as None.

    A square layer's input adjoint is written over `adj` (a copy of it when
    `adj` does not reshape to rows in place), in row blocks of at most
    SWEEP_BLOCK_BYTES: each row is the same row GEMM as in the whole-array
    product, so the bits do not depend on the block.  The readout (Ni != No)
    gets a new array.  A test-row slice
    jets[:n, :B] of a cache is copied by the reshape of the dL/dW GEMM; a
    strided product would reorder that GEMM's reduction and move every
    output, so the copy stays."""
    n, b, ni = jets.shape
    a2 = adj.reshape(n * b, adj.shape[2])
    gw, gb = a2.T @ jets.reshape(n * b, ni), adj[0].sum(axis=0)
    if weights is None:
        return gw, gb, None
    w = weights.astype(adj.dtype, copy=False)
    if ni != a2.shape[1]:
        return gw, gb, (a2 @ w).reshape(n, b, ni)
    rows = SWEEP_BLOCK_BYTES // a2[0].nbytes
    for r in range(0, n * b, rows):
        np.matmul(a2[r : r + rows], w, out=a2[r : r + rows])
    return gw, gb, a2.reshape(n, b, ni)


def activate_jets(kind: ActivationKind, jets: np.ndarray) -> np.ndarray:
    """exp on a jet batch, to the jet's own order, by the chain rule.

    The result is also the derivative jet, the jet of exp'(y), which is all
    activate_jets_adjoint reads.  Overflow is not checked here;
    network.forward_jets checks.
    """
    n = jets.shape[0]
    out = np.empty_like(jets)
    e = act_derivs(kind, jets[0], out[0])
    if n > 1:
        np.multiply(e, jets[1], out=out[1])
    if n > 2:
        np.multiply(out[1], jets[1], out=out[2])
        out[2] += e * jets[2]
    return out


def activate_jets_adjoint(adj: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Reverse of activate_jets, written over the output adjoint `adj` (and
    returned): out = f(y) has d out = g . d y in truncated series arithmetic
    (the Leibniz rule), so each input channel's adjoint sums the output
    adjoints times the channels of the derivative jet g (only read) it meets.

    Every product is np.multiply(adj, g), adjoint first, at every size:
    numpy's complex product is not commutative bit for bit (with FMA, a * b
    and b * a differ in the imaginary part), and one order makes each row's
    adjoint independent of the batch size and width."""
    n = g.shape[0]
    s = np.empty_like(adj[0])  # the one scratch channel every product goes through
    np.multiply(adj[0], g[0], adj[0])  # channel 0 first: it reads every channel of adj
    for k in range(1, n):
        adj[0] += np.multiply(adj[k], g[k], s)
    if n > 1:
        np.multiply(adj[1], g[0], adj[1])
    if n > 2:
        adj[1] += np.multiply(adj[2], np.multiply(2.0, g[1], s), s)
        np.multiply(adj[2], g[0], adj[2])
    return adj
