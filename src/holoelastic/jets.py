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
adjoint, on 2 dL/du (network.branch_sweep converts), the affine one as the
summed weight product and the input adjoint.  exp is its own derivative, so
the activated jet is also the jet of f'(y), all that the activation's
adjoint reads.  The activation, the input adjoints and, when asked, a square
affine layer write over their input: a cached branch pass holds one jet per
layer and one scratch, and every uncached pass works in place in one jet.
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
    `out` when given, which may be y itself (activate_jets passes its jet's
    value channel as both), with the same bits as a new array.  Overflow is
    not clipped and not warned about here; callers detect non-finite results
    and abort with context.
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


def affine_jets(jets: np.ndarray, weights: np.ndarray, bias: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """(n,B,Ni) jets through y = W x + b in the jets' dtype; the bias touches the value channel only.
    A square layer with `overwrite` writes over `jets` (_matmul_rows); any other gets a new array."""
    n, b, ni = jets.shape
    w = weights.astype(jets.dtype, copy=False)
    x2 = jets.reshape(n * b, ni)
    out = (_matmul_rows(x2, w.T) if overwrite and w.shape[0] == ni else x2 @ w.T).reshape(n, b, w.shape[0])
    out[0] += bias.astype(jets.dtype, copy=False)
    return out


# The row block a primitive works on in place: it bounds the one temporary each
# makes beside its jet, up to a floor of one row (two for a GEMM).
SWEEP_BLOCK_BYTES = 1 << 18


def _matmul_rows(x2: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x2 @ w for square w, written over the rows x2 and returned, in row blocks
    of SWEEP_BLOCK_BYTES, at least two rows each (a last row left alone joins
    the block before it): numpy takes a one-row product through gemv, but any
    other block row is the same row GEMM as in the whole-array product, so the
    bits do not depend on the block."""
    rows, m = max(2, SWEEP_BLOCK_BYTES // x2[0].nbytes), x2.shape[0]
    for r in range(0, max(m - 1, 1), rows):
        k = slice(r, r + rows + (m - r == rows + 1))
        np.matmul(x2[k], w, out=x2[k])
    return x2


def affine_weights_adjoint(adj: np.ndarray, jets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dL/dW, dL/db) of affine_jets, as 2 dL/du, summed over the batch, from
    the output adjoint `adj` (n,B,No) and the layer input `jets` (n,B,Ni); both
    are only read.  A test-row slice jets[:n, :B] of a cache is copied by the
    reshape of the dL/dW GEMM; a strided product would reorder that GEMM's
    reduction and move every output, so the copy stays."""
    n, b, ni = jets.shape
    return adj.reshape(n * b, adj.shape[2]).T @ jets.reshape(n * b, ni), adj[0].sum(axis=0)


def affine_jets_adjoint(adj: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """dL/djets of affine_jets, as 2 dL/du, from the output adjoint `adj` (n,B,No).

    A square layer's input adjoint is written over `adj` (a copy of it when
    `adj` does not reshape to rows in place) by _matmul_rows; the readout
    (Ni != No) gets a new array."""
    n, b, no = adj.shape
    w = weights.astype(adj.dtype, copy=False)
    a2 = adj.reshape(n * b, no)
    return (_matmul_rows(a2, w) if w.shape[1] == no else a2 @ w).reshape(n, b, w.shape[1])


def activate_jets(kind: ActivationKind, jets: np.ndarray) -> np.ndarray:
    """exp on a jet batch, to the jet's own order, by the chain rule, written
    over `jets` (affine_jets' fresh output, held by no cache) and returned;
    an order-2 jet takes one scratch channel.  Products keep the operand order
    of (e, e y1, (e y1) y1 + e y2), as numpy's are not commutative bit for bit.

    The result is also the derivative jet, the jet of exp'(y), which is all
    activate_jets_adjoint reads; network.forward_jets checks it for overflow.
    """
    n = jets.shape[0]
    e = act_derivs(kind, jets[0], jets[0])
    if n == 2:
        np.multiply(e, jets[1], out=jets[1])
    if n > 2:
        s = e * jets[1]
        np.multiply(e, jets[2], out=jets[2])
        jets[2] += np.multiply(s, jets[1], out=jets[1])
        jets[1] = s
    return jets


def activate_jets_adjoint(adj: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Reverse of activate_jets, written over the output adjoint `adj` (and
    returned): out = f(y) has d out = g . d y in truncated series arithmetic
    (the Leibniz rule), so each input channel's adjoint sums the output
    adjoints times the channels of the derivative jet g (only read) it meets,
    in row blocks through one scratch of at most SWEEP_BLOCK_BYTES.

    Every product is np.multiply(adj, g), adjoint first, at every size:
    numpy's complex product is not commutative bit for bit (with FMA, a * b
    and b * a differ in the imaginary part), and one order makes each row's
    adjoint independent of the batch size and width."""
    n = g.shape[0]
    rows = max(1, SWEEP_BLOCK_BYTES // adj[0, 0].nbytes)
    scratch = np.empty_like(adj[0, :rows])
    for r in range(0, adj.shape[1], rows):
        a, d, s = adj[:, r : r + rows], g[:, r : r + rows], scratch[: adj.shape[1] - r]
        np.multiply(a[0], d[0], a[0])  # channel 0 first: it reads every channel of a
        for k in range(1, n):
            a[0] += np.multiply(a[k], d[k], s)
        if n > 1:
            np.multiply(a[1], d[0], a[1])
        if n > 2:
            a[1] += np.multiply(a[2], np.multiply(2.0, d[1], s), s)
            np.multiply(a[2], d[0], a[2])
    return adj
