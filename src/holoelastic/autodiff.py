"""Reverse-mode gradients of the boundary loss over complex network weights.

The loss graph always has the same shape: per subdomain two branches
(L x (jet affine, jet activation) each, one network.mlp_forward), the
Kolosov-Muskhelishvili field map from their jets to (5, B) field rows
(el.km_fields), per-piece boundary residuals and the length-weighted mean
square.  pack_batch writes each piece's residual operator once per sample
batch, into the rows of each subdomain it bounds, interface sides included:
one operator per subdomain (SubdomainOperator), so residuals and their
adjoints run once per subdomain.  loss_forward's one input is the Seeds
of a packed batch (seed_batch), which also carry any test batch whose
points ride along after the training points for a test loss.  Its record
holds each array once: the packed batch, each branch's layer inputs
(forward_jets caches), each subdomain's residual rows, which each piece's
(B, k) residual array views, and each piece's mean square.  loss_backward
passes adjoints back to the branch outputs (residuals ->
el.km_fields_adjoint) and sweeps them through the branches, writing for
every complex weight w the real pair (dL/dRe w, dL/dIm w) into one
gradient vector (WeightGrad).  The seeds and the vector depend on the
batch and the network shapes only, so train builds both once per run.

Adjoint rules: from the loss back to the branch outputs every variable u
carries a(u) = dL/dRe(u) + i dL/dIm(u); the non-holomorphic steps (Re, Im,
conj, the conj(z)-products of the field map, squared residuals) get
dedicated rules.  Inside a branch every step v = f(u) is holomorphic, and
network.branch_sweep carries conj(a(u)) = 2 dL/du, which propagates as
conj(a(u)) += conj(a(v)) * f'(u) with no conjugate; it and branch_backward
convert at the two ends.  The z-derivatives inside the jets are handled by
the forward jet arithmetic, never by the reverse pass.  Each branch carries only the jet
channels the field map reads (network.JET_ORDERS: phi to order 2 and psi
to order 1), and its adjoint has the same channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import elasticity as el
from .geometry import DomainSpec
from .jets import NonFiniteError, seed_jets
from .network import BranchPair, branch_backward, flatten_params, mlp_forward, param_views
from .problem import ProblemSpec


# --- batch packing -----------------------------------------------------------


@dataclass
class Group:
    """All samples of one boundary piece, sorted by the piece parameter."""

    piece: int
    alpha: float  # loss weight, DomainSpec.weights[piece]
    z: np.ndarray
    t: np.ndarray
    k: int  # residual components of el.bc_operator, 2 per side
    # (subdomain, rows of its eval_z and operator) per side: one on an outer piece, a then b on an interface
    sides: tuple[tuple[int, slice], ...]


@dataclass
class SubdomainOperator:
    """Every row of one subdomain's eval_z as one (B_s, k, 5) residual operator:
    k = 4 when an interface bounds the subdomain, else 2, and an outer piece's
    rows past its own 2 components are zero."""

    A: np.ndarray  # (B_s, k, 5)
    d: np.ndarray  # (B_s, k), column-major
    scale: np.ndarray  # (B_s,) loss scale 2 alpha / B of each row's piece, negated on side b of an interface


@dataclass
class PackedBatch:
    groups: list[Group]
    eval_z: dict[int, np.ndarray]
    operators: dict[int, SubdomainOperator]


def pack_batch(samples: np.recarray, domain: DomainSpec) -> PackedBatch:
    """Group a sample_boundary batch by piece, read each piece's loss weight
    off domain.weights, and write its points and residual operator
    (el.bc_operator) once, into the rows of every subdomain it bounds: the
    subdomain's eval_z and SubdomainOperator, sized up front.

    Every piece needs at least one sample.  Within each group samples are
    ordered by t (ties keep their batch order), which fixes the reduction
    order regardless of the input permutation.  A subdomain's rows follow
    its pieces' order, so interface samples appear in the evaluation arrays
    of both adjoining subdomains.
    """
    count = np.bincount(samples.piece, minlength=len(domain.pieces))
    eval_z, ops = {}, {}
    for s in range(domain.n_subdomains):
        mine = [i for i, p in enumerate(domain.pieces) if s in p.subdomains]
        n, k = int(count[mine].sum()), 4 if any(domain.pieces[i].is_interface for i in mine) else 2
        eval_z[s] = np.empty(n, samples.z.dtype)
        ops[s] = SubdomainOperator(np.zeros((n, k, 5)), np.zeros((n, k), order="F"), np.empty(n))
    groups, fill = [], [0] * domain.n_subdomains
    for idx, piece in enumerate(domain.pieces):
        rows = np.flatnonzero(samples.piece == idx)
        if rows.size == 0:
            raise ValueError(f"boundary piece {idx} ({piece.name!r}) is empty: the batch has no sample on it")
        rows = rows[np.argsort(samples.t[rows], kind="stable")]
        z, alpha = samples.z[rows], domain.weights[idx]
        A, d = el.bc_operator(piece.bc, samples.normal[rows], z)
        sides = []
        for i, sub in enumerate(piece.subdomains):
            r, op = slice(fill[sub], fill[sub] + z.size), ops[sub]
            fill[sub] = r.stop
            eval_z[sub][r], op.A[r, : A.shape[1]], op.d[r, : A.shape[1]] = z, A, d
            op.scale[r] = (-2.0 if i else 2.0) * alpha / z.size
            sides.append((sub, r))
        groups.append(Group(idx, alpha, z, samples.t[rows], A.shape[1], tuple(sides)))
    return PackedBatch(groups, eval_z, ops)


# --- weight gradients ---------------------------------------------------------


@dataclass
class WeightGrad:
    """A gradient is a list of branch pairs over its own vector: `grads` holds
    per subdomain a BranchPair of complex views (network.param_views) of the
    real vector `vec`, in network.flatten_params order, whose layers hold
    branch_backward's dL/dW and dL/db, each (dL/dRe w, dL/dIm w) as Re + i Im."""

    vec: np.ndarray
    grads: list[BranchPair]

    @classmethod
    def zeros(cls, pairs: Sequence[BranchPair]) -> "WeightGrad":
        """A zero gradient of the weights of `pairs`."""
        vec = np.zeros(flatten_params(pairs).size)
        return cls(vec, param_views(pairs, vec))

    def to_vector(self) -> np.ndarray:
        """vec; perfbench's ENTRY_POINTS names this method (test_span_entry_points_resolve)."""
        return self.vec


# --- forward -------------------------------------------------------------------


@dataclass
class Seeds:
    """loss_forward's input: a packed batch, an optional packed test batch,
    and per subdomain the evaluation points, the batch's rows then any test
    rows, with their seed jets in the branches' complex dtype.  All are fixed
    for a batch, so a training run builds them once (seed_batch)."""

    batch: PackedBatch
    test: Optional[PackedBatch]
    z: dict[int, np.ndarray]
    jets: dict[int, np.ndarray]


def seed_batch(packed: PackedBatch, test: Optional[PackedBatch] = None, dtype=np.complex128) -> Seeds:
    """The Seeds of `packed` with `test` riding along, in the complex dtype."""
    z = {s: z if test is None else np.concatenate((z, test.eval_z[s])) for s, z in packed.eval_z.items()}
    return Seeds(packed, test, z, {s: seed_jets(zs, dtype) for s, zs in z.items()})


@dataclass
class SubdomainPass:
    """The forward_jets layer caches of one subdomain's phi and psi branches,
    on its batch's eval_z points then any test points (empty for a branch
    that is not swept)."""

    phi: list
    psi: list


@dataclass
class LossRecord:
    """Forward state of one loss evaluation, read by loss_backward."""

    pairs: Sequence[BranchPair]
    material: el.Material
    subs: dict[int, SubdomainPass]
    batch: PackedBatch
    residuals: list[np.ndarray]  # (B, k) per group
    rows: dict[int, np.ndarray]  # (B_s, k) residual per SubdomainOperator, which the residuals view (side a's)
    loss: float
    mse: list[float]  # mean squared residual norm per group
    test_loss: float = math.nan  # loss on the test batch, if one rode along

    @property
    def ops(self) -> list:
        """Stage caches in forward order (perfbench reports their count)."""
        out: list = []
        for sp in self.subs.values():
            out += sp.phi + sp.psi + [sp]
        return out + self.residuals + [self.mse]


def _residuals(packed: PackedBatch, fields: dict[int, np.ndarray]) -> tuple[list[np.ndarray], dict[int, np.ndarray]]:
    """Per-group (B, k) residuals from each subdomain's (5, B) field rows, and
    each subdomain's column-major (B_s, k) residual rows: one el.bc_residual
    per subdomain, of whose rows each group's residual is a view; an
    interface's is side a's rows minus side b's, written back into both."""
    rows = {sub: el.bc_residual(op.A, op.d, fields[sub]) for sub, op in packed.operators.items()}
    out = []
    for g in packed.groups:
        sa, ra = g.sides[0]
        if len(g.sides) == 2:
            sb, rb = g.sides[1]
            rows[sa][ra] = rows[sb][rb] = rows[sa][ra] - rows[sb][rb]
        out.append(rows[sa][ra, : g.k])
    return out, rows


def _loss(groups: list[Group], residuals: list[np.ndarray]) -> tuple[float, list[float]]:
    """el.assemble_loss with the packed weights; a non-finite loss names its first bad sample."""
    loss, mse = el.assemble_loss(residuals, [g.alpha for g in groups])
    # the loss sums non-negative terms, so it is finite only if every residual is
    if not math.isfinite(loss):
        for g, r in zip(groups, residuals):
            bad = ~np.isfinite(r)
            if bad.any():
                i = int(np.argwhere(bad.any(axis=1))[0, 0])
                raise NonFiniteError(
                    f"non-finite residual at piece {g.piece}, sample t={g.t[i]:.6g}, z={g.z[i]:.6g}"
                )
        raise NonFiniteError("non-finite loss")
    return loss, mse


def loss_forward(
    pairs: Sequence[BranchPair], seeds: Seeds, problem: ProblemSpec, sweep_psi: bool = True
) -> tuple[float, LossRecord]:
    """Boundary loss of the networks on the packed batch of `seeds`, with its record.

    The points of a test batch (seeds.test) follow the training points of
    each subdomain through the same branch forwards: rec.test_loss equals
    loss_value on it bit for bit, and loss_backward leaves its points out.
    With sweep_psi False the psi branch keeps no layer caches, so
    loss_backward sweeps the phi branches alone.  The branches and their
    caches compute in the seeds' dtype, and the field map, residuals and
    loss are double whatever it is.
    """
    packed, test = seeds.batch, seeds.test
    if len(pairs) != problem.domain.n_subdomains:
        raise ValueError(f"{len(pairs)} network pairs for {problem.domain.n_subdomains} subdomains")
    subs: dict[int, SubdomainPass] = {}
    fields: dict[int, np.ndarray] = {}  # (5, B) rows of el.km_fields, training points
    test_fields: dict[int, np.ndarray] = {}
    for sub, z in packed.eval_z.items():
        sp = subs[sub] = SubdomainPass([], [])
        jp, jq = mlp_forward(pairs[sub], seeds.jets[sub], f"pair {sub} ", (sp.phi, sp.psi if sweep_psi else None))
        f = el.km_fields(seeds.z[sub], jp, jq, problem.material)
        fields[sub], test_fields[sub] = f[:, : z.size], f[:, z.size :]
    residuals, rows = _residuals(packed, fields)
    loss, mse = _loss(packed.groups, residuals)
    rec = LossRecord(pairs, problem.material, subs, packed, residuals, rows, loss, mse)
    if test is not None:
        rec.test_loss = _loss(test.groups, _residuals(test, test_fields)[0])[0]
    return loss, rec


def loss_value(pairs, batch: PackedBatch, problem) -> float:
    """Boundary loss alone, on complex128 seeds."""
    return loss_forward(pairs, seed_batch(batch), problem)[0]


# --- backward ------------------------------------------------------------------


def output_adjoints(rec: LossRecord, sub: int) -> tuple[np.ndarray, np.ndarray]:
    """The adjoints of subdomain sub's (phi, psi) branch outputs, residuals ->
    KM fields -> branch jets (el.km_fields_adjoint): what branch_backward
    and network.branch_sweep take."""
    # dL/dfields = A^T rho, rho being the residual rows times their signed loss scale
    op = rec.batch.operators[sub]
    adj = np.einsum("bkf,bk->fb", op.A, op.scale[:, None] * rec.rows[sub])
    return el.km_fields_adjoint(rec.batch.eval_z[sub], adj, rec.material)


def loss_backward(rec: LossRecord, grad: Optional[WeightGrad] = None) -> WeightGrad:
    """Gradient of rec.loss over every complex weight: output_adjoints, then
    weights (branch_backward), written into `grad` (WeightGrad.zeros(rec.pairs)
    when None; train passes the one it reuses every epoch) and returned.  A
    psi branch that kept no layer caches (loss_forward's sweep_psi False) is
    not swept: its entries keep their values, zero in a new WeightGrad.

    Reads the live weight arrays of rec.pairs, not copies: call it before
    the weights are updated.
    """
    grad = WeightGrad.zeros(rec.pairs) if grad is None else grad
    for sub, sp in rec.subs.items():
        ap, aq = output_adjoints(rec, sub)
        pair, g = rec.pairs[sub], grad.grads[sub]
        branch_backward(pair.phi, sp.phi, ap, g.phi)
        if sp.psi:
            branch_backward(pair.psi, sp.psi, aq, g.psi)
    return grad
