"""Reverse-mode gradients of the boundary loss over complex network weights.

The loss graph always has the same shape: per subdomain two branches
(L x (jet affine, jet activation) each, one network.mlp_forward), the
Kolosov-Muskhelishvili field map from their jets to (5, B) field rows
(el.km_fields), per-piece boundary residuals and the length-weighted mean
square.  pack_batch fixes each piece's residual operator once per sample
batch, reads its loss weight off DomainSpec.weights and stacks the outer
pieces of each subdomain into one operator (OuterStack), so residuals and
their adjoints run once per subdomain and once per interface piece.
loss_forward runs the stages, optionally on test points appended to the
training points for a test loss, and keeps what the reverse pass needs: the
branch caches, each piece's (B, k) residual array and its mean square.
loss_backward passes adjoints back to the branch
outputs (residuals -> el.km_fields_adjoint) and sweeps them through the
branches, yielding for every complex weight w the real pair
(dL/dRe w, dL/dIm w) packed as a complex number.

Adjoint rules: every variable u carries a(u) = dL/dRe(u) + i dL/dIm(u).
Through a holomorphic step v = f(u) the adjoint propagates as
a(u) += a(v) * conj(f'(u)); the non-holomorphic terminal steps (Re, Im,
conj, the conj(z)-products of the field map, squared residuals) get
dedicated rules.  The z-derivatives inside the jets are handled by the
forward jet arithmetic, never by the reverse pass.  Each branch carries
only the jet channels the field map reads (network.JET_ORDERS: phi to
order 2 and psi to order 1), and its adjoint has the same channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from . import elasticity as el
from .geometry import DomainSpec
from .jets import NonFiniteError
from .network import BranchPair, branch_backward, mlp_forward

if TYPE_CHECKING:  # pragma: no cover
    from .problem import ProblemSpec


# --- batch packing -----------------------------------------------------------


@dataclass
class Group:
    """All samples of one boundary piece, sorted by the piece parameter."""

    piece: int
    alpha: float  # loss weight, DomainSpec.weights[piece]
    z: np.ndarray
    t: np.ndarray
    A: np.ndarray  # (B, k, 5) residual operator of el.bc_operator
    d: np.ndarray  # (B, k) prescribed data (outer pieces: row views of their OuterStack)
    # (subdomain, rows of its eval_z) per side: one on an outer piece, a then b on an interface
    sides: tuple[tuple[int, slice], ...]


@dataclass
class OuterStack:
    """The outer pieces of one subdomain as one (B_s, 2, 5) residual operator,
    in piece order; each of their groups' A and d is a row view of it."""

    rows: Union[slice, np.ndarray]  # their rows of the subdomain's eval_z
    A: np.ndarray  # (B_s, 2, 5)
    d: np.ndarray  # (B_s, 2), column-major
    scale: np.ndarray  # (B_s,) loss scale 2 alpha / B of each row's piece
    parts: list[tuple[int, slice]]  # (group index, its rows of A) per piece


@dataclass
class PackedBatch:
    groups: list[Group]
    eval_z: dict[int, np.ndarray]
    stacks: dict[int, OuterStack]  # per subdomain with an outer piece


def _stack_outer(groups: list[Group], sub: int) -> Optional[OuterStack]:
    """Stack the outer groups of subdomain `sub` and rebind their A and d as row views."""
    idx = [i for i, g in enumerate(groups) if len(g.sides) == 1 and g.sides[0][0] == sub]
    if not idx:
        return None
    gs = [groups[i] for i in idx]
    spans = [g.sides[0][1] for g in gs]
    if all(a.stop == b.start for a, b in zip(spans, spans[1:])):
        rows = slice(spans[0].start, spans[-1].stop)
    else:
        rows = np.concatenate([np.arange(s.start, s.stop) for s in spans])
    A = np.concatenate([g.A for g in gs])
    d = np.asfortranarray(np.concatenate([g.d for g in gs]))
    scale = np.concatenate([np.full(g.z.size, 2.0 * g.alpha / g.z.size) for g in gs])
    ends = np.cumsum([g.z.size for g in gs]).tolist()
    parts = [(i, slice(end - g.z.size, end)) for i, g, end in zip(idx, gs, ends)]
    for g, (_, part) in zip(gs, parts):
        g.A, g.d = A[part], d[part]
    return OuterStack(rows, A, d, scale, parts)


def pack_batch(samples: np.recarray, domain: DomainSpec) -> PackedBatch:
    """Group a sample_boundary batch by piece, fix each piece's residual operator,
    read its loss weight off domain.weights, build the per-subdomain evaluation
    arrays and stack each subdomain's outer operators (OuterStack).

    Every piece needs at least one sample.  Within each group samples are
    ordered by t (ties keep their batch order), which fixes the reduction
    order regardless of the input permutation.  Interface samples appear in
    the evaluation arrays of both adjoining subdomains.
    """
    groups = []
    chunks: dict[int, list[np.ndarray]] = {i: [] for i in range(domain.n_subdomains)}
    for idx, piece in enumerate(domain.pieces):
        rows = np.flatnonzero(samples.piece == idx)
        if rows.size == 0:
            raise ValueError(f"boundary piece {idx} ({piece.name!r}) is empty: the batch has no sample on it")
        rows = rows[np.argsort(samples.t[rows], kind="stable")]
        z = samples.z[rows]
        A, d = el.bc_operator(piece.bc, samples.normal[rows], z)
        sides = []
        for sub in piece.subdomains:
            start = sum(c.size for c in chunks[sub])
            chunks[sub].append(z)
            sides.append((sub, slice(start, start + z.size)))
        groups.append(Group(idx, domain.weights[idx], z, samples.t[rows], A, d, tuple(sides)))
    stacks = {sub: st for sub in chunks if (st := _stack_outer(groups, sub)) is not None}
    return PackedBatch(groups, {s: np.concatenate(c) for s, c in chunks.items()}, stacks)


# --- weight gradients ---------------------------------------------------------


@dataclass
class WeightGrad:
    """Per subdomain the (phi, psi) lists of branch_backward's per-layer
    (dL/dW, dL/db), each weight's pair (dL/dRe w, dL/dIm w) packed as Re + i Im."""

    grads: list[tuple[list, list]]

    def to_vector(self) -> np.ndarray:
        """Real gradient vector aligned with network.flatten_params ordering."""
        return np.concatenate(
            [g.view(np.float64).ravel() for pair in self.grads for branch in pair for layer in branch for g in layer]
        )


# --- forward -------------------------------------------------------------------


@dataclass
class SubdomainPass:
    """Seed -> phi and psi branches -> KM fields on one subdomain's training
    points (the branch caches also hold any test points, after them)."""

    z: np.ndarray
    phi: list  # forward_jets layer caches
    psi: list
    fields: np.ndarray  # (5, B) rows of el.km_fields


@dataclass
class LossRecord:
    """Forward state of one loss evaluation, read by loss_backward."""

    pairs: Sequence[BranchPair]
    material: el.Material
    subs: dict[int, SubdomainPass]
    batch: PackedBatch
    residuals: list[np.ndarray]  # (B, k) per group
    outer: dict[int, np.ndarray]  # (B_s, 2) residual per OuterStack, viewed by its groups' residuals
    loss: float
    mse: list[float]  # mean squared residual norm per group
    test_loss: float = math.nan  # loss on the test batch, if one rode along

    @property
    def groups(self) -> list[Group]:
        return self.batch.groups

    @property
    def ops(self) -> list:
        """Stage caches in forward order (perfbench reports their count)."""
        out: list = []
        for sp in self.subs.values():
            out += sp.phi + sp.psi + [sp]
        return out + self.residuals + [self.mse]


def _residuals(packed: PackedBatch, fields: dict[int, np.ndarray]) -> tuple[list[np.ndarray], dict[int, np.ndarray]]:
    """Per-group (B, k) residuals from each subdomain's (5, B) field rows, and
    the residual of each OuterStack: one el.bc_residual per subdomain, whose
    column-major rows its outer groups' residuals view."""
    out: list = [None] * len(packed.groups)
    outer = {}
    for sub, st in packed.stacks.items():
        outer[sub] = el.bc_residual(st.A, st.d, fields[sub][:, st.rows])
        for i, part in st.parts:
            out[i] = outer[sub][part]
    for i, g in enumerate(packed.groups):
        if len(g.sides) == 2:
            (sa, ra), (sb, rb) = g.sides
            out[i] = el.interface_residual(g.A, fields[sa][:, ra], fields[sb][:, rb])
    return out, outer


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
    pairs: Sequence[BranchPair],
    batch: Union[PackedBatch, np.recarray],
    problem: "ProblemSpec",
    test: Optional[PackedBatch] = None,
    sweep_psi: bool = True,
    dtype=np.complex128,
) -> tuple[float, LossRecord]:
    """Boundary loss of the networks on a sample batch, with its record.

    A packed `test` batch's points follow the training points of each
    subdomain through the same branch forwards: rec.test_loss equals
    loss_value on it bit for bit, and loss_backward leaves its points out.
    With sweep_psi False the psi branch keeps no layer caches, so
    loss_backward sweeps the phi branches alone.  The branches and their
    caches compute in the complex `dtype`; the field map, residuals and loss
    are double whatever it is.
    """
    packed = batch if isinstance(batch, PackedBatch) else pack_batch(batch, problem.domain)
    if len(pairs) != problem.domain.n_subdomains:
        raise ValueError(
            f"{len(pairs)} network pairs for {problem.domain.n_subdomains} subdomains"
        )
    subs: dict[int, SubdomainPass] = {}
    test_fields: dict[int, np.ndarray] = {}
    for sub, z in packed.eval_z.items():
        n = z.size
        zz = z if test is None else np.concatenate((z, test.eval_z[sub]))
        cphi, cpsi = [], []
        jp, jq = mlp_forward(pairs[sub], zz, f"pair {sub} ", (cphi, cpsi if sweep_psi else None), dtype)
        fields = el.km_fields(zz, jp, jq, problem.material)
        subs[sub] = SubdomainPass(z, cphi, cpsi, fields[:, :n])
        test_fields[sub] = fields[:, n:]
    residuals, outer = _residuals(packed, {s: sp.fields for s, sp in subs.items()})
    loss, mse = _loss(packed.groups, residuals)
    rec = LossRecord(pairs, problem.material, subs, packed, residuals, outer, loss, mse)
    if test is not None:
        rec.test_loss = _loss(test.groups, _residuals(test, test_fields)[0])[0]
    return loss, rec


def loss_value(pairs, batch, problem) -> float:
    """Boundary loss alone."""
    return loss_forward(pairs, batch, problem)[0]


# --- backward ------------------------------------------------------------------


def loss_backward(rec: LossRecord) -> WeightGrad:
    """Gradient of rec.loss over every complex weight: residuals -> KM fields
    -> branch jets (el.km_fields_adjoint) -> weights (branch_backward).  A psi
    branch that kept no layer caches (loss_forward's sweep_psi False) gets [].

    Reads the live weight arrays of rec.pairs, not copies: call it before
    the weights are updated.
    """
    # dL/dfields per subdomain: zeros, then each OuterStack and each interface
    # group adds A^T rho into its own rows (negated on side b of an interface,
    # whose residual is A fa - A fb); rho is the residual times 2 alpha / B
    adj = {sub: np.zeros_like(sp.fields) for sub, sp in rec.subs.items()}
    for sub, st in rec.batch.stacks.items():
        adj[sub][:, st.rows] += np.einsum("bkf,bk->fb", st.A, st.scale[:, None] * rec.outer[sub])
    for g, r in zip(rec.groups, rec.residuals):
        if len(g.sides) == 2:
            (sa, ra), (sb, rb) = g.sides
            at = np.einsum("bkf,bk->fb", g.A, (2.0 * g.alpha / r.shape[0]) * r)
            adj[sa][:, ra] += at
            adj[sb][:, rb] -= at
    grads = []
    for sub, sp in rec.subs.items():
        ap, aq = el.km_fields_adjoint(sp.z, adj[sub], rec.material)
        pair = rec.pairs[sub]
        grads.append((branch_backward(pair.phi, sp.phi, ap), branch_backward(pair.psi, sp.psi, aq) if sp.psi else []))
    return WeightGrad(grads)
