"""Reverse-mode gradients of the boundary loss over complex network weights.

The loss graph always has the same shape: per subdomain two branches
(L x (jet affine, jet activation) each, network.forward_jets), the
Kolosov-Muskhelishvili field map, per-piece boundary residuals and the
length-weighted mean square.  loss_forward runs these stages and keeps
what the reverse pass needs; loss_backward passes adjoints back stage by
stage (residuals -> KM -> branches) and yields, for every complex weight w,
the real pair (dL/dRe w, dL/dIm w) packed as a complex number.

Adjoint rules: every variable u carries a(u) = dL/dRe(u) + i dL/dIm(u).
Through a holomorphic step v = f(u) the adjoint propagates as
a(u) += a(v) * conj(f'(u)); the non-holomorphic terminal steps (Re, Im,
conj, the conj(z)-products of the field map, squared residuals) get
dedicated rules.  The z-derivatives inside the jets are handled by the
forward jet arithmetic, never by the reverse pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from . import elasticity as el
from .geometry import BoundarySample, DomainSpec, piece_length
from .jets import NonFiniteError
from .network import BranchPair, Mode, branch_backward, flatten_spec, forward_jets, km_state

if TYPE_CHECKING:  # pragma: no cover
    from .problem import ProblemSpec


# --- batch packing -----------------------------------------------------------


@dataclass
class Group:
    """All samples of one boundary piece, sorted by the piece parameter."""

    piece: int
    bc: el.BCKind
    length: float
    subs: tuple[int, ...]
    z: np.ndarray
    t: np.ndarray
    A: np.ndarray  # (B, k, 5) residual operator of el.bc_operator
    d: np.ndarray  # (B, k) prescribed data
    slices: dict[int, slice] = field(default_factory=dict)

    @property
    def outer(self) -> bool:
        return not isinstance(self.bc, el.Interface)

    @property
    def key(self) -> tuple:
        return (self.subs, type(self.bc).__name__, self.piece)


@dataclass
class PackedBatch:
    groups: list[Group]
    eval_z: dict[int, np.ndarray]


def pack_batch(samples: Sequence[BoundarySample], domain: DomainSpec) -> PackedBatch:
    """Group samples by piece, build each piece's residual operator and the
    per-subdomain evaluation arrays.

    Every piece needs at least one sample.  Within each group samples are
    ordered by t, which fixes the reduction order regardless of the input
    permutation.  Interface samples appear in the evaluation arrays of both
    adjoining subdomains.
    """
    by_piece: dict[int, list[BoundarySample]] = {i: [] for i in range(len(domain.pieces))}
    for s in samples:
        by_piece[s.piece].append(s)
    groups = []
    for idx, piece in enumerate(domain.pieces):
        ss = sorted(by_piece[idx], key=lambda s: s.t)
        if not ss:
            raise ValueError(f"boundary piece {idx} ({piece.name!r}) is empty: the batch has no sample on it")
        z = np.array([s.z for s in ss], dtype=np.complex128)
        A, d = el.bc_operator(piece.bc, np.array([s.normal for s in ss], dtype=np.complex128), z)
        groups.append(
            Group(
                piece=idx,
                bc=piece.bc,
                length=piece_length(piece),
                subs=tuple(piece.subdomains),
                z=z,
                t=np.array([s.t for s in ss], dtype=float),
                A=A,
                d=d,
            )
        )
    chunks: dict[int, list[np.ndarray]] = {i: [] for i in range(domain.n_subdomains)}
    offsets = {i: 0 for i in range(domain.n_subdomains)}
    for g in groups:
        for sub in g.subs:
            start = offsets[sub]
            chunks[sub].append(g.z)
            offsets[sub] = start + g.z.size
            g.slices[sub] = slice(start, start + g.z.size)
    eval_z = {
        s: (np.concatenate(c) if c else np.empty(0, dtype=np.complex128))
        for s, c in chunks.items()
    }
    return PackedBatch(groups, eval_z)


# --- weight gradients ---------------------------------------------------------

ParamKey = tuple[int, str, int, str]  # (pair, branch, layer, "W"|"b")


@dataclass
class WeightGrad:
    """Per complex weight the pair (dL/dRe w, dL/dIm w), packed as Re + i Im."""

    grads: dict[ParamKey, np.ndarray]

    def to_vector(self, pairs: Sequence[BranchPair]) -> np.ndarray:
        """Real gradient vector aligned with network.flatten_params ordering."""
        parts = []
        for key, shape in flatten_spec(pairs):
            g = self.grads.get(key)
            if g is None:
                g = np.zeros(shape, dtype=np.complex128)
            parts.append(np.ascontiguousarray(g).view(np.float64).ravel())
        return np.concatenate(parts) if parts else np.zeros(0)


# --- forward -------------------------------------------------------------------


@dataclass
class SubdomainPass:
    """Seed -> phi and psi branches -> KM fields on one subdomain's points."""

    z: np.ndarray
    phi: Optional[list]  # forward_jets layer caches; None on forward-only passes
    psi: Optional[list]
    fields: np.ndarray  # (nf, B) rows of el.FieldPoint.rows


@dataclass
class LossRecord:
    """Forward state of one loss evaluation, read by loss_backward."""

    pairs: Sequence[BranchPair]
    material: el.Material
    subs: dict[int, SubdomainPass]
    groups: list[Group]
    residuals: list[el.ResidualGroup]  # one per group
    loss: float
    components: dict  # group key -> (alpha, mse) of el.assemble_loss

    @property
    def ops(self) -> list:
        """Stage caches in forward order (perfbench reports their count)."""
        out: list = []
        for sp in self.subs.values():
            out += (sp.phi or []) + (sp.psi or []) + [sp]
        return out + self.residuals + [self.components]


def _forward(pairs: Sequence[BranchPair], batch, problem: "ProblemSpec", keep: bool) -> LossRecord:
    """Run the loss pipeline; `keep` retains the branch caches for the reverse pass."""
    packed = batch if isinstance(batch, PackedBatch) else pack_batch(batch, problem.domain)
    if len(pairs) != problem.domain.n_subdomains:
        raise ValueError(
            f"{len(pairs)} network pairs for {problem.domain.n_subdomains} subdomains"
        )
    mode = pairs[0].mode
    subs: dict[int, SubdomainPass] = {}
    for sub, z in packed.eval_z.items():
        if z.size == 0:
            continue
        cphi, cpsi = ([], []) if keep else (None, None)
        jp = forward_jets(pairs[sub].phi, z, cphi, where=f"pair {sub} phi ")
        jq = forward_jets(pairs[sub].psi, z, cpsi, where=f"pair {sub} psi ")
        fields = el.km_fields(z, km_state(mode, jp, jq), problem.material).rows()
        subs[sub] = SubdomainPass(z, cphi, cpsi, fields)
    residuals = []
    for g in packed.groups:
        fa = subs[g.subs[0]].fields[:, g.slices[g.subs[0]]]
        if g.outer:
            r = el.bc_residual(g.A, g.d, fa)
        else:
            r = el.interface_residual(g.A, fa, subs[g.subs[1]].fields[:, g.slices[g.subs[1]]])
        residuals.append(el.ResidualGroup(g.key, r, g.length, outer=g.outer))
    loss, components = el.assemble_loss(residuals)
    rec = LossRecord(pairs, problem.material, subs, packed.groups, residuals, loss, components)
    _check_finite(rec)
    return rec


def _check_finite(rec: LossRecord) -> None:
    # the loss sums non-negative terms, so it is finite only if every residual is
    if math.isfinite(rec.loss):
        return
    for g, rg in zip(rec.groups, rec.residuals):
        bad = ~np.isfinite(rg.residuals)
        if bad.any():
            i = int(np.argwhere(bad.any(axis=1))[0, 0])
            raise NonFiniteError(
                f"non-finite residual at piece {g.piece}, sample t={g.t[i]:.6g}, z={g.z[i]:.6g}"
            )
    raise NonFiniteError("non-finite loss")


def loss_forward(
    pairs: Sequence[BranchPair],
    batch: Union[PackedBatch, Sequence[BoundarySample]],
    problem: "ProblemSpec",
) -> tuple[float, LossRecord]:
    """Boundary loss of the networks on a sample batch, with its record."""
    rec = _forward(pairs, batch, problem, keep=True)
    return rec.loss, rec


def loss_value(pairs, batch, problem) -> float:
    """Boundary loss without the caches of the reverse pass."""
    return _forward(pairs, batch, problem, keep=False).loss


def forward_residuals(pairs, batch, problem) -> list[el.ResidualGroup]:
    """Per-piece residual batches without gradient bookkeeping."""
    return _forward(pairs, batch, problem, keep=False).residuals


# --- backward ------------------------------------------------------------------


def _km_backward(mode: Mode, material: el.Material, z: np.ndarray, adj: np.ndarray):
    """(3, B) adjoints of the phi- and psi-branch jets from the (nf, B) dL/dfields.

    The field map is the only non-holomorphic complex step of the pipeline.
    """
    gamma, mu = material.gamma, material.mu
    rxx, ryy, rxy = adj[0], adj[1], adj[2]
    a_ddphi = z * (ryy - rxx + 1j * rxy)
    a_dpsi = (ryy - rxx) + 1j * rxy
    a_dphi = 2.0 * (rxx + ryy) + 0j
    ap = np.zeros((3, z.size), dtype=np.complex128)
    aq = np.zeros((3, z.size), dtype=np.complex128)
    if mode is Mode.STANDARD:
        a_u = adj[3] + 1j * adj[4]
        a_phi = (gamma / (2.0 * mu)) * a_u
        a_dphi = a_dphi + np.conj(a_u) * (-z / (2.0 * mu))
        a_psi = np.conj(a_u) * (-1.0 / (2.0 * mu))
        ap[0], ap[1], ap[2] = a_phi, a_dphi, a_ddphi
        aq[0], aq[1] = a_psi, a_dpsi
    else:
        ap[0], ap[1] = a_dphi, a_ddphi
        aq[0] = a_dpsi
    return ap, aq


def loss_backward(rec: LossRecord) -> WeightGrad:
    """Gradient of rec.loss over every complex weight.

    Reads the live weight arrays of rec.pairs, not copies: call it before
    the weights are updated.
    """
    mode = rec.pairs[0].mode
    # dL/dfields per subdomain: zeros, then each group adds A^T rho into its
    # own slice (negated on side b of an interface, whose residual is A fa - A fb)
    adj = {sub: np.zeros_like(sp.fields) for sub, sp in rec.subs.items()}
    for g, rg in zip(rec.groups, rec.residuals):
        r = rg.residuals
        alpha = rec.components[g.key][0]
        nf = adj[g.subs[0]].shape[0]
        at = np.einsum("bkf,bk->fb", g.A[:, :, :nf], (2.0 * alpha / r.shape[0]) * r)
        adj[g.subs[0]][:, g.slices[g.subs[0]]] += at
        if not g.outer:
            adj[g.subs[1]][:, g.slices[g.subs[1]]] -= at
    grads: dict[ParamKey, np.ndarray] = {}
    for sub, sp in rec.subs.items():
        ap, aq = _km_backward(mode, rec.material, sp.z, adj[sub])
        pair = rec.pairs[sub]
        for branch, net, caches, a in (("phi", pair.phi, sp.phi, ap), ("psi", pair.psi, sp.psi, aq)):
            for li, (gw, gb) in enumerate(branch_backward(net, caches, a)):
                grads[(sub, branch, li, "W")] = gw
                grads[(sub, branch, li, "b")] = gb
    return WeightGrad(grads)


def grad_check(
    pairs: Sequence[BranchPair],
    batch,
    problem: "ProblemSpec",
    step: float = 1e-6,
) -> float:
    """Max relative deviation of the reverse-mode gradient from central differences.

    Deviations are measured against max(|fd|, |ad|, 1e-3 * max|grad|) so that
    finite-difference noise on near-zero components does not dominate.
    """
    if not (0.0 < step <= 1e-3):
        raise ValueError(f"step must be in (0, 1e-3], got {step}")
    from .network import flatten_params, write_params

    packed = batch if isinstance(batch, PackedBatch) else pack_batch(batch, problem.domain)
    loss, rec = loss_forward(pairs, packed, problem)
    gvec = loss_backward(rec).to_vector(pairs)
    vec = flatten_params(pairs)
    scale = 1e-3 * max(float(np.max(np.abs(gvec))) if gvec.size else 0.0, 1e-30)
    worst = 0.0
    for i in range(vec.size):
        orig = vec[i]
        vec[i] = orig + step
        write_params(pairs, vec)
        lp = loss_value(pairs, packed, problem)
        vec[i] = orig - step
        write_params(pairs, vec)
        lm = loss_value(pairs, packed, problem)
        vec[i] = orig
        fd = (lp - lm) / (2.0 * step)
        denom = max(abs(fd), abs(gvec[i]), scale)
        worst = max(worst, abs(gvec[i] - fd) / denom)
    write_params(pairs, vec)
    return worst
