"""Closed-form references, field grids, error metrics and init diagnostics.

The pressurized-ring problem has an exact solution (constant phi', a 1/z^2
psi'), which makes it the main quantitative benchmark: phi' and psi' are
unique once a symmetry condition pins rigid motion, unlike phi and psi which
float by additive constants.  Field grids are masked, and their nodes given to
subdomains, by geometry.DomainSpec.owner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import elasticity as el
from . import geometry as geo
from .autodiff import loss_backward, loss_forward
from .jets import ActivationKind, NonFiniteError
from .network import BranchPair, HoloMLP, Mode, branch_backward, forward_jets, mlp_forward
from .problem import NetworkConfig, OutputConfig, ProblemSpec
from .rng import Rng
from .training import TrainConfig, start


# --- ring benchmark -----------------------------------------------------------


def ring_exact_stress(rho, p: float, r: float, R: float):
    """Radial/hoop stresses of a ring under uniform outer pressure p; shear is 0."""
    if not (0.0 < r < R):
        raise ValueError(f"need 0 < r < R, got r={r}, R={R}")
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < r - 1e-12) or np.any(rho > R + 1e-12):
        raise ValueError("radius outside the ring")
    a = -p * R * R / (R * R - r * r)
    return a * (1.0 - r * r / (rho * rho)), a * (1.0 + r * r / (rho * rho))


def ring_exact_potentials(z, p: float, r: float, R: float):
    """Exact (phi', psi') of the pressurized ring; phi' is constant."""
    z = np.asarray(z, dtype=np.complex128)
    if np.any(z == 0):
        raise ValueError("potentials are singular at z = 0")
    dphi = np.broadcast_to(-p / 2.0 * R * R / (R * R - r * r) + 0j, z.shape)
    dpsi = -p * (r * r * R * R / (R * R - r * r)) / (z * z)
    return dphi.copy(), dpsi


def rotate_stress(sxx, syy, sxy, theta):
    """Cartesian stresses rotated into the frame at angle theta (e.g. polar)."""
    c, s = np.cos(theta), np.sin(theta)
    srr = sxx * c * c + syy * s * s + 2.0 * sxy * s * c
    stt = sxx * s * s + syy * c * c - 2.0 * sxy * s * c
    srt = (syy - sxx) * s * c + sxy * (c * c - s * s)
    return srr, stt, srt


# --- field grids ----------------------------------------------------------------


@dataclass
class GridField:
    xs: np.ndarray
    ys: np.ndarray
    mask: np.ndarray  # True where the point is inside the domain
    rows: np.ndarray  # (nf, ny, nx) el.km_fields rows: sxx, syy, sxy[, ux, uy]; NaN outside
    dphi: np.ndarray
    dpsi: np.ndarray


def domain_bbox(domain: geo.DomainSpec) -> tuple[float, float, float, float]:
    z = np.concatenate([geo.piece_point(p, np.linspace(0.0, 1.0, 257)) for p in domain.pieces])
    return float(z.real.min()), float(z.real.max()), float(z.imag.min()), float(z.imag.max())


FORWARD_BLOCK = 8192  # points x widest layer per grid_blocks block


def grid_blocks(pairs: Sequence[BranchPair], problem, nx: int, ny: int) -> Iterator[GridField]:
    """Evaluate the networks on an nx-by-ny grid over the domain bounding box.

    Yields GridFields of consecutive grid rows, FORWARD_BLOCK // width points
    at most for the networks' widest layer, or one grid row when a row is
    wider; so a hidden layer's jets hold (order + 1) * FORWARD_BLOCK entries
    per block, however large the grid and the networks.  Points outside every
    subdomain stay masked and carry NaN; a non-finite field at an interior
    point raises NonFiniteError naming the pair and the point.
    Grid nodes are cell centers; one on a piece counts as inside its subdomain.
    """
    domain = problem.domain
    x0, x1, y0, y1 = domain_bbox(domain)
    xs = x0 + (np.arange(nx) + 0.5) * (x1 - x0) / nx
    ys = y0 + (np.arange(ny) + 0.5) * (y1 - y0) / ny
    nf = 5 if pairs[0].mode is Mode.STANDARD else 3
    width = max(max(p.phi.widths + p.psi.widths) for p in pairs)
    step = max(1, FORWARD_BLOCK // (nx * width))
    band = step * max(1, FORWARD_BLOCK // (nx * step))  # whole blocks, FORWARD_BLOCK nodes at most
    for i in range(0, ny, step):
        if i % band == 0:  # owners for a band of rows: an owner map costs per call more than per row
            owner = domain.owner(xs, ys[i : i + band])
        X, Y = np.meshgrid(xs, ys[i : i + step])
        sub = owner[i % band : i % band + step]
        f = np.full((nf,) + X.shape, np.nan)
        dphi, dpsi = np.full(X.shape, np.nan + 0j), np.full(X.shape, np.nan + 0j)
        for s in range(domain.n_subdomains):
            where = sub == s
            if not where.any():
                continue
            z = X[where] + 1j * Y[where]
            jp, jq = mlp_forward(pairs[s], z, where=f"pair {s} ")
            fs = el.km_fields(z, jp, jq, problem.material)
            bad = ~np.isfinite(fs).all(axis=0)
            if bad.any():
                raise NonFiniteError(f"non-finite field in pair {s} at z={z[np.argmax(bad)]:.6g}")
            f[:, where] = fs
            dphi[where], _, dpsi[where] = el.km_derivatives(jp, jq)
        yield GridField(xs, ys[i : i + step], sub >= 0, f, dphi, dpsi)


def eval_grid(pairs: Sequence[BranchPair], problem, nx: int, ny: int) -> GridField:
    """The blocks of grid_blocks stacked into one GridField."""
    blocks = list(grid_blocks(pairs, problem, nx, ny))
    cat = lambda k, axis=0: np.concatenate([getattr(b, k) for b in blocks], axis)
    return GridField(blocks[0].xs, cat("ys"), cat("mask"), cat("rows", 1), cat("dphi"), cat("dpsi"))


class RingErrors:
    """Field errors against the exact ring solution, accumulated over grid blocks.

    add() keeps, per grid row of each block, the sums of squared error and
    reference magnitudes (masked points count as 0); errors() adds them with
    math.fsum: bit for bit what rel_l2 and rms give on the whole grid.
    """

    def __init__(self, reference: dict):
        self.p, self.r, self.R = (float(reference[k]) for k in ("p", "r", "R"))
        names = ("rel_l2_dphi", "rel_l2_dpsi", "rel_l2_sigma_rr", "rel_l2_sigma_tt", "rms_sigma_rt")
        self.err: dict[str, list] = {k: [] for k in names}
        self.ref: dict[str, list] = {k: [] for k in names[:4]}
        self.n = 0

    def add(self, block: GridField) -> None:
        X, Y = np.meshgrid(block.xs, block.ys)
        m = block.mask
        z = np.where(m, X + 1j * Y, self.R)  # masked points read the outer radius
        dphi, dpsi = ring_exact_potentials(z, self.p, self.r, self.R)
        srr_ref, stt_ref = ring_exact_stress(np.abs(z), self.p, self.r, self.R)
        srr, stt, srt = rotate_stress(*block.rows[:3], np.angle(z))
        for k, got, want in zip(self.ref, (block.dphi, block.dpsi, srr, stt), (dphi, dpsi, srr_ref, stt_ref)):
            self.err[k] += _row_sums(got - want, m).tolist()
            self.ref[k] += _row_sums(want, m).tolist()
        self.err["rms_sigma_rt"] += _row_sums(srt, m).tolist()
        self.n += int(np.count_nonzero(m))

    def errors(self) -> dict[str, float]:
        if not self.n:
            raise ValueError("ring errors need at least one interior grid point, the grid has none")
        norm = lambda rows: math.sqrt(math.fsum(rows) / self.n)
        return {k: norm(v) / norm(self.ref[k]) if k in self.ref else norm(v) for k, v in self.err.items()}


def _row_sums(values: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Sums of |v|^2 along the last axis; masked points count as 0."""
    sq = np.abs(values) ** 2
    return (sq if mask is None else np.where(mask, sq, 0.0)).sum(axis=-1)


def rel_l2(values: np.ndarray, ref: np.ndarray, mask: np.ndarray) -> float:
    """||values - ref|| / ||ref|| over unmasked points (complex-safe)."""
    return rms(values - ref, mask) / rms(ref, mask)


def rms(values: np.ndarray, mask: Optional[np.ndarray] = None) -> float:
    """Root mean square of |v| over unmasked points, from per-row sums added
    with math.fsum, so any split of the rows into blocks gives the same bits."""
    n = values.size if mask is None else np.count_nonzero(mask)
    return math.sqrt(math.fsum(np.ravel(_row_sums(values, mask))) / n)


# --- initialization diagnostics -----------------------------------------------------


@dataclass
class VarianceReport:
    """Per-layer sampled variances after initialization, hidden layers only.

    All entries are 'complex' variances Var[Re] + Var[Im]: for y_l pooled
    over batch points and units, for the derivative rows over the layer's
    weight entries (the phi rows differentiate the batch-summed branch
    output, var_loss_w the actual batch loss).  The output layer is a plain
    readout and is not reported.  Overflowed runs carry inf and set the
    overflow flag.
    """

    layers: list[int]
    var_y: list[float]
    var_phi_w: list[float]
    var_dphi_w: list[float]
    var_ddphi_w: list[float]
    var_loss_w: list[float]
    overflow: list[bool]


def _cvar(a: np.ndarray) -> float:
    a = np.asarray(a).ravel()
    mu = a.mean()
    return float(np.mean(np.abs(a - mu) ** 2))


def _branch_grad_var(net: HoloMLP, caches: list, channel: int) -> list[float]:
    """Per-layer variance of d(sum over batch of output[channel]) / dW_l.

    One reverse sweep of the branch seeded with ones over the batch; the
    seed has channel + 1 channels, since the adjoint stays zero above the
    seeded channel.  The entries of each layer's weight derivative
    (real/imag pooled) give the reported variance.
    """
    seed = np.zeros((channel + 1, caches[0][0].shape[1]), dtype=np.complex128)
    seed[channel] = 1.0
    return [_cvar(gw) for gw, _ in branch_backward(net, caches, seed)]


def _square_problem(hidden: Sequence[int], cfg: TrainConfig) -> ProblemSpec:
    """Homogeneous square benchmark: clamped bottom/left, traction-free right/top."""
    if len(set(hidden)) != 1:
        raise ValueError(f"need one or more hidden layers of equal width, got {list(hidden)}")
    zero = el.ConstantData(0.0, 0.0)
    pieces = [
        geo.BoundaryPiece(geo.Line(-1 - 1j, 1 - 1j), el.Displacement(zero), (0,), "bottom"),
        geo.BoundaryPiece(geo.Line(1 - 1j, 1 + 1j), el.Traction(zero), (0,), "right"),
        geo.BoundaryPiece(geo.Line(1 + 1j, -1 + 1j), el.Traction(zero), (0,), "top"),
        geo.BoundaryPiece(geo.Line(-1 + 1j, -1 - 1j), el.Displacement(zero), (0,), "left"),
    ]
    domain = geo.DomainSpec(pieces)
    material = el.Material(1.0, 1.0, el.PlaneMode.STRAIN)
    nets = NetworkConfig(len(hidden), hidden[0], Mode.STANDARD)
    return ProblemSpec(material, domain, nets, cfg, OutputConfig(), name="square")


def variance_report(problem, m_e: Optional[int], n_probe: int) -> VarianceReport:
    """Sample per-layer variances of the branches that train starts from for
    `problem` (training.start, with an n_probe-point probe); m_e None reads a
    probe statistic for every layer.

    Only the phi branch is swept, so the loss forward caches no psi layer:
    once per output channel 0, 1 and 2 for the phi rows (_branch_grad_var),
    and once by loss_backward for var_loss_w.
    """
    if n_probe < 1:
        raise ValueError(f"the probe size must be positive, got {n_probe}")
    if problem.domain.n_subdomains != 1:
        raise ValueError("variance diagnostics run on single-subdomain problems")
    n_inner = problem.networks.hidden_layers
    m_e = n_inner + 2 if m_e is None else m_e
    layers = list(range(1, n_inner + 1))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            pairs, packed, _ = start(problem, m_e, n_probe)
            phi = pairs[0].phi
            _, rec = loss_forward(pairs, packed, problem, sweep_psi=False)
            var_loss = [_cvar(gw) for gw, _ in loss_backward(rec).grads[0][0][:n_inner]]
            z, caches = rec.subs[0].z, rec.subs[0].phi
            del rec  # the sweeps read z and caches alone
            if caches[0][0].shape[0] < 3:
                # a stress-only phi branch carries no second derivative; the
                # three sweeps read one order-2 forward of the same branch
                caches = []
                forward_jets(phi, z, 2, caches)
            # the caches hold no pre-activations: one value-channel GEMM per layer
            var_y = [_cvar(x[0] @ l.weights.T + l.bias) for (x, _), l in zip(caches[:n_inner], phi.layers)]
            per_q = [_branch_grad_var(phi, caches, ch)[:n_inner] for ch in (0, 1, 2)]
        return VarianceReport(layers, var_y, per_q[0], per_q[1], per_q[2], var_loss, [False] * n_inner)
    except (NonFiniteError, FloatingPointError):
        inf = [math.inf] * n_inner
        return VarianceReport(layers, inf, inf[:], inf[:], inf[:], inf[:], [True] * n_inner)


def init_diagnostics(arch: Sequence[int], activation: ActivationKind, beta: float, m_e: Optional[int],
                     probe: int, batch: int, seed: int) -> VarianceReport:
    """Variance diagnostics on the homogeneous square benchmark.

    `arch` lists the hidden widths (e.g. [100]*7), one width for every layer
    as in a NetworkConfig; probe/batch are boundary sample counts.  The
    nets are exp nets: `activation` is ActivationKind.EXP, its one member.
    """
    cfg = TrainConfig(epochs=0, n_train=batch, n_test=0, seed=seed, beta=beta)
    return variance_report(_square_problem(list(arch), cfg), m_e, probe)


# --- held-out residual diagnostics ----------------------------------------------


def heldout_residuals(pairs, problem, n_points: int, seed: int) -> dict:
    """Boundary residuals on a fresh batch, from one sample_boundary draw
    (stream 7 of Rng(seed)) and one loss_forward: the RMS over the outer
    pieces ("outer_rms"), over the interfaces ("interface_rms", None without
    one) and per piece ("piece_rms"), and each sample's point ("z"), piece
    index ("piece") and residual norm ("norm"), in loss_forward's order."""
    samples = geo.sample_boundary(problem.domain, n_points, Rng(seed).spawn(7))
    _, rec = loss_forward(pairs, samples, problem)
    iface = [r.ravel() for g, r in zip(rec.groups, rec.residuals) if len(g.sides) == 2]
    return {
        "outer_rms": rms(np.concatenate([r.ravel() for g, r in zip(rec.groups, rec.residuals) if len(g.sides) == 1])),
        "interface_rms": rms(np.concatenate(iface)) if iface else None,
        "piece_rms": [rms(r) for r in rec.residuals],
        "z": np.concatenate([g.z for g in rec.groups]),
        "piece": np.concatenate([np.full(g.z.size, g.piece) for g in rec.groups]),
        "norm": np.concatenate([np.sqrt(np.sum(r * r, axis=1)) for r in rec.residuals]),
    }
