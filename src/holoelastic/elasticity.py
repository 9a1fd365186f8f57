"""Kolosov-Muskhelishvili field mapping, boundary residuals and loss assembly.

Stresses and displacements of a plane elastic body derive from two
holomorphic potentials phi, psi:

    sxx = Re(2 phi' - conj(z) phi'' - psi')
    syy = Re(2 phi' + conj(z) phi'' + psi')
    sxy = Im(conj(z) phi'' + psi')
    ux + i uy = (gamma phi - z conj(phi') - conj(psi)) / (2 mu)

km_fields maps the phi- and psi-branch jets to the (5, B) field rows
(sxx, syy, sxy, ux, uy), and km_fields_adjoint, its exact transpose, maps row
adjoints back to the jets; km_derivatives picks (phi', phi'', psi') off the
jets, so no other module indexes jet channels.  Every boundary condition is
a per-sample linear operator on the field rows, built once per sample batch
by bc_operator; the residual applies it and the residual's adjoint is its
transpose.

Units are MPa for moduli/stresses and meters for lengths/displacements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence, Union

import numpy as np


class PlaneMode(Enum):
    STRAIN = "plane_strain"
    STRESS = "plane_stress"


def material_derived(lam: float, mu: float, mode: PlaneMode) -> tuple[float, float]:
    """Effective Lame parameter and the displacement constant gamma.

    Plane strain keeps lambda; plane stress replaces it by
    2*lambda*mu/(lambda+2mu).  gamma uses the effective parameter so that it
    matches the classical constants 3-4*nu (strain) and (3-nu)/(1+nu)
    (stress).
    """
    if not (mu > 0.0):
        raise ValueError(f"shear modulus must be positive, got mu={mu}")
    if not (lam > -2.0 * mu / 3.0):
        raise ValueError(f"lambda={lam} violates lambda > -2mu/3 with mu={mu}")
    if mode is PlaneMode.STRAIN:
        lam_tilde = lam
    else:
        lam_tilde = 2.0 * lam * mu / (lam + 2.0 * mu)
    gamma = (lam_tilde + 3.0 * mu) / (lam_tilde + mu)
    return lam_tilde, gamma


@dataclass(frozen=True)
class Material:
    lam: float
    mu: float
    mode: PlaneMode = PlaneMode.STRAIN
    gamma: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gamma", material_derived(self.lam, self.mu, self.mode)[1])  # validates


def km_derivatives(jp: np.ndarray, jq: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phi', phi'', psi') of the branch jets (phi, phi', phi'') and (psi, psi')
    (network.JET_ORDERS)."""
    return jp[1], jp[2], jq[1]


def km_fields(z, jp: np.ndarray, jq: np.ndarray, mat: Material) -> np.ndarray:
    """The (5, B) field rows (sxx, syy, sxy, ux, uy) at z of the branch jets
    (km_derivatives).  Overflow warnings are silenced: callers check the rows
    for finiteness."""
    z = np.asarray(z, dtype=np.complex128)
    dphi, ddphi, dpsi = km_derivatives(jp, jq)
    out = np.empty((5, z.size))
    zc = np.conj(z)
    with np.errstate(over="ignore", invalid="ignore"):
        a = zc * ddphi + dpsi
        out[0] = np.real(2.0 * dphi - a)
        out[1] = np.real(2.0 * dphi + a)
        out[2] = np.imag(a)
        # np.multiply, not `*`: from 16,384 points numpy reuses a temporary right
        # operand of `*` in place, which swaps a complex product's operands and bits
        w = (mat.gamma * jp[0] - np.multiply(z, np.conj(dphi)) - np.conj(jq[0])) / (2.0 * mat.mu)
        out[3], out[4] = np.real(w), np.imag(w)
    return out


def km_fields_adjoint(z: np.ndarray, adj: np.ndarray, mat: Material) -> tuple[np.ndarray, np.ndarray]:
    """Adjoints (dL/dRe + i dL/dIm), (3, B) and (2, B), of the phi- and
    psi-branch jets of km_fields from the (5, B) dL/dfields.  The field map is
    the only non-holomorphic complex step of the pipeline."""
    rxx, ryy, rxy = adj[0], adj[1], adj[2]
    ap, aq = np.empty((3, z.size), np.complex128), np.empty((2, z.size), np.complex128)
    a_u = adj[3] + 1j * adj[4]
    ap[0] = (mat.gamma / (2.0 * mat.mu)) * a_u
    ap[1] = 2.0 * (rxx + ryy) + 0j + np.conj(a_u) * (-z / (2.0 * mat.mu))
    ap[2] = z * (ryy - rxx + 1j * rxy)
    aq[0] = np.conj(a_u) * (-1.0 / (2.0 * mat.mu))
    aq[1] = (ryy - rxx) + 1j * rxy
    return ap, aq


# --- boundary conditions ----------------------------------------------------


@dataclass(frozen=True)
class ConstantData:
    """Constant boundary vector (traction in MPa or displacement in m)."""

    vx: float
    vy: float


@dataclass(frozen=True)
class NormalPressure:
    """Pressure p acting on the surface: prescribed traction is -p * n."""

    p: float


BoundaryData = Union[ConstantData, NormalPressure]


def eval_boundary_data(data: BoundaryData, z, nx, ny) -> tuple[np.ndarray, np.ndarray]:
    z = np.asarray(z)
    if isinstance(data, ConstantData):
        shape = z.shape
        return np.broadcast_to(data.vx, shape).astype(float), np.broadcast_to(data.vy, shape).astype(float)
    if isinstance(data, NormalPressure):
        return -data.p * np.asarray(nx, dtype=float), -data.p * np.asarray(ny, dtype=float)
    raise TypeError(f"unknown boundary data {data!r}")


@dataclass(frozen=True)
class Traction:
    data: BoundaryData


@dataclass(frozen=True)
class Displacement:
    data: BoundaryData


@dataclass(frozen=True)
class Symmetry:
    pass


@dataclass(frozen=True)
class Interface:
    """Continuity of (u, t) from side a to side b, its piece's first and second subdomain."""


BCKind = Union[Traction, Displacement, Symmetry, Interface]


def bc_operator(kind: BCKind, n, z) -> tuple[np.ndarray, np.ndarray]:
    """One boundary condition as a linear map on the field rows.

    Returns A of shape (B, k, 5), acting on (sxx, syy, sxy, ux, uy) at each
    sample, and the prescribed data d of shape (B, k); the residual is
    A f - d.  With t = sigma . n:

      Traction      t - data
      Displacement  u - data
      Symmetry      ((sigma.n) x n, u . n), d = 0
      Interface     (u, t) of side a minus (u, t) of side b, d = 0

    `n` is the outward unit normal as a complex number nx + i*ny.
    """
    n = np.atleast_1d(np.asarray(n, dtype=np.complex128))
    nx, ny = np.real(n), np.imag(n)
    if np.any(np.abs(np.hypot(nx, ny) - 1.0) > 1e-12):
        raise ValueError("boundary normal is not a unit vector")
    zero, one = np.zeros_like(nx), np.ones_like(nx)
    t = np.array([[nx, zero, ny, zero, zero], [zero, ny, nx, zero, zero]])  # (k, 5, B)
    u = np.array([[zero, zero, zero, one, zero], [zero, zero, zero, zero, one]])
    if isinstance(kind, Traction):
        a = t
    elif isinstance(kind, Displacement):
        a = u
    elif isinstance(kind, Symmetry):
        a = np.array([ny * t[0] - nx * t[1], nx * u[0] + ny * u[1]])
    elif isinstance(kind, Interface):
        a = np.concatenate([u, t])
    else:
        raise TypeError(f"unknown boundary condition {kind!r}")
    A = np.ascontiguousarray(a.transpose(2, 0, 1))
    # residuals are column-major (B, k): assemble_loss then sums them one
    # component after the other, which fixes its rounding
    d = np.zeros(A.shape[:2], order="F")
    if isinstance(kind, (Traction, Displacement)):
        d[:, 0], d[:, 1] = eval_boundary_data(kind.data, z, nx, ny)
    return A, d


def _apply(A: np.ndarray, f: np.ndarray) -> np.ndarray:
    return np.einsum("bkf,fb->bk", A, f, order="F")


def bc_residual(A: np.ndarray, d: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Residual A f - d of one outer boundary condition; shape (B, k).

    (A, d) come from bc_operator and `f` holds the (5, B) field rows of
    km_fields.
    """
    return _apply(A, f) - d


def interface_residual(A: np.ndarray, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Displacement and traction jumps A fa - A fb across an interface; shape (B, 4).  The loss computes
    these rows in each subdomain's stacked operator (autodiff._residuals); this is the tests' per-piece
    reference for them, and perfbench's ENTRY_POINTS names it (test_span_entry_points_resolve)."""
    return _apply(A, fa) - _apply(A, fb)


# --- loss assembly ----------------------------------------------------------


def group_weights(lengths: Sequence[float], outer: Sequence[bool]) -> list[float]:
    """Per-piece loss weights: piece length over total outer boundary length."""
    outer_len = math.fsum(length for length, o in zip(lengths, outer) if o)
    if outer_len <= 0.0:
        raise ValueError("total outer boundary length must be positive")
    return [length / outer_len for length in lengths]


def assemble_loss(residuals: Sequence[np.ndarray], alphas: Sequence[float]) -> tuple[float, list[float]]:
    """Length-weighted mean-squared boundary residual and the per-piece means.

    Every (B, k) residual batch contributes alpha * mean_i ||r_i||^2, summed
    in piece order, with alpha from group_weights; outer alphas sum to 1.
    """
    total = 0.0
    mse = []
    for r, alpha in zip(residuals, alphas):
        mse.append(float(np.add.reduce(r * r, axis=None) / r.shape[0]))  # np.sum's reduction
        total += alpha * mse[-1]
    return total, mse
