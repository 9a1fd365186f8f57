import dataclasses
import json
import os

import numpy as np
import pytest

from holoelastic.autodiff import PackedBatch, loss_backward, loss_forward, loss_value, pack_batch
from holoelastic.elasticity import ConstantData, Material, NormalPressure, Symmetry, Traction, km_fields
from holoelastic.geometry import Arc, BoundaryPiece, DomainSpec, Line
from holoelastic.network import flatten_params, mlp_forward, write_params
from holoelastic.problem import NetworkConfig, OutputConfig, ProblemSpec
from holoelastic.training import TrainConfig

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
CONFIG_NAMES = [
    "ring_quadrant",
    "plate_hole_quadrant",
    "clamped_square",
    "rail_section",
    "dd_plate_hole",
]


def config_path(name: str) -> str:
    return os.path.join(CONFIG_DIR, f"{name}.json")


@pytest.fixture(scope="session")
def configs():
    from holoelastic.problem import load_config

    return {name: load_config(config_path(name)) for name in CONFIG_NAMES}


def ring_quadrant_domain() -> DomainSpec:
    """Upper-left ring quadrant, r=0.5, R=2, built inline for unit tests."""
    pieces = [
        BoundaryPiece(Arc(0j, 2.0, np.pi / 2, np.pi), Traction(NormalPressure(-1.0)), (0,), "outer"),
        BoundaryPiece(Line(-2 + 0j, -0.5 + 0j), Symmetry(), (0,), "axis_x"),
        BoundaryPiece(Arc(0j, 0.5, np.pi, np.pi / 2), Traction(ConstantData(0, 0)), (0,), "inner"),
        BoundaryPiece(Line(0.5j, 2j), Symmetry(), (0,), "axis_y"),
    ]
    return DomainSpec(pieces)


def ring_problem(epochs=0, seed=0, n_train=200, n_test=20) -> ProblemSpec:
    return ProblemSpec(
        Material(1.0, 1.0),
        ring_quadrant_domain(),
        NetworkConfig(2, 10),
        TrainConfig(epochs=epochs, lr=0.03, n_train=n_train, n_test=n_test, seed=seed),
        OutputConfig(),
        reference={"kind": "ring", "p": -1.0, "r": 0.5, "R": 2.0},
        name="ring_test",
    )


def with_training(problem: ProblemSpec, **training) -> ProblemSpec:
    """`problem` with the given training settings replaced."""
    return dataclasses.replace(problem, training=dataclasses.replace(problem.training, **training))


def traction_square_domain() -> DomainSpec:
    """Unit square under uniform biaxial tension; pure Neumann."""
    pull = lambda vx, vy: Traction(ConstantData(vx, vy))
    pieces = [
        BoundaryPiece(Line(-1 - 1j, 1 - 1j), pull(0, -1), (0,), "bottom"),
        BoundaryPiece(Line(1 - 1j, 1 + 1j), pull(1, 0), (0,), "right"),
        BoundaryPiece(Line(1 + 1j, -1 + 1j), pull(0, 1), (0,), "top"),
        BoundaryPiece(Line(-1 + 1j, -1 - 1j), pull(-1, 0), (0,), "left"),
    ]
    return DomainSpec(pieces)


def square_problem(mode="standard", epochs=0, seed=0) -> ProblemSpec:
    from holoelastic.network import Mode

    return ProblemSpec(
        Material(1.0, 1.0),
        traction_square_domain(),
        NetworkConfig(2, 8, mode=Mode(mode)),
        TrainConfig(epochs=epochs, lr=0.01, n_train=40, n_test=8, seed=seed),
        OutputConfig(),
        name="square_test",
    )


# --- physics property checks: finite differences of a network's stress field ---


def _stress_stencil(stress_fn, z: np.ndarray, h: float):
    zs = [z + h, z - h, z + 1j * h, z - 1j * h, z]
    return [stress_fn(np.asarray(pt, dtype=np.complex128)) for pt in zs]


def fd_equilibrium(stress_fn, z, h: float):
    """Central-difference divergence of a stress field and max local |stress|.

    stress_fn(z) must return (sxx, syy, sxy) arrays; the exact divergence of
    a Kolosov-Muskhelishvili field is zero, so the residual is pure
    finite-difference truncation.
    """
    z = np.asarray(z, dtype=np.complex128)
    xp, xm, yp, ym, _ = _stress_stencil(stress_fn, z, h)
    r1 = (xp[0] - xm[0]) / (2 * h) + (yp[2] - ym[2]) / (2 * h)
    r2 = (xp[2] - xm[2]) / (2 * h) + (yp[1] - ym[1]) / (2 * h)
    smax = max(float(np.max(np.abs(np.stack(s)))) for s in (xp, xm, yp, ym))
    return r1, r2, smax


def fd_trace_laplacian(stress_fn, z, h: float):
    """Five-point Laplacian of the stress trace sxx + syy (harmonic exactly)."""
    z = np.asarray(z, dtype=np.complex128)
    xp, xm, yp, ym, c = _stress_stencil(stress_fn, z, h)
    tr = lambda s: s[0] + s[1]
    return (tr(xp) + tr(xm) + tr(yp) + tr(ym) - 4.0 * tr(c)) / (h * h)


def net_stress_fn(pair, mat):
    def fn(z):
        return tuple(km_fields(z, *mlp_forward(pair, z), mat)[:3])

    return fn


def equilibrium_residual(nets, mat, z, h: float):
    """Finite-difference equilibrium residual of the network's stress field."""
    if not (1e-6 <= h <= 1e-2):
        raise ValueError(f"step h={h} outside [1e-6, 1e-2]")
    r1, r2, _ = fd_equilibrium(net_stress_fn(nets, mat), z, h)
    return r1, r2


# --- the FD gradient contract ---------------------------------------------------


def grad_check(pairs, batch, problem, step: float = 1e-6) -> float:
    """Max relative deviation of the reverse-mode gradient from central differences.

    Deviations are measured against max(|fd|, |ad|, 1e-3 * max|grad|) so that
    finite-difference noise on near-zero components does not dominate.
    """
    if not (0.0 < step <= 1e-3):
        raise ValueError(f"step must be in (0, 1e-3], got {step}")
    packed = batch if isinstance(batch, PackedBatch) else pack_batch(batch, problem.domain)
    _, rec = loss_forward(pairs, packed, problem)
    gvec = loss_backward(rec).to_vector()
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


# --- the checkpoint format ------------------------------------------------------


def checkpoint_json(pairs) -> str:
    """The whole checkpoint document in one json.dumps call: the reference for
    the bytes network.checkpoint_save writes piece by piece."""

    def to_pairs(a):
        return np.ascontiguousarray(a).view(np.float64).reshape(-1, 2).tolist()

    doc = {"pairs": []}
    for pair in pairs:
        entry = {}
        for name, net in (("phi", pair.phi), ("psi", pair.psi)):
            entry[name] = {
                "mode": net.mode.value,
                "layers": [
                    {"shape": list(l.weights.shape), "weights": to_pairs(l.weights), "bias": to_pairs(l.bias)}
                    for l in net.layers
                ],
            }
        doc["pairs"].append(entry)
    return json.dumps(doc)
