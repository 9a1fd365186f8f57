"""Plane linear elasticity via holomorphic complex-valued networks.

The governing equations are satisfied by construction: the networks output
Kolosov-Muskhelishvili potentials, so training only fits boundary residuals.
"""

from .elasticity import (
    ConstantData,
    Displacement,
    Interface,
    Material,
    NormalPressure,
    PlaneMode,
    Symmetry,
    Traction,
    assemble_loss,
    bc_operator,
    bc_residual,
    interface_residual,
    km_fields,
    material_derived,
)
from .geometry import Arc, BoundaryPiece, DomainSpec, Line, Side, sample_boundary
from .jets import ActivationKind, NonFiniteError
from .network import (
    BranchPair,
    HoloMLP,
    LayerParams,
    Mode,
    ShallowApprox,
    build_mlp,
    checkpoint_load,
    checkpoint_save,
    constructive_shallow,
    init_weights,
    mlp_forward,
    shallow_eval,
)
from .problem import ProblemSpec, load_config
from .rng import Rng
from .training import AdamState, History, TrainConfig, adam_step, train

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
