"""Generate the shipped problem configs.

Builds each benchmark geometry from exact arithmetic (DomainSpec checks that
the boundary loops close and derives every outward normal), then serializes
to configs/*.json with save_config, which walks the format tables that
holoelastic.problem.load_config reads.  The JSON files are the source of truth;
tests/test_problem_cli.py checks that this script reproduces them byte for
byte.

Run from the repo root:  python scripts/gen_configs.py
"""

import json
import math
import os
import sys
from dataclasses import astuple, fields
from enum import Enum

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from holoelastic import problem
from holoelastic.elasticity import (
    ConstantData,
    Displacement,
    Interface,
    Material,
    NormalPressure,
    PlaneMode,
    Symmetry,
    Traction,
)
from holoelastic.geometry import Arc, BoundaryPiece, DomainSpec, Line
from holoelastic.problem import NetworkConfig, OutputConfig, ProblemSpec, TrainConfig

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

ZERO = ConstantData(0.0, 0.0)
MAT = Material(1.0, 1.0, PlaneMode.STRAIN)


def ring_quadrant() -> ProblemSpec:
    # upper-left quadrant of a ring r=0.5, R=2; pressure -1 on the outer arc
    p, r, R = -1.0, 0.5, 2.0
    pieces = [
        BoundaryPiece(Arc(0j, R, math.pi / 2, math.pi), Traction(NormalPressure(p)), (0,), "outer"),
        BoundaryPiece(Line(-R + 0j, -r + 0j), Symmetry(), (0,), "axis_x"),
        BoundaryPiece(Arc(0j, r, math.pi, math.pi / 2), Traction(ZERO), (0,), "inner"),
        BoundaryPiece(Line(r * 1j, R * 1j), Symmetry(), (0,), "axis_y"),
    ]
    return ProblemSpec(
        MAT,
        DomainSpec(pieces),
        NetworkConfig(2, 10),
        TrainConfig(epochs=1000, lr=0.03, n_train=200, n_test=20, seed=0),
        OutputConfig((40, 40), "out/ring_quadrant"),
        reference={"kind": "ring", "p": p, "r": r, "R": R},
        name="ring_quadrant",
    )


def plate_hole_quadrant() -> ProblemSpec:
    # upper-left quadrant of a 2.5 x 2.5 plate with a r=1 hole, uniaxial tension 1 MPa
    h, r = 1.25, 1.0
    pieces = [
        BoundaryPiece(Line(-h + 0j, -h + h * 1j), Traction(ConstantData(-1.0, 0.0)), (0,), "left"),
        BoundaryPiece(Line(-h + h * 1j, 0 + h * 1j), Traction(ZERO), (0,), "top"),
        BoundaryPiece(Line(h * 1j, r * 1j), Symmetry(), (0,), "axis_y"),
        BoundaryPiece(Arc(0j, r, math.pi / 2, math.pi), Traction(ZERO), (0,), "hole"),
        BoundaryPiece(Line(-r + 0j, -h + 0j), Symmetry(), (0,), "axis_x"),
    ]
    return ProblemSpec(
        MAT,
        DomainSpec(pieces),
        NetworkConfig(2, 10),
        TrainConfig(epochs=2000, lr=0.03, n_train=200, n_test=20, seed=0),
        OutputConfig((40, 40), "out/plate_hole_quadrant"),
        name="plate_hole_quadrant",
    )


def clamped_square() -> ProblemSpec:
    # unit square, shear 1 MPa on top, clamped bottom, free sides
    h = 0.5
    pieces = [
        BoundaryPiece(Line(-h - h * 1j, h - h * 1j), Displacement(ZERO), (0,), "bottom"),
        BoundaryPiece(Line(h - h * 1j, h + h * 1j), Traction(ZERO), (0,), "right"),
        BoundaryPiece(Line(h + h * 1j, -h + h * 1j), Traction(ConstantData(1.0, 0.0)), (0,), "top"),
        BoundaryPiece(Line(-h + h * 1j, -h - h * 1j), Traction(ZERO), (0,), "left"),
    ]
    return ProblemSpec(
        MAT,
        DomainSpec(pieces),
        NetworkConfig(4, 100),
        TrainConfig(epochs=1000, lr=1e-4, n_train=200, n_test=20, seed=0, precision="single"),
        OutputConfig((40, 40), "out/clamped_square"),
        name="clamped_square",
    )


def rail_section() -> ProblemSpec:
    # rail profile: 1 MPa compression on the head, clamped foot, free elsewhere
    c = math.sqrt(2.0) / 2.0
    c1 = complex(-3.0, 4.0)
    z1 = c1 + 3.0 * complex(c, c)
    z2 = z1 + 2.0 * complex(-c, c)
    c2 = z2 + 3.0 * complex(c, c)
    z3 = c2 + complex(-3.0, 0.0)
    c3 = z3 + complex(8.0, 0.0)
    c4 = c3 + 6.0 * complex(c, -c)
    z4 = c4 + complex(-3.0, 0.0)
    c5 = z4 + complex(0.5, 1.0 - 2.0 * c)
    z5 = c5 + complex(0.0, -0.5)
    q = math.pi / 4.0
    T = lambda: Traction(ZERO)
    pieces = [
        BoundaryPiece(Line(0j, 4j), T(), (0,), "foot_left"),
        BoundaryPiece(Arc(c1, 3.0, 0.0, q), T(), (0,), "fillet_left_lower"),
        BoundaryPiece(Line(z1, z2), T(), (0,), "web_left"),
        BoundaryPiece(Arc(c2, 3.0, math.pi + q, math.pi), T(), (0,), "fillet_left_upper"),
        BoundaryPiece(Line(z3, z3 + 2j), T(), (0,), "head_left"),
        BoundaryPiece(
            Line(z3 + 2j, z3 + complex(11.0, 2.0)),
            Traction(NormalPressure(1.0)),
            (0,),
            "head_top",
        ),
        BoundaryPiece(Line(z3 + complex(11.0, 2.0), z3 + complex(11.0, 0.0)), T(), (0,), "head_right"),
        BoundaryPiece(Arc(c3, 3.0, 0.0, -q), T(), (0,), "fillet_right_upper"),
        BoundaryPiece(Arc(c4, 3.0, math.pi - q, math.pi), T(), (0,), "fillet_right_lower"),
        BoundaryPiece(Line(z4, z4 + complex(0.0, -(2.0 * c - 1.0))), T(), (0,), "web_right"),
        BoundaryPiece(Arc(c5, 0.5, math.pi, 1.5 * math.pi), T(), (0,), "fillet_foot"),
        BoundaryPiece(Line(z5, complex(10.0, 4.5)), T(), (0,), "foot_top"),
        BoundaryPiece(Line(complex(10.0, 4.5), complex(10.0, 0.0)), T(), (0,), "foot_right"),
        BoundaryPiece(Line(complex(10.0, 0.0), 0j), Displacement(ZERO), (0,), "foot_bottom"),
    ]
    return ProblemSpec(
        MAT,
        DomainSpec(pieces),
        NetworkConfig(5, 100),
        TrainConfig(epochs=4000, lr=5e-4, n_train=400, n_test=40, seed=0),
        OutputConfig((40, 40), "out/rail_section"),
        name="rail_section",
    )


def dd_plate_hole() -> ProblemSpec:
    # full 2.5 x 2.5 plate with r=1 hole split into quadrants 0..3 (NE, NW, SW, SE)
    h, r = 1.25, 1.0
    pi = math.pi
    T0 = lambda: Traction(ZERO)
    pieces = [
        # outer edges, two per side
        BoundaryPiece(Line(h + 0j, h + h * 1j), Traction(ConstantData(1.0, 0.0)), (0,), "right_up"),
        BoundaryPiece(Line(h + h * 1j, 0 + h * 1j), T0(), (0,), "top_right"),
        BoundaryPiece(Line(0 + h * 1j, -h + h * 1j), T0(), (1,), "top_left"),
        BoundaryPiece(Line(-h + h * 1j, -h + 0j), Traction(ConstantData(-1.0, 0.0)), (1,), "left_up"),
        BoundaryPiece(Line(-h + 0j, -h - h * 1j), Traction(ConstantData(-1.0, 0.0)), (2,), "left_down"),
        BoundaryPiece(Line(-h - h * 1j, 0 - h * 1j), T0(), (2,), "bottom_left"),
        BoundaryPiece(Line(0 - h * 1j, h - h * 1j), T0(), (3,), "bottom_right"),
        BoundaryPiece(Line(h - h * 1j, h + 0j), Traction(ConstantData(1.0, 0.0)), (3,), "right_down"),
        # hole, one quarter arc per subdomain; material outside the circle
        BoundaryPiece(Arc(0j, r, 0.0, pi / 2), T0(), (0,), "hole_ne"),
        BoundaryPiece(Arc(0j, r, pi / 2, pi), T0(), (1,), "hole_nw"),
        BoundaryPiece(Arc(0j, r, pi, 1.5 * pi), T0(), (2,), "hole_sw"),
        BoundaryPiece(Arc(0j, r, 1.5 * pi, 2.0 * pi), T0(), (3,), "hole_se"),
        # interfaces between adjacent quadrants
        BoundaryPiece(Line(r * 1j, h * 1j), Interface(), (0, 1), "iface_ne_nw"),
        BoundaryPiece(Line(-h + 0j, -r + 0j), Interface(), (1, 2), "iface_nw_sw"),
        BoundaryPiece(Line(-r * 1j, -h * 1j), Interface(), (2, 3), "iface_sw_se"),
        BoundaryPiece(Line(r + 0j, h + 0j), Interface(), (3, 0), "iface_se_ne"),
    ]
    return ProblemSpec(
        MAT,
        DomainSpec(pieces),
        NetworkConfig(2, 10),
        TrainConfig(epochs=2000, lr=0.03, n_train=600, n_test=60, seed=0),
        OutputConfig((40, 40), "out/dd_plate_hole"),
        name="dd_plate_hole",
    )


GENERATORS = (ring_quadrant, plate_hole_quadrant, clamped_square, rail_section, dd_plate_hole)


def _json(v):
    """A loaded value as a config writes it: an enum by its value, a point as [x, y] and a tuple as a list."""
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, complex):
        return [v.real, v.imag]
    return list(v) if isinstance(v, tuple) else v


def _keys_json(obj, keys) -> dict:
    """obj's value of each config key in `keys`, as JSON."""
    return {k: _json(getattr(obj, problem.FIELDS.get(k, k))) for k in keys}


def _tag(table: dict, obj) -> str:
    """The key under which `table` holds obj's class."""
    return next(k for k, cls in table.items() if type(obj) is cls)


def _data_json(data) -> dict:
    vals = astuple(data)  # a number for one field, else a list
    return {_tag(problem.DATA_KINDS, data): _json(vals if len(vals) > 1 else vals[0])}


def _piece_json(p: BoundaryPiece) -> dict:
    kind, reads = next((k, reads) for k, (cls, reads) in problem.PIECE_KINDS.items() if type(p.shape) is cls)
    bc = {"type": _tag(problem.BC_TYPES, p.bc), **{f.name: _data_json(getattr(p.bc, f.name)) for f in fields(p.bc)}}
    return {"kind": kind, **_keys_json(p.shape, reads), "bc": bc, "subdomains": _json(p.subdomains), "name": p.name}


def save_config(spec: ProblemSpec, path: str) -> None:
    """Serialize a ProblemSpec through problem's format tables; load_config(save_config(s)) == s."""
    doc = {"name": spec.name, "material": None, "geometry": {"pieces": [_piece_json(p) for p in spec.domain.pieces]}}
    for key, (_, reads, _) in problem.SECTIONS.items():  # material fills its place above, the others follow
        doc[key] = _keys_json(getattr(spec, key), reads)
    if spec.training.precision == TrainConfig.precision:  # the default is left out
        del doc["training"]["precision"]
    if spec.reference is not None:  # the loader reads the ring's p, r and R off its arcs
        doc["reference"] = {"kind": spec.reference["kind"]}
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    for spec in (gen() for gen in GENERATORS):
        path = os.path.join(OUT_DIR, f"{spec.name}.json")
        save_config(spec, path)
        n_outer = sum(1 for p in spec.domain.pieces if not p.is_interface)
        print(
            f"{spec.name}: {len(spec.domain.pieces)} pieces ({n_outer} outer), "
            f"outer length {spec.domain.outer_length():.6f} -> {path}"
        )


if __name__ == "__main__":
    main()
