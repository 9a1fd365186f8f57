"""Problem configuration: JSON schema and validation.

A config bundles material, boundary geometry with BC data, network
architecture, training protocol and output settings.  A piece states its
shape, its condition and its subdomains once; the subdomain count, the
outward normals and a ring reference follow from the pieces.  Boundary data
are restricted to constant vectors and a normal-pressure catalogue entry,
which covers all shipped benchmark problems without an expression interpreter.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

from . import elasticity as el
from . import geometry as geo
from .jets import ActivationKind
from .network import Mode
from .training import TrainConfig


@dataclass
class NetworkConfig:
    hidden_layers: int = 2
    units: int = 10
    activation: ActivationKind = ActivationKind.EXP
    mode: Mode = Mode.STANDARD

    def __post_init__(self):
        if self.hidden_layers < 1 or self.units < 1:
            raise ValueError("hidden_layers and units must be positive")


@dataclass
class OutputConfig:
    grid: tuple[int, int] = (40, 40)
    out_dir: str = "out"


@dataclass
class ProblemSpec:
    material: el.Material
    domain: geo.DomainSpec
    networks: NetworkConfig
    training: TrainConfig
    outputs: OutputConfig = field(default_factory=OutputConfig)
    reference: Optional[dict] = None  # e.g. {"kind": "ring", "p": -1, "r": 0.5, "R": 2}; a config states the kind
    name: str = ""

    def __post_init__(self):
        n = len(self.domain.pieces)  # every piece needs a sample; n_test = 0 means no test batch
        for key in ("n_train", "n_test"):
            v = getattr(self.training, key)
            if (key == "n_train" or v > 0) and v < n:
                raise ConfigError(f"training: {key} must be at least the number of boundary pieces ({n}), got {v}")
        if self.networks.mode is Mode.STRESS_ONLY:
            for p in self.domain.pieces:
                if not isinstance(p.bc, el.Traction):
                    raise ValueError(
                        "stress-only networks allow traction conditions only; "
                        f"piece {p.name!r} has {type(p.bc).__name__}"
                    )


class ConfigError(ValueError):
    """A configuration file failed validation. The message names the JSON path."""


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _made(path: str, make):
    """make(), its ValueError reported at `path` (a PieceError at its piece); a ConfigError passes as it is."""
    try:
        return make()
    except ConfigError:
        raise
    except ValueError as e:
        _fail(f"{path}.pieces[{e.index}]" if isinstance(e, geo.PieceError) else path, str(e))


def _obj(v, path: str) -> dict:
    if not isinstance(v, dict):
        _fail(path, f"expected an object, got {v!r}")
    return v


def _keys(obj, path: str, *read: str) -> dict:
    """obj, once every key in it is one of `read`: the keys the loader reads there."""
    for key in _obj(obj, path):
        if key not in read:
            _fail(path, f"unknown field {key!r}; expected one of {', '.join(read)}")
    return obj


def _need(obj: dict, key: str, path: str):
    if key not in _obj(obj, path):
        _fail(path, f"missing required field {key!r}")
    return obj[key]


def _num(v, path: str) -> float:
    # JSON numbers but not bools; the bound rejects NaN, inf and ints past the float range
    if type(v) in (int, float) and abs(v) <= sys.float_info.max:
        return float(v)
    _fail(path, f"expected a finite number, got {v!r}")


def _int(v, path: str) -> int:
    if type(v) is not int:  # a float would truncate and a bool is an int subclass
        _fail(path, f"expected an integer, got {v!r}")
    return v


def _str(v, path: str) -> str:
    if not (isinstance(v, str) and v):
        _fail(path, f"expected a nonempty string, got {v!r}")
    return v


def _nums(v, n: int, path: str) -> tuple[float, ...]:
    if not (isinstance(v, list) and len(v) == n):
        _fail(path, f"expected a list of {n} numbers, got {v!r}")
    return tuple(_num(x, path) for x in v)


def _cx(v, path: str) -> complex:
    return complex(*_nums(v, 2, path))


def _parse_data(obj: dict, path: str) -> el.BoundaryData:
    if "constant" in _obj(obj, path):
        return el.ConstantData(*_nums(_keys(obj, path, "constant")["constant"], 2, f"{path}.constant"))
    if "normal_pressure" in obj:
        _keys(obj, path, "normal_pressure")
        return el.NormalPressure(_num(obj["normal_pressure"], f"{path}.normal_pressure"))
    _fail(path, "boundary data must give 'constant' or 'normal_pressure'")


def _parse_bc(obj: dict, path: str) -> el.BCKind:
    kind = _need(obj, "type", path)
    if kind in ("traction", "displacement"):
        data = _parse_data(_need(_keys(obj, path, "type", "data"), "data", path), f"{path}.data")
        return (el.Traction if kind == "traction" else el.Displacement)(data)
    if kind in ("symmetry", "interface"):
        _keys(obj, path, "type")
        return el.Symmetry() if kind == "symmetry" else el.Interface()
    _fail(path, f"unknown bc type {kind!r}")


def _parse_piece(obj: dict, i: int) -> geo.BoundaryPiece:
    path = f"geometry.pieces[{i}]"
    kind = _need(obj, "kind", path)
    if kind == "line":
        read = ("p0", "p1")
        shape = geo.Line(*(_cx(_need(obj, k, path), f"{path}.{k}") for k in read))
    elif kind == "arc":
        read = ("center", "radius", "theta0", "theta1")
        center = _cx(_need(obj, "center", path), f"{path}.center")
        shape = geo.Arc(center, *(_num(_need(obj, k, path), f"{path}.{k}") for k in read[1:]))
    else:
        _fail(path, f"unknown piece kind {kind!r}")
    _keys(obj, path, "kind", *read, "bc", "subdomains", "name")
    bc = _parse_bc(_need(obj, "bc", path), f"{path}.bc")
    subs = _need(obj, "subdomains", path)
    if not isinstance(subs, list):
        _fail(f"{path}.subdomains", f"expected a list of integers, got {subs!r}")
    subs = tuple(_int(s, f"{path}.subdomains") for s in subs)
    name = _str(obj.get("name", f"piece{i}"), f"{path}.name")
    return _made(path, lambda: geo.BoundaryPiece(shape, bc, subs, name=name))


def load_config(path: str) -> ProblemSpec:
    """Parse and fully validate a problem config; errors name the JSON path."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")

    _keys(doc, "config", "name", "material", "geometry", "networks", "training", "outputs", "reference")
    mat_obj = _keys(_need(doc, "material", "config"), "material", "lambda", "mu", "mode")
    lam, mu = (_num(_need(mat_obj, k, "material"), f"material.{k}") for k in ("lambda", "mu"))
    material = _made("material", lambda: el.Material(lam, mu, el.PlaneMode(mat_obj.get("mode", "plane_strain"))))

    piece_objs = _need(_keys(_need(doc, "geometry", "config"), "geometry", "pieces"), "pieces", "geometry")
    if not isinstance(piece_objs, list):
        _fail("geometry.pieces", f"expected a list, got {piece_objs!r}")
    pieces = [_parse_piece(p, i) for i, p in enumerate(piece_objs)]
    domain = _made("geometry", lambda: geo.DomainSpec(pieces))

    net_obj = _keys(_need(doc, "networks", "config"), "networks", "hidden_layers", "units", "activation", "mode")
    layers, units = (_int(_need(net_obj, k, "networks"), f"networks.{k}") for k in ("hidden_layers", "units"))
    act, mode = net_obj.get("activation", "exp"), net_obj.get("mode", "standard")
    networks = _made("networks", lambda: NetworkConfig(layers, units, ActivationKind(act), Mode(mode)))

    tr_obj = _need(doc, "training", "config")
    _keys(tr_obj, "training", "epochs", "lr", "n_train", "n_test", "seed", "beta", "m_e", "precision")
    fields = {k: _int(_need(tr_obj, k, "training"), f"training.{k}") for k in ("epochs", "n_train")}
    fields.update({k: _int(tr_obj.get(k, v), f"training.{k}") for k, v in (("n_test", 0), ("seed", 0), ("m_e", 3))})
    fields["lr"] = _num(_need(tr_obj, "lr", "training"), "training.lr")
    fields["beta"] = _num(tr_obj.get("beta", 0.5), "training.beta")
    fields["precision"] = _str(tr_obj.get("precision", "double"), "training.precision")
    training = _made("training", lambda: TrainConfig(**fields))

    out_obj = _keys(doc.get("outputs", {}), "outputs", "grid", "dir")
    grid = out_obj.get("grid", [40, 40])
    if not (isinstance(grid, list) and len(grid) == 2 and all(type(v) is int and v > 0 for v in grid)):
        _fail("outputs.grid", f"expected [nx, ny] with positive integers, got {grid!r}")
    outputs = OutputConfig(tuple(grid), _str(out_obj.get("dir", "out"), "outputs.dir"))

    ref = doc.get("reference")
    if ref is not None:
        if _keys(ref, "reference", "kind").get("kind") != "ring":
            _fail("reference.kind", f"expected 'ring', got {ref.get('kind')!r}")
        arcs = {q.shape.radius: q.bc for q in pieces if isinstance(q.shape, geo.Arc) and q.shape.center == 0}
        r, R = min(arcs, default=0.0), max(arcs, default=0.0)  # Lame's ring: its arcs about the origin
        p = getattr(getattr(arcs.get(R), "data", None), "p", 0.0)  # the outer arc's normal pressure, else 0
        if not (0.0 < r < R and p != 0.0):  # the rel-L2 errors divide by the exact fields, all zero without pressure
            _fail("reference", f"a ring needs arcs about the origin of radii 0 < r < R and a nonzero normal "
                  f"pressure p on the outer one; got r={r}, R={R}, p={p}")
        ref = {"kind": "ring", "p": p, "r": r, "R": R}

    name = _str(doc.get("name", os.path.splitext(os.path.basename(path))[0]), "name")
    return _made("config", lambda: ProblemSpec(material, domain, networks, training, outputs, ref, name))
