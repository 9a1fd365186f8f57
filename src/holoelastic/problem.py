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
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import elasticity as el
from . import geometry as geo

# training.precision -> the complex dtype of the branch sweeps
PRECISIONS = {"double": np.complex128, "single": np.complex64}


@dataclass
class TrainConfig:
    epochs: int = 1000
    lr: float = 0.03
    n_train: int = 200
    n_test: int = 0
    seed: int = 0
    beta: float = 0.5
    m_e: int = 3
    precision: str = "double"  # a key of PRECISIONS

    def __post_init__(self):
        for key, least in (("epochs", 0), ("n_train", 1), ("n_test", 0)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be >= {least}, got {getattr(self, key)}")
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"lr must be a finite positive number, got {self.lr}")
        if not 0.0 < self.beta < np.inf:  # network.init_weights' rule and wording
            raise ValueError(f"beta must be a finite positive number, got {self.beta}")
        if self.m_e < 2:
            raise ValueError(f"m_e must be >= 2, got {self.m_e}")
        if self.precision not in PRECISIONS:
            raise ValueError(f"precision must be 'double' or 'single', got {self.precision!r}")


@dataclass
class NetworkConfig:
    hidden_layers: int = 2
    units: int = 10

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


class ConfigError(ValueError):
    """A configuration file failed validation. The message names the JSON path."""


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def made(path: str, make):
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


def _grid(v, path: str) -> tuple[int, int]:
    if not (isinstance(v, list) and len(v) == 2 and all(type(n) is int and n > 0 for n in v)):
        _fail(path, f"expected [nx, ny] with positive integers, got {v!r}")
    return tuple(v)


def _enum(kind):
    return lambda v, path: kind(v)  # a ValueError, reported at the section


# The config format, which scripts/gen_configs.py writes through.  A section: its dataclass, a reader for each key
# (in the order a config writes them) and the keys it requires; FIELDS renames a key to its dataclass field.
FIELDS = {"lambda": "lam", "dir": "out_dir"}
SECTIONS = {
    "material": (el.Material, {"lambda": _num, "mu": _num, "mode": _enum(el.PlaneMode)}, ("lambda", "mu")),
    "networks": (NetworkConfig, {"hidden_layers": _int, "units": _int}, ("hidden_layers", "units")),
    "training": (TrainConfig, {"epochs": _int, "lr": _num, "n_train": _int, "n_test": _int, "seed": _int,
                               "beta": _num, "m_e": _int, "precision": _str}, ("epochs", "n_train", "lr")),
    "outputs": (OutputConfig, {"grid": _grid, "dir": _str}, ()),
}
PIECE_KINDS = {"line": (geo.Line, {"p0": _cx, "p1": _cx}),  # a shape and a reader for each key, all required
               "arc": (geo.Arc, {"center": _cx, "radius": _num, "theta0": _num, "theta1": _num})}
BC_TYPES = {"traction": el.Traction, "displacement": el.Displacement, "symmetry": el.Symmetry, "interface": el.Interface}
DATA_KINDS = {"constant": el.ConstantData, "normal_pressure": el.NormalPressure}  # a number for one field, else a list


def _section(doc: dict, path: str):
    """SECTIONS[path]'s dataclass of the keys that doc[path] gives, so a key left out takes its dataclass default;
    a section that requires no key may be left out."""
    make, reads, required = SECTIONS[path]
    obj = _keys(_need(doc, path, "config") if required else doc.get(path, {}), path, *reads)
    for key in required:
        _need(obj, key, path)
    read = lambda: {FIELDS.get(k, k): rd(obj[k], f"{path}.{k}") for k, rd in reads.items() if k in obj}
    return made(path, lambda: make(**read()))


def _pick(table: dict, kind, path: str, what: str):  # kind is any JSON value: a list or an object is unhashable
    return table[kind] if isinstance(kind, str) and kind in table else _fail(path, f"unknown {what} {kind!r}")


def _parse_data(obj: dict, path: str) -> el.BoundaryData:
    for key, cls in DATA_KINDS.items():
        if key in _obj(obj, path):
            n, v, at = len(fields(cls)), _keys(obj, path, key)[key], f"{path}.{key}"
            return cls(*(_nums(v, n, at) if n > 1 else (_num(v, at),)))
    _fail(path, f"boundary data must give {' or '.join(map(repr, DATA_KINDS))}")


def _parse_bc(obj: dict, path: str) -> el.BCKind:
    cls = _pick(BC_TYPES, _need(obj, "type", path), path, "bc type")
    keys = [f.name for f in fields(cls)]  # "data", or none
    _keys(obj, path, "type", *keys)
    return cls(*(_parse_data(_need(obj, k, path), f"{path}.{k}") for k in keys))


def _parse_piece(obj: dict, i: int) -> geo.BoundaryPiece:
    path = f"geometry.pieces[{i}]"
    make, reads = _pick(PIECE_KINDS, _need(obj, "kind", path), path, "piece kind")
    shape = make(*(rd(_need(obj, k, path), f"{path}.{k}") for k, rd in reads.items()))
    _keys(obj, path, "kind", *reads, "bc", "subdomains", "name")
    bc = _parse_bc(_need(obj, "bc", path), f"{path}.bc")
    subs = _need(obj, "subdomains", path)
    if not isinstance(subs, list):
        _fail(f"{path}.subdomains", f"expected a list of integers, got {subs!r}")
    subs = tuple(_int(s, f"{path}.subdomains") for s in subs)
    name = _str(obj.get("name", f"piece{i}"), f"{path}.name")
    return made(path, lambda: geo.BoundaryPiece(shape, bc, subs, name=name))


def load_config(path: str) -> ProblemSpec:
    """Parse and fully validate a problem config; errors name the JSON path."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")

    _keys(doc, "config", "name", "material", "geometry", "networks", "training", "outputs", "reference")
    material = _section(doc, "material")

    piece_objs = _need(_keys(_need(doc, "geometry", "config"), "geometry", "pieces"), "pieces", "geometry")
    if not isinstance(piece_objs, list):
        _fail("geometry.pieces", f"expected a list, got {piece_objs!r}")
    pieces = [_parse_piece(p, i) for i, p in enumerate(piece_objs)]
    domain = made("geometry", lambda: geo.DomainSpec(pieces))

    networks, training, outputs = (_section(doc, key) for key in ("networks", "training", "outputs"))

    ref = doc.get("reference")
    if ref is not None:
        if _keys(ref, "reference", "kind").get("kind") != "ring":
            _fail("reference.kind", f"expected 'ring', got {ref.get('kind')!r}")
        arcs = [(q.shape.radius, q.bc) for q in pieces if isinstance(q.shape, geo.Arc) and q.shape.center == 0]
        radii = [rho for rho, _ in arcs]
        r, R = min(radii, default=0.0), max(radii, default=0.0)  # Lame's ring: its arcs about the origin
        # p is the normal pressure of each radius-R arc that is a pressure traction, 0 of any other; they must agree
        ps = {bc.data.p if isinstance(bc, el.Traction) and isinstance(bc.data, el.NormalPressure) else 0.0
              for rho, bc in arcs if rho == R}
        if len(ps) > 1:
            _fail("reference", f"a ring needs the same normal pressure on every arc of radius R={R}; got {sorted(ps)}")
        p = ps.pop() if ps else 0.0
        if not (0.0 < r < R and p != 0.0):  # the rel-L2 errors divide by the exact fields, all zero without pressure
            _fail("reference", f"a ring needs arcs about the origin of radii 0 < r < R and a nonzero normal "
                  f"pressure p on the outer one; got r={r}, R={R}, p={p}")
        free = (el.Traction(el.ConstantData(0.0, 0.0)), el.Traction(el.NormalPressure(0.0)))
        held = [bc for rho, bc in arcs if rho == r and bc not in free]
        if held:
            _fail("reference", f"a ring needs traction-free inner arcs; one of radius r={r} has {held[0]}")
        ref = {"kind": "ring", "p": p, "r": r, "R": R}

    name = _str(doc.get("name", os.path.splitext(os.path.basename(path))[0]), "name")
    return made("config", lambda: ProblemSpec(material, domain, networks, training, outputs, ref, name))
