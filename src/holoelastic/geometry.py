"""Boundary geometry: lines and circular arcs, sampling, outward normals.

Pieces are parameterized by t in [0, 1].  The outward normal of a piece is
the unit tangent rotated by -90 deg (side RIGHT) or +90 deg (side LEFT); the
side is stored explicitly per piece because multiply-connected domains (holes)
make global orientation inference error-prone.  2D vectors are complex
numbers (nx + i*ny).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .elasticity import BCKind, Interface
from .rng import Rng


@dataclass(frozen=True)
class Line:
    p0: complex
    p1: complex


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    theta0: float
    theta1: float


Shape = Union[Line, Arc]


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass
class BoundaryPiece:
    shape: Shape
    bc: BCKind
    side: Side
    subdomains: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if piece_length(self) <= 0.0:  # also an arc of radius <= 0
            raise ValueError(f"piece {self.name!r} has non-positive length")
        # an interface joins sides a and b, subdomains[0] and [1]; other pieces bound one subdomain
        subs = self.subdomains
        if len(set(subs)) != len(subs) or len(subs) != 1 + self.is_interface:
            raise ValueError(f"piece {self.name!r}: an interface needs two distinct subdomains, any other piece one, "
                             f"got {list(subs)}")

    @property
    def is_interface(self) -> bool:
        return isinstance(self.bc, Interface)


def piece_length(p: BoundaryPiece) -> float:
    s = p.shape
    if isinstance(s, Line):
        return abs(s.p1 - s.p0)
    return s.radius * abs(s.theta1 - s.theta0)


def piece_point(p: BoundaryPiece, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    s = p.shape
    if isinstance(s, Line):
        return s.p0 + t * (s.p1 - s.p0)
    theta = s.theta0 + t * (s.theta1 - s.theta0)
    return s.center + s.radius * np.exp(1j * theta)


def piece_tangent(p: BoundaryPiece, t) -> np.ndarray:
    """Unit tangent in the traversal direction."""
    t = np.asarray(t, dtype=float)
    s = p.shape
    if isinstance(s, Line):
        d = s.p1 - s.p0
        return np.broadcast_to(d / abs(d), t.shape).copy() if t.shape else d / abs(d)
    theta = s.theta0 + t * (s.theta1 - s.theta0)
    sign = 1.0 if s.theta1 > s.theta0 else -1.0
    return sign * 1j * np.exp(1j * theta)


def outward_normal(p: BoundaryPiece, t) -> np.ndarray:
    """Unit outward normal at parameter t, per the piece's side convention."""
    tan = piece_tangent(p, t)
    return 1j * tan if p.side is Side.LEFT else -1j * tan


# --- regions (analytic containment for field grids) -------------------------


@dataclass(frozen=True)
class Patch:
    """Intersection of analytic primitives; a Region is a union of patches."""

    rect: Optional[tuple[float, float, float, float]] = None  # xmin, xmax, ymin, ymax
    disks_in: tuple[tuple[complex, float], ...] = ()
    disks_out: tuple[tuple[complex, float], ...] = ()
    halfplanes: tuple[tuple[float, float, float], ...] = ()  # a*x + b*y >= c


@dataclass(frozen=True)
class Region:
    patches: tuple[Patch, ...]


def region_contains(region: Region, x, y) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    inside = np.zeros(np.broadcast(x, y).shape, dtype=bool)
    for p in region.patches:
        ok = np.ones_like(inside)
        if p.rect is not None:
            x0, x1, y0, y1 = p.rect
            ok &= (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
        for c, r in p.disks_in:
            ok &= np.hypot(x - c.real, y - c.imag) <= r
        for c, r in p.disks_out:
            ok &= np.hypot(x - c.real, y - c.imag) >= r
        for a, b, cc in p.halfplanes:
            ok &= a * x + b * y >= cc
        inside |= ok
    return inside


# --- domain spec and sampling ------------------------------------------------


@dataclass
class DomainSpec:
    pieces: list[BoundaryPiece]
    n_subdomains: int = 1
    regions: Optional[list[Region]] = None  # one per subdomain, used for grids

    def __post_init__(self):
        for p in self.pieces:
            for s in p.subdomains:
                if not (0 <= s < self.n_subdomains):
                    raise ValueError(f"piece {p.name!r} references subdomain {s}")
        bare = set(range(self.n_subdomains)).difference(*(p.subdomains for p in self.pieces))
        if bare:
            raise ValueError(f"subdomain {min(bare)} has no boundary piece")
        if self.outer_length() <= 0.0:
            raise ValueError("total outer boundary length must be positive")
        if self.regions is not None and len(self.regions) != self.n_subdomains:
            raise ValueError("need one region per subdomain")

    def outer_length(self) -> float:
        return math.fsum(piece_length(p) for p in self.pieces if not p.is_interface)


def allocate_counts(lengths: Sequence[float], n: int) -> list[int]:
    """Largest-remainder rounding of the length-proportional allocation.

    With at least one sample per piece available (n >= len(lengths)), a
    piece of positive length never gets none: its sample comes from the
    piece rounded up the most among those holding two or more, since an
    empty piece would drop its boundary condition from the loss.
    """
    total = math.fsum(lengths)
    quotas = [n * L / total for L in lengths]
    counts = [int(math.floor(q)) for q in quotas]
    short = n - sum(counts)
    order = sorted(range(len(lengths)), key=lambda i: (counts[i] - quotas[i], i))
    for i in order[:short]:
        counts[i] += 1
    if n >= len(lengths):
        for i, L in enumerate(lengths):
            if counts[i] == 0 and L > 0.0:
                donors = [j for j in range(len(lengths)) if counts[j] >= 2]
                j = max(donors, key=lambda j: (counts[j] - quotas[j], -j))
                counts[j] -= 1
                counts[i] = 1
    return counts


def sample_boundary(spec: DomainSpec, n: int, rng: Rng) -> np.recarray:
    """Draw n boundary points, uniformly in arc length across all pieces.

    Per-piece counts follow largest-remainder rounding of the proportional
    allocation; placement within each piece is uniform in t.  The batch is
    one record array with fields z, normal (unit outward), piece (index into
    spec.pieces) and t, piece by piece with t sorted within each piece.
    """
    if n < len(spec.pieces):
        raise ValueError(f"need at least {len(spec.pieces)} samples, got {n}")
    counts = allocate_counts([piece_length(p) for p in spec.pieces], n)
    out = np.recarray(n, dtype=[("z", complex), ("normal", complex), ("piece", np.int64), ("t", float)])
    start = 0
    for idx, (piece, cnt) in enumerate(zip(spec.pieces, counts)):
        rows = slice(start, start + cnt)
        ts = np.sort(rng.uniform(cnt))
        out.t[rows], out.z[rows], out.normal[rows] = ts, piece_point(piece, ts), outward_normal(piece, ts)
        out.piece[rows] = idx
        start += cnt
    return out
