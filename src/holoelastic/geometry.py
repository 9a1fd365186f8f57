"""Boundary geometry: lines and circular arcs, sampling, normals, containment.

Pieces are parameterized by t in [0, 1], traversed either way.  The outward
normal of a piece is its unit tangent turned +90 or -90 deg, whichever points
out of its first subdomain, read off one DomainSpec.owner map (point ->
subdomain) of both sides of every midpoint.  2D vectors are complex numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

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


@dataclass
class BoundaryPiece:
    shape: Shape
    bc: BCKind
    subdomains: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if piece_length(self) <= 0.0:  # also an arc of radius <= 0
            raise ValueError(f"piece {self.name!r} has non-positive length")
        # an interface joins sides a and b, subdomains[0] and [1]; other pieces bound one subdomain
        subs = self.subdomains
        if len(set(subs)) != len(subs) or len(subs) != 1 + self.is_interface or min(subs, default=0) < 0:
            raise ValueError(f"piece {self.name!r}: an interface needs two distinct subdomains, any other piece one, "
                             f"each a non-negative id; got {list(subs)}")

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
        return np.full(t.shape, (s.p1 - s.p0) / abs(s.p1 - s.p0))
    theta = s.theta0 + t * (s.theta1 - s.theta0)
    sign = 1.0 if s.theta1 > s.theta0 else -1.0
    return sign * 1j * np.exp(1j * theta)


# --- domain spec and containment ----------------------------------------------


class PieceError(ValueError):
    """A ValueError about DomainSpec.pieces[index]."""

    def __init__(self, msg: str, index: int):
        super().__init__(msg)
        self.index = index


@dataclass
class DomainSpec:
    pieces: list[BoundaryPiece]
    n_subdomains: int = field(init=False)  # 1 + the largest id on any piece
    turns: list[complex] = field(init=False, repr=False, compare=False)  # outward normal / tangent, +-1j

    def __post_init__(self):
        self.n_subdomains = 1 + max((s for p in self.pieces for s in p.subdomains), default=-1)
        bare = set(range(self.n_subdomains)).difference(*(p.subdomains for p in self.pieces))
        if bare:
            raise ValueError(f"subdomain {min(bare)} has no boundary piece")
        if self.outer_length() <= 0.0:
            raise ValueError("total outer boundary length must be positive")
        at = np.array([piece_point(p, [0.0, 1.0, 0.5]) for p in self.pieces])  # each piece's ends and midpoint
        tol = 1e-9 * max(piece_length(p) for p in self.pieces)
        for s in range(self.n_subdomains):  # region_contains needs each subdomain's pieces to close into loops
            mine = [i for i, p in enumerate(self.pieces) if s in p.subdomains]
            ends = at[mine, :2].ravel()
            alone = (abs(ends[:, None] - ends) <= tol).sum(axis=1) < 2  # an end meets itself and one more
            if alone.any():
                raise ValueError(f"subdomain {s} is open: piece {self.pieces[mine[alone.argmax() // 2]].name!r} "
                                 f"meets no other piece at {complex(ends[alone.argmax()]):.6g}")
        # a normal points to the side of its midpoint, 1e-6 of its length off, outside its first subdomain
        step = np.array([1e-6 * piece_length(p) * piece_tangent(p, 0.5) for p in self.pieces])
        pts = (at[:, 2] + step * np.array([[1j], [-1j]])).ravel()  # left of each traversal, then right
        own = self.owner(np.sort(pts.real), pts.imag)[np.arange(pts.size), pts.real.argsort().argsort()]  # x_i's column
        left, right = own.reshape(2, -1) == [p.subdomains[0] for p in self.pieces]
        for i, p in enumerate(self.pieces):
            if left[i] == right[i]:
                where = "both sides of its midpoint lie" if left[i] else "neither side of its midpoint lies"
                raise PieceError(f"piece {p.name!r}: {where} inside subdomain {p.subdomains[0]}, so its outward "
                                 "normal is undecidable (is the piece listed twice?)", i)
        self.turns = [-1j if side else 1j for side in left]

    def outward_normal(self, i: int, t) -> np.ndarray:
        """Unit outward normal of pieces[i] at parameter t."""
        return self.turns[i] * piece_tangent(self.pieces[i], t)

    def outer_length(self) -> float:
        return math.fsum(piece_length(p) for p in self.pieces if not p.is_interface)

    def subdomain_pieces(self, s: int) -> list[BoundaryPiece]:
        """The pieces that bound subdomain s, its interfaces included."""
        return [p for p in self.pieces if s in p.subdomains]

    def owner(self, xs, ys) -> np.ndarray:
        """Map (len(ys), len(xs)) of grid nodes (x, y), xs ascending, to the lowest subdomain holding each, or -1."""
        own = np.full((np.size(ys), np.size(xs)), -1)
        for s in reversed(range(self.n_subdomains)):  # one region_contains call per subdomain
            own[region_contains(self.subdomain_pieces(s), xs, ys)] = s
        return own


def region_contains(pieces: Sequence[BoundaryPiece], xs, ys) -> np.ndarray:
    """(len(ys), len(xs)) mask of the grid nodes (x, y), xs ascending, inside
    the region that the closed loops of `pieces` enclose: a node on a piece,
    or one whose ray to the right crosses the pieces an odd number of times.

    The nodes of a grid row share their y, so the pieces are cut into parts
    that each meet a row at most once: lines, and arcs cut at their
    y-extremes; horizontal lines hold a row between their ends.  A part
    crosses the rows in [ylo, yhi), so a vertex shared by two parts counts once.
    """
    X, Y = np.atleast_1d(np.asarray(xs, float)), np.atleast_1d(np.asarray(ys, float))[:, None]
    ends = np.array([(p.shape.p0, p.shape.p1) for p in pieces if isinstance(p.shape, Line)], complex).reshape(-1, 2)
    flat = ends[:, 0].imag == ends[:, 1].imag
    (x0, x1), (y0, y1) = ends[~flat].real.T, ends[~flat].imag.T
    arcs = [part for p in pieces if isinstance(p.shape, Arc) for part in _arc_parts(p.shape)]
    cx, cy, r, sign, ylo, yhi = np.array(arcs).reshape(-1, 6).T
    lo, hi = np.concatenate([np.minimum(y0, y1), ylo]), np.concatenate([np.maximum(y0, y1), yhi])
    meet = (lo <= Y) & (Y <= hi)  # (rows, parts)
    xm = np.where(meet, np.concatenate([
        x0 + (Y - y0) * ((x1 - x0) / (y1 - y0)), cx + sign * np.sqrt(np.maximum(r * r - (Y - cy) ** 2, 0.0))
    ], axis=1), np.nan)  # where each part meets each row
    inside = np.logical_xor.reduce(np.where(Y < hi, xm, np.nan)[:, :, None] > X, axis=1)
    # a node on a part is one of the two around the meeting point: test those exactly
    j = np.searchsorted(X, xm)
    near = np.clip(np.stack([j - 1, j]), 0, X.size - 1)
    xn, n = X[near], len(x0)
    on = meet & np.concatenate([
        (x1 - x0) * (Y - y0) == (y1 - y0) * (xn[..., :n] - x0),
        (np.hypot(xn[..., n:] - cx, Y - cy) == r) & (sign * (xn[..., n:] - cx) >= 0.0),
    ], axis=2)
    inside[np.nonzero(on)[1], near[on]] = True
    (hx0, hx1), hy = ends[flat].real.T[:, :, None, None], ends[flat, 0].imag[:, None, None]
    return inside | ((Y == hy) & (np.minimum(hx0, hx1) <= X) & (X <= np.maximum(hx0, hx1))).any(axis=0)


def _arc_parts(a: Arc) -> list[tuple[float, ...]]:
    """The arc cut at theta = (k + 1/2) pi into y-monotone parts
    (cx, cy, r, sign, ylo, yhi); sign is +1 right of the center, -1 left."""
    lo, hi = sorted((a.theta0, a.theta1))
    cuts = [lo, *(math.pi * np.arange(math.floor(lo / math.pi - 0.5) + 1.5, hi / math.pi)), hi]
    # sin(k pi) is 0 exactly: an arc that ends on its center's horizontal axis ends on it, as the next piece does
    ys = [a.center.imag + a.radius * (v if abs(v := math.sin(t)) > 1e-15 else 0.0) for t in cuts]
    return [(a.center.real, a.center.imag, a.radius, math.copysign(1.0, math.cos((t0 + t1) / 2)), *sorted(yy))
            for t0, t1, *yy in zip(cuts, cuts[1:], ys, ys[1:])]


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
        out.t[rows], out.z[rows], out.normal[rows] = ts, piece_point(piece, ts), spec.outward_normal(idx, ts)
        out.piece[rows] = idx
        start += cnt
    return out
