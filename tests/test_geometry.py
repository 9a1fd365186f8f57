import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import config_path, ring_quadrant_domain
from holoelastic.elasticity import ConstantData, Interface, Traction
from holoelastic.geometry import (
    Arc,
    BoundaryPiece,
    DomainSpec,
    Line,
    PieceError,
    allocate_counts,
    piece_length,
    piece_point,
    piece_tangent,
    region_contains,
    sample_boundary,
)
from holoelastic.problem import load_config
from holoelastic.rng import Rng

BC = Traction(ConstantData(0, 0))


def test_line_length():
    p = BoundaryPiece(Line(0, 3 + 4j), BC, (0,))
    assert piece_length(p) == 5.0


def test_arc_length():
    p = BoundaryPiece(Arc(0, 2.0, 0.0, np.pi / 2), BC, (0,))
    assert abs(piece_length(p) - np.pi) < 1e-15


def test_degenerate_arc_rejected():
    with pytest.raises(ValueError):
        BoundaryPiece(Arc(0, 2.0, 1.0, 1.0), BC, (0,))
    with pytest.raises(ValueError):
        BoundaryPiece(Line(1j, 1j), BC, (0,))


def test_interface_piece_needs_two_distinct_subdomains():
    # an interface piece names sides a and b; every other piece bounds one subdomain
    for bc, subs in ((Interface(), (2, 2)), (Interface(), (1,)), (Interface(), (0, 1, 2)), (BC, (0, 1)), (BC, ())):
        with pytest.raises(ValueError, match="an interface needs two distinct subdomains, any other piece one"):
            BoundaryPiece(Line(0, 1), bc, subs)
    assert BoundaryPiece(Line(0, 1), Interface(), (2, 0)).subdomains == (2, 0)


def _square(clockwise: bool) -> list:
    corners = [-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j]
    return _loop(*(corners[::-1] if clockwise else corners))


def test_line_normal_sides():
    # a square traversed either way: each edge's normal leaves the square
    want = {-1j: -1j, 1 + 0j: 1 + 0j, 1j: 1j, -1 + 0j: -1 + 0j}  # midpoint: outward normal
    for clockwise in (False, True):
        dom = DomainSpec(_square(clockwise))
        got = {complex(piece_point(p, 0.5)): complex(dom.outward_normal(i, 0.5)) for i, p in enumerate(dom.pieces)}
        assert got == want


def test_arc_normal_outward_and_hole():
    # a disk of two half circles, and a hole of two in the square, each traversed either way:
    # a disk's normal is radial, a hole's points toward the hole's center
    t = np.linspace(0.0, 1.0, 9)
    center = 0.25 + 0.25j
    for thetas in ((0.0, np.pi, 2 * np.pi), (2 * np.pi, np.pi, 0.0)):
        arcs = [BoundaryPiece(Arc(center, 0.5, a, b), BC, (0,)) for a, b in zip(thetas, thetas[1:])]
        for dom, arc_ids, sign in ((DomainSpec(arcs), (0, 1), 1.0), (DomainSpec(_square(False) + arcs), (4, 5), -1.0)):
            for i in arc_ids:
                radial = (piece_point(dom.pieces[i], t) - center) / 0.5
                assert np.abs(dom.outward_normal(i, t) - sign * radial).max() < 1e-12


@pytest.mark.parametrize("subs, normal", [((0, 1), 1.0), ((1, 0), -1.0)])
@pytest.mark.parametrize("ends", [(-1j, 1j), (1j, -1j)], ids=["up", "down"])
def test_interface_normal_points_out_of_side_a(subs, normal, ends):
    # two unit squares side by side, 0 left of the interface x = 0, 1 right of it
    left = [BoundaryPiece(Line(a, b), BC, (0,)) for a, b in ((-1j, -1 - 1j), (-1 - 1j, -1 + 1j), (-1 + 1j, 1j))]
    right = [BoundaryPiece(Line(a, b), BC, (1,)) for a, b in ((1j, 1 + 1j), (1 + 1j, 1 - 1j), (1 - 1j, -1j))]
    dom = DomainSpec(left + right + [BoundaryPiece(Line(*ends), Interface(), subs)])
    assert dom.n_subdomains == 2
    assert abs(dom.outward_normal(6, 0.3) - normal) < 1e-15


@pytest.mark.parametrize(
    "twins, where",
    [
        ([(-1 + 1j, -1 - 1j)], "both sides of its midpoint lie"),  # the square's left edge listed twice
        ([(2 + 0j, 3 + 0j), (3 + 0j, 2 + 0j)], "neither side of its midpoint lies"),  # a slit outside, there and back
    ],
    ids=["edge_twice", "slit_outside"],
)
def test_undecidable_normal_names_the_piece(twins, where):
    pieces = [BoundaryPiece(Line(*ends), BC, (0,), "twin") for ends in twins] + _square(False)
    with pytest.raises(PieceError, match=f"^piece 'twin': {where} inside subdomain 0, so its outward normal is ") as e:
        DomainSpec(pieces)
    assert e.value.index == 0


def test_subdomain_count_is_one_past_the_largest_id():
    dom = ring_quadrant_domain()
    assert dom.n_subdomains == 1
    with pytest.raises(ValueError, match="^subdomain 0 has no boundary piece$"):
        DomainSpec([BoundaryPiece(p.shape, p.bc, (1,)) for p in dom.pieces])
    with pytest.raises(ValueError, match="each a non-negative id; got \\[-1\\]$"):
        BoundaryPiece(Line(0, 1), BC, (-1,))


def test_ring_quadrant_perimeter():
    dom = ring_quadrant_domain()
    want = np.pi * 2.0 / 2 + np.pi * 0.5 / 2 + 2 * 1.5
    assert abs(dom.outer_length() - want) < 1e-9


def _loop(*corners):
    return [BoundaryPiece(Line(a, b), BC, (0,)) for a, b in zip(corners, corners[1:] + corners[:1])]


def _arcs(r, *thetas):
    return [BoundaryPiece(Arc(0j, r, a, b), BC, (0,)) for a, b in zip(thetas, thetas[1:])]


# nodes k/8 lie exactly on every edge, vertex and circle below: hypot(3/8, 1/2) = 5/8, hypot(3/4, 1) = 5/4
@pytest.mark.parametrize(
    "pieces, closed",
    [
        (_loop(-2 - 2j, 2 - 2j, 2 + 2j, -2 + 2j) + _arcs(0.625, 0.0, 2 * np.pi),  # a hole made of one full circle
         lambda x, y: (abs(x) <= 2) & (abs(y) <= 2) & (np.hypot(x, y) >= 0.625)),
        (_arcs(1.25, 0.0, np.pi, 2 * np.pi),  # two half circles, each through a y-extreme
         lambda x, y: np.hypot(x, y) <= 1.25),
        (_arcs(1.25, np.pi, 0.0, -np.pi) + _arcs(0.625, 2 * np.pi, 0.0),  # clockwise arcs: an annulus
         lambda x, y: (np.hypot(x, y) <= 1.25) & (np.hypot(x, y) >= 0.625)),
        (_loop(0j, 2 + 0j, 2 + 1j, 1 + 1j, 1 + 2j, 2j),  # an L: horizontal edges and a reflex vertex
         lambda x, y: (x >= 0) & (y >= 0) & (((x <= 2) & (y <= 1)) | ((x <= 1) & (y <= 2)))),
        (_loop(-1 + 0j, -1j, 1 + 0j, 1j),  # a diamond: vertices at its y-extremes and x-extremes
         lambda x, y: abs(x) + abs(y) <= 1),
    ],
    ids=["full_circle_hole", "half_circles", "clockwise_annulus", "l_shape", "diamond"],
)
def test_region_contains_is_the_closed_region(pieces, closed):
    DomainSpec(pieces)  # the pieces close
    xs = np.arange(-20, 21) / 8.0
    X, Y = np.meshgrid(xs, xs)
    want = closed(X, Y)
    assert want.any() and not want.all()
    assert np.array_equal(region_contains(pieces, xs, xs), want)
    # every row alone, and the columns in any subset, give the same nodes
    for i, y in enumerate(xs):
        assert np.array_equal(region_contains(pieces, xs[::3], [y])[0], want[i, ::3]), y


def test_allocate_counts_exact_proportions():
    assert allocate_counts([1.0, 3.0], 200) == [50, 150]


def test_allocate_counts_largest_remainder_within_one():
    lengths = [0.7, 1.3, 2.9, 0.4]
    n = 37
    counts = allocate_counts(lengths, n)
    assert sum(counts) == n
    total = sum(lengths)
    for c, L in zip(counts, lengths):
        assert abs(c - n * L / total) < 1.0


def test_allocate_counts_gives_every_piece_a_sample():
    # rail_section's 40 test points over 14 pieces: web_right's quota is 0.33
    lengths = [piece_length(p) for p in load_config(config_path("rail_section")).domain.pieces]
    n = 40
    counts = allocate_counts(lengths, n)
    assert sum(counts) == n
    total = sum(lengths)
    for c, L in zip(counts, lengths):
        assert c >= 1
        assert abs(c - n * L / total) < 1.0


def test_sample_counts_proportional_on_ring():
    dom = ring_quadrant_domain()
    samples = sample_boundary(dom, 200, Rng(0))
    counts = np.bincount([s.piece for s in samples], minlength=4)
    lengths = [piece_length(p) for p in dom.pieces]
    total = sum(lengths)
    for c, L in zip(counts, lengths):
        assert abs(c - 200 * L / total) < 1.0


def test_samples_lie_on_their_pieces():
    dom = ring_quadrant_domain()
    samples = sample_boundary(dom, 50, Rng(1))
    for s in samples:
        piece = dom.pieces[s.piece]
        assert abs(s.z - piece_point(piece, s.t)) < 1e-12
        assert abs(abs(s.normal) - 1.0) < 1e-12
        tangent = piece_tangent(piece, s.t)
        dot = s.normal.real * tangent.real + s.normal.imag * tangent.imag
        assert abs(dot) < 1e-12


@pytest.mark.parametrize("name", ["ring_quadrant", "rail_section", "dd_plate_hole"])
def test_sample_columns_are_piece_functions_of_t(name):
    # one record array, piece by piece with t sorted; z and normal are the
    # piece's own point and outward normal at the sampled t
    dom = load_config(config_path(name)).domain
    samples = sample_boundary(dom, 300, Rng(5))
    assert np.all(np.diff(samples.piece) >= 0)
    for i, piece in enumerate(dom.pieces):
        s = samples[samples.piece == i]
        assert s.size > 0 and np.all(np.diff(s.t) >= 0) and np.all((s.t >= 0.0) & (s.t < 1.0))
        assert np.array_equal(s.z, piece_point(piece, s.t))
        assert np.array_equal(s.normal, dom.outward_normal(i, s.t))


def test_arc_samples_on_circle():
    dom = ring_quadrant_domain()
    samples = [s for s in sample_boundary(dom, 40, Rng(2)) if s.piece == 0]
    for s in samples:
        assert abs(abs(s.z) - 2.0) < 1e-12


def test_sampling_reproducible():
    dom = ring_quadrant_domain()
    a = sample_boundary(dom, 64, Rng(11))
    b = sample_boundary(dom, 64, Rng(11))
    assert all(x.z == y.z and x.t == y.t for x, y in zip(a, b))


def test_sample_requires_enough_points():
    dom = ring_quadrant_domain()
    with pytest.raises(ValueError):
        sample_boundary(dom, 3, Rng(0))


@given(st.integers(0, 500), st.integers(4, 400))
@settings(max_examples=30, deadline=None)
def test_sampling_counts_always_within_one(seed, n):
    dom = ring_quadrant_domain()
    samples = sample_boundary(dom, n, Rng(seed))
    assert len(samples) == n
    counts = np.bincount([s.piece for s in samples], minlength=4)
    lengths = [piece_length(p) for p in dom.pieces]
    total = sum(lengths)
    for c, L in zip(counts, lengths):
        assert abs(c - n * L / total) < 1.0
