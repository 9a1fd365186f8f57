import math

import numpy as np
import pytest

from conftest import ring_problem, seeded
from holoelastic import network
from holoelastic.autodiff import loss_forward
from holoelastic.geometry import sample_boundary
from holoelastic.jets import (
    ActivationKind,
    NonFiniteError,
    act_derivs,
    activate_jets,
    activate_jets_adjoint,
    affine_jets,
    affine_jets_adjoint,
    seed_jets,
)
from holoelastic.network import build_mlp, forward_jets
from holoelastic.rng import Rng
from holoelastic.training import build_pairs, init_pairs

def _jet(f, d1, d2):
    """One jet (value, first, second derivative) as a (3, 1, 1) batch."""
    return np.array([f, d1, d2], dtype=np.complex128).reshape(3, 1, 1)


def _act(kind, jets):
    return activate_jets(kind, jets)[:, 0, 0]


def test_seed_identity_jet():
    assert np.array_equal(seed_jets(np.array([0j])), _jet(0, 1, 0))
    assert np.array_equal(seed_jets(np.array([1 + 2j])), _jet(1 + 2j, 1, 0))


def test_seed_rejects_non_finite():
    with pytest.raises(ValueError):
        seed_jets(np.array([complex("nan")]))
    with pytest.raises(ValueError):
        seed_jets(np.array([complex(np.inf, 0)]))


def test_affine_examples():
    one, zero = np.ones((1, 1), dtype=complex), np.zeros(1, dtype=complex)
    z = seed_jets(np.array([0.3 + 0.7j]))
    assert np.array_equal(affine_jets(z, one, zero), z)
    out = affine_jets(_jet(1, 1, 0), np.array([[2j]]), np.array([1 + 0j]))
    assert np.array_equal(out, _jet(1 + 2j, 2j, 0))
    # two inputs summed: the units of a (3, 1, 2) batch
    ab = np.concatenate([seed_jets(np.array([0.2 + 0j])), seed_jets(np.array([-1j]))], axis=2)
    out = affine_jets(ab, np.ones((1, 2), dtype=complex), zero)
    assert np.array_equal(out, _jet(0.2 - 1j, 2, 0))


def test_exp_jet_at_zero():
    assert np.array_equal(_act(ActivationKind.EXP, _jet(0, 1, 0)), [1, 1, 1])


def test_exp_of_square_at_one():
    # exp(z^2) at z=1 carries jets (1, 2, 2); symbolic: (e, 2e, 6e)
    f, d1, d2 = _act(ActivationKind.EXP, _jet(1, 2, 2))
    e = math.e
    assert abs(f - e) < 1e-14
    assert abs(d1 - 2 * e) < 1e-13
    assert abs(d2 - 6 * e) < 1e-13


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_activation_returns_its_derivative_jet(n, dtype):
    # exp' = exp, so the activated jet is also the jet of f'(y), the one
    # array activate_jets_adjoint reads: (e, e y1, e y1^2 + e y2), e = exp(y0)
    # (written over the jet it is given)
    rng = np.random.default_rng(n)
    jets = (rng.normal(size=(n, 4, 3)) + 1j * rng.normal(size=(n, 4, 3))).astype(dtype)
    given = jets.copy()
    g = activate_jets(ActivationKind.EXP, given)
    assert g is given and g.dtype == dtype
    assert g.tobytes() == _activate_by_copy(jets).tobytes()
    y = np.zeros((3,) + jets.shape[1:], dtype=np.complex128)
    y[:n] = jets
    e = np.exp(y[0])
    want = np.array([e, e * y[1], e * y[1] ** 2 + e * y[2]][:n])
    tol = 1e-6 if dtype is np.complex64 else 1e-15
    assert np.max(np.abs(g - want)) <= tol * np.max(np.abs(want))


def test_activation_overflow_raises():
    # activations check nothing themselves; the branch forward names the layer
    net = build_mlp([1, 1, 1])
    for layer, w in zip(net.layers, (1.0, 1.0, 1e4, 1.0)):
        layer.weights[:] = w
    with pytest.raises(NonFiniteError, match=r"layer 3$"):
        forward_jets(net, seed_jets(np.array([1.0 + 0j])))


@pytest.mark.parametrize("kind", [ActivationKind.EXP])
def test_activation_jets_match_finite_differences(kind):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=100) + 1j * rng.normal(size=100)
    pts *= np.minimum(1.0, 2.0 / np.abs(pts))
    h = 1e-5
    f0 = d1 = d2 = act_derivs(kind, pts)  # exp is its own derivative
    for step in (h, 1j * h):  # steps along both real and imaginary axes
        fp = act_derivs(kind, pts + step)
        fm = act_derivs(kind, pts - step)
        fd1 = (fp - fm) / (2 * step)
        fd2 = (fp - 2 * f0 + fm) / step**2
        assert np.max(np.abs(fd1 - d1) / np.maximum(1.0, np.abs(d1))) < 1e-6
        assert np.max(np.abs(fd2 - d2) / np.maximum(1.0, np.abs(d2))) < 1e-4


EXP_ULPS = 4  # complex64 exp: numpy's float32 exp, cos and sin measure up to 3.2 ulps of |e|


def _ulps(got, ref):
    """|got - ref| in float32 ulps of |ref|, for complex64 got and ref."""
    return np.abs(got.astype(np.complex128) - ref) / np.spacing(np.abs(ref))


@pytest.mark.parametrize("kind", [ActivationKind.EXP])
def test_act_derivs_keeps_single_precision(kind):
    # complex64 in, complex64 out: exp runs on numpy's float32 exp, cos and
    # sin, within EXP_ULPS of |e| of the complex128 result rounded once
    rng = np.random.default_rng(3)
    y = (rng.normal(size=40) + 1j * rng.normal(size=40)).astype(np.complex64)
    got = act_derivs(kind, y)
    assert got.dtype == np.complex64
    want = act_derivs(kind, y.astype(np.complex128))
    assert np.max(_ulps(got, want.astype(np.complex64))) <= EXP_ULPS


def test_single_precision_exp_edges():
    # finite up to Re 88.6 (float32 overflows at e^88.72), 0 from Re -104
    # (half the least float32 denormal is e^-103.97), and within the bound for
    # |Im| > 71476, where numpy's float32 cos and sin leave their SIMD range
    rng = np.random.default_rng(5)
    n = 20_000

    def exp64(re, im):
        return act_derivs(ActivationKind.EXP, (re + 1j * im).astype(np.complex64))

    def within_bound(re, im):
        ref = np.exp((re + 1j * im).astype(np.complex64).astype(np.complex128)).astype(np.complex64)
        got = exp64(re, im)
        return np.isfinite(got).all() and np.max(_ulps(got, ref)) <= EXP_ULPS

    im = rng.uniform(-10, 10, n)
    assert within_bound(np.r_[rng.uniform(-104, 88.6, n - 3), -104, 88.6, 0], im)
    assert not np.isfinite(exp64(np.r_[rng.uniform(88.8, 1e3, n - 2), 88.8, 1e30], im)).any()
    assert (exp64(np.r_[rng.uniform(-1e3, -104, n - 2), -104, -1e30], im) == 0).all()
    big = rng.choice([-1, 1], n) * np.r_[10 ** rng.uniform(np.log10(71477), 38, n - 1), 71477]
    assert within_bound(rng.uniform(-80, 80, n), big)


# the complex128 case keeps its id from before the complex64 one joined
GEMM_CASES = [
    pytest.param(ActivationKind.EXP, np.complex128, id=str(ActivationKind.EXP)),
    pytest.param(ActivationKind.EXP, np.complex64, id=f"{ActivationKind.EXP}-complex64"),
]


@pytest.mark.parametrize("kind, dtype", GEMM_CASES)
def test_act_derivs_bitwise_after_complex_gemm(kind, dtype):
    # act_derivs runs a real matmul before libm to dodge a slowdown after
    # complex GEMMs (the complex64 exp runs no libm and skips it); either
    # must change timing only, never a single bit
    rng = np.random.default_rng(7)
    x = rng.normal(size=(600, 100)) + 1j * rng.normal(size=(600, 100))
    w = 0.02 * (rng.normal(size=(100, 100)) + 1j * rng.normal(size=(100, 100)))
    x, w = x.astype(dtype), w.astype(dtype)
    y = x @ w.T
    got = act_derivs(kind, y)
    y0 = y.copy()
    want = act_derivs(kind, y0) if dtype is np.complex64 else np.exp(y0)  # after no GEMM
    assert got.dtype == dtype and np.isfinite(got).all()
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _activate_by_copy(jets):
    """activate_jets into a new jet, with e^y computed in an array of its own
    and copied in; `jets` is only read."""
    n = jets.shape[0]
    e = act_derivs(ActivationKind.EXP, jets[0])
    out = np.empty_like(jets)
    out[0] = e
    if n > 1:
        np.multiply(e, jets[1], out=out[1])
    if n > 2:
        np.multiply(e, jets[1], out=out[2])
        out[2] *= jets[1]
        out[2] += e * jets[2]
    return out


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("points", [220, 4000])
@pytest.mark.parametrize("channels", [1, 2, 3])
def test_activate_jets_writes_e_y_into_its_output_jet_bit_for_bit(dtype, points, channels):
    # activate_jets has act_derivs write e^y over the value channel of the jet
    # it is given, which it returns as its output; every channel keeps the
    # bits of e^y computed apart and copied into a new jet.  10 units: 220
    # points stay below numpy's 256 KiB temporary-elision size in both
    # dtypes, 4000 points pass it
    rng = np.random.default_rng(points + channels)
    shape = (channels, points, 10)
    jets = (rng.normal(scale=0.5, size=shape) + 1j * rng.normal(scale=0.5, size=shape)).astype(dtype)
    given = jets.copy()
    got = activate_jets(ActivationKind.EXP, given)
    assert got is given and got.dtype == dtype
    assert got[0].tobytes() == act_derivs(ActivationKind.EXP, jets[0]).tobytes()
    assert got.tobytes() == _activate_by_copy(jets).tobytes()


def test_forward_overwrites_no_seed_and_no_cache(monkeypatch):
    # the activation writes over affine_jets' output, which no cache holds:
    # after a ring loss_forward, the seeds and every cache entry keep the
    # bits of a forward whose activation writes a new jet
    problem = ring_problem(seed=2)
    problem.networks.hidden_layers, problem.networks.units = 3, 10
    rng = Rng(2)
    samples = sample_boundary(problem.domain, 64, rng.spawn(1))
    pairs = build_pairs(problem)
    init_pairs(pairs, sample_boundary(problem.domain, 200, rng.spawn(3)).z, 0.5, 3, rng)

    def run():
        seeds = seeded(samples, problem)
        _, rec = loss_forward(pairs, seeds, problem)
        arrays = list(seeds.jets.values())
        for sp in rec.subs.values():
            arrays += sp.phi + sp.psi
        return [a.tobytes() for a in arrays]

    in_place = run()
    monkeypatch.setattr(network, "activate_jets", lambda kind, jets: _activate_by_copy(jets))
    assert in_place == run()


# The adjoints as the conjugated sweep ran them, on a(u) = dL/dRe u + i dL/dIm u
# (a * conj(f'(u)) through each step): references for the dL/du primitives.
def _affine_adjoint_conj_ref(adj, jets, weights):
    n, b, ni = jets.shape
    a2 = adj.reshape(n * b, adj.shape[2])
    gw = a2.T @ np.conj(jets).reshape(n * b, ni)
    w = weights if weights is None or weights.dtype == adj.dtype else weights.astype(adj.dtype)
    da = None if w is None else (a2 @ np.conj(w)).reshape(n, b, ni)
    return gw, adj[0].sum(axis=0), da


# Each product is a np.multiply call, adjoint first: `adj * np.conj(g)` would
# leave the operand order to numpy's temporary elision, which swaps it once
# the conj temporary reaches 256 KiB.
def _activate_adjoint_conj_ref(adj, g):
    n = g.shape[0]
    out = np.empty_like(g)
    out[0] = np.multiply(adj[0], np.conj(g[0]))
    if n > 1:
        out[0] += np.multiply(adj[1], np.conj(g[1]))
        out[1] = np.multiply(adj[1], np.conj(g[0]))
    if n > 2:
        out[0] += np.multiply(adj[2], np.conj(g[2]))
        out[1] += np.multiply(adj[2], np.conj(2.0 * g[1]))
        out[2] = np.multiply(adj[2], np.conj(g[0]))
    return out


def _cnormal(rng, shape, dtype):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(dtype)


def _cache_views(rng, channels, points, units, dtype):
    """A (channels, points, units) jet, contiguous and as the test-row slice
    x[:n, :b] of a 3-channel cache that holds 30 test rows after the points."""
    cache = _cnormal(rng, (3, points + 30, units), dtype)
    return {"contiguous": _cnormal(rng, (channels, points, units), dtype), "test-row slice": cache[:channels, :points]}


# both sides of numpy's 256 KiB temporary-elision size, so a `*` in the
# primitive or the reference would show: 220 x 10 stays below it in both
# dtypes, 4000 x 10 and 4000 x 100 pass it, 220 x 100 in complex128 only
ADJOINT_SHAPES = [(220, 10), (220, 100), (4000, 10), (4000, 100)]


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("points, units", ADJOINT_SHAPES)
@pytest.mark.parametrize("channels", [1, 2, 3])
def test_activate_jets_adjoint_is_the_conjugated_sweep_bit_for_bit(dtype, points, units, channels):
    # fed conj(a), the dL/du adjoint returns the conjugate of the conjugated
    # sweep's a * conj(g) products, bit for bit, at every shape
    rng = np.random.default_rng(points + units + channels)
    for what, g in _cache_views(rng, channels, points, units, dtype).items():
        adj = _cnormal(rng, (channels, points, units), dtype)
        want = _activate_adjoint_conj_ref(adj, g)
        got = activate_jets_adjoint(np.conj(adj), g)
        assert got.dtype == dtype
        assert np.conj(got).tobytes() == want.tobytes(), what


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("units", [10, 100])
@pytest.mark.parametrize("channels", [1, 2, 3])
def test_activate_jets_adjoint_rows_do_not_depend_on_the_batch_size(dtype, units, channels):
    # the first 100 rows of a 4000-row batch get the bits that those rows get
    # alone: the batch's channels pass numpy's 256 KiB temporary-elision
    # size, the 100 rows' stay below it
    rng = np.random.default_rng(units + channels)
    g, adj = (_cnormal(rng, (channels, 4000, units), dtype) for _ in range(2))
    alone = activate_jets_adjoint(adj[:, :100].copy(), g[:, :100].copy())
    assert activate_jets_adjoint(adj, g)[:, :100].tobytes() == alone.tobytes()


def _activate_adjoint_whole(adj, g):
    """activate_jets_adjoint on the whole batch at once, through one scratch
    channel of the batch's size: the reference for the row-blocked sweep."""
    n = g.shape[0]
    s = np.empty_like(adj[0])
    np.multiply(adj[0], g[0], adj[0])
    for k in range(1, n):
        adj[0] += np.multiply(adj[k], g[k], s)
    if n > 1:
        np.multiply(adj[1], g[0], adj[1])
    if n > 2:
        adj[1] += np.multiply(adj[2], np.multiply(2.0, g[1], s), s)
        np.multiply(adj[2], g[0], adj[2])
    return adj


# complex128 rows of 100 units take 163 to a 256 KiB block, complex64 ones
# 327, so 1000 rows end in a partial block (22 and 19 rows); 10-unit rows
# take 1638 and 3276, so 4000 rows end in one too, and 220 rows are one block
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("points, units", [(220, 10), (1000, 100), (4000, 10)])
@pytest.mark.parametrize("channels", [1, 2, 3])
def test_activate_jets_adjoint_in_row_blocks_is_the_whole_array_sweep(dtype, points, units, channels):
    # written over the adjoint it is given and returned, with the bits of the
    # whole-array sweep, for a contiguous g and for a test-row slice of a cache
    rng = np.random.default_rng(points + units + channels)
    for what, g in _cache_views(rng, channels, points, units, dtype).items():
        adj = _cnormal(rng, (channels, points, units), dtype)
        want = _activate_adjoint_whole(adj.copy(), g)
        got = activate_jets_adjoint(adj, g)
        assert got is adj, what
        assert got.tobytes() == want.tobytes(), what


def _adjoints_against_whole(adj, g, w):
    """Both adjoint primitives on a square layer, each against its whole-array bits."""
    want = _activate_adjoint_whole(adj.copy(), g)
    assert activate_jets_adjoint(adj.copy(), g).tobytes() == want.tobytes()
    want = adj.reshape(-1, adj.shape[2]) @ w
    assert affine_jets_adjoint(adj.copy(), g, w)[2].tobytes() == want.tobytes()


@pytest.mark.parametrize("points", [10, 11])
def test_adjoints_keep_the_whole_array_bits_when_a_row_exceeds_the_block(monkeypatch, points):
    # a 1 KiB block holds no 100-unit complex128 row (1600 bytes): the
    # activation adjoint then works one row at a time and the affine GEMM two
    # (3 x 11 rows end in a block of three), each with the whole-array bits
    monkeypatch.setattr("holoelastic.jets.SWEEP_BLOCK_BYTES", 1024)
    rng = np.random.default_rng(points)
    adj, g = (_cnormal(rng, (3, points, 100), np.complex128) for _ in range(2))
    _adjoints_against_whole(adj, g, _cnormal(rng, (100, 100), np.complex128))


def test_affine_jets_adjoint_joins_a_last_lone_row_to_the_block_before_it():
    # 3 x 109 rows of 100 complex128 units are two blocks of 163 rows and one
    # row over, which numpy's one-row product (gemv) would give other bits
    rng = np.random.default_rng(109)
    adj, g = (_cnormal(rng, (3, 109, 100), np.complex128) for _ in range(2))
    _adjoints_against_whole(adj, g, _cnormal(rng, (100, 100), np.complex128))


def _adjoint_layouts(adj):
    """The adjoint `adj` as an array of its own and as a strided view: the
    first rows of a longer buffer, which reshapes to rows in place only with
    one channel."""
    buf = np.empty((adj.shape[0], adj.shape[1] + 30, adj.shape[2]), adj.dtype)
    buf[:, : adj.shape[1]] = adj
    return {"owned": adj.copy(), "strided": buf[:, : adj.shape[1]]}


# Square adjoints in blocks of SWEEP_BLOCK_BYTES: the 100-unit ones span
# several, with row counts (660, 1320, ...) that are no multiple of the
# block's rows (163 in complex128, 327 in complex64); 2 x 256 x 128 in
# complex128 is exactly four blocks of 128 rows, and the 10-unit shapes below
# 1638 rows (3276 in complex64) fit in one
@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("points, units", ADJOINT_SHAPES + [(440, 100), (256, 128)])
@pytest.mark.parametrize("channels", [1, 2, 3])
def test_affine_jets_adjoint_is_the_conjugated_sweep_bit_for_bit(dtype, points, units, channels):
    # a hidden layer (units -> units), the readout (units -> 1) and the first
    # layer (1 -> units, weights None), on contiguous and test-row-sliced
    # input jets, which stay untouched; the complex128 weights are cast to the
    # jets' dtype.  The input adjoint has the bits of the whole-array
    # a2 @ W and is written, in row blocks, over a square-layer adjoint that
    # reshapes to rows in place; the readout and any other layout get a new
    # array
    rng = np.random.default_rng(points + units + channels)
    layers = {"hidden": (units, units), "readout": (units, 1), "first": (1, units)}
    for name, (ni, no) in layers.items():
        for what, x in _cache_views(rng, channels, points, ni, dtype).items():
            adj = _cnormal(rng, (channels, points, no), dtype)
            w = None if name == "first" else _cnormal(rng, (no, ni), np.complex128)
            want = _affine_adjoint_conj_ref(adj, x, w)
            x_bytes = x.tobytes()
            for layout, a in _adjoint_layouts(np.conj(adj)).items():
                whole = None if w is None else a.reshape(-1, no) @ w.astype(dtype)
                got = affine_jets_adjoint(a, x, w)
                assert x.tobytes() == x_bytes, (name, what, layout)
                for k, (gv, wv) in enumerate(zip(got, want)):
                    if wv is None:
                        assert gv is None, (name, what)
                    else:
                        assert gv.dtype == dtype and np.conj(gv).tobytes() == wv.tobytes(), (name, what, layout, k)
                if w is not None:
                    assert got[2].tobytes() == whole.tobytes(), (name, what, layout)
                    rows_in_place = np.shares_memory(a.reshape(-1, no), a)  # a one-channel view does
                    blocked = rows_in_place and ni == no
                    assert np.shares_memory(got[2], a) == blocked, (name, what, layout)
