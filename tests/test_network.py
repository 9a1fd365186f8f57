import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_NAMES, checkpoint_json, ring_quadrant_domain, with_training
from holoelastic import network
from holoelastic.geometry import sample_boundary
from holoelastic.jets import ActivationKind, NonFiniteError, activate_jets, affine_jets, seed_jets
from holoelastic.network import (
    BETA1,
    BETA2,
    BETA3,
    BranchPair,
    build_mlp,
    checkpoint_load,
    checkpoint_save,
    flatten_params,
    forward_jets,
    init_weights,
    mlp_forward,
    param_views,
    write_params,
)
from holoelastic.rng import Rng
from holoelastic.training import train


def _ring_probe(n=400, seed=0):
    return sample_boundary(ring_quadrant_domain(), n, Rng(seed)).z.copy()


def _init_pair(hidden, seed=0, beta=0.5, m_e=3):
    pair = BranchPair(build_mlp(hidden), build_mlp(hidden))
    probe, rng = _ring_probe(), Rng(seed)
    init_weights(pair.phi, probe, beta, m_e, rng.spawn(0))
    init_weights(pair.psi, probe, beta, m_e, rng.spawn(1))
    return pair


def test_param_count_matches_reference_protocol():
    # two hidden layers of 10: 141 complex parameters per branch
    net = build_mlp([10, 10])
    assert sum(l.weights.size + l.bias.size for l in net.layers) == 141
    pair = BranchPair(net, build_mlp([10, 10]))
    assert flatten_params([pair]).size == 2 * 2 * 141


def test_zero_net_forward_is_zero():
    pair = BranchPair(build_mlp([10, 10]), build_mlp([10, 10]))
    jp, jq = mlp_forward(pair, seed_jets(0.3 + 0.4j))
    # (phi, phi', phi'') and (psi, psi')
    assert jp.shape == (3, 1) and jq.shape == (2, 1)
    assert np.all(jp == 0) and np.all(jq == 0)


def test_jets_match_finite_differences_in_z():
    pair = _init_pair([10, 10], seed=4)
    rng = Rng(9)
    z = (rng.uniform(20, -1.5, -0.2) + 1j * rng.uniform(20, 0.2, 1.5)).astype(complex)
    jets = forward_jets(pair.phi, seed_jets(z))
    h = 1e-5
    fp = forward_jets(pair.phi, seed_jets(z + h))[0]
    fm = forward_jets(pair.phi, seed_jets(z - h))[0]
    d1_fd = (fp - fm) / (2 * h)
    d2_fd = (fp - 2 * jets[0] + fm) / h**2
    assert np.max(np.abs(d1_fd - jets[1]) / np.maximum(1.0, np.abs(jets[1]))) < 1e-6
    assert np.max(np.abs(d2_fd - jets[2]) / np.maximum(1.0, np.abs(jets[2]))) < 1e-4


@pytest.mark.parametrize("kind", [ActivationKind.EXP])
def test_forward_jets_lower_orders_are_channel_prefixes(kind):
    pair = _init_pair([6, 6], seed=2)
    z = np.array([0.2 + 0.1j, -0.3 + 0.5j, 0.7 - 0.4j])
    full = forward_jets(pair.phi, seed_jets(z))
    assert full.shape == (3, z.size)
    for order in (0, 1, 2):
        caches = []
        got = forward_jets(pair.phi, seed_jets(z)[: order + 1], caches)
        assert got.shape == (order + 1, z.size)
        assert np.array_equal(got, full[: order + 1])
        # each layer caches its input jets, with the seeds' channels
        assert [x.shape[0] for x in caches] == [order + 1] * len(pair.phi.layers)


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_psi_seeds_are_phis_first_two_channels(dtype):
    # mlp_forward seeds once at phi's order and hands psi the first two
    # channels: bit for bit the forward, caches included, of order-1 seeds
    pair = _init_pair([6, 6], seed=5)
    z = np.array([0.2 + 0.1j, -0.3 + 0.5j, 0.7 - 0.4j, 1.1 + 0.9j])
    seeds = seed_jets(z, dtype)
    assert seeds.dtype == dtype and np.array_equal(seeds[:2, :, 0], np.array([z, np.ones(z.size)], dtype))
    cut, own = [], []
    got = forward_jets(pair.psi, seeds[:2], cut)
    want = forward_jets(pair.psi, seed_jets(z, dtype)[:2].copy(), own)
    assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()
    assert mlp_forward(pair, seeds)[1].tobytes() == want.tobytes()
    assert len(cut) == len(own) == len(pair.psi.layers)
    for xa, xb in zip(cut, own):
        assert xa.dtype == dtype and xa.tobytes() == xb.tobytes()


def _unchecked_forward(net, z, order):
    jets = seed_jets(z)[: order + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        for i, layer in enumerate(net.layers):
            jets = affine_jets(jets, layer.weights, layer.bias)
            if i < len(net.layers) - 1:
                jets = activate_jets(ActivationKind.EXP, jets)
    return jets[:, :, 0]


@pytest.mark.parametrize("order", [1, 2])
def test_hidden_overflow_is_named_at_every_jet_order(order):
    # layer 1 overflows to inf and layer 2 maps it to exp(-inf + i nan) = 0.
    # A derivative channel carries the overflow to the output as 0 * inf =
    # NaN, so the output check re-runs the branch to name the layer
    net = build_mlp([1, 1])
    for layer, w in zip(net.layers, (1e4, -1.0, 1.0)):
        layer.weights[:] = w
    z = np.array([1.0 + 0j])
    assert not np.isfinite(_unchecked_forward(net, z, order)).all()
    with pytest.raises(NonFiniteError, match=r"^non-finite value in pair 3 psi layer 1$"):
        forward_jets(net, seed_jets(z)[: order + 1], where="pair 3 psi ")


def test_init_beta_bounds():
    net = build_mlp([4])
    probe = np.ones(10, dtype=complex)
    for beta in (-0.1, 0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="beta must be a finite positive number"):
            init_weights(net, probe, beta, 3, Rng(0))
    with pytest.warns(UserWarning, match="admissible"):
        init_weights(net, probe, 0.2, 3, Rng(0))
    with pytest.warns(UserWarning, match="admissible"):
        init_weights(net, probe, 1.2, 3, Rng(0))
    # the ends of [BETA3, BETA1] and BETA2 between them are admissible
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in (BETA3, BETA2, BETA1):
            init_weights(net, probe, beta, 3, Rng(0))


def test_init_empty_probe_rejected():
    with pytest.raises(ValueError, match="probe must be nonempty"):
        init_weights(build_mlp([4]), np.array([], dtype=complex), 0.5, 3, Rng(0))
    with pytest.raises(ValueError, match="m_e must be >= 2"):
        init_weights(build_mlp([4]), np.ones(10, dtype=complex), 0.5, 1, Rng(0))


def test_init_variance_formulas():
    # spec arithmetic: beta=0.5, fan-in 10, unit-modulus inputs -> 0.025
    assert 0.5 / (2 * 10 * 1.0) == 0.025
    # probe layer uses the sampled mean |x|^2, Gaussian layers use e^beta
    net = build_mlp([10, 10])
    probe = np.exp(1j * np.linspace(0, 2 * np.pi, 1000, endpoint=False))  # m_1 = 1

    class TrackingRng(Rng):
        stds = []

        def complex_normal(self, n, std=1.0):
            TrackingRng.stds.append(std)
            return super().complex_normal(n, std)

    init_weights(net, probe, 0.5, 2, TrackingRng(0))
    s1, s2, s3 = TrackingRng.stds
    assert abs(s1**2 - 0.5 / (2 * 1 * 1.0)) < 1e-12
    assert abs(s2**2 - 0.5 / (2 * 10 * math.exp(0.5))) < 1e-15
    assert abs(s3**2 - 0.5 / (2 * 10 * math.exp(0.5))) < 1e-15


def test_init_variance_in_band_on_deep_net():
    # 7 hidden layers x 100 units; pooled Var[y_l] should track beta
    for beta in (BETA3, 0.5, BETA2):
        net = build_mlp([100] * 7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            init_weights(net, _ring_probe(2000), beta, 3, Rng(17))
        fresh = _ring_probe(500, seed=23)
        jets = np.zeros((3, fresh.size, 1), dtype=complex)
        jets[0, :, 0] = fresh
        x = fresh.reshape(-1, 1)
        for li, layer in enumerate(net.layers[:-1]):
            y = x @ layer.weights.T
            var = float(np.mean(np.abs(y - y.mean()) ** 2))
            assert 0.5 * beta < var < 1.7 * beta, (beta, li, var)
            x = np.exp(y)


def _init_weights_reference(net, probe, beta, m_e, rng):
    # reference: propagates the probe through every layer below m_e, also the
    # last one, whose output no layer reads
    x = probe.reshape(-1, 1)
    L = len(net.layers)
    for l, layer in enumerate(net.layers, start=1):
        no, ni = layer.weights.shape
        if l < m_e:
            var = beta / (2.0 * ni * float(np.mean(np.abs(x) ** 2)))
        else:
            var = beta / (2.0 * ni * math.exp(beta))
        layer.weights[:] = rng.complex_normal(no * ni, std=math.sqrt(var)).reshape(no, ni)
        layer.bias[:] = 0.0
        if l < m_e and l < L:
            x = network.act_derivs(ActivationKind.EXP, x @ layer.weights.T)
            assert np.isfinite(x).all()


@pytest.mark.parametrize("kind", [ActivationKind.EXP])
@pytest.mark.parametrize("m_e", [2, 3, 4, 5])  # 2, 3, L and L + 1 for L = 4 layers
def test_init_weights_match_the_full_probe_propagation(m_e, kind):
    probe = _ring_probe()
    got, want = build_mlp([12, 12, 12]), build_mlp([12, 12, 12])
    init_weights(got, probe, 0.5, m_e, Rng(8))
    _init_weights_reference(want, probe, 0.5, m_e, Rng(8))
    for a, b in zip(got.layers, want.layers):
        assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)


def test_init_propagates_the_probe_only_to_the_last_layer_that_reads_it(monkeypatch):
    # m_e = 3 reads m_1 and m_2, so x_1 is the last probe layer: one
    # activation per branch, where the propagation used to compute x_2 too
    calls = []
    act_derivs = network.act_derivs
    monkeypatch.setattr(network, "act_derivs", lambda *a, **k: calls.append(1) or act_derivs(*a, **k))
    _init_pair([10, 10], m_e=3)
    assert len(calls) == 2


def test_init_probe_overflow_raises():
    net = build_mlp([10, 10, 10])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NonFiniteError, match=r"^probe propagation degenerate at layer 2: m_l=inf$"):
            init_weights(net, _ring_probe(), 1e6, 4, Rng(0))


def test_init_weights_holds_one_probe_layer_and_its_pre_activation():
    # a 20,000-point probe through 3x50 at m_e = L + 1: each probe layer is a
    # 16 MB array, and propagating one that held x_{l-1}, its pre-activation
    # and x_l at once peaked at 3 of them
    probe, net = _ring_probe(20000), build_mlp([50] * 3)
    layer = probe.size * 50 * 16
    tracemalloc.start()
    try:
        init_weights(net, probe, 0.5, 5, Rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * layer, f"init_weights peaked at {peak / layer:.2f} probe layers"


def test_checkpoint_roundtrip_exact(tmp_path):
    pairs = [_init_pair([5, 7], seed=3)]
    path = str(tmp_path / "ckpt.json")
    checkpoint_save(path, pairs)
    loaded = checkpoint_load(path)
    assert len(loaded) == 1
    for branch in ("phi", "psi"):
        a, b = getattr(pairs[0], branch), getattr(loaded[0], branch)
        assert a.widths == b.widths
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)


def _saved(tmp_path, pairs) -> str:
    path = tmp_path / "checkpoint.json"
    checkpoint_save(str(path), pairs)
    return path.read_text()


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_checkpoint_bytes_are_those_of_one_json_dumps(tmp_path, configs, name):
    spec = configs[name]
    pairs, _ = train(with_training(spec, epochs=0))
    assert _saved(tmp_path, pairs) == checkpoint_json(pairs)


@pytest.mark.parametrize("kind", [ActivationKind.EXP])
def test_checkpoint_bytes_per_activation_and_mode(tmp_path, kind):
    pair = BranchPair(build_mlp([6, 3]), build_mlp([4]))
    probe, rng = _ring_probe(), Rng(1)
    init_weights(pair.phi, probe, 0.5, 3, rng.spawn(0))
    init_weights(pair.psi, probe, 0.5, 3, rng.spawn(1))
    pair.phi.layers[1].bias[:] = 0.25 - 1e-3j
    pairs = [pair, _init_pair([6, 6], beta=0.7)]
    assert _saved(tmp_path, pairs) == checkpoint_json(pairs)


# values whose repr is awkward: signed zero, subnormal, short and long
# exponents, the most negative float
_EDGE_VALUES = [-0.0, 5e-324, 1e-5, 0.1, 1e16, -1.7976931348623157e308]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_checkpoint_bytes_match_one_json_dumps_property(tmp_path_factory, data):
    pool = _EDGE_VALUES + data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6))
    fill = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pairs = []
    for _ in range(data.draw(st.integers(1, 3))):
        nets = [build_mlp(data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))) for _ in range(2)]
        for a in (a for net in nets for l in net.layers for a in (l.weights, l.bias)):
            a.view(np.float64)[...] = fill.choice(pool, size=a.view(np.float64).shape)
        pairs.append(BranchPair(*nets))
    assert _saved(tmp_path_factory.mktemp("ckpt"), pairs) == checkpoint_json(pairs)


def _random_pair(hidden, seed=0):
    rng = np.random.default_rng(seed)
    pair = BranchPair(build_mlp(hidden), build_mlp(hidden))
    for a in (a for net in (pair.phi, pair.psi) for l in net.layers for a in (l.weights, l.bias)):
        a.view(np.float64)[...] = rng.standard_normal(2 * a.size).reshape(a.view(np.float64).shape)
    return pair


@pytest.mark.parametrize("units", [100, 200])
def test_checkpoint_save_memory_follows_one_row(tmp_path, units):
    # 61,202 complex parameters at 4x100 and 242,402 at 4x200: a save that
    # built the document would hold them all (13.1 MB traced at 4x100)
    pairs = [_random_pair([units] * 4)]
    path = str(tmp_path / "checkpoint.json")
    checkpoint_save(path, pairs)  # imports export outside the traced save
    tracemalloc.start()
    try:
        checkpoint_save(path, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"checkpoint_save peaked at {peak / 1e6:.2f} MB"
    assert checkpoint_load(path)[0].phi.layers[2].weights.shape == (units, units)


def test_checkpoint_load_holds_one_layer_of_lists(tmp_path):
    # a 4x100 pair: the file's text (2.6 MB), one 100x100 layer's Python lists
    # and the arrays peak at 5.4 MB traced; decoding the whole document to
    # lists first peaked at 11.5 MB
    pairs = [_random_pair([100] * 4)]
    path = str(tmp_path / "checkpoint.json")
    checkpoint_save(path, pairs)
    tracemalloc.start()
    try:
        loaded = checkpoint_load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7e6, f"checkpoint_load peaked at {peak / 1e6:.2f} MB"
    for a, b in zip(pairs[0].phi.layers + pairs[0].psi.layers, loaded[0].phi.layers + loaded[0].psi.layers):
        assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)


def test_checkpoint_save_that_fails_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.json"
    old = _saved(tmp_path, [_init_pair([5, 7], seed=3)])
    chunks = network._checkpoint_chunks

    def fail_after_the_first_layer(where, pairs):
        for chunk in chunks(where, pairs):
            yield chunk
            if '"bias"' in chunk:
                raise OSError("no space left")

    monkeypatch.setattr(network, "_checkpoint_chunks", fail_after_the_first_layer)
    for target in (path, tmp_path / "fresh" / "checkpoint.json"):
        with pytest.raises(OSError, match="no space left"):
            checkpoint_save(str(target), [_init_pair([5, 7], seed=4)])
        assert not os.path.exists(f"{target}.tmp")
    assert path.read_text() == old
    assert not os.path.exists(tmp_path / "fresh" / "checkpoint.json")


@pytest.mark.parametrize(
    "branch, layer, what, value",
    [("phi", 2, "weights", complex(math.nan, 0.0)), ("psi", 1, "bias", complex(0.0, -math.inf)),
     ("phi", 3, "bias", complex(math.inf, 1.0))],
)
def test_checkpoint_save_refuses_non_finite_weights(tmp_path, branch, layer, what, value):
    path = tmp_path / "checkpoint.json"
    old = _saved(tmp_path, [_init_pair([5, 7], seed=3)])
    pairs = [_init_pair([5, 7], seed=3), _init_pair([5, 7], seed=4)]
    getattr(getattr(pairs[1], branch).layers[layer - 1], what).flat[-1] = value
    for target in (path, tmp_path / "fresh.json"):
        message = f"checkpoint {target}: pair 1 {branch}: layer {layer} {what} must hold finite numbers"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            checkpoint_save(str(target), pairs)
        assert not os.path.exists(f"{target}.tmp")
    assert path.read_text() == old
    assert not os.path.exists(tmp_path / "fresh.json")


def test_flatten_write_roundtrip():
    pairs = [_init_pair([4, 4], seed=5)]
    vec = flatten_params(pairs)
    vec2 = vec.copy()
    vec2[3] += 1.5
    write_params(pairs, vec2)
    assert flatten_params(pairs)[3] == vec[3] + 1.5
    # param_views: branch pairs over the vector, flattening back to it bit for
    # bit, whose writes land in it
    views = param_views(pairs, vec)
    assert flatten_params(views).tobytes() == vec.tobytes()
    views[0].psi.layers[1].weights[2, 3] = 7.0 - 2.5j
    assert flatten_params(views).tobytes() == vec.tobytes()
    assert complex(views[0].psi.layers[1].weights[2, 3]) == 7.0 - 2.5j
    assert [l.weights.shape for l in views[0].phi.layers] == [l.weights.shape for l in pairs[0].phi.layers]
