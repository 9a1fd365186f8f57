import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import CONFIG_NAMES, config_path, grad_check, ring_problem, seeded, square_problem
from holoelastic import autodiff, elasticity, network
from holoelastic.autodiff import WeightGrad, _residuals, loss_backward, loss_forward, loss_value, pack_batch, seed_batch
from holoelastic.elasticity import ConstantData, Displacement, Interface, Traction
from holoelastic.geometry import BoundaryPiece, DomainSpec, Line, piece_length, sample_boundary
from holoelastic.jets import ActivationKind, NonFiniteError, activate_jets, affine_jets, affine_weights_adjoint
from holoelastic.network import BranchPair, branch_backward, build_mlp, flatten_params
from holoelastic.problem import PRECISIONS, load_config
from holoelastic.rng import Rng
from holoelastic.training import build_pairs, init_pairs, train, train_samples


def _ring_setup(n=8, seed=3, hidden=(10, 10)):
    problem = ring_problem(seed=seed)
    problem.networks.hidden_layers = len(hidden)
    problem.networks.units = hidden[0]
    rng = Rng(seed)
    samples = sample_boundary(problem.domain, n, rng.spawn(1))
    pairs = build_pairs(problem)
    probe = sample_boundary(problem.domain, 200, rng.spawn(3)).z
    init_pairs(pairs, probe, 0.5, 3, rng)
    return problem, samples, pairs


def test_empty_batch_rejected():
    problem, samples, pairs = _ring_setup()
    with pytest.raises(ValueError, match="empty"):
        loss_forward(pairs, seeded(samples[:0], problem), problem)


def test_pack_rejects_batch_missing_a_piece():
    problem, samples, _ = _ring_setup(n=8)
    with pytest.raises(ValueError, match="piece 1 \\('axis_x'\\) is empty"):
        pack_batch(samples[samples.piece != 1], problem.domain)


def test_pack_rejects_non_unit_normal():
    problem, samples, _ = _ring_setup(n=8)
    samples.normal[3] *= 1.5
    with pytest.raises(ValueError, match="not a unit vector"):
        pack_batch(samples, problem.domain)


@pytest.mark.parametrize("name", ["ring_quadrant", "dd_plate_hole"])
def test_pack_batch_ignores_sample_order(name):
    # groups are ordered by t whatever the batch order, so the packed arrays
    # and the loss keep their bits under any permutation of the samples
    problem = load_config(config_path(name))
    problem.networks.hidden_layers, problem.networks.units = 1, 4
    rng = Rng(6)
    samples = sample_boundary(problem.domain, 60, rng.spawn(1))
    pairs = build_pairs(problem)
    init_pairs(pairs, sample_boundary(problem.domain, 200, rng.spawn(3)).z, 0.5, 3, rng)
    perm = np.argsort(rng.uniform(len(samples)))
    assert np.any(perm != np.arange(len(samples)))
    a, b = pack_batch(samples, problem.domain), pack_batch(samples[perm], problem.domain)
    for ga, gb in zip(a.groups, b.groups):
        for field in ("z", "t", "k", "sides"):
            assert np.array_equal(getattr(ga, field), getattr(gb, field)), field
    for sub, op in a.operators.items():
        assert a.eval_z[sub].tobytes() == b.eval_z[sub].tobytes()
        for field in ("A", "d", "scale"):
            assert getattr(op, field).tobytes() == getattr(b.operators[sub], field).tobytes(), field
    assert loss_value(pairs, a, problem) == loss_value(pairs, b, problem)


def _framed_square():
    """A [-1, 1]^2 frame (subdomain 0), its bottom clamped and its other edges
    under traction (0, 0.3), around a [-0.5, 0.5]^2 square (subdomain 1) that
    interface pieces alone bound."""
    loops = [[complex(x, y) * h for x, y in ((-1, -1), (1, -1), (1, 1), (-1, 1))] for h in (1.0, 0.5)]
    edges = [list(zip(loop, loop[1:] + loop[:1])) for loop in loops]
    bcs = [Displacement(ConstantData(0.0, 0.0))] + 3 * [Traction(ConstantData(0.0, 0.3))]
    pieces = [BoundaryPiece(Line(a, b), bc, (0,)) for (a, b), bc in zip(edges[0], bcs)]
    pieces += [BoundaryPiece(Line(a, b), Interface(), (1, 0)) for a, b in edges[1]]
    return dataclasses.replace(load_config(config_path("clamped_square")), domain=DomainSpec(pieces))


def _load(name: str):
    """A shipped config; "dd_plate_hole@interleaved" lists its interface pieces
    between the outer ones, so subdomain 0's outer rows are not contiguous in
    its evaluation array, and "framed_square" is _framed_square()."""
    if name == "framed_square":
        return _framed_square()
    problem = load_config(config_path(name.removesuffix("@interleaved")))
    if not name.endswith("@interleaved"):
        return problem
    outer = [p for p in problem.domain.pieces if not p.is_interface]
    iface = [p for p in problem.domain.pieces if p.is_interface]
    pieces = [p for pair in zip(outer, iface) for p in pair] + outer[len(iface):]
    return dataclasses.replace(problem, domain=DomainSpec(pieces))


@pytest.mark.parametrize("name", CONFIG_NAMES + ["dd_plate_hole@interleaved", "framed_square"])
def test_outer_stack_gives_each_piece_its_own_residual_and_adjoint(name):
    # one operator per subdomain stacks every row of its evaluation array,
    # interface sides included: each piece's residual and adjoint rows are
    # those of its own operator, bit for bit, on the run's train and test batches
    problem = _load(name)
    cfg = problem.training
    test_samples = sample_boundary(problem.domain, cfg.n_test, Rng(cfg.seed).spawn(2))
    for packed in (pack_batch(train_samples(problem), problem.domain), pack_batch(test_samples, problem.domain)):
        rng = Rng(3)
        fields = {s: rng.spawn(s).normal(5 * z.size).reshape(5, z.size) for s, z in packed.eval_z.items()}
        residuals, rows = _residuals(packed, fields)
        adj = {}
        for sub, op in packed.operators.items():
            iface = any(p.is_interface and sub in p.subdomains for p in problem.domain.pieces)
            assert op.A.shape == (packed.eval_z[sub].size, 4 if iface else 2, 5)
            adj[sub] = np.zeros_like(fields[sub])
            adj[sub] += np.einsum("bkf,bk->fb", op.A, op.scale[:, None] * rows[sub])
        for g, r in zip(packed.groups, residuals):
            f = [fields[sub][:, span] for sub, span in g.sides]
            piece = problem.domain.pieces[g.piece]
            A, d = elasticity.bc_operator(piece.bc, problem.domain.outward_normal(g.piece, g.t), g.z)
            own = elasticity.bc_residual(A, d, *f) if len(f) == 1 else elasticity.interface_residual(A, *f)
            assert r.tobytes("F") == own.tobytes("F")
            assert r.shape[0] == 1 or r.strides[0] == r.itemsize
            at = np.einsum("bkf,bk->fb", A, (2.0 * g.alpha / r.shape[0]) * r)
            for (sub, span), side in zip(g.sides, (np.add, np.subtract)):  # side b enters the jump as -A fb
                assert adj[sub][:, span].tobytes() == side(0.0, at).tobytes()


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_loss_reads_the_packed_piece_weights(name):
    # each piece's weight is fixed at pack time to the formula criterion 7
    # checks, and the loss is the in-order sum of weight times mean square
    problem = load_config(config_path(name))
    problem.networks.hidden_layers, problem.networks.units = 1, 4
    rng = Rng(5)
    packed = pack_batch(sample_boundary(problem.domain, 80, rng.spawn(1)), problem.domain)
    outer_len = problem.domain.outer_length()
    assert [g.alpha for g in packed.groups] == [piece_length(p) / outer_len for p in problem.domain.pieces]
    pairs = build_pairs(problem)
    init_pairs(pairs, sample_boundary(problem.domain, 200, rng.spawn(3)).z, 0.5, 3, rng)
    loss, rec = loss_forward(pairs, seeded(packed, problem), problem)
    total = 0.0
    for g, r, mse in zip(rec.batch.groups, rec.residuals, rec.mse):
        assert r.shape[0] == g.z.size and mse == float(np.sum(r * r) / r.shape[0])
        total += g.alpha * mse
    assert loss == rec.loss == total > 0.0


def test_piece_weights_are_computed_once_when_the_domain_is_built(monkeypatch):
    # DomainSpec fixes the weights at load; packing the training and the
    # test batch and every epoch read them
    calls = []
    weights = elasticity.group_weights

    def counted(*args):
        calls.append(args)
        return weights(*args)

    monkeypatch.setattr(elasticity, "group_weights", counted)
    problem = ring_problem(epochs=4, n_train=40, n_test=8)
    assert len(calls) == 1
    assert problem.domain.weights == weights(*calls[0])
    train(problem)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["ring_quadrant", "square"])
def test_loss_backward_sweeps_phi_alone_without_psi_caches(name):
    # a sweep_psi=False record yields the phi gradients of the full record
    # bit for bit and leaves the psi gradients at zero
    problem = ring_problem(seed=4) if name == "ring_quadrant" else square_problem()
    pairs = build_pairs(problem)
    rng = Rng(4)
    init_pairs(pairs, sample_boundary(problem.domain, 200, rng.spawn(3)).z, 0.7, 3, rng)
    samples = sample_boundary(problem.domain, 40, rng.spawn(1))
    full = loss_backward(loss_forward(pairs, seeded(samples, problem), problem)[1]).grads
    (g,) = loss_backward(loss_forward(pairs, seeded(samples, problem), problem, sweep_psi=False)[1]).grads
    assert not any(l.weights.any() or l.bias.any() for l in g.psi.layers)
    for l, f in zip(g.phi.layers, full[0].phi.layers, strict=True):
        assert np.array_equal(l.weights, f.weights) and np.array_equal(l.bias, f.bias)


def test_subdomain_count_mismatch():
    problem, samples, pairs = _ring_setup()
    with pytest.raises(ValueError, match="subdomain"):
        loss_forward(pairs + pairs, seeded(samples, problem), problem)


def test_zero_net_zero_data_gives_zero_loss():
    problem = square_problem()
    for piece in problem.domain.pieces:
        piece.bc = Traction(ConstantData(0.0, 0.0))
    pairs = build_pairs(problem)  # zero weights
    samples = sample_boundary(problem.domain, 16, Rng(0))
    loss, _ = loss_forward(pairs, seeded(samples, problem), problem)
    assert loss == 0.0


def test_fresh_net_loss_positive_and_replayable():
    problem, samples, pairs = _ring_setup()
    loss, _ = loss_forward(pairs, seeded(samples, problem), problem)
    assert np.isfinite(loss) and loss > 0
    # the forward-only re-evaluation agrees bit for bit
    assert loss_value(pairs, pack_batch(samples, problem.domain), problem) == loss


def test_loss_record_caches_only_the_channels_km_reads():
    problem = square_problem()
    pairs = build_pairs(problem)
    samples = sample_boundary(problem.domain, 8, Rng(0))
    _, rec = loss_forward(pairs, seeded(samples, problem), problem)
    sp = rec.subs[0]
    assert [f.name for f in dataclasses.fields(sp)] == ["phi", "psi"]
    # (phi, phi', phi'') and (psi, psi'): every layer's input jets carry exactly n channels
    for caches, n in ((sp.phi, 3), (sp.psi, 2)):
        assert [x.shape[:2] for x in caches] == [(n, 8)] * len(pairs[0].phi.layers)


def test_exp_derivative_jet_is_the_next_layers_input(monkeypatch):
    # exp' = exp, so the caches are the layer inputs alone, one per layer:
    # caches[i] is what layer i's affine map read, and caches[i + 1] the
    # array exp returned for layer i, its derivative jet
    problem, samples, pairs = _ring_setup()
    read, activated = [], []

    def affine(jets, *args, **kwargs):
        read.append(jets)
        return affine_jets(jets, *args, **kwargs)

    def activate(kind, jets):
        activated.append(activate_jets(kind, jets))
        return activated[-1]

    monkeypatch.setattr(network, "affine_jets", affine)
    monkeypatch.setattr(network, "activate_jets", activate)
    _, rec = loss_forward(pairs, seeded(samples, problem), problem)
    caches = rec.subs[0].phi + rec.subs[0].psi
    assert len(rec.subs[0].phi) == len(pairs[0].phi.layers) and len(rec.subs[0].psi) == len(pairs[0].psi.layers)
    assert len(caches) == len(read) and all(c is not None and c is x for c, x in zip(caches, read))
    nexts = rec.subs[0].phi[1:] + rec.subs[0].psi[1:]
    assert len(nexts) == len(activated) and all(c is g for c, g in zip(nexts, activated))


@pytest.mark.parametrize("name, count", [("ring_quadrant", 12), ("dd_plate_hole", 45)])
def test_loss_record_ops_keep_their_count(name, count):
    # perfbench reports len(rec.ops) as autodiff.tape_ops: per subdomain one
    # cache per layer of either branch and its pass, then one residual array
    # per piece and the mean squares (the configs' 2-hidden-layer nets;
    # dd_plate_hole has 4 subdomains and 16 pieces)
    problem = load_config(config_path(name))
    samples = sample_boundary(problem.domain, 64, Rng(0))
    _, rec = loss_forward(build_pairs(problem), seeded(samples, problem), problem)
    assert len(rec.ops) == count


@pytest.mark.parametrize("kind", [ActivationKind.EXP])
def test_loss_record_holds_one_jet_per_hidden_layer_and_activation(kind):
    # the affine adjoints need every hidden output: 3 layers of (B, N) =
    # (1000, 100) complex, with 3 + 2 channels over the phi and psi branches.
    # exp's derivative jet is its output, and nothing else of that size
    # outlives the forward
    problem = square_problem()
    problem.networks.hidden_layers, problem.networks.units = 3, 100
    pairs = build_pairs(problem)
    samples = sample_boundary(problem.domain, 1000, Rng(0))
    floor = (3 + 2) * 3 * 1000 * 100 * 16
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, rec = loss_forward(pairs, seeded(samples, problem), problem)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1.1 * floor, held / floor


def _criterion_6_setup():
    """criterion 6's shape: 7x100 nets on a batch of 1000, and the byte size
    of one (3, 1000, 100) complex128 jet."""
    problem = square_problem()
    problem.networks.hidden_layers, problem.networks.units = 7, 100
    pairs = build_pairs(problem)
    seeds = seeded(sample_boundary(problem.domain, 1000, Rng(0)), problem)
    return problem, pairs, seeds, 3 * 1000 * 100 * 16


def test_loss_forward_peaks_within_a_fifth_of_a_jet_above_its_record():
    # exp writes over the affine output it is given, so beside the record the
    # forward holds at most phi's scratch channel, which psi's later caches
    # cover: 0.04 jets measured; 0.67 when each activation wrote a new jet,
    # and one scratch channel in the 2-channel psi branch would add 0.22
    problem, pairs, seeds, jet = _criterion_6_setup()
    tracemalloc.start()
    try:
        _, rec = loss_forward(pairs, seeds, problem)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < 0.2 * jet, (peak - held) / jet


def test_loss_backward_holds_one_adjoint_jet_and_one_row_block():
    # criterion 6's shape: every adjoint primitive writes over the adjoint it
    # is given, so above the record the sweep holds at most one (3, 1000,
    # 100) adjoint jet and one 256 KiB row block, the affine GEMM's output or
    # the activation adjoint's scratch (1.15 jets measured; 1.39 with a
    # whole scratch channel and 1 MiB blocks, 2.09 when the affine adjoint
    # wrote a new jet and each activation product a new channel)
    problem, pairs, seeds, jet = _criterion_6_setup()
    grad = WeightGrad.zeros(pairs)
    tracemalloc.start()
    try:
        _, rec = loss_forward(pairs, seeds, problem)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        loss_backward(rec, grad)
        temporaries = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert temporaries < 1.25 * jet, temporaries / jet


def _record_arrays(rec, seeds) -> list:
    """Every array a LossRecord holds or reads, its seeds' included."""
    out = list(seeds.z.values()) + list(seeds.jets.values()) + rec.residuals + list(rec.rows.values())
    out += list(rec.batch.eval_z.values())
    for op in rec.batch.operators.values():
        out += [op.A, op.d, op.scale]
    for sp in rec.subs.values():
        out += sp.phi + sp.psi
    return out


@pytest.mark.parametrize("name", ["ring_quadrant", "clamped_square", "dd_plate_hole"])
def test_loss_backward_leaves_the_record_and_the_branch_adjoints_alone(name, monkeypatch):
    # the sweep writes over its own adjoints only: every cached array and
    # every adjoint handed to branch_backward keeps its bytes (at the
    # config's nets, batch and precision, single for clamped_square, with a
    # test batch riding along), and a second loss_backward on the same record
    # gives the same gradient vector
    problem = load_config(config_path(name))
    cfg = problem.training
    rng = Rng(cfg.seed)
    train_b = pack_batch(sample_boundary(problem.domain, cfg.n_train, rng.spawn(1)), problem.domain)
    test_b = pack_batch(sample_boundary(problem.domain, cfg.n_test, rng.spawn(2)), problem.domain)
    pairs = build_pairs(problem)
    init_pairs(pairs, sample_boundary(problem.domain, 200, rng.spawn(3)).z, cfg.beta, cfg.m_e, rng)
    seeds = seed_batch(train_b, test_b, PRECISIONS[cfg.precision])
    _, rec = loss_forward(pairs, seeds, problem)
    cached = _record_arrays(rec, seeds)
    before = [a.tobytes() for a in cached]
    handed = []

    def recording(net, caches, adj, out):
        handed.append((adj, adj.tobytes()))
        return branch_backward(net, caches, adj, out)

    monkeypatch.setattr(autodiff, "branch_backward", recording)
    first = loss_backward(rec).to_vector()
    assert len(handed) == 2 * len(pairs)
    assert all(adj.tobytes() == b for adj, b in handed)
    assert all(a.tobytes() == b for a, b in zip(cached, before))
    assert loss_backward(rec).to_vector().tobytes() == first.tobytes()


def test_gradients_match_finite_differences():
    problem, samples, pairs = _ring_setup(n=8, hidden=(6, 6))
    dev = grad_check(pairs, samples, problem, step=1e-6)
    assert dev < 1e-5, dev


@pytest.mark.parametrize(
    "name, n", [("clamped_square", 12), ("dd_plate_hole", 32), ("dd_plate_hole@interleaved", 32), ("framed_square", 40)]
)
def test_gradients_match_fd_displacement_and_interface(name, n):
    # clamped_square has Displacement pieces, dd_plate_hole Interface pieces
    # between its 4 subdomains (also listed between the outer pieces), and
    # framed_square a subdomain that interfaces alone bound; the ring and
    # traction-square cases reach none of these
    problem = _load(name)
    problem.networks.hidden_layers = 1
    problem.networks.units = 3
    rng = Rng(2)
    samples = sample_boundary(problem.domain, n, rng.spawn(1))
    pairs = build_pairs(problem)
    probe = np.array([s.z for s in sample_boundary(problem.domain, 10 * n, rng.spawn(3))])
    init_pairs(pairs, probe, 0.5, 3, rng)
    assert grad_check(pairs, samples, problem, step=1e-6) < 1e-5


def test_linear_net_gradient_exact():
    # one affine layer and no activation: the loss is quadratic in the real
    # weight coordinates, so central differences are exact up to roundoff
    problem, samples, _ = _ring_setup(n=8)
    pairs = [BranchPair(build_mlp([]), build_mlp([]))]
    rng = Rng(5)
    for net in (pairs[0].phi, pairs[0].psi):
        net.layers[0].weights[:] = rng.complex_normal(1, 0.3).reshape(1, 1)
        net.layers[0].bias[:] = rng.complex_normal(1, 0.3)
    dev = grad_check(pairs, samples, problem, step=1e-4)
    assert dev < 1e-9


def test_grad_check_step_validation():
    problem, samples, pairs = _ring_setup(n=6)
    with pytest.raises(ValueError):
        grad_check(pairs, samples, problem, step=0.0)
    with pytest.raises(ValueError):
        grad_check(pairs, samples, problem, step=0.01)


def test_zeroed_fanout_gives_exactly_zero_gradient():
    problem, samples, pairs = _ring_setup(n=8)
    # cut unit 2 of the phi branch's hidden layer 1 out of every downstream path
    pairs[0].phi.layers[1].weights[:, 2] = 0.0
    _, rec = loss_forward(pairs, seeded(samples, problem), problem)
    g = loss_backward(rec).grads[0].phi.layers[0]  # pair 0, phi, layer 1
    assert np.all(g.weights[2, :] == 0.0)
    assert g.bias[2] == 0.0


def test_cauchy_riemann_consistency_of_adjoint_rules():
    # holomorphic map w -> exp(w * z) read off at the value channel with
    # loss Re(f): the packed adjoint must equal conj(f'(w))
    from holoelastic.jets import activate_jets

    z0 = 0.4 + 0.3j
    w = 0.7 - 0.2j

    def forward(wv):
        jets = np.zeros((3, 1, 1), dtype=complex)
        jets[0, 0, 0] = wv * z0
        return activate_jets(ActivationKind.EXP, jets)

    g = forward(w)  # exp's derivative jet is its output
    p1 = g[0]  # f'(y) at the value channel
    # adjoint of Re(f): a = 1; through the activation then the product by z0
    a_out = np.zeros((3, 1, 1), dtype=complex)
    a_out[0] = 1.0
    jets_in = np.zeros((3, 1, 1), dtype=complex)
    jets_in[0, 0, 0] = w * z0
    a_y = a_out[0] * np.conj(p1)
    a_w = a_y * np.conj(z0)
    fprime = z0 * np.exp(w * z0)  # d/dw exp(w z0)
    expected = np.conj(fprime)
    assert abs(complex(a_w[0, 0]) - expected) < 1e-10


def test_non_finite_loss_names_sample():
    problem, samples, pairs = _ring_setup(n=8)
    # the quadrant has Re(z) <= 0, so a large negative weight overflows exp
    pairs[0].phi.layers[0].weights[:] = -4000.0
    with pytest.raises(NonFiniteError, match="layer"):
        loss_forward(pairs, seeded(samples, problem), problem)


def test_nan_output_weight_names_residual_sample():
    problem, samples, pairs = _ring_setup(n=8)
    # the output layer has no activation check, so the NaN reaches the residuals
    pairs[0].phi.layers[-1].weights[0, 0] = np.nan
    with pytest.raises(NonFiniteError, match=r"non-finite residual at piece 0, sample t=.*, z="):
        loss_forward(pairs, seeded(samples, problem), problem)


def test_readout_overflow_names_residual_sample_without_warnings():
    # every hidden layer stays finite, so the readout's inf reaches the field
    # map and the residuals; the loss check names the sample, and no numpy
    # RuntimeWarning is raised on the way
    problem, samples, pairs = _ring_setup(n=8)
    pairs[0].phi.layers[-1].weights[:] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteError, match=r"^non-finite residual at piece \d+, sample t=.*, z="):
            loss_forward(pairs, seeded(samples, problem), problem)


@pytest.mark.parametrize("name", ["ring_quadrant", "dd_plate_hole"])
def test_test_rows_ride_the_training_forward(name):
    # the test loss of the fused forward equals loss_value on the test batch
    # bit for bit, and the train loss and gradient do not see the test rows
    problem = load_config(config_path(name))
    problem.networks.hidden_layers = 2
    problem.networks.units = 6
    rng = Rng(4)
    train_b = pack_batch(sample_boundary(problem.domain, 64, rng.spawn(1)), problem.domain)
    test_b = pack_batch(sample_boundary(problem.domain, 24, rng.spawn(2)), problem.domain)
    pairs = build_pairs(problem)
    probe = np.array([s.z for s in sample_boundary(problem.domain, 200, rng.spawn(3))])
    init_pairs(pairs, probe, 0.7, 3, rng)
    loss, rec = loss_forward(pairs, seeded(train_b, problem, test_b), problem)
    assert rec.test_loss == loss_value(pairs, test_b, problem)
    loss0, rec0 = loss_forward(pairs, seeded(train_b, problem), problem)
    assert loss == loss0 and np.isnan(rec0.test_loss)
    g, g0 = (loss_backward(r).to_vector() for r in (rec, rec0))
    assert np.any(g != 0.0) and np.array_equal(g, g0)


def test_hidden_layer_overflow_names_pair_branch_and_layer():
    problem, samples, pairs = _ring_setup(n=8)
    pairs[0].psi.layers[1].bias[:] = 1e4
    with pytest.raises(NonFiniteError, match=r"^non-finite value in pair 0 psi layer 2$"):
        loss_forward(pairs, seeded(samples, problem), problem)
    # training runs the same forward; its message adds the epoch
    problem = ring_problem(epochs=5, seed=0, n_train=40, n_test=8)
    problem.training.lr = 10.0
    with pytest.raises(NonFiniteError, match=r"^epoch \d+: non-finite value in pair 0 (phi|psi) layer [12]$"):
        train(problem)


def test_single_precision_overflow_names_pair_branch_and_layer():
    # complex64 exp overflows past about 88.7 and complex128 past about 709:
    # a pre-activation near 95 leaves the double loss finite, and the
    # single-precision forward re-runs in single to name the layer
    problem, samples, pairs = _ring_setup(n=8, hidden=(10,))
    pairs[0].phi.layers[0].bias[:] = 95.0
    assert np.isfinite(loss_value(pairs, pack_batch(samples, problem.domain), problem))
    packed = pack_batch(samples, problem.domain)
    with pytest.raises(NonFiniteError, match=r"^non-finite value in pair 0 phi layer 1$"):
        loss_forward(pairs, seed_batch(packed, dtype=np.complex64), problem)


@pytest.mark.parametrize("name", ["clamped_square", "dd_plate_hole"])
def test_single_precision_loss_and_gradient_stay_close_to_double(name, monkeypatch):
    # at init on the config's n_train batch (dd_plate_hole adds interface
    # rows): complex64 branch sweeps, double field map, loss and gradient,
    # within 1e-5
    problem = load_config(config_path(name))
    cfg = problem.training
    rng = Rng(cfg.seed)
    packed = pack_batch(sample_boundary(problem.domain, cfg.n_train, rng.spawn(1)), problem.domain)
    pairs = build_pairs(problem)
    init_pairs(pairs, sample_boundary(problem.domain, 10 * cfg.n_train, rng.spawn(3)).z, cfg.beta, cfg.m_e, rng)
    ref, rec = loss_forward(pairs, seeded(packed, problem), problem)
    gref = loss_backward(rec).to_vector()
    field_dtypes = []
    km_fields = elasticity.km_fields

    def recording_km_fields(*args):
        f = km_fields(*args)
        field_dtypes.append(f.dtype)
        return f

    monkeypatch.setattr(elasticity, "km_fields", recording_km_fields)
    loss, rec = loss_forward(pairs, seed_batch(packed, dtype=np.complex64), problem)
    assert field_dtypes == [np.dtype(np.float64)] * len(pairs)
    assert {x.dtype for sp in rec.subs.values() for x in sp.phi + sp.psi} == {np.dtype(np.complex64)}
    assert all(r.dtype == np.float64 for r in rec.rows.values())
    g = loss_backward(rec).to_vector()
    assert g.dtype == np.float64 and loss != ref
    assert abs(loss - ref) <= 1e-5 * ref
    assert np.linalg.norm(g - gref) <= 1e-5 * np.linalg.norm(gref)


def test_gradient_vector_alignment():
    problem, samples, pairs = _ring_setup(n=8)
    _, rec = loss_forward(pairs, seeded(samples, problem), problem)
    gvec = loss_backward(rec).to_vector()
    assert gvec.shape == flatten_params(pairs).shape
    assert np.all(np.isfinite(gvec))
    assert np.any(gvec != 0.0)


@pytest.mark.parametrize("name", ["ring_quadrant", "clamped_square", "dd_plate_hole"])
def test_gradient_lands_in_the_reused_vector_as_concatenated_layers(name):
    # loss_backward writes every layer's gradient into the WeightGrad it is
    # given, as train reuses one over all epochs: over stale entries, the
    # vector equals the layers of a new WeightGrad concatenated in order (in
    # the config's precision; dd_plate_hole has four pairs)
    problem = load_config(config_path(name))
    problem.networks.hidden_layers, problem.networks.units = 2, 6
    rng = Rng(6)
    train_b = pack_batch(sample_boundary(problem.domain, 64, rng.spawn(1)), problem.domain)
    test_b = pack_batch(sample_boundary(problem.domain, 24, rng.spawn(2)), problem.domain)
    pairs = build_pairs(problem)
    init_pairs(pairs, sample_boundary(problem.domain, 200, rng.spawn(3)).z, 0.7, 3, rng)
    seeds = seed_batch(train_b, test_b, PRECISIONS[problem.training.precision])
    grad = WeightGrad.zeros(pairs)
    grad.vec[:] = np.nan
    # the gradient has the networks' shape, every array a view of its vector
    for g, p in zip(grad.grads, pairs, strict=True):
        for gn, pn in ((g.phi, p.phi), (g.psi, p.psi)):
            for gl, pl in zip(gn.layers, pn.layers, strict=True):
                for ga, pa in ((gl.weights, pl.weights), (gl.bias, pl.bias)):
                    assert ga.shape == pa.shape and np.shares_memory(ga, grad.vec)
    for step in range(2):
        _, rec = loss_forward(pairs, seeds, problem)
        assert loss_backward(rec, grad) is grad and grad.to_vector() is grad.vec
        want = flatten_params(loss_backward(rec).grads)
        assert grad.vec.shape == flatten_params(pairs).shape and grad.vec.tobytes() == want.tobytes()
        for p in pairs:  # the second step's gradient replaces the first's
            p.phi.layers[0].weights *= 1.5


@pytest.mark.parametrize("kind", [ActivationKind.EXP])
def test_branch_backward_reads_the_adjoints_channels_only(kind):
    # an n-channel adjoint on wider caches gives the sweep of the same
    # adjoint zero-padded to the caches' channels (test rows ride along)
    problem = square_problem()
    problem.networks.hidden_layers, problem.networks.units = 3, 12
    rng = Rng(5)
    train_b = pack_batch(sample_boundary(problem.domain, 48, rng.spawn(1)), problem.domain)
    test_b = pack_batch(sample_boundary(problem.domain, 16, rng.spawn(2)), problem.domain)
    pairs = build_pairs(problem)
    init_pairs(pairs, sample_boundary(problem.domain, 200, rng.spawn(3)).z, 0.7, 3, rng)
    _, rec = loss_forward(pairs, seeded(train_b, problem, test_b), problem)
    sp = rec.subs[0]
    b = train_b.eval_z[0].size
    for net, caches in ((pairs[0].phi, sp.phi), (pairs[0].psi, sp.psi)):
        full_n = caches[0].shape[0]
        for n in range(1, full_n + 1):
            adj = rng.spawn(10 + n).complex_normal(n * b).reshape(n, b)
            padded = np.zeros((full_n, b), dtype=np.complex128)
            padded[:n] = adj
            got, want = (branch_backward(net, caches, a, build_mlp(net.widths[1:-1])) for a in (adj, padded))
            for gl, wl in zip(got.layers, want.layers, strict=True):
                for g, w in ((gl.weights, wl.weights), (gl.bias, wl.bias)):
                    assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w)), (n, full_n)



def test_branch_sweep_yields_each_layer_once_last_first_before_overwriting():
    # one (i, a, x) per layer, last layer first, x the cache's training rows
    # and first n channels; a square layer's yielded adjoint is written over
    # when the generator resumes, and the summed products of the yielded
    # pairs, read before resuming, are branch_backward's gradient bit for bit
    problem = square_problem()
    problem.networks.hidden_layers, problem.networks.units = 3, 12
    rng = Rng(6)
    train_b = pack_batch(sample_boundary(problem.domain, 48, rng.spawn(1)), problem.domain)
    test_b = pack_batch(sample_boundary(problem.domain, 16, rng.spawn(2)), problem.domain)
    pairs = build_pairs(problem)
    init_pairs(pairs, sample_boundary(problem.domain, 200, rng.spawn(3)).z, 0.7, 3, rng)
    _, rec = loss_forward(pairs, seeded(train_b, problem, test_b), problem)
    net, caches = pairs[0].phi, rec.subs[0].phi
    b = train_b.eval_z[0].size
    for n in (1, 2, 3):
        adj = rng.spawn(20 + n).complex_normal(n * b).reshape(n, b)
        order, sums, held = [], [], []
        for i, a, x in network.branch_sweep(net, caches, adj):
            for h, was in held:
                assert h.tobytes() != was, (n, i)
            held = [(a, a.tobytes())] if 0 < i < len(net.layers) - 1 else []
            assert x.shape == (n, b, caches[i].shape[2]) and np.shares_memory(x, caches[i])
            assert x.tobytes() == caches[i][:n, :b].tobytes()
            order.append(i)
            sums.append(affine_weights_adjoint(a, x))
        assert order == list(reversed(range(len(net.layers))))
        want = branch_backward(net, caches, adj, build_mlp(net.widths[1:-1]))
        for (gw, gb), layer in zip(reversed(sums), want.layers, strict=True):
            assert gw.conj().tobytes() == layer.weights.tobytes() and gb.conj().tobytes() == layer.bias.tobytes()
