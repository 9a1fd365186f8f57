import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import CONFIG_NAMES, config_path, grad_check, ring_problem, square_problem
from holoelastic import elasticity
from holoelastic.autodiff import _residuals, loss_backward, loss_forward, loss_value, pack_batch
from holoelastic.elasticity import ConstantData, Traction
from holoelastic.geometry import DomainSpec, piece_length, sample_boundary
from holoelastic.jets import ActivationKind, NonFiniteError
from holoelastic.network import BranchPair, branch_backward, build_mlp, flatten_params, write_params
from holoelastic.problem import load_config
from holoelastic.rng import Rng
from holoelastic.training import build_pairs, init_pairs, train, train_samples


def _ring_setup(n=8, seed=3, hidden=(10, 10)):
    problem = ring_problem(seed=seed)
    problem.networks.hidden_layers = len(hidden)
    problem.networks.units = hidden[0]
    rng = Rng(seed)
    samples = sample_boundary(problem.domain, n, rng.spawn(1))
    pairs = build_pairs(problem)
    probe = np.array([s.z for s in sample_boundary(problem.domain, 200, rng.spawn(3))])
    init_pairs(pairs, probe, 0.5, 3, rng)
    return problem, samples, pairs


def test_empty_batch_rejected():
    problem, samples, pairs = _ring_setup()
    with pytest.raises(ValueError, match="empty"):
        loss_forward(pairs, samples[:0], problem)


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
        for field in ("z", "t", "A", "d"):
            assert np.array_equal(getattr(ga, field), getattr(gb, field)), field
    assert loss_value(pairs, a, problem) == loss_value(pairs, b, problem)


def _load(name: str):
    """A shipped config; "dd_plate_hole@interleaved" lists its interface pieces
    between the outer ones, so subdomain 0's outer rows are not contiguous in
    its evaluation array."""
    problem = load_config(config_path(name.removesuffix("@interleaved")))
    if not name.endswith("@interleaved"):
        return problem
    outer = [p for p in problem.domain.pieces if not p.is_interface]
    iface = [p for p in problem.domain.pieces if p.is_interface]
    pieces = [p for pair in zip(outer, iface) for p in pair] + outer[len(iface):]
    return dataclasses.replace(problem, domain=DomainSpec(pieces))


@pytest.mark.parametrize("name", CONFIG_NAMES + ["dd_plate_hole@interleaved"])
def test_outer_stack_gives_each_piece_its_own_residual_and_adjoint(name):
    # one operator per subdomain: each outer piece's residual and adjoint rows
    # are those of its own operator, bit for bit, on the run's train and test batches
    problem = _load(name)
    cfg = problem.training
    test_samples = sample_boundary(problem.domain, cfg.n_test, Rng(cfg.seed).spawn(2))
    for packed in (pack_batch(train_samples(problem), problem.domain), pack_batch(test_samples, problem.domain)):
        rng = Rng(3)
        fields = {s: rng.spawn(s).normal(5 * z.size).reshape(5, z.size) for s, z in packed.eval_z.items()}
        residuals, outer = _residuals(packed, fields)
        n_outer = 0
        for sub, st in packed.stacks.items():
            adj = np.einsum("bkf,bk->fb", st.A, st.scale[:, None] * outer[sub])
            for i, part in st.parts:
                g, r = packed.groups[i], residuals[i]
                (_, rows), = g.sides
                assert r.tobytes() == elasticity.bc_residual(g.A, g.d, fields[sub][:, rows]).tobytes()
                assert r.strides[0] == r.itemsize and np.shares_memory(r, outer[sub])
                assert np.shares_memory(g.A, st.A) and np.shares_memory(g.d, st.d)
                own = np.einsum("bkf,bk->fb", g.A, (2.0 * g.alpha / r.shape[0]) * r)
                assert adj[:, part].tobytes() == own.tobytes()
                n_outer += 1
        assert n_outer == sum(len(g.sides) == 1 for g in packed.groups)
        contiguous = [isinstance(st.rows, slice) for st in packed.stacks.values()]
        assert not all(contiguous) if name.endswith("@interleaved") else all(contiguous)


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
    loss, rec = loss_forward(pairs, packed, problem)
    total = 0.0
    for g, r, mse in zip(rec.groups, rec.residuals, rec.mse):
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


@pytest.mark.parametrize("name", ["ring_quadrant", "stress_only"])
def test_loss_backward_sweeps_phi_alone_without_psi_caches(name):
    # a sweep_psi=False record yields the phi gradients of the full record
    # bit for bit and no psi gradients
    problem = ring_problem(seed=4) if name == "ring_quadrant" else square_problem(mode="stress_only")
    pairs = build_pairs(problem)
    rng = Rng(4)
    init_pairs(pairs, sample_boundary(problem.domain, 200, rng.spawn(3)).z, 0.7, 3, rng)
    samples = sample_boundary(problem.domain, 40, rng.spawn(1))
    full = loss_backward(loss_forward(pairs, samples, problem)[1]).grads
    (phi, psi), = loss_backward(loss_forward(pairs, samples, problem, sweep_psi=False)[1]).grads
    assert psi == [] and len(phi) == len(full[0][0])
    for (gw, gb), (fw, fb) in zip(phi, full[0][0]):
        assert np.array_equal(gw, fw) and np.array_equal(gb, fb)


def test_subdomain_count_mismatch():
    problem, samples, pairs = _ring_setup()
    with pytest.raises(ValueError, match="subdomain"):
        loss_forward(pairs + pairs, samples, problem)


def test_zero_net_zero_data_gives_zero_loss():
    problem = square_problem()
    for piece in problem.domain.pieces:
        piece.bc = Traction(ConstantData(0.0, 0.0))
    pairs = build_pairs(problem)  # zero weights
    samples = sample_boundary(problem.domain, 16, Rng(0))
    loss, _ = loss_forward(pairs, samples, problem)
    assert loss == 0.0


def test_fresh_net_loss_positive_and_replayable():
    problem, samples, pairs = _ring_setup()
    loss, _ = loss_forward(pairs, samples, problem)
    assert np.isfinite(loss) and loss > 0
    # the forward-only re-evaluation agrees bit for bit
    assert loss_value(pairs, samples, problem) == loss


@pytest.mark.parametrize("mode, n_phi, n_psi", [("standard", 3, 2), ("stress_only", 2, 1)])
def test_loss_record_caches_only_the_channels_km_reads(mode, n_phi, n_psi):
    problem = square_problem(mode=mode)
    pairs = build_pairs(problem)
    samples = sample_boundary(problem.domain, 8, Rng(0))
    _, rec = loss_forward(pairs, samples, problem)
    sp = rec.subs[0]
    for caches, n in ((sp.phi, n_phi), (sp.psi, n_psi)):
        for x, g in caches:
            # input and derivative jets both carry exactly n channels
            assert x.shape[0] == n and (g is None or g.shape[:2] == x.shape[:2])
        assert caches[-1][1] is None  # the output layer has no activation


def test_exp_derivative_jet_is_the_next_layers_input():
    # exp' = exp, so an exp layer caches nothing beyond its output
    problem, samples, pairs = _ring_setup()
    _, rec = loss_forward(pairs, samples, problem)
    for caches in (rec.subs[0].phi, rec.subs[0].psi):
        assert all(caches[i][1] is caches[i + 1][0] for i in range(len(caches) - 1))


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
        _, rec = loss_forward(pairs, samples, problem)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1.1 * floor, held / floor


def test_gradients_match_finite_differences():
    problem, samples, pairs = _ring_setup(n=8, hidden=(6, 6))
    dev = grad_check(pairs, samples, problem, step=1e-6)
    assert dev < 1e-5, dev


def test_gradients_match_fd_stress_only():
    problem = square_problem(mode="stress_only")
    rng = Rng(1)
    samples = sample_boundary(problem.domain, 10, rng.spawn(1))
    pairs = build_pairs(problem)
    probe = np.array([s.z for s in sample_boundary(problem.domain, 100, rng.spawn(3))])
    init_pairs(pairs, probe, 0.7, 3, rng)
    assert grad_check(pairs, samples, problem, step=1e-6) < 1e-5


@pytest.mark.parametrize("name, n", [("clamped_square", 12), ("dd_plate_hole", 32), ("dd_plate_hole@interleaved", 32)])
def test_gradients_match_fd_displacement_and_interface(name, n):
    # clamped_square has Displacement pieces, dd_plate_hole Interface pieces
    # between its 4 subdomains (listed between the outer pieces, they make a
    # subdomain's outer rows gathered by index); the ring and traction-square
    # cases reach neither
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
    _, rec = loss_forward(pairs, samples, problem)
    g = loss_backward(rec).grads[0][0][0][0]  # pair 0, phi, layer 1, dL/dW
    assert np.all(g[2, :] == 0.0)
    gb = loss_backward(rec).grads[0][0][0][1]
    assert gb[2] == 0.0


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
        loss_forward(pairs, samples, problem)


def test_nan_output_weight_names_residual_sample():
    problem, samples, pairs = _ring_setup(n=8)
    # the output layer has no activation check, so the NaN reaches the residuals
    pairs[0].phi.layers[-1].weights[0, 0] = np.nan
    with pytest.raises(NonFiniteError, match=r"non-finite residual at piece 0, sample t=.*, z="):
        loss_forward(pairs, samples, problem)


def test_readout_overflow_names_residual_sample_without_warnings():
    # every hidden layer stays finite, so the readout's inf reaches the field
    # map and the residuals; the loss check names the sample, and no numpy
    # RuntimeWarning is raised on the way
    problem, samples, pairs = _ring_setup(n=8)
    pairs[0].phi.layers[-1].weights[:] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteError, match=r"^non-finite residual at piece \d+, sample t=.*, z="):
            loss_forward(pairs, samples, problem)


@pytest.mark.parametrize("name", ["ring_quadrant", "dd_plate_hole", "stress_only"])
def test_test_rows_ride_the_training_forward(name):
    # the test loss of the fused forward equals loss_value on the test batch
    # bit for bit, and the train loss and gradient do not see the test rows
    if name == "stress_only":
        problem = square_problem(mode="stress_only")
    else:
        problem = load_config(config_path(name))
    problem.networks.hidden_layers = 2
    problem.networks.units = 6
    rng = Rng(4)
    train_b = pack_batch(sample_boundary(problem.domain, 64, rng.spawn(1)), problem.domain)
    test_b = pack_batch(sample_boundary(problem.domain, 24, rng.spawn(2)), problem.domain)
    pairs = build_pairs(problem)
    probe = np.array([s.z for s in sample_boundary(problem.domain, 200, rng.spawn(3))])
    init_pairs(pairs, probe, 0.7, 3, rng)
    loss, rec = loss_forward(pairs, train_b, problem, test=test_b)
    assert rec.test_loss == loss_value(pairs, test_b, problem)
    loss0, rec0 = loss_forward(pairs, train_b, problem)
    assert loss == loss0 and np.isnan(rec0.test_loss)
    g, g0 = (loss_backward(r).to_vector() for r in (rec, rec0))
    assert np.any(g != 0.0) and np.array_equal(g, g0)


def test_hidden_layer_overflow_names_pair_branch_and_layer():
    problem, samples, pairs = _ring_setup(n=8)
    pairs[0].psi.layers[1].bias[:] = 1e4
    with pytest.raises(NonFiniteError, match=r"^non-finite value in pair 0 psi layer 2$"):
        loss_forward(pairs, samples, problem)
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
    assert np.isfinite(loss_value(pairs, samples, problem))
    with pytest.raises(NonFiniteError, match=r"^non-finite value in pair 0 phi layer 1$"):
        loss_forward(pairs, samples, problem, dtype=np.complex64)


@pytest.mark.parametrize("name", ["clamped_square", "dd_plate_hole"])
def test_single_precision_loss_and_gradient_stay_close_to_double(name):
    # at init on the config's n_train batch (dd_plate_hole adds interface
    # rows): complex64 branch sweeps, double loss and gradient, within 1e-5
    problem = load_config(config_path(name))
    cfg = problem.training
    rng = Rng(cfg.seed)
    packed = pack_batch(sample_boundary(problem.domain, cfg.n_train, rng.spawn(1)), problem.domain)
    pairs = build_pairs(problem)
    init_pairs(pairs, sample_boundary(problem.domain, 10 * cfg.n_train, rng.spawn(3)).z, cfg.beta, cfg.m_e, rng)
    ref, rec = loss_forward(pairs, packed, problem)
    gref = loss_backward(rec).to_vector()
    loss, rec = loss_forward(pairs, packed, problem, dtype=np.complex64)
    assert {x.dtype for sp in rec.subs.values() for x, _ in sp.phi + sp.psi} == {np.dtype(np.complex64)}
    assert all(sp.fields.dtype == np.float64 for sp in rec.subs.values())
    g = loss_backward(rec).to_vector()
    assert g.dtype == np.float64 and loss != ref
    assert abs(loss - ref) <= 1e-5 * ref
    assert np.linalg.norm(g - gref) <= 1e-5 * np.linalg.norm(gref)


def test_gradient_vector_alignment():
    problem, samples, pairs = _ring_setup(n=8)
    _, rec = loss_forward(pairs, samples, problem)
    gvec = loss_backward(rec).to_vector()
    assert gvec.shape == flatten_params(pairs).shape
    assert np.all(np.isfinite(gvec))
    assert np.any(gvec != 0.0)


@pytest.mark.parametrize("kind", [ActivationKind.EXP])
@pytest.mark.parametrize("mode", ["standard", "stress_only"])
def test_branch_backward_reads_the_adjoints_channels_only(mode, kind):
    # an n-channel adjoint on wider caches gives the sweep of the same
    # adjoint zero-padded to the caches' channels (test rows ride along)
    problem = square_problem(mode=mode)
    problem.networks.hidden_layers, problem.networks.units = 3, 12
    rng = Rng(5)
    train_b = pack_batch(sample_boundary(problem.domain, 48, rng.spawn(1)), problem.domain)
    test_b = pack_batch(sample_boundary(problem.domain, 16, rng.spawn(2)), problem.domain)
    pairs = build_pairs(problem)
    init_pairs(pairs, sample_boundary(problem.domain, 200, rng.spawn(3)).z, 0.7, 3, rng)
    _, rec = loss_forward(pairs, train_b, problem, test=test_b)
    sp = rec.subs[0]
    b = sp.z.size
    for net, caches in ((pairs[0].phi, sp.phi), (pairs[0].psi, sp.psi)):
        full_n = caches[0][0].shape[0]
        for n in range(1, full_n + 1):
            adj = rng.spawn(10 + n).complex_normal(n * b).reshape(n, b)
            padded = np.zeros((full_n, b), dtype=np.complex128)
            padded[:n] = adj
            for got, want in zip(branch_backward(net, caches, adj), branch_backward(net, caches, padded)):
                for g, w in zip(got, want):
                    assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w)), (n, full_n)

