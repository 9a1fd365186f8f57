import dataclasses

import numpy as np
import pytest

from conftest import config_path, ring_problem, square_problem
from holoelastic.autodiff import (
    grad_check,
    loss_backward,
    loss_forward,
    loss_value,
    pack_batch,
)
from holoelastic.elasticity import ConstantData, Traction
from holoelastic.geometry import sample_boundary
from holoelastic.jets import ActivationKind, NonFiniteError, act_derivs
from holoelastic.network import BranchPair, build_mlp, flatten_params, write_params
from holoelastic.problem import load_config
from holoelastic.rng import Rng
from holoelastic.training import build_pairs, init_pairs


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
        loss_forward(pairs, [], problem)


def test_pack_rejects_batch_missing_a_piece():
    problem, samples, _ = _ring_setup(n=8)
    with pytest.raises(ValueError, match="piece 1 \\('axis_x'\\) is empty"):
        pack_batch([s for s in samples if s.piece != 1], problem.domain)


def test_pack_rejects_non_unit_normal():
    problem, samples, _ = _ring_setup(n=8)
    samples[3] = dataclasses.replace(samples[3], normal=1.5 * samples[3].normal)
    with pytest.raises(ValueError, match="not a unit vector"):
        pack_batch(samples, problem.domain)


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


@pytest.mark.parametrize("kind", [ActivationKind.COS, ActivationKind.SIN, ActivationKind.COS_SQRT])
def test_gradients_match_fd_other_activations(kind):
    problem, samples, pairs = _ring_setup(n=6, hidden=(5, 5))
    for pair in pairs:
        pair.phi.activation = kind
        pair.psi.activation = kind
    assert grad_check(pairs, samples, problem, step=1e-6) < 1e-5


@pytest.mark.parametrize("name, n", [("clamped_square", 12), ("dd_plate_hole", 32)])
def test_gradients_match_fd_displacement_and_interface(name, n):
    # clamped_square has Displacement pieces, dd_plate_hole Interface pieces
    # between its 4 subdomains; the ring and traction-square cases reach neither
    problem = load_config(config_path(name))
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
    g = loss_backward(rec).grads[(0, "phi", 0, "W")]
    assert np.all(g[2, :] == 0.0)
    gb = loss_backward(rec).grads[(0, "phi", 0, "b")]
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
        out, cache = activate_jets(ActivationKind.EXP, jets, with_third=True)
        return out, cache

    out, (p1, p2, p3) = forward(w)
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


def test_gradient_vector_alignment():
    problem, samples, pairs = _ring_setup(n=8)
    _, rec = loss_forward(pairs, samples, problem)
    gvec = loss_backward(rec).to_vector(pairs)
    assert gvec.shape == flatten_params(pairs).shape
    assert np.all(np.isfinite(gvec))
    assert np.any(gvec != 0.0)
