import json
import math

import numpy as np
import pytest

from conftest import config_path, ring_problem, square_problem, with_training
from holoelastic.autodiff import loss_value, pack_batch
from holoelastic.cli import run_command
from holoelastic.geometry import sample_boundary
from holoelastic.jets import NonFiniteError
from holoelastic.network import flatten_params
from holoelastic.rng import Rng
from holoelastic.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, TrainConfig, adam_step, train


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    for lr in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"lr must be a finite positive number, got {lr}"):
            TrainConfig(lr=lr)
    with pytest.raises(ValueError, match="precision must be 'double' or 'single', got 'half'"):
        TrainConfig(precision="half")


def test_adam_zero_gradient_is_identity():
    params = np.array([1.0, -2.0, 3.0])
    state = AdamState.zeros(3)
    adam_step(state, np.zeros(3), 0.1, params)
    assert np.array_equal(params, [1.0, -2.0, 3.0])
    assert np.all(state.m == 0.0) and np.all(state.v == 0.0)
    assert state.step == 1


def test_adam_first_step_magnitude():
    # bias-corrected first step moves each coordinate by ~lr in the gradient
    # sign direction
    g = np.array([0.3, -4.0, 1e-2])
    params = np.zeros(3)
    adam_step(AdamState.zeros(3), g, 0.05, params)
    assert np.allclose(params, -0.05 * np.sign(g), rtol=1e-6)


def test_adam_two_steps_match_scalar_recurrence():
    g = np.array([0.7])
    params = np.array([1.0])
    state = AdamState.zeros(1)
    adam_step(state, g, 0.1, params)
    adam_step(state, g, 0.1, params)
    # independent scalar recurrence
    m = v = 0.0
    p = 1.0
    for t in (1, 2):
        m = 0.9 * m + 0.1 * 0.7
        v = 0.999 * v + 0.001 * 0.7**2
        mh = m / (1 - 0.9**t)
        vh = v / (1 - 0.999**t)
        p -= 0.1 * mh / (math.sqrt(vh) + 1e-8)
    assert abs(params[0] - p) < 1e-15


def test_adam_step_matches_the_textbook_formulas_bit_for_bit():
    # the in-place update keeps the operations and their order
    rng = np.random.default_rng(11)
    n = 1000
    params = rng.normal(size=n)
    ref, m, v = params.copy(), np.zeros(n), np.zeros(n)
    state = AdamState.zeros(n)
    for step in range(1, 51):
        g = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 3, size=n)
        lr = 0.03 * 0.99**step
        adam_step(state, g, lr, params)
        m += (1.0 - ADAM_BETA1) * (g - m)
        v += (1.0 - ADAM_BETA2) * (g * g - v)
        mhat = m / (1.0 - ADAM_BETA1**step)
        vhat = v / (1.0 - ADAM_BETA2**step)
        ref -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    assert np.array_equal(params, ref)
    assert np.array_equal(state.m, m) and np.array_equal(state.v, v)


def test_adam_rejects_non_finite_gradient():
    with pytest.raises(NonFiniteError, match="component 1"):
        adam_step(AdamState.zeros(3), np.array([0.0, np.nan, 1.0]), 0.1, np.zeros(3))


def test_zero_epochs_returns_initialized_nets():
    problem = ring_problem(epochs=0)
    pairs, history = train(problem)
    assert len(history) == 0
    assert len(pairs) == 1
    assert np.any(flatten_params(pairs) != 0.0)


def test_epoch0_loss_is_initial_loss_and_lr0_like_behavior():
    problem = ring_problem(epochs=5, seed=2)
    pairs0, _ = train(with_training(problem, epochs=0))
    _, history = train(problem)
    rng = Rng(problem.training.seed)
    samples = sample_boundary(problem.domain, problem.training.n_train, rng.spawn(1))
    direct = loss_value(pairs0, samples, problem)
    assert history.train_loss[0] == direct


def test_tiny_lr_keeps_parameters_still():
    # lr > 0 is required, so probe the invariant with a negligible rate
    problem = ring_problem(epochs=3, seed=1)
    pairs, history = train(with_training(problem, lr=1e-300))
    fresh, _ = train(with_training(problem, epochs=0))
    assert np.allclose(flatten_params(pairs), flatten_params(fresh), rtol=0, atol=1e-250)
    assert np.allclose(history.train_loss, history.train_loss[0])


def test_history_deterministic_across_runs():
    problem = ring_problem(epochs=8, seed=4)
    _, h1 = train(problem)
    _, h2 = train(problem)
    assert h1.train_loss == h2.train_loss
    assert h1.test_loss == h2.test_loss


def test_test_loss_has_no_side_effects():
    problem = ring_problem(epochs=6, seed=5)
    pairs_a, ha = train(problem)
    pairs_b, hb = train(with_training(problem, n_test=0))
    assert ha.train_loss == hb.train_loss
    assert np.array_equal(flatten_params(pairs_a), flatten_params(pairs_b))
    assert all(math.isnan(v) for v in hb.test_loss)


def test_training_reduces_loss_on_square():
    problem = square_problem(epochs=150, seed=0)
    _, history = train(problem)
    assert history.train_loss[-1] < 0.1 * history.train_loss[0]


def test_single_precision_training_is_deterministic(tmp_path):
    # two single-precision runs write the same bytes, which differ from a
    # double-precision run's
    doc = json.load(open(config_path("ring_quadrant")))
    doc["training"].update(epochs=30, n_train=40, n_test=8)
    runs = {}
    for tag, precision in (("a", "single"), ("b", "single"), ("double", "double")):
        doc["training"]["precision"] = precision
        doc["outputs"]["dir"] = str(tmp_path / tag)
        cfg = tmp_path / f"{tag}.json"
        cfg.write_text(json.dumps(doc))
        assert run_command(["train", str(cfg)]) == 0
        runs[tag] = [(tmp_path / tag / f).read_bytes() for f in ("history.csv", "checkpoint.json")]
    assert runs["a"] == runs["b"]
    assert all(a != d for a, d in zip(runs["a"], runs["double"]))
