import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import holoelastic
from conftest import config_path, ring_problem, seeded, square_problem, with_training
from holoelastic import jets
from holoelastic.autodiff import loss_backward, loss_forward, loss_value, pack_batch
from holoelastic.cli import run_command
from holoelastic.geometry import sample_boundary
from holoelastic.jets import NonFiniteError
from holoelastic.network import flatten_params, write_params
from holoelastic.problem import TrainConfig, load_config
from holoelastic.rng import Rng
from holoelastic.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    PROBE_FACTOR,
    AdamState,
    adam_step,
    start,
    train,
)


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
    direct = loss_value(pairs0, pack_batch(samples, problem.domain), problem)
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


def test_train_matches_the_flatten_step_write_loop_bit_for_bit():
    # train's layers view Adam's vector; the loop that copied the vector back
    # into the layers after every step gives the same weights and losses
    problem = with_training(load_config(config_path("ring_quadrant")), epochs=50)
    pairs, history = train(problem)
    cfg = problem.training
    ref, packed_train, packed_test = start(problem, cfg.m_e, PROBE_FACTOR * cfg.n_train)
    vec = flatten_params(ref)
    adam = AdamState.zeros(vec.size)
    losses = []
    for _ in range(cfg.epochs):
        loss, rec = loss_forward(ref, seeded(packed_train, problem, packed_test), problem)
        grads = loss_backward(rec).to_vector()
        losses.append((loss, rec.test_loss))
        adam_step(adam, grads, cfg.lr, vec)
        write_params(ref, vec)
    assert list(zip(history.train_loss, history.test_loss)) == losses
    assert flatten_params(pairs).tobytes() == flatten_params(ref).tobytes()


@pytest.mark.parametrize("name", ["ring_quadrant", "dd_plate_hole"])
def test_train_seeds_each_subdomain_once_per_run(monkeypatch, name):
    # the seed jets of the training and test points are fixed for a run, so
    # a 5-epoch train builds them once per subdomain, not twice per epoch;
    # seed_jets is counted in every module that holds it
    problem = with_training(load_config(config_path(name)), epochs=5)
    calls, seed_jets = [], jets.seed_jets
    counted = lambda *a, **k: calls.append(1) or seed_jets(*a, **k)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("holoelastic") and getattr(mod, "seed_jets", None) is seed_jets:
            monkeypatch.setattr(mod, "seed_jets", counted)
    assert len(train(problem)[1]) == 5
    assert 0 < len(calls) <= problem.domain.n_subdomains


def _fresh_process(code: str) -> str:
    src = os.path.dirname(os.path.dirname(holoelastic.__file__))
    env = dict(os.environ, HOLOELASTIC_THREADS="1", PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


glibc_only = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the package root pins glibc's allocator thresholds only",
)


@glibc_only
def test_freed_heap_top_is_kept_between_rounds():
    # twenty 96 KB arrays sit on the heap top; with glibc's default trim
    # threshold (128 KiB) freeing them returns the pages, and every round
    # faults about 440 back in
    out = _fresh_process(
        "import resource, holoelastic, numpy as np\n"
        "def rnd():\n"
        "    a = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    xs = [np.ones(12_000) for _ in range(20)]\n"
        "    del xs\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - a\n"
        "print(*[rnd() for _ in range(5)])\n"
    )
    assert sum(map(int, out.split()[1:])) < 20, out


@glibc_only
def test_steady_ring_epochs_fault_no_pages():
    # ru_minflt from epoch 50 to 300 of a fresh ring_quadrant train: the
    # epoch's arrays reuse the heap the earlier epochs left.  A random array
    # drawn first leaves the heap in a state where, under glibc's dynamic
    # thresholds, each epoch's freed arrays were trimmed off its top and
    # faulted back in by the next epoch (11 faults per epoch here, 107 in a
    # bare script)
    out = _fresh_process(
        "import dataclasses, resource\n"
        "from holoelastic import training\n"
        "from holoelastic.problem import load_config\n"
        "import numpy as np\n"
        "rng = np.random.default_rng(0)\n"
        "y = rng.standard_normal((220, 10)) + 1j * rng.standard_normal((220, 10))\n"
        "marks, step = [], training.adam_step\n"
        "def counted(*args):\n"
        "    marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)\n"
        "    return step(*args)\n"
        "training.adam_step = counted\n"
        f"spec = load_config({config_path('ring_quadrant')!r})\n"
        "training.train(dataclasses.replace(spec, training=dataclasses.replace(spec.training, epochs=300)))\n"
        "print((marks[-1] - marks[50]) / (len(marks) - 51))\n"
    )
    assert float(out) < 5.0, out
