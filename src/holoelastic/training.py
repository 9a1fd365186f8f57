"""Adam training of branch pairs on fixed boundary sample sets.

Training is full batch: one epoch is one optimizer step over all training
points, which start draws once up front, with the test points and the init
probe, from seeded sub-streams of the run seed.  The test loss rides
the training forward (autodiff.loss_forward's `test`).  Complex weights are
optimized as independent real pairs; only the branch sweeps follow `precision`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .autodiff import PackedBatch, loss_backward, loss_forward, pack_batch
from .geometry import sample_boundary
from .jets import NonFiniteError
from .network import BranchPair, bind_params, build_mlp, init_weights
from .rng import Rng

# training.precision -> the complex dtype of the branch sweeps
PRECISIONS = {"double": np.complex128, "single": np.complex64}
PROBE_FACTOR = 10  # init probe points per training point (stream 3 of start), for train and init-check

if TYPE_CHECKING:  # pragma: no cover
    from .problem import ProblemSpec


@dataclass
class TrainConfig:
    epochs: int = 1000
    lr: float = 0.03
    n_train: int = 200
    n_test: int = 0
    seed: int = 0
    beta: float = 0.5
    m_e: int = 3
    precision: str = "double"  # a key of PRECISIONS

    def __post_init__(self):
        if self.epochs < 0 or self.n_test < 0 or self.n_train <= 0:
            raise ValueError("epochs/n_test must be >= 0 and n_train positive")
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"lr must be a finite positive number, got {self.lr}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.m_e < 2:
            raise ValueError(f"m_e must be >= 2, got {self.m_e}")
        if self.precision not in PRECISIONS:
            raise ValueError(f"precision must be 'double' or 'single', got {self.precision!r}")


# Adam's moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n))


def adam_step(
    state: AdamState, grads: np.ndarray, lr: float, params: np.ndarray
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; params and state are updated in place,
    through two work arrays and in the textbook formulas' operation order."""
    if grads.shape != params.shape or grads.shape != state.m.shape:
        raise ValueError("gradient/parameter/state shapes disagree")
    if not np.isfinite(grads).all():
        raise NonFiniteError(f"non-finite gradient at component {int(np.argmax(~np.isfinite(grads)))}")
    state.step += 1
    t = grads - state.m
    state.m += np.multiply(t, 1.0 - ADAM_BETA1, out=t)
    u = grads * grads
    u -= state.v
    state.v += np.multiply(u, 1.0 - ADAM_BETA2, out=u)
    np.sqrt(np.divide(state.v, 1.0 - ADAM_BETA2**state.step, out=u), out=u)  # sqrt(vhat)
    u += ADAM_EPS
    np.multiply(np.divide(state.m, 1.0 - ADAM_BETA1**state.step, out=t), lr, out=t)  # lr * mhat
    params -= np.divide(t, u, out=t)
    return params, state


@dataclass
class History:
    train_loss: list[float] = field(default_factory=list)
    test_loss: list[float] = field(default_factory=list)
    ms: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.train_loss)


def build_pairs(problem: "ProblemSpec") -> list[BranchPair]:
    """Fresh zero-weight branch pairs, one per subdomain."""
    net = problem.networks
    mlp = lambda: build_mlp([net.units] * net.hidden_layers, net.mode)
    return [BranchPair(mlp(), mlp()) for _ in range(problem.domain.n_subdomains)]


def init_pairs(pairs: Sequence[BranchPair], probe: np.ndarray, beta: float, m_e: int, rng: Rng) -> None:
    """network.init_weights on every branch, each from its own stream of `rng` (the layout is start's)."""
    for i, pair in enumerate(pairs):
        init_weights(pair.phi, probe, beta, m_e, rng.spawn(100 + 2 * i))
        init_weights(pair.psi, probe, beta, m_e, rng.spawn(101 + 2 * i))


def train_samples(problem: "ProblemSpec") -> np.recarray:
    """The n_train training points of a run of `problem`, unpacked: stream 1 of start."""
    return sample_boundary(problem.domain, problem.training.n_train, Rng(problem.training.seed).spawn(1))


def start(problem: "ProblemSpec", m_e: int, n_probe: int) -> tuple[list[BranchPair], PackedBatch, Optional[PackedBatch]]:
    """The initialized pairs, packed training batch and packed test batch
    (None when n_test is 0) that a run of `problem` starts from.

    Streams of Rng(training.seed): 1 the n_train training points (train_samples,
    which `holoelastic sample` writes), 2 the n_test test points, 3 the n_probe
    init probe points, and 100 + 2i and 101 + 2i the phi and psi weights of
    pair i (init_pairs at training.beta and m_e), drawn in that order.
    """
    cfg, domain = problem.training, problem.domain
    rng = Rng(cfg.seed)
    packed_train = pack_batch(train_samples(problem), domain)
    packed_test = pack_batch(sample_boundary(domain, cfg.n_test, rng.spawn(2)), domain) if cfg.n_test else None
    probe = sample_boundary(domain, n_probe, rng.spawn(3)).z
    pairs = build_pairs(problem)
    init_pairs(pairs, probe, cfg.beta, m_e, rng)
    return pairs, packed_train, packed_test


def train(problem: "ProblemSpec") -> tuple[list[BranchPair], History]:
    """Train networks for `problem` with the settings of `problem.training`;
    returns the pairs and the loss history.

    Losses recorded at epoch e are evaluated before the e-th parameter
    update, so entry 0 is the loss of the freshly initialized networks.
    """
    cfg = problem.training
    pairs, packed_train, packed_test = start(problem, cfg.m_e, PROBE_FACTOR * cfg.n_train)
    vec = bind_params(pairs)  # adam_step updates the layers through it
    adam = AdamState.zeros(vec.size)
    history = History()
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        try:
            loss, rec = loss_forward(pairs, packed_train, problem, test=packed_test, dtype=PRECISIONS[cfg.precision])
            grads = loss_backward(rec).to_vector()
            test = rec.test_loss
            del rec  # its caches must not outlive the epoch into the next forward
            adam_step(adam, grads, cfg.lr, vec)
        except NonFiniteError as e:
            raise NonFiniteError(f"epoch {epoch}: {e}") from e
        history.train_loss.append(loss)
        history.test_loss.append(test)
        history.ms.append(1e3 * (time.perf_counter() - t0))
    return pairs, history
