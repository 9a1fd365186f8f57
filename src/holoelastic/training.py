"""Adam training of branch pairs on fixed boundary sample sets.

Training is full batch: one epoch is one optimizer step over all training
points, which are drawn once up front (together with the test points and the
init probe) from seeded sub-streams of the run seed.  Complex weights are
optimized as independent real pairs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .autodiff import PackedBatch, loss_backward, loss_forward, loss_value, pack_batch
from .geometry import sample_boundary
from .jets import NonFiniteError
from .network import (
    BranchPair,
    InitConfig,
    build_mlp,
    flatten_params,
    init_weights,
    write_params,
)
from .rng import Rng

if TYPE_CHECKING:  # pragma: no cover
    from .problem import ProblemSpec


@dataclass
class TrainConfig:
    epochs: int = 1000
    lr: float = 0.03
    n_train: int = 200
    n_test: int = 20
    seed: int = 0
    beta: float = 0.5
    m_e: int = 3
    lr_decay: float = 1.0  # per-epoch multiplicative factor

    def __post_init__(self):
        if self.epochs < 0 or self.n_test < 0 or self.n_train <= 0:
            raise ValueError("epochs/n_test must be >= 0 and n_train positive")
        if self.lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n))


def adam_step(
    state: AdamState, grads: np.ndarray, lr: float, params: np.ndarray
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; params and state are updated in place."""
    if grads.shape != params.shape or grads.shape != state.m.shape:
        raise ValueError("gradient/parameter/state shapes disagree")
    bad = ~np.isfinite(grads)
    if bad.any():
        raise NonFiniteError(f"non-finite gradient at component {int(np.argmax(bad))}")
    state.step += 1
    state.m += (1.0 - state.beta1) * (grads - state.m)
    state.v += (1.0 - state.beta2) * (grads * grads - state.v)
    mhat = state.m / (1.0 - state.beta1 ** state.step)
    vhat = state.v / (1.0 - state.beta2 ** state.step)
    params -= lr * mhat / (np.sqrt(vhat) + state.eps)
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
    hidden = [net.units] * net.hidden_layers
    return [
        BranchPair(
            build_mlp(hidden, net.activation, net.mode),
            build_mlp(hidden, net.activation, net.mode),
        )
        for _ in range(problem.domain.n_subdomains)
    ]


def init_pairs(
    pairs: Sequence[BranchPair],
    probe: np.ndarray,
    beta: float,
    m_e: int,
    rng: Rng,
) -> None:
    cfg = InitConfig(probe=probe, beta=beta, m_e=m_e)
    for i, pair in enumerate(pairs):
        init_weights(pair.phi, cfg, rng.spawn(100 + 2 * i))
        init_weights(pair.psi, cfg, rng.spawn(101 + 2 * i))


def train(
    problem: "ProblemSpec", cfg: Optional[TrainConfig] = None
) -> tuple[list[BranchPair], History]:
    """Train networks for `problem`; returns the pairs and the loss history.

    Losses recorded at epoch e are evaluated before the e-th parameter
    update, so entry 0 is the loss of the freshly initialized networks.
    """
    cfg = cfg if cfg is not None else problem.training
    domain = problem.domain
    rng = Rng(cfg.seed)
    train_samples = sample_boundary(domain, cfg.n_train, rng.spawn(1))
    packed_train = pack_batch(train_samples, domain)
    packed_test: Optional[PackedBatch] = None
    if cfg.n_test > 0:
        packed_test = pack_batch(sample_boundary(domain, cfg.n_test, rng.spawn(2)), domain)

    probe_samples = sample_boundary(domain, 10 * cfg.n_train, rng.spawn(3))
    probe = np.array([s.z for s in probe_samples], dtype=np.complex128)
    pairs = build_pairs(problem)
    init_pairs(pairs, probe, cfg.beta, cfg.m_e, rng)

    vec = flatten_params(pairs)
    adam = AdamState.zeros(vec.size)
    history = History()
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        try:
            loss, rec = loss_forward(pairs, packed_train, problem)
            grads = loss_backward(rec).to_vector(pairs)
            test = loss_value(pairs, packed_test, problem) if packed_test else math.nan
            adam_step(adam, grads, cfg.lr * cfg.lr_decay**epoch, vec)
        except NonFiniteError as e:
            raise NonFiniteError(f"epoch {epoch}: {e}") from e
        write_params(pairs, vec)
        history.train_loss.append(loss)
        history.test_loss.append(test)
        history.ms.append(1e3 * (time.perf_counter() - t0))
    return pairs, history
