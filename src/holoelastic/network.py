"""Holomorphic MLPs, variance-matched initialization, and the shallow
Taylor-matching approximator.

A network maps one complex input through complex fully-connected layers with
exp between them; the final layer is affine.  Evaluating it on a seeded jet
of order k yields the value and its first k z-derivatives in a single pass.
Each branch runs at the order the Kolosov-Muskhelishvili map reads
(JET_ORDERS): a branch pair returns the jets (phi, phi', phi'') and
(psi, psi').  mlp_forward is the one pair forward, for training and eval
alike; its jets go straight to elasticity.km_fields.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .export import write_text_atomic
from .jets import (
    ActivationKind,
    NonFiniteError,
    act_derivs,
    activate_jets,
    activate_jets_adjoint,
    affine_jets,
    affine_jets_adjoint,
    affine_weights_adjoint,
)
from .rng import Rng

# Ends of the init-variance scale: 1 stabilizes first-derivative backprop
# variance, (sqrt(5)-1)/2 second, sqrt(2)-1 third.  The loss touches third
# derivatives of the pre-activations (via phi''), so [BETA3, BETA1] is admissible.
BETA1 = 1.0
BETA2 = (math.sqrt(5.0) - 1.0) / 2.0
BETA3 = math.sqrt(2.0) - 1.0


@dataclass
class LayerParams:
    weights: np.ndarray  # complex128, (n_out, n_in)
    bias: np.ndarray  # complex128, (n_out,)


@dataclass
class HoloMLP:
    layers: list[LayerParams]

    def __post_init__(self):
        shapes = [l.weights.shape for l in self.layers]
        if not shapes or shapes[0][1] != 1 or shapes[-1][0] != 1:
            raise ValueError(f"network must map 1 -> 1, got layer shapes {shapes}")
        for a, b in zip(shapes, shapes[1:]):
            if b[1] != a[0]:
                raise ValueError(f"layer shapes do not chain: {shapes}")

    @property
    def widths(self) -> list[int]:
        return [1] + [l.weights.shape[0] for l in self.layers]


@dataclass
class BranchPair:
    """Two independent branches, one per potential."""

    phi: HoloMLP
    psi: HoloMLP


def build_mlp(hidden: Sequence[int]) -> HoloMLP:
    """Zero-initialized network with the given hidden widths."""
    widths = [1] + list(hidden) + [1]
    layers = [
        LayerParams(
            np.zeros((no, ni), dtype=np.complex128),
            np.zeros(no, dtype=np.complex128),
        )
        for ni, no in zip(widths, widths[1:])
    ]
    return HoloMLP(layers)


def forward_jets(
    net: HoloMLP,
    seeds: np.ndarray,
    caches: Optional[list] = None,
    where: str = "",
    check_layers: bool = False,
) -> np.ndarray:
    """Evaluate the network on seed jets (jets.seed_jets) at their order and in
    their complex dtype, both read off the array; returns the (order + 1, B)
    complex128 value and derivative channels.  The seeds are only read, so a
    run builds them once for all its epochs.

    With a `caches` list, appends each layer's input jets for
    branch_backward, one entry per layer.  exp's derivative jet is its
    output, the next layer's input, so caches[i + 1] is also the derivative
    jet of hidden layer i.  Without one, each square layer past the first
    writes its affine output over its input (affine_jets' overwrite), so an
    uncached pass holds one jet and one row block.

    Only the output is checked for finiteness: a hidden overflow reaches it
    through any derivative channel (0 * inf after exp(-inf) = 0).  A
    non-finite output re-runs with `check_layers`, raising NonFiniteError
    that names the first bad hidden layer after `where`; if none is bad, it
    is returned.
    """
    jets = seeds
    last = len(net.layers) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for i, layer in enumerate(net.layers):
            if caches is not None:
                caches.append(jets)
            jets = affine_jets(jets, layer.weights, layer.bias, overwrite=caches is None and i > 0)
            if i != last:
                jets = activate_jets(ActivationKind.EXP, jets)
                if check_layers and not np.isfinite(jets).all():
                    raise NonFiniteError(f"non-finite value in {where}layer {i + 1}")
    out = jets[:, :, 0].astype(np.complex128, copy=False)
    if not check_layers and not np.isfinite(out).all():
        forward_jets(net, seeds, where=where, check_layers=True)
    return out


def branch_sweep(net: HoloMLP, caches: list, adj: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Reverse sweep of forward_jets from an (n, B) output adjoint: yields
    per layer, last layer first, (i, a, x), a being layer i's output adjoint
    as 2 dL/du and x = caches[i][:n, :B] its input jets, whose summed product
    jets.affine_weights_adjoint(a, x) is the conjugate of dL/dW and dL/db.

    `a` is yielded before the layer's input adjoint is written over it: a
    caller that needs it after resuming the generator copies it.  `adj`
    (only read) is dL/dRe + i dL/dIm; the sweep carries its conjugate
    2 dL/du, which passes each holomorphic step as a plain product, in the
    caches' dtype.  caches[i] is layer i's input and, as exp's output, the
    derivative jet of layer i - 1.  Only the first n channels and the first
    B rows of the caches take part: rows past B hold test points, and an
    adjoint that is zero above channel n - 1 stays so through every layer
    (the Leibniz rule of truncated series), so a sweep seeded at a low
    channel skips the rows above it.  Reads the live weight arrays, so it
    must run before they are updated.
    """
    n, b = adj.shape
    a = np.conj(adj[:, :, None]).astype(caches[0].dtype, copy=False)
    for i in reversed(range(len(net.layers))):
        if i + 1 < len(net.layers):
            a = activate_jets_adjoint(a, caches[i + 1][:n, :b])
        yield i, a, caches[i][:n, :b]
        if i:
            a = affine_jets_adjoint(a, net.layers[i].weights)


def branch_backward(net: HoloMLP, caches: list, adj: np.ndarray, out: HoloMLP) -> HoloMLP:
    """branch_sweep summed: writes per layer the complex128 dL/dW and dL/db,
    each dL/dRe + i dL/dIm, into the weights and bias of `out`, a network of
    net's shape such as a gradient's branch (param_views); returns it."""
    for i, a, x in branch_sweep(net, caches, adj):
        for o, v in zip((out.layers[i].weights, out.layers[i].bias), affine_weights_adjoint(a, x)):
            np.conj(v, out=o)  # the sweep resumes without this layer's gradient
    return out


# Jet orders (phi branch, psi branch): exactly the channels elasticity.km_fields
# reads, so no branch computes a derivative it never uses.
JET_ORDERS = (2, 1)


def mlp_forward(pair: BranchPair, seeds: np.ndarray, where: str = "", caches=None) -> tuple[np.ndarray, np.ndarray]:
    """The (phi, psi) branch jets of `pair` from the seed jets seed_jets(z)
    (flattened points z, in the branches' complex dtype), each at its
    JET_ORDERS order, for elasticity.km_fields: phi reads the seeds and psi
    their first two channels, the order-1 seed jets.  With
    `caches`, a (phi, psi) pair of lists, records each branch's forward_jets
    layer caches.  Both return complex128.  An overflow names
    "{where}phi" or "{where}psi" and the layer."""
    cphi, cpsi = caches or (None, None)
    order_phi, order_psi = JET_ORDERS
    jp = forward_jets(pair.phi, seeds[: order_phi + 1], cphi, where=where + "phi ")
    jq = forward_jets(pair.psi, seeds[: order_psi + 1], cpsi, where=where + "psi ")
    return jp, jq


# --- parameter flattening -----------------------------------------------------
#
# Optimizers and finite differences see every complex parameter as a pair of
# reals.  Ordering is pair-major, phi branch before psi, layers in order,
# weights before bias, re/im interleaved (the complex128 memory layout).


def _param_arrays(pairs: Sequence[BranchPair]):
    for pair in pairs:
        for net in (pair.phi, pair.psi):
            for layer in net.layers:
                yield layer.weights
                yield layer.bias


def flatten_params(pairs: Sequence[BranchPair]) -> np.ndarray:
    parts = [a.view(np.float64).ravel() for a in _param_arrays(pairs)]
    return np.concatenate(parts) if parts else np.zeros(0)


def write_params(pairs: Sequence[BranchPair], vec: np.ndarray) -> None:
    """Scatter a flat real vector back into the network arrays, in place."""
    pos = 0
    for a in _param_arrays(pairs):
        n = 2 * a.size
        a.view(np.float64).ravel()[:] = vec[pos : pos + n]
        pos += n
    if pos != vec.size:
        raise ValueError(f"parameter vector has {vec.size} entries, networks need {pos}")


def param_views(pairs: Sequence[BranchPair], vec: np.ndarray) -> list[BranchPair]:
    """Branch pairs shaped as `pairs` whose every weights and bias array is a
    complex view of the real vector vec, in flatten_params order: train's
    networks over Adam's vector, and a gradient's branch pairs over its own."""
    pos = 0

    def view(a: np.ndarray) -> np.ndarray:
        nonlocal pos
        pos += 2 * a.size
        return vec[pos - 2 * a.size : pos].view(np.complex128).reshape(a.shape)

    def mlp(net: HoloMLP) -> HoloMLP:
        return HoloMLP([LayerParams(view(l.weights), view(l.bias)) for l in net.layers])

    return [BranchPair(mlp(p.phi), mlp(p.psi)) for p in pairs]


# --- initialization ---------------------------------------------------------


def init_weights(net: HoloMLP, probe, beta: float, m_e: int, rng: Rng) -> HoloMLP:
    """Probe-calibrated Gaussian initialization of `net`, in place; returns it.

    Layers below m_e scale the weight variance by the sample mean of
    |x_{l-1}|^2 over a propagated probe of boundary points (complex
    coordinates); from m_e on, the pre-activations y are assumed Gaussian,
    with Var Re y = Var Im y = beta/2, so E|exp y|^2 = e^beta sets the scale.
    Biases start at zero.  The probe is propagated only up to the input of
    the last layer below m_e, so m_e = 2 propagates nothing and m_e >= L + 1
    reaches x_{L-1}.  A probe statistic that is not finite and positive (an
    overflowed propagation) raises NonFiniteError naming the layer that
    reads it.
    """
    probe = np.asarray(probe, dtype=np.complex128).ravel()
    if probe.size == 0:
        raise ValueError("init probe must be nonempty")
    if m_e < 2:
        raise ValueError(f"m_e must be >= 2, got {m_e}")
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be a finite positive number, got {beta}")
    if not (BETA3 <= beta <= BETA1):
        warnings.warn(
            f"beta={beta:.4g} outside the admissible range [{BETA3:.4g}, {BETA1:.4g}]; "
            "expect unstable gradients",
            stacklevel=2,
        )
    x = probe.reshape(-1, 1)
    # the probe reaches x_{last-1}, the input of the last layer that reads a
    # statistic of it; each propagated x is checked by the next layer's m_l
    last = min(m_e, len(net.layers) + 1) - 1
    for l, layer in enumerate(net.layers, start=1):
        no, ni = layer.weights.shape
        if l <= last:
            m_l = float(np.mean(np.abs(x) ** 2))
            if not math.isfinite(m_l) or m_l <= 0.0:
                raise NonFiniteError(f"probe propagation degenerate at layer {l}: m_l={m_l}")
            var = beta / (2.0 * ni * m_l)
        else:
            var = beta / (2.0 * ni * math.exp(beta))
        layer.weights[:] = rng.complex_normal(no * ni, std=math.sqrt(var)).reshape(no, ni)
        layer.bias[:] = 0.0
        if l < last:
            # one pre-activation and one activation alive at a time
            x = x @ layer.weights.T
            x = act_derivs(ActivationKind.EXP, x)
    return net


# --- checkpoints ------------------------------------------------------------


def _layer_arrays(obj: dict) -> dict:
    """json object_hook: a layer's weights and bias become float arrays as soon
    as the decoder closes the layer, so one layer's Python lists live at a
    time.  A value that does not convert becomes an empty array, and [re, im]
    pairs holding strings or booleans (which asarray takes) a NaN one."""
    for k in ("weights", "bias"):
        if k not in obj:
            continue
        try:
            a = np.asarray(obj[k], dtype=float)
        except (TypeError, ValueError):
            a = np.empty(0)
        if a.ndim == 2 and a.shape[1] == 2 and not {type(v) for p in obj[k] for v in p} <= {int, float}:
            a[:] = np.nan
        obj[k] = a
    return obj


def _pairs_to_complex(a: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    if a.shape != (math.prod(shape), 2):
        raise ValueError(f"{what} must be {math.prod(shape)} [re, im] pairs")
    if not np.isfinite(a).all():  # json reads NaN/Infinity
        raise ValueError(f"{what} must hold finite numbers")
    return a.view(np.complex128).reshape(shape)


def checkpoint_save(path: str, pairs: Sequence[BranchPair]) -> None:
    """JSON checkpoint with exact [re, im] weight round-trip, written atomically
    one weight row at a time.  A non-finite weight or bias raises ValueError
    naming the pair, branch and layer and leaves any file at path as it was."""
    write_text_atomic(path, _checkpoint_chunks(path, pairs))


def _pairs_json(a: np.ndarray) -> str:
    """[[re, im], ...] of a complex row, as json.dumps writes it."""
    return json.dumps(np.ascontiguousarray(a).view(np.float64).reshape(-1, 2).tolist())


def _checkpoint_chunks(path: str, pairs: Sequence[BranchPair]):
    """The text of json.dumps({"pairs": [...]}) in pieces: each pair's and
    branch's head, then each layer's shape, weights and bias, no piece holding
    more than one weight row, so a save's memory follows a row, not the network."""
    yield '{"pairs": ['
    for pi, pair in enumerate(pairs):
        yield ", {" if pi else "{"
        for name, net in (("phi", pair.phi), ("psi", pair.psi)):
            yield f'{", " if name == "psi" else ""}"{name}": {{"layers": ['
            for li, l in enumerate(net.layers, start=1):
                for what, a in (("weights", l.weights), ("bias", l.bias)):
                    if not np.isfinite(a).all():
                        raise ValueError(
                            f"checkpoint {path}: pair {pi} {name}: layer {li} {what} must hold finite numbers"
                        )
                yield f'{", " if li > 1 else ""}{{"shape": {json.dumps(list(l.weights.shape))}, "weights": ['
                for ri, row in enumerate(l.weights):
                    yield (", " if ri else "") + _pairs_json(row)[1:-1]
                yield f'], "bias": {_pairs_json(l.bias)}}}'
            yield "]}"
        yield "}"
    yield "]}"


def _no_other_keys(obj: dict, keys: set, where: str) -> None:
    """Fail, naming `where`, on the first key of obj (sorted) that is not in keys."""
    unknown = sorted(obj.keys() - keys)
    if unknown:
        raise ValueError(f"{where}: unknown key {unknown[0]!r}")


def checkpoint_load(path: str) -> list[BranchPair]:
    """Branch pairs of a checkpoint_save file.

    A malformed file fails with a ValueError naming the pair, branch and
    layer: `pairs` must be a list and the file's only key, a pair holds `phi`
    and `psi` alone, a branch holds `layers` as its only key, shapes must be
    positive [n_out, n_in], weights and bias must hold n_out * n_in and n_out
    [re, im] pairs of finite JSON numbers, and the widths must chain 1 -> 1.
    """
    with open(path) as fh:  # an integer past the float range reads as a signed inf, which fails as 1e309 does
        doc = json.load(fh, object_hook=_layer_arrays,
                        parse_int=lambda s: int(s) if math.isfinite(float(s)) else float(s))
    if not isinstance(doc, dict) or not doc.get("pairs"):
        raise ValueError(f"checkpoint {path}: no network pairs")
    if not isinstance(doc["pairs"], list):
        raise ValueError(f"checkpoint {path}: pairs must be a list, got {type(doc['pairs']).__name__}")
    _no_other_keys(doc, {"pairs"}, f"checkpoint {path}")
    pairs = []
    for pi, entry in enumerate(doc["pairs"]):
        if isinstance(entry, dict):
            _no_other_keys(entry, {"phi", "psi"}, f"checkpoint {path}: pair {pi}")
        nets = {}
        for name in ("phi", "psi"):
            try:
                spec = entry[name]
                layers = []
                for li, l in enumerate(spec["layers"], start=1):
                    shape = tuple(l["shape"])
                    if len(shape) != 2 or not all(type(v) is int and v > 0 for v in shape):
                        raise ValueError(f"layer {li}: shape {list(shape)} is not [n_out, n_in] > 0")
                    layers.append(LayerParams(
                        _pairs_to_complex(l["weights"], shape, f"layer {li} weights"),
                        _pairs_to_complex(l["bias"], shape[:1], f"layer {li} bias"),
                    ))
                nets[name] = HoloMLP(layers)
            except (KeyError, TypeError) as e:
                raise ValueError(f"checkpoint {path}: pair {pi} {name}: missing or malformed {e}") from e
            except ValueError as e:
                raise ValueError(f"checkpoint {path}: pair {pi} {name}: {e}") from e
            _no_other_keys(spec, {"layers"}, f"checkpoint {path}: pair {pi} {name}")
        pairs.append(BranchPair(nets["phi"], nets["psi"]))
    return pairs


# --- shallow Taylor-matching approximator ------------------------------------


def _ulps(x: float) -> dict[int, float]:
    """x moved by k = -3..3 ulps."""
    out = {0: x}
    for k in range(1, 4):
        out[k], out[-k] = math.nextafter(out[k - 1], math.inf), math.nextafter(out[1 - k], -math.inf)
    return out


# (cos, sin) ulp offsets, smaller first
_ULP_STEPS = sorted(itertools.product(range(-3, 4), repeat=2), key=lambda k: (abs(k[0]) + abs(k[1]), k))


def unit_roots(n: int) -> np.ndarray:
    """The n-th roots of unity with |b_j| == 1 exact under np.abs.

    np.cos and np.sin put each root within an ulp of the unit circle, but
    np.abs does not always round its modulus to 1.0; both components are
    then moved by up to 3 ulps, smaller offsets first, until it does.
    """
    out = np.empty(n, dtype=np.complex128)
    for j in range(n):
        theta = 2.0 * math.pi * j / n
        cs, ss = _ulps(float(np.cos(theta))), _ulps(float(np.sin(theta)))
        for kc, ks in _ULP_STEPS:
            v = complex(cs[kc], ss[ks])
            if np.abs(v) == 1.0:
                out[j] = v
                break
        else:
            raise ArithmeticError(f"no exact unit root near angle {theta}")
    return out


@dataclass
class ShallowApprox:
    """Single-hidden-layer exponential net  g~(z) = sum_j a_j * e^(b_j z + c_j),
    with the Taylor coefficients `taylor` at z0 that it matches (see
    constructive_shallow and shallow_eval)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    taylor: np.ndarray
    z0: complex


def constructive_shallow(
    taylor: Sequence[complex], z0: complex = 0.0, xi: complex = 0.0, n: Optional[int] = None
) -> ShallowApprox:
    """Shallow exponential net matching the first n Taylor coefficients at z0.

    Frequencies b_j are the n-th roots of unity and shifts c_j = xi - b_j z0,
    so matching the coefficients reduces to a Vandermonde system at the roots
    of unity, i.e. an inverse DFT of s_k = taylor_k * k! * e^-xi.  Any xi
    works for the exponential activation (its derivatives never vanish);
    xi = 0 is the default.
    """
    if n is None:
        n = len(taylor)
    if n < 1:
        raise ValueError(f"need at least one unit, got n={n}")
    if n > len(taylor):
        raise ValueError(f"n={n} exceeds the {len(taylor)} supplied coefficients")
    g = np.asarray(taylor[:n], dtype=np.complex128)
    k = np.arange(n)
    s = g * np.array([math.factorial(int(j)) for j in k], dtype=float) * np.exp(-complex(xi))
    # V[k, j] = w^{jk} is the forward DFT matrix, so V^(-1) s is fft(s)/n
    a = np.fft.fft(s) / n
    b = unit_roots(n)
    c = complex(xi) - b * complex(z0)
    return ShallowApprox(a, b, c, g.copy(), complex(z0))


def shallow_eval(s: ShallowApprox, z) -> np.ndarray:
    """Value of the shallow net at z.

    The raw sum over units cancels catastrophically once ~20 units are used
    (|a_j| grows like k!/r^k while the value stays O(1)), so the net is
    evaluated through the exact identity

        sum_j a_j e^(b_j z + c_j) = sum_k g_k k! sum_l w^(k+ln) / (k+ln)!

    with w = z - z0, whose terms never cancel on bounded w.
    """
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    w = z.ravel() - s.z0
    n = s.b.size
    out = np.zeros_like(w)
    for k in range(n - 1, -1, -1):
        coef = s.taylor[k] * math.factorial(k)
        m = k
        fact = float(math.factorial(k))
        wp = w**k
        wn = w**n
        while True:
            term = coef * wp / fact
            out += term
            if np.max(np.abs(term)) < 1e-300 or m > k + 8 * n + 64:
                break
            m += n
            fact *= math.prod(range(m - n + 1, m + 1))
            wp = wp * wn
    return complex(out[0]) if scalar else out.reshape(z.shape)
