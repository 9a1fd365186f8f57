"""Span tracing of holoelastic's layers from outside the package.

`install` replaces each layer entry point with a wrapper in every holoelastic
module that holds a reference to it, so the calling module's own name lookup
lands on the wrapper.  Spans (name, start, end, parent, run id, measure) are
kept in memory and written out once the workload ends.  Wrappers pass straight
through while the tracer is off.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

from spec import LAYERS


# A measure returns (counts, operands); the tracer keeps a copy of the operands
# of the first call per shape for the reference kernels.


def _affine_measure(args, kwargs, out):
    jets, w = args[0], args[1]
    rows, ni, no = jets.shape[0] * jets.shape[1], w.shape[1], w.shape[0]
    return {"shape": (rows, ni, no), "flop": 8.0 * rows * ni * no}, (jets, w)


def _activate_measure(args, kwargs, out):
    y = args[1][0]
    return {"shape": y.shape, "elems": y.size}, y


def _act_derivs_measure(args, kwargs, out):
    y = np.asarray(args[1])
    return {"shape": y.shape, "elems": y.size}, y


def _count_measure(args, kwargs, out):
    return {"n": len(out)}, None


def _tape_measure(args, kwargs, out):
    return {"ops": len(out[1].ops)}, None


# (module, attribute or Class.method, span name, measure)
ENTRY_POINTS = [
    ("holoelastic.cli", "run_command", "cli.run_command", None),
    ("holoelastic.problem", "load_config", "problem.load_config", None),
    ("holoelastic.geometry", "sample_boundary", "geometry.sample_boundary", _count_measure),
    ("holoelastic.geometry", "region_contains", "geometry.region_contains", None),
    ("holoelastic.rng", "Rng.normal", "rng.normal", None),
    ("holoelastic.network", "init_weights", "network.init_weights", None),
    ("holoelastic.network", "flatten_params", "network.flatten_params", None),
    ("holoelastic.network", "write_params", "network.write_params", None),
    ("holoelastic.network", "mlp_forward", "network.mlp_forward", None),
    ("holoelastic.network", "checkpoint_save", "network.checkpoint_save", None),
    ("holoelastic.network", "checkpoint_load", "network.checkpoint_load", None),
    ("holoelastic.jets", "seed_jets", "jets.seed_jets", None),
    ("holoelastic.jets", "affine_jets", "jets.affine_jets", _affine_measure),
    ("holoelastic.jets", "activate_jets", "jets.activate_jets", _activate_measure),
    ("holoelastic.jets", "act_derivs", "jets.act_derivs", _act_derivs_measure),
    ("holoelastic.elasticity", "km_fields", "elasticity.km_fields", None),
    ("holoelastic.elasticity", "bc_residual", "elasticity.bc_residual", None),
    ("holoelastic.elasticity", "interface_residual", "elasticity.interface_residual", None),
    ("holoelastic.elasticity", "assemble_loss", "elasticity.assemble_loss", None),
    ("holoelastic.elasticity", "group_weights", "elasticity.group_weights", None),
    ("holoelastic.autodiff", "pack_batch", "autodiff.pack_batch", None),
    ("holoelastic.autodiff", "loss_forward", "autodiff.loss_forward", _tape_measure),
    ("holoelastic.autodiff", "loss_value", "autodiff.loss_value", None),
    ("holoelastic.autodiff", "loss_backward", "autodiff.loss_backward", None),
    ("holoelastic.autodiff", "WeightGrad.to_vector", "autodiff.to_vector", None),
    ("holoelastic.training", "train", "training.train", None),
    ("holoelastic.training", "adam_step", "training.adam_step", None),
    ("holoelastic.analytics", "eval_grid", "analytics.eval_grid", None),
    ("holoelastic.analytics", "variance_report", "analytics.variance_report", None),
    ("holoelastic.analytics", "init_diagnostics", "analytics.init_diagnostics", None),
    ("holoelastic.analytics", "ring_exact_potentials", "analytics.errors", None),
    ("holoelastic.analytics", "ring_exact_stress", "analytics.errors", None),
    ("holoelastic.analytics", "rotate_stress", "analytics.errors", None),
    ("holoelastic.analytics", "rel_l2", "analytics.errors", None),
    ("holoelastic.analytics", "rms", "analytics.errors", None),
    ("holoelastic.export", "write_fields_csv", "export.write_fields_csv", None),
    ("holoelastic.export", "write_history_csv", "export.write_history_csv", None),
    ("holoelastic.export", "write_errors_csv", "export.write_errors_csv", None),
    ("holoelastic.export", "write_variance_csv", "export.write_variance_csv", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run_id, measure]
        self.samples: dict[tuple, object] = {}  # (span name, shape) -> operand copies
        self.stack: list[int] = []
        self.on = False
        self.run_id = 0

    def call(self, name, measure, fn, args, kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.run_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
        if measure is not None:
            rec[5], operands = measure(args, kwargs, out)
            key = (name, rec[5].get("shape"))
            if operands is not None and key not in self.samples:
                copies = tuple(np.array(a) for a in operands) if isinstance(operands, tuple) else np.array(operands)
                self.samples[key] = copies
        return out

    def wrap(self, name, measure, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, measure, fn, args, kwargs)

        return traced

    def install(self) -> None:
        """Patch every holoelastic module (and class) that refers to an entry point."""
        for mod_name, attr, span, measure in ENTRY_POINTS:
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(span, measure, cls.__dict__[meth]))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(span, measure, orig)
            for name, m in list(sys.modules.items()):
                if name.startswith("holoelastic") and getattr(m, attr, None) is orig:
                    setattr(m, attr, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, run_id, measure in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent,
                                     "run": run_id, **(measure or {})}) + "\n")


# --- per-layer metrics ----------------------------------------------------------


def _self_times(spans) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _is_activation(spans, name: str, parent: int) -> bool:
    """activate_jets, or act_derivs called from outside it (probe propagation)."""
    nested = parent >= 0 and spans[parent][0] == "jets.activate_jets"
    return name == "jets.activate_jets" or (name == "jets.act_derivs" and not nested)


def _time_call(fn, min_s: float = 0.02, reps: int = 5) -> float:
    """Median seconds per call, batching calls until one rep lasts min_s."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        dt = time.perf_counter() - t0
        if dt >= min_s / reps or n >= 1 << 16:
            break
        n *= 4
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return float(np.median(times))


def reference_kernels(spans, samples: dict) -> dict:
    """Bare numpy matmul and complex exp on the workload's own shapes and values.

    Each exp is timed right after a 2x2 real matmul, so no complex GEMM
    precedes it; each matmul runs on the operands of its first traced call.
    """
    affine, act = {}, {}
    for name, _, _, parent, _, m in spans:
        if name == "jets.affine_jets":
            affine.setdefault(m["shape"], [0, m["flop"], samples[name, m["shape"]]])[0] += 1
        elif _is_activation(spans, name, parent) and m["elems"]:
            act.setdefault(m["shape"], [0, m["elems"], samples[name, m["shape"]]])[0] += 1
    flop = t_mm = 0.0
    for count, f, (jets, w) in affine.values():
        x = np.ascontiguousarray(jets.reshape(-1, jets.shape[-1]))
        wt = w.T
        flop += count * f
        t_mm += count * _time_call(lambda: x @ wt)
    elems = t_exp = 0.0
    clean = np.ones((2, 2))
    for count, e, y in act.values():

        def bare_exp():
            clean @ clean
            np.exp(y)

        elems += count * e
        t_exp += count * (_time_call(bare_exp) - _time_call(lambda: clean @ clean))
    return {
        "ref.matmul_gflops": flop / t_mm / 1e9 if t_mm > 0 else 0.0,
        "ref.exp_ns_per_elem": 1e9 * t_exp / elems if elems else 0.0,
        "ref.affine_shapes": len(affine),
        "ref.act_shapes": len(act),
    }


def layer_metrics(spans, wall_s: float, files: dict) -> dict:
    """Per-layer numbers (totals over the traced run) from the recorded spans."""
    own = _self_times(spans)
    dur = defaultdict(float)
    selft = defaultdict(float)
    calls = defaultdict(int)
    for (name, t0, t1, *_), s in zip(spans, own):
        dur[name] += t1 - t0
        selft[name] += s
        calls[name] += 1
    ms = lambda v: 1e3 * v  # noqa: E731
    out = {}
    layer_self = defaultdict(float)
    for name, v in selft.items():
        layer_self[name.split(".")[0]] += v
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = ms(layer_self[layer])

    gflop = sum(m["flop"] for n, *_, m in spans if n == "jets.affine_jets") / 1e9
    act_elems = act_calls = 0
    for n, _, _, parent, _, m in spans:
        if _is_activation(spans, n, parent):
            act_elems += m["elems"]
            act_calls += 1
    act_s = selft["jets.activate_jets"] + selft["jets.act_derivs"]
    out.update({
        "jets.affine_ms": ms(selft["jets.affine_jets"]),
        "jets.affine_calls": calls["jets.affine_jets"],
        "jets.affine_gflop": gflop,
        "jets.affine_gflops": gflop / selft["jets.affine_jets"] if selft["jets.affine_jets"] else 0.0,
        "jets.act_ms": ms(act_s),
        "jets.act_calls": act_calls,
        "jets.act_ns_per_elem": 1e9 * act_s / act_elems if act_elems else 0.0,
        "autodiff.pack_ms": ms(selft["autodiff.pack_batch"]),
        "autodiff.forward_self_ms": ms(selft["autodiff.loss_forward"]),
        "autodiff.backward_self_ms": ms(selft["autodiff.loss_backward"]),
        "autodiff.test_ms": ms(dur["autodiff.loss_value"]),
        "autodiff.grad_vec_ms": ms(dur["autodiff.to_vector"]),
        "autodiff.tape_ops": float(np.median([m["ops"] for n, *_, m in spans if n == "autodiff.loss_forward"]
                                             or [0])),
        "elasticity.km_ms": ms(selft["elasticity.km_fields"]),
        "elasticity.residual_ms": ms(selft["elasticity.bc_residual"] + selft["elasticity.interface_residual"]),
        "elasticity.loss_ms": ms(selft["elasticity.assemble_loss"] + selft["elasticity.group_weights"]),
        "training.adam_ms": ms(dur["training.adam_step"]),
        "training.epoch_self_ms": ms(selft["training.train"]),
        "network.init_ms": ms(dur["network.init_weights"]),
        "network.params_ms": ms(dur["network.flatten_params"] + dur["network.write_params"]),
        "network.forward_ms": ms(dur["network.mlp_forward"]),
        "network.ckpt_save_ms": ms(dur["network.checkpoint_save"]),
        "network.ckpt_load_ms": ms(dur["network.checkpoint_load"]),
        "network.ckpt_bytes": files.get("checkpoint", 0),
        "geometry.sample_ms": ms(selft["geometry.sample_boundary"]),
        "geometry.samples": sum(m["n"] for n, *_, m in spans if n == "geometry.sample_boundary"),
        "geometry.mask_ms": ms(dur["geometry.region_contains"]),
        "rng.normal_ms": ms(dur["rng.normal"]),
        "problem.load_ms": ms(dur["problem.load_config"]),
        "analytics.eval_grid_self_ms": ms(selft["analytics.eval_grid"]),
        "analytics.variance_self_ms": ms(selft["analytics.variance_report"] + selft["analytics.init_diagnostics"]),
        "analytics.errors_ms": ms(dur["analytics.errors"]),
        "export.fields_csv_ms": ms(dur["export.write_fields_csv"]),
        "export.fields_csv_mb": files.get("fields", 0) / 1e6,
        "export.history_csv_ms": ms(dur["export.write_history_csv"]),
        "trace.wall_ms": ms(wall_s),
        "trace.unattributed_ms": ms(wall_s - sum(t1 - t0 for _, t0, t1, p, *_ in spans if p < 0)),
    })
    return out
