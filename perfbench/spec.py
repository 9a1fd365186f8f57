"""Workload plans for the holoelastic benchmark.

A plan is plain JSON: the generated config copies and the list of timed
operations a worker process executes.  Everything in a plan is a function of
the workload seed and the run length, so the same arguments give the same
inputs on every commit.  This module imports no numpy; the orchestrator uses
it before any worker starts.
"""

from __future__ import annotations

import copy
import json
import os

# Nominal costs on the reference machine (2 vCPU Xeon, one BLAS thread).
# They only turn --seconds into an amount of work; the work never depends on
# how fast the code under test happens to run.
RING_TRAIN_S = 3.5
RING_EVAL_S = 3.0
SQUARE_EPOCH_S = 0.065
SQUARE_FIXED_S = 1.0
DIAG_CALL_S = 11.5

# Machine-speed calibration (worker.Calibration): bursts per workload run and
# per set-up probe, and the burst time on the reference machine that the gated
# times are scaled to.
CALIB_BURSTS = 24
SETUP_BURSTS = 3
CALIB_REF_S = 0.05

RING_TARGET_TEST_LOSS = 3e-4  # tta_s target on the held-out ring loss
RING_EVAL_GRID = [400, 400]
DIAG_SHAPE = {"arch": [100] * 7, "beta": 0.5, "m_e": None, "probe": 10_000, "batch": 1_000}

THREAD_VARS = ("HOLOELASTIC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

LAYERS = ("problem", "geometry", "rng", "network", "jets", "elasticity", "autodiff",
          "training", "analytics", "export", "cli")

# Layer metric -> end-to-end metric it should move -> workloads where it should
# move, and where the prediction is no change.  Later changes cite these rows.
LAYER_MAP = [
    ("jets.affine_ms", "op_s (epoch_ms.p50, diag_s)", ["square_wide", "init_check"], ["ring_fit"]),
    ("jets.act_ms", "op_s (epoch_ms.p50, diag_s)", ["ring_fit", "square_wide", "init_check"], []),
    ("autodiff.forward_self_ms", "op_s (epoch_ms.p50, tta_s)", ["ring_fit"], ["square_wide"]),
    ("autodiff.backward_self_ms", "op_s (epoch_ms.p50, tta_s)", ["ring_fit"], ["square_wide"]),
    ("autodiff.test_ms", "op_s (epoch_ms.p50, tta_s)", ["ring_fit"], ["square_wide"]),
    ("elasticity.residual_ms", "op_s (epoch_ms.p50)", ["ring_fit"], ["square_wide"]),
    ("training.adam_ms", "op_s (tta_s)", ["ring_fit"], ["init_check"]),
    ("training.steps_to_target", "tta_s", ["ring_fit"], ["init_check"]),
    ("network.init_ms", "setup_s, op_s (train_s, diag_s)", ["square_wide", "init_check"], ["ring_fit"]),
    ("network.ckpt_save_ms", "op_s (train_s)", ["square_wide"], ["ring_fit"]),
    ("geometry.sample_ms", "setup_s", ["ring_fit", "square_wide", "init_check"], []),
    ("geometry.mask_ms", "eval_s", ["ring_fit"], ["square_wide", "init_check"]),
    ("problem.load_ms", "setup_s", ["ring_fit", "square_wide", "init_check"], []),
    ("analytics.variance_self_ms", "op_s (diag_s)", ["init_check"], ["ring_fit", "square_wide"]),
    ("export.fields_csv_ms", "eval_s", ["ring_fit"], ["square_wide", "init_check"]),
]


def _load_doc(root: str, name: str) -> dict:
    with open(os.path.join(root, "configs", f"{name}.json")) as fh:
        return json.load(fh)


def _write_cfg(doc: dict, work: str, tag: str, seed: int, epochs=None, grid=None) -> dict:
    d = copy.deepcopy(doc)
    out_dir = os.path.join(work, tag)
    d["training"]["seed"] = seed
    if epochs is not None:
        d["training"]["epochs"] = epochs
    if grid is not None:
        d["outputs"]["grid"] = list(grid)
    d["outputs"]["dir"] = out_dir
    path = os.path.join(work, f"{tag}.json")
    with open(path, "w") as fh:
        json.dump(d, fh, indent=1)
    return {"config": path, "out_dir": out_dir, "seed": seed}


def _train_op(cfg: dict, tag: str, repeat_of=None) -> dict:
    return {"id": tag, "kind": "train", "argv": ["train", cfg["config"]], "out_dir": cfg["out_dir"],
            "seed": cfg["seed"], "repeat_of": repeat_of}


def ring_fit(root: str, work: str, seed: int, seconds: float) -> dict:
    doc = _load_doc(root, "ring_quadrant")
    n_seeds = max(3, round((seconds - RING_EVAL_S) / RING_TRAIN_S) - 1)
    cfgs = [_write_cfg(doc, work, f"ring_s{seed + i}", seed + i, grid=RING_EVAL_GRID) for i in range(n_seeds)]
    again = _write_cfg(doc, work, f"ring_s{seed}_again", seed, grid=RING_EVAL_GRID)
    ops = [_train_op(c, f"train_s{c['seed']}") for c in cfgs[:3]]
    first = cfgs[0]
    ops.append({"id": "eval", "kind": "eval", "out_dir": first["out_dir"],
                "argv": ["eval", first["config"], os.path.join(first["out_dir"], "checkpoint.json")]})
    ops += [_train_op(c, f"train_s{c['seed']}") for c in cfgs[3:]]
    ops.append(_train_op(again, f"train_s{seed}_again", repeat_of=f"train_s{seed}"))
    return {"workload": "ring_fit", "main": "train", "ops": ops, "protocol_seeds": 3,
            "target": RING_TARGET_TEST_LOSS, "setup": {"config": first["config"], "kind": "train"}}


def square_wide(root: str, work: str, seed: int, seconds: float) -> dict:
    doc = _load_doc(root, "clamped_square")
    n_seeds = 4
    epochs = max(40, round((seconds / (n_seeds + 1) - SQUARE_FIXED_S) / SQUARE_EPOCH_S))
    cfgs = [_write_cfg(doc, work, f"square_s{seed + i}", seed + i, epochs=epochs) for i in range(n_seeds)]
    again = _write_cfg(doc, work, f"square_s{seed}_again", seed, epochs=epochs)
    ops = [_train_op(c, f"train_s{c['seed']}") for c in cfgs]
    ops.append(_train_op(again, f"train_s{seed}_again", repeat_of=f"train_s{seed}"))
    return {"workload": "square_wide", "main": "train", "ops": ops, "protocol_seeds": 1,
            "target": None, "setup": {"config": cfgs[0]["config"], "kind": "train"}}


def init_check(root: str, work: str, seed: int, seconds: float) -> dict:
    n_calls = max(1, round(seconds / DIAG_CALL_S))
    ops = [{"id": f"diag_s{seed + i}", "kind": "diag", "seed": seed + i, **DIAG_SHAPE} for i in range(n_calls)]
    # Set-up samples the same probe and batch sizes on the clamped square.
    doc = _load_doc(root, "clamped_square")
    doc["networks"].update(hidden_layers=len(DIAG_SHAPE["arch"]), units=DIAG_SHAPE["arch"][0])
    doc["training"].update(n_train=DIAG_SHAPE["batch"], beta=DIAG_SHAPE["beta"])
    cfg = _write_cfg(doc, work, f"diag_s{seed}", seed, epochs=0)
    return {"workload": "init_check", "main": "diag", "ops": ops, "protocol_seeds": n_calls,
            "target": None, "setup": {"config": cfg["config"], "kind": "diag", "probe": DIAG_SHAPE["probe"]}}


def smoke(root: str, work: str) -> dict:
    """Two training epochs then a 10x10 eval of every shipped config."""
    names = sorted(f[:-5] for f in os.listdir(os.path.join(root, "configs")) if f.endswith(".json"))
    entries = []
    for name in names:
        doc = _load_doc(root, name)
        cfg = _write_cfg(doc, work, f"smoke_{name}", doc["training"]["seed"], epochs=2, grid=[10, 10])
        entries.append({"name": name, **cfg})
    return {"configs": entries}


PLANS = {"ring_fit": ring_fit, "square_wide": square_wide, "init_check": init_check}
