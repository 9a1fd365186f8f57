"""One benchmark process: set-up probe, timed workload, or config smoke check.

Started by perfbench/run.py with the BLAS pools capped at one thread and
`src/` on the path; it writes its findings as JSON to the --out file.

    python3 perfbench/worker.py workload --plan PLAN --out OUT [--trace]
    python3 perfbench/worker.py setup --plan PLAN --out OUT
    python3 perfbench/worker.py smoke --plan PLAN --out OUT
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spec import CALIB_BURSTS, SETUP_BURSTS, THREAD_VARS  # noqa: E402


def blas_info() -> dict:
    """numpy/OpenBLAS versions and the thread count the loaded OpenBLAS will use."""
    import numpy as np

    info = {"python": platform.python_version(), "numpy": np.__version__, "blas": None, "blas_threads": None,
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info["blas"] = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    libdir = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


class Calibration:
    """A fixed burst of work whose time tracks how fast the shared machine runs.

    Small complex GEMMs, complex exp and reductions on 10-wide arrays (the
    per-call overhead regime of the small configs), then a pure-Python loop.
    It calls nothing in holoelastic, so a change to the program cannot change
    it.  On a 2-vCPU Xeon VM, over 30-second windows, burst times correlated
    0.93-0.97 with ring_quadrant and clamped_square epoch times while both
    drifted by 10-30%; the gated times are divided by it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.np = np
        self.x = rng.standard_normal((660, 10)) + 1j * rng.standard_normal((660, 10))
        self.w = 0.3 * (rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
        self.clean = np.ones((2, 2))

    def __call__(self) -> float:
        np, x, w = self.np, self.x, self.w
        self.clean @ self.clean
        t0 = time.perf_counter()
        for _ in range(40):
            y = x @ w.T
            float(np.abs(np.exp(y[:220]) * y[220:440] + y[440:]).sum())
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        return time.perf_counter() - t0


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# --- set-up probe -----------------------------------------------------------------


def setup_probe(plan: dict) -> None:
    """Imports, config load, boundary sampling, packing and probe-calibrated init."""
    import numpy as np

    from holoelastic import analytics, cli, export  # noqa: F401  (import cost is set-up)
    from holoelastic.autodiff import pack_batch
    from holoelastic.geometry import sample_boundary
    from holoelastic.problem import load_config
    from holoelastic.rng import Rng
    from holoelastic.training import build_pairs, init_pairs

    setup = plan["setup"]
    spec = load_config(setup["config"])
    cfg = spec.training
    rng = Rng(cfg.seed)
    pack_batch(sample_boundary(spec.domain, cfg.n_train, rng.spawn(1)), spec.domain)
    if setup["kind"] == "diag":
        sample_boundary(spec.domain, setup["probe"], rng.spawn(3))
        return
    pack_batch(sample_boundary(spec.domain, cfg.n_test, rng.spawn(2)), spec.domain)
    probe = np.array([s.z for s in sample_boundary(spec.domain, 10 * cfg.n_train, rng.spawn(3))])
    init_pairs(build_pairs(spec), probe, cfg.beta, cfg.m_e, rng)


# --- smoke check ------------------------------------------------------------------


def smoke(plan: dict) -> dict:
    from holoelastic import cli

    results = []
    for entry in plan["configs"]:
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            code = cli.run_command(["train", entry["config"]])
            step = "train"
            if code == 0:
                step = "eval"
                ckpt = os.path.join(entry["out_dir"], "checkpoint.json")
                code = cli.run_command(["eval", entry["config"], ckpt])
        msg = err.getvalue().strip().splitlines()
        results.append({"name": entry["name"], "passed": code == 0, "seconds": time.perf_counter() - t0,
                        "detail": "" if code == 0 else f"{step} exit {code}: {msg[-1] if msg else ''}"})
    return {"configs": results}


# --- timed workload ---------------------------------------------------------------


class Workload:
    def __init__(self, plan: dict, trace: bool):
        from holoelastic import training

        self.plan = plan
        self.histories: dict[str, object] = {}
        self.pairs: dict[str, object] = {}
        self.reports: dict[str, object] = {}
        self._current = None
        self.tracer = None
        if trace:
            from spans import Tracer

            self.tracer = Tracer()
        # Keep the History and networks that `holoelastic train` computes; the
        # CLI writes only the loss columns, and the epoch times are needed too.
        original = training.train

        def keep_result(*args, **kwargs):
            pairs, history = original(*args, **kwargs)
            self.histories[self._current] = history
            self.pairs[self._current] = pairs
            return pairs, history

        training.train = keep_result

    def run_op(self, op: dict, traced: bool) -> dict:
        from holoelastic import analytics, cli
        from holoelastic.jets import ActivationKind

        self._current = op["id"]
        if self.tracer is not None:
            self.tracer.on = traced
            self.tracer.run_id += 1
        code, error = 0, ""
        t0 = time.perf_counter()
        try:
            if op["kind"] == "diag":
                self.reports[op["id"]] = analytics.init_diagnostics(
                    op["arch"], ActivationKind.EXP, op["beta"], op["m_e"], op["probe"], op["batch"], op["seed"])
            else:
                code = cli.run_command(op["argv"])
        except Exception as e:  # a failed operation is counted, not fatal
            code, error = -1, f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.on = False
        return {"id": op["id"], "kind": op["kind"], "seconds": seconds, "code": code, "error": error}

    def summarize(self, rec: dict) -> None:
        """Loss and epoch-time summary of a train op; overflow flag of a diag op."""
        h = self.histories.get(rec["id"])
        if h is not None:
            target = self.plan["target"]
            hit = None if target is None else next((i for i, v in enumerate(h.test_loss) if v <= target), None)
            rec.update(epochs=len(h), ms=list(h.ms), final_train=h.train_loss[-1], final_test=h.test_loss[-1],
                       hit_epoch=hit, tta_train_s=None if hit is None else sum(h.ms[: hit + 1]) / 1e3,
                       finite=all(math.isfinite(v) for v in h.train_loss + h.test_loss))
        rep = self.reports.get(rec["id"])
        if rep is not None:
            rec.update(var_y=list(rep.var_y), overflow=any(rep.overflow),
                       finite=all(math.isfinite(v) for v in rep.var_y + rep.var_loss_w))


def check_ring_errors(plan: dict, checks: dict, result: dict) -> None:
    """errors.csv of the eval op against rel-L2 recomputed from the checkpoint."""
    import numpy as np

    from holoelastic.analytics import eval_grid, rel_l2, ring_exact_potentials
    from holoelastic.network import checkpoint_load
    from holoelastic.problem import load_config

    op = next(o for o in plan["ops"] if o["kind"] == "eval")
    with open(os.path.join(op["out_dir"], "errors.csv")) as fh:
        rows = dict(line.strip().split(",") for line in fh.readlines()[1:])
    spec = load_config(op["argv"][1])
    nx, ny = spec.outputs.grid
    grid = eval_grid(checkpoint_load(op["argv"][2]), spec, nx, ny)
    X, Y = np.meshgrid(grid.xs, grid.ys)
    ref = spec.reference
    dphi, dpsi = ring_exact_potentials(np.where(grid.mask, X + 1j * Y, 1.0), ref["p"], ref["r"], ref["R"])
    ok = True
    for name, got, want in (("rel_l2_dphi", grid.dphi, dphi), ("rel_l2_dpsi", grid.dpsi, dpsi)):
        value = rel_l2(got, want, grid.mask)
        result[name] = float(rows[name])
        ok &= math.isclose(value, float(rows[name]), rel_tol=1e-9)
    checks["errors_csv_matches_recomputed_rel_l2"] = ok
    result["fields_bytes"] = os.path.getsize(os.path.join(op["out_dir"], "fields.csv"))


def check_checkpoint(plan: dict, wl: Workload, checks: dict, result: dict, work: str) -> None:
    """checkpoint.json of the first train op reloads to the trained weights and re-saves byte for byte."""
    import numpy as np

    from holoelastic.network import checkpoint_load, checkpoint_save

    op = next(o for o in plan["ops"] if o["kind"] == "train")
    path = os.path.join(op["out_dir"], "checkpoint.json")
    loaded = checkpoint_load(path)
    again = os.path.join(work, "roundtrip.json")
    checkpoint_save(again, loaded)
    same = _read(again) == _read(path)
    for a, b in zip(loaded, wl.pairs[op["id"]]):
        for na, nb in ((a.phi, b.phi), (a.psi, b.psi)):
            same &= all(np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)
                        for la, lb in zip(na.layers, nb.layers))
    checks["checkpoint_roundtrip"] = bool(same)
    result["checkpoint_bytes"] = os.path.getsize(path)


def run_workload(plan: dict, trace: bool, work: str, trace_out: str) -> dict:
    import numpy as np

    wl = Workload(plan, trace)
    result: dict = {"env": blas_info()}
    if result["env"]["blas_threads"] not in (1, None):
        return result
    checks: dict[str, bool] = {}
    first = plan["ops"][0]
    plain = None
    if trace:
        # The first operation untraced, for the overhead and the bit-for-bit check;
        # run twice so that the compared run, like the traced one, is not the
        # process's first (cold) operation.
        wl.run_op(first, traced=False)
        plain = wl.run_op(first, traced=False)
        plain_out = wl.histories.get(first["id"]) or wl.reports.get(first["id"])
        wl.tracer.install()
    # Calibration bursts before, between and after the operations (untraced runs only).
    calibrate = Calibration()
    bursts = 0 if trace else -(-CALIB_BURSTS // (len(plan["ops"]) + 1))
    gaps, records = [], []
    for op in plan["ops"]:
        gaps.append([calibrate() for _ in range(bursts)])
        records.append(wl.run_op(op, traced=trace))
    gaps.append([calibrate() for _ in range(bursts)])
    result["calib_gaps"] = gaps  # gaps[i] ran just before op i, gaps[i + 1] just after it
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for rec in records:
        wl.summarize(rec)
    result["ops"] = records
    checks["all_ops_succeeded"] = all(r["code"] == 0 for r in records)
    checks["losses_finite"] = all(r.get("finite", True) for r in records)
    ok_ids = {r["id"] for r in records if r["code"] == 0}
    for op in plan["ops"]:
        src = op.get("repeat_of")
        if src and {src, op["id"]} <= ok_ids:
            src_dir = next(o["out_dir"] for o in plan["ops"] if o["id"] == src)
            checks[f"repeat_{src}_byte_identical"] = all(
                _read(os.path.join(src_dir, f)) == _read(os.path.join(op["out_dir"], f))
                for f in ("history.csv", "checkpoint.json"))
    if checks["all_ops_succeeded"]:
        if plan["main"] == "train":
            check_checkpoint(plan, wl, checks, result, work)
        if any(o["kind"] == "eval" for o in plan["ops"]):
            check_ring_errors(plan, checks, result)
        if plan["main"] == "diag":
            beta = first["beta"]
            checks["var_y_in_criterion_6_band"] = all(
                not r["overflow"] and all(0.3 * beta <= v <= 1.7 * beta for v in r["var_y"]) for r in records)
    if trace:
        from spans import layer_metrics, reference_kernels

        traced = wl.histories.get(first["id"]) or wl.reports.get(first["id"])
        if plan["main"] == "train":
            same = plain_out is not None and traced is not None and plain_out.train_loss == traced.train_loss
        else:
            same = plain_out is not None and plain_out == traced
        checks["trace_transparent"] = bool(same)
        wall = sum(r["seconds"] for r in records)
        files = {"checkpoint": result.get("checkpoint_bytes", 0), "fields": result.get("fields_bytes", 0)}
        metrics = layer_metrics(wl.tracer.spans, wall, files)
        metrics.update(reference_kernels(wl.tracer.spans, wl.tracer.samples))
        metrics["trace.overhead_pct"] = 100.0 * (records[0]["seconds"] / plain["seconds"] - 1.0)
        # Epochs until the held-out loss first reaches the target, median over the
        # protocol seeds; a seed that never reaches it counts as one epoch past its run.
        protocol = records[: plan["protocol_seeds"]]
        steps = [r["epochs"] + 1 if r["hit_epoch"] is None else r["hit_epoch"] + 1 for r in protocol if "epochs" in r]
        metrics["training.steps_to_target"] = float(np.median(steps)) if plan["target"] is not None and steps else 0.0
        result["layer"] = metrics
        wl.tracer.dump(trace_out)
    result["checks"] = checks
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("workload", "setup", "smoke"))
    ap.add_argument("--plan", required=True)
    ap.add_argument("--out")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    with open(args.plan) as fh:
        plan = json.load(fh)
    if args.mode == "setup":
        setup_probe(plan)
        # CLOCK_MONOTONIC is shared by all processes; the parent read it before the spawn.
        done = time.monotonic()
        calibrate = Calibration()
        out = {"setup_done": done, "calib_s": [calibrate() for _ in range(SETUP_BURSTS)]}
    else:
        work = os.path.dirname(os.path.abspath(args.plan))
        out = smoke(plan) if args.mode == "smoke" else run_workload(plan, args.trace, work, args.trace_out)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
