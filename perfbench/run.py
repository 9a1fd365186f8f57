"""holoelastic benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload ring_fit --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout (it needs src/holoelastic and
configs/).  Every process it starts runs single-threaded: HOLOELASTIC_THREADS
and the BLAS pool sizes are set to 1, and no timing is reported if the loaded
OpenBLAS says otherwise.  Per invocation it

  * writes the workload's config copies and plan under .perfbench_work/,
  * (trace 0) starts five set-up probes and takes their median as setup_s,
  * runs the timed workload in a process of its own, so peak RSS is its own,
  * runs the untimed smoke check: 2 epochs then a 10x10 eval of every config,
  * prints the environment, smoke results, checks and metrics, and as the
    last line one JSON object {"correct", "attempted", "failed", "metrics"}.

Gated end-to-end metrics (BENCHMARK.json), measured with tracing off:

  setup_s      process start to the end of set-up: imports, config load,
               boundary sampling, packing, probe-calibrated init (median of
               five probe processes)
  op_s         median wall time of the workload's timed operation:
               `holoelastic train` (ring_fit, square_wide) or one
               init_diagnostics call (init_check)
  peak_rss_mb  peak RSS of the workload process

The shared host's speed drifts by up to 30% over minutes, so setup_s and op_s
are reported in reference-machine seconds: each operation's time is divided by
the median time of the fixed calibration bursts (worker.Calibration) run just
before and after it, over CALIB_REF_S; set-up likewise with the bursts of the
probe processes.  The raw medians are printed beside them.

The twelve user-facing numbers (train_s, epoch_ms.p50/p90, tta_s, test_loss,
rel_l2_dphi/dpsi, eval_s, diag_s, ...) are printed as `metric` lines where
they apply; they are not gated because most apply to one workload only and
the accuracy numbers change by up to 10x from seed to seed.

With --trace 1 the workload runs traced (see spans.py) and the metrics are
per-layer totals over the traced run; the spans go to
.perfbench_work/trace_<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402

SETUP_REPS = 5
DEADLINE_S = 170.0

# name, unit, workloads where it applies (None: all)
E2E_TABLE = [
    ("setup_s", "s", None),
    ("train_s", "s", ("ring_fit", "square_wide")),
    ("epoch_ms.p50", "ms", ("ring_fit", "square_wide")),
    ("epoch_ms.p90", "ms", ("ring_fit", "square_wide")),
    ("tta_s", "s", ("ring_fit",)),
    ("test_loss", "1", ("ring_fit", "square_wide")),
    ("rel_l2_dphi", "1", ("ring_fit",)),
    ("rel_l2_dpsi", "1", ("ring_fit",)),
    ("eval_s", "s", ("ring_fit",)),
    ("diag_s", "s", ("init_check",)),
    ("peak_rss_mb", "MB", None),
    ("failed_ops", "ratio", None),
]


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in spec.THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(argv: list, deadline: float, log) -> None:
    """Run a worker to completion, killing it at the deadline."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *argv], cwd=ROOT,
                            env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {argv[0]} ran past the deadline")
    if code != 0:
        raise BenchError(f"worker {argv[0]} exited with code {code}")


def _setup_probe(plan_path: str, out: str, deadline: float, log) -> tuple[float, list]:
    """Process start to the end of set-up, by the monotonic clock both processes
    share, and the calibration bursts the probe ran afterwards."""
    t0 = time.monotonic()
    _run_child(["setup", "--plan", plan_path, "--out", out], deadline, log)
    with open(out) as fh:
        probe = json.load(fh)
    return probe["setup_done"] - t0, probe["calib_s"]


def _git(*args) -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return None
    out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30)
    return out.stdout.strip() if out.returncode == 0 else None


def _environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": _git("rev-parse", "HEAD"), "git_dirty": None if status is None else bool(status),
            "nproc": os.cpu_count(), "cpu": cpu, "loadavg_start": list(os.getloadavg())}


def _quantile(values: list, q: float) -> float:
    v = sorted(values)
    return v[min(len(v) - 1, max(0, math.ceil(q * len(v)) - 1))]


def end_to_end(workload: str, setup: list, res: dict, smoke: dict, protocol_seeds: int) -> dict:
    """The twelve user-facing numbers, where they apply to this workload (raw wall times)."""
    ops = res["ops"]
    train = [o for o in ops if "ms" in o]  # train commands that returned a history
    protocol = [o for o in ops[:protocol_seeds] if o["code"] == 0]
    setup_s = statistics.median(setup)
    attempted = len(ops) + 2 * len(smoke["configs"])
    failed = sum(o["code"] != 0 for o in ops) + sum(not c["passed"] for c in smoke["configs"])
    out = {"setup_s": setup_s, "peak_rss_mb": res["peak_rss_mb"], "failed_ops": failed / attempted}
    if train:
        pooled = [ms for o in train for ms in o["ms"]]
        out["train_s"] = statistics.median(o["seconds"] for o in train)
        out["epoch_ms.p50"] = statistics.median(pooled)
        # the highest percentile that keeps at least ten samples beyond it
        out["epoch_ms.p90"] = _quantile(pooled, 0.9) if len(pooled) >= 100 else math.nan
        out["test_loss"] = statistics.median(o["final_test"] for o in protocol) if protocol else math.nan
    if workload == "ring_fit":
        tta = [math.inf if o["hit_epoch"] is None else setup_s + o["tta_train_s"] for o in protocol]
        out["tta_s"] = statistics.median(tta) if tta else math.nan
        out["eval_s"] = next(o["seconds"] for o in ops if o["kind"] == "eval")
        out["rel_l2_dphi"], out["rel_l2_dpsi"] = res.get("rel_l2_dphi", math.nan), res.get("rel_l2_dpsi", math.nan)
    if workload == "init_check":
        out["diag_s"] = statistics.median(o["seconds"] for o in ops)
    return out


def layer_report(layer: dict) -> dict:
    """Add the reference ratios, print the accounting and the layer map; returns the metrics."""
    layer["jets.affine_vs_ref"] = (layer["jets.affine_gflops"] / layer["ref.matmul_gflops"]
                                   if layer["ref.matmul_gflops"] else 0.0)
    layer["jets.act_vs_ref"] = (layer["jets.act_ns_per_elem"] / layer["ref.exp_ns_per_elem"]
                                if layer["ref.exp_ns_per_elem"] else 0.0)
    print(f"trace: reference kernels timed on {layer['ref.affine_shapes']} affine and "
          f"{layer['ref.act_shapes']} activation shapes")
    accounted = sum(layer[f"{name}.self_ms"] for name in spec.LAYERS) + layer["trace.unattributed_ms"]
    print(f"trace: layer self times + unattributed = {accounted:.3f} ms of {layer['trace.wall_ms']:.3f} ms")
    if layer["cli.self_ms"] + layer["trace.unattributed_ms"] > 0.05 * layer["trace.wall_ms"]:
        print("trace: FLAG more than 5% of the traced wall time is not inside a layer below the entry "
              "point; a wrapper may be missing")
    for name, e2e, moves, still in spec.LAYER_MAP:
        print(f"map {name} = {layer[name]!r} -> {e2e}; moves on {', '.join(moves)}; "
              f"no change predicted on {', '.join(still) or '-'}")
    return layer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (os.path.isfile(os.path.join(ROOT, "src", "holoelastic", "cli.py"))
            and os.path.isdir(os.path.join(ROOT, "configs"))):
        print(f"error: {ROOT} is not a holoelastic checkout (src/holoelastic and configs/ are needed)",
              file=sys.stderr)
        return 2

    env_record = _environment()
    base = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    log_path = os.path.join(work, "workers.log")
    try:
        with open(log_path, "w") as log:
            plan = spec.PLANS[args.workload](ROOT, work, args.seed, args.seconds)
            smoke_dir = os.path.join(work, "smoke")
            os.makedirs(smoke_dir)
            plan_path = os.path.join(work, "plan.json")
            smoke_plan_path = os.path.join(smoke_dir, "plan.json")
            with open(plan_path, "w") as fh:
                json.dump(plan, fh, indent=1)
            with open(smoke_plan_path, "w") as fh:
                json.dump(spec.smoke(ROOT, smoke_dir), fh, indent=1)

            setup, setup_calib = [], []
            if not args.trace:
                for _ in range(SETUP_REPS):
                    t, calib = _setup_probe(plan_path, os.path.join(work, "setup.json"), deadline, log)
                    setup.append(t)
                    setup_calib += calib
            res_path = os.path.join(work, "result.json")
            wl_args = ["workload", "--plan", plan_path, "--out", res_path]
            if args.trace:
                wl_args += ["--trace", "--trace-out", os.path.join(base, f"trace_{args.workload}.jsonl")]
            _run_child(wl_args, deadline, log)
            smoke_path = os.path.join(smoke_dir, "result.json")
            _run_child(["smoke", "--plan", smoke_plan_path, "--out", smoke_path], deadline, log)
        with open(res_path) as fh:
            res = json.load(fh)
        with open(smoke_path) as fh:
            smoke = json.load(fh)
    except (BenchError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        if os.path.exists(log_path):
            with open(log_path) as fh:
                sys.stderr.write("".join(fh.readlines()[-20:]))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env_record.update(res["env"])
    print(f"holoelastic benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env_record))
    if res["env"]["blas_threads"] not in (1, None):
        print(f"error: OpenBLAS runs {res['env']['blas_threads']} threads; timings need exactly 1",
              file=sys.stderr)
        return 3
    for c in smoke["configs"]:
        print(f"smoke {c['name']}: {'pass' if c['passed'] else 'FAIL'} ({c['seconds']:.2f} s) {c['detail']}")
    for name, ok in res["checks"].items():
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    for o in res["ops"]:
        print(f"op {o['id']}: {o['seconds']:.4f} s exit {o['code']} {o['error']}")
    correct = all(res["checks"].values())
    attempted = len(res["ops"])
    failed = sum(o["code"] != 0 for o in res["ops"])

    if args.trace:
        values = layer_report(res["layer"])
        section = "per_layer"
    else:
        table = end_to_end(args.workload, setup, res, smoke, plan["protocol_seeds"])
        for name, unit, where in E2E_TABLE:
            if where is None or args.workload in where:
                print(f"metric {name} = {table.get(name, math.nan)!r} {unit}")
        # Gated times are in reference-machine seconds: each operation is divided by
        # (median of the calibration bursts just before and after it / CALIB_REF_S),
        # and the set-up median by the same ratio over the probes' bursts.
        gaps = res["calib_gaps"]
        main = [i for i, o in enumerate(res["ops"]) if o["kind"] == plan["main"]]
        op_s = statistics.median(res["ops"][i]["seconds"] * spec.CALIB_REF_S / statistics.median(gaps[i] + gaps[i + 1])
                                 for i in main)
        setup_s = table["setup_s"] * spec.CALIB_REF_S / statistics.median(setup_calib)
        values = {"setup_s": setup_s, "op_s": op_s, "peak_rss_mb": table["peak_rss_mb"]}
        print(f"machine: calibration burst {statistics.median(b for g in gaps for b in g):.5f} s in the workload, "
              f"{statistics.median(setup_calib):.5f} s in set-up probes (reference {spec.CALIB_REF_S} s); "
              f"raw op_s {statistics.median(res['ops'][i]['seconds'] for i in main):.5f} s")
        section = "end_to_end"
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        wanted = json.load(fh)[section]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
