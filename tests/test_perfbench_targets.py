"""The benchmark's tracer patches holoelastic functions by name and reads
their arguments, its workloads call into src/, and its correctness check
reads analytics' grid fields; a rename in src/ must fail here rather than at
benchmark time."""

import importlib
import json
import os
import subprocess
import sys

from conftest import config_path
from holoelastic.cli import run_command

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_span_entry_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    assert spans.ENTRY_POINTS
    for mod_name, attr, span, _ in spans.ENTRY_POINTS:
        mod = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            target = getattr(mod, cls_name).__dict__.get(meth)
        else:
            target = getattr(mod, attr, None)
        assert callable(target), f"{span}: {mod_name}.{attr} does not resolve"


def test_benchmark_ring_errors_check_passes(monkeypatch, tmp_path):
    # perfbench's ring_fit check: errors.csv of an eval against rel-L2
    # recomputed from analytics.eval_grid of the same checkpoint
    monkeypatch.syspath_prepend(PERFBENCH)
    worker = importlib.import_module("worker")
    doc = json.load(open(config_path("ring_quadrant")))
    doc["training"]["epochs"] = 0
    doc["outputs"]["dir"] = out = str(tmp_path / "out")
    cfg = str(tmp_path / "ring.json")
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    argv = ["eval", cfg, os.path.join(out, "checkpoint.json")]
    assert run_command(["train", cfg]) == 0 and run_command(argv) == 0
    checks, result = {}, {}
    worker.check_ring_errors({"ops": [{"kind": "eval", "out_dir": out, "argv": argv}]}, checks, result)
    assert checks == {"errors_csv_matches_recomputed_rel_l2": True}
    assert result["rel_l2_dphi"] > 0.0 and result["fields_bytes"] > 0


# Workload and Tracer.install patch holoelastic's modules in place, so the ops
# run in a process of their own.  Prints each op's exit code and error, then
# per traced run the least `elems` of each activation span (None: no span).
_TRACED_OPS = """
import json, sys
from worker import Workload

ops = json.loads(sys.argv[1])
wl = Workload({"target": None}, trace=True)
wl.tracer.install()
records = [wl.run_op(op, traced=True) for op in ops]
names = ("jets.activate_jets", "jets.act_derivs")
elems = {run: {n: None for n in names} for run in range(1, len(ops) + 1)}
for name, _, _, _, run, measure in wl.tracer.spans:
    if name in names:
        n = (measure or {}).get("elems", 0)  # no measure: it raised
        elems[run][name] = n if elems[run][name] is None else min(elems[run][name], n)
print(json.dumps({"ops": [[r["code"], r["error"]] for r in records], "elems": list(elems.values())}))
"""


def test_benchmark_ops_run_traced(tmp_path):
    # the calls perfbench makes into src/: init_diagnostics with its
    # positional ActivationKind, the CLI train, and the tracer's measures,
    # which read the jets of act_derivs and activate_jets as their 2nd argument
    doc = json.load(open(config_path("ring_quadrant")))
    doc["training"]["epochs"] = 2
    doc["outputs"]["dir"] = str(tmp_path / "out")
    cfg = str(tmp_path / "ring.json")
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    ops = [
        {"id": "diag", "kind": "diag", "arch": [8, 8], "beta": 0.5, "m_e": None, "probe": 200, "batch": 100, "seed": 0},
        {"id": "train", "kind": "train", "argv": ["train", cfg]},
    ]
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([PERFBENCH, src])}
    proc = subprocess.run([sys.executable, "-c", _TRACED_OPS, json.dumps(ops)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["ops"] == [[0, ""], [0, ""]]
    for run in got["elems"]:
        assert all(v is not None and v > 0 for v in run.values()), got["elems"]
