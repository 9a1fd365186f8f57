"""The benchmark's tracer patches holoelastic functions by name, and its
correctness check reads analytics' grid fields; a rename in src/ must fail
here rather than at benchmark time."""

import importlib
import json
import os

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
