"""The benchmark's tracer patches holoelastic functions by name; a rename in
src/ must fail here rather than at benchmark time."""

import importlib
import os

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
