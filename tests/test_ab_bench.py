import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPT = os.path.join(ROOT, "scripts", "ab_bench.py")


def _script():
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _row(pair, side, **values):
    return {"pair": pair, "side": side, "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}}


GATED = [{"name": "peak_rss_mb", "better": "lower"}, {"name": "gflops", "better": "higher"},
         {"name": "op_s", "better": "lower"}]


def test_summary_reads_medians_base_quartiles_and_pairs_won():
    # five pairs, head run first in the odd ones; rss falls in four of them,
    # gflops rises in one, and op_s is missing from one head run, so that
    # pair does not count
    base = [80.7, 80.6, 80.8, 80.5, 80.9]
    head = [78.5, 78.6, 81.0, 78.4, 78.5]
    rows = []
    for k, (b, h) in enumerate(zip(base, head)):
        sides = [("base", b), ("head", h)] if k % 2 == 0 else [("head", h), ("base", b)]
        for side, v in sides:
            rows.append(_row(k, side, peak_rss_mb=v, gflops=v if side == "head" else 80.0,
                             **({} if (k, side) == (3, "head") else {"op_s": 1.0})))
    rss, gflops, op = _script().summarize(rows, GATED)
    assert rss == {"name": "peak_rss_mb", "better": "lower", "pairs": 5, "base_median": 80.7, "head_median": 78.5,
                   "base_q1": pytest.approx(80.55), "base_q3": pytest.approx(80.85),
                   "base_iqr": pytest.approx(0.3), "head_won": 4}
    assert gflops["head_won"] == 1 and gflops["base_iqr"] == 0.0
    assert op["pairs"] == 4 and op["head_won"] == 0


def test_summary_lines_name_each_metric_and_a_metric_with_no_pair():
    mod = _script()
    rows = [_row(0, "base", peak_rss_mb=80.0), _row(0, "head", peak_rss_mb=79.0)]
    lines = mod.format_summary(mod.summarize(rows, GATED[:1] + [{"name": "setup_s", "better": "lower"}]))
    assert lines == [
        "peak_rss_mb (lower is better): base median 80, head median 79 (-1); base quartiles 80 .. 80 (IQR 0); "
        "head better in 1 of 1 pairs",
        "setup_s: no complete pair",
    ]
