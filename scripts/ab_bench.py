"""Compare two revisions on one benchmark workload in alternating pairs.

Usage: python scripts/ab_bench.py BASE HEAD --workload W --pairs N [--seconds S] [--seed K]

Unpacks `git archive` copies of BASE and HEAD into a temporary directory
(removed afterwards) and runs `perfbench/run.py --workload W` in each,
alternately: pair k runs both copies with seed K + k, BASE first in even
pairs and HEAD first in odd ones, so a drift of the host does not favour
one side.  Each run's metrics come from the last line perfbench prints.
It then prints, for each gated end-to-end metric of BENCHMARK.json, both
medians, BASE's quartiles and their distance, and the number of pairs in
which HEAD reads better.  To compare uncommitted work, pass the commit
that `git stash create` prints after `git add -A`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SIDES = ("base", "head")


def unpack(rev: str, dest: str) -> None:
    """The tree of `rev` as plain files under dest."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """perfbench's closing JSON line for one run in `tree`, its exit code added."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", f"{seconds:g}"], cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        row = json.loads(lines[-1])
    except (IndexError, ValueError):
        row = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    row["exit"] = done.returncode
    return row


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartiles (statistics.quantiles, exclusive method); one value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(rows: list[dict], gated: list[dict]) -> list[dict]:
    """Per gated metric ({"name", "better"} entries of BENCHMARK.json's
    end_to_end), over rows {"pair", "side", "metrics": {name: {"value"}}}:
    each side's median, BASE's quartiles and their distance, the pairs that
    both sides completed and those in which HEAD reads better."""
    out = []
    for m in gated:
        name, lower = m["name"], m["better"] == "lower"
        by_pair: dict[int, dict] = {}
        for r in rows:
            if name in r["metrics"]:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"][name]["value"]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        if not pairs:
            out.append({"name": name, "pairs": 0})
            continue
        base, head = ([p[s] for p in pairs] for s in SIDES)
        q1, q3 = quartiles(base)
        won = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        out.append({"name": name, "better": m["better"], "pairs": len(pairs), "base_median": statistics.median(base),
                    "head_median": statistics.median(head), "base_q1": q1, "base_q3": q3, "base_iqr": q3 - q1,
                    "head_won": won})
    return out


def format_summary(summary: list[dict]) -> list[str]:
    lines = []
    for s in summary:
        if not s["pairs"]:
            lines.append(f"{s['name']}: no complete pair")
            continue
        d = s["head_median"] - s["base_median"]
        lines.append(f"{s['name']} ({s['better']} is better): base median {s['base_median']:.6g}, head median "
                     f"{s['head_median']:.6g} ({d:+.6g}); base quartiles {s['base_q1']:.6g} .. {s['base_q3']:.6g} "
                     f"(IQR {s['base_iqr']:.6g}); head better in {s['head_won']} of {s['pairs']} pairs")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None, help="per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    rows = []
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        trees = {s: os.path.join(tmp, s) for s in SIDES}
        for side, rev in zip(SIDES, (args.base, args.head)):
            unpack(rev, trees[side])
        for k in range(args.pairs):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                row = run_once(trees[side], args.workload, args.seed + k, seconds)
                rows.append({"pair": k, "side": side, **row})
                values = {n: v["value"] for n, v in row["metrics"].items()}
                print(f"pair {k} {side}: exit {row['exit']} correct {row['correct']} "
                      f"failed {row['failed']}/{row['attempted']} {json.dumps(values)}", flush=True)
    for line in format_summary(summarize(rows, bench["end_to_end"])):
        print(line)
    return 0 if all(r["exit"] == 0 and r["correct"] and not r["failed"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
