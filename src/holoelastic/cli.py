"""Command line interface.

Commands:
  train <config>                      checkpoint + history CSV
  eval <config> <checkpoint>          field CSV (+ error CSV for exact refs)
  init-check <config>                 per-layer variance report CSV
  approx-demo                         shallow-approximator sup-error study
  sample <config>                     boundary sample CSV
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time

import numpy as np

from . import export, training  # training.train is looked up per call, so it can be wrapped
from .analytics import RingErrors, grid_blocks, variance_report
from .network import checkpoint_load, checkpoint_save, constructive_shallow, shallow_eval
from .problem import load_config, made


def _grid(text: str) -> tuple[int, int]:
    try:
        nx, ny = (int(v) for v in text.lower().split("x"))
    except ValueError:
        nx = ny = 0
    if nx < 1 or ny < 1:
        raise argparse.ArgumentTypeError(f"expected NxM with positive N and M, got {text!r}")
    return nx, ny


def _units(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 4:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 4, got {text!r}")
    # the shallow approximator overflows a double from 131 units on the unit disk; counts double from 4
    if n > 128:
        raise argparse.ArgumentTypeError(f"expected an integer of at most 128, got {text!r}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="holoelastic")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train networks for a problem config")
    t.add_argument("config")
    t.add_argument("--seed", type=int, default=None, help="override the config seed")
    t.add_argument("--wall-times", action="store_true", help="export measured epoch times")

    e = sub.add_parser("eval", help="evaluate a checkpoint on a field grid")
    e.add_argument("config")
    e.add_argument("checkpoint")
    e.add_argument("--grid", type=_grid, default=None, help="grid resolution NxM")

    i = sub.add_parser("init-check", help="initialization variance report")
    i.add_argument("config")
    i.add_argument("--beta", type=float, default=None)
    i.add_argument("--m-e", type=int, default=None)
    i.add_argument("--seed", type=int, default=None)

    a = sub.add_parser("approx-demo", help="shallow approximator convergence study")
    a.add_argument("--n", type=_units, default=32, help="largest unit count, 4-128 (doubling from 4)")
    a.add_argument("--target", default="inv_shift", choices=("inv_shift", "exp"))
    a.add_argument("--out", default="approx.csv")

    s = sub.add_parser("sample", help="draw boundary samples")
    s.add_argument("config")
    s.add_argument("--n", type=int, default=None, help="override the config n_train")
    s.add_argument("--seed", type=int, default=None, help="override the config seed")
    return p


def _out_path(spec, name: str) -> str:
    return os.path.join(spec.outputs.out_dir, name)


def _load(args, **overrides):
    """load_config of args.config with each override that is not None in `training`, checked as config values are
    and failing with the same message."""
    spec = load_config(args.config)
    given = {key: value for key, value in overrides.items() if value is not None}
    return dataclasses.replace(spec, training=made("training", lambda: dataclasses.replace(spec.training, **given)))


def _cmd_train(args) -> int:
    spec = _load(args, seed=args.seed)
    t0 = time.perf_counter()
    pairs, history = training.train(spec)
    elapsed = time.perf_counter() - t0
    ckpt = _out_path(spec, "checkpoint.json")
    checkpoint_save(ckpt, pairs)
    export.write_history_csv(_out_path(spec, "history.csv"), history, wall_times=args.wall_times)
    if len(history):
        print(
            f"{spec.name}: {len(history)} epochs in {elapsed:.1f}s, "
            f"final train loss {history.train_loss[-1]:.6e}, "
            f"final test loss {history.test_loss[-1]:.6e}"
        )
    else:
        print(f"{spec.name}: no epochs requested; wrote initialized checkpoint")
    print(f"wrote {ckpt}")
    return 0


def _cmd_eval(args) -> int:
    spec = load_config(args.config)
    pairs = checkpoint_load(args.checkpoint)
    if len(pairs) != spec.domain.n_subdomains:
        raise ValueError(
            f"checkpoint has {len(pairs)} network pairs, config needs {spec.domain.n_subdomains}"
        )
    want = [spec.networks.units] * spec.networks.hidden_layers + [1]
    for pair in pairs:
        for net in (pair.phi, pair.psi):
            if net.widths[1:] != want:
                raise ValueError(f"checkpoint architecture {net.widths[1:]} does not match config {want}")
    nx, ny = args.grid or spec.outputs.grid
    errors = RingErrors(spec.reference) if spec.reference else None  # load_config admits only the ring
    interior = []

    def blocks():
        for block in grid_blocks(pairs, spec, nx, ny):
            interior.append(int(block.mask.sum()))
            if errors:
                errors.add(block)
            yield block

    export.write_fields_csv(_out_path(spec, "fields.csv"), blocks())
    print(f"wrote field grid {nx}x{ny} ({sum(interior)} interior points)")
    if errors:
        values = errors.errors()
        export.write_errors_csv(_out_path(spec, "errors.csv"), values)
        for k, v in values.items():
            print(f"{k} = {v:.4e}")
    return 0


def _cmd_init_check(args) -> int:
    spec = _load(args, beta=args.beta, seed=args.seed, m_e=args.m_e)
    report = variance_report(spec, args.m_e, training.PROBE_FACTOR * spec.training.n_train)
    path = _out_path(spec, "variance.csv")
    export.write_variance_csv(path, report)
    print(f"wrote {path} (beta={spec.training.beta:g})")
    return 0


def _cmd_approx_demo(args) -> int:
    if args.target == "inv_shift":
        target = lambda z: 1.0 / (1.5 - z)
        taylor = lambda n: [1.5 ** -(k + 1) for k in range(n)]
    else:
        target = np.exp
        taylor = lambda n: [1.0 / math.factorial(k) for k in range(n)]
    radii = np.linspace(0.0, 1.0, 100)
    angles = 2.0 * np.pi * np.arange(100) / 100
    pts = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    rows = []
    n = 4
    while n <= args.n:
        approx = constructive_shallow(taylor(n), z0=0.0, xi=0.0, n=n)
        err = float(np.max(np.abs(shallow_eval(approx, pts) - target(pts))))
        rows.append((n, err))
        n *= 2
    export.write_approx_csv(args.out, rows)
    for n, err in rows:
        print(f"n={n:4d} sup_error={err:.6e}")
    return 0


def _cmd_sample(args) -> int:
    spec = _load(args, n_train=args.n, seed=args.seed)
    samples = training.train_samples(spec)
    path = _out_path(spec, "samples.csv")
    export.write_samples_csv(path, samples, spec.domain)
    print(f"wrote {len(samples)} samples to {path}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "init-check": _cmd_init_check,
    "approx-demo": _cmd_approx_demo,
    "sample": _cmd_sample,
}


def run_command(argv) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except Exception as e:  # config/IO/shape errors become exit code 2
        print(f"error: {e}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
