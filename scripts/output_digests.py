"""Print one `<artifact> <sha256>` line for every output of the shipped configs.

Usage: python scripts/output_digests.py [REPO]
       python scripts/output_digests.py --check DIGESTS.txt [REPO]
       python scripts/output_digests.py --list

Runs the holoelastic CLI of REPO (default: the checkout that holds this
script) single-threaded inside a temporary directory, which is removed
afterwards.  The lines follow a header of `#` lines that name the platform
the bytes depend on: the numpy version, the OpenBLAS build and the kernel
it picked for the CPU, the CPU model and the BLAS thread count.  It sets the three BLAS thread variables itself, because in
checkouts older than the package root's HOLOELASTIC_THREADS cap that
variable does not reach the BLAS.  It prints each config's loaded
networks, training, outputs, material and reference sections as JSON
(`<config>/<section> <json>`; enums by value, a missing reference `null`),
so a change to how the loader fills defaults or builds the reference shows
in the diff, and it hashes:

  <config>/checkpoint.json, history.csv  `train` for 20 epochs (all configs)
  <config>/fields.csv                     `eval --grid 40x40` of that checkpoint
  ring_quadrant/errors.csv                the same eval's exact-reference errors
  ring_quadrant/fields_400x400.csv        `eval --grid 400x400` (and its errors)
  clamped_square/fields_200x200.csv       `eval --grid 200x200`: 40,000 points of
                                          100-wide nets, so 200 grid blocks of one
                                          row (a row is wider than FORWARD_BLOCK
                                          8,192 // 100 points)
  dd_plate_hole/fields_300x300.csv        `eval --grid 300x300`: grid blocks of 2 rows
                                          (8,192 // 3,000 points) over the four
                                          subdomains
  clamped_square/variance.csv             `init-check` (m_e = L + 1: a probe statistic
                                          for every layer)
  clamped_square/variance_m_e3.csv        `init-check --m-e 3`, the probe depth that
                                          training uses
  clamped_square@double/checkpoint.json, history.csv, fields.csv
                                          `train` for 20 epochs and `eval --grid 40x40`
                                          of clamped_square with its training.precision
                                          key deleted: clamped_square trains with
                                          single-precision branch sweeps, so these are
                                          the only runs of 100-wide nets through the
                                          double-precision training path
  dd_plate_hole@interleaved/checkpoint.json, history.csv, fields.csv
                                          `train` for 20 epochs and `eval --grid 40x40`
                                          of dd_plate_hole with its interface pieces
                                          listed between the outer ones (as
                                          tests/test_autodiff.py's _load builds it),
                                          so a subdomain's outer rows are not
                                          contiguous in its evaluation array
  ring_quadrant@1000/checkpoint.json, history.csv
                                          `train` of ring_quadrant for its full 1000
                                          epochs: a rounding change that only grows
                                          late shows here (after a one-ulp change to
                                          one first-layer weight the ring's train
                                          loss is still the same at epoch 10 and
                                          differs by 5.6e-8 relative at epoch 999)
  <config>/samples.csv                    `sample --n 300` (all configs)
  approx.csv                              `approx-demo --n 32`
  approx_exp.csv                          `approx-demo --n 32 --target exp`: the
                                          shallow net built from exp's Taylor
                                          coefficients, exp itself up to round-off

DIGESTS.txt at the repo root holds these lines as of its commit.  `--check
DIGESTS.txt` recomputes them and prints each artifact whose line moved (or
that is new or gone); it exits 0 when none did and 1 otherwise.  If the
file's header is not this host's platform it exits 3 without running
anything, since hashes from another BLAS kernel or CPU say nothing.  A
change that moves an output rewrites DIGESTS.txt in the same commit:

  python scripts/output_digests.py > DIGESTS.txt

`--list` prints the artifact labels alone, without running anything.
Diffing the output on two checkouts compares any two commits:

  python scripts/output_digests.py /path/to/other/checkout > a.txt
  python scripts/output_digests.py > b.txt && diff a.txt b.txt
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import glob
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

EPOCHS = 20
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def platform_header() -> list[str]:
    """The `#` lines naming what the output bytes depend on besides the code."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    return [f"# numpy {np.__version__}",
            f"# blas {blas.get('openblas configuration', blas.get('name'))}",
            f"# cpu {cpu}",
            f"# threads {os.environ['OPENBLAS_NUM_THREADS']}"]


def _double(doc: dict) -> None:
    doc["training"].pop("precision", None)


def _full_length(doc: dict) -> None:
    doc["training"]["epochs"] = 1000


def _interleave(doc: dict) -> None:
    pieces = doc["geometry"]["pieces"]
    outer = [p for p in pieces if p["bc"]["type"] != "interface"]
    iface = [p for p in pieces if p["bc"]["type"] == "interface"]
    doc["geometry"]["pieces"] = [p for pair in zip(outer, iface) for p in pair] + outer[len(iface):]


def digests(repo: str, dry: bool = False):
    """Yield (label, line value) per artifact in output order; with `dry` the
    labels alone (value None), running and loading nothing of holoelastic."""
    if not dry:
        sys.path.insert(0, os.path.join(repo, "src"))
        from holoelastic.cli import run_command
        from holoelastic.problem import load_config

    def show(label: str, path: str) -> tuple[str, str]:
        if dry:
            return label, None
        with open(path, "rb") as fh:
            return label, hashlib.sha256(fh.read()).hexdigest()

    def run(*args: str) -> None:
        if dry:
            return
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(list(args))
        if code != 0:
            raise SystemExit(f"holoelastic {' '.join(args)} exited {code}: {err.getvalue().strip()}")

    def copy_config(tmp: str, name: str, label: str, edit) -> tuple[str, dict, str]:
        """Write config `name`, changed by edit(doc), as tmp/<label>.json with
        outputs in tmp/<label>; returns its path, document and output dir."""
        with open(os.path.join(repo, "configs", f"{name}.json")) as fh:
            doc = json.load(fh)
        edit(doc)
        out = os.path.join(tmp, label)
        doc.setdefault("outputs", {})["dir"] = out
        cfg = os.path.join(tmp, f"{label}.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        return cfg, doc, out

    def train(tmp: str, name: str, label: str = "", edit=None) -> tuple[str, dict, str]:
        """Train a 20-epoch copy of config `name`, changed by edit(doc), and
        hash its checkpoint and history; returns the copy's path and document
        and the checkpoint."""
        label = label or name

        def edit_all(doc: dict) -> None:
            doc["training"]["epochs"] = EPOCHS
            if edit:
                edit(doc)

        cfg, doc, out = copy_config(tmp, name, label, edit_all)
        ckpt = os.path.join(out, "checkpoint.json")
        run("train", cfg)
        yield show(f"{label}/checkpoint.json", ckpt)
        yield show(f"{label}/history.csv", os.path.join(out, "history.csv"))
        return cfg, doc, ckpt

    configs = sorted(glob.glob(os.path.join(repo, "configs", "*.json")))
    with tempfile.TemporaryDirectory() as tmp:
        for src in configs:
            name = os.path.splitext(os.path.basename(src))[0]
            spec = None if dry else load_config(src)
            for key in ("networks", "training", "outputs", "material", "reference"):
                if dry:
                    yield f"{name}/{key}", None
                    continue
                section = getattr(spec, key)
                section = dataclasses.asdict(section) if dataclasses.is_dataclass(section) else section
                yield f"{name}/{key}", json.dumps(section, default=lambda e: e.value)
            cfg, doc, ckpt = yield from train(tmp, name)
            out = os.path.dirname(ckpt)
            run("eval", cfg, ckpt, "--grid", "40x40")
            yield show(f"{name}/fields.csv", os.path.join(out, "fields.csv"))
            if doc.get("reference"):
                yield show(f"{name}/errors.csv", os.path.join(out, "errors.csv"))
                run("eval", cfg, ckpt, "--grid", "400x400")
                yield show(f"{name}/fields_400x400.csv", os.path.join(out, "fields.csv"))
                yield show(f"{name}/errors_400x400.csv", os.path.join(out, "errors.csv"))
            if name == "dd_plate_hole":
                run("eval", cfg, ckpt, "--grid", "300x300")
                yield show(f"{name}/fields_300x300.csv", os.path.join(out, "fields.csv"))
            if name == "clamped_square":
                run("eval", cfg, ckpt, "--grid", "200x200")
                yield show(f"{name}/fields_200x200.csv", os.path.join(out, "fields.csv"))
                run("init-check", cfg)
                yield show(f"{name}/variance.csv", os.path.join(out, "variance.csv"))
                run("init-check", cfg, "--m-e", "3")
                yield show(f"{name}/variance_m_e3.csv", os.path.join(out, "variance.csv"))
            run("sample", cfg, "--n", "300")
            yield show(f"{name}/samples.csv", os.path.join(out, "samples.csv"))
        for name, label, edit in (("clamped_square", "clamped_square@double", _double),
                                  ("dd_plate_hole", "dd_plate_hole@interleaved", _interleave)):
            cfg, _, ckpt = yield from train(tmp, name, label, edit)
            run("eval", cfg, ckpt, "--grid", "40x40")
            yield show(f"{label}/fields.csv", os.path.join(os.path.dirname(ckpt), "fields.csv"))
        yield from train(tmp, "ring_quadrant", "ring_quadrant@1000", _full_length)
        approx = os.path.join(tmp, "approx.csv")
        run("approx-demo", "--n", "32", "--out", approx)
        yield show("approx.csv", approx)
        run("approx-demo", "--n", "32", "--target", "exp", "--out", approx)
        yield show("approx_exp.csv", approx)


def check(path: str, repo: str) -> int:
    """Compare the lines of the digests file at `path` with this host's: 3 if
    its header is another platform's, else 1 if any line moved, else 0."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header, host = [l for l in lines if l.startswith("#")], platform_header()
    if header != host:
        print(f"{path} was recorded on another platform; its hashes are not compared", file=sys.stderr)
        print("\n".join([f"  recorded {l}" for l in header] + [f"  host     {l}" for l in host]), file=sys.stderr)
        return 3
    want = dict(l.split(" ", 1) for l in lines if l and not l.startswith("#"))
    moved = 0
    for label, value in digests(repo):
        if want.pop(label, None) != value:
            moved += 1
            print(label, flush=True)
    for label in want:  # recorded, but no longer produced
        moved += 1
        print(label, flush=True)
    print(f"{moved} artifact line(s) moved" if moved else "all artifact lines match", file=sys.stderr)
    return 1 if moved else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="Digests of every output of the shipped configs.")
    ap.add_argument("repo", nargs="?", default=os.path.join(os.path.dirname(__file__), ".."),
                    help="checkout whose holoelastic runs (default: this script's)")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", metavar="DIGESTS", help="recompute and report the lines that moved")
    mode.add_argument("--list", action="store_true", help="print the artifact labels without running anything")
    args = ap.parse_args(argv)
    repo = os.path.abspath(args.repo)
    if args.list:
        for label, _ in digests(repo, dry=True):
            print(label)
        return 0
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads
    if args.check:
        return check(args.check, repo)
    print("\n".join(platform_header()), flush=True)
    for label, value in digests(repo):
        print(f"{label} {value}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
