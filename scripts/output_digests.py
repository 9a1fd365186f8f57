"""Print one `<artifact> <sha256>` line for every output of the shipped configs.

Usage: python scripts/output_digests.py [REPO]

Runs the holoelastic CLI of REPO (default: the checkout that holds this
script) single-threaded inside a temporary directory, which is removed
afterwards.  It sets the three BLAS thread variables itself, because in
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
  clamped_square@stress_only/checkpoint.json, history.csv, fields.csv, variance.csv
                                          `train` for 20 epochs, `eval --grid 40x40`
                                          and `init-check` of a stress-only copy of
                                          clamped_square (its clamped pieces made
                                          traction-free, as stress-only mode allows
                                          tractions only; beta 0.7): the only runs of
                                          the stress-only field map, its adjoint and
                                          the displacement-free fields.csv rows; the
                                          report re-runs the two-channel phi branch
                                          at order 2
  clamped_square@double/checkpoint.json, history.csv, fields.csv
                                          `train` for 20 epochs and `eval --grid 40x40`
                                          of clamped_square with its training.precision
                                          key deleted: clamped_square trains with
                                          single-precision branch sweeps, so these are
                                          the only runs of 100-wide nets through the
                                          double-precision training path, and
                                          clamped_square and clamped_square@stress_only
                                          are the only runs of the single-precision exp
                                          (numpy's float32 exp, cos and sin)
  <config>/samples.csv                    `sample --n 300` (all configs)
  approx.csv                              `approx-demo --n 32`
  approx_exp.csv                          `approx-demo --n 32 --target exp`: the
                                          shallow net built from exp's Taylor
                                          coefficients, exp itself up to round-off

Diffing the output on two checkouts checks that a change leaves every one of
these outputs byte-identical:

  python scripts/output_digests.py /path/to/other/checkout > a.txt
  python scripts/output_digests.py > b.txt && diff a.txt b.txt
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import hashlib
import io
import json
import os
import sys
import tempfile

EPOCHS = 20


def _show(label: str, path: str) -> None:
    with open(path, "rb") as fh:
        print(f"{label} {hashlib.sha256(fh.read()).hexdigest()}", flush=True)


def _stress_only(doc: dict) -> None:
    doc["networks"]["mode"] = "stress_only"
    doc["training"]["beta"] = 0.7  # inside stress-only mode's admissible range
    for piece in doc["geometry"]["pieces"]:
        if piece["bc"]["type"] == "displacement":
            piece["bc"]["type"] = "traction"  # keeps its zero data


def main(argv: list[str]) -> int:
    repo = os.path.abspath(argv[0] if argv else os.path.join(os.path.dirname(__file__), ".."))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    sys.path.insert(0, os.path.join(repo, "src"))
    from holoelastic.cli import run_command
    from holoelastic.problem import load_config

    def run(*args: str) -> None:
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
        _show(f"{label}/checkpoint.json", ckpt)
        _show(f"{label}/history.csv", os.path.join(out, "history.csv"))
        return cfg, doc, ckpt

    configs = sorted(glob.glob(os.path.join(repo, "configs", "*.json")))
    with tempfile.TemporaryDirectory() as tmp:
        for src in configs:
            name = os.path.splitext(os.path.basename(src))[0]
            spec = load_config(src)
            for key in ("networks", "training", "outputs", "material", "reference"):
                section = getattr(spec, key)
                section = dataclasses.asdict(section) if dataclasses.is_dataclass(section) else section
                print(f"{name}/{key} {json.dumps(section, default=lambda e: e.value)}", flush=True)
            cfg, doc, ckpt = train(tmp, name)
            out = os.path.dirname(ckpt)
            run("eval", cfg, ckpt, "--grid", "40x40")
            _show(f"{name}/fields.csv", os.path.join(out, "fields.csv"))
            if doc.get("reference"):
                _show(f"{name}/errors.csv", os.path.join(out, "errors.csv"))
                run("eval", cfg, ckpt, "--grid", "400x400")
                _show(f"{name}/fields_400x400.csv", os.path.join(out, "fields.csv"))
                _show(f"{name}/errors_400x400.csv", os.path.join(out, "errors.csv"))
            if name == "dd_plate_hole":
                run("eval", cfg, ckpt, "--grid", "300x300")
                _show(f"{name}/fields_300x300.csv", os.path.join(out, "fields.csv"))
            if name == "clamped_square":
                run("eval", cfg, ckpt, "--grid", "200x200")
                _show(f"{name}/fields_200x200.csv", os.path.join(out, "fields.csv"))
                run("init-check", cfg)
                _show(f"{name}/variance.csv", os.path.join(out, "variance.csv"))
                run("init-check", cfg, "--m-e", "3")
                _show(f"{name}/variance_m_e3.csv", os.path.join(out, "variance.csv"))
            run("sample", cfg, "--n", "300")
            _show(f"{name}/samples.csv", os.path.join(out, "samples.csv"))
        label = "clamped_square@stress_only"
        cfg, _, ckpt = train(tmp, "clamped_square", label, _stress_only)
        out = os.path.dirname(ckpt)
        run("eval", cfg, ckpt, "--grid", "40x40")
        _show(f"{label}/fields.csv", os.path.join(out, "fields.csv"))
        run("init-check", cfg)
        _show(f"{label}/variance.csv", os.path.join(out, "variance.csv"))
        label = "clamped_square@double"
        cfg, _, ckpt = train(tmp, "clamped_square", label, lambda doc: doc["training"].pop("precision", None))
        run("eval", cfg, ckpt, "--grid", "40x40")
        _show(f"{label}/fields.csv", os.path.join(os.path.dirname(ckpt), "fields.csv"))
        approx = os.path.join(tmp, "approx.csv")
        run("approx-demo", "--n", "32", "--out", approx)
        _show("approx.csv", approx)
        run("approx-demo", "--n", "32", "--target", "exp", "--out", approx)
        _show("approx_exp.csv", approx)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
