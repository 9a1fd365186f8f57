"""Acceptance suite: one test per shipped guarantee, tolerances pinned here.

Heavy artifacts (trained networks) are module-scoped fixtures so several
criteria can share one training run.  Each criterion prints a PASS line with
its measured statistic when it holds; a failed assertion prints the numbers
in the failure message.
"""

import json
import math
import os
import time
import warnings

import numpy as np
import pytest

from conftest import (
    CONFIG_NAMES,
    config_path,
    fd_equilibrium,
    fd_trace_laplacian,
    grad_check,
    net_stress_fn,
    with_training,
)
from holoelastic.analytics import (
    eval_grid,
    heldout_residuals,
    init_diagnostics,
    rel_l2,
    ring_exact_potentials,
    ring_exact_stress,
    rms,
    rotate_stress,
)
from holoelastic.cli import run_command
from holoelastic.elasticity import Material, km_fields
from holoelastic.geometry import allocate_counts, piece_length, sample_boundary
from holoelastic.jets import ActivationKind, seed_jets
from holoelastic.network import BETA2, BETA3, constructive_shallow, mlp_forward, shallow_eval
from holoelastic.problem import load_config
from holoelastic.rng import Rng
from holoelastic.training import build_pairs, init_pairs, train


def _cfg(name):
    return load_config(config_path(name))


@pytest.fixture(scope="module")
def ring_runs():
    """Paper protocol on three seeds: 2x10 branches, lr 0.03, 1000 epochs."""
    spec = _cfg("ring_quadrant")
    runs = []
    for seed in (0, 1, 2):
        t0 = time.perf_counter()
        pairs, history = train(with_training(spec, seed=seed))
        runs.append({"seed": seed, "pairs": pairs, "history": history, "secs": time.perf_counter() - t0})
    return spec, runs


def _ring_errors(spec, pairs):
    grid = eval_grid(pairs, spec, 40, 40)
    X, Y = np.meshgrid(grid.xs, grid.ys)
    Z = np.where(grid.mask, X + 1j * Y, 1.0)
    ref = spec.reference
    dphi_ref, dpsi_ref = ring_exact_potentials(Z, ref["p"], ref["r"], ref["R"])
    return grid, rel_l2(grid.dphi, dphi_ref, grid.mask), rel_l2(grid.dpsi, dpsi_ref, grid.mask)


def test_criterion_1_ring_benchmark(ring_runs):
    spec, runs = ring_runs
    passes = []
    for run in runs:
        assert run["secs"] <= 60.0, f"run took {run['secs']:.1f}s > 60s"
        _, e1, e2 = _ring_errors(spec, run["pairs"])
        run["rel_dphi"], run["rel_dpsi"] = e1, e2
        passes.append(e1 < 0.10 and e2 < 0.10)
    detail = ", ".join(
        f"seed {r['seed']}: dphi {r['rel_dphi']:.3f} dpsi {r['rel_dpsi']:.3f} ({r['secs']:.1f}s)" for r in runs
    )
    assert sum(passes) >= 2, f"only {sum(passes)}/3 seeds under 0.10: {detail}"
    for run in runs:  # the loss itself must fall by two orders of magnitude
        h = run["history"].train_loss
        assert h[-1] < 1e-2 * h[0], f"seed {run['seed']}: loss {h[0]:.2e} -> {h[-1]:.2e}"
    print(f"\n[criterion 1] PASS ring potentials: {detail}")


def test_criterion_2_stress_reconstruction(ring_runs):
    spec, runs = ring_runs
    best = min(runs, key=lambda r: _ring_errors(spec, r["pairs"])[2])
    grid, _, _ = _ring_errors(spec, best["pairs"])
    X, Y = np.meshgrid(grid.xs, grid.ys)
    Z = X + 1j * Y
    ref = spec.reference
    rho = np.where(grid.mask, np.abs(Z), ref["r"])
    srr_ref, stt_ref = ring_exact_stress(rho, ref["p"], ref["r"], ref["R"])
    srr, stt, srt = rotate_stress(*grid.rows[:3], np.angle(Z))
    e_rr = rel_l2(srr, srr_ref, grid.mask)
    e_tt = rel_l2(stt, stt_ref, grid.mask)
    shear = rms(srt, grid.mask)
    assert e_rr < 0.10, f"sigma_rr rel L2 {e_rr:.4f}"
    assert e_tt < 0.10, f"sigma_tt rel L2 {e_tt:.4f}"
    assert shear < 0.05, f"shear RMS {shear:.4f} MPa"
    print(f"\n[criterion 2] PASS stresses: rel_rr {e_rr:.4f}, rel_tt {e_tt:.4f}, shear RMS {shear:.4f}")


def test_criterion_3_equilibrium_by_construction():
    mat = Material(1.0, 1.0)
    spec = _cfg("ring_quadrant")
    worst = 0.0
    for seed in range(20):
        rng = Rng(1000 + seed)
        pairs = build_pairs(spec)
        probe = np.array([s.z for s in sample_boundary(spec.domain, 400, rng.spawn(3))])
        init_pairs(pairs, probe, 0.5, 3, rng)
        rho = rng.uniform(100, 0.6, 1.9)
        theta = rng.uniform(100, np.pi / 2, np.pi)
        z = rho * np.exp(1j * theta)
        fn = net_stress_fn(pairs[0], mat)
        r1, r2, smax = fd_equilibrium(fn, z, 1e-4)
        lap = fd_trace_laplacian(fn, z, 1e-4)
        bound = 1e-4 * (1.0 + smax)
        for res in (r1, r2, lap):
            assert np.max(np.abs(res)) <= bound, f"seed {seed}: {np.max(np.abs(res)):.2e} > {bound:.2e}"
            worst = max(worst, float(np.max(np.abs(res)) / bound))
    print(f"\n[criterion 3] PASS equilibrium + trace harmonicity: worst residual at {worst:.3f} of bound")


def test_criterion_4_gradient_contract():
    spec = _cfg("ring_quadrant")
    rng = Rng(11)
    samples = sample_boundary(spec.domain, 8, rng.spawn(1))
    pairs = build_pairs(spec)
    probe = np.array([s.z for s in sample_boundary(spec.domain, 400, rng.spawn(3))])
    init_pairs(pairs, probe, 0.5, 3, rng)
    dev = grad_check(pairs, samples, spec, step=1e-6)
    assert dev < 1e-5, f"max relative gradient deviation {dev:.2e}"
    print(f"\n[criterion 4] PASS gradient check: max relative deviation {dev:.2e}")


def test_criterion_5_shallow_approximator():
    g = lambda z: 1.0 / (1.5 - z)
    taylor = lambda n: [1.5 ** -(k + 1) for k in range(n)]
    radii = np.linspace(0.0, 1.0, 100)
    angles = 2.0 * np.pi * np.arange(100) / 100
    pts = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    errs = []
    for n in (4, 8, 16, 32):
        s = constructive_shallow(taylor(n), z0=0.0, xi=0.0, n=n)
        assert np.all(np.abs(s.b) == 1.0), "|b_j| must equal 1 exactly"
        errs.append(float(np.max(np.abs(shallow_eval(s, pts) - g(pts)))))
    assert all(a > b for a, b in zip(errs, errs[1:])), f"sup errors not decreasing: {errs}"
    for n in (4, 8, 16):
        s = constructive_shallow(taylor(n), z0=0.0, xi=0.0, n=n)
        M = 512
        zs = np.exp(2j * np.pi * np.arange(M) / M)
        coeffs = np.fft.fft(shallow_eval(s, zs))[:n] / M
        dev = float(np.max(np.abs(coeffs - np.array(taylor(n)))))
        assert dev < 1e-8, f"n={n}: coefficient deviation {dev:.2e}"
    print(f"\n[criterion 5] PASS shallow approximator: sup errors {['%.2e' % e for e in errs]}")


def test_criterion_6_init_diagnostics():
    arch = [100] * 7
    stats = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for beta in (BETA3, 0.5, BETA2):
            reps = [
                init_diagnostics(arch, ActivationKind.EXP, beta, None, 10_000, 1_000, seed)
                for seed in range(5)
            ]
            stats[beta] = {
                "var_y": np.mean([r.var_y for r in reps], axis=0),
                "var_phi": np.mean([r.var_phi_w for r in reps], axis=0),
                "var_loss": np.mean([r.var_loss_w for r in reps], axis=0),
            }
    for beta, s in stats.items():
        for li, v in enumerate(s["var_y"]):
            assert 0.3 * beta <= v <= 1.7 * beta, f"beta={beta:.3f} layer {li+1}: Var[y]={v:.3f}"
    phi_ratio = stats[BETA3]["var_phi"][6] / stats[BETA3]["var_phi"][0]
    assert phi_ratio > 1e2, f"beta3 phi-gradient layer-7/layer-1 ratio {phi_ratio:.1f}"
    loss_ratio = stats[BETA2]["var_loss"][0] / stats[BETA2]["var_loss"][6]
    assert loss_ratio >= 10.0, f"beta2 loss-gradient layer-1/layer-7 ratio {loss_ratio:.1f}"
    print(
        f"\n[criterion 6] PASS init diagnostics: Var[y] tracks beta for all layers; "
        f"beta3 phi ratio {phi_ratio:.0f}, beta2 loss ratio {loss_ratio:.0f}"
    )


def test_criterion_7_loss_weights_and_allocation():
    for name in CONFIG_NAMES:
        spec = _cfg(name)
        lengths = [piece_length(p) for p in spec.domain.pieces]
        outer_len = spec.domain.outer_length()
        alpha_sum = math.fsum(
            piece_length(p) / outer_len for p in spec.domain.pieces if not p.is_interface
        )
        assert abs(alpha_sum - 1.0) < 1e-12, f"{name}: outer alphas sum to {alpha_sum}"
        n = spec.training.n_train
        counts = allocate_counts(lengths, n)
        total = sum(lengths)
        for c, L, p in zip(counts, lengths, spec.domain.pieces):
            assert abs(c - n * L / total) < 1.0, f"{name}/{p.name}: count {c} vs quota {n * L / total:.2f}"
    print(f"\n[criterion 7] PASS loss weights and sampling allocation on {len(CONFIG_NAMES)} geometries")


@pytest.fixture(scope="module")
def dd_runs():
    dd = _cfg("dd_plate_hole")
    quarter = _cfg("plate_hole_quadrant")
    dd_pairs, dd_hist = train(dd)
    q_pairs, q_hist = train(quarter)
    return dd, dd_pairs, dd_hist, quarter, q_pairs, q_hist


def test_criterion_8a_domain_decomposition(dd_runs):
    dd, dd_pairs, dd_hist, quarter, q_pairs, q_hist = dd_runs
    ratio = dd_hist.train_loss[-1] / q_hist.train_loss[-1]
    assert ratio < 5.0, f"dd/quadrant final loss ratio {ratio:.2f}"
    summ = heldout_residuals(dd_pairs, dd, 600, seed=4242)
    iface, outer = summ["interface_rms"], summ["outer_rms"]
    assert iface < 3.0 * outer, f"interface RMS {iface:.3f} vs outer RMS {outer:.3f}"
    print(
        f"\n[criterion 8a] PASS domain decomposition: loss ratio {ratio:.2f} (<5), "
        f"interface RMS {iface:.3f} < 3 x outer RMS {outer:.3f}"
    )


def test_criterion_8b_clamped_square_boundary_quality():
    spec = _cfg("clamped_square")
    pairs, _ = train(spec)
    held = heldout_residuals(pairs, spec, 800, seed=77)
    z, norm = held["z"], held["norm"]
    corners = np.array([0.5 + 0.5j, -0.5 + 0.5j, 0.5 - 0.5j, -0.5 - 0.5j])
    dist = np.min(np.abs(z[:, None] - corners[None, :]), axis=1)
    near = norm[dist < 0.1]
    far = norm[dist > 0.25]
    assert near.size and far.size
    assert far.mean() < near.mean(), f"far-corner mean {far.mean():.4f} vs near-corner {near.mean():.4f}"
    # smooth traces: second differences along an edge must be resolution-stable
    mat = spec.material
    xs = np.linspace(-0.45, 0.45, 361)

    def trace_second_diff(h):
        z_line = xs + 0.5j
        f = lambda zz: km_fields(zz, *mlp_forward(pairs[0], seed_jets(zz)), mat)
        vals = [f(z_line - h), f(z_line), f(z_line + h)]
        worst = 0.0
        for comp in range(5):  # sxx, syy, sxy, ux, uy
            a, b, c = (v[comp] for v in vals)
            worst = max(worst, float(np.max(np.abs((a - 2 * b + c) / h**2))))
        return worst

    d1 = trace_second_diff(2.5e-3)
    d2 = trace_second_diff(1.25e-3)
    assert math.isfinite(d1) and math.isfinite(d2)
    assert d2 <= 2.0 * d1 + 1e-6, f"second differences diverge: {d1:.3e} -> {d2:.3e}"
    print(
        f"\n[criterion 8b] PASS clamped square: residual near corners {near.mean():.4f} > away {far.mean():.4f}; "
        f"trace curvature stable ({d1:.2e} vs {d2:.2e})"
    )


def _run_twice(tmp_path, name, argv_builder, outputs):
    contents = []
    for tag in ("a", "b"):
        out_dir = tmp_path / f"{name}_{tag}"
        code = run_command(argv_builder(str(out_dir)))
        assert code == 0, f"{name} run {tag} failed"
        contents.append({f: open(os.path.join(str(out_dir), f), "rb").read() for f in outputs})
    return contents


def test_criterion_9_determinism(tmp_path):
    doc = json.load(open(config_path("ring_quadrant")))
    doc["training"].update(epochs=5, n_train=40, n_test=8)
    doc["outputs"]["grid"] = [10, 10]
    checked = []

    def build(command, outputs, extra=()):
        def argv(out_dir):
            doc["outputs"]["dir"] = out_dir
            cfg_path = os.path.join(out_dir + "_cfg.json")
            with open(cfg_path, "w") as fh:
                json.dump(doc, fh)
            if command == "eval":
                ckpt = os.path.join(out_dir, "checkpoint.json")
                assert run_command(["train", cfg_path]) == 0
                return ["eval", cfg_path, ckpt, *extra]
            return [command, cfg_path, *extra]

        a, b = _run_twice(tmp_path, command, argv, outputs)
        assert a == b, f"{command}: outputs differ between identical runs"
        checked.append(command)

    build("train", ["checkpoint.json", "history.csv"])
    build("eval", ["fields.csv", "errors.csv"], extra=["--grid", "9x9"])
    build("sample", ["samples.csv"], extra=["--n", "30"])
    build("init-check", ["variance.csv"], extra=["--beta", "0.5"])

    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"approx_{tag}.csv")
        assert run_command(["approx-demo", "--n", "8", "--out", out]) == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]
    checked.append("approx-demo")
    print(f"\n[criterion 9] PASS determinism: byte-identical outputs for {checked}")
