import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (config_path, equilibrium_residual, fd_equilibrium, fd_trace_laplacian, net_stress_fn, ring_problem, seeded,
                      square_problem)
from holoelastic.analytics import (
    GridField,
    eval_grid,
    heldout_residuals,
    init_diagnostics,
    rel_l2,
    ring_exact_potentials,
    ring_exact_stress,
    rms,
    rotate_stress,
)
from holoelastic import analytics, network
from holoelastic.autodiff import loss_backward, loss_forward
from holoelastic.cli import run_command
from holoelastic.elasticity import Material, km_derivatives, km_fields
from holoelastic.export import write_fields_csv
from holoelastic.geometry import region_contains, sample_boundary
from holoelastic.jets import ActivationKind, seed_jets
from holoelastic.network import checkpoint_load, mlp_forward
from holoelastic.problem import load_config
from holoelastic.rng import Rng
from holoelastic.training import build_pairs, init_pairs, train

MAT = Material(1.0, 1.0)


def test_ring_stress_boundary_values():
    sr_in, _ = ring_exact_stress(0.5, p=-1.0, r=0.5, R=2.0)
    assert abs(sr_in) < 1e-15  # stress-free inner boundary
    sr_out, _ = ring_exact_stress(2.0, p=-1.0, r=0.5, R=2.0)
    assert abs(sr_out - 1.0) < 1e-15  # equals -p


def test_ring_stress_interior_value():
    sr, st_ = ring_exact_stress(1.0, p=-1.0, r=0.5, R=2.0)
    assert abs(sr - 0.8) < 1e-14
    assert abs(st_ - 4.0 / 3.0) < 1e-14


def test_ring_stress_domain_check():
    with pytest.raises(ValueError):
        ring_exact_stress(0.4, p=-1.0, r=0.5, R=2.0)


def test_ring_potentials():
    z = np.array([1.0 + 0j, 1e6 + 1e6j])
    dphi, dpsi = ring_exact_potentials(z, p=-1.0, r=0.5, R=2.0)
    assert np.allclose(dphi, 8.0 / 15.0)
    assert abs(dpsi[1]) < 1e-12  # 1/z^2 decay
    with pytest.raises(ValueError):
        ring_exact_potentials(0j, -1.0, 0.5, 2.0)


def _ring_stress(z):
    """The stress rows of km_fields on the exact ring's (phi', psi'), with
    phi'' = 0 and zero potential values, which only the displacements read."""
    dphi, dpsi = ring_exact_potentials(z, -1.0, 0.5, 2.0)
    zero = np.zeros_like(dpsi)
    return tuple(km_fields(z, np.array([zero, dphi, zero]), np.array([zero, dpsi]), MAT)[:3])


def test_ring_potentials_reproduce_polar_stress():
    rng = Rng(0)
    rho = rng.uniform(50, 0.5, 2.0)
    theta = rng.uniform(50, 0.0, 2.0 * np.pi)
    z = rho * np.exp(1j * theta)
    sxx, syy, sxy = _ring_stress(z)
    srr, stt, srt = rotate_stress(sxx, syy, sxy, theta)
    sr_ref, st_ref = ring_exact_stress(rho, -1.0, 0.5, 2.0)
    assert np.max(np.abs(srr - sr_ref)) < 1e-10
    assert np.max(np.abs(stt - st_ref)) < 1e-10
    assert np.max(np.abs(srt)) < 1e-10


@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10), st.floats(0, 2 * np.pi))
@settings(max_examples=60, deadline=None)
def test_stress_rotation_roundtrip(sxx, syy, sxy, theta):
    a = rotate_stress(np.array(sxx), np.array(syy), np.array(sxy), theta)
    back = rotate_stress(*a, -theta)
    # rotating into polar and back is the identity
    for got, want in zip(back, (sxx, syy, sxy)):
        assert abs(float(got) - want) < 1e-12 * max(1.0, abs(want))


def _trained_free_pair(seed=0):
    problem = square_problem(seed=seed)
    pairs = build_pairs(problem)
    rng = Rng(seed)
    probe = np.array([s.z for s in sample_boundary(problem.domain, 200, rng.spawn(3))])
    init_pairs(pairs, probe, 0.5, 3, rng)
    return pairs[0]


def test_equilibrium_by_construction_random_nets():
    # Cauchy momentum balance holds identically; the finite-difference
    # residual is pure truncation error
    for seed in range(3):
        pair = _trained_free_pair(seed)
        rng = Rng(100 + seed)
        z = rng.uniform(100, -0.9, 0.9) + 1j * rng.uniform(100, -0.9, 0.9)
        r1, r2, smax = fd_equilibrium(net_stress_fn(pair, MAT), z, 1e-4)
        lap = fd_trace_laplacian(net_stress_fn(pair, MAT), z, 1e-4)
        bound = 1e-4 * (1.0 + smax)
        assert np.max(np.abs(r1)) < bound
        assert np.max(np.abs(r2)) < bound
        assert np.max(np.abs(lap)) < bound


def test_equilibrium_exact_ring_potentials():
    # truncation scales with h^2 times the cubic 1/z^2-field derivatives, so
    # h = 1e-4 sits at ~2e-8 and h = 1e-5 comfortably under 1e-8
    r1, r2, _ = fd_equilibrium(_ring_stress, np.array([1.0 + 0j]), 1e-5)
    assert abs(r1[0]) < 1e-8 and abs(r2[0]) < 1e-8


def test_equilibrium_residual_step_bounds():
    pair = _trained_free_pair()
    z = np.array([0.1 + 0.2j])
    r1, r2 = equilibrium_residual(pair, MAT, z, 1e-4)
    assert np.isfinite(r1).all() and np.isfinite(r2).all()
    with pytest.raises(ValueError):
        equilibrium_residual(pair, MAT, z, 1e-7)
    with pytest.raises(ValueError):
        equilibrium_residual(pair, MAT, z, 0.1)


def test_constant_potential_net_equilibrium_exact():
    problem = square_problem()
    pair = build_pairs(problem)[0]
    pair.phi.layers[-1].bias[:] = 1.0 + 2.0j
    z = np.array([0.1 + 0.2j, -0.4 + 0.1j])
    r1, r2, _ = fd_equilibrium(net_stress_fn(pair, MAT), z, 1e-4)
    assert np.max(np.abs(r1)) < 1e-12 and np.max(np.abs(r2)) < 1e-12


def grid_l2_error(nn, ref):
    """Root-mean-square difference per component over unmasked points."""
    if nn.xs.shape != ref.xs.shape or not np.array_equal(nn.mask, ref.mask):
        raise ValueError("grids/masks disagree")
    out = {}
    for k, a, b in zip(("sxx", "syy", "sxy", "ux", "uy"), nn.rows, ref.rows):
        d = a[nn.mask] - b[nn.mask]
        out[k] = float(np.sqrt(np.mean(np.abs(d) ** 2)))
    return out


def test_eval_grid_and_l2_error():
    problem = ring_problem()
    pair = _trained_free_pair()
    grid = eval_grid([pair], problem, 24, 24)
    assert grid.mask.shape == (24, 24)
    assert grid.mask.any() and not grid.mask.all()
    assert np.all(np.isfinite(grid.rows[0][grid.mask]))
    assert np.all(np.isnan(grid.rows[0][~grid.mask]))
    err = grid_l2_error(grid, grid)
    assert all(v == 0.0 for v in err.values())


def _ring_cli(tmp_path):
    """ring_quadrant with outputs under tmp_path and an initialized checkpoint;
    returns the config path, the output dir and the checkpoint path."""
    doc = json.load(open(config_path("ring_quadrant")))
    doc["training"]["epochs"] = 0
    doc["outputs"]["dir"] = out = str(tmp_path / "out")
    cfg = str(tmp_path / "ring.json")
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    assert run_command(["train", cfg]) == 0
    return cfg, out, os.path.join(out, "checkpoint.json")


def test_eval_memory_is_set_by_the_forward_block_not_the_grid(monkeypatch, tmp_path, capsys):
    # the interior points of a ring grid in blocks of at most 512 points
    # (FORWARD_BLOCK 5,120 = 512 points x width 10).  The error pass keeps
    # sums of squares per grid row, so the eval peaks at 0.76 MB (200x200) and
    # 0.85 MB (400x400); keeping nine magnitudes per point peaked at 3.0 and
    # 10.9 MB, and one km_fields call on all points at 9.7 MB (200x200)
    cfg, _, ckpt = _ring_cli(tmp_path)
    monkeypatch.setattr(analytics, "FORWARD_BLOCK", 5120)
    for n, interior in ((200, 29454), (400, 117806)):
        calls = []
        monkeypatch.setattr("holoelastic.elasticity.km_fields", lambda *a: calls.append(a[0].size) or km_fields(*a))
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert run_command(["eval", cfg, ckpt, "--grid", f"{n}x{n}"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"({interior} interior points)" in capsys.readouterr().out
        assert sum(calls) == interior and max(calls) <= 512
        assert peak < 1.5e6, n


def _initialized_pairs(spec, seed=0):
    pairs = build_pairs(spec)
    rng = Rng(seed)
    init_pairs(pairs, sample_boundary(spec.domain, 200, rng.spawn(3)).z, spec.training.beta, 3, rng)
    return pairs


@pytest.mark.parametrize(
    "name, nx, ny, block, rows",
    [
        ("ring_quadrant", 100, 90, None, 8),  # width 10: blocks of 8 rows, 11 x 8 + 2
        ("dd_plate_hole", 150, 150, 40960, 27),  # blocks of 27 rows cross y = 0 and x = 0
        ("ring_quadrant", 100, 30, 640, 1),  # a row is wider than the block: one row per block
        ("clamped_square", 200, 6, None, 1),  # width 100: the 1-row blocks of a 200x200 eval
    ],
)
def test_eval_grid_blocks_match_one_shot_evaluation(monkeypatch, configs, name, nx, ny, block, rows):
    spec = configs[name]
    pairs = _initialized_pairs(spec)
    if block:
        monkeypatch.setattr(analytics, "FORWARD_BLOCK", block)
    blocks = analytics.grid_blocks
    got_rows = []
    monkeypatch.setattr(analytics, "grid_blocks", lambda *a: (got_rows.append(b.ys.size) or b for b in blocks(*a)))
    grid = eval_grid(pairs, spec, nx, ny)
    assert got_rows == [min(rows, ny - i) for i in range(0, ny, rows)]
    assert grid.xs.shape == (nx,) and grid.ys.shape == (ny,)
    X, Y = np.meshgrid(grid.xs, grid.ys)
    sub = np.full(X.shape, -1)
    for s in range(spec.domain.n_subdomains):
        sub[region_contains(spec.domain.subdomain_pieces(s), grid.xs, grid.ys) & (sub < 0)] = s
    assert np.array_equal(grid.mask, sub >= 0)
    # each interior point carries the fields of its owner, the first subdomain that holds it
    for s, pair in enumerate(pairs):
        where = sub == s
        z = X[where] + 1j * Y[where]
        jp, jq = mlp_forward(pair, seed_jets(z))
        f = km_fields(z, jp, jq, spec.material)
        dphi, _, dpsi = km_derivatives(jp, jq)
        assert grid.rows.shape == (len(f), ny, nx), s
        assert grid.rows[:, where].tobytes() == f.tobytes(), s
        assert grid.dphi[where].tobytes() == dphi.tobytes() and grid.dpsi[where].tobytes() == dpsi.tobytes(), s
    for values in (grid.rows[:, ~grid.mask], grid.dphi[~grid.mask], grid.dpsi[~grid.mask]):
        assert np.isnan(values).all()


@pytest.mark.parametrize("nx, ny", [(41, 39), (301, 301)])
def test_dd_interface_nodes_belong_to_the_lower_numbered_quadrant(configs, nx, ny):
    # odd grids put nodes exactly on x = 0 and y = 0, the interfaces; each goes
    # to the first of the closed quadrants NE, NW, SW, SE (outside the closed
    # hole) that holds it, and carries that pair's fields
    spec = configs["dd_plate_hole"]
    pairs = _initialized_pairs(spec)
    grid = eval_grid(pairs, spec, nx, ny)
    X, Y = np.meshgrid(grid.xs, grid.ys)
    assert (X == 0.0).any() and (Y == 0.0).any()
    quadrants = [(X >= 0) & (Y >= 0), (X <= 0) & (Y >= 0), (X <= 0) & (Y <= 0), (X >= 0) & (Y <= 0)]
    owner = np.select(quadrants, range(4), -1)
    owner[np.hypot(X, Y) < 1.0] = -1
    assert np.array_equal(grid.mask, owner >= 0)
    for s, pair in enumerate(pairs):
        z = X[owner == s] + 1j * Y[owner == s]
        assert grid.rows[:, owner == s].tobytes() == km_fields(z, *mlp_forward(pair, seed_jets(z)), spec.material).tobytes(), s


def test_cli_eval_outputs_are_those_of_eval_grid(monkeypatch, tmp_path):
    # the CLI streams blocks; errors.csv and fields.csv must be what the whole
    # grid gives: rel_l2 and rms over its interior points, and its CSV rows
    cfg, out, ckpt = _ring_cli(tmp_path)
    spec = load_config(cfg)
    grid = eval_grid(checkpoint_load(ckpt), spec, 90, 70)
    X, Y = np.meshgrid(grid.xs, grid.ys)
    Z, ref = X + 1j * Y, spec.reference
    dphi, dpsi = ring_exact_potentials(np.where(grid.mask, Z, 1.0), ref["p"], ref["r"], ref["R"])
    srr_ref, stt_ref = ring_exact_stress(np.where(grid.mask, np.abs(Z), ref["r"]), ref["p"], ref["r"], ref["R"])
    srr, stt, srt = rotate_stress(*grid.rows[:3], np.angle(Z))
    want = {
        "rel_l2_dphi": rel_l2(grid.dphi, dphi, grid.mask),
        "rel_l2_dpsi": rel_l2(grid.dpsi, dpsi, grid.mask),
        "rel_l2_sigma_rr": rel_l2(srr, srr_ref, grid.mask),
        "rel_l2_sigma_tt": rel_l2(stt, stt_ref, grid.mask),
        "rms_sigma_rt": rms(srt, grid.mask),
    }
    whole = str(tmp_path / "whole.csv")
    write_fields_csv(whole, [grid])
    # blocks of 9 rows (7 x 9 + 7), then of one row
    for block in (analytics.FORWARD_BLOCK, 640):
        monkeypatch.setattr(analytics, "FORWARD_BLOCK", block)
        assert run_command(["eval", cfg, ckpt, "--grid", "90x70"]) == 0
        rows = [line.split(",") for line in open(os.path.join(out, "errors.csv")).read().splitlines()[1:]]
        assert {k: float(v) for k, v in rows} == want, block
        assert open(whole).read() == open(os.path.join(out, "fields.csv")).read(), block


def test_heldout_residuals_is_one_loss_forward(configs):
    # dd_plate_hole: outer pieces (k = 2 residual components) and interfaces (k = 4)
    spec = configs["dd_plate_hole"]
    pairs = _initialized_pairs(spec)
    got = heldout_residuals(pairs, spec, 300, seed=11)
    _, rec = loss_forward(pairs, seeded(sample_boundary(spec.domain, 300, Rng(11).spawn(7)), spec), spec)
    assert {r.shape[1] for r in rec.residuals} == {2, 4}
    mean_sq = lambda rs: float(np.sum(np.concatenate([r.ravel() for r in rs]) ** 2)) / sum(r.size for r in rs)
    outer = [r for g, r in zip(rec.batch.groups, rec.residuals) if len(g.sides) == 1]
    iface = [r for g, r in zip(rec.batch.groups, rec.residuals) if len(g.sides) == 2]
    assert got["outer_rms"] == math.sqrt(mean_sq(outer)) and got["interface_rms"] == math.sqrt(mean_sq(iface))
    # per piece: each sample's squared norm, added with math.fsum
    assert got["piece_rms"] == [math.sqrt(math.fsum(np.sum(r * r, axis=1)) / r.size) for r in rec.residuals]
    assert got["z"].tobytes() == np.concatenate([g.z for g in rec.batch.groups]).tobytes()
    assert got["piece"].tolist() == [g.piece for g in rec.batch.groups for _ in g.z]
    assert got["norm"].tobytes() == np.concatenate([np.linalg.norm(r, axis=1) for r in rec.residuals]).tobytes()
    assert got["z"].size == 300 and 0.0 < got["outer_rms"] < math.inf


def test_grid_l2_constant_offset():
    problem = ring_problem()
    pair = _trained_free_pair()
    grid = eval_grid([pair], problem, 16, 16)
    shifted = eval_grid([pair], problem, 16, 16)
    shifted.rows[0] += 0.75
    err = grid_l2_error(shifted, grid)
    assert abs(err["sxx"] - 0.75) < 1e-12
    assert err["syy"] == 0.0


def test_grid_l2_error_matches_two_pass_oracle():
    rng = Rng(1)
    mask = np.ones((8, 20), dtype=bool)
    a = rng.normal(160).reshape(8, 20)
    b = rng.normal(160).reshape(8, 20)
    ga = GridField(np.arange(20.0), np.arange(8.0), mask, np.stack([a, a, a]), None, None)
    gb = GridField(np.arange(20.0), np.arange(8.0), mask, np.stack([b, b, b]), None, None)
    err = grid_l2_error(ga, gb)["sxx"]
    # independent accumulation: mean of squares, then sqrt
    acc = 0.0
    for x, y in zip(a.ravel(), b.ravel()):
        acc += (x - y) ** 2
    assert abs(err - math.sqrt(acc / 160.0)) < 1e-12


@given(st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_grid_l2_symmetry_and_triangle(seed):
    rng = Rng(seed)
    mask = np.ones((4, 10), dtype=bool)
    mk = lambda arr: GridField(np.arange(10.0), np.arange(4.0), mask, np.stack([arr, arr, arr]), None, None)
    a, b, c = (rng.normal(40).reshape(4, 10) for _ in range(3))
    dab = grid_l2_error(mk(a), mk(b))["sxx"]
    dba = grid_l2_error(mk(b), mk(a))["sxx"]
    dac = grid_l2_error(mk(a), mk(c))["sxx"]
    dcb = grid_l2_error(mk(c), mk(b))["sxx"]
    assert abs(dab - dba) < 1e-12
    assert dab <= dac + dcb + 1e-10


def test_variance_report_shapes_and_positivity():
    rep = init_diagnostics([20, 20], ActivationKind.EXP, 0.5, None, 500, 200, 0)
    assert rep.layers == [1, 2]
    for row in (rep.var_y, rep.var_phi_w, rep.var_dphi_w, rep.var_ddphi_w, rep.var_loss_w):
        assert len(row) == 2
        assert all(v > 0 for v in row)
    assert not any(rep.overflow)


def test_variance_report_rejects_empty_probe():
    with pytest.raises(ValueError):
        init_diagnostics([10], ActivationKind.EXP, 0.5, None, 0, 100, 0)
    with pytest.raises(ValueError):
        init_diagnostics([10], ActivationKind.EXP, 0.5, None, 100, 0, 0)
    # a NetworkConfig has one width for every hidden layer, and at least one
    for arch in ([10, 20], []):
        with pytest.raises(ValueError, match=rf"need one or more hidden layers of equal width, got \{arch}"):
            init_diagnostics(arch, ActivationKind.EXP, 0.5, None, 100, 100, 0)


def test_variance_report_flags_overflow_instead_of_nan():
    # far beyond the admissible range the Gaussian-assumption layers misjudge
    # E|x|^2 exponentially, the forward pass overflows, and the report flags
    # it rather than emitting NaNs
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = init_diagnostics([100] * 7, ActivationKind.EXP, 6.0, 3, 2000, 200, 0)
    assert all(rep.overflow)
    assert all(math.isinf(v) for v in rep.var_y)
    assert not any(math.isnan(v) for v in rep.var_y)


def test_variance_report_holds_no_gradient_network_beside_the_phi_caches():
    # criterion 6's shape (7x100, probe 10000, batch 1000): each layer's
    # gradient is read as branch_sweep yields it, so above the phi caches
    # (seven (3, 1000, 100) complex128 jets and the seeds) the report's
    # traced peak is the weights and at most 1.2 jets: the adjoint jet, its
    # row block and one layer's gradient (1.11 jets measured; 1.59 with a
    # phi+psi WeightGrad and a zero gradient network per channel sweep)
    jet = 3 * 1000 * 100 * 16
    caches = 7 * jet + 3 * 1000 * 16
    weights = 2 * sum(l.weights.nbytes + l.bias.nbytes for l in network.build_mlp([100] * 7).layers)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        init_diagnostics([100] * 7, ActivationKind.EXP, 0.5, None, 10_000, 1_000, 0)
        above = tracemalloc.get_traced_memory()[1] - before - caches - weights
    finally:
        tracemalloc.stop()
    assert above <= 1.2 * jet, above / jet


def _recorded_loss_forwards(monkeypatch) -> list:
    """(args, record) of each analytics.loss_forward call, in call order."""
    records = []
    original = analytics.loss_forward

    def keep(*args, **kwargs):
        out = original(*args, **kwargs)
        records.append((args, out[1]))
        return out

    monkeypatch.setattr(analytics, "loss_forward", keep)
    return records


def test_variance_rows_match_the_full_sweeps(monkeypatch):
    # variance_report sweeps the loss adjoint through phi alone, and each
    # channel seed with channel + 1 rows: var_loss_w is bit for bit that of
    # the full loss_backward gradient, the phi rows match 3-channel seeds.
    # The report's record holds no psi caches, so the full gradient comes
    # from a both-branch loss_forward on the same pairs and batch
    records = _recorded_loss_forwards(monkeypatch)
    rep = init_diagnostics([30, 30, 30], ActivationKind.EXP, 0.5, 3, 500, 200, 2)
    ((args, rec),) = records
    phi = loss_backward(loss_forward(*args)[1]).grads[0].phi
    assert rep.var_loss_w == [analytics._cvar(l.weights) for l in phi.layers[:3]]
    caches = rec.subs[0].phi
    for channel, row in enumerate((rep.var_phi_w, rep.var_dphi_w, rep.var_ddphi_w)):
        seed = np.zeros((3, rec.batch.eval_z[0].size), dtype=np.complex128)
        seed[channel] = 1.0
        net = rec.pairs[0].phi
        out = network.branch_backward(net, caches, seed, network.build_mlp(net.widths[1:-1]))
        want = [analytics._cvar(l.weights) for l in out.layers[:3]]
        assert np.allclose(row, want, rtol=1e-14, atol=0.0), channel


def test_init_diagnostics_cache_no_psi_layer(monkeypatch):
    # no variance row sweeps psi, so its forward keeps none of its layers
    records = _recorded_loss_forwards(monkeypatch)
    init_diagnostics([20, 20], ActivationKind.EXP, 0.5, None, 100, 50, 0)
    ((_, rec),) = records
    assert len(rec.subs[0].phi) == 3 and rec.subs[0].psi == []


def test_init_check_sweeps_the_networks_that_train_starts_from(monkeypatch, tmp_path):
    # `init-check --m-e 3` on a config draws its probe, batch and weights from
    # the streams that `train` uses at the config's m_e = 3, for the same seed;
    # with `--beta B --seed S` it sweeps what train starts from on a copy whose
    # training.beta is B and training.seed S
    records = _recorded_loss_forwards(monkeypatch)
    doc = json.load(open(config_path("ring_quadrant")))
    doc["training"].update(epochs=0, n_train=60, seed=7)
    doc["outputs"]["dir"] = str(tmp_path / "out")
    cfg = str(tmp_path / "ring.json")
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    swept = []
    for args, overrides in (([], {}), (["--beta", "0.45", "--seed", "11"], {"beta": 0.45, "seed": 11})):
        records.clear()
        assert run_command(["init-check", cfg, "--m-e", "3", *args]) == 0
        ((_, rec),) = records
        assert rec.batch.eval_z[0].size == 60
        doc["training"].update(overrides)
        copy = str(tmp_path / "copy.json")
        with open(copy, "w") as fh:
            json.dump(doc, fh)
        pairs, _ = train(load_config(copy))
        for name in ("phi", "psi"):
            got, want = getattr(rec.pairs[0], name), getattr(pairs[0], name)
            assert got.widths == want.widths == [1, 10, 10, 1]
            for a, b in zip(got.layers, want.layers):
                assert a.weights.tobytes() == b.weights.tobytes() and a.bias.tobytes() == b.bias.tobytes()
        swept.append(rec.pairs[0].phi.layers[0].weights.tobytes())
    assert swept[0] != swept[1]  # the overrides reach the sweep
