import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoelastic.elasticity import (
    ConstantData,
    Displacement,
    Interface,
    Material,
    NormalPressure,
    PlaneMode,
    Symmetry,
    Traction,
    assemble_loss,
    bc_operator,
    bc_residual,
    eval_boundary_data,
    group_weights,
    interface_residual,
    km_fields,
    km_fields_adjoint,
    material_derived,
)

MAT = Material(1.0, 1.0)


def test_material_derived_plane_strain():
    lt, gamma = material_derived(1.0, 1.0, PlaneMode.STRAIN)
    assert lt == 1.0
    assert gamma == 2.0


def test_material_derived_plane_stress():
    lt, gamma = material_derived(1.0, 1.0, PlaneMode.STRESS)
    assert abs(lt - 2.0 / 3.0) < 1e-15
    # gamma must equal the classical (3 - nu) / (1 + nu)
    nu = 1.0 / (2.0 * (1.0 + 1.0))
    assert abs(gamma - (3 - nu) / (1 + nu)) < 1e-15


def test_material_invalid():
    with pytest.raises(ValueError):
        material_derived(1.0, 0.0, PlaneMode.STRAIN)
    with pytest.raises(ValueError):
        material_derived(-1.0, 1.0, PlaneMode.STRAIN)


def test_material_derived_constants_set_once():
    mat = Material(1.0, 1.0, PlaneMode.STRESS)
    assert mat.gamma == material_derived(1.0, 1.0, PlaneMode.STRESS)[1]
    assert mat == Material(1.0, 1.0, PlaneMode.STRESS)
    with pytest.raises(ValueError):
        Material(1.0, 0.0)


def _residual(kind, f, n, z=0j):
    return bc_residual(*bc_operator(kind, n, z), np.array(f, dtype=float).reshape(len(f), -1))


def _jets(*channels):
    """Branch jets of per-point channel values, one row per channel."""
    return np.array(channels, dtype=np.complex128).reshape(len(channels), -1)


def test_km_fields_zero_state():
    f = km_fields(0.3 + 0.1j, _jets(0j, 0j, 0j), _jets(0j, 0j), MAT)
    assert f.shape == (5, 1)
    assert np.all(f == 0.0)


def test_km_fields_uniform_biaxial():
    # phi = 2.5 z, psi = 0: sxx = syy = 2 Re(phi') and u = (gamma - 1) phi / (2 mu)
    z = 1.0 + 2.0j
    f = km_fields(z, _jets(2.5 * z, 2.5 + 0j, 0j), _jets(0j, 0j), MAT)
    assert f.shape == (5, 1)
    sxx, syy, sxy, ux, uy = f[:, 0]
    assert sxx == 5.0 and syy == 5.0 and sxy == 0.0
    assert (ux, uy) == (1.25, 2.5)  # gamma = 2, mu = 1


def test_km_fields_does_not_depend_on_the_batch_size():
    # numpy reuses a temporary operand of a large enough product, which may
    # swap a complex product's operands; grid blocks must give one-shot bits
    rng = np.random.default_rng(3)
    c = lambda: rng.normal(size=20_000) + 1j * rng.normal(size=20_000)
    z, jp, jq = c(), np.array([c(), c(), c()]), np.array([c(), c()])
    whole = km_fields(z, jp, jq, MAT)
    parts = []
    for i in range(0, z.size, 4096):
        cut = slice(i, i + 4096)
        parts.append(km_fields(z[cut], jp[:, cut], jq[:, cut], MAT))
    for k, row in enumerate(np.concatenate(parts, axis=1)):
        assert whole[k].tobytes() == row.tobytes(), k


@pytest.mark.parametrize("n_phi, n_psi, nf", [(3, 2, 5)])
def test_km_fields_adjoint_matches_central_differences(n_phi, n_psi, nf):
    # L = sum(adj * fields) with fields = km_fields(z, jp, jq); each
    # jet entry u gets dL/dRe(u) + i dL/dIm(u).  L is real-linear in the jets,
    # so central differences are exact up to rounding
    rng = np.random.default_rng(7)
    c = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    z, jp, jq, adj = c(6), c(n_phi, 6), c(n_psi, 6), rng.normal(size=(nf, 6))
    mat = Material(1.3, 0.7, PlaneMode.STRESS)
    loss = lambda: float(np.sum(adj * km_fields(z, jp, jq, mat)))
    ap, aq = km_fields_adjoint(z, adj, mat)
    assert ap.shape == jp.shape and aq.shape == jq.shape
    h = 1e-6
    for jets, a in ((jp, ap), (jq, aq)):
        for idx in np.ndindex(jets.shape):
            u, fd = jets[idx], []
            for step in (h, 1j * h):
                jets[idx] = u + step
                lp = loss()
                jets[idx] = u - step
                fd.append((lp - loss()) / (2.0 * h))
                jets[idx] = u
            assert abs(complex(*fd) - a[idx]) < 1e-8 * (1.0 + abs(a[idx])), idx


def test_km_fields_polynomial_example():
    # phi = z^2, psi = z at z = 1+i with lambda = mu = 1, plane strain
    z = 1 + 1j
    f = km_fields(z, _jets(z**2, 2 * z, 2 + 0j), _jets(z, 1 + 0j), MAT)
    sxx, syy, sxy, ux, uy = f[:, 0]
    assert abs(sxx - 1.0) < 1e-14
    assert abs(syy - 7.0) < 1e-14
    assert abs(sxy - (-2.0)) < 1e-14
    assert abs(ux - (-2.5)) < 1e-14
    assert abs(uy - 2.5) < 1e-14


def test_traction_residual_uniform_pressure():
    f = (3.0, 3.0, 0.0, 0.0, 0.0)  # (sxx, syy, sxy, ux, uy)
    r = _residual(Traction(ConstantData(3.0, 0.0)), f, 1 + 0j)
    assert np.allclose(r, 0.0)


def test_normal_pressure_data():
    tx, ty = eval_boundary_data(NormalPressure(-1.0), 0j, np.array(0.6), np.array(0.8))
    assert abs(tx - 0.6) < 1e-15 and abs(ty - 0.8) < 1e-15


def test_displacement_residual():
    f = (0.0, 0.0, 0.0, 1.0, 2.0)  # (sxx, syy, sxy, ux, uy)
    r = _residual(Displacement(ConstantData(0.0, 0.0)), f, 1j)
    assert np.allclose(r.ravel(), [1.0, 2.0])


def test_symmetry_residual_vanishes_for_compatible_state():
    # u parallel to the tangent, sigma.n parallel to n  ->  both terms vanish
    n = complex(0, 1)
    f = (0.0, 5.0, 0.0, 3.0, 0.0)  # (sxx, syy, sxy, ux, uy)
    r = _residual(Symmetry(), f, n)
    assert np.allclose(r, 0.0)


def test_residual_rejects_non_unit_normal():
    with pytest.raises(ValueError, match="unit vector"):
        bc_operator(Traction(ConstantData(0, 0)), 1 + 1j, 0j)


def test_displacement_residual_needs_displacements():
    f = (1.0, 1.0, 0.0)  # stress rows only
    with pytest.raises(ValueError):
        _residual(Displacement(ConstantData(0, 0)), f, 1 + 0j)


def test_interface_residual_cases():
    f1 = np.array([[1.0], [2.0], [0.5], [0.1], [0.2]])
    A, d = bc_operator(Interface(), 1 + 0j, 0j)
    assert np.all(d == 0.0)
    r = interface_residual(A, f1, f1)
    assert np.allclose(r, 0.0)
    # pure shear jump with n = (1, 0): only the second traction component jumps
    f2 = np.array([[1.0], [2.0], [0.5 - 0.3], [0.1], [0.2]])
    r = interface_residual(A, f1, f2)
    assert np.allclose(r.ravel(), [0.0, 0.0, 0.0, 0.3])
    r_flip = interface_residual(bc_operator(Interface(), -1 + 0j, 0j)[0], f1, f2)
    assert np.allclose(np.linalg.norm(r_flip), np.linalg.norm(r))
    assert np.allclose(r_flip.ravel()[3], -0.3)


def test_bc_operators_match_the_written_out_conditions():
    rng = np.random.default_rng(4)
    B = 7
    n = np.exp(1j * rng.uniform(0, 2 * np.pi, B))  # off-axis unit normals
    nx, ny = n.real, n.imag
    z = rng.normal(size=B) + 1j * rng.normal(size=B)
    f = rng.normal(size=(5, B))
    sxx, syy, sxy, ux, uy = f
    tx, ty = sxx * nx + sxy * ny, sxy * nx + syy * ny  # sigma . n
    want = {
        Traction(NormalPressure(2.0)): [tx + 2.0 * nx, ty + 2.0 * ny],
        Displacement(ConstantData(0.5, -1.0)): [ux - 0.5, uy + 1.0],
        Symmetry(): [tx * ny - ty * nx, ux * nx + uy * ny],
    }
    for kind, rows in want.items():
        A, d = bc_operator(kind, n, z)
        assert A.shape == (B, 2, 5) and d.shape == (B, 2)
        assert np.allclose(bc_residual(A, d, f), np.array(rows).T, atol=1e-14)
    g = rng.normal(size=(5, B))
    gxx, gyy, gxy, gux, guy = g
    gx, gy = gxx * nx + gxy * ny, gxy * nx + gyy * ny
    A, _ = bc_operator(Interface(), n, z)
    jump = [ux - gux, uy - guy, tx - gx, ty - gy]
    assert np.allclose(interface_residual(A, f, g), np.array(jump).T, atol=1e-14)


def test_assemble_loss_alpha_split():
    # square with two Dirichlet and two Neumann edges of equal length
    alphas = group_weights([1.0] * 4, [True] * 4)
    assert alphas == [0.25] * 4
    total, mse = assemble_loss([np.zeros((3, 2))] * 4, alphas)
    assert total == 0.0
    assert mse == [0.0] * 4


def test_assemble_loss_mean_of_squared_norms():
    alphas = group_weights([2.0], [True])
    total, mse = assemble_loss([np.array([[1.0, 0.0], [0.0, 1.0]])], alphas)
    assert abs(total - 1.0) < 1e-15
    assert (alphas, mse) == ([1.0], [1.0])


def test_outer_alphas_sum_to_one_with_interfaces():
    alphas = group_weights([1.5, 2.5, 3.0], [True, True, False])
    assert abs(alphas[0] + alphas[1] - 1.0) < 1e-12
    assert abs(alphas[2] - 3.0 / 4.0) < 1e-12


def test_group_weights_need_outer_length():
    with pytest.raises(ValueError, match="outer boundary length"):
        group_weights([1.0], [False])


@given(st.lists(st.floats(-5, 5), min_size=4, max_size=20), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_assemble_loss_permutation_invariant_given_fixed_order(vals, seed):
    n = (len(vals) // 2) * 2
    res = np.array(vals[:n]).reshape(-1, 2)
    perm = np.random.default_rng(seed).permutation(res.shape[0])
    # groups carry a canonical sample order, so a permuted copy reduces identically
    total1, _ = assemble_loss([res], [1.0])
    total2, _ = assemble_loss([res[perm][np.argsort(perm)]], [1.0])
    assert total1 == total2
