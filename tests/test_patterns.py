"""Free-dof patterns against dense oracles, and the read-only cached mesh data."""

import dataclasses

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

import oracles
from thermocontact.assembly import (
    assemble_contact_mass,
    assemble_elastic_operators,
    assemble_electric_system,
    assemble_mech_load,
    assemble_p_laplacian,
    assemble_p_laplacian_jacobian,
    assemble_scalar_mass,
    assemble_scalar_stiffness_unit,
    assemble_thermal_coupling,
    assemble_thermal_robin,
    assemble_thermal_stiffness,
    assemble_vector_mass,
    assemble_velocity_heat,
    phi_b_nodal,
)
from thermocontact.driver import main
from thermocontact.materials import default_ptc_model
from thermocontact.mesh import (
    BandCholesky,
    BandLU,
    build_dof_maps,
    build_unit_square_mesh,
    edge_quadrature,
    factor_banded,
    SYMMETRY_RTOL,
    load_mesh,
)

MESH_ARRAYS = ("nodes", "triangles", "boundary_edges", "edge_tags", "edge_normals", "edge_owner",
               "areas", "grads", "grad_products", "midpoints")
SPARSE_ARRAYS = ("data", "indices", "indptr")
QUAD_ARRAYS = ("ids", "conn", "tags", "points", "weights", "normals")
PATTERN_ARRAYS = ("indptr", "indices", "tri", "edge")
LAYOUT_ARRAYS = ("lower", "mirror", "band")
QUAD_TAGS = (("C",), ("N",), ("N", "C"))


def perturbed_mesh_text(n=4, seed=None):
    """Mesh file of an n x n square with moved interior nodes; C edges meet the D corner (0, 0).

    Left D, bottom C, right C, top N: the bottom contact side starts at a
    Dirichlet corner and the right one ends at an exchange corner. With a
    seed the nodes are numbered in a random order.
    """
    mesh = build_unit_square_mesh(n, tags={"left": "D", "bottom": "C", "right": "C", "top": "N"})
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    inner = (x > 0) & (x < 1) & (y > 0) & (y < 1)
    nodes = mesh.nodes.copy()
    nodes[inner] += 0.3 / n * np.column_stack([np.sin(7.0 * y[inner]), np.cos(5.0 * x[inner])])
    order = np.arange(mesh.n_nodes)
    if seed is not None:
        order = np.random.default_rng(seed).permutation(mesh.n_nodes)
    label = np.empty_like(order)
    label[order] = np.arange(mesh.n_nodes)  # node order[k] is written k-th
    lines = [f"nodes {mesh.n_nodes} triangles {mesh.triangles.shape[0]} edges {mesh.boundary_edges.shape[0]}"]
    lines += [f"{float(a)!r} {float(b)!r}" for a, b in nodes[order]]
    lines += [" ".join(map(str, t)) for t in label[mesh.triangles]]
    lines += [f"{i} {j} {tag}" for (i, j), tag in zip(label[mesh.boundary_edges], mesh.edge_tags)]
    return "\n".join(lines) + "\n"


@pytest.fixture(params=["DDCN", "contact_free", "loaded"])
def case(request, tmp_path):
    if request.param == "loaded":
        path = tmp_path / "perturbed.mesh"
        path.write_text(perturbed_mesh_text())
        mesh = load_mesh(str(path))
        corner = np.flatnonzero((mesh.boundary_edges == 0).any(axis=1))  # the two edges at (0, 0)
        assert sorted(mesh.edge_tags[corner]) == ["C", "D"]
    else:
        bottom = "C" if request.param == "DDCN" else "N"
        mesh = build_unit_square_mesh(4, tags={"left": "D", "right": "D", "bottom": bottom, "top": "N"})
    return mesh, build_dof_maps(mesh)


def moving_traction(x, t):
    return (np.asarray(x)[..., 0] + 0.5) * (1.0 + t)


def assert_matches(got, ref):
    """got (sparse) equals the dense ref to 1e-13 relative to the largest entry of ref."""
    np.testing.assert_allclose(got.toarray(), ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())


def assert_load_matches(got, ref):
    """got equals the nonzero ref to 1e-12 relative to the largest entry of ref."""
    assert np.abs(ref).max() > 0.0
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())


def anisotropic_k(s):
    """Conductivity with temperature-dependent, unequal off-diagonal entries: k != k^T."""
    s = np.asarray(s, dtype=float)
    out = np.empty(s.shape + (2, 2))
    out[..., 0, 0] = 1.5 + 0.5 * np.tanh(s)
    out[..., 0, 1] = 0.4 + 0.3 * np.sin(s)
    out[..., 1, 0] = -0.2 + 0.1 * s * s / (1.0 + s * s)
    out[..., 1, 1] = 1.0 + 0.2 * np.cos(s)
    return out


# thermal expansion coupling with m != m^T and m_00 != m_11
SKEW_M = np.array([[1.3, 0.4], [-0.7, 0.6]])


class TestOperatorsAgainstOracles:
    def test_masses_and_unit_stiffness(self, case):
        mesh, dofs = case
        sfree, vfree = dofs.scalar_free_nodes, dofs.vector_free_dofs()
        assert_matches(assemble_scalar_mass(mesh, dofs),
                       oracles.restrict(oracles.dense_scalar_mass(mesh), sfree))
        assert_matches(assemble_vector_mass(mesh, dofs),
                       oracles.restrict(oracles.dense_vector_mass(mesh), vfree))
        assert_matches(assemble_scalar_stiffness_unit(mesh, dofs),
                       oracles.restrict(oracles.dense_scalar_stiffness(mesh), sfree))
        contact = np.kron(oracles.dense_boundary_mass(mesh, ("C",)), np.eye(2))
        assert_matches(assemble_contact_mass(mesh, dofs), oracles.restrict(contact, vfree))

    def test_thermal_stiffness(self, case):
        mesh, dofs = case
        mat, _, _ = default_ptc_model()
        theta = np.random.default_rng(1).normal(size=mesh.n_nodes)
        ref = oracles.dense_scalar_stiffness(mesh, kfun=mat.k, theta=theta)
        assert_matches(assemble_thermal_stiffness(mesh, dofs, mat, theta),
                       oracles.restrict(ref, dofs.scalar_free_nodes))

    def test_anisotropic_thermal_stiffness(self, case):
        mesh, dofs = case
        mat, _, _ = default_ptc_model()
        mat = dataclasses.replace(mat, k=anisotropic_k)
        theta = np.random.default_rng(5).normal(size=mesh.n_nodes)
        ref = oracles.dense_scalar_stiffness(mesh, kfun=anisotropic_k, theta=theta)
        got = assemble_thermal_stiffness(mesh, dofs, mat, theta)
        assert_matches(got, oracles.restrict(ref, dofs.scalar_free_nodes))
        assert np.abs((got - got.T).toarray()).max() > 1e-3  # the transpose convention is tested

    def test_electric_system(self, case):
        mesh, dofs = case
        mat, fric, bd = default_ptc_model({"phi_b": "x1"})
        fric = dataclasses.replace(fric, F_field=moving_traction, F_bar=3.0)
        theta = np.random.default_rng(2).normal(size=mesh.n_nodes)
        t = 0.7
        full = oracles.dense_scalar_stiffness(mesh, kfun=lambda s: mat.sigma_el(s) * np.eye(2), theta=theta)
        full += bd.H_N * oracles.dense_boundary_mass(mesh, ("N",))
        full += oracles.dense_boundary_mass(mesh, ("C",), weight=lambda q: bd.H_C(moving_traction(q, t)))
        matrix, load = assemble_electric_system(mesh, dofs, mat, bd, theta, fric, t)
        assert_matches(matrix, oracles.restrict(full, dofs.scalar_free_nodes))
        ref_load = -(full @ phi_b_nodal(mesh, bd))[dofs.scalar_free_nodes]
        np.testing.assert_allclose(load, ref_load, rtol=0.0, atol=1e-13 * np.abs(ref_load).max())

    @pytest.mark.parametrize("time_dependent", [False, True])
    def test_thermal_robin(self, case, time_dependent):
        mesh, dofs = case
        _, fric, bd = default_ptc_model()
        if time_dependent:
            fric = dataclasses.replace(fric, F_field=moving_traction, F_bar=3.0)
        t = 0.7
        ref = bd.h_N * oracles.dense_boundary_mass(mesh, ("N",))
        ref += oracles.dense_boundary_mass(mesh, ("C",), weight=lambda q: bd.h_C(fric.F_field(q, t)))
        assert_matches(assemble_thermal_robin(mesh, dofs, bd, fric, t),
                       oracles.restrict(ref, dofs.scalar_free_nodes))

    def test_p_laplacian_jacobian(self, case):
        mesh, dofs = case
        theta = np.zeros(mesh.n_nodes)
        theta[dofs.scalar_free_nodes] = np.random.default_rng(3).normal(size=dofs.n_free_scalar)
        jac = assemble_p_laplacian_jacobian(dofs, assemble_p_laplacian(mesh, dofs, theta)[1])
        assert_matches(jac, oracles.restrict(oracles.dense_p_laplacian_jacobian(mesh, theta),
                                             dofs.scalar_free_nodes))

    def test_p_laplacian_residual(self, case):
        mesh, dofs = case
        theta = np.zeros(mesh.n_nodes)
        theta[dofs.scalar_free_nodes] = np.random.default_rng(6).normal(size=dofs.n_free_scalar)
        res, _ = assemble_p_laplacian(mesh, dofs, theta)
        assert_load_matches(res, oracles.dense_p_laplacian_residual(mesh, theta)[dofs.scalar_free_nodes])

    def test_velocity_heat(self, case):
        mesh, dofs = case
        mat, _, _ = default_ptc_model()
        mat = dataclasses.replace(mat, m_tensor=SKEW_M)
        v = np.random.default_rng(7).normal(size=2 * mesh.n_nodes)
        ref = oracles.dense_velocity_heat(mesh, SKEW_M, mat.theta_ref, v)
        assert_load_matches(assemble_velocity_heat(mesh, dofs, mat, v), ref[dofs.scalar_free_nodes])

    def test_thermal_coupling(self, case):
        mesh, dofs = case
        mat, _, _ = default_ptc_model()
        mat = dataclasses.replace(mat, m_tensor=SKEW_M)
        theta = np.random.default_rng(8).normal(size=mesh.n_nodes)
        ref = oracles.dense_thermal_coupling(mesh, SKEW_M, theta)
        assert_load_matches(assemble_thermal_coupling(mesh, dofs, mat, theta), ref[dofs.vector_free_dofs()])

    def test_mech_load_with_moving_body_force(self, case):
        mesh, dofs = case
        _, fric, bd = default_ptc_model({"f2": (0.2, -0.3)})
        fric = dataclasses.replace(fric, F_field=moving_traction, F_bar=3.0)

        def f_0(x, t):
            x = np.asarray(x)
            return np.stack([np.sin(3.0 * x[..., 0] + t), x[..., 1] ** 2 - t * x[..., 0]], axis=-1)

        bd = dataclasses.replace(bd, f_0=f_0)
        for t in (0.0, 0.7):
            ref = oracles.dense_mech_load(mesh, bd, fric, t)
            assert_load_matches(assemble_mech_load(mesh, dofs, bd, fric, t), ref[dofs.vector_free_dofs()])

    def test_elastic_operators(self, case):
        mesh, dofs = case
        mat, _, _ = default_ptc_model()
        a_op, b_op = assemble_elastic_operators(mesh, dofs, mat)
        vfree = dofs.vector_free_dofs()
        assert_matches(a_op, oracles.restrict(oracles.dense_vector_stiffness(mesh, mat.a_tensor), vfree))
        assert_matches(b_op, oracles.restrict(oracles.dense_vector_stiffness(mesh, mat.b_tensor), vfree))

    def test_operators_on_one_pattern_add_as_data(self, case):
        mesh, dofs = case
        mat, fric, bd = default_ptc_model()
        theta = np.random.default_rng(4).normal(size=mesh.n_nodes)
        parts = (assemble_scalar_mass(mesh, dofs),
                 assemble_thermal_stiffness(mesh, dofs, mat, theta),
                 assemble_thermal_robin(mesh, dofs, bd, fric))
        for op in parts:
            assert np.array_equal(op.indptr, dofs.scalar.indptr)
            assert np.array_equal(op.indices, dofs.scalar.indices)
        summed = dofs.scalar.csr(sum(op.data for op in parts)).toarray()
        np.testing.assert_allclose(summed, sum(op.toarray() for op in parts), rtol=0.0, atol=1e-14)


def test_loaded_mesh_runs_end_to_end(tmp_path):
    mesh_path = tmp_path / "perturbed.mesh"
    mesh_path.write_text(perturbed_mesh_text())
    cfg = tmp_path / "loaded.cfg"
    cfg.write_text(f"mesh.file = {mesh_path}\nmodel.f0 = 0.5 0.0\nmodel.phi_b = x1\n"
                   "solver.T = 0.1\nsolver.h = 0.05\nsolver.dt = 0.025\nsolver.cascade_levels = 0.05 0.025\n")
    assert main(["check", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--assert"]) == 0
    for name in ("trajectory.csv", "diagnostics.csv", "cascade.csv", "fields.csv"):
        assert (out / name).stat().st_size > 0


def frozen_arrays(mesh, dofs):
    quads = [edge_quadrature(mesh, tags) for tags in QUAD_TAGS]
    return ([getattr(mesh, name) for name in MESH_ARRAYS]
            + [getattr(q, name) for q in quads for name in QUAD_ARRAYS]
            + [getattr(p, name) for p in (dofs.scalar, dofs.vector) for name in PATTERN_ARRAYS]
            + [getattr(p.layout, name) for p in (dofs.scalar, dofs.vector) for name in LAYOUT_ARRAYS]
            + [getattr(op, name) for op in (mesh.grad, mesh.grad_t, dofs.scalar.form) for name in SPARSE_ARRAYS])


class TestCachedMeshData:
    @pytest.mark.parametrize("source", ["built", "loaded"])
    def test_every_cached_array_is_read_only(self, source, tmp_path):
        if source == "built":
            mesh = build_unit_square_mesh(4, tags={"left": "D", "right": "N", "bottom": "C", "top": "N"})
        else:
            path = tmp_path / "perturbed.mesh"
            path.write_text(perturbed_mesh_text())
            mesh = load_mesh(str(path))
        for arr in frozen_arrays(mesh, build_dof_maps(mesh)):
            assert arr.size
            with pytest.raises(ValueError):
                arr.flat[0] = arr.flat[0]

    def test_quadrature_is_built_once_per_tags(self):
        mesh = build_unit_square_mesh(3)
        quad = edge_quadrature(mesh, ("N", "C"))
        assert edge_quadrature(mesh, ["N", "C"]) is quad
        assert edge_quadrature(mesh, ("C",)) is not quad
        np.testing.assert_array_equal(quad.ids, np.flatnonzero(np.isin(mesh.edge_tags, ("N", "C"))))

    def test_two_meshes_share_no_cached_arrays(self):
        meshes = [build_unit_square_mesh(4) for _ in range(2)]
        arrays = [frozen_arrays(mesh, build_dof_maps(mesh)) for mesh in meshes]
        for tags in QUAD_TAGS:
            assert edge_quadrature(meshes[0], tags) is not edge_quadrature(meshes[1], tags)
        for a in arrays[0]:
            for b in arrays[1]:
                assert not np.shares_memory(a, b)


def spd_matrices(mesh, dofs):
    """An SPD matrix on each free-dof pattern, keyed by the pattern's name in dofs: scalar mass
    plus stiffness, and a momentum step matrix.

    Each is summed as data arrays on its pattern, as the solver sums them: a
    sum of scipy matrices drops the entries that cancel, and the matrix
    would no longer be on the pattern's layout.
    """
    mat, _, _ = default_ptc_model({})
    visc, elast = assemble_elastic_operators(mesh, dofs, mat)
    dt = 0.0125
    return {"scalar": dofs.scalar.csr(assemble_scalar_mass(mesh, dofs).data
                                      + assemble_scalar_stiffness_unit(mesh, dofs).data),
            "vector": dofs.vector.csr(mat.mass_mech() / dt * assemble_vector_mass(mesh, dofs).data
                                      + visc.data + dt * elast.data)}


class TestFactorSpd:
    """factor_banded on the SPD matrices of both free-dof patterns."""

    @staticmethod
    def assert_solves_like_spsolve(matrix, factor):
        rng = np.random.default_rng(0)
        for b in (rng.standard_normal(matrix.shape[0]), rng.standard_normal((matrix.shape[0], 3))):
            x = factor.solve(b)
            direct = spsolve(matrix.tocsc(), b)
            assert x.shape == b.shape
            assert np.linalg.norm(x - direct) <= 1e-12 * np.linalg.norm(direct)
        return factor

    @pytest.mark.parametrize("n", [1, 2, 8, 16])
    def test_unit_square(self, n):
        mesh = build_unit_square_mesh(n)
        dofs = build_dof_maps(mesh)
        for name, matrix in spd_matrices(mesh, dofs).items():
            self.assert_solves_like_spsolve(matrix, factor_banded(matrix, getattr(dofs, name).layout))

    def test_any_node_numbering(self, tmp_path):
        # the band of a shuffled mesh file is checked where the free dofs are
        # numbered: test_mesh.py::TestDofMaps::test_band_of_a_shuffled_mesh
        path = tmp_path / "shuffled.mesh"
        path.write_text(perturbed_mesh_text(8, seed=3))
        mesh = load_mesh(str(path))
        dofs = build_dof_maps(mesh)
        for name, matrix in spd_matrices(mesh, dofs).items():
            factor = factor_banded(matrix, getattr(dofs, name).layout)
            assert isinstance(self.assert_solves_like_spsolve(matrix, factor), BandCholesky)

    @pytest.mark.parametrize("how", ["zero", "indefinite", "nan"])
    def test_rejects_a_matrix_that_is_not_spd(self, how):
        mesh = build_unit_square_mesh(8)
        dofs = build_dof_maps(mesh)
        mass, stiffness = assemble_scalar_mass(mesh, dofs), assemble_scalar_stiffness_unit(mesh, dofs)
        if how == "zero":
            matrix = dofs.scalar.csr(0.0 * mass.data)
        elif how == "indefinite":  # 100 lies inside the spectrum of the pencil (K, M)
            matrix = dofs.scalar.csr(stiffness.data - 100.0 * mass.data)
        else:
            matrix = stiffness.copy()
            matrix[30, 30] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            factor_banded(matrix, dofs.scalar.layout)


def thermal_jacobian(mesh, dofs, k):
    """Scalar mass plus the conductivity form of k at a fixed temperature, summed on the scalar
    pattern: symmetric iff k is."""
    mat, _, _ = default_ptc_model({})
    theta = np.random.default_rng(5).normal(size=mesh.n_nodes)
    return dofs.scalar.csr(assemble_scalar_mass(mesh, dofs).data + assemble_thermal_stiffness(
        mesh, dofs, dataclasses.replace(mat, k=k), theta).data)


def symmetrized_k(s):
    k = anisotropic_k(s)
    return 0.5 * (k + np.swapaxes(k, -1, -2))


class TestFactorBanded:
    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_nonsymmetric_matrix_gets_lu(self, n):
        mesh = build_unit_square_mesh(n)
        dofs = build_dof_maps(mesh)
        matrix = thermal_jacobian(mesh, dofs, anisotropic_k)
        assert np.abs((matrix - matrix.T).toarray()).max() > 1e-3
        factor = factor_banded(matrix, dofs.scalar.layout)
        assert isinstance(factor, BandLU)
        TestFactorSpd.assert_solves_like_spsolve(matrix, factor)

    def test_any_node_numbering(self, tmp_path):
        path = tmp_path / "shuffled.mesh"
        path.write_text(perturbed_mesh_text(8, seed=3))
        mesh = load_mesh(str(path))
        dofs = build_dof_maps(mesh)
        factor = factor_banded(thermal_jacobian(mesh, dofs, anisotropic_k), dofs.scalar.layout)
        assert isinstance(factor, BandLU) and factor.kd <= 8 + 3
        TestFactorSpd.assert_solves_like_spsolve(thermal_jacobian(mesh, dofs, anisotropic_k), factor)

    @pytest.mark.parametrize("n", [1, 2, 8, 16])
    def test_symmetric_matrix_gets_cholesky(self, n):
        mesh = build_unit_square_mesh(n)
        dofs = build_dof_maps(mesh)
        for name, matrix in spd_matrices(mesh, dofs).items():
            factor = factor_banded(matrix, getattr(dofs, name).layout)
            assert isinstance(factor, BandCholesky)
            kd, size = factor.band.shape[0] - 1, matrix.shape[0]
            lower = np.linalg.cholesky(matrix.toarray())
            assert not np.tril(lower, -kd - 1).any()  # no fill outside the band
            ref = np.zeros_like(factor.band)
            for d in range(kd + 1):
                ref[d, :size - d] = np.diagonal(lower, -d)
            np.testing.assert_allclose(factor.band, ref, rtol=0.0, atol=1e-13 * np.abs(lower).max())

    def test_roundoff_asymmetry_gets_cholesky(self, tmp_path):
        # a symmetric off-diagonal k on moved nodes: the assembled form may
        # differ from its transpose in roundoff only
        path = tmp_path / "shuffled.mesh"
        path.write_text(perturbed_mesh_text(8, seed=3))
        mesh = load_mesh(str(path))
        dofs = build_dof_maps(mesh)
        matrix = thermal_jacobian(mesh, dofs, symmetrized_k)
        assert 0.0 < np.abs((matrix - matrix.T).toarray()).max() <= SYMMETRY_RTOL * np.abs(matrix.data).max()
        factor = factor_banded(matrix, dofs.scalar.layout)
        assert isinstance(factor, BandCholesky)
        TestFactorSpd.assert_solves_like_spsolve(matrix, factor)

    @pytest.mark.parametrize("kind", [BandCholesky, BandLU])
    @pytest.mark.parametrize("shape", ["n", "nm_c", "nm_fortran"])
    def test_solve_leaves_its_right_hand_side_unchanged(self, kind, shape):
        # the solves write into no array of the caller, whose layout LAPACK could work in
        mesh = build_unit_square_mesh(8)
        dofs = build_dof_maps(mesh)
        matrix = spd_matrices(mesh, dofs)["scalar"] if kind is BandCholesky else \
            thermal_jacobian(mesh, dofs, anisotropic_k)
        factor = factor_banded(matrix, dofs.scalar.layout)
        assert isinstance(factor, kind)
        rng = np.random.default_rng(4)
        b = rng.standard_normal(matrix.shape[0] if shape == "n" else (matrix.shape[0], 3))
        if shape == "nm_fortran":
            b = np.asfortranarray(b)
        kept = b.copy()
        x = factor.solve(b)
        np.testing.assert_array_equal(b, kept)
        assert not np.shares_memory(x, b)
        TestFactorSpd.assert_solves_like_spsolve(matrix, factor)

    @pytest.mark.parametrize("how", ["zero", "nan"])
    def test_rejects_a_singular_matrix(self, how):
        mesh = build_unit_square_mesh(8)
        dofs = build_dof_maps(mesh)
        matrix = thermal_jacobian(mesh, dofs, anisotropic_k)
        if how == "zero":
            matrix = dofs.scalar.csr(0.0 * matrix.data)
        else:
            matrix[30, 30] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            factor_banded(matrix, dofs.scalar.layout)


class TestBandLayout:
    """The band layout of each free-dof pattern, which factor_banded requires."""

    @pytest.mark.parametrize("source", ["square", "shuffled", "contact_free"])
    def test_pattern_holds_the_transpose_of_every_entry(self, source, tmp_path):
        # band_layout finds the mirror of each lower entry among the entries
        if source == "shuffled":
            path = tmp_path / "shuffled.mesh"
            path.write_text(perturbed_mesh_text(8, seed=3))
            mesh = load_mesh(str(path))
        else:
            mesh = build_unit_square_mesh(8, tags={"left": "D", "right": "D", "bottom": "N", "top": "N"}
                                          if source == "contact_free" else None)
        assert ("C" in mesh.edge_tags) == (source != "contact_free")
        dofs = build_dof_maps(mesh)
        for pattern in (dofs.scalar, dofs.vector):
            structure = pattern.csr(np.ones(pattern.indices.size))
            assert (structure != structure.T).nnz == 0
            rows = np.repeat(np.arange(pattern.n), np.diff(pattern.indptr))
            layout = pattern.layout
            np.testing.assert_array_equal(pattern.indices[layout.mirror], rows[layout.lower])
            np.testing.assert_array_equal(rows[layout.mirror], pattern.indices[layout.lower])

    @pytest.mark.parametrize("n", [1, 2, 8, 16])
    def test_pattern_layout_factors_as_the_rebuilt_matrix(self, n):
        # summed as data arrays, as the solver sums them: a sum of scipy matrices
        # drops the entries that cancel
        mesh = build_unit_square_mesh(n)
        dofs = build_dof_maps(mesh)
        mat, _, _ = default_ptc_model({})
        mass = assemble_scalar_mass(mesh, dofs).data
        visc, elast = assemble_elastic_operators(mesh, dofs, mat)
        theta = np.random.default_rng(5).normal(size=mesh.n_nodes)
        jacobian = assemble_thermal_stiffness(mesh, dofs, dataclasses.replace(mat, k=anisotropic_k), theta)
        for pattern, data, kind in (
                (dofs.scalar, mass + assemble_scalar_stiffness_unit(mesh, dofs).data, BandCholesky),
                (dofs.scalar, mass + jacobian.data, BandLU),
                (dofs.vector, 80.0 * assemble_vector_mass(mesh, dofs).data + visc.data + 0.0125 * elast.data,
                 BandCholesky)):
            matrix = pattern.csr(data)
            factor = factor_banded(matrix, pattern.layout)
            assert type(factor) is kind
            TestFactorSpd.assert_solves_like_spsolve(matrix, factor)

    def test_matrix_off_the_layout_rejected(self):
        mesh = build_unit_square_mesh(4)
        dofs = build_dof_maps(mesh)
        with pytest.raises(ValueError, match="not on a layout"):
            factor_banded(spd_matrices(mesh, dofs)["vector"], dofs.scalar.layout)
