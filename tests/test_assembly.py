"""Assembly operators against dense quadrature oracles and hand values."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

import oracles
from thermocontact.assembly import (
    assemble_elastic_operators,
    assemble_electric_system,
    assemble_frictional_heat,
    assemble_joule_load_direct,
    assemble_joule_load_reformulated,
    assemble_mech_load,
    assemble_p_laplacian,
    assemble_p_laplacian_jacobian,
    assemble_scalar_mass,
    assemble_thermal_coupling,
    assemble_thermal_robin,
    assemble_thermal_stiffness,
    assemble_vector_mass,
    assemble_velocity_heat,
    phi_b_nodal,
    u_norm4,
)
from thermocontact.friction import RegularizedFriction
from thermocontact.materials import default_ptc_model
from thermocontact.mesh import build_dof_maps, build_unit_square_mesh

from conftest import const_bd, const_friction
from oracles import (
    basis_u_norms,
    contact_lumped_weights,
    contact_vector_mass_full,
    restrict_scalar,
    restrict_vector,
    scalar_stiffness_unit_full,
    tensor_stiffness_full,
    vector_stiffness_componentwise_full,
)


def patch_areas(mesh):
    """Integral of each nodal basis function (one third of adjacent areas)."""
    out = np.zeros(mesh.n_nodes)
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        out[tri] += oracles.tri_area(p) / 3.0
    return out


class TestMassMatrices:
    def test_scalar_mass_matches_dense(self, square2, square4):
        for mesh, dofs in (square2, square4):
            got = assemble_scalar_mass(mesh, dofs).toarray()
            ref = oracles.restrict(oracles.dense_scalar_mass(mesh), dofs.scalar_free_nodes)
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)

    def test_scalar_mass_total(self, square4):
        mesh, _ = square4
        full = oracles.dense_scalar_mass(mesh)
        assert abs(full.sum() - 1.0) < 1e-12

    def test_vector_mass_matches_dense(self, square2):
        mesh, dofs = square2
        got = assemble_vector_mass(mesh, dofs).toarray()
        ref = oracles.dense_vector_mass(mesh)[np.ix_(dofs.vector_free_dofs(), dofs.vector_free_dofs())]
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)


class TestThermalStiffness:
    def test_single_triangle_hand_values(self, tri_mesh):
        mesh, _ = tri_mesh
        got = scalar_stiffness_unit_full(mesh).toarray()
        ref = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14)

    def test_unit_coefficient_matches_dense(self, square4):
        mesh, dofs = square4
        got = scalar_stiffness_unit_full(mesh).toarray()
        np.testing.assert_allclose(got, oracles.dense_scalar_stiffness(mesh), rtol=0.0, atol=1e-12)

    def test_temperature_zero_reduces_to_unit(self, square4):
        mesh, dofs = square4
        mat, _, _ = default_ptc_model()
        got = assemble_thermal_stiffness(mesh, dofs, mat, np.zeros(mesh.n_nodes)).toarray()
        ref = restrict_scalar(dofs, scalar_stiffness_unit_full(mesh)).toarray()
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)

    def test_matches_dense_at_random_temperature(self, square2, square4):
        mat, _, _ = default_ptc_model()
        rng = np.random.default_rng(7)
        for mesh, dofs in (square2, square4):
            theta = rng.normal(size=mesh.n_nodes)
            got = assemble_thermal_stiffness(mesh, dofs, mat, theta).toarray()
            ref = oracles.restrict(
                oracles.dense_scalar_stiffness(mesh, kfun=mat.k, theta=theta),
                dofs.scalar_free_nodes,
            )
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)

    def test_symmetric_and_elliptic(self, square4):
        mesh, dofs = square4
        mat, _, _ = default_ptc_model()
        rng = np.random.default_rng(3)
        theta = 2.0 * rng.normal(size=mesh.n_nodes)
        op = assemble_thermal_stiffness(mesh, dofs, mat, theta)
        oracles.assert_symmetric(op)
        unit = restrict_scalar(dofs, scalar_stiffness_unit_full(mesh)).toarray()
        dense = op.toarray()
        for _ in range(20):
            z = rng.normal(size=dense.shape[0])
            lhs = z @ dense @ z
            assert lhs >= mat.delta * (z @ unit @ z) - 1e-12
            assert lhs <= mat.k_upper * (z @ unit @ z) + 1e-12


class TestRobinBoundary:
    def test_unit_edge_mass(self, tri_mesh):
        mesh, dofs = tri_mesh
        bd = const_bd(h_N=0.0, hc=1.0)
        full_free = assemble_thermal_robin(mesh, dofs, bd).toarray()
        # only free node is node 1; contact edge (0, 1) has unit length
        assert dofs.scalar_free_nodes.tolist() == [1]
        np.testing.assert_allclose(full_free, [[1.0 / 3.0]], rtol=0.0, atol=1e-14)

    def test_matches_dense_with_constant_weights(self, square4):
        mesh, dofs = square4
        mat, fric, bd = default_ptc_model()
        got = assemble_thermal_robin(mesh, dofs, bd, fric).toarray()
        hc = float(bd.h_C(fric.F_bar))
        ref = bd.h_N * oracles.dense_boundary_mass(mesh, ("N",)) + hc * oracles.dense_boundary_mass(mesh, ("C",))
        np.testing.assert_allclose(got, oracles.restrict(ref, dofs.scalar_free_nodes), rtol=0.0, atol=1e-12)

    def test_linear_in_exchange_coefficient(self, square2):
        mesh, dofs = square2
        one = assemble_thermal_robin(mesh, dofs, const_bd(h_N=1.0, hc=0.0)).toarray()
        two = assemble_thermal_robin(mesh, dofs, const_bd(h_N=2.0, hc=0.0)).toarray()
        np.testing.assert_allclose(two, 2.0 * one, rtol=0.0, atol=1e-14)

    def test_zero_contact_exchange_gives_zero_block(self, tri_mesh):
        mesh, dofs = tri_mesh
        got = assemble_thermal_robin(mesh, dofs, const_bd(h_N=0.0, hc=0.0))
        assert got.nnz == 0 or np.abs(got.data).max() == 0.0

    def test_position_dependent_contact_weight(self, square2):
        mesh, dofs = square2

        def f_field(x, t):
            return np.asarray(x)[..., 0] + 0.5

        fric = dataclasses.replace(const_friction(), F_field=f_field, F_bar=1.5)
        bd = const_bd(h_N=0.0, hc=1.0)
        bd = dataclasses.replace(bd, h_C=lambda F: np.asarray(F, dtype=float))
        got = assemble_thermal_robin(mesh, dofs, bd, fric).toarray()
        ref = oracles.dense_boundary_mass(mesh, ("C",), weight=lambda q: q[0] + 0.5)
        np.testing.assert_allclose(got, oracles.restrict(ref, dofs.scalar_free_nodes), rtol=0.0, atol=1e-12)


class TestElectricSystem:
    def test_matrix_matches_dense(self, square4):
        mesh, dofs = square4
        mat, fric, bd = default_ptc_model()
        rng = np.random.default_rng(11)
        theta = rng.normal(size=mesh.n_nodes)
        matrix, load = assemble_electric_system(mesh, dofs, mat, bd, theta, fric)
        oracles.assert_symmetric(matrix)

        def sigma_mat(s):
            return float(mat.sigma_el(s)) * np.eye(2)

        hc = float(bd.H_C(fric.F_bar))
        ref = oracles.dense_scalar_stiffness(mesh, kfun=sigma_mat, theta=theta)
        ref += bd.H_N * oracles.dense_boundary_mass(mesh, ("N",))
        ref += hc * oracles.dense_boundary_mass(mesh, ("C",))
        np.testing.assert_allclose(matrix.toarray(), oracles.restrict(ref, dofs.scalar_free_nodes),
                                   rtol=0.0, atol=1e-12)
        load_ref = -(ref @ phi_b_nodal(mesh, bd))[dofs.scalar_free_nodes]
        np.testing.assert_allclose(load, load_ref, rtol=0.0, atol=1e-12)

    def test_positive_definite(self, square2):
        mesh, dofs = square2
        mat, fric, bd = default_ptc_model()
        matrix, _ = assemble_electric_system(mesh, dofs, mat, bd, np.zeros(mesh.n_nodes), fric)
        w = scipy.linalg.eigvalsh(matrix.toarray())
        assert w.min() > 0.0

    def test_zero_ambient_potential_zero_load(self, square2):
        mesh, dofs = square2
        mat, fric, _ = default_ptc_model()
        bd = const_bd(phi="zero")
        _, load = assemble_electric_system(mesh, dofs, mat, bd, np.zeros(mesh.n_nodes), fric)
        assert np.abs(load).max() == 0.0


def dense_joule_direct(mesh, mat, bd, theta, phi):
    """Quadrature-matched reference for the squared-gradient heat source."""
    phib = np.asarray(bd.phi_b(mesh.nodes), dtype=float)
    total = phi + phib
    out = np.zeros(mesh.n_nodes)
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        coeffs, grads = oracles.p1_basis(p)
        g = grads @ total[tri]
        pts, w = oracles.tri_quad(p)
        for q, wq in zip(pts, w):
            s = oracles.eval_p1(p, theta[tri], q)
            vals = coeffs.T @ np.array([1.0, q[0], q[1]])
            out[tri] += wq * float(mat.sigma_el(s)) * float(g @ g) * vals
    return out


def dense_joule_reformulated(mesh, mat, bd, fric, theta, phi, t=0.0):
    """Term-by-term reference for the integrated-by-parts heat source."""
    phib = np.asarray(bd.phi_b(mesh.nodes), dtype=float)
    out = np.zeros(mesh.n_nodes)
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        coeffs, grads = oracles.p1_basis(p)
        g_phi = grads @ phi[tri]
        g_phib = grads @ phib[tri]
        pts, w = oracles.tri_quad(p)
        for q, wq in zip(pts, w):
            s = float(mat.sigma_el(oracles.eval_p1(p, theta[tri], q)))
            vals = coeffs.T @ np.array([1.0, q[0], q[1]])
            pv = oracles.eval_p1(p, phi[tri], q)
            out[tri] += wq * s * float(g_phi @ g_phib) * vals
            out[tri] += wq * s * float(g_phib @ g_phib) * vals
            out[tri] -= wq * s * pv * (grads.T @ g_phi)
            out[tri] -= wq * s * pv * (grads.T @ g_phib)
    for e in range(mesh.boundary_edges.shape[0]):
        tag = mesh.edge_tags[e]
        if tag == "D":
            continue
        i, j = mesh.boundary_edges[e]
        a, b = mesh.nodes[i], mesh.nodes[j]
        pts, w = oracles.edge_quad(a, b)
        length = float(np.linalg.norm(b - a))
        for q, wq in zip(pts, w):
            r = float(np.linalg.norm(q - a)) / length
            vals = np.array([1.0 - r, r])
            pv = vals @ phi[[i, j]]
            pbv = vals @ phib[[i, j]]
            if tag == "N":
                coef = bd.H_N
            else:
                coef = float(bd.H_C(float(fric.F_field(q[None, :], t).ravel()[0])))
            out[[i, j]] -= wq * coef * (pv * pv + pv * pbv) * vals
    return out


class TestJouleLoads:
    def test_direct_matches_dense(self, square2, square4):
        mat, fric, bd = default_ptc_model()
        rng = np.random.default_rng(5)
        for mesh, dofs in (square2, square4):
            theta = rng.normal(size=mesh.n_nodes)
            phi = rng.normal(size=mesh.n_nodes)
            got = assemble_joule_load_direct(mesh, dofs, mat, bd, theta, phi)
            ref = dense_joule_direct(mesh, mat, bd, theta, phi)[dofs.scalar_free_nodes]
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)

    def test_direct_nonnegative(self, square4):
        mesh, dofs = square4
        mat, _, bd = default_ptc_model()
        rng = np.random.default_rng(9)
        for _ in range(10):
            theta = rng.normal(size=mesh.n_nodes)
            phi = rng.normal(size=mesh.n_nodes)
            got = assemble_joule_load_direct(mesh, dofs, mat, bd, theta, phi)
            assert got.min() >= -1e-14

    def test_direct_unit_gradient_gives_basis_integrals(self, square2):
        mesh, dofs = square2
        mat, _, bd = default_ptc_model({"phi_b": "x1"})
        flat = dataclasses.replace(mat, sigma_el=lambda s: np.ones_like(np.asarray(s, dtype=float)))
        got = assemble_joule_load_direct(mesh, dofs, flat, bd, np.zeros(mesh.n_nodes), np.zeros(mesh.n_nodes))
        ref = patch_areas(mesh)[dofs.scalar_free_nodes]
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14)

    def test_reformulated_matches_dense(self, square2, square4):
        mat, fric, bd = default_ptc_model()
        rng = np.random.default_rng(13)
        for mesh, dofs in (square2, square4):
            theta = rng.normal(size=mesh.n_nodes)
            phi = rng.normal(size=mesh.n_nodes)
            got = assemble_joule_load_reformulated(mesh, dofs, mat, bd, theta, phi, fric)
            ref = dense_joule_reformulated(mesh, mat, bd, fric, theta, phi)[dofs.scalar_free_nodes]
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)

    def test_forms_agree_at_zero_potential(self, square4):
        # with phi = 0 every phi-dependent term drops and both forms reduce
        # to the ambient-gradient heating, with no discretization gap
        mesh, dofs = square4
        mat, fric, bd = default_ptc_model()
        rng = np.random.default_rng(17)
        theta = rng.normal(size=mesh.n_nodes)
        zero = np.zeros(mesh.n_nodes)
        a = assemble_joule_load_direct(mesh, dofs, mat, bd, theta, zero)
        b = assemble_joule_load_reformulated(mesh, dofs, mat, bd, theta, zero, fric)
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)


class TestElasticOperators:
    def test_match_dense(self, square2):
        mesh, dofs = square2
        mat, _, _ = default_ptc_model()
        a_op, b_op = assemble_elastic_operators(mesh, dofs, mat)
        free = dofs.vector_free_dofs()
        ref_a = oracles.dense_vector_stiffness(mesh, mat.a_tensor)[np.ix_(free, free)]
        ref_b = oracles.dense_vector_stiffness(mesh, mat.b_tensor)[np.ix_(free, free)]
        np.testing.assert_allclose(a_op.toarray(), ref_a, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(b_op.toarray(), ref_b, rtol=0.0, atol=1e-12)
        oracles.assert_symmetric(a_op)
        oracles.assert_symmetric(b_op)

    def test_equal_tensors_give_equal_operators(self, square2):
        mesh, dofs = square2
        mat, _, _ = default_ptc_model()
        same = dataclasses.replace(mat, b_tensor=mat.a_tensor.copy())
        a_op, b_op = assemble_elastic_operators(mesh, dofs, same)
        diff = (a_op - b_op)
        assert diff.nnz == 0 or np.abs(diff.data).max() < 1e-14

    def test_distinct_default_tensors(self, square2):
        mesh, dofs = square2
        mat, _, _ = default_ptc_model()
        a_op, b_op = assemble_elastic_operators(mesh, dofs, mat)
        assert np.abs((a_op - b_op).toarray()).max() > 1e-3

    def test_rigid_motions_carry_no_energy(self, square2):
        mesh, dofs = square2
        mat, _, _ = default_ptc_model()
        full = oracles.dense_vector_stiffness(mesh, mat.b_tensor)
        n = mesh.n_nodes
        shift = np.zeros(2 * n)
        shift[0::2] = 1.0
        rot = np.zeros(2 * n)
        rot[0::2] = -mesh.nodes[:, 1]
        rot[1::2] = mesh.nodes[:, 0]
        assert np.abs(full @ shift).max() < 1e-12
        assert abs(rot @ full @ rot) < 1e-12

    def test_positive_definite_on_free_dofs(self, square2):
        mesh, dofs = square2
        mat, _, _ = default_ptc_model()
        _, b_op = assemble_elastic_operators(mesh, dofs, mat)
        w = scipy.linalg.eigvalsh(b_op.toarray())
        assert w.min() > 0.0

    def test_cache_never_serves_a_freed_material(self, square4):
        # each material is freed before the next is made, so CPython reuses
        # ids; a cache keyed on ids alone handed some of them stale operators
        mesh, dofs = square4
        for i in range(200):
            mat, _, _ = default_ptc_model({"mu_b": 0.5 + i})
            a_op, b_op = assemble_elastic_operators(mesh, dofs, mat)
            for op, tensor in ((a_op, mat.a_tensor), (b_op, mat.b_tensor)):
                ref = restrict_vector(dofs, tensor_stiffness_full(mesh, tensor))
                assert abs(op - ref).max() == 0.0


class TestThermalMechanicalCoupling:
    def test_velocity_heat_constant_divergence(self, square4):
        mesh, dofs = square4
        mat, _, _ = default_ptc_model()
        c = 0.7
        v = np.zeros(2 * mesh.n_nodes)
        v[0::2] = c * mesh.nodes[:, 0]
        v[1::2] = c * mesh.nodes[:, 1]
        got = assemble_velocity_heat(mesh, dofs, mat, v)
        m0 = mat.m_tensor[0, 0]
        ref = -mat.theta_ref * m0 * 2.0 * c * patch_areas(mesh)[dofs.scalar_free_nodes]
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13)

    def test_coupling_matches_direct_integral(self, square2):
        mesh, dofs = square2
        mat, _, _ = default_ptc_model()
        rng = np.random.default_rng(23)
        theta = rng.normal(size=mesh.n_nodes)
        got = assemble_thermal_coupling(mesh, dofs, mat, theta)
        ref = np.zeros(2 * mesh.n_nodes)
        for tri in mesh.triangles:
            p = mesh.nodes[tri]
            _, grads = oracles.p1_basis(p)
            area = oracles.tri_area(p)
            mean = theta[tri].mean()
            for b in range(3):
                for i in range(2):
                    ref[2 * tri[b] + i] -= area * mean * (mat.m_tensor[i] @ grads[:, b])
        np.testing.assert_allclose(got, ref[dofs.vector_free_dofs()], rtol=0.0, atol=1e-13)

    def test_adjoint_identity(self, square4):
        mesh, dofs = square4
        mat, _, _ = default_ptc_model()
        rng = np.random.default_rng(29)
        vfree = dofs.vector_free_dofs()
        for _ in range(10):
            z = np.zeros(mesh.n_nodes)
            z[dofs.scalar_free_nodes] = rng.normal(size=dofs.n_free_scalar)
            eta = np.zeros(2 * mesh.n_nodes)
            eta[vfree] = rng.normal(size=vfree.size)
            lhs = assemble_thermal_coupling(mesh, dofs, mat, z) @ eta[vfree]
            rhs = assemble_velocity_heat(mesh, dofs, mat, eta) @ z[dofs.scalar_free_nodes] / mat.theta_ref
            assert abs(lhs - rhs) < 1e-12

    def test_zero_fields_give_zero(self, square2):
        mesh, dofs = square2
        mat, _, _ = default_ptc_model()
        assert np.abs(assemble_thermal_coupling(mesh, dofs, mat, np.zeros(mesh.n_nodes))).max() == 0.0
        assert np.abs(assemble_velocity_heat(mesh, dofs, mat, np.zeros(2 * mesh.n_nodes))).max() == 0.0


class TestFrictionalHeat:
    def test_uniform_slip_on_unit_edge(self, tri_mesh):
        mesh, dofs = tri_mesh
        fric = const_friction(mu0=0.3, F0=0.2)
        slip = 1.7
        v = np.zeros(2 * mesh.n_nodes)
        v[0::2] = slip  # tangential to the bottom edge
        got_full = np.zeros(mesh.n_nodes)
        got_full[dofs.scalar_free_nodes] = assemble_frictional_heat(mesh, dofs, fric, v)
        # free node is node 1; expected mu * F * s * int(basis) = 0.3*0.2*1.7*0.5
        assert abs(got_full[1] - 0.3 * 0.2 * slip * 0.5) < 1e-14

    def test_sign_flip_invariant(self, square4):
        mesh, dofs = square4
        _, fric, _ = default_ptc_model()
        rng = np.random.default_rng(31)
        v = rng.normal(size=2 * mesh.n_nodes)
        a = assemble_frictional_heat(mesh, dofs, fric, v)
        b = assemble_frictional_heat(mesh, dofs, fric, -v)
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-14)

    def test_normal_motion_produces_no_heat(self, tri_mesh):
        mesh, dofs = tri_mesh
        fric = const_friction()
        v = np.zeros(2 * mesh.n_nodes)
        v[1::2] = -2.0  # along the outward normal of the bottom edge
        got = assemble_frictional_heat(mesh, dofs, fric, v)
        assert np.abs(got).max() == 0.0

    def test_nonnegative(self, square4):
        mesh, dofs = square4
        _, fric, _ = default_ptc_model()
        rng = np.random.default_rng(37)
        for _ in range(10):
            v = rng.normal(size=2 * mesh.n_nodes)
            got = assemble_frictional_heat(mesh, dofs, fric, v)
            assert got.min() >= -1e-14


class TestMechanicalLoad:
    def test_contact_traction_hand_value(self, tri_mesh):
        mesh, dofs = tri_mesh
        bd = const_bd()
        fric = const_friction(F0=0.2)
        got = assemble_mech_load(mesh, dofs, bd, fric)
        # free node 1, bottom edge normal (0, -1): load = -F * (1/2) * nu
        np.testing.assert_allclose(got, [0.0, 0.1], rtol=0.0, atol=1e-14)

    def test_body_force_constant(self, square4):
        mesh, dofs = square4
        bd = const_bd(f0=(0.3, -0.2))
        fric = const_friction(F0=0.0)
        got = assemble_mech_load(mesh, dofs, bd, fric)
        pa = patch_areas(mesh)
        ref = np.zeros(2 * mesh.n_nodes)
        ref[0::2] = 0.3 * pa
        ref[1::2] = -0.2 * pa
        np.testing.assert_allclose(got, ref[dofs.vector_free_dofs()], rtol=0.0, atol=1e-13)

    def test_surface_traction_on_unit_edge(self, tri_mesh):
        mesh, dofs = tri_mesh
        bd = const_bd(f2=(0.0, 1.0))
        fric = const_friction(F0=0.0)
        got = assemble_mech_load(mesh, dofs, bd, fric)
        # N edge (1, 2) has length sqrt(2); node 1 basis integral = sqrt(2)/2
        np.testing.assert_allclose(got, [0.0, np.sqrt(2.0) / 2.0], rtol=0.0, atol=1e-14)

    def test_zero_data_zero_load(self, square2):
        mesh, dofs = square2
        got = assemble_mech_load(mesh, dofs, const_bd(), const_friction(F0=0.0))
        assert np.abs(got).max() == 0.0


class TestQuarticRegularizer:
    def test_zero_field(self, square2):
        mesh, dofs = square2
        res, g = assemble_p_laplacian(mesh, dofs, np.zeros(mesh.n_nodes))
        jac = assemble_p_laplacian_jacobian(dofs, g)
        assert np.abs(res).max() == 0.0
        assert jac.nnz == 0 or np.abs(jac.data).max() == 0.0

    def test_cubic_homogeneity(self, square4):
        mesh, dofs = square4
        rng = np.random.default_rng(41)
        theta = rng.normal(size=mesh.n_nodes)
        r1, _ = assemble_p_laplacian(mesh, dofs, theta)
        r3, _ = assemble_p_laplacian(mesh, dofs, 3.0 * theta)
        np.testing.assert_allclose(r3, 27.0 * r1, rtol=1e-12, atol=1e-14)

    def test_jacobian_matches_finite_differences(self, square2):
        mesh, dofs = square2
        rng = np.random.default_rng(43)
        theta = rng.normal(size=mesh.n_nodes)
        theta[dofs.dirichlet_nodes] = 0.0
        res, g = assemble_p_laplacian(mesh, dofs, theta)
        jac = assemble_p_laplacian_jacobian(dofs, g).toarray()
        eps = 1e-5
        for col, node in enumerate(dofs.scalar_free_nodes):
            bump = theta.copy()
            bump[node] += eps
            rp, _ = assemble_p_laplacian(mesh, dofs, bump)
            bump[node] -= 2 * eps
            rm, _ = assemble_p_laplacian(mesh, dofs, bump)
            fd = (rp - rm) / (2 * eps)
            assert np.abs(fd - jac[:, col]).max() < 1e-6

    def test_residual_is_gradient_of_quartic_energy(self, square4):
        mesh, dofs = square4
        rng = np.random.default_rng(47)
        theta = rng.normal(size=mesh.n_nodes)
        theta[dofs.dirichlet_nodes] = 0.0
        res, _ = assemble_p_laplacian(mesh, dofs, theta)
        delta = np.zeros(mesh.n_nodes)
        delta[dofs.scalar_free_nodes] = rng.normal(size=dofs.n_free_scalar)
        eps = 1e-6
        fd = (u_norm4(mesh, theta + eps * delta) - u_norm4(mesh, theta - eps * delta)) / (2 * eps) / 4.0
        assert abs(fd - res @ delta[dofs.scalar_free_nodes]) < 1e-7 * (1 + abs(fd))

    def test_gradient_l4_norm_manufactured(self, square4):
        mesh, dofs = square4
        x1 = mesh.nodes[:, 0].copy()
        assert abs(u_norm4(mesh, x1) - 1.0) < 1e-13
        assert abs(u_norm4(mesh, 2.0 * x1) - 16.0) < 1e-12
        lin = mesh.nodes[:, 0] + 2.0 * mesh.nodes[:, 1]
        assert abs(u_norm4(mesh, lin) - 25.0) < 1e-12

    def test_basis_norms_match_direct_evaluation(self, square2):
        mesh, dofs = square2
        norms = basis_u_norms(mesh, dofs)
        for i, node in enumerate(dofs.scalar_free_nodes):
            e = np.zeros(mesh.n_nodes)
            e[node] = 1.0
            assert abs(norms[i] ** 4 - u_norm4(mesh, e)) < 1e-13


class TestContactMass:
    def test_vector_contact_mass_blocks(self, square2):
        mesh, dofs = square2
        full = contact_vector_mass_full(mesh).toarray()
        ref = np.kron(oracles.dense_boundary_mass(mesh, ("C",)), np.eye(2))
        np.testing.assert_allclose(full, ref, rtol=0.0, atol=1e-13)

    def test_lumped_weights_sum_to_contact_length(self, square4):
        mesh, dofs = square4
        w = contact_lumped_weights(mesh, dofs)
        assert w.min() > 0.0
        assert abs(w.sum() - 1.0) < 1e-12  # bottom side of the unit square

    def test_norm_matrices_shapes(self, square2):
        mesh, _ = square2
        ks = scalar_stiffness_unit_full(mesh)
        kv = vector_stiffness_componentwise_full(mesh)
        assert ks.shape == (mesh.n_nodes, mesh.n_nodes)
        assert kv.shape == (2 * mesh.n_nodes, 2 * mesh.n_nodes)
        ref = oracles.dense_componentwise_vector_stiffness(mesh)
        np.testing.assert_allclose(kv.toarray(), ref, rtol=0.0, atol=1e-12)


def moving_traction(x, t):
    """Normal traction that varies along the contact part and in time."""
    return (np.asarray(x)[..., 0] + 0.5) * (1.0 + t)


class TestTimeDependentTraction:
    """F(x, t) = (x0 + 0.5)(1 + t) at two times against per-point oracles."""

    TIMES = (0.0, 0.7)

    @pytest.fixture
    def models(self, square4):
        mesh, dofs = square4
        _, fric, bd = default_ptc_model()
        fric = dataclasses.replace(fric, F_field=moving_traction, F_bar=3.0)
        return mesh, dofs, fric, bd

    def test_thermal_robin(self, models):
        mesh, dofs, fric, bd = models
        for t in self.TIMES:
            got = assemble_thermal_robin(mesh, dofs, bd, fric, t).toarray()
            ref = bd.h_N * oracles.dense_boundary_mass(mesh, ("N",))
            ref += oracles.dense_boundary_mass(mesh, ("C",), weight=lambda q: bd.h_C(moving_traction(q, t)))
            np.testing.assert_allclose(got, oracles.restrict(ref, dofs.scalar_free_nodes), rtol=0.0, atol=1e-12)

    def test_electric_robin_part(self, models):
        mesh, dofs, fric, bd = models
        mat, _, _ = default_ptc_model()
        theta = np.zeros(mesh.n_nodes)
        stiff = mat.sigma_el(0.0) * oracles.dense_scalar_stiffness(mesh)
        for t in self.TIMES:
            matrix, load = assemble_electric_system(mesh, dofs, mat, bd, theta, fric, t)
            robin = bd.H_N * oracles.dense_boundary_mass(mesh, ("N",))
            robin += oracles.dense_boundary_mass(mesh, ("C",), weight=lambda q: bd.H_C(moving_traction(q, t)))
            ref = stiff + robin
            np.testing.assert_allclose(matrix.toarray(), oracles.restrict(ref, dofs.scalar_free_nodes),
                                       rtol=0.0, atol=1e-12)
            load_ref = -(ref @ phi_b_nodal(mesh, bd))[dofs.scalar_free_nodes]
            np.testing.assert_allclose(load, load_ref, rtol=0.0, atol=1e-12)

    def test_mech_load_contact_part(self, models):
        mesh, dofs, fric, _ = models
        for t in self.TIMES:
            got = assemble_mech_load(mesh, dofs, const_bd(), fric, t)
            ref = np.zeros(2 * mesh.n_nodes)
            for i, j, x, w, vals, nu in oracles.edge_gauss_points(mesh, ("C",)):
                for node, val in zip((i, j), vals):
                    ref[2 * node:2 * node + 2] -= w * val * moving_traction(x, t) * nu
            np.testing.assert_allclose(got, ref[dofs.vector_free_dofs()], rtol=0.0, atol=1e-13)

    def test_frictional_heat_and_functional(self, models):
        mesh, dofs, fric, _ = models
        rfric = RegularizedFriction(fric, eps=1e-8)
        v = np.random.default_rng(53).normal(size=2 * mesh.n_nodes)
        vv = v.reshape(-1, 2)
        for t in self.TIMES:
            heat = np.zeros(mesh.n_nodes)
            energy = 0.0
            for i, j, x, w, vals, nu in oracles.edge_gauss_points(mesh, ("C",)):
                vq = vals @ vv[[i, j]]
                s = float(np.linalg.norm(vq - (vq @ nu) * nu))
                F = moving_traction(x, t)
                heat[[i, j]] += w * float(fric.mu(s)) * F * s * vals
                energy += w * F * float(oracles.slip_potential(rfric, s))
            got = assemble_frictional_heat(mesh, dofs, fric, v, t)
            np.testing.assert_allclose(got, heat[dofs.scalar_free_nodes], rtol=0.0, atol=1e-13)
            assert abs(oracles.friction_functional(mesh, dofs, rfric, v, t) - energy) < 1e-13


def counted(fn, counts, name):
    def wrapper(*args):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args)
    return wrapper


class TestOneCallPerAssembly:
    """Each assembly evaluates each model callable once, on all its points."""

    @pytest.mark.parametrize("n", [4, 8])
    def test_call_counts(self, n):
        mesh = build_unit_square_mesh(n)
        dofs = build_dof_maps(mesh)
        mat, fric, bd = default_ptc_model({"f2": (0.1, 0.0)})
        counts = {}
        mat = dataclasses.replace(mat, k=counted(mat.k, counts, "k"))
        fric = dataclasses.replace(fric, F_field=counted(fric.F_field, counts, "F_field"))
        bd = dataclasses.replace(bd, f_2=counted(bd.f_2, counts, "f_2"))
        rng = np.random.default_rng(n)
        theta = rng.normal(size=mesh.n_nodes)
        v = rng.normal(size=2 * mesh.n_nodes)
        calls = (
            (lambda: assemble_thermal_stiffness(mesh, dofs, mat, theta), {"k": 1}),
            (lambda: assemble_mech_load(mesh, dofs, bd, fric, 0.1), {"F_field": 1, "f_2": 1}),
            (lambda: assemble_thermal_robin(mesh, dofs, bd, fric, 0.1), {"F_field": 1}),
            (lambda: assemble_frictional_heat(mesh, dofs, fric, v, 0.1), {"F_field": 1}),
            (lambda: oracles.friction_functional(mesh, dofs, RegularizedFriction(fric, 1e-8), v, 0.1), {"F_field": 1}),
        )
        for call, expected in calls:
            counts.clear()
            call()
            assert counts == expected
