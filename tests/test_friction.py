"""Regularized friction law, property checks, and the momentum step."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg

from conftest import const_bd, const_friction
from oracles import (
    check_subgradient_pairing,
    check_subgradient_properties,
    contact_lumped_weights,
    direct_momentum_step,
    friction_functional,
    momentum_residual,
    slip_potential,
)
from thermocontact import friction
from thermocontact.friction import (
    MomentumStep,
    RegularizedFriction,
    SolverError,
    contact_traction_full,
    solve_momentum_step,
)
from thermocontact.materials import default_ptc_model
from thermocontact.mesh import build_dof_maps, build_unit_square_mesh
from thermocontact.scheme import Models, SolverConfig, initialize


@pytest.fixture(scope="module")
def default_rfric():
    _, fric, _ = default_ptc_model()
    return RegularizedFriction(fric, eps=1e-8)


class TestTractionLaw:
    def test_zero_slip_zero_traction(self, default_rfric):
        g = default_rfric.traction(np.zeros(4), np.full(4, 0.3))
        assert np.abs(g).max() == 0.0

    def test_bound(self, default_rfric):
        rng = np.random.default_rng(1)
        s = rng.normal(size=2000) * 10.0 ** rng.uniform(-9, 2, size=2000)
        F = rng.uniform(0.0, 1.0, size=2000)
        g = default_rfric.traction(s, F)
        bound = default_rfric.fric.mu_bar * F
        assert (np.abs(g) - bound).max() <= 1e-12

    def test_aligned_with_slip(self, default_rfric):
        # g is odd, and points along the slip
        rng = np.random.default_rng(2)
        s = rng.normal(size=100)
        F = np.full(100, 0.5)
        g = default_rfric.traction(s, F)
        assert np.array_equal(default_rfric.traction(-s, F), -g)
        assert (g * s).min() > 0.0

    def test_large_slip_limit(self, default_rfric):
        s = np.array([1.0, -1.0])
        F = np.array([0.4, 0.4])
        g = default_rfric.traction(s, F)
        mu1 = float(default_rfric.fric.mu(1.0))
        np.testing.assert_allclose(g, mu1 * 0.4 * s, rtol=1e-10)

    def test_jacobian_matches_fd(self, default_rfric):
        rng = np.random.default_rng(3)
        s = rng.normal(size=50) * 10.0 ** rng.uniform(-3, 1, size=50)
        F = rng.uniform(0.1, 1.0, size=50)
        eps = 1e-7
        fd = (default_rfric.traction(s + eps, F) - default_rfric.traction(s - eps, F)) / (2 * eps)
        np.testing.assert_allclose(fd, default_rfric.slope(s, F), rtol=1e-5, atol=1e-6)

    def test_jacobian_at_rest(self):
        fric = const_friction(mu0=0.3, F0=1.0)
        rf = RegularizedFriction(fric, eps=1e-4)
        np.testing.assert_allclose(rf.slope(np.zeros(1), np.array([2.0])), [2.0 * 0.3 / 1e-4], rtol=1e-12)

    @pytest.mark.parametrize("s", [5e-8, 1e-6, 0.1])
    def test_slope_without_mu_prime(self, default_rfric, s):
        # mu' by differences of mu, also where r is below the difference step 1e-7
        exact = RegularizedFriction(default_rfric.fric, eps=1e-12)
        numeric = RegularizedFriction(dataclasses.replace(default_rfric.fric, mu_prime=None), eps=1e-12)
        s, F = np.array([s, -s]), np.array([0.3, 0.3])
        np.testing.assert_allclose(numeric.slope(s, F), exact.slope(s, F), rtol=1e-6, atol=0.0)

    def test_potential_closed_form_vs_quadrature(self, default_rfric):
        numeric = RegularizedFriction(
            dataclasses.replace(default_rfric.fric, mu_antiderivative=None), eps=1e-8)
        r = np.array([0.0, 0.3, 1.7, 8.0])
        np.testing.assert_allclose(slip_potential(numeric, r), slip_potential(default_rfric, r),
                                   rtol=1e-10, atol=1e-12)

    def test_requires_positive_regularization(self, default_rfric):
        with pytest.raises(ValueError, match="positive"):
            RegularizedFriction(default_rfric.fric, eps=0.0)


class TestPropertyChecks:
    def test_default_model_satisfies_both(self, default_rfric):
        report = check_subgradient_properties(default_rfric, n_pairs=10_000, seed=0)
        assert report["bound_violation"] <= 1e-12
        assert report["monotonicity_violation"] <= 1e-12

    def test_deterministic(self, default_rfric):
        a = check_subgradient_properties(default_rfric, n_pairs=500, seed=4)
        b = check_subgradient_properties(default_rfric, n_pairs=500, seed=4)
        assert a == b

    def test_understated_constant_is_detected(self):
        # steep slip weakening, declared with no weakening allowance at all
        def mu(s):
            return 0.5 - 0.49 * np.tanh(50.0 * np.asarray(s, dtype=float))

        fric = dataclasses.replace(
            const_friction(F0=1.0), mu=mu, mu_bar=0.99, d_mu=0.0,
            mu_prime=None, mu_antiderivative=None)
        rf = RegularizedFriction(fric, eps=0.005)
        report = check_subgradient_properties(rf, n_pairs=10_000, seed=0)
        assert report["monotonicity_violation"] > 1e-6

    def test_lumped_pairing_inherits_estimate(self, square4, default_rfric):
        mesh, dofs = square4
        w = contact_lumped_weights(mesh, dofs)
        worst = check_subgradient_pairing(mesh, dofs, default_rfric, w, n_pairs=200, seed=1)
        assert worst <= 1e-12


class TestNodalTraction:
    def test_support_and_tangentiality(self, square4, default_rfric):
        mesh, dofs = square4
        mat, _, _ = default_ptc_model()
        step = MomentumStep(mesh, dofs, mat, default_rfric, const_bd(), 0.02)
        rng = np.random.default_rng(5)
        v = rng.normal(size=dofs.vector_free_dofs().size)
        xi = contact_traction_full(step, v, default_rfric.fric.F_field(mesh.nodes[step.nodes], 0.0))
        mask = np.zeros(mesh.n_nodes, dtype=bool)
        mask[dofs.contact_nodes] = True
        off = xi.reshape(-1, 2)[~mask]
        assert np.abs(off).max() == 0.0
        on = xi.reshape(-1, 2)[dofs.contact_nodes]
        normal_part = np.einsum("mi,mi->m", on, dofs.contact_normal)
        assert np.abs(normal_part).max() < 1e-15

    def test_tangential_projection(self, square4, default_rfric):
        mesh, dofs = square4
        mat, _, _ = default_ptc_model()
        step = MomentumStep(mesh, dofs, mat, default_rfric, const_bd(), 0.02)
        rng = np.random.default_rng(6)
        v = rng.normal(size=dofs.vector_free_dofs().size)
        slip = step.slip(v[step.pos])
        at = {node: k for k, node in enumerate(dofs.contact_nodes)}
        assert step.nodes.size > 0 and slip.shape == step.nodes.shape
        for node, s in zip(step.nodes, slip):
            f = dofs.node_to_free[node]
            assert abs(s - dofs.contact_tangent[at[node]] @ v[2 * f:2 * f + 2]) < 1e-15 * np.abs(v).max()
        xi = contact_traction_full(step, v, default_rfric.fric.F_field(mesh.nodes[step.nodes], 0.0))
        xi = xi.reshape(-1, 2)[step.nodes]
        normal = np.einsum("mi,mi->m", xi, dofs.contact_normal[[at[node] for node in step.nodes]])
        assert np.abs(normal).max() < 1e-15 * np.abs(xi).max()


class TestFrictionFunctional:
    def test_uniform_slip_on_unit_edge(self, tri_mesh):
        mesh, dofs = tri_mesh
        rf = RegularizedFriction(const_friction(mu0=0.3, F0=0.2), eps=1e-8)
        v = np.zeros(2 * mesh.n_nodes)
        v[0::2] = 1.7
        got = friction_functional(mesh, dofs, rf, v)
        assert abs(got - 0.2 * 0.3 * 1.7) < 1e-12

    def test_zero_velocity(self, square4, default_rfric):
        mesh, dofs = square4
        assert friction_functional(mesh, dofs, default_rfric, np.zeros(2 * mesh.n_nodes)) == 0.0

    def test_closed_form_vs_quadrature_path(self, square4, default_rfric):
        mesh, dofs = square4
        numeric = RegularizedFriction(
            dataclasses.replace(default_rfric.fric, mu_antiderivative=None), eps=1e-8)
        rng = np.random.default_rng(7)
        v = rng.normal(size=2 * mesh.n_nodes)
        a = friction_functional(mesh, dofs, default_rfric, v)
        b = friction_functional(mesh, dofs, numeric, v)
        assert abs(a - b) < 1e-10 * (1 + abs(a))


def momentum_run(mesh, dofs, mat, fric, bd, dt, u0=None, v0=None, **solver):
    """Workspace of a run whose initial state carries the free-dof fields u0 and v0."""
    vfree = dofs.vector_free_dofs()
    full = []
    for values in (u0, v0):
        out = np.zeros(2 * mesh.n_nodes)
        if values is not None:
            out[vfree] = values
        full.append(out)
    solver = {"eps": 1e-8, **solver}
    ws = initialize(Models(mesh, dofs, mat, fric, bd), SolverConfig(T=10 * dt, h=dt, dt=dt, **solver),
                    u0=full[0], v0=full[1])
    return ws, vfree


class TestMomentumStep:
    def setup_case(self, square4, F0=0.1, bd=None):
        mesh, dofs = square4
        mat, fric, _ = default_ptc_model()
        bd = const_bd(f0=(0.5, 0.0)) if bd is None else bd
        if F0 != fric.F_bar:
            fric = dataclasses.replace(
                fric, F_field=lambda x, t: np.full(np.asarray(x).shape[:-1], F0), F_bar=F0)
        return mesh, dofs, mat, fric, bd

    def test_frictionless_matches_direct_solve(self, square4):
        mesh, dofs, mat, fric, bd = self.setup_case(square4, F0=0.0)
        nf = dofs.vector_free_dofs().size
        rng = np.random.default_rng(8)
        u0 = rng.normal(size=nf) * 0.01
        v0 = rng.normal(size=nf) * 0.01
        theta = rng.normal(size=mesh.n_nodes) * 0.1
        dt = 0.02
        ws, vfree = momentum_run(mesh, dofs, mat, fric, bd, dt, u0, v0)
        v, u, xi, info = solve_momentum_step(ws, ws.states[0].u, ws.states[0].v, theta, dt)
        assert np.abs(xi).max() == 0.0
        from thermocontact.assembly import assemble_mech_load, assemble_thermal_coupling

        step = ws.momentum
        load = assemble_mech_load(mesh, dofs, bd, fric, dt)
        coup = assemble_thermal_coupling(mesh, dofs, mat, theta)
        base = (mat.mass_mech() / dt) * step.mass + step.visc + dt * step.elast
        rhs = load - coup + (mat.mass_mech() / dt) * (step.mass @ v0) - step.elast @ u0
        ref = scipy.sparse.linalg.spsolve(base.tocsr(), rhs)
        np.testing.assert_allclose(v[vfree], ref, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(u[vfree], u0 + dt * v[vfree], rtol=0.0, atol=0.0)
        assert np.abs(np.delete(np.stack([u, v]), vfree, axis=1)).max() == 0.0
        assert info["iterations"] == 1

    def test_frictional_step_properties(self, square4):
        mesh, dofs, mat, fric, bd = self.setup_case(square4, F0=0.1)
        nf = dofs.vector_free_dofs().size
        rng = np.random.default_rng(9)
        u0 = np.zeros(nf)
        v0 = rng.normal(size=nf) * 0.1
        theta = rng.normal(size=mesh.n_nodes) * 0.1
        dt = 0.02
        ws, vfree = momentum_run(mesh, dofs, mat, fric, bd, dt, u0, v0)
        v, u, xi, info = solve_momentum_step(ws, ws.states[0].u, ws.states[0].v, theta, dt)
        res, _ = momentum_residual(ws.momentum, dt, u0, v0, theta, v[vfree])
        assert np.linalg.norm(res) <= info["target"]
        on = xi.reshape(-1, 2)[dofs.contact_nodes]
        F = fric.F_field(mesh.nodes[dofs.contact_nodes], dt)
        assert (np.linalg.norm(on, axis=1) - fric.mu_bar * F).max() <= 1e-12

    def test_normal_traction_read_once_per_step(self, square4):
        # one F_field call for the mechanical load on the edge Gauss points,
        # one at the free contact nodes, however many Newton trials the step takes
        mesh, dofs, mat, fric, bd = self.setup_case(square4, F0=0.1)
        points = []

        def F_field(x, t):
            points.append(np.array(x))
            return np.full(np.asarray(x).shape[:-1], 0.1)

        fric = dataclasses.replace(fric, F_field=F_field)
        nf = dofs.vector_free_dofs().size
        ws, _ = momentum_run(mesh, dofs, mat, fric, bd, 0.02, np.zeros(nf),
                             np.random.default_rng(13).normal(size=nf) * 0.1)
        s0 = ws.states[0]
        u, v = s0.u, s0.v
        for n in range(3):
            points.clear()
            v, u, _, info = solve_momentum_step(ws, u, v, s0.theta, (n + 1) * 0.02)
            assert info["iterations"] >= 2
            assert len(points) == 2
            at_nodes = [p for p in points if p.shape == mesh.nodes[ws.momentum.nodes].shape]
            assert len(at_nodes) == 1
            assert np.array_equal(at_nodes[0], mesh.nodes[ws.momentum.nodes])

    def test_unforced_energy_decays(self, square4):
        mesh, dofs, mat, fric, bd = self.setup_case(square4, F0=0.0, bd=const_bd(f0=(0.0, 0.0)))
        nf = dofs.vector_free_dofs().size
        rng = np.random.default_rng(10)
        dt = 0.05
        ws, vfree = momentum_run(mesh, dofs, mat, fric, bd, dt,
                                 rng.normal(size=nf) * 0.1, rng.normal(size=nf) * 0.1)
        step = ws.momentum

        def energy(u, v):
            u, v = u[vfree], v[vfree]
            return 0.5 * mat.mass_mech() * (v @ step.mass @ v) + 0.5 * (u @ step.elast @ u)

        s0 = ws.states[0]
        u, v = s0.u, s0.v
        e = energy(u, v)
        for n in range(5):
            v, u, _, _ = solve_momentum_step(ws, u, v, s0.theta, (n + 1) * dt)
            e_new = energy(u, v)
            assert e_new <= e + 1e-12
            e = e_new

    def test_residual_jacobian_matches_fd(self, square2):
        mesh, dofs = square2
        mat, fric, _ = default_ptc_model()
        bd = const_bd(f0=(0.5, 0.0))
        rf = RegularizedFriction(fric, eps=1e-3)
        nf = dofs.vector_free_dofs().size
        rng = np.random.default_rng(11)
        u0 = rng.normal(size=nf) * 0.01
        v0 = rng.normal(size=nf) * 0.01
        theta = rng.normal(size=mesh.n_nodes) * 0.1
        vtrial = rng.normal(size=nf) * 0.1
        dt = 0.02
        args = (MomentumStep(mesh, dofs, mat, rf, bd, dt), dt, u0, v0, theta)
        _, jac = momentum_residual(*args, vtrial)
        jac = jac.toarray()
        eps = 1e-6
        for col in range(nf):
            bump = vtrial.copy()
            bump[col] += eps
            rp, _ = momentum_residual(*args, bump)
            bump[col] -= 2 * eps
            rm, _ = momentum_residual(*args, bump)
            fd = (rp - rm) / (2 * eps)
            assert np.abs(fd - jac[:, col]).max() < 1e-5

    def test_deterministic(self, square4):
        mesh, dofs, mat, fric, bd = self.setup_case(square4)
        nf = dofs.vector_free_dofs().size
        rng = np.random.default_rng(12)
        u0 = rng.normal(size=nf) * 0.01
        v0 = rng.normal(size=nf) * 0.01
        theta = rng.normal(size=mesh.n_nodes)
        ws, _ = momentum_run(mesh, dofs, mat, fric, bd, 0.02, u0, v0)
        s0 = ws.states[0]
        out1 = solve_momentum_step(ws, s0.u, s0.v, theta, 0.02)
        out2 = solve_momentum_step(ws, s0.u, s0.v, theta, 0.02)
        assert np.array_equal(out1[0], out2[0]) and np.array_equal(out1[2], out2[2])

    def test_build_solves_one_column_per_free_contact_node(self, square4, monkeypatch):
        # S = T^T E^T B^-1 R_tau takes one band solve column per free contact
        # node, on the tangent only
        mesh, dofs, mat, fric, bd = self.setup_case(square4)
        columns = []
        factor_banded = friction.factor_banded

        class Counted:
            def __init__(self, factor):
                self.factor = factor

            def solve(self, b):
                columns.append(b.reshape(b.shape[0], -1).shape[1])
                return self.factor.solve(b)

        monkeypatch.setattr(friction, "factor_banded", lambda matrix, layout: Counted(factor_banded(matrix, layout)))
        step = MomentumStep(mesh, dofs, mat, RegularizedFriction(fric, eps=1e-8), bd, 0.02)
        q = step.nodes.size
        assert q > 0 and sum(columns) == q
        assert step.s.shape == (q, q) and step.r.shape == (dofs.vector_free_dofs().size, q)

    def test_iteration_budget_enforced(self, square4):
        mesh, dofs, mat, fric, bd = self.setup_case(square4)
        ws, _ = momentum_run(mesh, dofs, mat, fric, bd, 0.02, max_iter_momentum=1)
        s0 = ws.states[0]
        with pytest.raises(SolverError, match="stalled after 1 iterations; residual"):
            solve_momentum_step(ws, s0.u, s0.v, s0.theta, 0.02)

    def test_non_finite_residual_raises(self, square4):
        # a NaN residual must not pass for convergence at the initial guess
        mesh, dofs, mat, fric, bd = self.setup_case(square4, bd=const_bd(f0=(np.nan, 0.0)))
        ws, _ = momentum_run(mesh, dofs, mat, fric, bd, 0.02)
        s0 = ws.states[0]
        with pytest.raises(SolverError, match=r"momentum step at t=0\.02: non-finite residual nan"):
            solve_momentum_step(ws, s0.u, s0.v, s0.theta, 0.02)


class TestCondensedSolve:
    """Each step runs Newton on the free contact dofs and lands where a direct Newton does.

    The oracle takes the same damped Newton steps with the full sparse
    Jacobian, so both make the same corrections, and their velocities agree
    to 1e-12 of the step's velocity change (4e-16 measured).
    """

    @staticmethod
    def step_and_direct(mesh, dofs, dt, u0, v0, theta):
        """The step, and (v, info) of solve_momentum_step and of the direct Newton from free (u0, v0)."""
        mat, fric, _ = default_ptc_model()
        ws, vfree = momentum_run(mesh, dofs, mat, fric, const_bd(f0=(0.5, 0.0)), dt, u0, v0)
        s0, cfg = ws.states[0], ws.config
        v, _, _, info = solve_momentum_step(ws, s0.u, s0.v, theta, dt)
        ref, ref_info = direct_momentum_step(ws.momentum, dt, u0, v0, theta,
                                             cfg.tol_momentum, cfg.max_iter_momentum)
        return ws.momentum, v[vfree], info, ref, ref_info

    @pytest.mark.parametrize("slip", ["stick", "slip", "mixed"])
    def test_correction_matches_direct_solve(self, square4, slip):
        mesh, dofs = square4
        dt = 0.02
        nf = dofs.vector_free_dofs().size
        rng = np.random.default_rng(30)
        u0 = rng.normal(size=nf) * 0.01
        v0 = rng.normal(size=nf) * 0.1
        theta = rng.normal(size=mesh.n_nodes) * 0.1
        # the step starts from a tangential (x) velocity of the free contact
        # nodes on the bottom side that sticks, slips or both
        free = dofs.node_to_free[dofs.contact_nodes]
        free = free[free >= 0]
        eps = 1e-8
        scale = {"stick": np.full(free.size, 1e-3 * eps),
                 "slip": np.full(free.size, 1.0),
                 "mixed": np.where(np.arange(free.size) % 2, 1e-3 * eps, 1.0)}[slip]
        v0[2 * free] = scale * rng.choice([-1.0, 1.0], size=free.size)
        step, v, info, ref, ref_info = self.step_and_direct(mesh, dofs, dt, u0, v0, theta)
        assert step.rfric.eps == eps and step.pos.size == 2 * free.size > 0
        assert info["iterations"] == ref_info["iterations"] > 0
        assert np.linalg.norm(v - ref) <= 1e-12 * np.linalg.norm(ref - v0)

    def test_steps_with_own_dt_match_direct_solve(self, square4):
        # two steps on one mesh: each factors its own B and solves its own Jacobian
        mesh, dofs = square4
        nf = dofs.vector_free_dofs().size
        rng = np.random.default_rng(31)
        u0 = rng.normal(size=nf) * 0.01
        v0 = rng.normal(size=nf) * 0.1
        theta = rng.normal(size=mesh.n_nodes) * 0.1
        for dt in (0.02, 0.005):
            step, v, info, ref, ref_info = self.step_and_direct(mesh, dofs, dt, u0, v0, theta)
            assert step.dt == dt
            assert info["iterations"] == ref_info["iterations"] > 0
            assert np.linalg.norm(v - ref) <= 1e-12 * np.linalg.norm(ref - v0)

    def test_contact_corner_matches_direct_solve(self):
        # bottom and right both C: the free corner node (1, 0) carries the
        # averaged tangent (1, 1)/sqrt(2), and it sticks at the solution
        mesh = build_unit_square_mesh(4, tags={"left": "D", "right": "C", "bottom": "C", "top": "N"})
        dofs = build_dof_maps(mesh)
        dt = 0.02
        nf = dofs.vector_free_dofs().size
        rng = np.random.default_rng(30)
        u0 = rng.normal(size=nf) * 0.01
        v0 = rng.normal(size=nf) * 0.1
        theta = rng.normal(size=mesh.n_nodes) * 0.1
        step, v, info, ref, ref_info = self.step_and_direct(mesh, dofs, dt, u0, v0, theta)
        corner = np.flatnonzero(np.all(mesh.nodes[step.nodes] == [1.0, 0.0], axis=1))
        assert corner.size == 1
        np.testing.assert_allclose(step.tau[corner[0]], [0.5 ** 0.5, 0.5 ** 0.5], rtol=1e-15)
        assert abs(step.slip(v[step.pos])[corner[0]]) < step.rfric.eps
        assert info["iterations"] == ref_info["iterations"] > 0
        assert np.linalg.norm(v - ref) <= 1e-12 * np.linalg.norm(ref - v0)

    def test_contact_free_matches_direct_solve(self):
        mesh = build_unit_square_mesh(4, tags={"left": "D", "right": "D", "bottom": "N", "top": "N"})
        dofs = build_dof_maps(mesh)
        dt = 0.02
        mat, fric, _ = default_ptc_model()
        nf = dofs.vector_free_dofs().size
        rng = np.random.default_rng(32)
        u0 = rng.normal(size=nf) * 0.01
        v0 = rng.normal(size=nf) * 0.01
        theta = rng.normal(size=mesh.n_nodes) * 0.1
        ws, vfree = momentum_run(mesh, dofs, mat, fric, const_bd(f0=(0.5, 0.0)), dt, u0, v0)
        step = ws.momentum
        v, _, xi, info = solve_momentum_step(ws, ws.states[0].u, ws.states[0].v, theta, dt)
        v = v[vfree]
        _, jac = momentum_residual(step, dt, u0, v0, theta, v)
        from thermocontact.assembly import assemble_mech_load, assemble_thermal_coupling

        load = assemble_mech_load(mesh, dofs, step.bd, fric, dt)
        coup = assemble_thermal_coupling(mesh, dofs, mat, theta)
        rhs = load - coup + (mat.mass_mech() / dt) * (step.mass @ v0) - step.elast @ u0
        ref = scipy.sparse.linalg.spsolve(jac.tocsc(), rhs)
        assert step.pos.size == 0 and np.abs(xi).max() == 0.0
        np.testing.assert_allclose(v, ref, rtol=0.0, atol=1e-10)
        assert info["iterations"] == 1

