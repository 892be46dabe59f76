"""Bound constants, weighted integrals, dual-norm estimates, report flags."""

import dataclasses

import numpy as np
import pytest

from conftest import const_bd
from oracles import (
    dense_scalar_mass,
    dense_scalar_stiffness,
    joule_gap,
    potential_bound,
    regularizer_magnitude,
)
from thermocontact.diagnostics import energy_report, potential_bound_constant, weighted_gradient_integral
from thermocontact.materials import default_ptc_model
from thermocontact.mesh import build_dof_maps, build_unit_square_mesh
from thermocontact.scheme import (
    Models,
    SolverConfig,
    SystemState,
    advance,
    initialize,
    solve_electric,
)

from test_scheme import default_models, quiet_models


def make_state(mesh, **fields):
    n = mesh.n_nodes
    base = dict(t=0.0, u=np.zeros(2 * n), v=np.zeros(2 * n),
                theta=np.zeros(n), phi=np.zeros(n), xi=np.zeros(2 * n))
    base.update(fields)
    return SystemState(**base)


class TestPotentialBound:
    def test_zero_ambient_collapses(self):
        models = quiet_models(2)
        ws = initialize(models, SolverConfig(T=0.5, h=0.05, dt=0.025))
        lhs, rhs = potential_bound(models, ws.states[0])
        assert lhs == 0.0 and rhs == 0.0

    def test_holds_for_random_temperatures(self):
        models = default_models(4, overrides={"phi_b": "x1x2"})
        ws = initialize(models, SolverConfig(T=0.5, h=0.05, dt=0.025))
        rng = np.random.default_rng(3)
        free = models.dofs.scalar_free_nodes
        for _ in range(10):
            theta = np.zeros(models.mesh.n_nodes)
            theta[free] = rng.normal(scale=3.0, size=free.size)
            phi = solve_electric(ws, theta, 0.0)
            state = make_state(models.mesh, theta=theta, phi=phi)
            lhs, rhs = potential_bound(models, state)
            assert lhs <= rhs * (1.0 + 1e-8)

    def test_conductivity_bound_scales_first_term(self):
        models = default_models(4, overrides={"phi_b": "x1"})
        doubled = dataclasses.replace(
            models, mat=dataclasses.replace(models.mat, M_sigma=2.0 * models.mat.M_sigma))
        c1 = potential_bound_constant(models)
        c2 = potential_bound_constant(doubled)
        from thermocontact.assembly import phi_b_nodal

        phib = phi_b_nodal(models.mesh, models.bd)
        kd = dense_scalar_stiffness(models.mesh)
        md = dense_scalar_mass(models.mesh)
        h1 = np.sqrt(phib @ kd @ phib + phib @ md @ phib)
        expect = models.mat.M_sigma * h1 / models.mat.sigma_star
        np.testing.assert_allclose(c2 - c1, expect, rtol=1e-10)


class TestWeightedGradientIntegral:
    def test_zero_potential(self):
        models = quiet_models(2)
        assert weighted_gradient_integral(models, make_state(models.mesh)) == 0.0

    def test_manufactured_linear_potential(self):
        mesh = build_unit_square_mesh(16)
        dofs = build_dof_maps(mesh)
        mat, fric, _ = default_ptc_model({"sigma_star": 1.0, "M_sigma": 1.0})
        models = Models(mesh, dofs, mat, fric, const_bd(phi="zero"))
        state = make_state(mesh, phi=mesh.nodes[:, 0].copy())
        val = weighted_gradient_integral(models, state)
        assert abs(val - 1.0 / 3.0) < 1e-12

    def test_sign_flip_invariant(self):
        models = default_models(4, overrides={"phi_b": "x1x2"})
        rng = np.random.default_rng(4)
        theta = rng.normal(size=models.mesh.n_nodes)
        phi = rng.normal(size=models.mesh.n_nodes)
        flipped = dataclasses.replace(
            models, bd=dataclasses.replace(
                models.bd, phi_b=lambda pts, inner=models.bd.phi_b: -inner(pts)))
        a = weighted_gradient_integral(models, make_state(models.mesh, theta=theta, phi=phi))
        b = weighted_gradient_integral(flipped, make_state(models.mesh, theta=theta, phi=-phi))
        np.testing.assert_allclose(a, b, rtol=1e-12)


class TestRegularizerMagnitude:
    def test_zero_field(self):
        models = quiet_models(2)
        dual, surrogate = regularizer_magnitude(models.mesh, models.dofs,
                                                np.zeros(models.mesh.n_nodes), 0.1)
        assert dual == 0.0 and surrogate == 0.0

    def test_dual_matches_closed_form(self):
        models = default_models(4)
        rng = np.random.default_rng(5)
        theta = np.zeros(models.mesh.n_nodes)
        free = models.dofs.scalar_free_nodes
        theta[free] = rng.normal(size=free.size)
        dual, surrogate = regularizer_magnitude(models.mesh, models.dofs, theta, 0.05)
        np.testing.assert_allclose(dual, surrogate, rtol=1e-8)

    def test_cubic_homogeneity(self):
        models = default_models(2)
        rng = np.random.default_rng(6)
        theta = np.zeros(models.mesh.n_nodes)
        free = models.dofs.scalar_free_nodes
        theta[free] = rng.normal(size=free.size)
        d1, s1 = regularizer_magnitude(models.mesh, models.dofs, theta, 0.1)
        d2, s2 = regularizer_magnitude(models.mesh, models.dofs, 2.0 * theta, 0.1)
        np.testing.assert_allclose(s2, 8.0 * s1, rtol=1e-12)
        np.testing.assert_allclose(d2, 8.0 * d1, rtol=1e-8)

    def test_linear_in_weight(self):
        models = default_models(2)
        rng = np.random.default_rng(7)
        theta = np.zeros(models.mesh.n_nodes)
        free = models.dofs.scalar_free_nodes
        theta[free] = rng.normal(size=free.size)
        d1, s1 = regularizer_magnitude(models.mesh, models.dofs, theta, 0.05)
        d2, s2 = regularizer_magnitude(models.mesh, models.dofs, theta, 0.10)
        np.testing.assert_allclose(s2, 2.0 * s1, rtol=1e-12)
        np.testing.assert_allclose(d2, 2.0 * d1, rtol=1e-8)


class TestJouleGap:
    def test_zero_everything(self):
        models = quiet_models(2)
        n = models.mesh.n_nodes
        assert joule_gap(models, np.zeros(n), np.zeros(n)) == 0.0

    def test_finite_on_default_initial_solve(self):
        models = default_models(4)
        ws = initialize(models, SolverConfig(T=0.5, h=0.05, dt=0.025))
        s0 = ws.states[0]
        gap = joule_gap(models, s0.theta, s0.phi, 0.0)
        assert np.isfinite(gap) and gap >= 0.0


class TestEnergyReport:
    def test_zero_trajectory_all_zero(self):
        models = quiet_models(2)
        cfg = SolverConfig(T=0.2, h=0.05, dt=0.025)
        ws = initialize(models, cfg)
        states = advance(ws)
        report = energy_report(ws)
        assert report.ok()
        np.testing.assert_allclose(report.column("t"),
                                   [s.t for s in states], rtol=0, atol=0)
        for name in report.columns[1:]:
            assert np.abs(report.column(name)).max() == 0.0

    def test_default_run_clean_and_monotone(self):
        models = default_models(4, overrides={"f0": (0.5, 0.0)})
        cfg = SolverConfig(T=0.2, h=0.05, dt=0.025)
        ws = initialize(models, cfg)
        advance(ws)
        report = energy_report(ws)
        assert report.ok(), report.violations
        assert np.isfinite(report.data).all()
        for name in ("viscous_dissipation", "theta_v_sq_accum", "theta_u4_accum"):
            assert np.all(np.diff(report.column(name)) >= 0.0)
        assert np.all(report.column("kinetic_energy") >= 0.0)

    def test_flags_inflated_traction(self):
        models = default_models(2)
        cfg = SolverConfig(T=0.1, h=0.05, dt=0.05)
        ws = initialize(models, cfg)
        advance(ws)
        bad_xi = ws.states[-1].xi.copy()
        bad_xi[2 * models.dofs.contact_nodes[0]] = 10.0 * models.fric.mu_bar * models.fric.F_bar
        ws.states[-1] = dataclasses.replace(ws.states[-1], xi=bad_xi)
        report = energy_report(ws)
        assert any("traction bound" in v for v in report.violations)

    def test_flags_potential_bound_breach(self):
        models = default_models(2)
        cfg = SolverConfig(T=0.1, h=0.05, dt=0.05)
        ws = initialize(models, cfg)
        advance(ws)
        bad_phi = ws.states[-1].phi.copy()
        bad_phi[models.dofs.scalar_free_nodes] += 1e6
        ws.states[-1] = dataclasses.replace(ws.states[-1], phi=bad_phi)
        report = energy_report(ws)
        assert any("potential bound" in v for v in report.violations)
