"""Time grid validation, delay semantics, staggered stepping, cascade."""

import dataclasses
import os
import select
import signal
import time

import numpy as np
import pytest
import scipy.sparse.linalg

from conftest import const_bd, const_friction
from oracles import (
    DirectSolve,
    delay_inequality_gap,
    restrict_scalar,
    scalar_mass_full,
    scalar_stiffness_unit_full,
)
from test_patterns import anisotropic_k, perturbed_mesh_text
from thermocontact import friction, scheme
from thermocontact.assembly import (
    assemble_electric_system,
    assemble_joule_load_direct,
    assemble_scalar_mass,
    assemble_thermal_robin,
    assemble_thermal_stiffness,
    phi_b_nodal,
)
from thermocontact.friction import SolverError
from thermocontact.materials import default_ptc_model
from thermocontact.mesh import BandLU, build_dof_maps, build_unit_square_mesh, load_mesh
from thermocontact.scheme import (
    CG_MAX_ITER,
    ConfigError,
    LaggedFactor,
    Models,
    SolverConfig,
    SystemState,
    advance,
    advance_one,
    initialize,
    run_cascade,
    solve_electric,
    solve_temperature_step,
)


def default_models(n=4, tags=None, overrides=None):
    mesh = build_unit_square_mesh(n, tags=tags)
    dofs = build_dof_maps(mesh)
    mat, fric, bd = default_ptc_model(overrides)
    return Models(mesh, dofs, mat, fric, bd)


def quiet_models(n=2):
    """Zero loads, zero friction traction, zero ambient potential."""
    mesh = build_unit_square_mesh(n)
    dofs = build_dof_maps(mesh)
    mat, fric, _ = default_ptc_model()
    fric = dataclasses.replace(
        fric, F_field=lambda x, t: np.zeros(np.asarray(x).shape[:-1]), F_bar=0.0)
    return Models(mesh, dofs, mat, fric, const_bd(phi="zero"))


class TestSolverConfig:
    def test_valid(self):
        SolverConfig(T=0.5, h=0.05, dt=0.0125).validate()

    @pytest.mark.parametrize("kwargs,match", [
        (dict(T=0.5, h=0.05, dt=0.1), "0 < dt <= h < T"),
        (dict(T=0.05, h=0.05, dt=0.0125), "0 < dt <= h < T"),
        (dict(T=0.5, h=0.05, dt=0.015), "integer multiple"),
        (dict(T=0.5, h=0.05, dt=0.0125, eps=0.0), "eps"),
        (dict(T=0.5, h=0.05, dt=0.0125, joule_mode="exact"), "joule_mode"),
        (dict(T=0.5, h=0.05, dt=0.0125, tol_temperature=0.0), "tol_temperature"),
        (dict(T=0.5, h=0.05, dt=0.0125, max_iter_momentum=0), "max_iter_momentum"),
        (dict(T=0.5, h=0.05, dt=0.0125, regularizer_coefficient=-1.0), "regularizer"),
        (dict(T=0.5, h=0.05, dt=0.0125, regularizer_coefficient=float("nan")), "regularizer"),
        (dict(T=1e308, h=1e300, dt=5e-324), "overflows"),
        (dict(T=0.5, h=0.05, dt=0.0125, cascade_levels=(0.1, 0.03)), "cascade level 0.03: .*integer multiple"),
        (dict(T=0.5, h=0.05, dt=0.0125, cascade_levels=(0.05, 0.1)), "strictly decreasing"),
        (dict(T=0.5, h=0.05, dt=0.0125, cascade_levels=(0.5,)), "cascade level 0.5: .*h < T"),
    ])
    def test_rejects(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            SolverConfig(**kwargs).validate()

    def test_grid_properties(self):
        cfg = SolverConfig(T=0.5, h=0.05, dt=0.0125)
        assert cfg.delay_steps == 4
        assert cfg.n_steps == 40
        assert cfg.regularizer == 0.05
        assert dataclasses.replace(cfg, regularizer_coefficient=0.0).regularizer == 0.0


class TestDelayedLookup:
    def test_stepper_reads_delayed_state(self, monkeypatch):
        ws = initialize(default_models(2, overrides={"f0": (0.5, 0.0)}),
                        SolverConfig(T=0.3, h=0.1, dt=0.025))
        k = ws.config.delay_steps
        assert k == 4
        solve = scheme.solve_temperature_step
        seen = []

        def spy(ws, old, delayed, t_new):
            seen.append((old, delayed))
            return solve(ws, old, delayed, t_new)

        monkeypatch.setattr(scheme, "solve_temperature_step", spy)
        advance(ws)
        assert len(seen) == ws.config.n_steps == 12
        for n, (old, delayed) in enumerate(seen, start=1):
            assert delayed is ws.states[max(n - k, 0)]
            assert old is ws.states[n - 1]


class TestDelayInequality:
    def test_random_histories(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            m = int(rng.integers(1, 6))
            k = int(rng.integers(1, n))
            dt = float(rng.uniform(0.01, 0.5))
            hist = rng.normal(size=(n + 1, m)) * 10.0 ** rng.uniform(-2, 2)
            gap = delay_inequality_gap(hist, k * dt, dt)
            scale = dt * float(np.sum(hist * hist))
            assert gap <= 1e-12 * (1.0 + scale)

    def test_exact_slack_value(self):
        rng = np.random.default_rng(1)
        n, k, dt = 12, 3, 0.1
        hist = rng.normal(size=(n + 1, 4))
        gap = delay_inequality_gap(hist, k * dt, dt)
        dropped = -dt * float(np.sum(hist[n - k + 1:] ** 2))
        assert abs(gap - dropped) < 1e-13

    def test_rejects_bad_delay(self):
        with pytest.raises(ValueError, match="integer multiple"):
            delay_inequality_gap(np.ones((5, 2)), 0.13, 0.05)


class TestInitialize:
    def test_initial_potential_residual(self):
        models = default_models(4)
        ws = initialize(models, SolverConfig(T=0.5, h=0.05, dt=0.0125))
        s0 = ws.states[0]
        matrix, load = assemble_electric_system(models.mesh, models.dofs, models.mat, models.bd,
                                                s0.theta, models.fric, 0.0)
        res = matrix @ s0.phi[models.dofs.scalar_free_nodes] - load
        assert np.linalg.norm(res) <= 1e-12 * (1 + np.linalg.norm(load))
        assert s0.t == 0.0 and np.abs(s0.u).max() == 0.0

    def test_harmonic_ambient_matches_exactly(self):
        # constant conductivity, no boundary exchange, ambient potential x1,
        # potential fixed on both vertical sides: the shift solves the system
        models = default_models(
            4, tags={"left": "D", "right": "D", "bottom": "C", "top": "N"},
            overrides={"sigma_star": 1.0, "M_sigma": 1.0, "phi_b": "x1"})
        zero = lambda F: 0.0 * np.asarray(F, dtype=float)
        models = dataclasses.replace(
            models, bd=dataclasses.replace(models.bd, H_N=0.0, H_C=zero))
        ws = initialize(models, SolverConfig(T=0.5, h=0.05, dt=0.0125))
        assert np.abs(ws.states[0].phi).max() < 1e-12

    def test_rejects_bad_initial_data(self):
        models = default_models(2)
        cfg = SolverConfig(T=0.5, h=0.05, dt=0.0125)
        n = models.mesh.n_nodes
        bad = np.zeros(n)
        bad[models.dofs.dirichlet_nodes[0]] = 1.0
        with pytest.raises(ConfigError, match="constrained"):
            initialize(models, cfg, theta0=bad)
        with pytest.raises(ConfigError, match="shape"):
            initialize(models, cfg, theta0=np.zeros(n + 1))
        with pytest.raises(ConfigError, match="finite"):
            initialize(models, cfg, v0=np.full(2 * n, np.nan))

    def test_initial_traction_from_v0(self):
        models = default_models(2)
        n = models.mesh.n_nodes
        v0 = np.zeros(2 * n)
        free = models.dofs.vector_free_dofs()
        v0[free] = 0.3
        ws = initialize(models, SolverConfig(T=0.5, h=0.05, dt=0.0125), v0=v0)
        xi = ws.states[0].xi.reshape(-1, 2)[models.dofs.contact_nodes]
        assert np.linalg.norm(xi, axis=1).max() > 0.0


class TestTimeDependentExchange:
    def test_robin_matrix_follows_time(self):
        # F depends on t, so a step at t = 0.7 must exchange heat with
        # h_C(F(x, 0.7)), not with h_C(F(x, 0))
        models = default_models(4)
        fric = dataclasses.replace(
            models.fric, F_field=lambda x, t: (np.asarray(x)[..., 0] + 0.5) * (1.0 + t), F_bar=3.0)
        models = dataclasses.replace(models, fric=fric)
        ws = initialize(models, SolverConfig(T=1.0, h=0.05, dt=0.0125, regularizer_coefficient=0.0))
        mesh, dofs, mat = models.mesh, models.dofs, models.mat
        free = dofs.scalar_free_nodes
        s0 = ws.states[0]
        theta_old = np.zeros(mesh.n_nodes)
        theta_old[free] = np.random.default_rng(5).normal(size=free.size)
        t = 0.7
        got = solve_temperature_step(ws, dataclasses.replace(s0, theta=theta_old), s0, t)

        # v0 = 0, so the strain and friction heat sources vanish
        rate = mat.mass_thermal() / ws.config.dt
        mass = assemble_scalar_mass(mesh, dofs)
        base = (rate * mass + assemble_thermal_stiffness(mesh, dofs, mat, s0.theta)
                + assemble_thermal_robin(mesh, dofs, models.bd, fric, t))
        rhs = (assemble_joule_load_direct(mesh, dofs, mat, models.bd, s0.theta, s0.phi)
               + rate * (mass @ theta_old[free]))
        ref = scipy.sparse.linalg.spsolve(base.tocsr(), rhs)
        np.testing.assert_allclose(got[free], ref, rtol=0.0, atol=1e-12)


class TestTemperatureStep:
    def make_ws(self, models, **cfg_over):
        cfg = SolverConfig(T=10.0, h=0.05, dt=0.01, **cfg_over)
        return initialize(models, cfg)

    def test_zero_sources_zero_fixed_point(self):
        ws = self.make_ws(quiet_models(2))
        s0 = ws.states[0]
        theta = solve_temperature_step(ws, s0, s0, ws.config.dt)
        assert np.abs(theta).max() == 0.0

    def test_linear_oracle_without_regularizer(self):
        models = default_models(2, overrides={"k_amp": 0.0})
        ws = self.make_ws(models, regularizer_coefficient=0.0)
        mesh, dofs = models.mesh, models.dofs
        free = dofs.scalar_free_nodes
        rng = np.random.default_rng(2)
        theta_old = np.zeros(mesh.n_nodes)
        theta_old[free] = rng.normal(size=free.size)
        s0 = ws.states[0]
        old = dataclasses.replace(s0, theta=theta_old)
        got = solve_temperature_step(ws, old, s0, ws.config.dt)

        dt = ws.config.dt
        mass = assemble_scalar_mass(mesh, dofs)
        stiff = assemble_thermal_stiffness(mesh, dofs, models.mat, s0.theta)
        base = (1.0 / dt) * mass + stiff + assemble_thermal_robin(mesh, dofs, models.bd, models.fric, dt)

        joule = assemble_joule_load_direct(mesh, dofs, models.mat, models.bd, s0.theta, s0.phi)
        rhs = joule + (1.0 / dt) * (mass @ theta_old[free])
        ref = scipy.sparse.linalg.spsolve(base.tocsr(), rhs)
        np.testing.assert_allclose(got[free], ref, rtol=0.0, atol=1e-12)

    def test_steady_state_matches_elliptic_solve(self):
        # all-Dirichlet temperature, constant conductivities, uniform heating
        q0 = 2.0
        models = default_models(
            4, tags={"left": "D", "right": "D", "bottom": "D", "top": "D"},
            overrides={"k_amp": 0.0, "sigma_star": q0, "M_sigma": q0, "phi_b": "x1"})
        ws = self.make_ws(models, regularizer_coefficient=0.0)
        mesh, dofs = models.mesh, models.dofs
        free = dofs.scalar_free_nodes
        s0 = ws.states[0]

        state = s0
        dt = ws.config.dt
        for n in range(int(round(50.0 / dt))):
            theta = solve_temperature_step(ws, state, s0, (n + 1) * dt)
            state = dataclasses.replace(state, theta=theta, t=(n + 1) * dt)

        stiff = restrict_scalar(dofs, scalar_stiffness_unit_full(mesh))

        basis_integrals = np.asarray(scalar_mass_full(mesh).sum(axis=1)).ravel()
        target = scipy.sparse.linalg.spsolve(stiff, q0 * basis_integrals[free])
        gap = np.linalg.norm(state.theta[free] - target) / np.linalg.norm(target)
        assert gap <= 1e-6

    def test_regularizer_pulls_gradient_down(self):
        models = default_models(2)
        ws_on = self.make_ws(models)
        ws_off = self.make_ws(models, regularizer_coefficient=0.0)
        mesh, dofs = models.mesh, models.dofs
        free = dofs.scalar_free_nodes
        theta_old = np.zeros(mesh.n_nodes)
        theta_old[free] = 5.0 * np.sin(np.arange(free.size))
        s0 = ws_on.states[0]
        old = dataclasses.replace(s0, theta=theta_old)
        from thermocontact.assembly import u_norm4

        t_on = solve_temperature_step(ws_on, old, s0, ws_on.config.dt)
        t_off = solve_temperature_step(ws_off, old, s0, ws_off.config.dt)
        assert u_norm4(mesh, t_on) < u_norm4(mesh, t_off)

    def test_one_jacobian_per_newton_correction(self, monkeypatch):
        counts = {"residual": 0, "jacobian": 0, "solve": 0}

        def counted(fn, name):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(scheme, "assemble_p_laplacian",
                            counted(scheme.assemble_p_laplacian, "residual"))
        monkeypatch.setattr(scheme, "assemble_p_laplacian_jacobian",
                            counted(scheme.assemble_p_laplacian_jacobian, "jacobian"))
        ws = initialize(default_models(8, overrides={"f0": (0.5, 0.0), "phi_b": "x1"}),
                        SolverConfig(T=0.1, h=0.025, dt=0.0125))
        monkeypatch.setattr(ws.temperature_solver, "solve",
                            counted(ws.temperature_solver.solve, "solve"))
        advance(ws)
        assert counts["solve"] > 0
        assert counts["jacobian"] == counts["solve"]
        assert counts["residual"] > counts["solve"]

    def test_non_finite_residual_raises(self):
        # a NaN residual must not pass for convergence at the initial guess
        models = default_models(2)
        models = dataclasses.replace(models, mat=dataclasses.replace(
            models.mat, k=lambda s: np.full(np.shape(s) + (2, 2), np.nan)))
        ws = self.make_ws(models)
        s0 = ws.states[0]
        with pytest.raises(SolverError, match=r"temperature step at t=0\.01: non-finite residual nan"):
            solve_temperature_step(ws, s0, s0, ws.config.dt)


class TestLaggedFactor:
    @staticmethod
    def electric(models, theta, t=0.0):
        return assemble_electric_system(models.mesh, models.dofs, models.mat, models.bd,
                                        theta, models.fric, t)

    def test_stale_factor_gives_direct_solution(self):
        models = default_models(8)
        x0, x1 = models.mesh.nodes.T
        theta = np.zeros(models.mesh.n_nodes)
        theta[models.dofs.scalar_free_nodes] = 0.05
        theta *= np.sin(np.pi * x0) * (1.0 + x1)
        solver = LaggedFactor("electric")
        solver.solve(*self.electric(models, np.zeros_like(theta)), 0.0)
        matrix, load = self.electric(models, theta)
        x = solver.solve(matrix, load, 0.1)
        assert solver.factorizations == 1 and solver.cg_iterations > 0
        direct = scipy.sparse.linalg.spsolve(matrix.tocsc(), load)
        assert np.linalg.norm(x - direct) <= 1e-12 * np.linalg.norm(direct)
        assert np.linalg.norm(matrix @ x - load) <= 1e-12 * (1.0 + np.linalg.norm(load))

    def test_cap_triggers_refactorization(self):
        # a mass-matrix factor preconditions the stiffness-dominated electric
        # matrix too poorly for CG to converge within the cap
        models = default_models(16)
        solver = LaggedFactor("electric")
        solver.solve(assemble_scalar_mass(models.mesh, models.dofs),
                     np.ones(models.dofs.scalar_free_nodes.size), 0.0)
        matrix, load = self.electric(models, np.zeros(models.mesh.n_nodes))
        x = solver.solve(matrix, load, 0.1)
        assert solver.factorizations == 2 and solver.cg_iterations == CG_MAX_ITER
        direct = scipy.sparse.linalg.spsolve(matrix.tocsc(), load)
        assert np.linalg.norm(x - direct) <= 1e-12 * np.linalg.norm(direct)

    def test_singular_matrix_names_stage_and_time(self):
        models = default_models(2)
        matrix = assemble_scalar_mass(models.mesh, models.dofs) * 0.0
        with pytest.raises(SolverError, match=r"temperature solve at t=0\.25: .*singular"):
            LaggedFactor("temperature").solve(matrix, np.ones(matrix.shape[0]), 0.25)

    @pytest.mark.parametrize("lagged", [False, True])
    def test_nan_matrix_entry_names_stage_and_time(self, lagged):
        # with a held factor, CG cannot meet its bound and the stage refactors
        models = default_models(4)
        mass = assemble_scalar_mass(models.mesh, models.dofs)
        solver = LaggedFactor("electric")
        if lagged:
            solver.solve(mass, np.ones(mass.shape[0]), 0.0)
        matrix = mass.copy()
        matrix[3, 3] = np.nan
        with pytest.raises(SolverError, match=r"electric solve at t=0\.25: singular"):
            solver.solve(matrix, np.ones(mass.shape[0]), 0.25)

    def test_nan_load_names_stage_and_time(self):
        models = default_models(4)
        matrix = assemble_scalar_mass(models.mesh, models.dofs)
        load = np.ones(matrix.shape[0])
        load[3] = np.nan
        with pytest.raises(SolverError, match=r"temperature solve at t=0\.25: non-finite solution"):
            LaggedFactor("temperature").solve(matrix, load, 0.25)

    def test_run_matches_direct_oracle(self, monkeypatch):
        # the momentum stage may run in a worker process, so its Newton
        # counts are read from the Workspace, not from a patched damped_newton
        newton = scheme.damped_newton
        counts = []

        def counted(*args, **kwargs):
            out = newton(*args, **kwargs)
            counts.append(out[2]["iterations"])
            return out

        monkeypatch.setattr(scheme, "damped_newton", counted)
        cfg = SolverConfig(T=0.5, h=0.05, dt=0.0125)
        models = default_models(8, overrides={"f0": (0.5, 0.0), "phi_b": "x1"})
        runs = []
        for direct in (False, True):
            counts.clear()
            ws = initialize(models, cfg)
            if direct:  # the solve in initialize factors its own matrix, so it is direct
                ws.temperature_solver = ws.electric_solver = DirectSolve()
            states = advance(ws)
            runs.append((states, list(counts), [info["iterations"] for info in ws.momentum_info]))
        (lagged, lagged_t, lagged_m), (oracle, oracle_t, oracle_m) = runs
        assert lagged_t == oracle_t and lagged_m == oracle_m
        assert len(lagged_t) == len(lagged_m) == cfg.n_steps and len(lagged) == cfg.n_steps + 1
        assert sum(lagged_m) > 0
        for a, b in zip(lagged, oracle):
            for name in ("theta", "phi", "u", "v", "xi"):
                fa, fb = getattr(a, name), getattr(b, name)
                assert np.abs(fa - fb).max() <= 1e-12 * (1.0 + np.abs(fb).max()), name

    def test_fine_mesh_run_keeps_its_factors(self):
        # at n = 48 a direct solve leaves |b - A x| above 1e-14 |b|, so a stop
        # on that bound never met it and refactored at nearly every solve
        models = default_models(48, tags={"left": "D", "right": "D", "bottom": "C", "top": "C"},
                                overrides={"f0": (0.5, 0.0), "phi_b": "x1"})
        x0, x1 = models.mesh.nodes.T
        theta0 = 0.75 * np.sin(np.pi * x0) * (1.0 + 0.02 * np.cos(np.pi * x1))
        theta0[models.dofs.dirichlet_nodes] = 0.0
        ws = initialize(models, SolverConfig(T=0.5, h=0.05, dt=0.0125), theta0=theta0)
        advance(ws)
        assert ws.electric_solver.factorizations <= 4
        assert ws.temperature_solver.factorizations <= 6

    def test_nonsymmetric_conductivity_run_keeps_its_factors(self):
        # k != k^T makes the temperature Jacobian nonsymmetric; a Cholesky
        # factor of its lower triangle alone refactored 200 times in this run
        models = default_models(8, tags={"left": "D", "right": "D", "bottom": "C", "top": "N"},
                                overrides={"f0": (0.5, 0.0), "phi_b": "x1"})
        models = dataclasses.replace(models, mat=dataclasses.replace(
            models.mat, k=lambda s: 0.1 * anisotropic_k(s)))
        x0, x1 = models.mesh.nodes.T
        theta0 = 0.75 * np.sin(np.pi * x0) * (1.0 + 0.3 * x1)
        theta0[models.dofs.dirichlet_nodes] = 0.0
        ws = initialize(models, SolverConfig(T=0.5, h=0.05, dt=0.0125), theta0=theta0)
        advance(ws)
        assert isinstance(ws.temperature_solver.factor, BandLU)
        assert ws.temperature_solver.factorizations <= 12


class TestAdvance:
    def test_zero_data_zero_trajectory(self):
        models = quiet_models(2)
        ws = initialize(models, SolverConfig(T=0.3, h=0.1, dt=0.05))
        states = advance(ws)
        assert len(states) == 7
        for s in states:
            for arr in (s.u, s.v, s.theta, s.phi, s.xi):
                assert np.abs(arr).max() == 0.0

    def test_grid_times(self):
        models = quiet_models(2)
        ws = initialize(models, SolverConfig(T=0.2, h=0.1, dt=0.05))
        states = advance(ws)
        np.testing.assert_allclose([s.t for s in states], [0.0, 0.05, 0.1, 0.15, 0.2])

    def test_deterministic(self):
        def run():
            models = default_models(2, overrides={"f0": (0.5, 0.0)})
            ws = initialize(models, SolverConfig(T=0.2, h=0.05, dt=0.025))
            return advance(ws)

        a, b = run(), run()
        for sa, sb in zip(a, b):
            for fa, fb in ((sa.u, sb.u), (sa.v, sb.v), (sa.theta, sb.theta),
                           (sa.phi, sb.phi), (sa.xi, sb.xi)):
                assert np.array_equal(fa, fb)

    def test_momentum_ignores_current_temperature(self, monkeypatch):
        # poison the freshly computed temperature before the momentum stage;
        # the velocity must be unchanged because momentum reads only the delay
        def setup():
            models = default_models(2, overrides={"f0": (0.5, 0.0)})
            ws = initialize(models, SolverConfig(T=0.2, h=0.05, dt=0.025))
            for _ in range(3):
                advance_one(ws)
            return ws

        ws_a, ws_b = setup(), setup()
        sa = advance_one(ws_a)
        solve_electric = scheme.solve_electric

        def poisoned(ws, theta, t):
            phi = solve_electric(ws, theta, t)
            theta.fill(np.nan)
            return phi

        monkeypatch.setattr(scheme, "solve_electric", poisoned)
        sb = advance_one(ws_b)
        assert np.isnan(sb.theta).all()
        assert np.array_equal(sa.v, sb.v)
        assert np.array_equal(sa.u, sb.u)
        assert np.array_equal(sa.xi, sb.xi)

    def test_run_factors_momentum_matrix_once(self):
        # B is factored at the first momentum solve, wherever the stage runs
        ws = initialize(default_models(8, overrides={"f0": (0.5, 0.0)}),
                        SolverConfig(T=0.2, h=0.05, dt=0.025))
        advance_one(ws)
        assert [info["factored"] for info in ws.momentum_info] == [True]
        advance(ws)
        assert len(ws.states) == 9
        assert [info["factored"] for info in ws.momentum_info] == [True] + [False] * 7

    def test_run_does_not_depend_on_node_numbering(self, tmp_path):
        # build_dof_maps numbers the free dofs from the mesh graph, so a file
        # that numbers its nodes at random gives the same states up to roundoff;
        # the friction law amplifies that in xi to 1.7e-12 of its largest entry,
        # so each field is compared in the 2-norm
        runs = []
        for seed in (None, 3):
            path = tmp_path / f"seed_{seed}.mesh"
            path.write_text(perturbed_mesh_text(6, seed=seed))
            mesh = load_mesh(str(path))
            dofs = build_dof_maps(mesh)
            mat, fric, bd = default_ptc_model({"f0": (0.5, 0.0), "phi_b": "x1"})
            x0, x1 = mesh.nodes.T
            theta0 = 0.75 * np.sin(np.pi * x0) * (1.0 + 0.3 * x1)
            theta0[dofs.dirichlet_nodes] = 0.0
            ws = initialize(Models(mesh, dofs, mat, fric, bd), SolverConfig(T=0.1, h=0.05, dt=0.0125),
                            theta0=theta0)
            runs.append((mesh, advance(ws)))
        (mesh_a, states_a), (mesh_b, states_b) = runs
        match = np.empty(mesh_a.n_nodes, dtype=np.int64)  # node k of b is node match[k] of a
        match[np.lexsort(mesh_b.nodes.T)] = np.lexsort(mesh_a.nodes.T)
        np.testing.assert_array_equal(mesh_b.nodes, mesh_a.nodes[match])
        assert len(states_a) == len(states_b) == 9
        for sa, sb in zip(states_a, states_b):
            for name in ("theta", "phi", "u", "v", "xi"):
                fa = getattr(sa, name).reshape(mesh_a.n_nodes, -1)[match].ravel()
                fb = getattr(sb, name)
                assert np.linalg.norm(fb - fa) <= 1e-12 * np.linalg.norm(fa), name
        assert all(np.abs(getattr(states_a[-1], name)).max() > 0.0 for name in ("theta", "phi", "u", "v", "xi"))

    def test_delay_inequality_on_real_run(self):
        models = default_models(2, overrides={"f0": (0.5, 0.0)})
        cfg = SolverConfig(T=0.3, h=0.05, dt=0.025)
        states = advance(initialize(models, cfg))
        hist = np.stack([s.theta for s in states])
        gap = delay_inequality_gap(hist, cfg.h, cfg.dt)
        assert gap <= 1e-12


def contact_run_inputs(n=8):
    """Contact on top and bottom, a smooth initial temperature, 40 steps with a delay of 4."""
    models = default_models(n, tags={"left": "D", "right": "D", "bottom": "C", "top": "C"},
                            overrides={"f0": (0.5, 0.0), "phi_b": "x1"})
    x0, x1 = models.mesh.nodes.T
    theta0 = 0.75 * np.sin(np.pi * x0) * (1.0 + 0.3 * x1)
    theta0[models.dofs.dirichlet_nodes] = 0.0
    return models, SolverConfig(T=0.5, h=0.05, dt=0.0125), theta0


def singular_momentum_models():
    """No inertia, viscosity or elasticity: the momentum step matrix B is zero."""
    return default_models(4, overrides={"f0": (0.5, 0.0), "rho": 0.0, "mu_a": 0.0,
                                        "lam_b": 0.0, "mu_b": 0.0})


def worker_pid():
    return scheme._worker.pid


def reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestMomentumStage:
    """The momentum stage runs alongside the other two, with the states and errors of the serial loop."""

    def test_run_equals_serial_loop(self):
        models, cfg, theta0 = contact_run_inputs()
        states = advance(initialize(models, cfg, theta0=theta0))

        ws = initialize(models, cfg, theta0=theta0)
        for n in range(1, cfg.n_steps + 1):
            t = n * cfg.dt
            old, delayed = ws.states[-1], ws.states[max(n - cfg.delay_steps, 0)]
            theta = solve_temperature_step(ws, old, delayed, t)
            phi = solve_electric(ws, theta, t)
            v, u, xi, _ = friction.solve_momentum_step(ws, old, delayed, t)
            ws.states.append(SystemState(t=t, u=u, v=v, theta=theta, phi=phi, xi=xi))

        assert len(states) == len(ws.states) == cfg.n_steps + 1
        for a, b in zip(states, ws.states):
            assert a.t == b.t
            for name in ("theta", "phi", "u", "v", "xi"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.abs(states[-1].xi).max() > 0.0

    def test_momentum_error_message_unchanged(self):
        cfg = SolverConfig(T=0.1, h=0.05, dt=0.025)
        ws = initialize(singular_momentum_models(), cfg)
        s0 = ws.states[0]
        with pytest.raises(SolverError) as direct:
            friction.solve_momentum_step(ws, s0, s0, cfg.dt)
        assert str(direct.value).startswith("momentum solve at t=0.025: singular")
        ws = initialize(singular_momentum_models(), cfg)
        with pytest.raises(SolverError) as stepped:
            advance(ws)
        assert str(stepped.value) == str(direct.value)
        assert len(ws.states) == 1 and ws.momentum_info == []

    def test_temperature_error_comes_first(self):
        models = singular_momentum_models()
        models = dataclasses.replace(models, mat=dataclasses.replace(
            models.mat, k=lambda s: np.full(np.shape(s) + (2, 2), np.nan)))
        cfg = SolverConfig(T=0.1, h=0.05, dt=0.025)
        ws = initialize(models, cfg)
        s0 = ws.states[0]
        with pytest.raises(SolverError, match="momentum solve at t=0.025: singular"):
            friction.solve_momentum_step(ws, s0, s0, cfg.dt)
        with pytest.raises(SolverError, match=r"^temperature step at t=0\.025: non-finite residual nan"):
            advance(initialize(models, cfg))

    def test_config_change_reaches_the_stage(self):
        models, cfg, theta0 = contact_run_inputs(4)
        ws = initialize(models, cfg, theta0=theta0)
        advance_one(ws)
        ws.config.tol_momentum = 1e3  # met by the old velocity: no Newton step
        advance_one(ws)
        ws.config = dataclasses.replace(ws.config, tol_momentum=1e-10)
        advance_one(ws)
        iterations = [info["iterations"] for info in ws.momentum_info]
        assert iterations[1] == 0 and iterations[0] > 0 and iterations[2] > 0
        assert np.array_equal(ws.states[2].v, ws.states[1].v)
        advance(ws)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the momentum stage runs in-process without os.fork")
class TestMomentumWorker:
    """No worker outlives its run, and at most one is alive."""

    def test_reaped_when_advance_returns(self):
        models, cfg, theta0 = contact_run_inputs(4)
        ws = initialize(models, cfg, theta0=theta0)
        advance_one(ws)
        pid = worker_pid()
        assert not reaped(pid)
        advance(ws)
        assert reaped(pid) and scheme._worker is None

    @pytest.mark.parametrize("stage", ["temperature", "momentum"])
    def test_reaped_when_advance_raises(self, stage):
        models, cfg, theta0 = contact_run_inputs(4)
        ws = initialize(models, cfg, theta0=theta0)
        advance_one(ws)
        pid = worker_pid()
        ws.config = dataclasses.replace(ws.config, **{f"tol_{stage}": 1e-300, f"max_iter_{stage}": 1})
        with pytest.raises(SolverError, match=rf"^{stage} step at t=0\.025 stalled after 1 iterations"):
            advance(ws)
        assert reaped(pid) and scheme._worker is None
        assert len(ws.states) == 2

    def test_another_workspace_stops_the_worker(self):
        models, cfg, theta0 = contact_run_inputs(4)
        ws_a, ws_b, ws_c = (initialize(models, cfg, theta0=theta0) for _ in range(3))
        advance_one(ws_a)
        pid = worker_pid()
        advance_one(ws_b)
        assert reaped(pid) and not reaped(worker_pid())
        # stepped again, ws_a forks a new worker that factors B again
        advance_one(ws_a)
        assert [info["factored"] for info in ws_a.momentum_info] == [True, True]
        for _ in range(2):
            advance_one(ws_c)
        for name in ("theta", "phi", "u", "v", "xi"):
            assert np.array_equal(getattr(ws_a.states[2], name), getattr(ws_c.states[2], name)), name
        pid = worker_pid()
        del ws_c  # a collected Workspace takes its worker with it
        assert reaped(pid)

    def test_fork_does_not_hold_the_worker(self):
        # a process forked while a worker is alive, as a multiprocessing pool
        # may be, must not keep the worker from reading EOF when it is stopped
        models, cfg, theta0 = contact_run_inputs(4)
        ws = initialize(models, cfg, theta0=theta0)
        advance_one(ws)
        pid = worker_pid()
        release_r, release_w = os.pipe()
        fork = os.fork()
        if fork == 0:
            try:
                os.close(release_w)
                select.select([release_r], [], [], 10.0)
            finally:
                os._exit(0)
        os.close(release_r)
        try:
            start = time.monotonic()
            scheme._stop_worker()
            assert time.monotonic() - start < 5.0 and reaped(pid)
        finally:
            os.close(release_w)
            os.waitpid(fork, 0)

    def test_dead_worker_names_stage_and_time(self):
        models, cfg, theta0 = contact_run_inputs(4)
        ws = initialize(models, cfg, theta0=theta0)
        advance_one(ws)
        os.kill(worker_pid(), signal.SIGKILL)
        with pytest.raises(SolverError, match=r"^momentum step at t=0\.025: the worker process exited"):
            advance_one(ws)
        assert scheme._worker is None and len(ws.states) == 2


class TestCascade:
    def test_report_shape_and_finiteness(self):
        models = default_models(2, overrides={"f0": (0.5, 0.0)})
        cfg = SolverConfig(T=0.3, h=0.1, dt=0.025, cascade_levels=(0.1, 0.05))
        report = run_cascade(models, cfg)
        assert report.levels == [0.1, 0.05]
        assert len(report.theta_cauchy) == 1
        assert len(report.regularizer) == 2
        for seq in (report.theta_cauchy, report.phi_cauchy, report.v_cauchy, report.regularizer):
            assert all(np.isfinite(x) for x in seq)
        assert all(r >= 0.0 for r in report.regularizer)

    def test_single_level_no_cauchy_rows(self):
        models = quiet_models(2)
        cfg = SolverConfig(T=0.2, h=0.05, dt=0.025, cascade_levels=(0.05,))
        report = run_cascade(models, cfg)
        assert report.theta_cauchy == [] and report.phi_cauchy == [] and report.v_cauchy == []
        assert len(report.regularizer) == 1

    @pytest.mark.parametrize("levels,match", [
        ((), "at least one"),
        ((0.05, 0.1), "strictly decreasing"),
        ((0.1, 0.06), "integer multiple"),
    ])
    def test_rejects_bad_levels(self, levels, match):
        models = quiet_models(2)
        cfg = SolverConfig(T=0.3, h=0.1, dt=0.025, cascade_levels=levels)
        with pytest.raises(ConfigError, match=match):
            run_cascade(models, cfg)
