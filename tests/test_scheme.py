"""Time grid validation, delay semantics, staggered stepping, cascade."""

import dataclasses
import gc
import os
import select
import signal
import time
import weakref

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
from thermocontact import mesh as mesh_module
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
from thermocontact.mesh import BandLU, build_dof_maps, build_unit_square_mesh, factor_banded, load_mesh
from thermocontact.scheme import (
    CG_MAX_ITER,
    ConfigError,
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
        (dict(T=1e300, h=0.05, dt=0.0125), r"time grid has 8e\+301 steps, more than 1000000"),
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

        def spy(ws, *fields):
            seen.append(fields)
            return solve(ws, *fields)

        monkeypatch.setattr(scheme, "solve_temperature_step", spy)
        advance(ws)
        assert len(seen) == ws.config.n_steps == 12
        for n, (theta_old, theta_del, phi_del, v_del, t_new) in enumerate(seen, start=1):
            delayed = ws.states[max(n - k, 0)]
            assert theta_del is delayed.theta and phi_del is delayed.phi and v_del is delayed.v
            assert theta_old is ws.states[n - 1].theta and t_new == ws.states[n].t


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

    @pytest.mark.parametrize("n,fits", [(8, True), (32, False)])
    def test_history_must_fit_in_physical_memory(self, monkeypatch, n, fits):
        # 10**6 + 1 states of 8 doubles a node: 5.2 GB at n=8 and 69.7 GB at n=32,
        # on a machine that reports 8 GiB
        pages = {"SC_PHYS_PAGES": 2**21, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        cfg = SolverConfig(T=1.0, h=4e-6, dt=1e-6)
        assert cfg.n_steps == 10**6
        if fits:
            assert len(initialize(default_models(n), cfg).states) == 1
        else:
            with pytest.raises(ConfigError, match=r"^1000001 states of 1089 nodes need 69\.7 GB, "
                                                  r"more than the 8\.59 GB of physical memory$"):
                initialize(default_models(n), cfg)

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
        got = solve_temperature_step(ws, theta_old, s0.theta, s0.phi, s0.v, t)

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
        theta = solve_temperature_step(ws, s0.theta, s0.theta, s0.phi, s0.v, ws.config.dt)
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
        got = solve_temperature_step(ws, theta_old, s0.theta, s0.phi, s0.v, ws.config.dt)

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

        theta = s0.theta
        dt = ws.config.dt
        for n in range(int(round(50.0 / dt))):
            theta = solve_temperature_step(ws, theta, s0.theta, s0.phi, s0.v, (n + 1) * dt)

        stiff = restrict_scalar(dofs, scalar_stiffness_unit_full(mesh))

        basis_integrals = np.asarray(scalar_mass_full(mesh).sum(axis=1)).ravel()
        target = scipy.sparse.linalg.spsolve(stiff, q0 * basis_integrals[free])
        gap = np.linalg.norm(theta[free] - target) / np.linalg.norm(target)
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
        from thermocontact.assembly import u_norm4

        t_on = solve_temperature_step(ws_on, theta_old, s0.theta, s0.phi, s0.v, ws_on.config.dt)
        t_off = solve_temperature_step(ws_off, theta_old, s0.theta, s0.phi, s0.v, ws_off.config.dt)
        assert u_norm4(mesh, t_on) < u_norm4(mesh, t_off)

    def test_one_jacobian_per_newton_correction(self, monkeypatch):
        counts = {"residual": 0, "jacobian": 0}

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
        work = ScalarWork(monkeypatch)
        advance(ws)
        assert work.corrections() > 0
        assert counts["jacobian"] == work.corrections()
        assert counts["residual"] > work.corrections()

    def test_non_finite_residual_raises(self):
        # a NaN residual must not pass for convergence at the initial guess
        models = default_models(2)
        models = dataclasses.replace(models, mat=dataclasses.replace(
            models.mat, k=lambda s: np.full(np.shape(s) + (2, 2), np.nan)))
        ws = self.make_ws(models)
        s0 = ws.states[0]
        with pytest.raises(SolverError, match=r"temperature step at t=0\.01: non-finite residual nan"):
            solve_temperature_step(ws, s0.theta, s0.theta, s0.phi, s0.v, ws.config.dt)


class ScalarWork:
    """The factorizations, CG calls and factor solves of each scalar stage of a run.

    ``install`` wraps ``scheme.factor_banded`` (a binding separate from
    ``friction.factor_banded``, which the momentum stage calls) to note the
    type of each factor and return it behind a proxy that counts its solves,
    ``scheme._cg`` to count its calls and those that reach the cap, and
    ``scheme.solve_electric`` to tell the electric stage from the
    temperature stage. A direct solve makes one factor solve and a CG call
    one more than its iterations.
    """

    def __init__(self, monkeypatch):
        self.stage = "temperature"
        self.counts = {stage: {"factors": [], "cg_calls": 0, "capped": 0, "solves": 0}
                       for stage in ("temperature", "electric")}
        factor_banded, cg, solve_electric = scheme.factor_banded, scheme._cg, scheme.solve_electric

        def factored(matrix, layout=None):
            factor = factor_banded(matrix, layout)
            counts = self.counts[self.stage]
            counts["factors"].append(type(factor))
            return CountedSolves(factor, counts)

        def counted_cg(factor, matrix, b):
            counts = self.counts[self.stage]
            x = cg(factor, matrix, b)
            counts["cg_calls"] += 1
            counts["capped"] += x is None
            return x

        def electric(*args, **kwargs):
            self.stage = "electric"
            try:
                return solve_electric(*args, **kwargs)
            finally:
                self.stage = "temperature"

        monkeypatch.setattr(scheme, "factor_banded", factored)
        monkeypatch.setattr(scheme, "_cg", counted_cg)
        monkeypatch.setattr(scheme, "solve_electric", electric)

    def factorizations(self, stage):
        return len(self.counts[stage]["factors"])

    def cg_iterations(self, stage):
        counts = self.counts[stage]
        return counts["solves"] - len(counts["factors"]) - counts["cg_calls"]

    def corrections(self):
        """Temperature Newton corrections: each factors, runs CG, or runs CG to the cap and factors."""
        counts = self.counts["temperature"]
        return len(counts["factors"]) + counts["cg_calls"] - counts["capped"]


class CountedSolves:
    """A factor whose solves are counted in counts["solves"]."""

    def __init__(self, factor, counts):
        self.factor, self.counts = factor, counts

    def solve(self, b):
        self.counts["solves"] += 1
        return self.factor.solve(b)


class TestLaggedFactor:
    """The factor of a temperature step's first Newton correction preconditions its later ones.

    Each scalar stage call factors on the scalar pattern's layout
    (``scheme._direct_solve``), runs CG on that factor for the later
    corrections of a step (``scheme._cg``), refactors where CG reaches its
    cap, and keeps no factor once it returns.
    """

    @staticmethod
    def electric(models, theta, t=0.0):
        return assemble_electric_system(models.mesh, models.dofs, models.mat, models.bd,
                                        theta, models.fric, t)

    @staticmethod
    def first_step():
        """A Workspace at t=0 and the arguments of its first temperature step.

        That step makes several Newton corrections.
        """
        models, cfg, theta0 = contact_run_inputs()
        ws = initialize(models, cfg, theta0=theta0)
        s0 = ws.states[0]
        return ws, (s0.theta, s0.theta, s0.phi, s0.v, ws.config.dt)

    def test_stale_factor_gives_direct_solution(self):
        # a later solve of a stage call runs CG on the factor of its first
        models = default_models(8)
        x0, x1 = models.mesh.nodes.T
        theta = np.zeros(models.mesh.n_nodes)
        theta[models.dofs.scalar_free_nodes] = 0.05
        theta *= np.sin(np.pi * x0) * (1.0 + x1)
        layout = models.dofs.scalar.layout
        counts = {"solves": 0}
        matrix, load = self.electric(models, np.zeros_like(theta))
        factor, _ = scheme._direct_solve("electric", matrix, load, 0.1, layout)
        matrix, load = self.electric(models, theta)
        x = scheme._cg(CountedSolves(factor, counts), matrix, load)
        assert x is not None and counts["solves"] > 1  # at least one CG iteration
        direct = scipy.sparse.linalg.spsolve(matrix.tocsc(), load)
        assert np.linalg.norm(x - direct) <= 1e-12 * np.linalg.norm(direct)
        assert np.linalg.norm(matrix @ x - load) <= 1e-12 * (1.0 + np.linalg.norm(load))

    def test_cap_triggers_refactorization(self, monkeypatch):
        # a mass-matrix factor preconditions the stiffness-dominated electric
        # matrix too poorly for CG to converge within the cap
        models = default_models(16)
        layout = models.dofs.scalar.layout
        mass_factor, _ = scheme._direct_solve("electric", assemble_scalar_mass(models.mesh, models.dofs),
                                              np.ones(models.dofs.scalar_free_nodes.size), 0.1, layout)
        counts = {"solves": 0}
        matrix, load = self.electric(models, np.zeros(models.mesh.n_nodes))
        assert scheme._cg(CountedSolves(mass_factor, counts), matrix, load) is None
        assert counts["solves"] == 1 + CG_MAX_ITER

        # where CG reaches the cap, the stage refactors on the Jacobian CG was given
        ws, fields = self.first_step()
        reference = solve_temperature_step(ws, *fields)
        factor_banded, cg = scheme.factor_banded, scheme._cg
        factored, capped = [], []

        def counted(matrix, layout=None):
            factored.append(matrix)
            return factor_banded(matrix, layout)

        def at_cap(factor, matrix, b):
            cg(factor, matrix, b)
            capped.append(matrix)
            return None

        monkeypatch.setattr(scheme, "factor_banded", counted)
        monkeypatch.setattr(scheme, "_cg", at_cap)
        theta = solve_temperature_step(ws, *fields)
        assert len(capped) > 0 and len(factored) == len(capped) + 1
        assert all(a is b for a, b in zip(factored[1:], capped))
        assert np.abs(theta - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_new_grid_time_refactors_without_cg(self, monkeypatch):
        # each call factors at its first correction, even a call with the
        # inputs and time of the one before, and runs CG at the later ones
        ws, fields = self.first_step()
        factor_banded, cg = scheme.factor_banded, scheme._cg
        calls = []

        def counted(matrix, layout=None):
            calls[-1].append("factor")
            return factor_banded(matrix, layout)

        def counted_cg(factor, matrix, b):
            calls[-1].append("cg")
            return cg(factor, matrix, b)

        monkeypatch.setattr(scheme, "factor_banded", counted)
        monkeypatch.setattr(scheme, "_cg", counted_cg)
        thetas = []
        for _ in range(2):
            calls.append([])
            thetas.append(solve_temperature_step(ws, *fields))
        assert calls[0] == calls[1] and calls[0][0] == "factor" and "cg" in calls[0]
        assert np.array_equal(thetas[0], thetas[1])

    def test_singular_matrix_names_stage_and_time(self):
        models = default_models(2)
        matrix = assemble_scalar_mass(models.mesh, models.dofs) * 0.0
        with pytest.raises(SolverError, match=r"temperature solve at t=0\.25: .*singular"):
            scheme._direct_solve("temperature", matrix, np.ones(matrix.shape[0]), 0.25,
                                 models.dofs.scalar.layout)

    @pytest.mark.parametrize("lagged", [False, True])
    def test_nan_matrix_entry_names_stage_and_time(self, lagged):
        # with a factor of an earlier correction, CG cannot meet its bound and the stage refactors
        models = default_models(4)
        layout = models.dofs.scalar.layout
        mass = assemble_scalar_mass(models.mesh, models.dofs)
        matrix = mass.copy()
        matrix[3, 3] = np.nan
        if lagged:
            factor, _ = scheme._direct_solve("electric", mass, np.ones(mass.shape[0]), 0.25, layout)
            assert scheme._cg(factor, matrix, np.ones(mass.shape[0])) is None
        with pytest.raises(SolverError, match=r"electric solve at t=0\.25: singular"):
            scheme._direct_solve("electric", matrix, np.ones(mass.shape[0]), 0.25, layout)

    def test_nan_load_names_stage_and_time(self):
        models = default_models(4)
        matrix = assemble_scalar_mass(models.mesh, models.dofs)
        load = np.ones(matrix.shape[0])
        load[3] = np.nan
        with pytest.raises(SolverError, match=r"temperature solve at t=0\.25: non-finite solution"):
            scheme._direct_solve("temperature", matrix, load, 0.25, models.dofs.scalar.layout)

    def test_no_factor_outlives_its_stage_call(self, monkeypatch):
        # the states are all that a step leaves for the next
        factors = []
        factor_banded = scheme.factor_banded

        def kept(matrix, layout=None):
            factor = factor_banded(matrix, layout)
            factors.append(weakref.ref(factor))
            return factor

        monkeypatch.setattr(scheme, "factor_banded", kept)
        models, cfg, theta0 = contact_run_inputs()
        ws = initialize(models, cfg, theta0=theta0)
        for _ in range(3):
            advance_one(ws)
        gc.collect()
        assert len(factors) >= 7  # the potential at t=0, then at least two per step
        assert [ref() for ref in factors] == [None] * len(factors)

    def test_run_matches_direct_oracle(self, monkeypatch):
        # the momentum Newton counts are read from the Workspace, not from a
        # patched damped_newton; the stage work is counted on the serial loop,
        # since advance solves the potential and momentum in a worker process,
        # and advance is held to the serial loop's states
        newton = scheme.damped_newton
        counts = []

        def counted(*args, **kwargs):
            out = newton(*args, **kwargs)
            counts.append(out[2]["iterations"])
            return out

        stand_ins = []

        def direct(matrix, layout=None):
            stand_ins.append(DirectSolve(matrix, layout))
            return stand_ins[-1]

        monkeypatch.setattr(scheme, "damped_newton", counted)
        cfg = SolverConfig(T=0.5, h=0.05, dt=0.0125)
        models = default_models(8, overrides={"f0": (0.5, 0.0), "phi_b": "x1"})
        advanced = advance(initialize(models, cfg))
        runs = []
        for oracle_run in (False, True):
            if oracle_run:  # every scalar solve, from initialize on, is a fresh direct solve
                monkeypatch.setattr(scheme, "factor_banded", direct)
                monkeypatch.setattr(scheme, "_cg", lambda factor, matrix, b: None)
            counts.clear()
            ws = initialize(models, cfg)
            states = step_serially(ws)
            runs.append((states, list(counts), [info["iterations"] for info in ws.momentum_info]))
        (lagged, lagged_t, lagged_m), (oracle, oracle_t, oracle_m) = runs
        assert lagged_t == oracle_t and lagged_m == oracle_m
        assert len(lagged_t) == len(lagged_m) == cfg.n_steps and len(lagged) == cfg.n_steps + 1
        assert sum(lagged_m) > 0
        # one stand-in per temperature Newton correction and per potential, each solved once
        assert [f.solves for f in stand_ins] == [1] * (sum(oracle_t) + cfg.n_steps + 1)
        for a, b in zip(lagged, oracle):
            for name in ("theta", "phi", "u", "v", "xi"):
                fa, fb = getattr(a, name), getattr(b, name)
                assert np.abs(fa - fb).max() <= 1e-12 * (1.0 + np.abs(fb).max()), name
        assert_same_states(advanced, lagged)

    def test_run_builds_no_layout_per_factorization(self, monkeypatch):
        # every factor of a run reads the band layout its pattern built with the dof maps
        models = default_models(8, overrides={"f0": (0.5, 0.0), "phi_b": "x1"})
        built = []
        band_layout = mesh_module.band_layout

        def counted(*args):
            built.append(args)
            return band_layout(*args)

        monkeypatch.setattr(mesh_module, "band_layout", counted)
        work = ScalarWork(monkeypatch)
        cfg = SolverConfig(T=0.5, h=0.05, dt=0.0125)
        ws = initialize(models, cfg)
        step_serially(ws)
        assert work.factorizations("temperature") > 0
        assert work.factorizations("electric") == cfg.n_steps + 1
        # advance factors the potential in a worker, whose layouts this process cannot see
        assert_same_states(advance(initialize(models, cfg)), ws.states)
        assert built == []
        factor_banded(ws.momentum.base)  # a matrix given without its layout gets one built
        assert len(built) == 1

    def test_fine_mesh_run_keeps_its_factors(self, monkeypatch):
        # at n = 48 a direct solve leaves |b - A x| above 1e-14 |b|, so a stop
        # on that bound never met it and refactored at nearly every solve: the
        # temperature stage factors once per step, and at most three times more
        # where CG reaches its cap, the potential once per grid time; counted
        # on the serial loop, whose states advance must give too
        models = default_models(48, tags={"left": "D", "right": "D", "bottom": "C", "top": "C"},
                                overrides={"f0": (0.5, 0.0), "phi_b": "x1"})
        x0, x1 = models.mesh.nodes.T
        theta0 = 0.75 * np.sin(np.pi * x0) * (1.0 + 0.02 * np.cos(np.pi * x1))
        theta0[models.dofs.dirichlet_nodes] = 0.0
        cfg = SolverConfig(T=0.5, h=0.05, dt=0.0125)
        work = ScalarWork(monkeypatch)
        ws = initialize(models, cfg, theta0=theta0)
        step_serially(ws)
        assert work.factorizations("electric") == cfg.n_steps + 1
        assert work.counts["electric"]["cg_calls"] == 0
        assert cfg.n_steps <= work.factorizations("temperature") <= cfg.n_steps + 3
        assert work.cg_iterations("temperature") > 0
        assert_same_states(advance(initialize(models, cfg, theta0=theta0)), ws.states)

    def test_nonsymmetric_conductivity_run_keeps_its_factors(self, monkeypatch):
        # k != k^T makes the temperature Jacobian nonsymmetric; a Cholesky
        # factor of its lower triangle alone refactored 200 times in this run,
        # where banded LU factors once per step and at most five times more
        models = default_models(8, tags={"left": "D", "right": "D", "bottom": "C", "top": "N"},
                                overrides={"f0": (0.5, 0.0), "phi_b": "x1"})
        models = dataclasses.replace(models, mat=dataclasses.replace(
            models.mat, k=lambda s: 0.1 * anisotropic_k(s)))
        x0, x1 = models.mesh.nodes.T
        theta0 = 0.75 * np.sin(np.pi * x0) * (1.0 + 0.3 * x1)
        theta0[models.dofs.dirichlet_nodes] = 0.0
        cfg = SolverConfig(T=0.5, h=0.05, dt=0.0125)
        work = ScalarWork(monkeypatch)
        ws = initialize(models, cfg, theta0=theta0)
        advance(ws)
        assert set(work.counts["temperature"]["factors"]) == {BandLU}
        assert work.factorizations("temperature") <= cfg.n_steps + 5
        assert work.cg_iterations("temperature") > 0


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

    def test_run_factors_momentum_matrix_once(self, monkeypatch):
        # initialize factors B; no step factors it, in this process or in the
        # worker of advance, which inherits the factor
        ws = initialize(default_models(8, overrides={"f0": (0.5, 0.0)}),
                        SolverConfig(T=0.2, h=0.05, dt=0.025))

        def refactor(matrix, layout=None):
            raise AssertionError("the momentum step matrix was factored again")

        monkeypatch.setattr(friction, "factor_banded", refactor)
        advance_one(ws)
        advance(ws)
        assert len(ws.states) == 9 and len(ws.momentum_info) == 8

    def test_initialize_factors_momentum_matrix_once(self, monkeypatch):
        factored = []
        factor_banded = friction.factor_banded

        def counted(matrix, layout=None):
            factored.append(matrix)
            return factor_banded(matrix, layout)

        monkeypatch.setattr(friction, "factor_banded", counted)
        ws = initialize(default_models(4, overrides={"f0": (0.5, 0.0)}),
                        SolverConfig(T=0.1, h=0.05, dt=0.025))
        assert len(factored) == 1 and factored[0] is ws.momentum.base

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


# a momentum Newton that stalls at its first step
STALLING_MOMENTUM = SolverConfig(T=0.1, h=0.05, dt=0.025, tol_momentum=1e-300, max_iter_momentum=1)


@pytest.fixture
def workers(monkeypatch):
    """The stage workers forked from here on, in order."""
    forked = []

    class Recorded(scheme._StageWorker):
        def __init__(self, ws):
            super().__init__(ws)
            forked.append(self)

    monkeypatch.setattr(scheme, "_StageWorker", Recorded)
    return forked


def reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def assert_same_states(a, b):
    for sa, sb in zip(a, b, strict=True):
        for name in ("t", "theta", "phi", "u", "v", "xi"):
            assert np.array_equal(getattr(sa, name), getattr(sb, name)), name


def step_serially(ws):
    """Step ws to its horizon with advance_one alone: every stage in this process, in the serial order."""
    while len(ws.states) - 1 < ws.config.n_steps:
        advance_one(ws)
    return ws.states


class TestMomentumStage:
    """The momentum stage runs alongside the other two, with the states and errors of the serial loop."""

    def test_run_equals_serial_loop(self):
        models, cfg, theta0 = contact_run_inputs()
        states = advance(initialize(models, cfg, theta0=theta0))

        ws = initialize(models, cfg, theta0=theta0)
        for n in range(1, cfg.n_steps + 1):
            t = n * cfg.dt
            old, delayed = ws.states[-1], ws.states[max(n - cfg.delay_steps, 0)]
            theta = solve_temperature_step(ws, old.theta, delayed.theta, delayed.phi, delayed.v, t)
            phi = solve_electric(ws, theta, t)
            v, u, xi, _ = friction.solve_momentum_step(ws, old.u, old.v, delayed.theta, t)
            ws.states.append(SystemState(t=t, u=u, v=v, theta=theta, phi=phi, xi=xi))

        assert len(states) == len(ws.states) == cfg.n_steps + 1
        for a, b in zip(states, ws.states):
            assert a.t == b.t
            for name in ("theta", "phi", "u", "v", "xi"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.abs(states[-1].xi).max() > 0.0

    def test_momentum_error_message_unchanged(self):
        ws = initialize(default_models(4, overrides={"f0": (0.5, 0.0)}), STALLING_MOMENTUM)
        s0 = ws.states[0]
        with pytest.raises(SolverError) as direct:
            friction.solve_momentum_step(ws, s0.u, s0.v, s0.theta, STALLING_MOMENTUM.dt)
        assert str(direct.value).startswith("momentum step at t=0.025 stalled after 1 iterations")
        ws = initialize(default_models(4, overrides={"f0": (0.5, 0.0)}), STALLING_MOMENTUM)
        with pytest.raises(SolverError) as stepped:
            advance(ws)
        assert str(stepped.value) == str(direct.value)
        assert len(ws.states) == 1 and ws.momentum_info == []

    def test_temperature_error_comes_first(self):
        models = default_models(4, overrides={"f0": (0.5, 0.0)})
        models = dataclasses.replace(models, mat=dataclasses.replace(
            models.mat, k=lambda s: np.full(np.shape(s) + (2, 2), np.nan)))
        ws = initialize(models, STALLING_MOMENTUM)
        s0 = ws.states[0]
        with pytest.raises(SolverError, match="momentum step at t=0.025 stalled after 1 iterations"):
            friction.solve_momentum_step(ws, s0.u, s0.v, s0.theta, STALLING_MOMENTUM.dt)
        with pytest.raises(SolverError, match=r"^temperature step at t=0\.025: non-finite residual nan"):
            advance(initialize(models, STALLING_MOMENTUM))

    def test_singular_momentum_matrix_fails_in_initialize(self):
        with pytest.raises(SolverError, match=r"^momentum solve at t=0: singular"):
            initialize(singular_momentum_models(), SolverConfig(T=0.1, h=0.05, dt=0.025))

    def test_config_change_reaches_the_stage(self):
        # each advance forks its worker with the config of that moment
        models, cfg, theta0 = contact_run_inputs(4)
        ws = initialize(models, dataclasses.replace(cfg, T=5 * cfg.dt), theta0=theta0)
        advance(ws)
        # met by the old velocity: no Newton step
        ws.config = dataclasses.replace(ws.config, T=7 * cfg.dt, tol_momentum=1e3)
        advance(ws)
        ws.config = dataclasses.replace(ws.config, T=cfg.T, tol_momentum=1e-10)
        advance(ws)
        iterations = [info["iterations"] for info in ws.momentum_info]
        assert len(iterations) == cfg.n_steps
        assert iterations[5:7] == [0, 0] and min(iterations[:5] + iterations[7:]) > 0
        assert np.array_equal(ws.states[7].v, ws.states[5].v)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the stages run in-process without os.fork")
class TestMomentumWorker:
    """One worker per advance loop, reaped however the loop ends; no worker outside one."""

    def test_reaped_when_advance_returns(self, workers, monkeypatch):
        models, cfg, theta0 = contact_run_inputs(4)
        ws = initialize(models, cfg, theta0=theta0)
        step, alive = scheme.advance_one, []

        def checked(ws, worker=None):
            alive.append(worker is workers[0] and not reaped(worker.pid))
            return step(ws, worker)

        monkeypatch.setattr(scheme, "advance_one", checked)
        advance(ws)
        assert alive == [True] * cfg.n_steps
        assert len(workers) == 1 and reaped(workers[0].pid)

    @pytest.mark.parametrize("stage", ["temperature", "momentum"])
    def test_reaped_when_advance_raises(self, workers, stage):
        models, cfg, theta0 = contact_run_inputs(4)
        ws = initialize(models, cfg, theta0=theta0)
        advance_one(ws)
        ws.config = dataclasses.replace(ws.config, **{f"tol_{stage}": 1e-300, f"max_iter_{stage}": 1})
        with pytest.raises(SolverError, match=rf"^{stage} step at t=0\.025 stalled after 1 iterations"):
            advance(ws)
        assert len(workers) == 1 and reaped(workers[0].pid)
        assert len(ws.states) == 2

    def test_dead_worker_names_stage_and_time(self, workers, monkeypatch):
        # the error names the earliest step whose potential or momentum result
        # is missing; the worker solves momentum step n before potential n, so
        # that is the potential of the first step it did not send
        models, cfg, theta0 = contact_run_inputs(4)
        ws = initialize(models, cfg, theta0=theta0)
        step = scheme.advance_one

        def kill_at_first_step(ws, worker=None):
            if not worker.theta and len(ws.states) == 1:  # nothing sent yet
                os.kill(worker.pid, signal.SIGKILL)
            return step(ws, worker)

        monkeypatch.setattr(scheme, "advance_one", kill_at_first_step)
        with pytest.raises(SolverError, match=r"^electric step at t=0\.0125: the worker process exited"):
            advance(ws)
        assert len(ws.states) == 1 and reaped(workers[0].pid)

    def test_worker_exit_keeps_the_states_it_sent(self, workers, monkeypatch):
        # the worker leaves after the potential of step 1 and momentum step 5
        models, cfg, theta0 = contact_run_inputs(4)
        solve, parent = scheme.solve_electric, os.getpid()

        def exit_at_step_2(ws, theta, t):
            if t == 2 * cfg.dt and os.getpid() != parent:
                os._exit(0)
            return solve(ws, theta, t)

        monkeypatch.setattr(scheme, "solve_electric", exit_at_step_2)
        ws = initialize(models, cfg, theta0=theta0)
        with pytest.raises(SolverError, match=r"^electric step at t=0\.025: the worker process exited"):
            advance(ws)
        assert len(ws.states) == 2 and len(ws.momentum_info) == 1 and reaped(workers[0].pid)
        monkeypatch.undo()
        reference = initialize(models, cfg, theta0=theta0)
        advance_one(reference)
        assert_same_states(reference.states, ws.states)

    def test_fork_does_not_hold_the_worker(self):
        # a process forked while a worker is alive, as a multiprocessing pool
        # may be, holds copies of its pipes; stopping the worker must not wait for it
        models, cfg, theta0 = contact_run_inputs(4)
        worker = scheme._StageWorker(initialize(models, cfg, theta0=theta0))
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
            worker.stop()
            assert time.monotonic() - start < 5.0 and reaped(worker.pid)
        finally:
            os.close(release_w)
            os.waitpid(fork, 0)

    def test_advance_after_a_failed_one(self, workers, monkeypatch):
        # a fresh worker steps on the same factor and the run goes on as if nothing failed
        models, cfg, theta0 = contact_run_inputs(4)
        cfg = dataclasses.replace(cfg, T=0.1)
        reference = advance(initialize(models, cfg, theta0=theta0))
        ws = initialize(models, cfg, theta0=theta0)
        solve, failed = scheme.solve_temperature_step, []

        def fail_once_at_step_2(ws, *fields):
            if fields[-1] == 2 * cfg.dt and not failed:
                failed.append(fields[-1])
                raise SolverError("injected")
            return solve(ws, *fields)

        monkeypatch.setattr(scheme, "solve_temperature_step", fail_once_at_step_2)
        with pytest.raises(SolverError, match="injected"):
            advance(ws)
        assert len(ws.states) == 2
        advance(ws)
        assert len(workers) == 3 and all(reaped(w.pid) for w in workers)
        assert_same_states(reference, ws.states)

    def test_no_fork_outside_advance_or_after_its_horizon(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        models, cfg, theta0 = contact_run_inputs(4)
        ws = initialize(models, dataclasses.replace(cfg, T=0.0625), theta0=theta0)
        for _ in range(5):
            advance_one(ws)
        assert advance(ws) is ws.states and len(ws.states) == 6

    def test_sigchld_ignored(self, workers):
        # the kernel reaps the worker itself; stopping it must not fail
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            models, cfg, theta0 = contact_run_inputs(4)
            states = advance(initialize(models, dataclasses.replace(cfg, T=0.0625), theta0=theta0))
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(states) == 6 and reaped(workers[0].pid)


STAGES = {"temperature": "solve_temperature_step", "electric": "solve_electric",
          "momentum": "solve_momentum_step"}

# (failures injected as (stage, step), the one the serial loop raises); the
# run has a delay of 4 steps
FAILURES = {
    "temperature": ([("temperature", 6)], ("temperature", 6)),
    "potential": ([("electric", 3)], ("electric", 3)),
    "momentum": ([("momentum", 6)], ("momentum", 6)),
    # the parent solves temperature 1 to 5 before it needs state 1
    "momentum_passed": ([("momentum", 2)], ("momentum", 2)),
    "temperature_and_momentum": ([("temperature", 6), ("momentum", 6)], ("temperature", 6)),
    "potential_and_momentum": ([("electric", 5), ("momentum", 5)], ("electric", 5)),
    "momentum_then_temperature": ([("momentum", 3), ("temperature", 5)], ("momentum", 3)),
}


def inject_failures(monkeypatch, failures, dt):
    """Make each stage raise SolverError at the steps failures lists for it.

    Patched in this process before advance forks, so the worker inherits
    the patched stages.
    """
    for stage, name in STAGES.items():
        times = [step * dt for s, step in failures if s == stage]

        def failing(ws, *args, solve=getattr(scheme, name), stage=stage, times=times):
            if args[-1] in times:
                raise SolverError(f"{stage} step at t={args[-1]:.6g}: injected")
            return solve(ws, *args)

        monkeypatch.setattr(scheme, name, failing)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the stages run in-process without os.fork")
class TestStageSchedule:
    """The worker solves potential and momentum behind the parent's temperature, with the serial loop's results."""

    @pytest.mark.parametrize("failures,first", FAILURES.values(), ids=FAILURES.keys())
    def test_error_and_states_match_serial_loop(self, workers, monkeypatch, failures, first):
        models, cfg, theta0 = contact_run_inputs(4)
        serial, piped = (initialize(models, cfg, theta0=theta0) for _ in range(2))
        inject_failures(monkeypatch, failures, cfg.dt)
        with pytest.raises(SolverError) as expected:
            step_serially(serial)
        stage, step = first
        assert str(expected.value) == f"{stage} step at t={step * cfg.dt:.6g}: injected"
        with pytest.raises(SolverError) as got:
            advance(piped)
        assert str(got.value) == str(expected.value)
        assert len(piped.states) == step
        assert_same_states(piped.states, serial.states)
        assert piped.momentum_info == serial.momentum_info
        assert len(workers) == 1 and reaped(workers[0].pid)

    @pytest.mark.parametrize("delay_steps,pipe_bytes", [(1, 1 << 16), (2, 1 << 16),
                                                        (8, scheme.REPLY_PIPE_BYTES)])
    def test_large_messages_do_not_deadlock(self, monkeypatch, delay_steps, pipe_bytes):
        # at n=64 one momentum reply is 203 kB, past a 64 kB pipe; with a
        # delay of 8 steps the worker's first 8 replies fill even the larger
        # pipe, and the temperatures the parent sends meanwhile fill its
        # request pipe. A delay of one step leaves the parent no slack.
        monkeypatch.setattr(scheme, "REPLY_PIPE_BYTES", pipe_bytes)
        models, cfg, theta0 = contact_run_inputs(64)
        cfg = dataclasses.replace(cfg, h=delay_steps * cfg.dt, T=(delay_steps + 4) * cfg.dt)
        assert cfg.delay_steps == delay_steps

        def deadline(signum, frame):
            raise TimeoutError("advance did not return within 60 s")

        previous = signal.signal(signal.SIGALRM, deadline)
        signal.alarm(60)
        try:
            piped = advance(initialize(models, cfg, theta0=theta0))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert_same_states(piped, step_serially(initialize(models, cfg, theta0=theta0)))
        assert len(piped) == cfg.n_steps + 1


def test_runs_in_process_without_fork(monkeypatch):
    models, cfg, theta0 = contact_run_inputs(4)
    cfg = dataclasses.replace(cfg, T=0.1)
    forked = advance(initialize(models, cfg, theta0=theta0))
    monkeypatch.delattr(os, "fork", raising=False)
    ws = initialize(models, cfg, theta0=theta0)
    advance(ws)
    assert_same_states(forked, ws.states)


def test_one_step_mark_per_step(monkeypatch):
    # the benchmark marks each step by wrapping scheme.advance_one and
    # requires one mark per integrated step: each call solves the temperature
    # of the next step, and the last call returns with every state complete
    step, solve, calls = scheme.advance_one, scheme.solve_temperature_step, []

    def counted(ws, *args, **kwargs):
        calls.append([])
        state = step(ws, *args, **kwargs)
        calls[-1].append(len(ws.states))
        return state

    def temperature(ws, *fields):
        calls[-1].append(fields[-1])
        return solve(ws, *fields)

    monkeypatch.setattr(scheme, "advance_one", counted)
    monkeypatch.setattr(scheme, "solve_temperature_step", temperature)
    models, cfg, theta0 = contact_run_inputs(4)
    cfg = dataclasses.replace(cfg, T=0.1, cascade_levels=(0.05, 0.025))
    advance(initialize(models, cfg, theta0=theta0))
    assert [c[0] for c in calls] == [n * cfg.dt for n in range(1, cfg.n_steps + 1)]
    assert [len(c) for c in calls] == [2] * cfg.n_steps and calls[-1][1] == cfg.n_steps + 1
    calls.clear()
    run_cascade(models, cfg)
    assert [c[0] for c in calls] == [n * cfg.dt for n in range(1, cfg.n_steps + 1)] * 2
    assert [len(c) for c in calls] == [2] * 2 * cfg.n_steps
    assert calls[cfg.n_steps - 1][1] == calls[-1][1] == cfg.n_steps + 1


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
