"""End-to-end checks of the package's quantitative guarantees.

One test per guarantee; each prints a single PASS line with the measured
numbers once its assertions hold, so a verbose run reads as a checklist.
"""

import dataclasses
import pathlib
from time import perf_counter

import numpy as np
import pytest

from conftest import const_bd
from oracles import (
    check_subgradient_properties,
    delay_inequality_gap,
    dense_boundary_mass,
    dense_scalar_mass,
    dense_scalar_stiffness,
    dense_vector_mass,
    dense_vector_stiffness,
    joule_gap,
    momentum_residual,
    p1_basis,
    restrict,
    restrict_scalar,
    tri_area,
)
from thermocontact.assembly import (
    MIDPOINT_BASIS,
    assemble_p_laplacian,
    assemble_p_laplacian_jacobian,
    phi_b_nodal,
)
from thermocontact.diagnostics import energy_report, potential_bound_constant
from thermocontact.driver import main
from thermocontact.friction import MomentumStep, RegularizedFriction
from thermocontact.materials import default_ptc_model
from thermocontact.mesh import build_dof_maps, build_unit_square_mesh
from thermocontact.scheme import (
    Models,
    SolverConfig,
    advance,
    advance_one,
    initialize,
    run_cascade,
)

from test_scheme import quiet_models

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_TAGS = {"left": "D", "right": "D", "bottom": "C", "top": "N"}
DEFAULT_OVERRIDES = {"f0": (0.5, 0.0), "phi_b": "x1"}
DEFAULT_CFG = SolverConfig(T=0.5, h=0.05, dt=0.0125)
CASCADE_LEVELS = (0.1, 0.05, 0.025)


def make_default_models(n=8, extra=None):
    mesh = build_unit_square_mesh(n, tags=DEFAULT_TAGS)
    dofs = build_dof_maps(mesh)
    overrides = dict(DEFAULT_OVERRIDES)
    overrides.update(extra or {})
    mat, fric, bd = default_ptc_model(overrides)
    return Models(mesh, dofs, mat, fric, bd)


def disable_friction(models):
    fric = dataclasses.replace(
        models.fric,
        F_field=lambda x, t: np.zeros(np.asarray(x).shape[:-1]),
        F_bar=0.0)
    return dataclasses.replace(models, fric=fric)


@pytest.fixture(scope="module")
def cascade_report():
    cfg = dataclasses.replace(DEFAULT_CFG, cascade_levels=CASCADE_LEVELS)
    return run_cascade(make_default_models(), cfg)


# degree-5 triangle rule, exact for the quartic error integrand below
_A5 = (6.0 - np.sqrt(15.0)) / 21.0
_B5 = (6.0 + np.sqrt(15.0)) / 21.0
DEG5_BARY = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [_A5, _A5, 1 - 2 * _A5],
    [_A5, 1 - 2 * _A5, _A5],
    [1 - 2 * _A5, _A5, _A5],
    [_B5, _B5, 1 - 2 * _B5],
    [_B5, 1 - 2 * _B5, _B5],
    [1 - 2 * _B5, _B5, _B5],
])
DEG5_W = np.array([9 / 40]
                  + [(155.0 - np.sqrt(15.0)) / 1200.0] * 3
                  + [(155.0 + np.sqrt(15.0)) / 1200.0] * 3)


def _product_errors(mesh, phi_total):
    """L2 and gradient-L2 errors against the product-of-coordinates field."""
    l2 = 0.0
    energy = 0.0
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        area = tri_area(p)
        pts = DEG5_BARY @ p
        vh = DEG5_BARY @ phi_total[tri]
        exact = pts[:, 0] * pts[:, 1]
        l2 += area * float(DEG5_W @ (vh - exact) ** 2)
        _, grads = p1_basis(p)
        gh = grads @ phi_total[tri]
        mid = MIDPOINT_BASIS @ p
        gex = np.stack([mid[:, 1], mid[:, 0]], axis=1)
        energy += area / 3.0 * float(np.sum((gh[None, :] - gex) ** 2))
    return np.sqrt(l2), np.sqrt(energy)


def test_01_manufactured_potential_convergence():
    start = perf_counter()
    all_d = {side: "D" for side in DEFAULT_TAGS}
    errors = []
    for n in (4, 8, 16):
        mesh = build_unit_square_mesh(n, tags=all_d)
        dofs = build_dof_maps(mesh)
        mat, fric, bd = default_ptc_model(
            {"sigma_star": 1.0, "M_sigma": 1.0, "phi_b": "x1x2"})
        models = Models(mesh, dofs, mat, fric, bd)
        if n == 4:  # self-check of the error quadrature on the known integral
            total = mesh.nodes[:, 0] * mesh.nodes[:, 1]
            sq = sum(tri_area(mesh.nodes[t]) * float(DEG5_W @ ((DEG5_BARY @ mesh.nodes[t])[:, 0]
                     * (DEG5_BARY @ mesh.nodes[t])[:, 1]) ** 2) for t in mesh.triangles)
            assert abs(sq - 1.0 / 9.0) < 1e-13
            del total
        ws = initialize(models, DEFAULT_CFG)
        phi_total = ws.states[0].phi + phi_b_nodal(mesh, bd)
        errors.append(_product_errors(mesh, phi_total))
    l2_orders = [np.log2(errors[i][0] / errors[i + 1][0]) for i in range(2)]
    en_orders = [np.log2(errors[i][1] / errors[i + 1][1]) for i in range(2)]
    for o in l2_orders:
        assert 1.7 <= o <= 2.3
    for o in en_orders:
        assert 0.8 <= o <= 1.2
    elapsed = perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 01 PASS manufactured-solution orders: "
          f"L2 {l2_orders[0]:.3f},{l2_orders[1]:.3f} "
          f"energy {en_orders[0]:.3f},{en_orders[1]:.3f} ({elapsed:.1f}s)")


def test_02_potential_bound_every_step():
    start = perf_counter()
    models = make_default_models()
    states = advance(initialize(models, DEFAULT_CFG))
    bound = potential_bound_constant(models)
    from oracles import scalar_stiffness_unit_full

    stiff = restrict_scalar(models.dofs, scalar_stiffness_unit_full(models.mesh))
    free = models.dofs.scalar_free_nodes
    worst = 0.0
    for s in states:
        pf = s.phi[free]
        lhs = float(np.sqrt(max(pf @ (stiff @ pf), 0.0)))
        assert lhs <= bound * (1.0 + 1e-8)
        worst = max(worst, lhs)
    elapsed = perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 02 PASS potential bound at {len(states)}/{len(states)} steps: "
          f"max lhs {worst:.4f} <= {bound:.4f} ({elapsed:.1f}s)")


def test_03_traction_bound_and_slope_inequality():
    models = make_default_models()
    states = advance(initialize(models, DEFAULT_CFG))
    cap = models.fric.mu_bar * models.fric.F_bar * (1.0 + 1e-10)
    worst = 0.0
    for s in states:
        xi = s.xi.reshape(-1, 2)[models.dofs.contact_nodes]
        worst = max(worst, float(np.linalg.norm(xi, axis=1).max()))
        assert worst <= cap
    rfric = RegularizedFriction(models.fric, eps=DEFAULT_CFG.eps)
    sampled = check_subgradient_properties(rfric, n_pairs=10_000, seed=0)
    assert sampled["bound_violation"] <= 1e-12
    assert sampled["monotonicity_violation"] <= 1e-12
    print(f"ACCEPTANCE 03 PASS traction bound max {worst:.5f} <= {cap:.5f}; "
          f"sampled inequalities clean on {sampled['n_pairs']} pairs")


def test_04_delay_inequality_random_histories():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(3, 50))
        m = int(rng.integers(1, 8))
        k = int(rng.integers(1, n))
        dt = float(rng.uniform(0.01, 0.4))
        hist = rng.normal(size=(n + 1, m)) * 10.0 ** rng.uniform(-3, 3)
        gap = delay_inequality_gap(hist, k * dt, dt)
        scale = dt * float(np.sum(hist * hist))
        if gap > 1e-12 * (1.0 + scale):
            violations += 1
    assert violations == 0
    print("ACCEPTANCE 04 PASS delay inequality: 0 violations on 100 random histories")


def test_05_uniform_energy_boundedness():
    start = perf_counter()
    models = make_default_models()
    rho = models.mat.mass_mech()
    max13, max14 = [], []
    for lev in CASCADE_LEVELS:
        cfg = dataclasses.replace(DEFAULT_CFG, h=lev)
        ws = initialize(models, cfg)
        advance(ws)
        rep = energy_report(ws)
        assert rep.ok(), rep.violations
        c = rep.column
        lhs13 = 2.0 * c("kinetic_energy") / rho + c("viscous_dissipation") + c("u_e") ** 2
        lhs14 = c("theta_h") ** 2 + c("theta_v_sq_accum") + c("theta_u4_accum")
        max13.append(float(lhs13.max()))
        max14.append(float(lhs14.max()))
    for vals in (max13, max14):
        assert all(np.isfinite(vals))
        spread = (max(vals) - min(vals)) / min(vals)
        assert spread < 0.5
        assert all(v <= 10.0 * vals[0] for v in vals)
    elapsed = perf_counter() - start
    assert elapsed < 300.0
    s13 = (max(max13) - min(max13)) / min(max13)
    s14 = (max(max14) - min(max14)) / min(max14)
    print(f"ACCEPTANCE 05 PASS energy boundedness: spreads "
          f"{s13:.2%} (mechanical), {s14:.2%} (thermal) < 50% ({elapsed:.1f}s)")


def test_06_cauchy_differences_decrease(cascade_report):
    rep = cascade_report
    assert len(rep.theta_cauchy) == 2
    theta_ratio = rep.theta_cauchy[1] / rep.theta_cauchy[0]
    v_ratio = rep.v_cauchy[1] / rep.v_cauchy[0]
    assert theta_ratio < 1.0
    assert v_ratio < 1.0
    print(f"ACCEPTANCE 06 PASS Cauchy decrease: theta ratio {theta_ratio:.3f}, "
          f"velocity ratio {v_ratio:.3f}")


def test_07_regularizer_majorant_decreases(cascade_report):
    reg = cascade_report.regularizer
    assert all(b < a for a, b in zip(reg, reg[1:]))
    print("ACCEPTANCE 07 PASS regularizer majorant decreases: "
          + " > ".join(f"{r:.3e}" for r in reg))


def test_08_joule_forms_gap_shrinks():
    # The two load forms differ by a boundary consistency term wherever the
    # potential sees Robin edges, so the gap is positive on the mixed
    # partition and shrinks under refinement; zero data gives exactly zero.
    models = quiet_models(2)
    nn = models.mesh.n_nodes
    assert joule_gap(models, np.zeros(nn), np.zeros(nn)) == 0.0
    gaps = []
    for n in (4, 8, 16):
        mesh = build_unit_square_mesh(n, tags=DEFAULT_TAGS)
        dofs = build_dof_maps(mesh)
        mat, fric, bd = default_ptc_model({"phi_b": "x1x2"})
        models = Models(mesh, dofs, mat, fric, bd)
        theta = mesh.nodes[:, 0] * (1.0 - mesh.nodes[:, 0])
        theta[dofs.dirichlet_nodes] = 0.0
        ws = initialize(models, DEFAULT_CFG, theta0=theta)
        s0 = ws.states[0]
        gaps.append(joule_gap(models, s0.theta, s0.phi, 0.0))
    assert gaps[0] > gaps[1] > gaps[2] > 0.0
    print("ACCEPTANCE 08 PASS Joule-form gap decreases monotonically: "
          + " > ".join(f"{g:.2e}" for g in gaps) + "; exactly 0 for zero data")


def test_09_staggered_step_matches_monolithic_oracle():
    models = make_default_models(
        2, extra={"sigma_star": 1.0, "M_sigma": 1.0, "k_amp": 0.0})
    models = disable_friction(models)
    cfg = dataclasses.replace(DEFAULT_CFG, regularizer_coefficient=0.0)
    ws = initialize(models, cfg)
    got = advance_one(ws)

    mesh, dofs, mat, bd = models.mesh, models.dofs, models.mat, models.bd
    sfree = dofs.scalar_free_nodes
    vfree = dofs.vector_free_dofs()
    dt = cfg.dt
    hc0 = float(bd.h_C(0.0))
    hcc0 = float(bd.H_C(0.0))
    m_d = dense_scalar_mass(mesh)
    k_d = dense_scalar_stiffness(mesh)
    b_n = dense_boundary_mass(mesh, ("N",))
    b_c = dense_boundary_mass(mesh, ("C",))

    phib = phi_b_nodal(mesh, bd)
    e_full = k_d + bd.H_N * b_n + hcc0 * b_c
    e_block = restrict(e_full, sfree)
    e_rhs = -(e_full @ phib)[sfree]
    phi1 = np.linalg.solve(e_block, e_rhs)

    basis_integrals = np.zeros(mesh.n_nodes)
    joule = np.zeros(mesh.n_nodes)
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        area = tri_area(p)
        _, grads = p1_basis(p)
        phi0 = np.zeros(mesh.n_nodes)
        phi0[sfree] = phi1  # sigma is constant, so the initial solve coincides
        g = grads @ (phi0 + phib)[tri]
        joule[tri] += area / 3.0 * float(g @ g)
        basis_integrals[tri] += area / 3.0
    t_block = restrict(mat.mass_thermal() / dt * m_d + k_d
                       + bd.h_N * b_n + hc0 * b_c, sfree)
    theta1 = np.linalg.solve(t_block, joule[sfree])

    mv_d = dense_vector_mass(mesh)
    a_d = dense_vector_stiffness(mesh, mat.a_tensor)
    b_d = dense_vector_stiffness(mesh, mat.b_tensor)
    m_block = restrict(mat.mass_mech() / dt * mv_d + a_d + dt * b_d, vfree)
    load = np.zeros(2 * mesh.n_nodes)
    load[0::2] = 0.5 * basis_integrals
    v1 = np.linalg.solve(m_block, load[vfree])

    big = np.zeros((sfree.size * 2 + vfree.size,) * 2)
    big[:sfree.size, :sfree.size] = t_block
    big[sfree.size:2 * sfree.size, sfree.size:2 * sfree.size] = e_block
    big[2 * sfree.size:, 2 * sfree.size:] = m_block
    rhs = np.concatenate([joule[sfree], e_rhs, load[vfree]])
    x = np.linalg.solve(big, rhs)
    np.testing.assert_allclose(x, np.concatenate([theta1, phi1, v1]), rtol=1e-12)

    np.testing.assert_allclose(got.theta[sfree], theta1, rtol=1e-10, atol=1e-15)
    np.testing.assert_allclose(got.phi[sfree], phi1, rtol=1e-10, atol=1e-15)
    np.testing.assert_allclose(got.v[vfree], v1, rtol=1e-10, atol=1e-15)
    np.testing.assert_allclose(got.u[vfree], dt * v1, rtol=1e-10, atol=1e-15)
    assert np.abs(got.xi).max() == 0.0
    print("ACCEPTANCE 09 PASS staggered step matches the dense monolithic "
          "solve to 1e-10 relative")


def test_10_jacobians_match_finite_differences():
    mesh = build_unit_square_mesh(2, tags=DEFAULT_TAGS)
    dofs = build_dof_maps(mesh)
    rng = np.random.default_rng(11)
    worst_p = 0.0
    for _ in range(5):
        theta = np.zeros(mesh.n_nodes)
        theta[dofs.scalar_free_nodes] = rng.normal(size=dofs.scalar_free_nodes.size)
        jac = assemble_p_laplacian_jacobian(dofs, assemble_p_laplacian(mesh, dofs, theta)[1])
        jac = jac.toarray()
        step = 1e-6
        for k in range(dofs.scalar_free_nodes.size):
            tp, tm = theta.copy(), theta.copy()
            tp[dofs.scalar_free_nodes[k]] += step
            tm[dofs.scalar_free_nodes[k]] -= step
            rp, _ = assemble_p_laplacian(mesh, dofs, tp)
            rm, _ = assemble_p_laplacian(mesh, dofs, tm)
            fd = (rp - rm) / (2.0 * step)
            worst_p = max(worst_p, float(
                (np.abs(fd - jac[:, k]) / (1.0 + np.abs(jac[:, k]))).max()))
    assert worst_p <= 1e-6

    mat, fric, bd = default_ptc_model(DEFAULT_OVERRIDES)
    rfric = RegularizedFriction(fric, eps=1e-3)
    momentum = MomentumStep(mesh, dofs, mat, rfric, bd, 0.0125)
    vfree = dofs.vector_free_dofs()
    u_old = np.zeros(vfree.size)
    v_old = np.zeros(vfree.size)
    theta_del = np.zeros(mesh.n_nodes)
    worst_m = 0.0
    for _ in range(3):
        v = 0.1 * rng.normal(size=vfree.size)
        _, jac = momentum_residual(momentum, 0.0125, u_old, v_old, theta_del, v)
        jac = np.asarray(jac.todense()) if hasattr(jac, "todense") else np.asarray(jac)
        step = 1e-7
        for k in range(vfree.size):
            vp, vm = v.copy(), v.copy()
            vp[k] += step
            vm[k] -= step
            rp, _ = momentum_residual(momentum, 0.0125, u_old, v_old, theta_del, vp)
            rm, _ = momentum_residual(momentum, 0.0125, u_old, v_old, theta_del, vm)
            fd = (rp - rm) / (2.0 * step)
            worst_m = max(worst_m, float(
                (np.abs(fd - jac[:, k]) / (1.0 + np.abs(jac[:, k]))).max()))
    assert worst_m <= 1e-5
    print(f"ACCEPTANCE 10 PASS Jacobians vs finite differences: "
          f"quartic term {worst_p:.2e} <= 1e-6, momentum residual {worst_m:.2e} <= 1e-5")


def test_11_assumption_gate_cli(tmp_path, capsys):
    default_cfg = str(REPO_ROOT / "examples" / "default.cfg")
    assert main(["check", "--config", default_cfg]) == 0
    clean = capsys.readouterr()
    assert "A8" in clean.out

    inflated = tmp_path / "inflated.cfg"
    inflated.write_text(pathlib.Path(default_cfg).read_text()
                        + "model.beta = 1000000.0\n")
    assert main(["check", "--config", str(inflated)]) == 4
    captured = capsys.readouterr()
    assert "A8" in captured.err
    print("ACCEPTANCE 11 PASS assumption gate: default passes, "
          "inflated slope constant exits 4 naming A8")


def test_12_zero_fixed_point_and_determinism(tmp_path):
    models = quiet_models(2)
    states = advance(initialize(models, SolverConfig(T=0.2, h=0.05, dt=0.025)))
    for s in states:
        for arr in (s.u, s.v, s.theta, s.phi, s.xi):
            assert np.abs(arr).max() == 0.0

    default_cfg = str(REPO_ROOT / "examples" / "default.cfg")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", default_cfg, "--out", str(out_a)]) == 0
    assert main(["run", "--config", default_cfg, "--out", str(out_b)]) == 0
    names = ("trajectory.csv", "diagnostics.csv", "cascade.csv", "fields.csv")
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    print(f"ACCEPTANCE 12 PASS zero data stays zero across {len(states)} states; "
          f"reruns byte-identical for {', '.join(names)}")
