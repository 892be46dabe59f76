"""Bound checks and energy accounting over computed trajectories.

Norms are the discrete forms the solver itself uses: the V norm of a
scalar field is the gradient L2 norm, the H norm the L2 norm, the U norm
the gradient L4 norm (element-exact for piecewise linears), and the E
norm of a vector field the elasticity quadratic form. The viscous
dissipation accumulator uses the viscosity form. Time accumulators use
the left-rectangle rule on the stepping grid, matching the implicit
Euler stepper. Violations are collected as report entries, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    MIDPOINT_BASIS,
    assemble_frictional_heat,
    assemble_joule_load_direct,
    assemble_joule_load_reformulated,
    assemble_scalar_stiffness_unit,
    element_gradients,
    h1_norm,
    phi_b_nodal,
    theta_at_quadrature,
    u_norm4,
)
from .mesh import edge_quadrature, estimate_scalar_trace_norm

REPORT_COLUMNS = (
    "t",
    "phi_v",
    "potential_bound",
    "weighted_joule",
    "kinetic_energy",
    "viscous_dissipation",
    "theta_h",
    "theta_v_sq_accum",
    "theta_u4_accum",
    "u_e",
    "regularizer",
    "joule_gap",
)


@dataclass
class DiagnosticsReport:
    """Per-step scalar table plus the violations found while building it."""

    columns: tuple[str, ...]
    data: np.ndarray
    violations: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]


def _boundary_l2(mesh, part: str, values: np.ndarray) -> float:
    """L2 norm of a nodal field over the boundary edges with the given tag."""
    quad = edge_quadrature(mesh, (part,))
    return float(np.sqrt(np.sum(quad.weights * quad.interpolate(values) ** 2)))


def potential_bound_constant(models) -> float:
    """Data-only bound on the V norm of the shifted potential.

    Combines the conductivity bounds, the exchange coefficients, and the
    boundary trace constant of the scalar free space measured against the
    gradient norm, applied to the nodal interpolant of the ambient
    potential. The electric solve satisfies the resulting inequality
    exactly in exact arithmetic.
    """
    mesh, dofs, mat, bd = models.mesh, models.dofs, models.mat, models.bd
    phib = phi_b_nodal(mesh, bd)
    h1 = h1_norm(mesh, phib)
    l2_n = _boundary_l2(mesh, "N", phib)
    l2_c = _boundary_l2(mesh, "C", phib)
    if l2_n == 0.0 and l2_c == 0.0:
        gamma = 0.0
    else:
        gamma = estimate_scalar_trace_norm(mesh, dofs)
    num = mat.M_sigma * h1 + bd.H_N * l2_n * gamma + bd.H_C_bar * l2_c * gamma
    return num / mat.sigma_star


def weighted_gradient_integral(models, state) -> float:
    """Quadrature value of the conductivity-weighted squared-field,
    squared-gradient integral of the total potential."""
    mesh, mat, bd = models.mesh, models.mat, models.bd
    total = np.asarray(state.phi, dtype=float) + phi_b_nodal(mesh, bd)
    tri, areas = mesh.triangles, mesh.areas
    g = element_gradients(mesh, total)
    g2 = np.einsum("ti,ti->t", g, g)
    vals_q = total[tri] @ MIDPOINT_BASIS.T
    sigma_q = np.asarray(mat.sigma_el(theta_at_quadrature(mesh, state.theta)), dtype=float)
    return float(np.sum(areas / 3.0 * np.sum(sigma_q * vals_q**2, axis=1) * g2))


def joule_gap(models, direct, theta, phi, t: float) -> float:
    """Largest free-entry difference between the two Joule load forms,
    given the direct one."""
    reform = assemble_joule_load_reformulated(models.mesh, models.dofs, models.mat, models.bd,
                                              theta, phi, fric=models.fric, t=t)
    if not direct.size:
        return 0.0
    return float(np.abs(direct - reform).max())


def energy_report(ws) -> DiagnosticsReport:
    """Scalar diagnostics for every state of a run's :class:`~thermocontact.scheme.Workspace`.

    The mass, viscosity and elasticity forms are the run's own, read from
    the workspace. Checks the potential bound, the nodal traction bound,
    and the sign of the heat sources at each step; failures become
    violation entries.
    """
    models, config = ws.models, ws.config
    mesh, dofs, mat, fric = models.mesh, models.dofs, models.mat, models.fric
    sfree = dofs.scalar_free_nodes
    vfree = dofs.vector_free_dofs()
    mass_s = ws.mass_thermal
    stiff_s = assemble_scalar_stiffness_unit(mesh, dofs)
    mass_v, visc_op, elast_op = ws.momentum.mass, ws.momentum.visc, ws.momentum.elast
    bound_c = potential_bound_constant(models)
    traction_cap = fric.mu_bar * fric.F_bar * (1.0 + 1e-10)

    dt, h = config.dt, config.h
    data = np.zeros((len(ws.states), len(REPORT_COLUMNS)))
    violations: list[str] = []
    visc_accum = theta_v_accum = theta_u4_accum = 0.0
    for i, state in enumerate(ws.states):
        pf = state.phi[sfree]
        tf = state.theta[sfree]
        vf = state.v[vfree]
        uf = state.u[vfree]
        phi_v = float(np.sqrt(max(pf @ (stiff_s @ pf), 0.0)))
        u4 = u_norm4(mesh, state.theta)
        joule = assemble_joule_load_direct(mesh, dofs, mat, models.bd, state.theta, state.phi)
        row = (
            state.t,
            phi_v,
            bound_c,
            weighted_gradient_integral(models, state),
            0.5 * mat.mass_mech() * float(vf @ (mass_v @ vf)),
            visc_accum,
            float(np.sqrt(max(tf @ (mass_s @ tf), 0.0))),
            theta_v_accum,
            h * theta_u4_accum,
            float(np.sqrt(max(uf @ (elast_op @ uf), 0.0))),
            h * u4**0.75,
            joule_gap(models, joule, state.theta, state.phi, state.t),
        )
        data[i] = row
        visc_accum += dt * float(vf @ (visc_op @ vf))
        theta_v_accum += dt * float(tf @ (stiff_s @ tf))
        theta_u4_accum += dt * u4

        if phi_v > bound_c * (1.0 + 1e-8):
            violations.append(
                f"potential bound exceeded at t={state.t:.6g}: {phi_v} > {bound_c}")
        xi_c = state.xi.reshape(-1, 2)[dofs.contact_nodes]
        if xi_c.size:
            worst = float(np.linalg.norm(xi_c, axis=1).max())
            if worst > traction_cap:
                violations.append(
                    f"traction bound exceeded at t={state.t:.6g}: {worst} > {traction_cap}")
        fheat = assemble_frictional_heat(mesh, dofs, fric, state.v, state.t)
        for name, load in (("joule", joule), ("frictional heat", fheat)):
            if load.size and load.min() < -1e-14:
                violations.append(
                    f"negative {name} load entry at t={state.t:.6g}: {load.min()}")
    if not np.isfinite(data).all():
        violations.append("non-finite diagnostic value")
    return DiagnosticsReport(REPORT_COLUMNS, data, violations)
