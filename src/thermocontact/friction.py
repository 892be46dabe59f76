"""Regularized slip-rate friction law and the implicit momentum step.

The tangential traction at a contact node is

    xi(v) = mu(r_eps) F v_tau / r_eps,   r_eps = sqrt(|v_tau|^2 + eps^2),

a smoothing of the set-valued law xi in mu(|v_tau|) F unit(v_tau). The
smoothed map keeps the traction bound |xi| <= mu_bar F exactly and satisfies
the same one-sided monotonicity estimate as the exact law,

    (xi(v1) - xi(v2)) . (v1 - v2) >= -F d_mu |v1 - v2|^2,

so every stability argument that consumes those two properties applies
unchanged. Nodal tractions are paired with test functions through the
contact boundary mass of the P1 interpolant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import (
    assemble_contact_mass,
    assemble_elastic_operators,
    assemble_mech_load,
    assemble_thermal_coupling,
    assemble_vector_mass,
)
from .materials import BoundaryData, FrictionModel, MaterialModel
from .mesh import BandCholesky, BandLU, DofMap, Mesh, factor_banded, xy_dofs


class SolverError(RuntimeError):
    """A nonlinear solve failed to reach its residual tolerance."""


def damped_newton(residual, correction, x0: np.ndarray, target: float, max_iter: int,
                  stage: str, t: float):
    """Residual-monotone damped Newton from x0 until |residual| <= target.

    residual(x) returns (res, aux), where aux is the state at x that the
    residual computed on the way (element gradients, nodal tractions), and
    correction(res, aux) builds the Jacobian from it and returns the Newton
    step, so a line-search trial costs no Jacobian. Each step is halved, at
    most 20 times, until the residual norm falls. Returns (x, aux, info) at the accepted iterate; a non-finite residual,
    max_iter steps without convergence, or a step with no descent raise
    SolverError naming the stage and t.
    """
    x = x0
    res, aux = residual(x)
    res_norm = float(np.linalg.norm(res))
    iterations = 0
    while not res_norm <= target:
        if not np.isfinite(res_norm):
            raise SolverError(f"{stage} step at t={t:.6g}: non-finite residual {res_norm}")
        if iterations >= max_iter:
            raise SolverError(
                f"{stage} step at t={t:.6g} stalled after {max_iter} iterations; "
                f"residual {res_norm:.3e} > {target:.3e}")
        delta = correction(res, aux)
        alpha = 1.0
        for _ in range(20):
            trial = x + alpha * delta
            res_t, aux_t = residual(trial)
            norm_t = float(np.linalg.norm(res_t))
            if norm_t < res_norm:
                break
            alpha *= 0.5
        else:
            raise SolverError(
                f"{stage} line search at t={t:.6g} found no descent; residual {res_norm:.3e}")
        x, res, aux, res_norm = trial, res_t, aux_t, norm_t
        iterations += 1
    return x, aux, {"iterations": iterations, "residual": res_norm, "target": target}


@dataclass
class RegularizedFriction:
    """Friction law with an eps-smoothed slip-rate magnitude."""

    fric: FrictionModel
    eps: float

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("regularization parameter must be positive")

    def smoothed_rate(self, vt: np.ndarray) -> np.ndarray:
        vt = np.asarray(vt, dtype=float)
        return np.sqrt(np.einsum("...i,...i", vt, vt) + self.eps**2)

    def traction(self, vt: np.ndarray, F: np.ndarray) -> np.ndarray:
        """Tangential traction for slip velocities vt (m, 2) and tractions F (m,)."""
        vt = np.atleast_2d(np.asarray(vt, dtype=float))
        r = self.smoothed_rate(vt)
        c = np.asarray(self.fric.mu(r), dtype=float) * np.asarray(F, dtype=float) / r
        return c[:, None] * vt

    def traction_jacobian(self, vt: np.ndarray, F: np.ndarray) -> np.ndarray:
        """(m, 2, 2) derivative of the traction with respect to vt."""
        vt = np.atleast_2d(np.asarray(vt, dtype=float))
        F = np.asarray(F, dtype=float)
        r = self.smoothed_rate(vt)
        mu = np.asarray(self.fric.mu(r), dtype=float)
        if self.fric.mu_prime is not None:
            dmu = np.asarray(self.fric.mu_prime(r), dtype=float)
        else:
            h = 1e-7
            dmu = (np.asarray(self.fric.mu(r + h), dtype=float)
                   - np.asarray(self.fric.mu(np.maximum(r - h, 0.0)), dtype=float)) / (2 * h)
        outer = np.einsum("mi,mj->mij", vt, vt)
        eye = np.eye(2)[None]
        core = (dmu / r**2 - mu / r**3)[:, None, None] * outer + (mu / r)[:, None, None] * eye
        return F[:, None, None] * core


@dataclass(eq=False)
class MomentumStep:
    """The implicit momentum step of one run, on free vector dofs.

    The momentum balance reads temperature only through the delay, so its
    step matrix B = rho/dt M + A + dt B_el is the same at every step of a
    run. It is summed and factored once here, so a process forked after
    the step is built steps on the same factor. A singular B raises
    SolverError here, before any step.

    Friction adds R D(v) E^T to B: R holds the contact pairing columns of
    the q free contact nodes' dofs, E^T picks those dofs out of a free
    vector and D is the block-diagonal derivative of the nodal traction.
    The traction reads the tangential velocity (I - nu_k nu_k^T) v_k =
    tau_k tau_k^T v_k only, so its block at free contact node k is
    D_k = a_k tau_k^T with a_k = J_k tau_k and J_k the traction Jacobian,
    and D = A T^T with T the block column of the tangents. With Z = B^-1 R
    and S = E^T Z, the Sherman-Morrison-Woodbury identity

        (B + R A T^T E^T)^-1 x = y - Z A (I + T^T S A)^-1 T^T E^T y,  y = B^-1 x,

    turns each Newton correction into one solve on the factor and a dense
    system with one unknown per free contact node.
    """

    mesh: Mesh
    dofs: DofMap
    mat: MaterialModel
    rfric: RegularizedFriction
    bd: BoundaryData
    dt: float
    mass: sp.csr_matrix = field(init=False, repr=False)
    visc: sp.csr_matrix = field(init=False, repr=False)
    elast: sp.csr_matrix = field(init=False, repr=False)
    contact: sp.csr_matrix = field(init=False, repr=False)  # zero nodal traction on D nodes
    base: sp.csr_matrix = field(init=False, repr=False)  # B
    nodes: np.ndarray = field(init=False, repr=False)  # the q free contact nodes, mesh indices
    pos: np.ndarray = field(init=False, repr=False)  # their (x, y) dofs in the free vector
    nu: np.ndarray = field(init=False, repr=False)  # their unit normals, (q, 2)
    tau: np.ndarray = field(init=False, repr=False)  # their unit tangents, (q, 2)
    factor: BandCholesky | BandLU = field(init=False, repr=False)  # of B
    z: np.ndarray = field(init=False, repr=False)  # Z = B^-1 R, (n_free, 2q)
    ts: np.ndarray = field(init=False, repr=False)  # T^T S, (q, q, 2)

    def __post_init__(self):
        mesh, dofs = self.mesh, self.dofs
        self.visc, self.elast = assemble_elastic_operators(mesh, dofs, self.mat)
        self.mass = assemble_vector_mass(mesh, dofs)
        self.contact = assemble_contact_mass(mesh, dofs)
        self.base = dofs.vector.csr(self.mat.mass_mech() / self.dt * self.mass.data
                                    + self.visc.data + self.dt * self.elast.data)
        # a contact node on the D part never moves, so friction acts on the free ones only
        free = dofs.node_to_free[dofs.contact_nodes]
        sel = free >= 0
        self.nodes = dofs.contact_nodes[sel]
        self.pos = xy_dofs(free[sel])
        self.nu = dofs.contact_normal[sel]
        self.tau = dofs.contact_tangent[sel]
        try:
            self.factor = factor_banded(self.base, dofs.vector.layout)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"momentum solve at t=0: {exc}") from None
        q = self.tau.shape[0]
        self.z = self.factor.solve(self.contact[:, self.pos].toarray())
        self.ts = np.einsum("kj,kjl->kl", self.tau, self.z[self.pos].reshape(q, 2, 2 * q)).reshape(q, q, 2)

    def tangential(self, v_free: np.ndarray) -> np.ndarray:
        """(q, 2) tangential parts of a free velocity at the free contact nodes."""
        vp = v_free[self.pos].reshape(-1, 2)
        return vp - np.einsum("mi,mi->m", vp, self.nu)[:, None] * self.nu

    def solve(self, rhs: np.ndarray, a: np.ndarray) -> np.ndarray:
        """(B + R D E^T)^-1 rhs, D = block_diag(a_k tau_k^T) for the (q, 2) array a."""
        q = self.tau.shape[0]
        y = self.factor.solve(rhs)
        if q == 0:
            return y
        lhs = np.eye(q) + np.einsum("klj,lj->kl", self.ts, a)
        w = np.linalg.solve(lhs, np.einsum("kj,kj->k", self.tau, y[self.pos].reshape(q, 2)))
        return y - self.z @ (a * w[:, None]).ravel()


def contact_traction_full(step: MomentumStep, v_free: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Full (2N,) nodal traction field at the free velocity v_free.

    F holds the normal traction at the step's free contact nodes
    ``step.nodes``. The traction is zero everywhere else, D nodes included,
    since they never move.
    """
    out = np.zeros(2 * step.mesh.n_nodes)
    out[xy_dofs(step.nodes)] = step.rfric.traction(step.tangential(v_free), F).ravel()
    return out


def solve_momentum_step(ws, u: np.ndarray, v: np.ndarray, theta: np.ndarray, t_new: float):
    """One implicit Euler step of the momentum balance with nodal friction.

    ``ws`` is the run's :class:`~thermocontact.scheme.Workspace`; the step
    reads the full old displacement ``u`` and velocity ``v`` and the full
    delayed temperature ``theta``. Returns the full fields (v_new, u_new,
    xi_new) and the Newton info; the terminal residual satisfies
    |res| <= tol_momentum (1 + |load|), or SolverError is raised.

    The velocity update is :func:`damped_newton` with the exact Jacobian:
    the run's step matrix, through its factor, plus the friction term on the
    contact dofs, which each correction condenses to a dense system there.
    The normal traction F is read once, at t_new and the free contact nodes;
    each trial evaluates the friction law once, in :func:`contact_traction_full`.
    """
    step, cfg = ws.momentum, ws.config
    mesh, dofs, mat = step.mesh, step.dofs, step.mat
    vfree = dofs.vector_free_dofs()
    u_old = u[vfree]
    v_old = v[vfree]
    load = assemble_mech_load(mesh, dofs, step.bd, step.rfric.fric, t_new)
    coup = assemble_thermal_coupling(mesh, dofs, mat, theta)
    rhs = load - coup + mat.mass_mech() / step.dt * (step.mass @ v_old) - step.elast @ u_old
    F = step.rfric.fric.F_field(mesh.nodes[step.nodes], t_new)

    def residual(v_free):
        xi = contact_traction_full(step, v_free, F)
        return step.base @ v_free + step.contact @ xi[vfree] - rhs, (xi, v_free)

    def correction(res, aux):
        jac = step.rfric.traction_jacobian(step.tangential(aux[1]), F)
        try:
            return step.solve(-res, np.einsum("kij,kj->ki", jac, step.tau))
        except np.linalg.LinAlgError as exc:  # the Woodbury system is singular
            raise SolverError(f"momentum solve at t={t_new:.6g}: {exc}") from None

    target = cfg.tol_momentum * (1.0 + float(np.linalg.norm(load)))
    v_new, (xi, _), info = damped_newton(residual, correction, v_old.copy(), target,
                                         cfg.max_iter_momentum, "momentum", t_new)
    v_full = np.zeros(2 * mesh.n_nodes)
    v_full[vfree] = v_new
    u_full = np.zeros_like(v_full)
    u_full[vfree] = u_old + step.dt * v_new
    return v_full, u_full, xi, info
