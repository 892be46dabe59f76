"""Regularized slip-rate friction law and the implicit momentum step.

On the boundary of a 2D body the tangential velocity at a contact node is
one number, the slip rate s = tau . v along the unit tangent tau. The
tangential traction there is g(s) tau, with

    g(s) = mu(r) F s / r,   r = sqrt(s^2 + eps^2),

a smoothing of the set-valued law g in mu(|s|) F sign(s). The smoothed
law keeps the traction bound |g| <= mu_bar F exactly and satisfies the
same one-sided monotonicity estimate as the exact law,

    (g(s1) - g(s2)) (s1 - s2) >= -F d_mu (s1 - s2)^2,

so every stability argument that consumes those two properties applies
unchanged. Nodal tractions are paired with test functions through the
contact boundary mass of the P1 interpolant.

The momentum step matrix B is the same at every step of a run, and
friction acts only along the tangents of the q free contact nodes. So the
Newton iteration of a step runs in 1 + q numbers, on the band factor of B
that the run keeps: one band solve before the iteration, one after it, and
none in between (:func:`solve_momentum_step`).
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
    """Friction law g(s) on slip rates s, with the eps-smoothed magnitude r = sqrt(s^2 + eps^2)."""

    fric: FrictionModel
    eps: float

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("regularization parameter must be positive")

    def traction(self, s: np.ndarray, F: np.ndarray) -> np.ndarray:
        """Tangential traction g(s) = mu(r) F s / r for slip rates s (m,) and normal tractions F (m,)."""
        s = np.asarray(s, dtype=float)
        r = np.sqrt(s * s + self.eps**2)
        return np.asarray(self.fric.mu(r), dtype=float) * np.asarray(F, dtype=float) / r * s

    def slope(self, s: np.ndarray, F: np.ndarray) -> np.ndarray:
        """Slope g'(s) = F (mu'(r) s^2 / r^2 + mu(r) eps^2 / r^3) of the traction.

        mu' is taken by central differences where the model gives none.
        """
        s = np.asarray(s, dtype=float)
        r2 = s * s + self.eps**2
        r = np.sqrt(r2)
        mu = np.asarray(self.fric.mu(r), dtype=float)
        if self.fric.mu_prime is not None:
            dmu = np.asarray(self.fric.mu_prime(r), dtype=float)
        else:  # over [r - 1e-7, r + 1e-7], cut at 0, so divide by the span taken
            hi, lo = r + 1e-7, np.maximum(r - 1e-7, 0.0)
            dmu = (np.asarray(self.fric.mu(hi), dtype=float)
                   - np.asarray(self.fric.mu(lo), dtype=float)) / (hi - lo)
        return np.asarray(F, dtype=float) * (dmu * (s * s / r2) + mu * (self.eps**2 / (r2 * r)))


@dataclass(eq=False)
class MomentumStep:
    """The implicit momentum step of one run, on free vector dofs.

    The momentum balance reads temperature only through the delay, so its
    step matrix B = rho/dt M + A + dt B_el is the same at every step of a
    run. It is summed and factored once here, so a process forked after
    the step is built steps on the same factor. A singular B raises
    SolverError here, before any step.

    Friction adds R xi to the residual B v - rhs, with R the contact
    pairing columns of the free contact dofs and xi the nodal traction
    there. At free contact node k the traction is g(s_k) tau_k, along the
    unit tangent tau_k, at the slip rate s_k = tau_k . v_k (:meth:`slip`),
    so R xi = R_tau g with R_tau = R T and T the block column of the
    tangents. Of B^-1 R_tau the step needs only the q x q
    S = T^T E^T B^-1 R_tau, where E^T picks the free contact dofs (see
    :func:`solve_momentum_step`). S is formed one column of R_tau at a
    time, so no n_free x q array is ever held.
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
    base: sp.csr_matrix = field(init=False, repr=False)  # B
    nodes: np.ndarray = field(init=False, repr=False)  # the q free contact nodes, mesh indices
    pos: np.ndarray = field(init=False, repr=False)  # their (x, y) dofs in the free vector
    tau: np.ndarray = field(init=False, repr=False)  # their unit tangents, (q, 2)
    r: sp.csc_matrix = field(init=False, repr=False)  # R_tau = R T, (n_free, q)
    factor: BandCholesky | BandLU = field(init=False, repr=False)  # of B
    s: np.ndarray = field(init=False, repr=False)  # S = T^T E^T B^-1 R_tau, (q, q)

    def __post_init__(self):
        mesh, dofs = self.mesh, self.dofs
        self.visc, self.elast = assemble_elastic_operators(mesh, dofs, self.mat)
        self.mass = assemble_vector_mass(mesh, dofs)
        self.base = dofs.vector.csr(self.mat.mass_mech() / self.dt * self.mass.data
                                    + self.visc.data + self.dt * self.elast.data)
        # a contact node on the D part never moves, so friction acts on the free ones only
        free = dofs.node_to_free[dofs.contact_nodes]
        sel = free >= 0
        self.nodes = dofs.contact_nodes[sel]
        self.pos = xy_dofs(free[sel])
        self.tau = dofs.contact_tangent[sel]
        r = assemble_contact_mass(mesh, dofs).tocsc()[:, self.pos]
        self.r = (r[:, 0::2] @ sp.diags(self.tau[:, 0]) + r[:, 1::2] @ sp.diags(self.tau[:, 1])).tocsc()
        self.r.eliminate_zeros()  # the contact mass is stored on the full vector pattern
        try:
            self.factor = factor_banded(self.base, dofs.vector.layout)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"momentum solve at t=0: {exc}") from None
        self.s = np.empty((self.nodes.size, self.nodes.size))
        for k in range(self.nodes.size):
            self.s[:, k] = self.slip(self.factor.solve(self.r[:, k].toarray().ravel())[self.pos])

    def slip(self, w: np.ndarray) -> np.ndarray:
        """(q,) tangential parts tau_k . w_k of a vector w, (2q,) or (q, 2), at the free contact nodes."""
        w = w.reshape(-1, 2)
        return w[:, 0] * self.tau[:, 0] + w[:, 1] * self.tau[:, 1]


def contact_traction_full(step: MomentumStep, v_free: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Full (2N,) nodal traction field at the free velocity v_free.

    F holds the normal traction at the step's free contact nodes
    ``step.nodes``. The traction is zero everywhere else, D nodes included,
    since they never move.
    """
    out = np.zeros((step.mesh.n_nodes, 2))
    out[step.nodes] = step.rfric.traction(step.slip(v_free[step.pos]), F)[:, None] * step.tau
    return out.ravel()


def solve_momentum_step(ws, u: np.ndarray, v: np.ndarray, theta: np.ndarray, t_new: float):
    """One implicit Euler step of the momentum balance with nodal friction.

    ``ws`` is the run's :class:`~thermocontact.scheme.Workspace`; the step
    reads the full old displacement ``u`` and velocity ``v`` and the full
    delayed temperature ``theta``. Returns the full fields (v_new, u_new,
    xi_new) and the Newton info, or raises SolverError. The stop test
    |res| <= tol_momentum (1 + |load|) and ``info["residual"]`` read the
    condensed residual below; it equals the true residual B v + R xi - rhs
    of v_new only up to the error of the band solves.

    The velocity update is :func:`damped_newton` with the exact Jacobian,
    run on the 1 + q numbers x = (beta, c). With v0 the old velocity,
    s0 its slip rates, r0 = B v0 + R_tau g(s0) - rhs and p = B^-1 r0 (the
    first band solve), x stands for the velocity v0 + beta p + B^-1 R_tau c,
    whose residual is

        (1 + beta) r0 + R_tau rho,   rho = c + g(s) - g(s0),   s = s0 + beta T^T E^T p + S c.

    So a trial evaluates the friction law once, at the slips s, and the
    line search and the stop test read the norm of that n_free residual.
    By the Sherman-Morrison-Woodbury identity the Newton step from x is

        beta <- beta - (1 + beta),   c <- c + g' y - rho,
        (I + S diag(g')) y = (1 + beta) T^T E^T p + S rho,

    a dense q x q system, with g' = ``rfric.slope(s, F)``. The step ends
    with the second band solve, v = v0 + B^-1 (beta r0 + R_tau c), and
    takes xi = g tau from the last accepted trial. Without free contact
    nodes (q = 0) the velocity is v0 + beta p, one band solve in all. The normal traction F is read once, at t_new and
    the free contact nodes.
    """
    step, cfg = ws.momentum, ws.config
    mesh, dofs, mat, rfric = step.mesh, step.dofs, step.mat, step.rfric
    q = step.nodes.size
    vfree = dofs.vector_free_dofs()
    u_old = u[vfree]
    v_old = v[vfree]
    load = assemble_mech_load(mesh, dofs, step.bd, rfric.fric, t_new)
    coup = assemble_thermal_coupling(mesh, dofs, mat, theta)
    rhs = load - coup + mat.mass_mech() / step.dt * (step.mass @ v_old) - step.elast @ u_old
    F = rfric.fric.F_field(mesh.nodes[step.nodes], t_new)
    s0 = step.slip(v_old[step.pos])
    g0 = rfric.traction(s0, F)
    r0 = step.base @ v_old + step.r @ g0 - rhs
    p = step.factor.solve(r0)
    tp = step.slip(p[step.pos])  # T^T E^T p

    def residual(x):
        beta, c = x[0], x[1:]
        s = s0 + beta * tp + step.s @ c
        g = rfric.traction(s, F)
        rho = c + g - g0
        return (1.0 + beta) * r0 + step.r @ rho, (x, s, g, rho)

    def correction(res, aux):
        x, s, _, rho = aux
        delta = np.empty_like(x)
        delta[0] = -(1.0 + x[0])
        if q:
            dg = rfric.slope(s, F)
            lhs = step.s * dg  # S diag(g')
            lhs.flat[::q + 1] += 1.0
            try:
                y = np.linalg.solve(lhs, (1.0 + x[0]) * tp + step.s @ rho)
            except np.linalg.LinAlgError as exc:  # the Woodbury system is singular
                raise SolverError(f"momentum solve at t={t_new:.6g}: {exc}") from None
            delta[1:] = dg * y - rho
        return delta

    target = cfg.tol_momentum * (1.0 + float(np.linalg.norm(load)))
    x, (_, _, g, _), info = damped_newton(residual, correction, np.zeros(1 + q), target,
                                          cfg.max_iter_momentum, "momentum", t_new)
    if q:
        v_new = v_old + step.factor.solve(x[0] * r0 + step.r @ x[1:])
    else:
        v_new = v_old + x[0] * p
    v_full = np.zeros(2 * mesh.n_nodes)
    v_full[vfree] = v_new
    u_full = np.zeros_like(v_full)
    u_full[vfree] = u_old + step.dt * v_new
    xi_full = np.zeros((mesh.n_nodes, 2))
    xi_full[step.nodes] = g[:, None] * step.tau
    return v_full, u_full, xi_full.ravel(), info
