"""Time-retarded staggered scheme for the coupled thermistor contact problem.

Each implicit Euler step solves, in order: the temperature balance with
every coupling coefficient and source frozen at the delayed state, the
electric balance at the just-computed temperature, and the momentum balance
with the delayed temperature. The delay makes each stage well posed on its
own: within a step no stage reads a quantity computed later in the same
step. The delay is h = k dt with k = ``SolverConfig.delay_steps``, and step n
reads its couplings from ``ws.states[max(n - k, 0)]``, so on [0, h] that is
the initial state.

The temperature equation carries the quartic gradient regularizer weighted
by the delay length itself (overridable for experiments); its contribution
must vanish as the delay is refined, which the cascade report measures.

The delay also makes the momentum stage independent of the other two
within a step: it reads the old displacement and velocity and the delayed
temperature, and the temperature stage reads the velocity only at the
delayed state. So where ``os.fork`` exists, the momentum stage runs in a
forked worker process while the parent solves temperature and potential,
and the states are the same, bit for bit, as when the three run one after
the other.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .assembly import (
    assemble_electric_system,
    assemble_frictional_heat,
    assemble_joule_load_direct,
    assemble_joule_load_reformulated,
    assemble_p_laplacian,
    assemble_p_laplacian_jacobian,
    assemble_scalar_mass,
    assemble_scalar_stiffness_unit,
    assemble_thermal_robin,
    assemble_thermal_stiffness,
    assemble_velocity_heat,
    u_norm4,
)
from .friction import (
    MomentumStep,
    RegularizedFriction,
    SolverError,
    contact_traction_full,
    damped_newton,
    solve_momentum_step,
)
from .materials import BoundaryData, FrictionModel, MaterialModel
from .mesh import BandCholesky, BandLU, DofMap, Mesh, factor_banded

JOULE_MODES = ("direct", "reformulated")

# CG iterations a lagged factor may take before its stage refactors. At n=32
# one banded Cholesky factorization costs about 5 to 6 iterations (0.5-0.7 ms
# against 0.1 ms on a 2-vCPU VM). Over the 131 scalar solves of a 40-step
# 32x32 contact run, a cap of 4 refactored 27 times in 479 iterations, 8
# refactored 6 times in 926 and 12 refactored 3 times in 1,135.
CG_MAX_ITER = 8
CG_RTOL = 1e-14


class ConfigError(ValueError):
    """A configuration value violates a scheme invariant."""


@dataclass
class Models:
    """Geometry and physics bundle consumed by every stage."""

    mesh: Mesh
    dofs: DofMap
    mat: MaterialModel
    fric: FrictionModel
    bd: BoundaryData


@dataclass
class SolverConfig:
    """Time grid, regularization, and solver control for one run."""

    T: float
    h: float
    dt: float
    eps: float = 1e-6
    tol_temperature: float = 1e-10
    max_iter_temperature: int = 50
    tol_momentum: float = 1e-10
    max_iter_momentum: int = 50
    joule_mode: str = "direct"
    regularizer_coefficient: float | None = None
    cascade_levels: tuple[float, ...] = ()

    def validate(self) -> None:
        if not (0.0 < self.dt <= self.h < self.T):
            raise ConfigError(
                f"time grid must satisfy 0 < dt <= h < T, got dt={self.dt}, h={self.h}, T={self.T}")
        if not np.isfinite(self.T / self.dt):
            raise ConfigError(f"time grid T/dt overflows, got dt={self.dt}, T={self.T}")
        k = self.delay_steps
        if k < 1 or abs(k * self.dt - self.h) > 1e-9 * self.h:
            raise ConfigError(f"delay h={self.h} is not an integer multiple of dt={self.dt}")
        if not self.eps > 0.0:
            raise ConfigError("friction regularization eps must be positive")
        for name in ("tol_temperature", "tol_momentum"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive")
        for name in ("max_iter_temperature", "max_iter_momentum"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.joule_mode not in JOULE_MODES:
            raise ConfigError(f"joule_mode must be one of {JOULE_MODES}, got {self.joule_mode!r}")
        if self.regularizer_coefficient is not None and not self.regularizer_coefficient >= 0.0:
            raise ConfigError("regularizer_coefficient must be nonnegative")
        levels = self.cascade_levels
        if any(b >= a for a, b in zip(levels, levels[1:])):
            raise ConfigError("cascade levels must be strictly decreasing")
        for lev in levels:
            try:
                dataclasses.replace(self, h=lev, cascade_levels=()).validate()
            except ConfigError as exc:
                raise ConfigError(f"cascade level {lev}: {exc}") from None

    @property
    def delay_steps(self) -> int:
        return round(self.h / self.dt)

    @property
    def n_steps(self) -> int:
        return int(np.floor(self.T / self.dt + 1e-9))

    @property
    def regularizer(self) -> float:
        return self.h if self.regularizer_coefficient is None else self.regularizer_coefficient


@dataclass
class SystemState:
    """Full nodal fields at one grid time; Dirichlet entries stay zero."""

    t: float
    u: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    phi: np.ndarray  # shifted potential: total minus the ambient interpolant
    xi: np.ndarray


@dataclass
class LaggedFactor:
    """Positive definite solves of one stage by CG preconditioned with an earlier factor.

    Every coefficient of a stage is frozen at the delayed state, so its
    matrix moves little between solves and the factor of an earlier one
    is a close preconditioner. Each solve starts from the factor's solution
    and stops once the true residual meets the normwise backward error bound
    |b - A x| <= CG_RTOL (|A|_inf |x| + |b|) (Rigal and Gaches; Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 7.1),
    about what a direct solve reaches in roundoff at any mesh size; a bound
    on |b| alone is out of reach once n >= 48. After CG_MAX_ITER iterations
    the stage refactors on the current matrix and solves directly, so a
    stale factor costs iterations, not accuracy. The two counters hold the
    work of every solve so far, failed CG attempts included.
    """

    stage: str
    factor: BandCholesky | BandLU | None = None
    factorizations: int = 0
    cg_iterations: int = 0

    def solve(self, matrix: sp.csr_matrix, b: np.ndarray, t: float) -> np.ndarray:
        if self.factor is not None:
            x = self._cg(matrix, b)
            if x is not None:
                return x
        self.factor = None  # release the old factor before the new one is built
        try:
            self.factor = factor_banded(matrix)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"{self.stage} solve at t={t:.6g}: {exc}") from None
        self.factorizations += 1
        x = self.factor.solve(b)
        if not np.all(np.isfinite(x)):
            raise SolverError(f"{self.stage} solve at t={t:.6g}: non-finite solution "
                              "(non-finite matrix or load?)")
        return x

    def _cg(self, matrix: sp.csr_matrix, b: np.ndarray) -> np.ndarray | None:
        """Preconditioned CG from factor.solve(b); None if it needs over CG_MAX_ITER steps."""
        # |A|_inf bounds |A|_2 for a symmetric A; every row of a free-dof
        # pattern holds its diagonal entry, so no row is empty
        norm_a = float(np.add.reduceat(np.abs(matrix.data), matrix.indptr[:-1]).max())
        norm_b = float(np.linalg.norm(b))
        x = self.factor.solve(b)
        r = b - matrix @ x
        for it in range(CG_MAX_ITER + 1):
            if float(np.linalg.norm(r)) <= CG_RTOL * (norm_a * float(np.linalg.norm(x)) + norm_b):
                self.cg_iterations += it
                return x
            if it == CG_MAX_ITER:
                break
            z = self.factor.solve(r)
            rz_new = float(r @ z)
            p = z if it == 0 else z + (rz_new / rz) * p
            rz = rz_new
            x = x + (rz / float(p @ (matrix @ p))) * p
            r = b - matrix @ x
        self.cg_iterations += CG_MAX_ITER
        return None


@dataclass
class Workspace:
    """One run: its inputs, its state history and the operators constant along it.

    ``states[n]`` is the state at the grid time n dt; ``advance_one`` appends
    one and reads the delayed one from this list. ``momentum_info[n - 1]`` is
    the Newton info of the momentum stage of step n, with one more entry,
    ``factored``: whether that step factored the momentum step matrix B.
    Where the stage runs in a worker process, B's factor lives there, and
    ``momentum.factor`` stays None in this one.
    """

    models: Models
    config: SolverConfig
    states: list[SystemState]
    mass_thermal: sp.csr_matrix
    momentum: MomentumStep
    temperature_solver: LaggedFactor
    electric_solver: LaggedFactor
    momentum_info: list[dict] = field(default_factory=list)


def _check_initial_field(name: str, values: np.ndarray, size: int, zero_idx: np.ndarray) -> np.ndarray:
    out = np.zeros(size) if values is None else np.asarray(values, dtype=float).copy()
    if out.shape != (size,):
        raise ConfigError(f"{name} must have shape ({size},), got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"{name} contains non-finite entries")
    if zero_idx.size and np.abs(out[zero_idx]).max() > 0.0:
        raise ConfigError(f"{name} must vanish at constrained nodes")
    return out


def initialize(models: Models, config: SolverConfig,
               u0: np.ndarray | None = None, v0: np.ndarray | None = None,
               theta0: np.ndarray | None = None) -> Workspace:
    """Validate the setup, solve for the initial potential, seed the state history."""
    config.validate()
    mesh, dofs = models.mesh, models.dofs
    n = mesh.n_nodes
    dir_scalar = dofs.dirichlet_nodes
    dir_vector = np.concatenate([2 * dir_scalar, 2 * dir_scalar + 1]) if dir_scalar.size else dir_scalar
    theta0 = _check_initial_field("theta0", theta0, n, dir_scalar)
    u0 = _check_initial_field("u0", u0, 2 * n, dir_vector)
    v0 = _check_initial_field("v0", v0, 2 * n, dir_vector)

    step = MomentumStep(mesh, dofs, models.mat, RegularizedFriction(models.fric, config.eps),
                        models.bd, config.dt)
    ws = Workspace(models=models, config=config, states=[],
                   mass_thermal=assemble_scalar_mass(mesh, dofs), momentum=step,
                   temperature_solver=LaggedFactor("temperature"),
                   electric_solver=LaggedFactor("electric"))
    phi0 = solve_electric(ws, theta0, t=0.0)
    xi0 = contact_traction_full(step, v0[dofs.vector_free_dofs()],
                                models.fric.F_field(mesh.nodes[step.nodes], 0.0))
    ws.states.append(SystemState(t=0.0, u=u0, v=v0, theta=theta0, phi=phi0, xi=xi0))
    return ws


def solve_electric(ws: Workspace, theta_full: np.ndarray, t: float) -> np.ndarray:
    """Potential for a given temperature field: one SPD solve on the stage's lagged factor."""
    models = ws.models
    mesh, dofs = models.mesh, models.dofs
    matrix, load = assemble_electric_system(mesh, dofs, models.mat, models.bd, theta_full, models.fric, t)
    phi_free = ws.electric_solver.solve(matrix, load, t)
    res = float(np.linalg.norm(matrix @ phi_free - load))
    if not np.all(np.isfinite(phi_free)) or res > 1e-12 * (1.0 + float(np.linalg.norm(load))):
        raise SolverError(f"electric solve at t={t:.6g}: residual {res:.3e} (matrix near-singular?)")
    out = np.zeros(mesh.n_nodes)
    out[dofs.scalar_free_nodes] = phi_free
    return out


def solve_temperature_step(ws: Workspace, old: SystemState, delayed: SystemState,
                           t_new: float) -> np.ndarray:
    """Implicit Euler temperature update with delayed couplings.

    The conductivity is frozen at the delayed temperature, the Joule, strain
    and friction heat sources are evaluated from the delayed state, the heat
    exchange follows F(x, t_new), and the only nonlinearity left is the
    quartic gradient regularizer, handled by damped Newton with its exact
    Jacobian.
    """
    models, cfg = ws.models, ws.config
    mesh, dofs, mat = models.mesh, models.dofs, models.mat
    free = dofs.scalar_free_nodes
    dt = cfg.dt

    stiff = assemble_thermal_stiffness(mesh, dofs, mat, delayed.theta)
    robin = assemble_thermal_robin(mesh, dofs, models.bd, models.fric, t_new)
    if cfg.joule_mode == "direct":
        joule = assemble_joule_load_direct(mesh, dofs, mat, models.bd, delayed.theta, delayed.phi)
    else:
        joule = assemble_joule_load_reformulated(mesh, dofs, mat, models.bd,
                                                 delayed.theta, delayed.phi, models.fric, t_new)
    sources = (joule
               + assemble_velocity_heat(mesh, dofs, mat, delayed.v)
               + assemble_frictional_heat(mesh, dofs, models.fric, delayed.v, t_new))

    rho_cp = mat.mass_thermal()
    pattern = dofs.scalar  # every matrix here is on it, so they add as data arrays
    base = pattern.csr((rho_cp / dt) * ws.mass_thermal.data + stiff.data + robin.data)
    rhs = sources + (rho_cp / dt) * (ws.mass_thermal @ old.theta[free])
    c_reg = cfg.regularizer
    target = cfg.tol_temperature * (1.0 + float(np.linalg.norm(rhs)))

    def residual(theta_free):
        full = np.zeros(mesh.n_nodes)
        full[free] = theta_free
        pl_res, g = assemble_p_laplacian(mesh, dofs, full)
        return base @ theta_free + c_reg * pl_res - rhs, g

    def correction(res, g):
        jac = pattern.csr(base.data + c_reg * assemble_p_laplacian_jacobian(dofs, g).data)
        return ws.temperature_solver.solve(jac, -res, t_new)

    theta, _, _ = damped_newton(residual, correction, old.theta[free], target,
                                cfg.max_iter_temperature, "temperature", t_new)
    out = np.zeros(mesh.n_nodes)
    out[free] = theta
    return out


def _solve_momentum(ws: Workspace, u: np.ndarray, v: np.ndarray, theta: np.ndarray,
                    t_new: float):
    """The momentum stage on the old u and v and the delayed theta, the only fields it reads.

    Returns :func:`solve_momentum_step`'s (v, u, xi, info), with
    ``info["factored"]`` set when this call factored B.
    """
    held = ws.momentum.factor
    state = SystemState(t=t_new, u=u, v=v, theta=theta, phi=None, xi=None)
    v_new, u_new, xi_new, info = solve_momentum_step(ws, state, state, t_new)
    info["factored"] = held is None and ws.momentum.factor is not None
    return v_new, u_new, xi_new, info


def _serve(ws: Workspace, inbox, outbox) -> None:
    """Body of a momentum worker: one stage per request, until the parent closes the pipe.

    A request is (u, v, theta, t_new, config); the reply is the stage's
    result or the exception it raised. At EOF ``pickle.load`` raises
    EOFError, which ends the worker.
    """
    while True:
        u, v, theta, t_new, ws.config = pickle.load(inbox)
        try:
            reply = _solve_momentum(ws, u, v, theta, t_new)
        except Exception as exc:  # sent back and raised by the parent
            reply = exc
        pickle.dump(reply, outbox, pickle.HIGHEST_PROTOCOL)
        outbox.flush()


def _close_pipes(requests, replies) -> None:
    for pipe in (replies, requests):
        try:
            pipe.close()
        except OSError:  # a request still buffered for a worker that has exited
            pass


def _reap(pid: int, requests, replies) -> None:
    """Stop a momentum worker: close both pipes, so that it reads EOF, and wait for it to exit."""
    _close_pipes(requests, replies)
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:  # already reaped, as under SIGCHLD = SIG_IGN
        pass


class _MomentumWorker:
    """A forked copy of this process that runs the momentum stage of one Workspace.

    The child inherits the Workspace with its models, callables and
    :class:`MomentumStep`, so only the arrays the stage reads and its
    results cross the two pipes. ``stop`` reaps the child once: when a
    step fails, when ``advance`` ends, when another Workspace steps, when
    the Workspace is collected, or at interpreter exit.
    """

    def __init__(self, ws: Workspace):
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        # From Python 3.12 fork warns when the process has other threads, as
        # OpenBLAS's pool threads are. That fork is safe here: OpenBLAS stops
        # its pool before a fork (pthread_atfork) and starts a new one at its
        # next threaded call, and this package starts no thread whose locks
        # the child could inherit held.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded",
                                    DeprecationWarning)
            try:
                pid = os.fork()
            except OSError:
                for fd in (req_r, req_w, rep_r, rep_w):
                    os.close(fd)
                raise
        if pid == 0:
            # the worker leaves only through os._exit, so it runs none of the
            # parent's exit handlers and flushes none of the stdio buffers it inherited
            try:
                os.close(req_w)
                os.close(rep_r)
                _serve(ws, os.fdopen(req_r, "rb"), os.fdopen(rep_w, "wb"))
            finally:
                os._exit(0)
        os.close(req_r)
        os.close(rep_w)
        self.pid = pid
        self.ws = weakref.ref(ws)
        self.requests = os.fdopen(req_w, "wb")
        self.replies = os.fdopen(rep_r, "rb")
        self.stop = weakref.finalize(ws, _reap, pid, self.requests, self.replies)

    def send(self, u, v, theta, t_new: float, config: SolverConfig) -> None:
        try:
            pickle.dump((u, v, theta, t_new, config), self.requests, pickle.HIGHEST_PROTOCOL)
            self.requests.flush()
        except BrokenPipeError:  # the worker has exited; receive reports it
            pass

    def receive(self, t_new: float):
        try:
            reply = pickle.load(self.replies)
        except (EOFError, pickle.UnpicklingError):
            raise SolverError(f"momentum step at t={t_new:.6g}: the worker process exited") from None
        if isinstance(reply, Exception):
            raise reply
        return reply


_worker: _MomentumWorker | None = None  # the one live momentum worker of this interpreter


def _worker_for(ws: Workspace) -> _MomentumWorker | None:
    """ws's momentum worker, forked after stopping any other one; None without os.fork."""
    global _worker
    if not hasattr(os, "fork"):
        return None
    if _worker is not None and _worker.ws() is ws:
        return _worker
    _stop_worker()
    _worker = _MomentumWorker(ws)
    return _worker


def _stop_worker() -> None:
    global _worker
    if _worker is not None:
        _worker.stop()
        _worker = None


def _forget_worker() -> None:
    """In a process forked from this one, close its copies of the live worker's pipes.

    A fork that kept them, such as a multiprocessing pool started while a
    worker is alive, would keep the worker from reading EOF, and ``_reap``
    in this process waiting for it, until that fork exits.
    """
    global _worker
    if _worker is not None:
        _worker.stop.detach()
        _close_pipes(_worker.requests, _worker.replies)
        _worker = None


if hasattr(os, "fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def advance_one(ws: Workspace) -> SystemState:
    """One grid step: temperature, then potential, with the velocity solved alongside.

    Where ``os.fork`` exists the momentum stage runs in the Workspace's
    worker process, forked at its first step. Errors keep the order of
    the stages: a temperature or electric error is raised before a
    momentum one. Any error stops the worker.
    """
    n_new = len(ws.states)
    t_new = n_new * ws.config.dt
    old = ws.states[-1]
    delayed = ws.states[max(n_new - ws.config.delay_steps, 0)]
    job = (old.u, old.v, delayed.theta, t_new)

    try:
        worker = _worker_for(ws)
        if worker is not None:
            worker.send(*job, ws.config)
        theta_new = solve_temperature_step(ws, old, delayed, t_new)
        phi_new = solve_electric(ws, theta_new, t_new)
        if worker is not None:
            v_new, u_new, xi_new, info = worker.receive(t_new)
        else:
            v_new, u_new, xi_new, info = _solve_momentum(ws, *job)
    except BaseException:
        _stop_worker()
        raise

    ws.momentum_info.append(info)
    state = SystemState(t=t_new, u=u_new, v=v_new, theta=theta_new, phi=phi_new, xi=xi_new)
    ws.states.append(state)
    return state


def advance(ws: Workspace) -> list[SystemState]:
    """Run the staggered loop to the horizon; returns the full trajectory.

    The momentum worker is stopped when the loop returns or raises.
    """
    try:
        while len(ws.states) - 1 < ws.config.n_steps:
            advance_one(ws)
    finally:
        _stop_worker()
    return ws.states


@dataclass
class CascadeReport:
    """Cauchy differences between consecutive delay levels on a fixed grid."""

    levels: list[float]
    theta_cauchy: list[float]
    phi_cauchy: list[float]
    v_cauchy: list[float]
    regularizer: list[float]


def run_cascade(models: Models, config: SolverConfig) -> CascadeReport:
    """Solve once per delay level and measure inter-level differences.

    Levels share T and dt, so trajectories live on one grid and differences
    are exact. Temperature differences are measured in the time-integrated
    mass norm, potential differences in the gradient norm, velocities in the
    elasticity energy norm (left-rectangle time quadrature). Each level
    also reports the dual-norm size of its regularizer contribution,
    h (sum dt |theta|_U^4)^(3/4), which must shrink as the delay is refined.
    """
    levels = list(config.cascade_levels)
    if not levels:
        raise ConfigError("cascade requires at least one level")
    config.validate()

    mesh, dofs = models.mesh, models.dofs
    free = dofs.scalar_free_nodes
    vfree = dofs.vector_free_dofs()
    stiff = assemble_scalar_stiffness_unit(mesh, dofs)
    dt = config.dt

    trajectories = []
    regularizer = []
    for lev in levels:
        ws = initialize(models, dataclasses.replace(config, h=lev, cascade_levels=()))
        states = advance(ws)
        theta = np.stack([s.theta[free] for s in states])
        phi = np.stack([s.phi[free] for s in states])
        vel = np.stack([s.v[vfree] for s in states])
        trajectories.append((theta, phi, vel))
        quartic = sum(dt * u_norm4(mesh, s.theta) for s in states[:-1])
        regularizer.append(lev * quartic ** 0.75)

    def cauchy(a, b, matrix):
        diff = a - b
        total = sum(dt * float(d @ (matrix @ d)) for d in diff[:-1])
        return float(np.sqrt(total))

    # the operators of the norms do not depend on the delay
    mass, vstiff = ws.mass_thermal, ws.momentum.elast
    theta_cauchy, phi_cauchy, v_cauchy = [], [], []
    for (ta, pa, va), (tb, pb, vb) in zip(trajectories, trajectories[1:]):
        theta_cauchy.append(cauchy(ta, tb, mass))
        phi_cauchy.append(cauchy(pa, pb, stiff))
        v_cauchy.append(cauchy(va, vb, vstiff))

    return CascadeReport(levels=levels, theta_cauchy=theta_cauchy,
                         phi_cauchy=phi_cauchy, v_cauchy=v_cauchy,
                         regularizer=regularizer)
