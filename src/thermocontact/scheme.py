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

The states are all that carries from one step to the next: each scalar
stage call factors its own matrices and drops the factors when it returns.

The delay also decouples the stages across steps. With d = delay_steps,
temperature step n reads the temperature of step n - 1 and the state of
step n - d; the potential of step n reads only the temperature of step n;
and momentum step n reads the displacement and velocity of step n - 1 and
the temperature of step n - d. So nothing reads the potential or velocity
of step n before temperature step n + d. Where ``os.fork`` exists,
``advance`` forks one worker process for its loop: the parent solves every
temperature step and sends each temperature to the worker, which solves
momentum step n while the parent solves temperature n, and the potential
of step n once that temperature arrives; the parent waits only for the
delayed state. The states and the error raised are the same, bit for bit,
as when the three stages run one after the other, which is how
``advance_one`` runs them when it is given no worker.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import signal
import threading
import warnings
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
from .mesh import BandCholesky, BandLayout, BandLU, DofMap, Mesh, factor_banded

JOULE_MODES = ("direct", "reformulated")

# CG iterations a temperature Newton correction may take on the factor of
# an earlier correction of its step before the stage refactors. One banded
# Cholesky factorization of the scalar matrix costs about 3.4 iterations at
# n=32 (0.27 ms against 0.08 ms) and 8 at n=64 (2.1 against 0.27 ms),
# in-process loops on a 2-vCPU VM. Over a 40-step 32x32 contact run, where
# 41 of the 131 scalar solves are potential solves and factor anyway, a cap
# of 4 made 51 temperature factorizations and 162 iterations, 8 made 41 and
# 212, and 12 made 40 and 218: about equal in time.
CG_MAX_ITER = 8
CG_RTOL = 1e-14

# Longest time grid a run may take: it bounds the step loop, as from a
# mistyped T, and the F_field calls of the A5 check (one per grid time). It
# does not bound memory: a run keeps every state, 7.7 kB a step at n=8 and
# 97.7 kB at n=32, which check_history_fits weighs against physical memory.
MAX_STEPS = 10**6

# Bytes the worker's reply pipe asks to hold (see _StageWorker)
REPLY_PIPE_BYTES = 1 << 20


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
        if self.n_steps > MAX_STEPS:
            raise ConfigError(f"time grid has {self.n_steps:.7g} steps, more than {MAX_STEPS}, "
                              f"got dt={self.dt}, T={self.T}")
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


def _direct_solve(stage: str, matrix: sp.csr_matrix, b: np.ndarray, t: float,
                  layout: BandLayout) -> tuple[BandCholesky | BandLU, np.ndarray]:
    """Factor matrix on its pattern's band layout and solve; (factor, x)."""
    try:
        factor = factor_banded(matrix, layout)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{stage} solve at t={t:.6g}: {exc}") from None
    x = factor.solve(b)
    if not np.all(np.isfinite(x)):
        raise SolverError(f"{stage} solve at t={t:.6g}: non-finite solution "
                          "(non-finite matrix or load?)")
    return factor, x


def _cg(factor: BandCholesky | BandLU, matrix: sp.csr_matrix, b: np.ndarray) -> np.ndarray | None:
    """CG preconditioned with factor, from factor.solve(b); None if it needs over CG_MAX_ITER steps.

    It stops once the true residual meets the normwise backward error bound
    |b - A x| <= CG_RTOL (|A|_inf |x| + |b|) (Rigal and Gaches; Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 7.1),
    about what a direct solve reaches in roundoff at any mesh size; a bound
    on |b| alone is out of reach once n >= 48.
    """
    # |A|_inf bounds |A|_2 for a symmetric A; every row of a free-dof
    # pattern holds its diagonal entry, so no row is empty
    norm_a = float(np.add.reduceat(np.abs(matrix.data), matrix.indptr[:-1]).max())
    norm_b = float(np.linalg.norm(b))
    x = factor.solve(b)
    r = b - matrix @ x
    for it in range(CG_MAX_ITER + 1):
        if float(np.linalg.norm(r)) <= CG_RTOL * (norm_a * float(np.linalg.norm(x)) + norm_b):
            return x
        if it == CG_MAX_ITER:
            break
        z = factor.solve(r)
        rz_new = float(r @ z)
        p = z if it == 0 else z + (rz_new / rz) * p
        rz = rz_new
        x = x + (rz / float(p @ (matrix @ p))) * p
        r = b - matrix @ x
    return None


@dataclass
class Workspace:
    """One run: its inputs, its state history and the operators constant along it.

    ``states[n]`` is the state at the grid time n dt; ``advance_one`` appends
    one and reads the delayed one from this list. ``momentum_info[n - 1]`` is
    the Newton info of the momentum stage of step n.
    """

    models: Models
    config: SolverConfig
    states: list[SystemState]
    mass_thermal: sp.csr_matrix
    momentum: MomentumStep
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


def check_history_fits(config: SolverConfig, n_nodes: int) -> None:
    """Raise ConfigError if the states of a run exceed physical memory, where os.sysconf reports it."""
    if not {"SC_PHYS_PAGES", "SC_PAGE_SIZE"} <= set(getattr(os, "sysconf_names", ())):
        return
    # each state holds 8 doubles a node: u, v and xi two each, theta and phi one
    need = (config.n_steps + 1) * 8 * n_nodes * 8
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise ConfigError(f"{config.n_steps + 1} states of {n_nodes} nodes need {need / 1e9:.3g} GB, "
                          f"more than the {memory / 1e9:.3g} GB of physical memory")


def initialize(models: Models, config: SolverConfig,
               u0: np.ndarray | None = None, v0: np.ndarray | None = None,
               theta0: np.ndarray | None = None) -> Workspace:
    """Validate the setup, factor the momentum step, solve the initial potential, seed the history."""
    config.validate()
    mesh, dofs = models.mesh, models.dofs
    n = mesh.n_nodes
    check_history_fits(config, n)
    dir_scalar = dofs.dirichlet_nodes
    dir_vector = np.concatenate([2 * dir_scalar, 2 * dir_scalar + 1]) if dir_scalar.size else dir_scalar
    theta0 = _check_initial_field("theta0", theta0, n, dir_scalar)
    u0 = _check_initial_field("u0", u0, 2 * n, dir_vector)
    v0 = _check_initial_field("v0", v0, 2 * n, dir_vector)

    step = MomentumStep(mesh, dofs, models.mat, RegularizedFriction(models.fric, config.eps),
                        models.bd, config.dt)
    ws = Workspace(models=models, config=config, states=[],
                   mass_thermal=assemble_scalar_mass(mesh, dofs), momentum=step)
    phi0 = solve_electric(ws, theta0, t=0.0)
    xi0 = contact_traction_full(step, v0[dofs.vector_free_dofs()],
                                models.fric.F_field(mesh.nodes[step.nodes], 0.0))
    ws.states.append(SystemState(t=0.0, u=u0, v=v0, theta=theta0, phi=phi0, xi=xi0))
    return ws


def solve_electric(ws: Workspace, theta_full: np.ndarray, t: float) -> np.ndarray:
    """Potential for a given temperature field: one direct SPD solve."""
    models = ws.models
    mesh, dofs = models.mesh, models.dofs
    matrix, load = assemble_electric_system(mesh, dofs, models.mat, models.bd, theta_full, models.fric, t)
    _, phi_free = _direct_solve("electric", matrix, load, t, dofs.scalar.layout)
    res = float(np.linalg.norm(matrix @ phi_free - load))
    if res > 1e-12 * (1.0 + float(np.linalg.norm(load))):
        raise SolverError(f"electric solve at t={t:.6g}: residual {res:.3e} (matrix near-singular?)")
    out = np.zeros(mesh.n_nodes)
    out[dofs.scalar_free_nodes] = phi_free
    return out


def solve_temperature_step(ws: Workspace, theta_old: np.ndarray, theta_del: np.ndarray,
                           phi_del: np.ndarray, v_del: np.ndarray, t_new: float) -> np.ndarray:
    """Implicit Euler temperature update from theta_old, with couplings at the delayed fields.

    The conductivity is frozen at the delayed temperature, the Joule, strain
    and friction heat sources are evaluated from the delayed temperature,
    potential and velocity, the heat exchange follows F(x, t_new), and the
    only nonlinearity left is the quartic gradient regularizer, handled by
    damped Newton with its exact Jacobian.

    Only the regularizer's Jacobian moves between corrections, so the later
    ones run CG (``_cg``) on the factor of the first; where CG reaches its
    cap the stage refactors on the current Jacobian. No factor outlives the call.
    """
    models, cfg = ws.models, ws.config
    mesh, dofs, mat = models.mesh, models.dofs, models.mat
    free = dofs.scalar_free_nodes
    dt = cfg.dt

    stiff = assemble_thermal_stiffness(mesh, dofs, mat, theta_del)
    robin = assemble_thermal_robin(mesh, dofs, models.bd, models.fric, t_new)
    if cfg.joule_mode == "direct":
        joule = assemble_joule_load_direct(mesh, dofs, mat, models.bd, theta_del, phi_del)
    else:
        joule = assemble_joule_load_reformulated(mesh, dofs, mat, models.bd,
                                                 theta_del, phi_del, models.fric, t_new)
    sources = (joule
               + assemble_velocity_heat(mesh, dofs, mat, v_del)
               + assemble_frictional_heat(mesh, dofs, models.fric, v_del, t_new))

    rho_cp = mat.mass_thermal()
    pattern = dofs.scalar  # every matrix here is on it, so they add as data arrays
    base = pattern.csr((rho_cp / dt) * ws.mass_thermal.data + stiff.data + robin.data)
    rhs = sources + (rho_cp / dt) * (ws.mass_thermal @ theta_old[free])
    c_reg = cfg.regularizer
    target = cfg.tol_temperature * (1.0 + float(np.linalg.norm(rhs)))

    def residual(theta_free):
        full = np.zeros(mesh.n_nodes)
        full[free] = theta_free
        pl_res, g = assemble_p_laplacian(mesh, dofs, full)
        return base @ theta_free + c_reg * pl_res - rhs, g

    held = [None]  # the factor of the last direct solve

    def correction(res, g):
        jac = pattern.csr(base.data + c_reg * assemble_p_laplacian_jacobian(dofs, g).data)
        if held[0] is not None:
            x = _cg(held[0], jac, -res)
            if x is not None:
                return x
            held[0] = None  # release the old factor before the new one is built
        held[0], x = _direct_solve("temperature", jac, -res, t_new, pattern.layout)
        return x

    theta, _, _ = damped_newton(residual, correction, theta_old[free], target,
                                cfg.max_iter_temperature, "temperature", t_new)
    out = np.zeros(mesh.n_nodes)
    out[free] = theta
    return out


def _momentum_step(ws: Workspace, n: int):
    """Momentum step n, from the u and v of state n - 1 and the temperature of state n - d."""
    old = ws.states[n - 1]
    delayed = ws.states[max(n - ws.config.delay_steps, 0)]
    return solve_momentum_step(ws, old.u, old.v, delayed.theta, n * ws.config.dt)


def _serve(ws: Workspace, inbox, outbox) -> None:
    """Body of a stage worker: the potential and momentum stages of the steps left in ws.

    The worker steps its own copy of ``ws.states``. For each step n it
    solves momentum step n, which reads only states n - 1 and n - d, while
    the parent solves temperature n; then it waits for that temperature,
    solves the potential and sends the (potential, momentum) pair of the
    step, either of them an exception. After an error it returns, since no
    later step has its state. Otherwise it appends state n and drops state
    n - d, which no later step reads, so it holds d states, not a second
    history. A thread moves the requests into a queue, so the parent's
    writes never wait for a stage here, whatever this process's own writes
    wait for. If the parent exits without killing the worker, the thread
    meets the end of the request pipe, which ends the worker.
    """
    import queue  # here, not at the top: the parent would pay 0.1 MB of peak RSS for it

    requests = queue.SimpleQueue()

    def read():
        try:
            while True:
                requests.put(pickle.load(inbox))
        except (EOFError, OSError, pickle.UnpicklingError):
            requests.put(None)

    threading.Thread(target=read, daemon=True).start()
    dt, d = ws.config.dt, ws.config.delay_steps
    for n in range(len(ws.states), ws.config.n_steps + 1):
        try:
            momentum = _momentum_step(ws, n)
        except Exception as exc:  # sent back and raised by the parent
            momentum = exc
        theta = requests.get()
        if theta is None:
            return
        try:
            phi = solve_electric(ws, theta, n * dt)
        except Exception as exc:
            phi = exc
        pickle.dump((phi, momentum), outbox, pickle.HIGHEST_PROTOCOL)
        outbox.flush()
        if isinstance(phi, Exception) or isinstance(momentum, Exception):
            return
        v, u, xi, _ = momentum
        ws.states.append(SystemState(t=n * dt, u=u, v=v, theta=theta, phi=phi, xi=xi))
        if n >= d:
            ws.states[n - d] = None


class _StageWorker:
    """A forked copy of this process that runs the potential and momentum stages of one Workspace.

    The child inherits the Workspace as it was at the fork, with its
    models, callables, config and :class:`MomentumStep`, factor included,
    so only the temperatures and the stages' results cross the two pipes;
    the child steps its own copy of the states (see :func:`_serve`).
    ``advance`` forks one for its loop and stops it when the loop returns or
    raises. This side keeps the temperatures of the steps past
    ``ws.states[-1]``, keyed by step, and moves a step into ``ws.states``
    with the worker's reply for it.
    """

    def __init__(self, ws: Workspace):
        self.theta: dict[int, np.ndarray] = {}
        req_r, req_w = os.pipe()
        try:
            rep_r, rep_w = os.pipe()
        except OSError:  # out of descriptors (EMFILE)
            os.close(req_r)
            os.close(req_w)
            raise
        # A pipe holds 64 kB by default, and one momentum reply at n=64 is
        # 203 kB, so the worker would wait at each one until the parent's
        # next call. Where Linux lets a pipe grow (to 1 MB for any user by
        # default), the replies of several steps fit. Every system with
        # os.fork has fcntl.
        import fcntl
        try:
            fcntl.fcntl(rep_w, fcntl.F_SETPIPE_SZ, REPLY_PIPE_BYTES)
        except (AttributeError, OSError):
            pass
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
        self.requests = os.fdopen(req_w, "wb")
        self.replies = os.fdopen(rep_r, "rb")

    def send(self, step: int, theta: np.ndarray) -> None:
        self.theta[step] = theta
        try:
            pickle.dump(theta, self.requests, pickle.HIGHEST_PROTOCOL)
            self.requests.flush()
        except BrokenPipeError:  # the worker has exited; complete reports it
            pass

    def complete(self, ws: Workspace, step: int) -> SystemState:
        """Receive replies until ``ws.states`` holds state step, and return it.

        The worker replies once per step, in step order, so the first error
        met is the error of the earliest step, and within a step a potential
        error comes before a momentum one.
        """
        dt = ws.config.dt
        while len(ws.states) <= step:
            n = len(ws.states)
            try:
                phi, result = pickle.load(self.replies)
            except (EOFError, pickle.UnpicklingError):
                raise SolverError(f"electric step at t={n * dt:.6g}: the worker process exited") from None
            for outcome in (phi, result):
                if isinstance(outcome, Exception):
                    raise outcome
            v, u, xi, info = result
            ws.momentum_info.append(info)
            ws.states.append(SystemState(t=n * dt, u=u, v=v, theta=self.theta.pop(n), phi=phi, xi=xi))
        return ws.states[step]

    def stop(self) -> None:
        """Kill the worker, wait for it and close both pipes.

        The worker holds nothing this process needs, and a kill, unlike an
        EOF on the request pipe, is not held up by a copy of that pipe in
        another process forked from this one.
        """
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):  # reaped already, as under SIGCHLD = SIG_IGN
            pass
        for pipe in (self.replies, self.requests):
            try:
                pipe.close()
            except OSError:  # a request still buffered for the killed worker
                pass


def advance_one(ws: Workspace, worker: _StageWorker | None = None) -> SystemState:
    """One grid step; returns the newest complete state.

    Without a worker the step solves temperature, then potential, then
    momentum, and appends its state. With one it waits only for the delayed
    state, solves the temperature and sends it to the worker, which solves
    the potential and momentum; the state completes when their results come
    back, at the latest in the call of the last step, which waits for all of
    them. Either way the error raised is the one the serial order meets
    first, and ``ws.states`` keeps the states completed before it.
    """
    dt, d = ws.config.dt, ws.config.delay_steps
    if worker is not None:
        n_new = len(ws.states) + len(worker.theta)
        delayed = worker.complete(ws, max(n_new - d, 0))
        theta_old = worker.theta.get(n_new - 1, ws.states[-1].theta)
        try:
            theta_new = solve_temperature_step(ws, theta_old, delayed.theta, delayed.phi, delayed.v,
                                               n_new * dt)
        except Exception:
            worker.complete(ws, n_new - 1)  # an error of an earlier step comes first
            raise
        worker.send(n_new, theta_new)
        if n_new == ws.config.n_steps:
            worker.complete(ws, n_new)
        return ws.states[-1]

    n_new = len(ws.states)
    t_new = n_new * dt
    delayed = ws.states[max(n_new - d, 0)]
    theta_new = solve_temperature_step(ws, ws.states[-1].theta, delayed.theta, delayed.phi, delayed.v, t_new)
    phi_new = solve_electric(ws, theta_new, t_new)
    v_new, u_new, xi_new, info = _momentum_step(ws, n_new)
    ws.momentum_info.append(info)
    state = SystemState(t=t_new, u=u_new, v=v_new, theta=theta_new, phi=phi_new, xi=xi_new)
    ws.states.append(state)
    return state


def advance(ws: Workspace) -> list[SystemState]:
    """Run the staggered loop to the horizon; returns the full trajectory.

    It makes one ``advance_one`` call per step left. Where ``os.fork``
    exists and steps remain, it forks one stage worker before the first
    call and stops it when the loop returns or raises.
    """
    remaining = ws.config.n_steps - (len(ws.states) - 1)
    worker = _StageWorker(ws) if hasattr(os, "fork") and remaining > 0 else None
    try:
        for _ in range(remaining):
            advance_one(ws, worker)
    finally:
        if worker is not None:
            worker.stop()
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
