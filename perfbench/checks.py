"""Checks on the outputs of every benchmark run.

They test properties every solution of the scheme has, never a stored copy
of an earlier output:

- every field is finite;
- temperature, potential, displacement and velocity are exactly zero at
  the nodes of ``D`` edges;
- the tangential traction stays within its cap, |xi| <= mu_bar F, at every
  contact node, and is zero away from the contact part;
- the discrete current balance (K_sigma(theta) + Robin)(phi + phi_b) = 0
  holds on free rows. The operator is assembled here, element by element
  and edge by edge, without ``thermocontact.assembly``;
- for the CLI, ``phi_v <= potential_bound`` on every diagnostics row, and
  the cascade's Cauchy differences and regularizer majorant fall from
  level to level.

Each check raises ``OutputError`` naming what failed.
"""

from __future__ import annotations

import os

import numpy as np

GAUSS2 = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
BALANCE_RTOL = 1e-9
CAP_RTOL = 1e-12


class OutputError(AssertionError):
    """A program output violates a property of the method."""


def tagged_nodes(mesh, tag: str) -> np.ndarray:
    """Nodes of the boundary edges carrying the tag."""
    edges = [e for e, t in enumerate(mesh.edge_tags) if t == tag]
    return np.unique(mesh.boundary_edges[edges].ravel()) if edges else np.zeros(0, dtype=int)


def check_finite(fields: dict[str, np.ndarray]) -> None:
    for name, values in fields.items():
        if not np.all(np.isfinite(values)):
            raise OutputError(f"non-finite entries in {name}")


def check_dirichlet(mesh, fields: dict[str, np.ndarray]) -> None:
    """Scalar fields are (..., N), vector fields (..., 2N) interleaved."""
    held = tagged_nodes(mesh, "D")
    for name, values in fields.items():
        idx = held if values.shape[-1] == mesh.n_nodes else np.concatenate([2 * held, 2 * held + 1])
        if np.any(values[..., idx] != 0.0):
            raise OutputError(f"{name} is not zero on the D nodes")


def check_traction(mesh, fric, xi: np.ndarray, times: np.ndarray) -> None:
    """xi is (S, 2N), one row per state at the given times."""
    contact = tagged_nodes(mesh, "C")
    off = np.ones(mesh.n_nodes, dtype=bool)
    off[contact] = False
    nodal = xi.reshape(xi.shape[0], -1, 2)
    if np.any(nodal[:, off] != 0.0):
        raise OutputError("traction is nonzero away from the contact part")
    for row, t in zip(nodal, times):
        cap = fric.mu_bar * np.asarray(fric.F_field(mesh.nodes[contact], t), dtype=float)
        size = np.linalg.norm(row[contact], axis=1)
        if np.any(size > cap * (1.0 + CAP_RTOL)):
            raise OutputError(f"traction exceeds mu_bar F at t={t:.6g}: max {float(size.max())!r}")


def current_balance(mesh, mat, fric, bd, theta: np.ndarray, phi: np.ndarray, t: float) -> float:
    """Largest free-row residual of the current balance, relative to its scale.

    Same discretization as the solver: sigma at the three edge midpoints of
    each triangle, exchange coefficients at two Gauss points per edge.
    """
    nodes = mesh.nodes
    total = phi + np.asarray(bd.phi_b(nodes), dtype=float)
    res = np.zeros(mesh.n_nodes)
    scale = np.zeros(mesh.n_nodes)
    for tri in mesh.triangles:
        a, b, c = tri
        (xa, ya), (xb, yb), (xc, yc) = nodes[a], nodes[b], nodes[c]
        det = (xb - xa) * (yc - ya) - (xc - xa) * (yb - ya)
        grad = np.array([[yb - yc, yc - ya, ya - yb],
                         [xc - xb, xa - xc, xb - xa]]) / det
        mid = 0.5 * np.array([theta[a] + theta[b], theta[b] + theta[c], theta[c] + theta[a]])
        sigma = float(np.mean(mat.sigma_el(mid)))
        local = 0.5 * det * sigma * (grad.T @ grad)
        res[tri] += local @ total[tri]
        scale[tri] += np.abs(local) @ np.abs(total[tri])
    for (i, j), tag in zip(mesh.boundary_edges, mesh.edge_tags):
        if tag == "D":
            continue
        length = float(np.hypot(*(nodes[j] - nodes[i])))
        for g in GAUSS2:
            basis = np.array([1.0 - g, g])
            if tag == "N":
                coef = bd.H_N
            else:
                point = nodes[i] + g * (nodes[j] - nodes[i])
                coef = float(np.asarray(bd.H_C(fric.F_field(point[None, :], t))).ravel()[0])
            local = 0.5 * length * coef * np.outer(basis, basis)
            res[[i, j]] += local @ total[[i, j]]
            scale[[i, j]] += np.abs(local) @ np.abs(total[[i, j]])
    free = np.ones(mesh.n_nodes, dtype=bool)
    free[tagged_nodes(mesh, "D")] = False
    return float(np.abs(res[free]).max() / max(scale[free].max(), 1e-300))


def check_current_balance(models, theta, phi, t: float) -> None:
    rel = current_balance(models.mesh, models.mat, models.fric, models.bd, theta, phi, t)
    if not rel <= BALANCE_RTOL:
        raise OutputError(f"current balance residual {rel:.3e} at t={t:.6g} exceeds {BALANCE_RTOL}")


def check_trajectory(models, config, data: dict[str, np.ndarray]) -> None:
    """Library workloads: states.npz arrays t, theta, phi, u, v, xi."""
    t = data["t"]
    if t.shape != (config.n_steps + 1,) or np.any(np.abs(t - config.dt * np.arange(t.size)) > 1e-12):
        raise OutputError(f"expected {config.n_steps + 1} states on the dt grid, got {t.size}")
    fields = {name: data[name] for name in ("theta", "phi", "u", "v", "xi")}
    check_finite(fields)
    check_dirichlet(models.mesh, {k: fields[k] for k in ("theta", "phi", "u", "v")})
    check_traction(models.mesh, models.fric, fields["xi"], t)
    for i in (1, t.size // 2, t.size - 1):
        check_current_balance(models, fields["theta"][i], fields["phi"][i], float(t[i]))


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header and rows of a CSV written by the CLI (second line is a comment)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.atleast_2d(np.loadtxt(path, delimiter=",", comments="#", skiprows=1))


def check_cli_outputs(models, config, out_dir: str) -> int:
    """Check fields.csv, diagnostics.csv and cascade.csv; return the steps integrated."""
    mesh = models.mesh
    header, rows = read_csv(os.path.join(out_dir, "fields.csv"))
    col = {name: rows[:, k] for k, name in enumerate(header)}
    if rows.shape[0] != mesh.n_nodes or np.any(col["x0"] != mesh.nodes[:, 0]) \
            or np.any(col["x1"] != mesh.nodes[:, 1]):
        raise OutputError("fields.csv nodes do not match the configured mesh")
    pair = lambda a, b: np.column_stack([col[a], col[b]]).ravel()
    fields = {"theta": col["theta"], "phi": col["phi"], "u": pair("u0", "u1"),
              "v": pair("v0", "v1"), "xi": pair("xi0", "xi1")}
    check_finite(fields)
    check_dirichlet(mesh, {k: fields[k] for k in ("theta", "phi", "u", "v")})
    check_traction(mesh, models.fric, fields["xi"][None, :], np.array([config.T]))
    check_current_balance(models, fields["theta"], fields["phi"], config.T)

    header, diag = read_csv(os.path.join(out_dir, "diagnostics.csv"))
    check_finite({"diagnostics.csv": diag})
    if diag.shape[0] != config.n_steps + 1:
        raise OutputError(f"diagnostics.csv has {diag.shape[0]} rows, expected {config.n_steps + 1}")
    phi_v, bound = diag[:, header.index("phi_v")], diag[:, header.index("potential_bound")]
    if np.any(phi_v > bound):
        raise OutputError(f"phi_v exceeds potential_bound at t={diag[np.argmax(phi_v - bound), 0]:.6g}")

    header, cascade = read_csv(os.path.join(out_dir, "cascade.csv"))
    if list(cascade[:, header.index("h")]) != list(config.cascade_levels):
        raise OutputError("cascade.csv levels differ from solver.cascade_levels")
    for name in ("theta_cauchy", "phi_cauchy", "v_cauchy", "regularizer"):
        # a Cauchy difference needs a coarser level, so the first row has none
        values = cascade[:, header.index(name)][0 if name == "regularizer" else 1:]
        check_finite({name: values})
        if np.any(np.diff(values) >= 0.0):
            raise OutputError(f"cascade {name} does not fall from level to level: {values}")
    return config.n_steps * (1 + cascade.shape[0])
