"""P1 finite-element assembly for every operator of the coupled system.

Conventions
-----------
Scalar and vector fields are passed as full nodal arrays (length N, or 2N
interleaved (x, y)); entries at Dirichlet nodes are part of the data (zero
for unknowns, boundary values for the ambient potential interpolant).
Assembled matrices are restricted to free dofs; load vectors are returned
on free dofs.

Quadrature is the 3-point midpoint rule on triangles and 2-point Gauss on
edges: exact for every constant-coefficient P1 form that appears here;
temperature-dependent coefficients are evaluated at the quadrature points
through the P1 interpolant. Positive weights keep the discrete energy
arguments (coercivity, the potential bound) valid verbatim.

The ambient potential phi_b enters every operator only through its nodal
interpolant, so the shifted unknown, the load terms, and the diagnostic
constant all see the same function.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .materials import BoundaryData, FrictionModel, MaterialModel
from .mesh import (
    EDGE_MASS,
    DofMap,
    Mesh,
    _scalar_stiffness_full,
    triangle_geometry,
)

# values of the three local basis functions at the three midpoint
# quadrature points (m01, m12, m20); row = point, column = basis
MIDPOINT_BASIS = np.array([
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
])

GAUSS2 = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


@dataclass
class ScalarField:
    """Nodal coefficients of a scalar unknown, with its time stamp."""

    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite scalar field")


def _vals(f) -> np.ndarray:
    return np.asarray(getattr(f, "values", f), dtype=float)


@dataclass
class AssembledOperator:
    """Sparse operator on free dofs, with an optional affine load part."""

    matrix: sp.csr_matrix
    load: np.ndarray | None = None

    def check_symmetric(self, tol: float = 1e-12) -> None:
        d = self.matrix - self.matrix.T
        worst = 0.0 if d.nnz == 0 else float(np.abs(d.data).max())
        if worst > tol:
            raise AssertionError(f"operator not symmetric: max deviation {worst:.3e}")


def _geometry(mesh: Mesh):
    areas, grads = triangle_geometry(mesh)
    return mesh.triangles, areas, grads


def _scatter(mesh: Mesh, elem: np.ndarray) -> sp.csr_matrix:
    """Sum (T, 3, 3) element matrices into the full (N, N) sparse matrix."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return sp.csr_matrix((elem.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes))


def _scatter_vector(mesh: Mesh, elem: np.ndarray) -> sp.csr_matrix:
    """Sum (T, 6, 6) element blocks into the full (2N, 2N) sparse matrix."""
    tri = mesh.triangles
    dofs = np.empty((tri.shape[0], 6), dtype=np.int64)
    dofs[:, 0::2] = 2 * tri
    dofs[:, 1::2] = 2 * tri + 1
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    n2 = 2 * mesh.n_nodes
    return sp.csr_matrix((elem.ravel(), (rows, cols)), shape=(n2, n2))


def phi_b_nodal(mesh: Mesh, bd: BoundaryData) -> np.ndarray:
    """Nodal interpolant of the ambient potential extension."""
    return np.asarray(bd.phi_b(mesh.nodes), dtype=float)


def theta_at_quadrature(mesh: Mesh, theta: np.ndarray) -> np.ndarray:
    """(T, 3) field values at the triangle quadrature points."""
    return theta[mesh.triangles] @ MIDPOINT_BASIS.T


# ---------------------------------------------------------------------------
# volume matrices


def scalar_mass_full(mesh: Mesh) -> sp.csr_matrix:
    _, areas, _ = _geometry(mesh)
    local = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    return _scatter(mesh, areas[:, None, None] * local[None])


def vector_mass_full(mesh: Mesh) -> sp.csr_matrix:
    return sp.kron(scalar_mass_full(mesh), sp.eye(2), format="csr")


def scalar_stiffness_unit_full(mesh: Mesh) -> sp.csr_matrix:
    """Unit-coefficient gradient form; the discrete V-norm matrix."""
    return _scalar_stiffness_full(mesh)


def vector_stiffness_componentwise_full(mesh: Mesh) -> sp.csr_matrix:
    """Componentwise gradient form; the discrete E-norm matrix."""
    return sp.kron(_scalar_stiffness_full(mesh), sp.eye(2), format="csr")


def assemble_scalar_mass(mesh: Mesh, dofs: DofMap) -> AssembledOperator:
    return AssembledOperator(dofs.restrict_scalar(scalar_mass_full(mesh)))


def assemble_vector_mass(mesh: Mesh, dofs: DofMap) -> AssembledOperator:
    return AssembledOperator(dofs.restrict_vector(vector_mass_full(mesh)))


def _weighted_stiffness_full(mesh: Mesh, kq: np.ndarray) -> sp.csr_matrix:
    """Gradient form with a (T, 3, 2, 2) coefficient matrix per quad point.

    Entry [test a, trial b] integrates grad(a)^T k^T grad(b).
    """
    _, areas, grads = _geometry(mesh)
    elem = np.einsum("t,tqji,tia,tjb->tab", areas / 3.0, kq, grads, grads)
    return _scatter(mesh, elem)


def thermal_stiffness_full(mesh: Mesh, mat: MaterialModel, theta_eval) -> sp.csr_matrix:
    theta = _vals(theta_eval)
    tq = theta_at_quadrature(mesh, theta)
    kq = np.empty((tq.shape[0], 3, 2, 2))
    for t in range(tq.shape[0]):
        for q in range(3):
            kq[t, q] = np.asarray(mat.k(tq[t, q]), dtype=float)
    return _weighted_stiffness_full(mesh, kq)


def assemble_thermal_stiffness(mesh: Mesh, dofs: DofMap, mat: MaterialModel, theta_eval) -> AssembledOperator:
    """Conductivity form with k evaluated at the given temperature field."""
    return AssembledOperator(dofs.restrict_scalar(thermal_stiffness_full(mesh, mat, theta_eval)))


def _sigma_stiffness_full(mesh: Mesh, mat: MaterialModel, theta) -> sp.csr_matrix:
    tq = theta_at_quadrature(mesh, _vals(theta))
    sq = np.asarray(mat.sigma_el(tq), dtype=float)
    kq = sq[:, :, None, None] * np.eye(2)[None, None]
    return _weighted_stiffness_full(mesh, kq)


# ---------------------------------------------------------------------------
# boundary matrices


def _robin_mass_full(mesh: Mesh, coeff_n: float, coeff_c, fric: FrictionModel | None, t: float) -> sp.csr_matrix:
    """Boundary mass with constant weight on N edges and coeff_c(F(x, t)) on C edges."""
    n = mesh.n_nodes
    rows, cols, vals = [], [], []
    lengths = mesh.edge_lengths()
    for e in range(mesh.boundary_edges.shape[0]):
        tag = mesh.edge_tags[e]
        if tag == "D":
            continue
        i, j = mesh.boundary_edges[e]
        if tag == "N":
            loc = coeff_n * lengths[e] * EDGE_MASS
        else:
            a, b = mesh.nodes[i], mesh.nodes[j]
            loc = np.zeros((2, 2))
            for g in GAUSS2:
                x = a + g * (b - a)
                fv = float(np.asarray(fric.F_field(x[None, :], t)).ravel()[0]) if fric is not None else 0.0
                w = float(np.asarray(coeff_c(fv)))
                basis = np.array([1.0 - g, g])
                loc += w * 0.5 * lengths[e] * np.outer(basis, basis)
        for aa, ga in enumerate((i, j)):
            for bb, gb in enumerate((i, j)):
                rows.append(ga)
                cols.append(gb)
                vals.append(loc[aa, bb])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def assemble_thermal_robin(mesh: Mesh, dofs: DofMap, bd: BoundaryData,
                           fric: FrictionModel | None = None, t: float = 0.0) -> AssembledOperator:
    """Heat exchange boundary mass: h_N on the N part, h_C(F) on the C part."""
    full = _robin_mass_full(mesh, bd.h_N, bd.h_C, fric, t)
    return AssembledOperator(dofs.restrict_scalar(full))


def assemble_electric_system(mesh: Mesh, dofs: DofMap, mat: MaterialModel, bd: BoundaryData,
                             theta, fric: FrictionModel | None = None, t: float = 0.0) -> AssembledOperator:
    """Matrix and load of the current conservation law in the shifted unknown.

    Matrix = sigma_el(theta)-weighted stiffness + H_N / H_C(F) boundary mass;
    load = -(that same full operator applied to the phi_b interpolant). A free
    solution phi of matrix @ phi = load makes the total potential
    phi + phi_b satisfy the discrete balance.
    """
    full = _sigma_stiffness_full(mesh, mat, theta) + _robin_mass_full(mesh, bd.H_N, bd.H_C, fric, t)
    phib = phi_b_nodal(mesh, bd)
    load = -(full @ phib)[dofs.scalar_free_nodes]
    return AssembledOperator(dofs.restrict_scalar(full), load)


# ---------------------------------------------------------------------------
# heat sources


def assemble_joule_load_direct(mesh: Mesh, dofs: DofMap, mat: MaterialModel, bd: BoundaryData,
                               theta_del, phi_del) -> np.ndarray:
    """sigma_el(theta) |grad(phi + phi_b)|^2 tested against scalar basis functions.

    Pointwise nonnegative integrand; entries are nonnegative up to roundoff.
    """
    theta = _vals(theta_del)
    phi_tot = _vals(phi_del) + phi_b_nodal(mesh, bd)
    tri, areas, grads = _geometry(mesh)
    g = np.einsum("ta,tia->ti", phi_tot[tri], grads)
    c = np.einsum("ti,ti->t", g, g)
    sq = np.asarray(mat.sigma_el(theta_at_quadrature(mesh, theta)), dtype=float)
    elem = (areas / 3.0)[:, None] * c[:, None] * (sq @ MIDPOINT_BASIS)
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, tri.ravel(), elem.ravel())
    return out[dofs.scalar_free_nodes]


def assemble_joule_load_reformulated(mesh: Mesh, dofs: DofMap, mat: MaterialModel, bd: BoundaryData,
                                     theta_del, phi_del,
                                     fric: FrictionModel | None = None, t: float = 0.0) -> np.ndarray:
    """Integration-by-parts form of the Joule source.

    Valid when phi_del solves the discrete current balance at theta_del; the
    continuum identity trades the squared-gradient integrand for gradient
    cross terms plus boundary corrections, so the discrete gap against the
    direct form is a consistency diagnostic.
    """
    theta = _vals(theta_del)
    phi = _vals(phi_del)
    phib = phi_b_nodal(mesh, bd)
    tri, areas, grads = _geometry(mesh)

    sq = np.asarray(mat.sigma_el(theta_at_quadrature(mesh, theta)), dtype=float)  # (T, 3)
    g_phi = np.einsum("ta,tia->ti", phi[tri], grads)
    g_phib = np.einsum("ta,tia->ti", phib[tri], grads)
    phi_q = phi[tri] @ MIDPOINT_BASIS.T  # (T, 3) values at quad points

    out = np.zeros(mesh.n_nodes)

    # + sigma (grad phi . grad phi_b) w  and  + sigma |grad phi_b|^2 w
    cross = np.einsum("ti,ti->t", g_phi, g_phib) + np.einsum("ti,ti->t", g_phib, g_phib)
    elem = (areas / 3.0)[:, None] * cross[:, None] * (sq @ MIDPOINT_BASIS)
    np.add.at(out, tri.ravel(), elem.ravel())

    # - sigma phi (grad phi + grad phi_b) . grad w
    gsum = g_phi + g_phib
    dirw = np.einsum("ti,tia->ta", gsum, grads)  # (T, 3): (grad phi + grad phi_b) . grad w_a
    coeff = (areas / 3.0) * np.einsum("tq,tq->t", sq, phi_q)
    elem = -coeff[:, None] * dirw
    np.add.at(out, tri.ravel(), elem.ravel())

    # boundary: - H (phi^2 + phi phi_b) w on the N and C parts
    lengths = mesh.edge_lengths()
    for e in range(mesh.boundary_edges.shape[0]):
        tag = mesh.edge_tags[e]
        if tag == "D":
            continue
        i, j = mesh.boundary_edges[e]
        a, b = mesh.nodes[i], mesh.nodes[j]
        for g in GAUSS2:
            x = a + g * (b - a)
            basis = np.array([1.0 - g, g])
            if tag == "N":
                coef = bd.H_N
            else:
                fv = float(np.asarray(fric.F_field(x[None, :], t)).ravel()[0]) if fric is not None else 0.0
                coef = float(np.asarray(bd.H_C(fv)))
            pv = basis @ phi[[i, j]]
            pbv = basis @ phib[[i, j]]
            w = 0.5 * lengths[e]
            out[[i, j]] -= coef * w * (pv * pv + pv * pbv) * basis
    return out[dofs.scalar_free_nodes]


def assemble_velocity_heat(mesh: Mesh, dofs: DofMap, mat: MaterialModel, v) -> np.ndarray:
    """Heat production of straining: -m_ij theta_ref dv_i/dx_j against w."""
    vv = _vals(v).reshape(-1, 2)
    tri, areas, grads = _geometry(mesh)
    v_loc = vv[tri]  # (T, 3, 2)
    gv = np.einsum("tai,tja->tij", v_loc, grads)  # dv_i/dx_j
    scal = np.einsum("ij,tij->t", mat.m_tensor, gv)
    elem = -(mat.theta_ref * scal * areas / 3.0)[:, None] * np.ones((1, 3))
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, tri.ravel(), elem.ravel())
    return out[dofs.scalar_free_nodes]


def assemble_thermal_coupling(mesh: Mesh, dofs: DofMap, mat: MaterialModel, theta) -> np.ndarray:
    """Thermal stress action: -m_ij theta d(eta_i)/dx_j against vector basis eta.

    Adjoint to the velocity-heat form up to the factor theta_ref.
    """
    th = _vals(theta)
    tri, areas, grads = _geometry(mesh)
    theta_bar = th[tri].mean(axis=1)  # exact mean over the element for P1
    mg = np.einsum("ij,tjb->tib", mat.m_tensor, grads)
    elem = -(areas * theta_bar)[:, None, None] * mg.transpose(0, 2, 1)  # (T, 3, 2): node b, comp i
    out = np.zeros(2 * mesh.n_nodes)
    idx = np.empty((tri.shape[0], 3, 2), dtype=np.int64)
    idx[:, :, 0] = 2 * tri
    idx[:, :, 1] = 2 * tri + 1
    np.add.at(out, idx.ravel(), elem.ravel())
    return out[dofs.vector_free_dofs()]


def assemble_frictional_heat(mesh: Mesh, dofs: DofMap, fric: FrictionModel, v_del, t: float = 0.0) -> np.ndarray:
    """Frictional heat source mu(|v_tau|) F |v_tau| on the contact part."""
    vv = _vals(v_del).reshape(-1, 2)
    out = np.zeros(mesh.n_nodes)
    lengths = mesh.edge_lengths()
    for e in mesh.edges_with_tag("C"):
        i, j = mesh.boundary_edges[e]
        a, b = mesh.nodes[i], mesh.nodes[j]
        nu = mesh.edge_normals[e]
        for g in GAUSS2:
            x = a + g * (b - a)
            basis = np.array([1.0 - g, g])
            vq = basis @ vv[[i, j]]
            vt = vq - (vq @ nu) * nu
            s = float(np.linalg.norm(vt))
            fv = float(np.asarray(fric.F_field(x[None, :], t)).ravel()[0])
            out[[i, j]] += float(fric.mu(s)) * fv * s * 0.5 * lengths[e] * basis
    return out[dofs.scalar_free_nodes]


# ---------------------------------------------------------------------------
# mechanics

# (id(mesh), id(mat)) -> weak references to both, then the two operators; a
# hit needs both references alive and pointing at the arguments, so an id
# that a freed mesh or material left behind never matches
_elastic_cache: dict[tuple[int, int], tuple[weakref.ref, weakref.ref, AssembledOperator, AssembledOperator]] = {}


def _tensor_stiffness_full(mesh: Mesh, tensor: np.ndarray) -> sp.csr_matrix:
    tri, areas, grads = _geometry(mesh)
    elem = np.einsum("t,ijkl,tla,tjb->tbiak", areas, tensor, grads, grads).reshape(-1, 6, 6)
    return _scatter_vector(mesh, elem)


def assemble_elastic_operators(mesh: Mesh, dofs: DofMap, mat: MaterialModel) -> tuple[AssembledOperator, AssembledOperator]:
    """Viscosity and elasticity gradient forms; cached per (mesh, material)."""
    key = (id(mesh), id(mat))
    entry = _elastic_cache.get(key)
    if entry is None or entry[0]() is not mesh or entry[1]() is not mat:
        a_op = AssembledOperator(dofs.restrict_vector(_tensor_stiffness_full(mesh, mat.a_tensor)))
        b_op = AssembledOperator(dofs.restrict_vector(_tensor_stiffness_full(mesh, mat.b_tensor)))
        entry = _elastic_cache[key] = (weakref.ref(mesh), weakref.ref(mat), a_op, b_op)
        for owner in (mesh, mat):
            weakref.finalize(owner, _elastic_cache.pop, key, None)
    return entry[2], entry[3]


def contact_vector_mass_full(mesh: Mesh) -> sp.csr_matrix:
    """Unprojected vector boundary mass on the C part (2N x 2N).

    Pairs a nodal traction field with vector test functions in the contact
    surface inner product.
    """
    n2 = 2 * mesh.n_nodes
    rows, cols, vals = [], [], []
    lengths = mesh.edge_lengths()
    for e in mesh.edges_with_tag("C"):
        i, j = mesh.boundary_edges[e]
        loc = np.kron(lengths[e] * EDGE_MASS, np.eye(2))
        dof = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
        for aa in range(4):
            for bb in range(4):
                rows.append(dof[aa])
                cols.append(dof[bb])
                vals.append(loc[aa, bb])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n2, n2))


def contact_lumped_weights(mesh: Mesh, dofs: DofMap) -> np.ndarray:
    """Row sums of the scalar contact boundary mass at the contact nodes.

    Positive quadrature weights for nodal inner products on the contact part.
    """
    n = mesh.n_nodes
    w = np.zeros(n)
    lengths = mesh.edge_lengths()
    for e in mesh.edges_with_tag("C"):
        i, j = mesh.boundary_edges[e]
        w[i] += 0.5 * lengths[e]
        w[j] += 0.5 * lengths[e]
    return w[dofs.contact_nodes]


def assemble_mech_load(mesh: Mesh, dofs: DofMap, bd: BoundaryData, fric: FrictionModel, t: float = 0.0) -> np.ndarray:
    """Body force + surface traction - prescribed normal contact traction."""
    tri, areas, grads = _geometry(mesh)
    out = np.zeros(2 * mesh.n_nodes)

    # volume: f_0 . eta with the midpoint rule
    pts = mesh.nodes[tri].transpose(1, 0, 2)  # (3, T, 2) corner positions
    for q in range(3):
        qp = (MIDPOINT_BASIS[q][:, None, None] * pts).sum(axis=0)  # (T, 2)
        f0 = np.asarray(bd.f_0(qp, t), dtype=float)  # (T, 2)
        for a in range(3):
            wgt = (areas / 3.0) * MIDPOINT_BASIS[q, a]
            np.add.at(out, 2 * tri[:, a], wgt * f0[:, 0])
            np.add.at(out, 2 * tri[:, a] + 1, wgt * f0[:, 1])

    lengths = mesh.edge_lengths()
    for e in range(mesh.boundary_edges.shape[0]):
        tag = mesh.edge_tags[e]
        if tag == "D":
            continue
        i, j = mesh.boundary_edges[e]
        a, b = mesh.nodes[i], mesh.nodes[j]
        nu = mesh.edge_normals[e]
        for g in GAUSS2:
            x = a + g * (b - a)
            basis = np.array([1.0 - g, g])
            w = 0.5 * lengths[e]
            if tag == "N":
                f2 = np.asarray(bd.f_2(x[None, :], t), dtype=float).ravel()
                for loc, node in enumerate((i, j)):
                    out[2 * node] += w * basis[loc] * f2[0]
                    out[2 * node + 1] += w * basis[loc] * f2[1]
            else:  # contact: -F eta_nu
                fv = float(np.asarray(fric.F_field(x[None, :], t)).ravel()[0])
                for loc, node in enumerate((i, j)):
                    out[2 * node] -= w * basis[loc] * fv * nu[0]
                    out[2 * node + 1] -= w * basis[loc] * fv * nu[1]
    return out[dofs.vector_free_dofs()]


# ---------------------------------------------------------------------------
# 4-Laplacian regularizer


def assemble_p_laplacian(mesh: Mesh, dofs: DofMap, theta) -> tuple[np.ndarray, sp.csr_matrix]:
    """Residual and exact Jacobian of the |grad|^2-weighted gradient form.

    P1 gradients are piecewise constant, so per element the residual is
    area * G^T (|g|^2 g) and the Jacobian block is
    area * G^T (|g|^2 I + 2 g g^T) G with g the element gradient; no
    quadrature error enters.
    """
    th = _vals(theta)
    tri, areas, grads = _geometry(mesh)
    g = np.einsum("ta,tia->ti", th[tri], grads)
    g2 = np.einsum("ti,ti->t", g, g)
    res_elem = areas[:, None] * np.einsum("ti,tia->ta", g2[:, None] * g, grads)
    out = np.zeros(mesh.n_nodes)
    np.add.at(out, tri.ravel(), res_elem.ravel())

    jac_core = g2[:, None, None] * np.eye(2)[None] + 2.0 * np.einsum("ti,tj->tij", g, g)
    elem = areas[:, None, None] * np.einsum("tia,tij,tjb->tab", grads, jac_core, grads)
    jac = _scatter(mesh, elem)
    return out[dofs.scalar_free_nodes], dofs.restrict_scalar(jac)


def u_norm4(mesh: Mesh, theta) -> float:
    """Fourth power of the gradient-L4 norm, exact for P1 fields."""
    th = _vals(theta)
    tri, areas, grads = _geometry(mesh)
    g = np.einsum("ta,tia->ti", th[tri], grads)
    g2 = np.einsum("ti,ti->t", g, g)
    return float(np.sum(areas * g2 * g2))


def basis_u_norms(mesh: Mesh, dofs: DofMap) -> np.ndarray:
    """Gradient-L4 norm of each free scalar basis function."""
    tri, areas, grads = _geometry(mesh)
    acc = np.zeros(mesh.n_nodes)
    g2 = np.einsum("tia,tia->ta", grads, grads)
    np.add.at(acc, tri.ravel(), (areas[:, None] * g2 * g2).ravel())
    return acc[dofs.scalar_free_nodes] ** 0.25
