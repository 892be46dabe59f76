"""P1 finite-element assembly for every operator of the coupled system.

Conventions
-----------
Scalar and vector fields are passed as full nodal arrays (length N, or 2N
interleaved (x, y)); entries at Dirichlet nodes are part of the data (zero
for unknowns, boundary values for the ambient potential interpolant).
Assembled matrices live on free dofs: element matrices are summed straight
into the fixed free-dof patterns of the DofMap (``dofs.scalar``,
``dofs.vector``), so every scalar operator shares one sparsity and every
vector operator another. Load vectors are returned on free dofs.

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

import numpy as np
import scipy.sparse as sp

from .materials import BoundaryData, FrictionModel, MaterialModel
from .mesh import (
    DofMap,
    EdgeQuadrature,
    Mesh,
    blocked,
    boundary_mass_local,
    edge_quadrature,
    scatter_load,
    unit_stiffness_local,
    xy_dofs,
)

# values of the three local basis functions at the three midpoint
# quadrature points (m01, m12, m20); row = point, column = basis
MIDPOINT_BASIS = np.array([
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
])
# P1 mass on the reference triangle, per unit area
MASS_LOCAL = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _on_points(fn, points: np.ndarray, *args) -> np.ndarray:
    """One call of a model callable on all points (..., 2); values shaped (...) + value shape."""
    vals = np.asarray(fn(points.reshape(-1, 2), *args), dtype=float)
    return vals.reshape(points.shape[:-1] + vals.shape[1:])


def phi_b_nodal(mesh: Mesh, bd: BoundaryData) -> np.ndarray:
    """Nodal interpolant of the ambient potential extension."""
    return np.asarray(bd.phi_b(mesh.nodes), dtype=float)


def theta_at_quadrature(mesh: Mesh, theta: np.ndarray) -> np.ndarray:
    """(T, 3) field values at the triangle quadrature points."""
    return theta[mesh.triangles] @ MIDPOINT_BASIS.T


# ---------------------------------------------------------------------------
# volume matrices


def _mass_local(mesh: Mesh) -> np.ndarray:
    return mesh.areas[:, None, None] * MASS_LOCAL


def h1_norm(mesh: Mesh, values: np.ndarray) -> float:
    """H1 norm (gradient and L2 parts) of a nodal field, Dirichlet entries included."""
    loc = values[mesh.triangles]
    local = unit_stiffness_local(mesh) + _mass_local(mesh)
    return float(np.sqrt(np.einsum("ta,tab,tb->", loc, local, loc)))


def assemble_scalar_stiffness_unit(mesh: Mesh, dofs: DofMap) -> sp.csr_matrix:
    """Unit-coefficient gradient form on free dofs; the discrete V-norm matrix."""
    return dofs.scalar.csr(dofs.scalar.sum_triangles(unit_stiffness_local(mesh)))


def assemble_scalar_mass(mesh: Mesh, dofs: DofMap) -> sp.csr_matrix:
    return dofs.scalar.csr(dofs.scalar.sum_triangles(_mass_local(mesh)))


def assemble_vector_mass(mesh: Mesh, dofs: DofMap) -> sp.csr_matrix:
    return dofs.vector.csr(dofs.vector.sum_triangles(blocked(_mass_local(mesh), np.eye(2))))


def _stiffness_local(mesh: Mesh, kq: np.ndarray) -> np.ndarray:
    """(T, 3, 3) gradient form with a (T, 3, 2, 2) coefficient matrix per quad point.

    Entry [test a, trial b] integrates grad(a)^T k^T grad(b): the quadrature
    mean of k^T, contracted against the mesh's gradient products.
    """
    kt = kq.sum(axis=1).transpose(0, 2, 1).reshape(-1, 4) / 3.0
    return np.einsum("tk,tkm->tm", kt, mesh.grad_products).reshape(-1, 3, 3)


def assemble_thermal_stiffness(mesh: Mesh, dofs: DofMap, mat: MaterialModel,
                               theta_eval: np.ndarray) -> sp.csr_matrix:
    """Conductivity form with k evaluated at the given temperature field."""
    tq = theta_at_quadrature(mesh, theta_eval)
    local = _stiffness_local(mesh, np.asarray(mat.k(tq), dtype=float))
    return dofs.scalar.csr(dofs.scalar.sum_triangles(local))


# ---------------------------------------------------------------------------
# boundary matrices


def _exchange_weights(quad: EdgeQuadrature, coeff_n: float, coeff_c, fric: FrictionModel | None,
                      t: float) -> np.ndarray:
    """(E, 2) exchange coefficient at the Gauss points: coeff_n on N edges, coeff_c(F(x, t)) on C edges."""
    contact = quad.tags == "C"
    points = quad.points[contact]
    F = np.zeros(points.shape[:-1]) if fric is None else _on_points(fric.F_field, points, t)
    coef = np.full(quad.weights.shape, float(coeff_n))
    coef[contact] = coeff_c(F)
    return coef


def _robin_local(mesh: Mesh, coeff_n: float, coeff_c, fric: FrictionModel | None,
                 t: float) -> tuple[EdgeQuadrature, np.ndarray]:
    """N/C-edge quadrature and its boundary masses, weight coeff_n on N edges and coeff_c(F(x, t)) on C edges."""
    quad = edge_quadrature(mesh, ("N", "C"))
    return quad, boundary_mass_local(quad, _exchange_weights(quad, coeff_n, coeff_c, fric, t))


def assemble_thermal_robin(mesh: Mesh, dofs: DofMap, bd: BoundaryData,
                           fric: FrictionModel | None = None, t: float = 0.0) -> sp.csr_matrix:
    """Heat exchange boundary mass: h_N on the N part, h_C(F(x, t)) on the C part."""
    quad, local = _robin_local(mesh, bd.h_N, bd.h_C, fric, t)
    return dofs.scalar.csr(dofs.scalar.sum_edges(quad, local))


def assemble_electric_system(mesh: Mesh, dofs: DofMap, mat: MaterialModel, bd: BoundaryData,
                             theta: np.ndarray, fric: FrictionModel | None = None,
                             t: float = 0.0) -> tuple[sp.csr_matrix, np.ndarray]:
    """Matrix and load of the current conservation law in the shifted unknown.

    Matrix = sigma_el(theta)-weighted stiffness + H_N / H_C(F) boundary mass;
    load = -(the same element and edge matrices applied to the phi_b
    interpolant), on all nodes of each element. A free solution phi of
    matrix @ phi = load makes the total potential phi + phi_b satisfy the
    discrete balance.
    """
    tri = mesh.triangles
    sq = np.asarray(mat.sigma_el(theta_at_quadrature(mesh, theta)), dtype=float)
    elem = _stiffness_local(mesh, sq[:, :, None, None] * np.eye(2))
    quad, edge = _robin_local(mesh, bd.H_N, bd.H_C, fric, t)
    phib = phi_b_nodal(mesh, bd)
    applied = (scatter_load(tri, np.einsum("tab,tb->ta", elem, phib[tri]), mesh.n_nodes)
               + scatter_load(quad.conn, np.einsum("eab,eb->ea", edge, phib[quad.conn]), mesh.n_nodes))
    p = dofs.scalar
    return p.csr(p.sum_triangles(elem) + p.sum_edges(quad, edge)), -applied[dofs.scalar_free_nodes]


# ---------------------------------------------------------------------------
# heat sources


def assemble_joule_load_direct(mesh: Mesh, dofs: DofMap, mat: MaterialModel, bd: BoundaryData,
                               theta_del: np.ndarray, phi_del: np.ndarray) -> np.ndarray:
    """sigma_el(theta) |grad(phi + phi_b)|^2 tested against scalar basis functions.

    Pointwise nonnegative integrand; entries are nonnegative up to roundoff.
    """
    phi_tot = phi_del + phi_b_nodal(mesh, bd)
    tri, areas, grads = mesh.triangles, mesh.areas, mesh.grads
    g = np.einsum("ta,tia->ti", phi_tot[tri], grads)
    c = np.einsum("ti,ti->t", g, g)
    sq = np.asarray(mat.sigma_el(theta_at_quadrature(mesh, theta_del)), dtype=float)
    elem = (areas / 3.0)[:, None] * c[:, None] * (sq @ MIDPOINT_BASIS)
    return scatter_load(tri, elem, mesh.n_nodes)[dofs.scalar_free_nodes]


def assemble_joule_load_reformulated(mesh: Mesh, dofs: DofMap, mat: MaterialModel, bd: BoundaryData,
                                     theta_del: np.ndarray, phi_del: np.ndarray,
                                     fric: FrictionModel | None = None, t: float = 0.0) -> np.ndarray:
    """Integration-by-parts form of the Joule source.

    Valid when phi_del solves the discrete current balance at theta_del; the
    continuum identity trades the squared-gradient integrand for gradient
    cross terms plus boundary corrections, so the discrete gap against the
    direct form is a consistency diagnostic.
    """
    phib = phi_b_nodal(mesh, bd)
    tri, areas, grads = mesh.triangles, mesh.areas, mesh.grads

    sq = np.asarray(mat.sigma_el(theta_at_quadrature(mesh, theta_del)), dtype=float)  # (T, 3)
    g_phi = np.einsum("ta,tia->ti", phi_del[tri], grads)
    g_phib = np.einsum("ta,tia->ti", phib[tri], grads)
    phi_q = phi_del[tri] @ MIDPOINT_BASIS.T  # (T, 3) values at quad points

    # + sigma (grad phi . grad phi_b) w  and  + sigma |grad phi_b|^2 w
    cross = np.einsum("ti,ti->t", g_phi, g_phib) + np.einsum("ti,ti->t", g_phib, g_phib)
    elem = (areas / 3.0)[:, None] * cross[:, None] * (sq @ MIDPOINT_BASIS)

    # - sigma phi (grad phi + grad phi_b) . grad w
    gsum = g_phi + g_phib
    dirw = np.einsum("ti,tia->ta", gsum, grads)  # (T, 3): (grad phi + grad phi_b) . grad w_a
    coeff = (areas / 3.0) * np.einsum("tq,tq->t", sq, phi_q)
    elem -= coeff[:, None] * dirw
    out = scatter_load(tri, elem, mesh.n_nodes)

    # boundary: - H (phi^2 + phi phi_b) w on the N and C parts
    quad = edge_quadrature(mesh, ("N", "C"))
    coef = _exchange_weights(quad, bd.H_N, bd.H_C, fric, t)
    pv, pbv = quad.interpolate(phi_del), quad.interpolate(phib)
    out -= scatter_load(quad.conn, quad.test(coef * (pv * pv + pv * pbv)), mesh.n_nodes)
    return out[dofs.scalar_free_nodes]


def assemble_velocity_heat(mesh: Mesh, dofs: DofMap, mat: MaterialModel, v: np.ndarray) -> np.ndarray:
    """Heat production of straining: -m_ij theta_ref dv_i/dx_j against w."""
    tri, areas, grads = mesh.triangles, mesh.areas, mesh.grads
    v_loc = v.reshape(-1, 2)[tri]  # (T, 3, 2)
    gv = np.einsum("tai,tja->tij", v_loc, grads)  # dv_i/dx_j
    scal = np.einsum("ij,tij->t", mat.m_tensor, gv)
    elem = -(mat.theta_ref * scal * areas / 3.0)[:, None] * np.ones((1, 3))
    return scatter_load(tri, elem, mesh.n_nodes)[dofs.scalar_free_nodes]


def assemble_thermal_coupling(mesh: Mesh, dofs: DofMap, mat: MaterialModel, theta: np.ndarray) -> np.ndarray:
    """Thermal stress action: -m_ij theta d(eta_i)/dx_j against vector basis eta.

    Adjoint to the velocity-heat form up to the factor theta_ref.
    """
    tri, areas, grads = mesh.triangles, mesh.areas, mesh.grads
    theta_bar = theta[tri].mean(axis=1)  # exact mean over the element for P1
    mg = np.einsum("ij,tjb->tib", mat.m_tensor, grads)
    elem = -(areas * theta_bar)[:, None, None] * mg.transpose(0, 2, 1)  # (T, 3, 2): node b, comp i
    return scatter_load(xy_dofs(tri), elem, 2 * mesh.n_nodes)[dofs.vector_free_dofs()]


def contact_slip(mesh: Mesh, fric: FrictionModel, v_full: np.ndarray, t: float):
    """Contact-edge quadrature with the slip rate |v_tau| and the traction F at its points.

    Returns (quad, slip, F), both arrays (E, 2); v_tau is the velocity
    interpolant minus its component along the edge normal.
    """
    quad = edge_quadrature(mesh, ("C",))
    vq = quad.interpolate(v_full.reshape(-1, 2))  # (E, 2, 2)
    nu = quad.normals[:, None, :]
    vt = vq - np.sum(vq * nu, axis=-1, keepdims=True) * nu
    return quad, np.linalg.norm(vt, axis=-1), _on_points(fric.F_field, quad.points, t)


def assemble_frictional_heat(mesh: Mesh, dofs: DofMap, fric: FrictionModel, v_del: np.ndarray,
                             t: float = 0.0) -> np.ndarray:
    """Frictional heat source mu(|v_tau|) F |v_tau| on the contact part."""
    quad, slip, F = contact_slip(mesh, fric, v_del, t)
    heat = np.asarray(fric.mu(slip), dtype=float) * F * slip
    return scatter_load(quad.conn, quad.test(heat), mesh.n_nodes)[dofs.scalar_free_nodes]


# ---------------------------------------------------------------------------
# mechanics


def _tensor_stiffness_local(mesh: Mesh, tensor: np.ndarray) -> np.ndarray:
    """(T, 6, 6) fourth-order-tensor gradient form on each triangle, interleaved (x, y) dofs.

    Entry [(b, i), (a, k)] integrates tensor[i, j, k, l] d(trial_k)/dx_l d(test_i)/dx_j.
    """
    products = mesh.grad_products.reshape(-1, 2, 2, 3, 3)
    return np.einsum("ijkl,tjlba->tbiak", tensor, products, optimize=True).reshape(-1, 6, 6)


def assemble_elastic_operators(mesh: Mesh, dofs: DofMap,
                               mat: MaterialModel) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Viscosity and elasticity gradient forms."""
    p = dofs.vector
    return (p.csr(p.sum_triangles(_tensor_stiffness_local(mesh, mat.a_tensor))),
            p.csr(p.sum_triangles(_tensor_stiffness_local(mesh, mat.b_tensor))))


def assemble_contact_mass(mesh: Mesh, dofs: DofMap) -> sp.csr_matrix:
    """Unprojected vector boundary mass on the C part, on free vector dofs.

    Pairs a nodal traction field with vector test functions in the contact
    surface inner product.
    """
    quad = edge_quadrature(mesh, ("C",))
    return dofs.vector.csr(dofs.vector.sum_edges(quad, boundary_mass_local(quad, block=np.eye(2))))


def assemble_mech_load(mesh: Mesh, dofs: DofMap, bd: BoundaryData, fric: FrictionModel, t: float = 0.0) -> np.ndarray:
    """Body force + surface traction - prescribed normal contact traction."""
    tri, areas = mesh.triangles, mesh.areas
    n2 = 2 * mesh.n_nodes

    # volume: f_0 . eta with the midpoint rule
    points = np.einsum("qa,tai->tqi", MIDPOINT_BASIS, mesh.nodes[tri])
    f0 = _on_points(bd.f_0, points, t)  # (T, 3, 2)
    volume = np.einsum("t,tqi,qa->tai", areas / 3.0, f0, MIDPOINT_BASIS)

    # boundary: f_2 . eta on the N part, -F eta_nu on the C part
    quad = edge_quadrature(mesh, ("N", "C"))
    contact = quad.tags == "C"
    traction = np.empty(quad.points.shape)
    traction[~contact] = _on_points(bd.f_2, quad.points[~contact], t)
    F = _on_points(fric.F_field, quad.points[contact], t)
    traction[contact] = -F[:, :, None] * quad.normals[contact][:, None, :]

    out = scatter_load(xy_dofs(tri), volume, n2) + scatter_load(xy_dofs(quad.conn), quad.test(traction), n2)
    return out[dofs.vector_free_dofs()]


# ---------------------------------------------------------------------------
# 4-Laplacian regularizer


def assemble_p_laplacian(mesh: Mesh, dofs: DofMap, theta: np.ndarray) -> tuple[np.ndarray, sp.csr_matrix]:
    """Residual and exact Jacobian of the |grad|^2-weighted gradient form.

    P1 gradients are piecewise constant, so per element the residual is
    area * G^T (|g|^2 g) and the Jacobian block is
    area * G^T (|g|^2 I + 2 g g^T) G with g the element gradient; no
    quadrature error enters.
    """
    tri, areas, grads = mesh.triangles, mesh.areas, mesh.grads
    g = np.einsum("ta,tia->ti", theta[tri], grads)
    g2 = np.einsum("ti,ti->t", g, g)
    res_elem = areas[:, None] * np.einsum("ti,tia->ta", g2[:, None] * g, grads)
    res = scatter_load(tri, res_elem, mesh.n_nodes)

    jac_core = g2[:, None, None] * np.eye(2)[None] + 2.0 * np.einsum("ti,tj->tij", g, g)
    elem = np.einsum("tk,tkm->tm", jac_core.reshape(-1, 4), mesh.grad_products)
    return res[dofs.scalar_free_nodes], dofs.scalar.csr(dofs.scalar.sum_triangles(elem))


def u_norm4(mesh: Mesh, theta: np.ndarray) -> float:
    """Fourth power of the gradient-L4 norm, exact for P1 fields."""
    tri, areas, grads = mesh.triangles, mesh.areas, mesh.grads
    g = np.einsum("ta,tia->ti", theta[tri], grads)
    g2 = np.einsum("ti,ti->t", g, g)
    return float(np.sum(areas * g2 * g2))
