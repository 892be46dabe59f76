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

The kernels called at every step contract nothing per element. They go
through three operators built once per mesh, read-only like the rest of the
cached geometry:

- ``mesh.grad`` (2T x N) takes a nodal field to its element gradients, and
  its transpose ``mesh.grad_t`` tests per-element vectors against the basis
  gradients. The p-Laplacian residual, the electric load, the velocity heat
  (``grad @ v.reshape(-1, 2)``), the thermal coupling, and the Joule loads
  use them.
- ``dofs.scalar.form`` (nnz x 4T) takes a per-element 2 x 2 coefficient of a
  gradient form to the data array of its free-dof matrix. The thermal
  stiffness, the electric matrix and the p-Laplacian Jacobian use it.
- ``mesh.midpoints`` (T, 3, 2) holds the triangle quadrature points, at which
  the body force of the mechanical load is evaluated.

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
# positions of the row-major entries of a 2 x 2 matrix in its transpose
TRANSPOSED = [0, 2, 1, 3]


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


def element_gradients(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """(T, 2) constant gradient of a nodal P1 field on each triangle."""
    return (mesh.grad @ values).reshape(-1, 2)


def assemble_thermal_stiffness(mesh: Mesh, dofs: DofMap, mat: MaterialModel,
                               theta_eval: np.ndarray) -> sp.csr_matrix:
    """Conductivity form with k evaluated at the given temperature field.

    Entry [test a, trial b] integrates grad(a)^T k^T grad(b), so the
    element coefficient of the gradient form is the quadrature mean of k^T.
    """
    kq = np.asarray(mat.k(theta_at_quadrature(mesh, theta_eval)), dtype=float).reshape(-1, 3, 4)
    kt = (kq[:, 0] + kq[:, 1] + kq[:, 2])[:, TRANSPOSED] / 3.0
    return dofs.scalar.csr(dofs.scalar.form @ kt.ravel())


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
    sq = np.asarray(mat.sigma_el(theta_at_quadrature(mesh, theta)), dtype=float)
    s_bar = sq.sum(axis=1) / 3.0
    quad, edge = _robin_local(mesh, bd.H_N, bd.H_C, fric, t)
    phib = phi_b_nodal(mesh, bd)
    applied = (mesh.grad_t @ ((mesh.areas * s_bar)[:, None] * element_gradients(mesh, phib)).ravel()
               + scatter_load(quad.conn, np.einsum("eab,eb->ea", edge, phib[quad.conn]), mesh.n_nodes))
    p = dofs.scalar
    data = p.form @ np.outer(s_bar, [1.0, 0.0, 0.0, 1.0]).ravel() + p.sum_edges(quad, edge)
    return p.csr(data), -applied[dofs.scalar_free_nodes]


# ---------------------------------------------------------------------------
# heat sources


def assemble_joule_load_direct(mesh: Mesh, dofs: DofMap, mat: MaterialModel, bd: BoundaryData,
                               theta_del: np.ndarray, phi_del: np.ndarray) -> np.ndarray:
    """sigma_el(theta) |grad(phi + phi_b)|^2 tested against scalar basis functions.

    Pointwise nonnegative integrand; entries are nonnegative up to roundoff.
    """
    phi_tot = phi_del + phi_b_nodal(mesh, bd)
    tri, areas = mesh.triangles, mesh.areas
    g = element_gradients(mesh, phi_tot)
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
    tri, areas = mesh.triangles, mesh.areas

    sq = np.asarray(mat.sigma_el(theta_at_quadrature(mesh, theta_del)), dtype=float)  # (T, 3)
    g_phi = element_gradients(mesh, phi_del)
    g_phib = element_gradients(mesh, phib)
    phi_q = phi_del[tri] @ MIDPOINT_BASIS.T  # (T, 3) values at quad points

    # + sigma (grad phi . grad phi_b) w  and  + sigma |grad phi_b|^2 w
    cross = np.einsum("ti,ti->t", g_phi, g_phib) + np.einsum("ti,ti->t", g_phib, g_phib)
    elem = (areas / 3.0)[:, None] * cross[:, None] * (sq @ MIDPOINT_BASIS)

    # - sigma phi (grad phi + grad phi_b) . grad w
    coeff = (areas / 3.0) * np.einsum("tq,tq->t", sq, phi_q)
    out = scatter_load(tri, elem, mesh.n_nodes) - mesh.grad_t @ (coeff[:, None] * (g_phi + g_phib)).ravel()

    # boundary: - H (phi^2 + phi phi_b) w on the N and C parts
    quad = edge_quadrature(mesh, ("N", "C"))
    coef = _exchange_weights(quad, bd.H_N, bd.H_C, fric, t)
    pv, pbv = quad.interpolate(phi_del), quad.interpolate(phib)
    out -= scatter_load(quad.conn, quad.test(coef * (pv * pv + pv * pbv)), mesh.n_nodes)
    return out[dofs.scalar_free_nodes]


def assemble_velocity_heat(mesh: Mesh, dofs: DofMap, mat: MaterialModel, v: np.ndarray) -> np.ndarray:
    """Heat production of straining: -m_ij theta_ref dv_i/dx_j against w."""
    gv = (mesh.grad @ v.reshape(-1, 2)).reshape(-1, 4)  # dv_i/dx_j at [t, 2 j + i]
    scal = gv @ mat.m_tensor.T.ravel()
    elem = np.repeat(-(mat.theta_ref / 3.0) * scal * mesh.areas, 3)
    return scatter_load(mesh.triangles, elem, mesh.n_nodes)[dofs.scalar_free_nodes]


def assemble_thermal_coupling(mesh: Mesh, dofs: DofMap, mat: MaterialModel, theta: np.ndarray) -> np.ndarray:
    """Thermal stress action: -m_ij theta d(eta_i)/dx_j against vector basis eta.

    Adjoint to the velocity-heat form up to the factor theta_ref.
    """
    theta_bar = theta[mesh.triangles].mean(axis=1)  # exact mean over the element for P1
    stress = np.outer(-mesh.areas * theta_bar, mat.m_tensor.T)  # [t, 2 j + i] = -area theta m_ij
    return (mesh.grad_t @ stress.reshape(-1, 2)).ravel()[dofs.vector_free_dofs()]


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
    tri = mesh.triangles
    n2 = 2 * mesh.n_nodes

    # volume: f_0 . eta with the midpoint rule
    f0 = _on_points(bd.f_0, mesh.midpoints, t)  # (T, 3, 2)
    volume = (mesh.areas / 3.0)[:, None, None] * (MIDPOINT_BASIS.T @ f0)

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


def assemble_p_laplacian(mesh: Mesh, dofs: DofMap, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual of the |grad|^2-weighted gradient form, and the (T, 2) element gradients.

    P1 gradients are piecewise constant, so per element the residual is
    area * G^T (|g|^2 g) with g the element gradient; no quadrature error
    enters. The gradients are what :func:`assemble_p_laplacian_jacobian`
    needs at the same theta.
    """
    g = element_gradients(mesh, theta)
    g2 = np.einsum("ti,ti->t", g, g)
    res = mesh.grad_t @ ((mesh.areas * g2)[:, None] * g).ravel()
    return res[dofs.scalar_free_nodes], g


def assemble_p_laplacian_jacobian(dofs: DofMap, g: np.ndarray) -> sp.csr_matrix:
    """Exact Jacobian of :func:`assemble_p_laplacian` from its element gradients g.

    Per element the block is area * G^T (|g|^2 I + 2 g g^T) G.
    """
    g2 = np.einsum("ti,ti->t", g, g)
    jac_core = 2.0 * g[:, [0, 0, 1, 1]] * g[:, [0, 1, 0, 1]]  # 2 g g^T, row-major
    jac_core[:, 0] += g2
    jac_core[:, 3] += g2
    return dofs.scalar.csr(dofs.scalar.form @ jac_core.ravel())


def u_norm4(mesh: Mesh, theta: np.ndarray) -> float:
    """Fourth power of the gradient-L4 norm, exact for P1 fields."""
    g = element_gradients(mesh, theta)
    g2 = np.einsum("ti,ti->t", g, g)
    return float(np.sum(mesh.areas * g2 * g2))
