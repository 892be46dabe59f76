"""Independent brute-force reference implementations used only by tests.

:func:`unit_square_mesh_loops` builds the unit square one cell at a time.
Everything from :func:`p1_basis` down to :func:`restrict` is dense,
per-element, and derives basis data from first principles (Vandermonde
inversion), deliberately sharing no code with the package's assembly
routines. The sparse references after it restrict full (N x N) or
(2N x 2N) matrices, built by :func:`scatter` from the package's element
matrices, to the free dofs by fancy indexing: the path the package's
free-dof patterns replace, kept to check them against. The remaining
helpers are quantities only tests use: the dual norm of the regularizer,
the sampled friction-law properties, the friction functional, the momentum
residual and its Jacobian formed from the pointwise friction law, the two
sides of the potential bound, the Joule-form gap and the delayed-history
inequality.
"""

from __future__ import annotations

import numpy as np
import scipy.integrate
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from thermocontact import diagnostics
from thermocontact.assembly import (
    _mass_local,
    _tensor_stiffness_local,
    assemble_contact_mass,
    assemble_joule_load_direct,
    assemble_mech_load,
    assemble_p_laplacian,
    assemble_p_laplacian_jacobian,
    assemble_scalar_stiffness_unit,
    assemble_thermal_coupling,
    contact_slip,
    u_norm4,
)
from thermocontact.friction import damped_newton
from thermocontact.mesh import (
    Mesh,
    _validate,
    boundary_mass_local,
    edge_quadrature,
    scatter_load,
    unit_stiffness_local,
    xy_dofs,
)


def unit_square_mesh_loops(n: int, tags: dict[str, str]):
    """The criss triangulation of ``mesh.build_unit_square_mesh``, built
    one node, cell and side at a time."""
    idx = lambda ix, iy: iy * (n + 1) + ix
    xs = np.linspace(0.0, 1.0, n + 1)
    nodes = np.array([[xs[ix], xs[iy]] for iy in range(n + 1) for ix in range(n + 1)])
    triangles = []
    for iy in range(n):
        for ix in range(n):
            v00, v10 = idx(ix, iy), idx(ix + 1, iy)
            v01, v11 = idx(ix, iy + 1), idx(ix + 1, iy + 1)
            triangles.append((v00, v10, v11))
            triangles.append((v00, v11, v01))
    edges = []
    tag_list = []
    for k in range(n):
        edges.append((idx(k, 0), idx(k + 1, 0)))
        tag_list.append(tags["bottom"])
        edges.append((idx(n, k), idx(n, k + 1)))
        tag_list.append(tags["right"])
        edges.append((idx(k + 1, n), idx(k, n)))
        tag_list.append(tags["top"])
        edges.append((idx(0, k + 1), idx(0, k)))
        tag_list.append(tags["left"])
    return _validate(Mesh(
        nodes=nodes,
        triangles=np.array(triangles, dtype=np.int64),
        boundary_edges=np.array(edges, dtype=np.int64),
        edge_tags=np.array(tag_list, dtype=object),
    ))


def p1_basis(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and gradients of the three P1 basis functions.

    p is the (3, 2) vertex array. Returns (coeffs, grads) where column a of
    coeffs holds (c0, cx, cy) with phi_a(x, y) = c0 + cx*x + cy*y, and
    grads[:, a] is the constant gradient of phi_a.
    """
    vand = np.column_stack([np.ones(3), p[:, 0], p[:, 1]])
    coeffs = np.linalg.inv(vand)
    return coeffs, coeffs[1:, :]


def tri_area(p: np.ndarray) -> float:
    d1 = p[1] - p[0]
    d2 = p[2] - p[0]
    return 0.5 * float(d1[0] * d2[1] - d1[1] * d2[0])


def tri_quad(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint rule (3 points, weight area/3 each); exact through degree 2."""
    pts = np.array([0.5 * (p[0] + p[1]), 0.5 * (p[1] + p[2]), 0.5 * (p[2] + p[0])])
    w = np.full(3, tri_area(p) / 3.0)
    return pts, w


def edge_quad(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-point Gauss rule on segment [a, b]; exact through degree 3."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    g = 1.0 / np.sqrt(3.0)
    pts = np.array([mid - g * half, mid + g * half])
    length = float(np.linalg.norm(b - a))
    w = np.full(2, 0.5 * length)
    return pts, w


def eval_p1(p: np.ndarray, nodal: np.ndarray, x: np.ndarray) -> float:
    coeffs, _ = p1_basis(p)
    vals = coeffs.T @ np.array([1.0, x[0], x[1]])
    return float(vals @ nodal)


def dense_scalar_stiffness(mesh, kfun=None, theta=None) -> np.ndarray:
    """Full (N, N) matrix of the conductivity form; kfun(s) -> (2, 2)."""
    n = mesh.n_nodes
    out = np.zeros((n, n))
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        coeffs, grads = p1_basis(p)
        pts, w = tri_quad(p)
        for q, wq in zip(pts, w):
            if kfun is None:
                kmat = np.eye(2)
            else:
                s = eval_p1(p, theta[tri], q) if theta is not None else 0.0
                kmat = np.asarray(kfun(s), dtype=float)
            for a in range(3):
                for b in range(3):
                    out[tri[a], tri[b]] += wq * grads[:, a] @ kmat.T @ grads[:, b]
    return out


def dense_scalar_mass(mesh) -> np.ndarray:
    n = mesh.n_nodes
    out = np.zeros((n, n))
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        coeffs, _ = p1_basis(p)
        pts, w = tri_quad(p)
        for q, wq in zip(pts, w):
            vals = coeffs.T @ np.array([1.0, q[0], q[1]])
            out[np.ix_(tri, tri)] += wq * np.outer(vals, vals)
    return out


def dense_boundary_mass(mesh, tags, weight=None) -> np.ndarray:
    """Full (N, N) boundary mass over edges with tag in tags.

    weight, if given, is a function of the quadrature point position.
    """
    n = mesh.n_nodes
    out = np.zeros((n, n))
    for e in range(mesh.boundary_edges.shape[0]):
        if mesh.edge_tags[e] not in tags:
            continue
        i, j = mesh.boundary_edges[e]
        a, b = mesh.nodes[i], mesh.nodes[j]
        pts, w = edge_quad(a, b)
        length = float(np.linalg.norm(b - a))
        for q, wq in zip(pts, w):
            t = float(np.linalg.norm(q - a)) / length
            vals = np.array([1.0 - t, t])
            c = 1.0 if weight is None else float(weight(q))
            out[np.ix_((i, j), (i, j))] += c * wq * np.outer(vals, vals)
    return out


def edge_gauss_points(mesh, tags):
    """Yield (i, j, x, weight, basis values, outward normal) per Gauss point.

    Walks every boundary edge (i, j) whose tag is in tags; the basis values
    are those of the two edge endpoints' hat functions at x.
    """
    for e in range(mesh.boundary_edges.shape[0]):
        if mesh.edge_tags[e] not in tags:
            continue
        i, j = mesh.boundary_edges[e]
        a, b = mesh.nodes[i], mesh.nodes[j]
        pts, w = edge_quad(a, b)
        length = float(np.linalg.norm(b - a))
        for q, wq in zip(pts, w):
            t = float(np.linalg.norm(q - a)) / length
            yield i, j, q, wq, np.array([1.0 - t, t]), mesh.edge_normals[e]


def dense_vector_stiffness(mesh, tensor: np.ndarray) -> np.ndarray:
    """Full (2N, 2N) matrix of the fourth-order-tensor gradient form.

    Entry [(b, i), (a, k)] integrates tensor[i, j, k, l] * d(trial_k)/dx_l *
    d(test_i)/dx_j over the domain, with interleaved (x, y) dof layout.
    """
    n2 = 2 * mesh.n_nodes
    out = np.zeros((n2, n2))
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        _, grads = p1_basis(p)
        area = tri_area(p)
        for brow in range(3):
            for i in range(2):
                for acol in range(3):
                    for k in range(2):
                        val = 0.0
                        for j in range(2):
                            for l in range(2):
                                val += tensor[i, j, k, l] * grads[l, acol] * grads[j, brow]
                        out[2 * tri[brow] + i, 2 * tri[acol] + k] += area * val
    return out


def dense_vector_mass(mesh) -> np.ndarray:
    ms = dense_scalar_mass(mesh)
    return np.kron(ms, np.eye(2))


def dense_componentwise_vector_stiffness(mesh) -> np.ndarray:
    ks = dense_scalar_stiffness(mesh)
    return np.kron(ks, np.eye(2))


def dense_tangential_contact_mass(mesh) -> np.ndarray:
    n2 = 2 * mesh.n_nodes
    out = np.zeros((n2, n2))
    for e in range(mesh.boundary_edges.shape[0]):
        if mesh.edge_tags[e] != "C":
            continue
        i, j = mesh.boundary_edges[e]
        a, b = mesh.nodes[i], mesh.nodes[j]
        nu = mesh.edge_normals[e]
        proj = np.eye(2) - np.outer(nu, nu)
        pts, w = edge_quad(a, b)
        length = float(np.linalg.norm(b - a))
        dofs = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
        for q, wq in zip(pts, w):
            t = float(np.linalg.norm(q - a)) / length
            vals = np.array([1.0 - t, t])
            block = wq * np.kron(np.outer(vals, vals), proj)
            out[np.ix_(dofs, dofs)] += block
    return out


def dense_p_laplacian_residual(mesh, theta: np.ndarray) -> np.ndarray:
    """Full (N,) residual of the |grad|^2-weighted gradient form at theta.

    Per element: area * G^T (|g|^2 g) with g the constant gradient of theta.
    """
    out = np.zeros(mesh.n_nodes)
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        _, grads = p1_basis(p)
        g = grads @ theta[tri]
        out[tri] += tri_area(p) * grads.T @ ((g @ g) * g)
    return out


def dense_velocity_heat(mesh, m_tensor: np.ndarray, theta_ref: float, v: np.ndarray) -> np.ndarray:
    """Full (N,) load of -m_ij theta_ref dv_i/dx_j tested against each scalar basis function."""
    out = np.zeros(mesh.n_nodes)
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        coeffs, grads = p1_basis(p)
        dv = v.reshape(-1, 2)[tri].T @ grads.T  # dv[i, j] = dv_i/dx_j
        rate = -theta_ref * float(np.sum(m_tensor * dv))
        for q, wq in zip(*tri_quad(p)):
            out[tri] += wq * rate * (coeffs.T @ np.array([1.0, q[0], q[1]]))
    return out


def dense_thermal_coupling(mesh, m_tensor: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Full (2N,) load of -m_ij theta d(eta_i)/dx_j over the interleaved vector basis eta."""
    out = np.zeros(2 * mesh.n_nodes)
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        _, grads = p1_basis(p)
        integral = sum(wq * eval_p1(p, theta[tri], q) for q, wq in zip(*tri_quad(p)))
        for b in range(3):
            for i in range(2):
                out[2 * tri[b] + i] -= integral * (m_tensor[i] @ grads[:, b])
    return out


def dense_mech_load(mesh, bd, fric, t: float) -> np.ndarray:
    """Full (2N,) mechanical load at time t: f_0 by the midpoint rule, f_2 on N
    edges and -F nu on C edges by two-point Gauss, point by point."""
    out = np.zeros(2 * mesh.n_nodes)
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        coeffs, _ = p1_basis(p)
        for q, wq in zip(*tri_quad(p)):
            force = np.asarray(bd.f_0(q[None, :], t), dtype=float)[0]
            for a, phi in zip(tri, coeffs.T @ np.array([1.0, q[0], q[1]])):
                out[2 * a:2 * a + 2] += wq * phi * force
    for i, j, q, wq, vals, nu in edge_gauss_points(mesh, ("N",)):
        traction = np.asarray(bd.f_2(q[None, :], t), dtype=float)[0]
        out[[2 * i, 2 * i + 1, 2 * j, 2 * j + 1]] += wq * np.kron(vals, traction)
    for i, j, q, wq, vals, nu in edge_gauss_points(mesh, ("C",)):
        traction = -float(np.asarray(fric.F_field(q[None, :], t))[0]) * nu
        out[[2 * i, 2 * i + 1, 2 * j, 2 * j + 1]] += wq * np.kron(vals, traction)
    return out


def restrict(mat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return mat[np.ix_(idx, idx)]


class DirectSolve:
    """Stand-in for ``scheme.factor_banded``: a factor whose solve is a fresh
    sparse direct solve of the matrix it was built from, counted in ``solves``.

    With ``scheme._cg`` made to give up at once, every scalar solve of a run
    builds one and solves once, as the scheme did before it reused factors.
    """

    def __init__(self, matrix, layout):
        self.matrix = matrix.tocsc()
        self.solves = 0

    def solve(self, b):
        self.solves += 1
        return spsolve(self.matrix, b)


def assert_symmetric(matrix: sp.spmatrix, tol: float = 1e-12) -> None:
    d = matrix - matrix.T
    worst = 0.0 if d.nnz == 0 else float(np.abs(d.data).max())
    if worst > tol:
        raise AssertionError(f"operator not symmetric: max deviation {worst:.3e}")


def scatter(conn: np.ndarray, local: np.ndarray, n: int) -> sp.csr_matrix:
    """Sum (E, k, k) local matrices over the (E, k) dof connectivity into (n, n).

    Each entry sums its element contributions in element order, as the
    package's free-dof patterns do, so restricted entries agree bit for bit.
    """
    k = conn.shape[1]
    keys = (np.repeat(conn, k, axis=1) * n + np.tile(conn, (1, k))).ravel()
    uniq, slots = np.unique(keys, return_inverse=True)
    data = np.bincount(slots, weights=local.ravel())
    return sp.csr_matrix((data, uniq % n, np.searchsorted(uniq, np.arange(n + 1) * n)), shape=(n, n))


def scalar_mass_full(mesh) -> sp.csr_matrix:
    """P1 mass on all nodes (N x N)."""
    return scatter(mesh.triangles, _mass_local(mesh), mesh.n_nodes)


def scalar_stiffness_unit_full(mesh) -> sp.csr_matrix:
    """Unit-coefficient gradient form on all nodes (N x N); the discrete V-norm matrix."""
    return scatter(mesh.triangles, unit_stiffness_local(mesh), mesh.n_nodes)


def restrict_scalar(dofs, mat) -> sp.csr_matrix:
    """Restrict a full (N x N) operator to free scalar dofs."""
    f = dofs.scalar_free_nodes
    return mat.tocsr()[f][:, f].tocsr()


def restrict_vector(dofs, mat) -> sp.csr_matrix:
    """Restrict a full (2N x 2N) operator to free vector dofs."""
    f = dofs.vector_free_dofs()
    return mat.tocsr()[f][:, f].tocsr()


def tensor_stiffness_full(mesh, tensor: np.ndarray) -> sp.csr_matrix:
    """Fourth-order-tensor gradient form on all (2N) vector dofs."""
    return scatter(xy_dofs(mesh.triangles), _tensor_stiffness_local(mesh, tensor), 2 * mesh.n_nodes)


def vector_stiffness_componentwise_full(mesh) -> sp.csr_matrix:
    """Componentwise gradient form; the discrete E-norm matrix."""
    return sp.kron(scalar_stiffness_unit_full(mesh), sp.eye(2), format="csr")


def contact_vector_mass_full(mesh) -> sp.csr_matrix:
    """Unprojected vector boundary mass on the C part (2N x 2N)."""
    quad = edge_quadrature(mesh, ("C",))
    return scatter(xy_dofs(quad.conn), boundary_mass_local(quad, block=np.eye(2)), 2 * mesh.n_nodes)


def contact_lumped_weights(mesh, dofs) -> np.ndarray:
    """Row sums of the scalar contact boundary mass at the contact nodes.

    Positive quadrature weights for nodal inner products on the contact part.
    """
    quad = edge_quadrature(mesh, ("C",))
    w = scatter_load(quad.conn, quad.test(np.ones(quad.weights.shape)), mesh.n_nodes)
    return w[dofs.contact_nodes]


def basis_u_norms(mesh, dofs) -> np.ndarray:
    """Gradient-L4 norm of each free scalar basis function."""
    g2 = np.einsum("tia,tia->ta", mesh.grads, mesh.grads)
    acc = scatter_load(mesh.triangles, mesh.areas[:, None] * g2 * g2, mesh.n_nodes)
    return acc[dofs.scalar_free_nodes] ** 0.25


def dense_p_laplacian_jacobian(mesh, theta: np.ndarray) -> np.ndarray:
    """Full (N, N) Jacobian of the |grad|^2-weighted gradient form at theta.

    Per element: area * G^T (|g|^2 I + 2 g g^T) G with g the constant
    gradient of theta and G the basis gradients.
    """
    n = mesh.n_nodes
    out = np.zeros((n, n))
    for tri in mesh.triangles:
        p = mesh.nodes[tri]
        _, grads = p1_basis(p)
        g = grads @ theta[tri]
        core = (g @ g) * np.eye(2) + 2.0 * np.outer(g, g)
        out[np.ix_(tri, tri)] += tri_area(p) * grads.T @ core @ grads
    return out


def _full_scalar(mesh, dofs, w_free: np.ndarray) -> np.ndarray:
    out = np.zeros(mesh.n_nodes)
    out[dofs.scalar_free_nodes] = w_free
    return out


def quartic_dual_norm(mesh, dofs, r: np.ndarray, rtol: float = 1e-12, max_iter: int = 60) -> float:
    """Dual norm of a free-dof functional against the gradient L4 norm.

    Solves the quartic-gradient Euler-Lagrange equation by damped Newton
    from the scaled linear representer; the cube of the minimizer's U norm
    is the dual norm exactly.
    """
    nr = float(np.linalg.norm(r))
    if nr == 0.0:
        return 0.0
    w = spsolve(assemble_scalar_stiffness_unit(mesh, dofs), r)
    u4 = u_norm4(mesh, _full_scalar(mesh, dofs, w))
    w *= (float(r @ w) / u4) ** (1.0 / 3.0)

    def residual(w_free):
        res, g = assemble_p_laplacian(mesh, dofs, _full_scalar(mesh, dofs, w_free))
        return res - r, g

    w, _, _ = damped_newton(residual,
                            lambda res, g: spsolve(assemble_p_laplacian_jacobian(dofs, g), -res), w,
                            rtol * (1.0 + nr), max_iter, "regularizer dual norm", 0.0)
    return u_norm4(mesh, _full_scalar(mesh, dofs, w)) ** 0.75


def regularizer_magnitude(mesh, dofs, theta: np.ndarray, h: float) -> tuple[float, float]:
    """Dual-norm size of the weighted quartic gradient term.

    Returns the estimate obtained by solving for the representer of the
    assembled residual alongside the closed-form majorant
    h * (U norm of theta)^3 that the diagnostics report; the two coincide up
    to solver tolerance.
    """
    surrogate = float(h * u_norm4(mesh, theta) ** 0.75)
    res_free, _ = assemble_p_laplacian(mesh, dofs, theta)
    return quartic_dual_norm(mesh, dofs, h * res_free), surrogate


def slip_potential(rfric, r: np.ndarray) -> np.ndarray:
    """Antiderivative of mu at slip rates r >= 0; by quadrature if the model gives none."""
    r = np.asarray(r, dtype=float)
    if rfric.fric.mu_antiderivative is not None:
        return np.asarray(rfric.fric.mu_antiderivative(r), dtype=float)
    flat = np.ravel(r)
    out = np.array([scipy.integrate.quad(lambda s: float(rfric.fric.mu(s)), 0.0, float(x))[0]
                    for x in flat])
    return out.reshape(np.shape(r))


def friction_functional(mesh, dofs, rfric, v_full: np.ndarray, t: float = 0.0) -> float:
    """Contact integral of F times the slip-rate potential of |v_tau|."""
    quad, slip, F = contact_slip(mesh, rfric.fric, v_full, t)
    return float(np.sum(quad.weights * F * slip_potential(rfric, slip)))


def check_subgradient_properties(rfric, n_pairs: int = 10_000, seed: int = 0) -> dict:
    """Sampled worst cases of the traction bound and the monotonicity estimate.

    Draws slip-velocity pairs across magnitudes from well below the smoothing
    scale to order ten; half the pairs are collinear or nearly collinear,
    where a slip-weakening coefficient stresses the monotonicity constant
    hardest. Returns the largest observed violations (negative or tiny
    positive values mean the property holds).
    """
    rng = np.random.default_rng(seed)
    eps = rfric.eps
    scales = 10.0 ** rng.uniform(np.log10(eps) - 1.0, 1.0, size=(n_pairs, 2))
    dirs = rng.normal(size=(n_pairs, 2, 2))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    quarter = n_pairs // 4
    dirs[:quarter, 1] = dirs[:quarter, 0]
    near = dirs[quarter:2 * quarter, 0] + 0.05 * rng.normal(size=(quarter, 2))
    dirs[quarter:2 * quarter, 1] = near / np.linalg.norm(near, axis=1, keepdims=True)
    v1 = scales[:, 0, None] * dirs[:, 0]
    v2 = scales[:, 1, None] * dirs[:, 1]
    F = rng.uniform(0.0, 1.0, size=n_pairs) * rfric.fric.F_bar * 2.0

    xi1 = rfric.traction(v1, F)
    xi2 = rfric.traction(v2, F)
    norm1 = np.linalg.norm(xi1, axis=1)
    bound_violation = float((norm1 - rfric.fric.mu_bar * F).max())

    dv = v1 - v2
    pair = np.einsum("mi,mi->m", xi1 - xi2, dv)
    slack = pair + F * rfric.fric.d_mu * np.einsum("mi,mi->m", dv, dv)
    return {
        "bound_violation": bound_violation,
        "monotonicity_violation": float((-slack).max()),
        "n_pairs": int(n_pairs),
    }


def check_subgradient_pairing(mesh, dofs, rfric, lumped_weights: np.ndarray, n_pairs: int = 100,
                              seed: int = 0, t: float = 0.0) -> float:
    """Monotonicity estimate in the lumped contact inner product.

    The nodal property transfers to any positively weighted sum, so the
    worst violation over random velocity pairs should sit at roundoff.
    """
    rng = np.random.default_rng(seed)
    m = dofs.contact_nodes.size
    if m == 0:
        return 0.0
    F = np.asarray(rfric.fric.F_field(mesh.nodes[dofs.contact_nodes], t), dtype=float)
    worst = -np.inf
    for _ in range(n_pairs):
        v1 = rng.normal(size=(m, 2)) * 10.0 ** rng.uniform(-6, 1)
        v2 = rng.normal(size=(m, 2)) * 10.0 ** rng.uniform(-6, 1)
        nu = dofs.contact_normal
        vt1 = v1 - np.einsum("mi,mi->m", v1, nu)[:, None] * nu
        vt2 = v2 - np.einsum("mi,mi->m", v2, nu)[:, None] * nu
        dxi = rfric.traction(vt1, F) - rfric.traction(vt2, F)
        dv = vt1 - vt2
        lhs = float(np.sum(lumped_weights * np.einsum("mi,mi->m", dxi, dv)))
        rhs = -rfric.fric.d_mu * float(np.sum(lumped_weights * F * np.einsum("mi,mi->m", dv, dv)))
        worst = max(worst, rhs - lhs)
    return worst


def momentum_residual(step, t_new: float, u_old: np.ndarray, v_old: np.ndarray,
                      theta_del: np.ndarray, v_free: np.ndarray):
    """Residual and exact Jacobian of the implicit step at a trial velocity.

    All vectors but theta_del live on free vector dofs. The residual
    B v + R xi(v) - rhs is formed here from the step matrix B, the contact
    mass, the load assemblers and the pointwise law ``rfric.traction``,
    apart from the solver's own closure and its nodal traction: R is the
    contact mass on the free contact dofs, the tangential velocity is
    P_k v_k with P_k = I - nu_k nu_k^T at each free contact node, and the
    friction block of the Jacobian is J_k P_k with J_k = ``traction_jacobian``.
    """
    mesh, dofs, mat, rfric = step.mesh, step.dofs, step.mat, step.rfric
    free = dofs.node_to_free[dofs.contact_nodes]
    on = free >= 0
    nodes, nu, pos = dofs.contact_nodes[on], dofs.contact_normal[on], xy_dofs(free[on])
    proj = np.eye(2)[None] - nu[:, :, None] * nu[:, None, :]
    vt = np.einsum("mij,mj->mi", proj, v_free[pos].reshape(-1, 2))
    F = rfric.fric.F_field(mesh.nodes[nodes], t_new)
    rhs = (assemble_mech_load(mesh, dofs, step.bd, rfric.fric, t_new)
           - assemble_thermal_coupling(mesh, dofs, mat, theta_del)
           + mat.mass_mech() / step.dt * (step.mass @ v_old) - step.elast @ u_old)
    r = assemble_contact_mass(mesh, dofs)[:, pos]
    res = step.base @ v_free + r @ rfric.traction(vt, F).ravel() - rhs
    pairs = np.arange(pos.size).reshape(-1, 2)
    rows = np.repeat(pairs, 2, axis=1).ravel()
    cols = np.tile(pos.reshape(-1, 2), (1, 2)).ravel()
    blocks = np.einsum("mij,mjk->mik", rfric.traction_jacobian(vt, F), proj)
    d_et = sp.csr_matrix((blocks.ravel(), (rows, cols)), shape=(pos.size, v_free.size))
    return res, (step.base + r @ d_et).tocsr()


def direct_momentum_step(step, t_new: float, u_old: np.ndarray, v_old: np.ndarray,
                         theta_del: np.ndarray, tol: float, max_iter: int):
    """The momentum step by damped Newton on the full Jacobian, from v_old.

    Each correction is a sparse direct solve with the Jacobian of
    :func:`momentum_residual`; the target is the solver's,
    tol (1 + |load|). Returns the free velocity and the Newton info.
    """
    load = assemble_mech_load(step.mesh, step.dofs, step.bd, step.rfric.fric, t_new)
    v, _, info = damped_newton(
        lambda v: momentum_residual(step, t_new, u_old, v_old, theta_del, v),
        lambda res, jac: spsolve(jac.tocsc(), -res),
        v_old.copy(), tol * (1.0 + float(np.linalg.norm(load))), max_iter, "momentum", t_new)
    return v, info


def potential_bound(models, state) -> tuple[float, float]:
    """Both sides of the potential estimate for one converged state."""
    stiff = assemble_scalar_stiffness_unit(models.mesh, models.dofs)
    phi = np.asarray(state.phi, dtype=float)[models.dofs.scalar_free_nodes]
    lhs = float(np.sqrt(max(phi @ (stiff @ phi), 0.0)))
    return lhs, diagnostics.potential_bound_constant(models)


def joule_gap(models, theta, phi, t: float = 0.0) -> float:
    """Largest free-entry difference between the two Joule load forms."""
    direct = assemble_joule_load_direct(models.mesh, models.dofs, models.mat, models.bd, theta, phi)
    return diagnostics.joule_gap(models, direct, theta, phi, t)


def delay_inequality_gap(history: np.ndarray, h: float, dt: float) -> float:
    """Slack of the delayed-history norm bound; nonpositive up to roundoff.

    For samples g_0..g_n at spacing dt and delay h = k dt, the delayed
    sequence satisfies sum dt |g_delayed(t_i)|^2 <= h |g_0|^2 + sum dt |g_i|^2,
    because the delayed sum repeats g_0 exactly k+1 times and drops the k
    final samples. Returns lhs - rhs.
    """
    values = np.atleast_2d(np.asarray(history, dtype=float))
    if values.shape[0] < 1:
        raise ValueError("history must hold at least the initial sample")
    k = round(h / dt)
    if k < 1 or abs(k * dt - h) > 1e-9 * h:
        raise ValueError("delay must be an integer multiple of dt")
    sq = np.einsum("nm,nm->n", values, values)
    n = values.shape[0] - 1
    delayed_idx = np.maximum(np.arange(n + 1) - k, 0)
    lhs = dt * float(sq[delayed_idx].sum())
    rhs = h * float(sq[0]) + dt * float(sq.sum())
    return lhs - rhs
