"""Triangulations of a 2D domain with a three-way boundary partition.

The boundary of the domain is split into a Dirichlet part (D), a heat/current
exchange part (N), and a contact part (C). Scalar unknowns live in the P1
space vanishing on the D part; vector unknowns use two components per free
node, interleaved (x, y). :func:`build_dof_maps` numbers the free nodes in
reverse Cuthill-McKee order, so every free-dof matrix is banded as built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

VALID_TAGS = ("D", "N", "C")


class MeshError(ValueError):
    """Raised for malformed mesh files or invalid mesh topology."""


@dataclass
class Mesh:
    """Conforming triangulation with tagged boundary edges.

    Attributes
    ----------
    nodes : (N, 2) float array
        Vertex coordinates.
    triangles : (T, 3) int array
        Vertex indices, counterclockwise.
    boundary_edges : (E, 2) int array
        Vertex index pairs; each edge belongs to exactly one triangle.
    edge_tags : (E,) array of str
        One of ``"D"``, ``"N"``, ``"C"`` per boundary edge.
    edge_normals : (E, 2) float array
        Outward unit normal per boundary edge.
    edge_owner : (E,) int array
        Index of the triangle owning each boundary edge.
    areas : (T,) float array
    grads : (T, 2, 3) float array
        Triangle areas and P1 basis gradients (see :func:`triangle_geometry`).
    grad_products : (T, 4, 9) float array
        ``area * grads[:, i, a] * grads[:, j, b]`` at ``[:, 2 i + j, 3 a + b]``;
        the per-element gradient forms are contracted against it.
    grad : (2T, N) CSR matrix
        Element gradients: row ``2 t + i`` holds ``grads[t, i, :]`` at the
        columns ``triangles[t]``, so ``grad @ values`` is the (2T,) array of
        the constant P1 gradients of a nodal field, and ``grad @ v.reshape(-1, 2)``
        the (2T, 2) array of ``d v_k / d x_i`` at ``[2 t + i, k]``.
    grad_t : (N, 2T) CSR matrix
        The transpose of ``grad``: tests a (2T[, 2]) array of per-element
        vectors against the basis gradients and sums over the elements.
    midpoints : (T, 3, 2) float array
        Coordinates of the three midpoint quadrature points of each
        triangle (m01, m12, m20).

    The mesh builders end in :func:`_validate`, which fills the derived
    arrays and makes every array read-only, so the geometry and the edge
    quadratures cached on the mesh cannot go stale: an edited geometry
    needs a new mesh.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    edge_tags: np.ndarray
    edge_normals: np.ndarray = field(default=None, init=False, repr=False)  # type: ignore[assignment]
    edge_owner: np.ndarray = field(default=None, init=False, repr=False)  # type: ignore[assignment]
    areas: np.ndarray = field(default=None, init=False, repr=False)  # type: ignore[assignment]
    grads: np.ndarray = field(default=None, init=False, repr=False)  # type: ignore[assignment]
    grad_products: np.ndarray = field(default=None, init=False, repr=False)  # type: ignore[assignment]
    grad: sp.csr_matrix = field(default=None, init=False, repr=False)  # type: ignore[assignment]
    grad_t: sp.csr_matrix = field(default=None, init=False, repr=False)  # type: ignore[assignment]
    midpoints: np.ndarray = field(default=None, init=False, repr=False)  # type: ignore[assignment]
    _quadratures: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def edge_lengths(self) -> np.ndarray:
        p = self.nodes[self.boundary_edges[:, 0]]
        q = self.nodes[self.boundary_edges[:, 1]]
        return np.linalg.norm(q - p, axis=1)

    def edges_with_tag(self, tag: str) -> np.ndarray:
        return np.flatnonzero(self.edge_tags == tag)


@dataclass
class DofMap:
    """Free-degree-of-freedom bookkeeping for one mesh.

    ``scalar_free_nodes`` lists nodes not touching the D part, in the reverse
    Cuthill-McKee order of :func:`build_dof_maps`; the vector space uses two
    dofs per free node, interleaved (x, y), in the same order.
    ``contact_nodes`` are all nodes of C-tagged edges (a node shared with the
    D part stays Dirichlet and simply never moves). Unit normal/tangent pairs
    at contact nodes average the adjacent C-edge normals. ``scalar`` and
    ``vector`` are the free-dof sparsity patterns every operator is
    assembled into.
    """

    n_nodes: int
    dirichlet_nodes: np.ndarray
    scalar_free_nodes: np.ndarray
    node_to_free: np.ndarray
    contact_nodes: np.ndarray
    contact_normal: np.ndarray
    contact_tangent: np.ndarray
    scalar: FreePattern
    vector: FreePattern

    @property
    def n_free_scalar(self) -> int:
        return self.scalar_free_nodes.shape[0]

    @property
    def n_free_vector(self) -> int:
        return 2 * self.n_free_scalar

    def vector_free_dofs(self) -> np.ndarray:
        """Global dof ids (2*node + comp) of the free vector dofs, interleaved."""
        return xy_dofs(self.scalar_free_nodes)


def triangle_geometry(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Areas and P1 basis gradients for every triangle.

    Returns
    -------
    areas : (T,) array
    grads : (T, 2, 3) array
        ``grads[t, :, a]`` is the constant gradient of the local basis
        function of vertex ``a`` on triangle ``t``.
    """
    tri = mesh.triangles
    p0 = mesh.nodes[tri[:, 0]]
    p1 = mesh.nodes[tri[:, 1]]
    p2 = mesh.nodes[tri[:, 2]]
    d1 = p1 - p0
    d2 = p2 - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    areas = 0.5 * det
    # gradient of barycentric coordinates: rot90 of opposite edge / (2 area)
    grads = np.empty((tri.shape[0], 2, 3))
    e0 = p2 - p1
    e1 = p0 - p2
    e2 = p1 - p0
    for a, e in enumerate((e0, e1, e2)):
        grads[:, 0, a] = -e[:, 1] / det
        grads[:, 1, a] = e[:, 0] / det
    return areas, grads


def _edge_keys(ends: np.ndarray, n: int) -> np.ndarray:
    """One integer per undirected edge: lo * n + hi, so keys sort as (lo, hi) pairs."""
    return ends.min(axis=1).astype(np.int64) * n + ends.max(axis=1)


def _edge_census(triangles: np.ndarray, n: int):
    """Sorted keys of the distinct triangle edges, their triangle counts and
    the first triangle holding each."""
    keys, first, counts = np.unique(_edge_keys(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), n),
                                    return_index=True, return_counts=True)
    return keys, counts, first // 3


def _validate(mesh: Mesh) -> Mesh:
    """Check all Mesh invariants; fill normals and owners. Raises MeshError."""
    nodes, tri = mesh.nodes, mesh.triangles
    n = nodes.shape[0]
    non_finite = np.flatnonzero(~np.isfinite(nodes).all(axis=1))
    if non_finite.size:
        raise MeshError(f"node {non_finite[0]}: non-finite coordinate")
    if tri.size and (tri.min() < 0 or tri.max() >= n):
        bad = int(np.flatnonzero((tri < 0) | (tri >= n)).flat[0] // 3)
        raise MeshError(f"triangle {bad}: node index out of range")
    be = mesh.boundary_edges
    if be.size and (be.min() < 0 or be.max() >= n):
        bad = int(np.flatnonzero((be < 0) | (be >= n)).flat[0] // 2)
        raise MeshError(f"boundary edge {bad}: node index out of range")

    areas, grads = triangle_geometry(mesh)
    neg = np.flatnonzero(areas <= 0)
    if neg.size:
        raise MeshError(f"inconsistent orientation: triangle {neg[0]} has non-positive area")

    for tag in mesh.edge_tags:
        if tag not in VALID_TAGS:
            raise MeshError(f"unknown boundary tag {tag!r}")

    keys, counts, owners = _edge_census(tri, n)
    bkeys = _edge_keys(be, n)
    _, first, inverse = np.unique(bkeys, return_index=True, return_inverse=True)
    duplicate_of = first[inverse]
    pos = np.searchsorted(keys, bkeys)
    found = np.append(keys, -1)[pos] == bkeys
    interior = found & (np.append(counts, 1)[pos] != 1)
    bad = np.flatnonzero((duplicate_of != np.arange(bkeys.size)) | ~found | interior)
    if bad.size:
        e = int(bad[0])
        i, j = be[e]
        if duplicate_of[e] != e:
            raise MeshError(f"boundary edge {e}: duplicate of edge {duplicate_of[e]}")
        if not found[e]:
            raise MeshError(f"boundary edge {e}: ({i},{j}) is not an edge of any triangle")
        raise MeshError(f"boundary edge {e}: ({i},{j}) is interior (two triangles)")
    missing = np.setdiff1d(keys[counts == 1], bkeys)
    if missing.size:
        i, j = divmod(int(missing[0]), n)
        raise MeshError(f"boundary edge ({i},{j}) of the triangulation carries no tag")

    if not np.any(mesh.edge_tags == "D"):
        raise MeshError("empty Dirichlet part")
    # the free-dof operators are singular on a connected piece that the D part does not hold
    n_pieces, piece = connected_components(_node_graph(tri, n), directed=False)
    held = np.zeros(n_pieces, dtype=bool)
    held[piece[be[mesh.edge_tags == "D"].ravel()]] = True
    floating = np.flatnonzero(~held[piece])
    if floating.size:
        raise MeshError(f"the piece of the mesh holding node {floating[0]} touches no D edge")

    owner = owners[pos]
    third = nodes[tri[owner].sum(axis=1) - be.sum(axis=1)]
    start, end = nodes[be[:, 0]], nodes[be[:, 1]]
    tvec = end - start
    normals = np.column_stack([tvec[:, 1], -tvec[:, 0]])
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    outward = np.einsum("ei,ei->e", normals, third - 0.5 * (start + end)) <= 0
    normals = np.where(outward[:, None], normals, -normals)
    mesh.edge_owner = owner
    mesh.edge_normals = normals
    mesh.areas, mesh.grads = areas, grads
    products = areas[:, None, None, None, None] * grads[:, :, None, :, None] * grads[:, None, :, None, :]
    mesh.grad_products = products.reshape(-1, 4, 9)
    n_tri = tri.shape[0]
    mesh.grad = sp.csr_matrix((grads.ravel(), np.repeat(tri, 2, axis=0).ravel(), np.arange(0, 6 * n_tri + 1, 3)),
                              shape=(2 * n_tri, n), copy=True)
    mesh.grad.sort_indices()
    mesh.grad_t = mesh.grad.T.tocsr()
    mesh.midpoints = 0.5 * (nodes[tri] + nodes[tri[:, [1, 2, 0]]])
    for arr in (nodes, tri, be, mesh.edge_tags, normals, owner, areas, grads, mesh.grad_products,
                mesh.midpoints, *_csr_arrays(mesh.grad), *_csr_arrays(mesh.grad_t)):
        arr.setflags(write=False)
    return mesh


def _node_graph(triangles: np.ndarray, n: int) -> sp.csr_matrix:
    """(n, n) symmetric adjacency of the nodes joined by a triangle edge."""
    ends = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    rows, cols = np.concatenate([ends, ends[:, ::-1]]).T
    return sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))


def _csr_arrays(matrix: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The data, indices and indptr arrays of a CSR matrix."""
    return matrix.data, matrix.indices, matrix.indptr


def load_mesh(path: str) -> Mesh:
    """Read a mesh from the plain-text format.

    Format: header ``nodes <N> triangles <T> edges <E>``; N lines ``x y``;
    T lines ``i j k`` (0-based, counterclockwise); E lines ``i j TAG`` with
    TAG in {D, N, C}. Whitespace-separated; ``#`` starts a comment.
    """
    with open(path, "rb") as f:
        blob = f.read()
    try:
        raw = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MeshError(f"mesh file '{path}' is not UTF-8 text: {exc}") from None
    tokens: list[str] = []
    lines_of: list[int] = []
    for ln, line in enumerate(raw.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            tokens.append(tok)
            lines_of.append(ln)
    pos = 0

    def take(n: int, what: str) -> list[str]:
        nonlocal pos
        if pos + n > len(tokens):
            raise MeshError(f"unexpected end of file while reading {what}")
        out = tokens[pos:pos + n]
        pos += n
        return out

    head = take(6, "header")
    if head[0] != "nodes" or head[2] != "triangles" or head[4] != "edges":
        raise MeshError("malformed header; expected 'nodes <N> triangles <T> edges <E>'")
    try:
        n_nodes, n_tri, n_edges = int(head[1]), int(head[3]), int(head[5])
    except ValueError as exc:
        raise MeshError(f"malformed header counts: {exc}") from exc
    for name, count in (("nodes", n_nodes), ("triangles", n_tri), ("edges", n_edges)):
        if count < 0:
            raise MeshError(f"malformed header counts: {name} {count} is negative")

    def ints(vals: list[str], what: str) -> list[int]:
        try:
            return [int(v) for v in vals]
        except ValueError as exc:
            raise MeshError(f"{what}: {exc}") from exc

    try:
        nodes = np.array([[float(v) for v in take(2, f"node {i}")] for i in range(n_nodes)])
    except ValueError as exc:
        raise MeshError(f"node coordinate: {exc}") from exc
    nodes = nodes.reshape(n_nodes, 2) if n_nodes else np.zeros((0, 2))
    triangles = np.array(
        [ints(take(3, f"triangle {i}"), f"triangle {i}") for i in range(n_tri)], dtype=np.int64
    ).reshape(n_tri, 3)
    edges = []
    tags = []
    for e in range(n_edges):
        i, j = ints(take(2, f"edge {e}"), f"edge {e}")
        tag = take(1, f"edge {e} tag")[0]
        if tag not in VALID_TAGS:
            raise MeshError(f"edge {e} (line {lines_of[pos - 1]}): bad tag {tag!r}")
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise MeshError(f"edge {e}: node index ({i},{j}) out of range")
        edges.append((i, j))
        tags.append(tag)
    if pos != len(tokens):
        raise MeshError(f"trailing data at line {lines_of[pos]}")

    mesh = Mesh(
        nodes=nodes,
        triangles=triangles,
        boundary_edges=np.array(edges, dtype=np.int64).reshape(n_edges, 2),
        edge_tags=np.array(tags, dtype=object),
    )
    return _validate(mesh)


def build_unit_square_mesh(n: int, tags: dict[str, str] | None = None) -> Mesh:
    """Structured criss triangulation of the unit square.

    Parameters
    ----------
    n : int
        Subdivisions per side; the mesh has (n+1)^2 nodes and 2 n^2 triangles.
    tags : dict, optional
        Tag per side, keys "left", "right", "bottom", "top", values in
        {"D", "N", "C"}. Default: left D, bottom C, right and top N.
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    if tags is None:
        tags = {"left": "D", "bottom": "C", "right": "N", "top": "N"}
    for side in ("left", "right", "bottom", "top"):
        if tags.get(side) not in VALID_TAGS:
            raise MeshError(f"side {side!r}: tag must be one of {VALID_TAGS}")

    xs = np.linspace(0.0, 1.0, n + 1)
    nodes = np.column_stack([np.tile(xs, n + 1), np.repeat(xs, n + 1)])
    idx = np.arange((n + 1) ** 2, dtype=np.int64).reshape(n + 1, n + 1)  # idx[iy, ix]
    v00, v10, v01, v11 = idx[:-1, :-1], idx[:-1, 1:], idx[1:, :-1], idx[1:, 1:]
    # two triangles per cell, cells in row order
    triangles = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)
    # for k = 0..n-1, the k-th edge of the bottom, right, top and left side, each run
    # counterclockwise round the square
    edges = np.stack([idx[0, :-1], idx[0, 1:], idx[:-1, -1], idx[1:, -1],
                      idx[-1, 1:], idx[-1, :-1], idx[1:, 0], idx[:-1, 0]], axis=-1).reshape(-1, 2)
    side_tags = [tags[side] for side in ("bottom", "right", "top", "left")]

    mesh = Mesh(
        nodes=nodes,
        triangles=triangles,
        boundary_edges=edges,
        edge_tags=np.array(side_tags * n, dtype=object),
    )
    return _validate(mesh)


def build_dof_maps(mesh: Mesh) -> DofMap:
    """Derive the free-dof sets and contact frames from the boundary tags.

    The free nodes are numbered in reverse Cuthill-McKee order on their
    triangle-edge graph, whatever the numbering of the mesh, so the band of
    the free-dof patterns stays near the width of a mesh front (Cuthill and
    McKee 1969; George and Liu, Computer Solution of Large Sparse Positive
    Definite Systems, 1981) and a factor reads it straight from the CSR.
    """
    n = mesh.n_nodes
    d_edges = mesh.edges_with_tag("D")
    dirichlet = np.unique(mesh.boundary_edges[d_edges].ravel()) if d_edges.size else np.array([], dtype=np.int64)
    mask = np.ones(n, dtype=bool)
    mask[dirichlet] = False
    free = np.flatnonzero(mask)
    if not free.size:
        raise MeshError("no free node: every node lies on the Dirichlet part")
    free = free[reverse_cuthill_mckee(_node_graph(mesh.triangles, n)[free][:, free], symmetric_mode=True)]
    node_to_free = np.full(n, -1, dtype=np.int64)
    node_to_free[free] = np.arange(free.size)

    c_edges = mesh.edges_with_tag("C")
    if c_edges.size:
        conn = mesh.boundary_edges[c_edges]
        contact = np.unique(conn.ravel())
        normals = np.tile(mesh.edge_normals[c_edges], (1, 2))
        nu = scatter_load(xy_dofs(conn), normals, 2 * n).reshape(n, 2)[contact]
        nu /= np.linalg.norm(nu, axis=1)[:, None]
        tau = np.column_stack([-nu[:, 1], nu[:, 0]])
    else:
        contact = np.array([], dtype=np.int64)
        nu = np.zeros((0, 2))
        tau = np.zeros((0, 2))

    vector_to_free = np.full(2 * n, -1, dtype=np.int64)
    vector_to_free[xy_dofs(free)] = np.arange(2 * free.size)
    return DofMap(
        n_nodes=n,
        dirichlet_nodes=dirichlet,
        scalar_free_nodes=free,
        node_to_free=node_to_free,
        contact_nodes=contact,
        contact_normal=nu,
        contact_tangent=tau,
        scalar=_free_pattern(mesh.triangles, mesh.boundary_edges, node_to_free, free.size,
                             mesh.grad_products),
        vector=_free_pattern(xy_dofs(mesh.triangles), xy_dofs(mesh.boundary_edges),
                             vector_to_free, 2 * free.size),
    )


# Two-point Gauss rule on the unit edge, and the values of the two edge
# basis functions at its points; row = point, column = basis
GAUSS2 = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
GAUSS2_BASIS = np.column_stack([1.0 - GAUSS2, GAUSS2])


def xy_dofs(nodes: np.ndarray) -> np.ndarray:
    """Interleaved (x, y) dof ids 2*node, 2*node + 1 of (..., k) node ids, as (..., 2k)."""
    return np.stack([2 * nodes, 2 * nodes + 1], axis=-1).reshape(*nodes.shape[:-1], 2 * nodes.shape[-1])


def _entry_keys(conn: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """(E, k*k) keys row * n + col of the local matrix entries of an (E, k) dof connectivity.

    ``index`` maps each dof to its row/column among n; an entry whose row or
    column maps to -1 gets key -1.
    """
    k = conn.shape[1]
    rows = index[np.repeat(conn, k, axis=1)]
    cols = index[np.tile(conn, (1, k))]
    return np.where((rows >= 0) & (cols >= 0), rows * n + cols, -1)


@dataclass(frozen=True)
class FreePattern:
    """Fixed CSR sparsity of the P1 forms on one free-dof space of a mesh.

    ``indptr``/``indices`` hold the (n, n) pattern of the triangle
    connectivity. ``tri`` (T, k*k) and ``edge`` (E, m*m) give the position
    in ``indices`` of every entry of a triangle and a boundary-edge local
    matrix, in row-major local order, over all triangles and all boundary
    edges of the mesh. An entry in a Dirichlet row or column has position
    nnz and is dropped. Every boundary edge is a triangle edge, so edge
    entries land in the same pattern, and matrices assembled here add as
    their data arrays.

    ``layout`` is the :class:`BandLayout` of the pattern, which
    :func:`factor_banded` reads to place a data array in band storage.

    ``form`` (scalar pattern only) is the (nnz, 4T) CSR matrix that takes a
    per-element coefficient ``kt`` (T, 4) of a gradient form to its data
    array: ``form @ kt.ravel()`` sums ``kt[t, 2 i + j] * area * grad_i(a) *
    grad_j(b)`` over the triangles into the slot of every entry [a, b].
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    tri: np.ndarray
    edge: np.ndarray
    layout: BandLayout
    form: sp.csr_matrix | None = None

    def _sum(self, slots: np.ndarray, local: np.ndarray) -> np.ndarray:
        nnz = self.indices.size
        return np.bincount(slots.ravel(), weights=np.ravel(local), minlength=nnz + 1)[:nnz]

    def sum_triangles(self, local: np.ndarray) -> np.ndarray:
        """Data array of the (T, k, k) triangle matrices summed into the pattern."""
        return self._sum(self.tri, local)

    def sum_edges(self, quad: EdgeQuadrature, local: np.ndarray) -> np.ndarray:
        """Data array of the (E, m, m) matrices on the quadrature's edges summed into the pattern."""
        return self._sum(self.edge[quad.ids], local)

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """The (n, n) matrix with the given data array on this pattern."""
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))


def _free_pattern(tri_conn: np.ndarray, edge_conn: np.ndarray, index: np.ndarray, n: int,
                  grad_products: np.ndarray | None = None) -> FreePattern:
    """Pattern of the triangle connectivity on the n dofs that index maps to 0..n-1.

    With the mesh's (T, 4, 9) ``grad_products`` it also builds the pattern's
    gradient ``form``.
    """
    tri_keys = _entry_keys(tri_conn, index, n)
    keys = np.sort(tri_keys[tri_keys >= 0])
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]]  # unique; np.unique took 8x as long here

    def slots(entry_keys):
        return np.where(entry_keys >= 0, np.searchsorted(keys, entry_keys), keys.size)

    indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
    tri_slots = slots(tri_keys)
    form = None
    if grad_products is not None:
        n_coef = 4 * grad_products.shape[0]
        rows = np.broadcast_to(tri_slots[:, None, :], grad_products.shape)
        cols = np.broadcast_to(np.arange(n_coef).reshape(-1, 4, 1), grad_products.shape)
        keep = rows < keys.size
        form = sp.csr_matrix((grad_products[keep], (rows[keep], cols[keep])), shape=(keys.size, n_coef))
    indices = (keys % n).astype(np.int32)
    out = FreePattern(n, indptr, indices, tri_slots, slots(_entry_keys(edge_conn, index, n)),
                      band_layout(indptr, indices, n), form)
    layout = out.layout
    for arr in (out.indptr, out.indices, out.tri, out.edge, layout.lower, layout.mirror, layout.band,
                *(_csr_arrays(form) if form is not None else ())):
        arr.setflags(write=False)
    return out


def scatter_load(conn: np.ndarray, local: np.ndarray, n: int) -> np.ndarray:
    """Sum (E, k) local vectors over the (E, k) dof connectivity into (n,)."""
    return np.bincount(conn.ravel(), weights=local.ravel(), minlength=n)


@dataclass
class EdgeQuadrature:
    """Two-point Gauss rule on the boundary edges with the given tags.

    ``ids`` (E,) are the edges' indices among the mesh's boundary edges,
    ``conn`` (E, 2) holds the node pairs, ``tags`` (E,) their tags,
    ``points`` (E, 2, 2) the coordinates of the two Gauss points of each
    edge, ``weights`` (E, 2) their weights (half the edge length), and
    ``normals`` (E, 2) the outward unit normals.
    """

    ids: np.ndarray
    conn: np.ndarray
    tags: np.ndarray
    points: np.ndarray
    weights: np.ndarray
    normals: np.ndarray

    def interpolate(self, nodal: np.ndarray) -> np.ndarray:
        """Values of a nodal field, (N,) or (N, 2), at the points: (E, 2) or (E, 2, 2)."""
        return np.einsum("ga,ea...->eg...", GAUSS2_BASIS, nodal[self.conn])

    def test(self, values: np.ndarray) -> np.ndarray:
        """Integrals of a field given at the points, (E, 2[, 2]), against the two edge basis functions."""
        return np.einsum("eg,eg...,ga->ea...", self.weights, values, GAUSS2_BASIS)


def edge_quadrature(mesh: Mesh, tags: tuple[str, ...]) -> EdgeQuadrature:
    """Gauss points, weights and normals of the boundary edges whose tag is in tags.

    Built once per mesh and tag tuple, kept on the mesh, read-only.
    """
    tags = tuple(tags)
    quad = mesh._quadratures.get(tags)
    if quad is None:
        ids = np.flatnonzero(np.isin(mesh.edge_tags, tags))
        conn = mesh.boundary_edges[ids]
        a = mesh.nodes[conn[:, 0]][:, None, :]
        b = mesh.nodes[conn[:, 1]][:, None, :]
        points = a + GAUSS2[None, :, None] * (b - a)
        weights = np.repeat(0.5 * mesh.edge_lengths()[ids][:, None], 2, axis=1)
        quad = EdgeQuadrature(ids, conn, mesh.edge_tags[ids], points, weights, mesh.edge_normals[ids])
        for arr in (quad.ids, quad.conn, quad.tags, quad.points, quad.weights, quad.normals):
            arr.setflags(write=False)
        mesh._quadratures[tags] = quad
    return quad


def blocked(local: np.ndarray, block) -> np.ndarray:
    """(E, 2k, 2k) vector form of (E, k, k) scalar local matrices, coupling components by block.

    ``block`` is (2, 2) or per element (E, 2, 2); rows and columns are the
    interleaved (x, y) dofs of the k nodes.
    """
    e, k = local.shape[:2]
    vec = local[:, :, None, :, None] * np.reshape(block, (-1, 1, 2, 1, 2))
    return vec.reshape(e, 2 * k, 2 * k)


def boundary_mass_local(quad: EdgeQuadrature, weight=1.0, block=None) -> np.ndarray:
    """P1 boundary mass on each of the quadrature's edges, weighted per Gauss point.

    ``weight`` is a scalar or (E, 2). Without ``block`` these are the scalar
    (E, 2, 2) matrices; with a (2, 2) or per-edge (E, 2, 2) ``block`` the
    (E, 4, 4) vector ones pairing ``block @ u`` with the test function.
    """
    local = np.einsum("eg,ga,gb->eab", quad.weights * weight, GAUSS2_BASIS, GAUSS2_BASIS)
    return local if block is None else blocked(local, block)


def unit_stiffness_local(mesh: Mesh) -> np.ndarray:
    """(T, 3, 3) unit-coefficient gradient form on each triangle."""
    return (mesh.grad_products[:, 0] + mesh.grad_products[:, 3]).reshape(-1, 3, 3)


@dataclass(frozen=True)
class BandCholesky:
    """Cholesky factor L L^T = A of an SPD matrix A, L in LAPACK lower band storage.

    ``band`` is the (kd + 1, n) band of L, ``band[i - j, j] = L[i, j]``.
    """

    band: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b for a (n,) or (n, m) right-hand side, which is left unchanged."""
        x, _ = lapack.dpbtrs(self.band, b, lower=1)
        return x


@dataclass(frozen=True)
class BandLU:
    """LU factor with partial pivoting of a nonsymmetric A, in LAPACK general band storage.

    ``lu`` and ``piv`` are ``dgbtrf``'s output for kd sub- and superdiagonals.
    """

    lu: np.ndarray
    piv: np.ndarray
    kd: int

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b for a (n,) or (n, m) right-hand side, which is left unchanged."""
        x, _ = lapack.dgbtrs(self.lu, self.kd, self.kd, b.reshape(b.shape[0], -1), self.piv)
        return x.reshape(b.shape)


def _check_pivots(routine: str, info: int, pivots: np.ndarray, what: str) -> None:
    """Raise for a failed LAPACK factorization, or for a NaN pivot, which passes LAPACK's test."""
    if info < 0:
        raise ValueError(f"{routine}: illegal value in argument {-info}")
    if info == 0 and not np.isfinite(pivots).all():
        info = 1 + int(np.argmin(np.isfinite(pivots)))
    if info > 0:
        raise np.linalg.LinAlgError(f"singular or indefinite matrix: pivot {info} of {pivots.size} is {what}")


@dataclass(frozen=True)
class BandLayout:
    """Where the data array of a CSR structure goes in LAPACK band storage.

    ``kd`` is the half bandwidth. One item per entry (i, j), i >= j, of the
    lower triangle: ``lower`` is the data position of entry (i, j),
    ``mirror`` that of (j, i), and ``band`` the flat position
    j (kd + 1) + i - j of [i - j, j] in the (kd + 1, n) lower band storage,
    in Fortran order, as LAPACK reads it.
    """

    n: int
    nnz: int
    kd: int
    lower: np.ndarray
    mirror: np.ndarray
    band: np.ndarray


def band_layout(indptr: np.ndarray, indices: np.ndarray, n: int) -> BandLayout:
    """Band layout of an (n, n) CSR structure with sorted column indices and no duplicates.

    The structure must hold the transpose of each of its entries, as every
    free-dof pattern does.
    """
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    cols = np.asarray(indices, dtype=np.int64)
    own = rows >= cols
    i, j = rows[own], cols[own]
    kd = int((i - j).max(initial=0))
    # int32 while every flat position of the (3 kd + 1, n) LU band storage fits
    dtype = np.int32 if (3 * kd + 1) * n < 2**31 else np.int64
    # the keys row * n + col ascend, as the structure is sorted
    mirror = np.searchsorted(rows * n + cols, j * n + i)
    return BandLayout(n, cols.size, kd, np.flatnonzero(own).astype(dtype), mirror.astype(dtype),
                      (j * (kd + 1) + i - j).astype(dtype))


# A matrix whose entries differ from its transpose's by at most this, relative
# to its largest entry, is factored as symmetric: Cholesky of its lower triangle.
SYMMETRY_RTOL = 1e-14


def factor_banded(matrix: sp.csr_matrix, layout: BandLayout) -> BandCholesky | BandLU:
    """Banded factor of a positive definite matrix, symmetric or not.

    ``layout`` is the :class:`BandLayout` of the matrix's free-dof pattern,
    ``FreePattern.layout``. The band is read in the numbering of the
    matrix, which :func:`build_dof_maps` makes banded. A matrix that equals
    its transpose within SYMMETRY_RTOL gets the Cholesky factor of its lower
    triangle (LAPACK ``dpbtrf``); any other, such as the temperature
    Jacobian of a conductivity with k != k^T, gets LAPACK's banded LU with
    partial pivoting (``dgbtrf``) on its full band. A pivot that is not a
    positive number (Cholesky) or is zero or not a number (LU) raises
    LinAlgError.
    """
    n = matrix.shape[0]
    if matrix.shape != (layout.n, layout.n) or matrix.nnz != layout.nnz:
        raise ValueError(f"a {matrix.shape} matrix with {matrix.nnz} entries is not on a layout "
                         f"of {layout.n} rows and {layout.nnz} entries")
    kd = layout.kd
    lower, mirror = matrix.data[layout.lower], matrix.data[layout.mirror]
    if np.abs(lower - mirror).max(initial=0.0) <= SYMMETRY_RTOL * np.abs(lower).max(initial=0.0):
        band = np.zeros((kd + 1) * n)
        band[layout.band] = lower
        band, info = lapack.dpbtrf(band.reshape(n, kd + 1).T, lower=1, overwrite_ab=1)
        _check_pivots("dpbtrf", info, band[0], "not a positive number")  # L's diagonal
        return BandCholesky(band)
    # [2 kd + i - j, j] = A[i, j], and A[j, i] at [2 kd - d, j + d], d = i - j
    j, d = np.divmod(layout.band, kd + 1)
    band = np.zeros((3 * kd + 1) * n)
    band[j * (3 * kd + 1) + 2 * kd + d] = lower
    band[(j + d) * (3 * kd + 1) + 2 * kd - d] = mirror
    lu, piv, info = lapack.dgbtrf(band.reshape(n, 3 * kd + 1).T, kd, kd, overwrite_ab=1)
    _check_pivots("dgbtrf", info, lu[2 * kd], "zero or not a number")  # U's diagonal
    return BandLU(lu, piv, kd)


def _pencil_top_root(bmat: sp.csr_matrix, kmat: sp.csr_matrix) -> float:
    """sqrt of the largest lambda of B x = lambda K x, for B symmetric PSD and K SPD.

    ARPACK (``eigsh``) in generalized mode, which solves with K through its
    sparse LU. The start vector is seeded random rather than a constant one,
    which can be K-orthogonal to the top mode of a symmetric mesh.
    """
    if bmat.nnz == 0 or abs(bmat).max() == 0.0:
        return 0.0
    if bmat.shape[0] == 1:  # eigsh needs k < n
        return float(np.sqrt(bmat[0, 0] / kmat[0, 0]))
    v0 = np.random.default_rng(0).standard_normal(bmat.shape[0])
    lam = spla.eigsh(bmat, k=1, M=kmat.tocsc(), which="LA", v0=v0, return_eigenvectors=False)[0]
    return float(np.sqrt(max(lam, 0.0)))


def estimate_trace_norm(mesh: Mesh, dofs: DofMap) -> float:
    """Discrete norm of the tangential contact trace on the vector space.

    The square of the returned value is the largest generalized eigenvalue of
    the tangentially projected boundary mass on the C part against the
    componentwise gradient inner product, both restricted to free vector dofs.
    Without C edges the trace operator is zero, and so is the returned value.
    """
    quad = edge_quadrature(mesh, ("C",))
    if not quad.conn.size:
        return 0.0
    tangential = np.eye(2) - np.einsum("ei,ej->eij", quad.normals, quad.normals)
    p = dofs.vector
    btau = p.csr(p.sum_edges(quad, boundary_mass_local(quad, block=tangential)))
    kvec = p.csr(p.sum_triangles(blocked(unit_stiffness_local(mesh), np.eye(2))))
    return _pencil_top_root(btau, kvec)


def estimate_scalar_trace_norm(mesh: Mesh, dofs: DofMap, parts: tuple[str, ...] = ("N", "C")) -> float:
    """Discrete norm of the scalar boundary trace onto the given parts.

    Same pencil construction as :func:`estimate_trace_norm` but for the
    scalar space with the plain (unprojected) boundary mass on the edges
    whose tag lies in ``parts``.
    """
    quad = edge_quadrature(mesh, parts)
    if not quad.conn.size:
        return 0.0
    p = dofs.scalar
    bmat = p.csr(p.sum_edges(quad, boundary_mass_local(quad)))
    kmat = p.csr(p.sum_triangles(unit_stiffness_local(mesh)))
    return _pencil_top_root(bmat, kmat)
