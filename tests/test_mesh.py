from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from thermocontact.mesh import (
    MeshError,
    build_dof_maps,
    build_unit_square_mesh,
    estimate_scalar_trace_norm,
    estimate_trace_norm,
    load_mesh,
    triangle_geometry,
)

import oracles
from test_patterns import perturbed_mesh_text

SQUARE_FILE = """\
# smallest admissible square
nodes 4 triangles 2 edges 4
0 0
1 0
1 1
0 1
0 1 2
0 2 3
0 1 C   # bottom
1 2 N
2 3 N
3 0 D   # left
"""


def write(tmp_path, text):
    p = tmp_path / "mesh.txt"
    p.write_text(text)
    return str(p)


class TestLoadMesh:
    def test_smallest_square(self, tmp_path):
        mesh = load_mesh(write(tmp_path, SQUARE_FILE))
        assert mesh.triangles.shape == (2, 3)
        assert list(mesh.edge_tags).count("D") == 1
        assert list(mesh.edge_tags).count("C") == 1
        assert list(mesh.edge_tags).count("N") == 2

    def test_all_neumann_rejected(self, tmp_path):
        text = SQUARE_FILE.replace("3 0 D", "3 0 N").replace("0 1 C", "0 1 N")
        with pytest.raises(MeshError, match="empty Dirichlet part"):
            load_mesh(write(tmp_path, text))

    def test_node_index_out_of_range(self, tmp_path):
        text = SQUARE_FILE.replace("3 0 D", "3 9 D")
        with pytest.raises(MeshError, match="edge 3"):
            load_mesh(write(tmp_path, text))

    def test_bad_tag(self, tmp_path):
        text = SQUARE_FILE.replace("3 0 D", "3 0 Q")
        with pytest.raises(MeshError, match="bad tag"):
            load_mesh(write(tmp_path, text))

    def test_clockwise_triangle_rejected(self, tmp_path):
        text = SQUARE_FILE.replace("0 1 2\n", "0 2 1\n", 1)
        with pytest.raises(MeshError, match="orientation"):
            load_mesh(write(tmp_path, text))

    def test_untagged_boundary_edge_rejected(self, tmp_path):
        text = SQUARE_FILE.replace("nodes 4 triangles 2 edges 4", "nodes 4 triangles 2 edges 3")
        text = text.replace("3 0 D   # left\n", "")
        with pytest.raises(MeshError, match="no tag"):
            load_mesh(write(tmp_path, text))

    def test_node_in_no_triangle_rejected(self, tmp_path):
        text = SQUARE_FILE.replace("nodes 4", "nodes 5").replace("0 1\n0 1 2", "0 1\n5 5\n0 1 2")
        with pytest.raises(MeshError, match="holding node 4 touches no D edge"):
            load_mesh(write(tmp_path, text))

    def test_pieces_sharing_a_node_are_held_together(self, tmp_path):
        # the second triangle meets the first at node 2 only and has no D edge
        text = ("nodes 5 triangles 2 edges 6\n0 0\n1 0\n1 1\n2 1\n2 2\n0 1 2\n2 3 4\n"
                "0 1 N\n1 2 N\n2 0 D\n2 3 C\n3 4 N\n4 2 N\n")
        mesh = load_mesh(write(tmp_path, text))
        assert set(build_dof_maps(mesh).scalar_free_nodes.tolist()) == {1, 3, 4}

    @pytest.mark.parametrize("header,negative", [
        ("nodes -2 triangles 0 edges 0", "nodes -2"),
        ("nodes 3 triangles -1 edges 0", "triangles -1"),
        ("nodes 3 triangles 1 edges -1", "edges -1"),
    ])
    def test_negative_header_count_rejected(self, tmp_path, header, negative):
        text = f"{header}\n0 0\n1 0\n0 1\n0 1 2\n"
        with pytest.raises(MeshError, match=f"malformed header counts: {negative} is negative"):
            load_mesh(write(tmp_path, text))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_rejected(self, tmp_path, value):
        # a NaN area would pass the orientation test
        text = SQUARE_FILE.replace("\n1 1\n", f"\n1 {value}\n")
        with pytest.raises(MeshError, match=r"^node 2: non-finite coordinate$"):
            load_mesh(write(tmp_path, text))

    def test_truncated_file(self, tmp_path):
        text = "nodes 4 triangles 2 edges 4\n0 0\n1 0\n"
        with pytest.raises(MeshError, match="end of file"):
            load_mesh(write(tmp_path, text))


class TestBuildUnitSquare:
    def test_counts_n1(self):
        mesh = build_unit_square_mesh(1)
        assert mesh.triangles.shape[0] == 2
        assert mesh.n_nodes == 4

    def test_counts_n2(self):
        mesh = build_unit_square_mesh(2)
        assert mesh.triangles.shape[0] == 8
        assert mesh.n_nodes == 9

    def test_all_dirichlet(self):
        tags = {s: "D" for s in ("left", "right", "bottom", "top")}
        mesh = build_unit_square_mesh(4, tags)
        assert mesh.triangles.shape[0] == 32
        dofs = build_dof_maps(mesh)
        assert dofs.contact_nodes.size == 0

    @pytest.mark.parametrize("tags", [
        {"left": "D", "bottom": "C", "right": "N", "top": "N"},
        {"left": "N", "bottom": "D", "right": "C", "top": "D"},
    ])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_matches_loop_construction(self, n, tags):
        got, ref = build_unit_square_mesh(n, tags), oracles.unit_square_mesh_loops(n, tags)
        for name in ("nodes", "triangles", "boundary_edges", "edge_tags", "edge_normals", "edge_owner"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name

    def test_n_zero_rejected(self):
        with pytest.raises(MeshError):
            build_unit_square_mesh(0)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_area_and_perimeter(self, n):
        mesh = build_unit_square_mesh(n)
        areas, _ = triangle_geometry(mesh)
        assert abs(areas.sum() - 1.0) <= 1e-12
        assert abs(mesh.edge_lengths().sum() - 4.0) <= 1e-12

    def test_normals_unit_and_outward(self):
        mesh = build_unit_square_mesh(3)
        for e, (i, j) in enumerate(mesh.boundary_edges):
            nu = mesh.edge_normals[e]
            assert abs(np.linalg.norm(nu) - 1.0) <= 1e-12
            tri = mesh.triangles[mesh.edge_owner[e]]
            centroid = mesh.nodes[tri].mean(axis=0)
            mid = 0.5 * (mesh.nodes[i] + mesh.nodes[j])
            assert np.dot(nu, centroid - mid) < 0


class TestDofMaps:
    def test_n1_left_dirichlet(self):
        mesh = build_unit_square_mesh(1)
        dofs = build_dof_maps(mesh)
        assert dofs.dirichlet_nodes.size == 2
        assert dofs.n_free_scalar == 2
        assert dofs.n_free_vector == 4

    def test_no_free_node_rejected(self):
        mesh = build_unit_square_mesh(1, {"left": "D", "right": "D", "bottom": "C", "top": "N"})
        with pytest.raises(MeshError, match="no free node"):
            build_dof_maps(mesh)

    def test_all_dirichlet_center_free(self):
        tags = {s: "D" for s in ("left", "right", "bottom", "top")}
        mesh = build_unit_square_mesh(2, tags)
        dofs = build_dof_maps(mesh)
        assert dofs.n_free_scalar == 1
        assert np.allclose(mesh.nodes[dofs.scalar_free_nodes[0]], [0.5, 0.5])

    def test_no_contact_edges(self):
        tags = {"left": "D", "right": "N", "bottom": "N", "top": "N"}
        dofs = build_dof_maps(build_unit_square_mesh(2, tags))
        assert dofs.contact_nodes.size == 0

    def test_corner_shared_with_dirichlet_is_constrained(self):
        # bottom-left corner lies on both the left (D) and bottom (C) sides
        mesh = build_unit_square_mesh(2)
        dofs = build_dof_maps(mesh)
        corner = 0
        assert corner in dofs.dirichlet_nodes
        assert corner in dofs.contact_nodes
        assert dofs.node_to_free[corner] == -1

    def test_contact_frames_orthonormal(self):
        mesh = build_unit_square_mesh(3)
        dofs = build_dof_maps(mesh)
        for nu, tau in zip(dofs.contact_normal, dofs.contact_tangent):
            assert abs(np.linalg.norm(nu) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(tau) - 1.0) <= 1e-12
            assert abs(nu @ tau) <= 1e-12

    def test_vector_dofs_interleaved(self):
        mesh = build_unit_square_mesh(2)
        dofs = build_dof_maps(mesh)
        vd = dofs.vector_free_dofs()
        assert np.array_equal(vd[0::2], 2 * dofs.scalar_free_nodes)
        assert np.array_equal(vd[1::2], 2 * dofs.scalar_free_nodes + 1)

    def test_band_of_a_shuffled_mesh(self, tmp_path):
        # reverse Cuthill-McKee undoes a random node numbering: the band of the
        # free-dof patterns stays about one mesh row wide, where the file's own
        # numbering spans nearly the whole mesh
        n = 8
        mesh = load_mesh(write(tmp_path, perturbed_mesh_text(n, seed=3)))
        dofs = build_dof_maps(mesh)
        bands = []
        for pattern in (dofs.scalar, dofs.vector):
            rows = np.repeat(np.arange(pattern.n), np.diff(pattern.indptr))
            bands.append(int(np.abs(rows - pattern.indices).max()))
        assert bands[0] <= n + 3 and bands[1] <= 2 * (n + 3)
        assert np.abs(mesh.triangles - mesh.triangles[:, [1, 2, 0]]).max() > 5 * bands[0]
        np.testing.assert_array_equal(dofs.node_to_free[dofs.scalar_free_nodes], np.arange(dofs.n_free_scalar))
        assert (dofs.node_to_free[dofs.dirichlet_nodes] == -1).all()

    def test_deterministic(self):
        a = build_dof_maps(build_unit_square_mesh(3))
        b = build_dof_maps(build_unit_square_mesh(3))
        assert np.array_equal(a.scalar_free_nodes, b.scalar_free_nodes)
        assert np.array_equal(a.contact_nodes, b.contact_nodes)
        assert np.array_equal(a.contact_normal, b.contact_normal)


class TestTraceNorm:
    def test_zero_without_contact_part(self):
        tags = {"left": "D", "right": "N", "bottom": "N", "top": "N"}
        mesh = build_unit_square_mesh(2, tags)
        assert estimate_trace_norm(mesh, build_dof_maps(mesh)) == 0.0

    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_dense_eigensolver(self, n):
        mesh = build_unit_square_mesh(n)
        dofs = build_dof_maps(mesh)
        value = estimate_trace_norm(mesh, dofs)

        free = dofs.vector_free_dofs()
        bmat = oracles.restrict(oracles.dense_tangential_contact_mass(mesh), free)
        kmat = oracles.restrict(oracles.dense_componentwise_vector_stiffness(mesh), free)
        lam = scipy.linalg.eigh(bmat, kmat, eigvals_only=True)[-1]
        assert value == pytest.approx(np.sqrt(lam), rel=1e-12)

    def test_one_free_node_matches_dense(self):
        # the free node (1, 1) touches the C (right) and N (top) sides: a 2x2
        # vector pencil and a 1x1 scalar one
        mesh = build_unit_square_mesh(1, {"left": "D", "bottom": "D", "right": "C", "top": "N"})
        dofs = build_dof_maps(mesh)
        assert dofs.n_free_scalar == 1
        free = dofs.vector_free_dofs()
        bmat = oracles.restrict(oracles.dense_tangential_contact_mass(mesh), free)
        kmat = oracles.restrict(oracles.dense_componentwise_vector_stiffness(mesh), free)
        lam = scipy.linalg.eigh(bmat, kmat, eigvals_only=True)[-1]
        assert estimate_trace_norm(mesh, dofs) == pytest.approx(np.sqrt(lam), rel=1e-12)

        f = dofs.scalar_free_nodes
        bmat = oracles.restrict(oracles.dense_boundary_mass(mesh, ("N", "C")), f)
        kmat = oracles.restrict(oracles.dense_scalar_stiffness(mesh), f)
        lam = scipy.linalg.eigh(bmat, kmat, eigvals_only=True)[-1]
        assert estimate_scalar_trace_norm(mesh, dofs) == pytest.approx(np.sqrt(lam), rel=1e-12)

    def test_refinement_monotone_bounded(self):
        vals = []
        for n in (4, 8, 16):
            mesh = build_unit_square_mesh(n)
            vals.append(estimate_trace_norm(mesh, build_dof_maps(mesh)))
        assert vals[0] <= vals[1] + 1e-12
        assert vals[1] <= vals[2] + 1e-12
        assert vals[2] < 5.0

    @pytest.mark.parametrize("parts", [("N", "C"), ("C",), ("N",)])
    def test_scalar_trace_matches_dense(self, parts):
        mesh = build_unit_square_mesh(3)
        dofs = build_dof_maps(mesh)
        value = estimate_scalar_trace_norm(mesh, dofs, parts=parts)

        f = dofs.scalar_free_nodes
        bmat = oracles.restrict(oracles.dense_boundary_mass(mesh, parts), f)
        kmat = oracles.restrict(oracles.dense_scalar_stiffness(mesh), f)
        lam = scipy.linalg.eigh(bmat, kmat, eigvals_only=True)[-1]
        assert value == pytest.approx(np.sqrt(max(lam, 0.0)), rel=1e-12)

    def test_scalar_trace_empty_parts(self):
        mesh = build_unit_square_mesh(2)
        dofs = build_dof_maps(mesh)
        tags = {"left": "D", "right": "D", "bottom": "D", "top": "D"}
        mesh2 = build_unit_square_mesh(2, tags)
        assert estimate_scalar_trace_norm(mesh2, build_dof_maps(mesh2)) == 0.0
        assert estimate_scalar_trace_norm(mesh, dofs) > 0.0
