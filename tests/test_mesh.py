import hypothesis.strategies as strat
import numpy as np
import pytest
from hypothesis import given, settings

from robinsplit.errors import ConfigurationError
from robinsplit.fem import FeSpace
from robinsplit.mesh import build_two_domain_mesh

from oracles import interface_edges, mesh_to_text, triangle_areas, two_domain_mesh_loops


def test_counts_nx4():
    mesh = build_two_domain_mesh(4, 0.75)
    assert len(mesh.triangles_f) == 24
    assert len(mesh.triangles_s) == 8
    assert len(FeSpace(mesh, "fluid", 1).interface_dofs) == 5


def test_subdomain_areas_nx4():
    mesh = build_two_domain_mesh(4, 0.75)
    af = triangle_areas(mesh.vertices, mesh.triangles_f)
    a_s = triangle_areas(mesh.vertices, mesh.triangles_s)
    assert np.all(af > 0)
    assert np.all(a_s > 0)
    assert abs(af.sum() - 0.75) < 1e-14
    assert abs(a_s.sum() - 0.25) < 1e-14


def test_half_split_counts_match():
    mesh = build_two_domain_mesh(4, 0.5)
    assert len(mesh.triangles_f) == len(mesh.triangles_s) == 16


def test_rejects_nonintegral_split():
    with pytest.raises(ConfigurationError):
        build_two_domain_mesh(4, 0.7)


def test_rejects_tiny_nx():
    with pytest.raises(ConfigurationError):
        build_two_domain_mesh(1, 0.5)


def test_interface_edges_nx4():
    space = FeSpace(build_two_domain_mesh(4, 0.75), "fluid", 1)
    edges = interface_edges(space)
    assert len(edges) == 4
    assert abs(sum(e[2] for e in edges) - 1.0) < 1e-14
    assert space.dof_coords[edges[0][0], 0] == 0.0


def test_interface_edges_nx8_uniform():
    mesh = build_two_domain_mesh(8, 0.75)
    for order in (1, 2):
        for subdomain in ("fluid", "solid"):
            space = FeSpace(mesh, subdomain, order)
            edges = interface_edges(space)
            assert len(edges) == 8
            for _, _, length in edges:
                assert abs(length - 0.125) < 1e-14
            assert np.array_equal(space._interface_lengths, [e[2] for e in edges])


def test_interface_nodes_sorted_on_line():
    mesh = build_two_domain_mesh(8, 0.75)
    for order in (1, 2):
        for subdomain in ("fluid", "solid"):
            space = FeSpace(mesh, subdomain, order)
            pts = space.dof_coords[space.interface_dofs]
            assert len(pts) == 8 * order + 1
            assert np.all(pts[:, 1] == 0.75)
            assert np.all(np.diff(pts[:, 0]) > 0)


def test_conformity_fluid_vs_solid():
    # vertices on the dividing line seen from either side must coincide
    mesh = build_two_domain_mesh(6, 0.5)
    on_line = set()
    for tri in mesh.triangles_f:
        for v in tri:
            if mesh.vertices[v, 1] == 0.5:
                on_line.add(int(v))
    from_solid = set()
    for tri in mesh.triangles_s:
        for v in tri:
            if mesh.vertices[v, 1] == 0.5:
                from_solid.add(int(v))
    assert on_line == from_solid
    xs = np.sort(mesh.vertices[list(on_line), 0])
    for subdomain in ("fluid", "solid"):
        assert np.array_equal(FeSpace(mesh, subdomain, 1).interface_x, xs)


def _euler_characteristic(triangles):
    verts = set(int(v) for tri in triangles for v in tri)
    edges = set()
    for a, b, c in triangles:
        for pair in ((a, b), (b, c), (a, c)):
            edges.add(tuple(sorted(int(p) for p in pair)))
    return len(verts) - len(edges) + len(triangles)


def test_euler_formula_each_subdomain():
    mesh = build_two_domain_mesh(4, 0.75)
    assert _euler_characteristic(mesh.triangles_f) == 1
    assert _euler_characteristic(mesh.triangles_s) == 1


def test_refinement_doubles_counts():
    coarse = build_two_domain_mesh(4, 0.75)
    fine = build_two_domain_mesh(8, 0.75)
    assert len(fine.triangles_f) == 4 * len(coarse.triangles_f)
    assert len(fine.triangles_s) == 4 * len(coarse.triangles_s)
    for subdomain in ("fluid", "solid"):
        len_c = FeSpace(coarse, subdomain, 1)._interface_lengths
        len_f = FeSpace(fine, subdomain, 1)._interface_lengths
        assert len(len_f) == 2 * len(len_c)
        assert np.max(np.abs(len_f - 0.5 * len_c[0])) < 1e-14


def test_alternating_diagonal_mirror_symmetric():
    # the oracle's alternating pattern maps onto itself under x -> 1 - x
    mesh = two_domain_mesh_loops(4, 0.75, diagonal="alternating")
    tri_sets = set()
    for tri in np.vstack([mesh.triangles_f, mesh.triangles_s]):
        pts = mesh.vertices[tri]
        tri_sets.add(frozenset((round(x, 12), round(y, 12)) for x, y in pts))
    mirrored = set()
    for tri in tri_sets:
        mirrored.add(frozenset((round(1.0 - x, 12), y) for x, y in tri))
    assert tri_sets == mirrored


def test_mesh_to_text_round_structure():
    mesh = build_two_domain_mesh(2, 0.5)
    text = mesh_to_text(mesh)
    lines = text.strip().splitlines()
    assert lines[0] == "# two-domain mesh nx=2 fluid_rows=1"
    kinds = {}
    for line in lines[1:]:
        kinds.setdefault(line.split()[0], 0)
        kinds[line.split()[0]] += 1
    assert kinds["v"] == len(mesh.vertices)
    assert kinds["tf"] == len(mesh.triangles_f)
    assert kinds["ts"] == len(mesh.triangles_s)
    # vertex coordinates are written with full repr precision
    first_v = lines[1].split()
    assert float(first_v[2]) == mesh.vertices[0, 0]


@given(strat.integers(min_value=2, max_value=12))
@settings(deadline=None, max_examples=12)
def test_total_area_any_nx(k):
    nx = 2 * k
    mesh = build_two_domain_mesh(nx, 0.5)
    total = (
        triangle_areas(mesh.vertices, mesh.triangles_f).sum()
        + triangle_areas(mesh.vertices, mesh.triangles_s).sum()
    )
    assert abs(total - 1.0) < 1e-12


@given(strat.sampled_from([4, 8, 12, 16]), strat.sampled_from(["criss", "alternating"]))
@settings(deadline=None, max_examples=8)
def test_every_triangle_positively_oriented(nx, diagonal):
    # the package builds the criss layout, the oracle the alternating one
    if diagonal == "criss":
        mesh = build_two_domain_mesh(nx, 0.75)
    else:
        mesh = two_domain_mesh_loops(nx, 0.75, diagonal)
    assert np.all(triangle_areas(mesh.vertices, mesh.triangles_f) > 0)
    assert np.all(triangle_areas(mesh.vertices, mesh.triangles_s) > 0)


@pytest.mark.parametrize("nx, split_y", [(2, 0.5), (4, 0.75), (5, 0.4), (8, 0.75), (12, 0.25)])
def test_mesh_arrays_match_loop_construction(nx, split_y):
    got = build_two_domain_mesh(nx, split_y)
    want = two_domain_mesh_loops(nx, split_y)
    for name in ("vertices", "triangles_f", "triangles_s"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
