import copy
import itertools
import random
import re
import tracemalloc
from collections import Counter
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (LIFT_OUTERS, GridScanMesh, broken_masks, edge_faces, face_lattice,
                      hex_edge_cycle, lattice_face, line_prefix_of, mask_of, per_byte_tables,
                      propellers, rhombus_ends, triangle_corners, vertex_triangles)
from hexdimer.diagrams import (DiagramError, NotAMatching, PlanePartition, WeightScheme,
                               diagram_of, enumerate_matchings, flippable_faces, matching_of,
                               tau_move)
from hexdimer.mesh import (
    MESH_CACHE_SIZE, BoxDims, Face, HexMesh, MeshError, OddDims,
    UnknownFace, Value, build_mesh, edge_table, positions,
)
from hexdimer.overlay import TwoFactor
from hexdimer.squish import EdgeWeighting, SquishError


def hex_points(mesh):
    """The lattice points that are a corner of six triangles of the mesh,
    sorted: the oracle for the hexagonal faces, the keys of
    HexMesh.hex_cycles."""
    seen = Counter(p for t in GridScanMesh(mesh.dims).vertices for p in triangle_corners(t))
    return sorted(p for p, n in seen.items() if n == 6)


ALL_SMALL = [BoxDims(a, b, c)
             for a in range(1, 5) for b in range(1, 5) for c in range(1, 5)]
# every dims up to (4,4,4) and the long thin boxes below
ORACLE_DIMS = [tuple(d) for d in ALL_SMALL] + [(2, 5, 3), (4, 1, 6), (4, 3, 5)]


def test_dims_validation():
    with pytest.raises(MeshError):
        BoxDims(0, 1, 1)
    assert BoxDims(2, 4, 6).is_even
    assert not BoxDims(2, 3, 2).is_even
    with pytest.raises(OddDims):
        BoxDims(1, 2, 2).halved()
    for bad in ((True, 1, 1), (1, 1.0, 1), (1, 1, "2")):
        with pytest.raises(MeshError, match="integers"):
            BoxDims(*bad)
    assert BoxDims(1, 2, 3).doubled() == BoxDims(2, 4, 6)


# -- the frozen value classes ------------------------------------------------


def value_fields():
    """Per value class, the fields of one instance."""
    mesh = build_mesh(BoxDims(1, 1, 1))
    n = mesh.edge_count
    return [
        (BoxDims, (1, 2, 3)),
        (WeightScheme, ("z2z2", (("p", "-p"), ("q", "-1")))),
        (PlanePartition, (BoxDims(2, 3, 2), ((2, 1, 0), (1, 1, 0)))),
        (TwoFactor, (BoxDims(1, 1, 1), 0, ((0, 3, 1, 4, 2, 5),))),
        (EdgeWeighting, (mesh, (1,) * (n - 1) + (-1,), tuple(range(n)))),
    ]


@pytest.mark.parametrize("cls, fields", value_fields(), ids=lambda v: getattr(v, "__name__", ""))
def test_value_classes_behave_as_frozen_dataclasses(cls, fields):
    # the frozen dataclass with the same fields is the oracle of the repr
    # and the hash, so sets of values iterate in the same order as before
    one, two = cls(*fields), cls(*fields)
    assert one == two and not one != two and hash(one) == hash(two)
    old = make_dataclass(cls.__name__, cls._fields, frozen=True)(*fields)
    assert repr(one) == repr(old) and hash(one) == hash(old)
    assert tuple(getattr(one, name) for name in cls._fields) == fields
    # the same fields in another class: never equal, either way round
    def init(self, *values):
        for name, value in zip(cls._fields, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", values)

    twin = type("Twin", (Value,), {"__slots__": cls._fields, "__init__": init})(*fields)
    assert one != twin and twin != one and not one == twin
    assert one != fields
    for name in cls._fields + ("other",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(one, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(one, name)
    assert one == two
    assert copy.copy(one) == one


def test_value_classes_refuse_what_they_refused():
    # every error of the validation each class ran after its fields were
    # set, with its message
    mesh = build_mesh(BoxDims(1, 1, 1))
    n = mesh.edge_count
    refusals = [
        (lambda: BoxDims(0, 1, 1), MeshError,
         "side lengths must be integers >= 1, got BoxDims(a=0, b=1, c=1)"),
        (lambda: BoxDims(1, 2.0, 1), MeshError,
         "side lengths must be integers >= 1, got BoxDims(a=1, b=2.0, c=1)"),
        (lambda: BoxDims(1, 1, True), MeshError,
         "side lengths must be integers >= 1, got BoxDims(a=1, b=1, c=True)"),
        (lambda: WeightScheme("cube"), DiagramError, "unknown weight scheme 'cube'"),
        (lambda: WeightScheme("mono", (("q", "-1"),)), DiagramError,
         "weight scheme 'mono' has no variable 'q'"),
        (lambda: WeightScheme("z2z2", (("q", "2"),)), DiagramError, "bad substitution q='2'"),
        (lambda: PlanePartition(BoxDims(2, 2, 1), ((1, 1),)), DiagramError,
         "heights matrix is not 2x2"),
        (lambda: PlanePartition(BoxDims(2, 2, 1), ((1, 1), (1,))), DiagramError,
         "heights matrix is not 2x2"),
        (lambda: PlanePartition(BoxDims(2, 2, 1), ((2, 1), (1, 0))), DiagramError,
         "height 2 at (0,0) is not an integer in [0,1]"),
        (lambda: PlanePartition(BoxDims(2, 2, 1), ((1, 1), (1, -1))), DiagramError,
         "height -1 at (1,1) is not an integer in [0,1]"),
        (lambda: PlanePartition(BoxDims(2, 2, 2), ((1, 1), (1.0, 0))), DiagramError,
         "height 1.0 at (1,0) is not an integer in [0,2]"),
        (lambda: PlanePartition(BoxDims(2, 2, 1), ((0, 0), (1, 0))), DiagramError,
         "heights increase along a column"),
        (lambda: PlanePartition(BoxDims(2, 2, 1), ((0, 1), (0, 0))), DiagramError,
         "heights increase along a row"),
        (lambda: EdgeWeighting(mesh, (1,) * (n - 1), (0,) * n), SquishError,
         f"{n - 1} signs and {n} exponents for {n} edges of H_(1, 1, 1)"),
        (lambda: EdgeWeighting(mesh, (1,) * n, (0,) * (n + 1)), SquishError,
         f"{n} signs and {n + 1} exponents for {n} edges of H_(1, 1, 1)"),
        (lambda: EdgeWeighting(mesh, (1,) * (n - 1) + (0,), (0,) * n), SquishError,
         "an edge sign is not +1 or -1"),
    ]
    for make, error, message in refusals:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make()
    assert WeightScheme() == WeightScheme("z2z2", ())
    assert EdgeWeighting(mesh, [1] * n, range(n)) == EdgeWeighting(mesh, (1,) * n, tuple(range(n)))


@pytest.mark.parametrize("dims", ALL_SMALL + [BoxDims(40, 2, 2), BoxDims(2, 40, 2),
                                  BoxDims(2, 2, 40), BoxDims(5, 1, 7), BoxDims(7, 3, 9)], ids=str)
def test_column_ranges_build_the_grid_scan_mesh(dims):
    # the numbering against the whole-grid scan, read at face level: the
    # edge positions decode to distinct faces of the scan, and the vertex
    # positions to distinct triangles, covering them all, in blocks (A, B,
    # C edges; down, then up vertices); position() inverts the decoding
    # and finds no edge at any other point, on the lines or off them; the
    # tables computed from the per-line runs are the scan's
    m, want = HexMesh(dims), GridScanMesh(dims)
    a, b, c = dims
    faces = [m.face(p) for p in range(m.edge_count)]
    triangles = vertex_triangles(m)
    assert sorted(faces) == list(want.edges) and sorted(triangles) == list(want.vertices)
    assert [f.cls for f in faces] == sorted(f.cls for f in faces)
    assert [t.up for t in triangles] == sorted(t.up for t in triangles)
    assert [m.edge(p) for p in range(m.edge_count)] == list(m.edge_points())
    assert [lattice_face(*e) for e in m.edge_points()] == faces
    for cls in "ABC":
        for x, y in itertools.product(range(-c - 2, a + 2), range(-c - 2, b + 2)):
            p = m.position(cls, x, y)
            assert faces[p] == lattice_face(cls, x, y) if p >= 0 else \
                lattice_face(cls, x, y) not in want.ends
    cycles = {pt: tuple(map(m.face, cycle)) for pt, cycle in m.hex_cycles.items()}
    assert list(cycles.items()) == list(want.hex_cycles.items())
    assert [(triangles[u], triangles[v]) for u, v in m.edge_ends] == [want.ends[f] for f in faces]
    assert m.faces_of(m.empty_matching) == want.empty_matching
    if dims.is_even:
        lifts = {m.base.face(j): (m.face(p), m.face(q)) for j, (p, q) in enumerate(m.lifts)}
        assert lifts == want.lifts


@pytest.mark.parametrize("dims", [BoxDims(2, 2, 3000), BoxDims(3000, 2, 2), BoxDims(2, 3000, 2)],
                         ids=str)
def test_the_mesh_build_walks_its_lines(monkeypatch, dims):
    # one pair of triangle runs per line, the a + b + 1 lines and one more
    # at each end, however long c is: the edge classes' runs are read off
    # them; the whole-grid scan made (a+c)(b+c) tests for each kind and
    # class
    import hexdimer.mesh as mesh

    lines = []
    real = mesh._triangle_runs
    monkeypatch.setattr(mesh, "_triangle_runs", lambda d, *sides:
                        lines.append(d) or real(d, *sides))
    a, b, c = dims
    m = HexMesh(dims)
    assert lines == list(range(-b - 1, a + 2))
    cells = a * b + b * c + c * a
    assert m.vertex_count == 2 * cells and m.edge_count == 3 * cells - a - b - c


def test_the_mesh_holds_no_vertex_or_edge():
    # the build keeps a few ints per line: at 182x182x182 (297,570 edges)
    # tracemalloc held 41.6 MB when the mesh stored its faces and triangles
    tracemalloc.start()
    try:
        m = HexMesh(BoxDims(182, 182, 182))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert m.edge_count == 297570 and held < 10 ** 6


@pytest.mark.parametrize("dims", ALL_SMALL, ids=str)
def test_vertex_and_edge_counts(dims):
    mesh = build_mesh(dims)
    a, b, c = dims
    pairs = a * b + b * c + c * a
    assert mesh.vertex_count == 2 * pairs
    assert mesh.edge_count == 3 * pairs - (a + b + c)
    # Euler: internal faces of a connected planar graph
    assert len(mesh.hex_cycles) == mesh.edge_count - mesh.vertex_count + 1


@pytest.mark.parametrize("dims", [BoxDims(1, 1, 1), BoxDims(2, 1, 1),
                                  BoxDims(2, 2, 2), BoxDims(3, 2, 1)], ids=str)
def test_bipartite_and_degrees(dims):
    mesh = build_mesh(dims)
    for u, v in mesh.edge_ends:
        assert vertex_triangles(mesh)[u].up and not vertex_triangles(mesh)[v].up  # opposite classes
    assert all(1 <= len(at) <= 3 for at in mesh.vertex_edges)


@pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
def test_edges_and_edge_ends_against_shared_sides(dims):
    mesh = build_mesh(BoxDims(*dims))
    ends = rhombus_ends(mesh)
    faces, triangles = edge_faces(mesh), vertex_triangles(mesh)
    assert sorted(faces) == list(ends)
    assert [(triangles[u], triangles[v]) for u, v in mesh.edge_ends] == [ends[f] for f in faces]
    # distinct, numbered down block first, then by line x - y, then by x
    assert list(triangles) == sorted(set(triangles), key=lambda t: (t.up, t.x - t.y, t.x))


@pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
def test_vertex_edges_list_each_vertex_edges_by_face(dims):
    # the edges at each vertex, found by scanning every rhombus's triangles,
    # listed by ascending position
    mesh = build_mesh(BoxDims(*dims))
    ends = rhombus_ends(mesh)
    faces, triangles = edge_faces(mesh), vertex_triangles(mesh)
    for v, t in enumerate(triangles):
        want = sorted((f, o) for f, ts in ends.items() if t in ts for o in ts if o != t)
        assert sorted((faces[e], triangles[o]) for e, o in mesh.vertex_edges[v]) == want
        assert sorted(mesh.vertex_edges[v]) == list(mesh.vertex_edges[v])


def test_small_examples():
    m = build_mesh(BoxDims(1, 1, 1))
    assert m.vertex_count == 6 and m.edge_count == 6 and len(m.hex_cycles) == 1
    m = build_mesh(BoxDims(2, 2, 2))
    assert m.vertex_count == 24 and m.edge_count == 30
    m = build_mesh(BoxDims(2, 1, 1))
    assert m.vertex_count == 10 and m.edge_count == 11
    assert len(m.hex_cycles) == 2


def test_hexagon_edge_cycle():
    m = build_mesh(BoxDims(1, 1, 1))
    (pt,) = m.hex_cycles
    cycle = m.hexface_edges(pt)
    assert len(cycle) == 6 and set(cycle) == set(range(m.edge_count))
    # consecutive edges share a vertex; each vertex seen exactly twice
    touched = []
    for i in range(6):
        shared = set(m.edge_ends[cycle[i]]) & set(m.edge_ends[cycle[(i + 1) % 6]])
        assert len(shared) == 1
        touched.append(shared.pop())
    assert sorted(touched) == list(range(m.vertex_count))


@pytest.mark.parametrize("dims", [BoxDims(1, 1, 1), BoxDims(3, 2, 1), BoxDims(4, 3, 5)],
                         ids=str)
def test_hex_cycles_are_the_mesh_edge_keys(dims):
    m = build_mesh(dims)
    assert list(m.hex_cycles) == list(m.hex_masks) == hex_points(m)
    for pt in m.hex_cycles:
        cycle = m.hexface_edges(pt)
        assert cycle is m.hex_cycles[pt]
        assert tuple(map(m.face, cycle)) == hex_edge_cycle(*pt)
        assert m.hex_masks[pt] == (mask_of(m, hex_edge_cycle(*pt)[0::2]),
                                   mask_of(m, hex_edge_cycle(*pt)[1::2]))


@pytest.mark.parametrize("dims", [BoxDims(1, 1, 1), BoxDims(3, 2, 1), BoxDims(2, 5, 3),
                                  BoxDims(4, 1, 6)], ids=str)
def test_slots_number_the_points_of_the_lines(dims):
    m = build_mesh(dims)
    a, b, c = dims
    size = a * b + (a + b + 1) * (c + 1)
    # slot numbers the points x in [max(0, d) - c - 1, min(a, d + b) - 1]
    # on the lines d in [-b, a] one to one onto range(size), by line, then x
    points = [(x, x - d) for d in range(-b, a + 1) for x in range(max(0, d) - c - 1, min(a, d + b))]
    assert [m.slot(*pt) for pt in points] == list(range(size)) == list(range(m.slots.starts[-1]))
    # every edge of every class lies at one of those points, and none at a
    # line's first point, its padding
    for _, x, y in m.edge_points():
        assert (x, y) in points and x != max(0, x - y) - c - 1
    for d in range(-b, a + 1):
        x = max(0, d) - c - 1
        assert [m.position(cls, x, x - d) for cls in "ABC"] == [-1, -1, -1]


@pytest.mark.parametrize("dims", [BoxDims(400, 2, 2), BoxDims(2, 400, 2), BoxDims(2, 2, 400),
                                  BoxDims(100, 100, 1), BoxDims(1, 1, 1)], ids=str)
def test_slots_grow_with_the_edges(dims):
    # every slot but the lines' paddings holds an edge of some class, so
    # there are at most a + b + 1 slots more than the mesh has edges,
    # however long one side is
    m = HexMesh(dims)  # a fresh mesh, outside the cache
    a, b, c = dims
    assert m.slots.starts[-1] == a * b + (a + b + 1) * (c + 1)
    paddings = [m.slot(x, x - d) for d in range(-b, a + 1) for x in [max(0, d) - c - 1]]
    held = {m.slot(x, y) for _, x, y in m.edge_points()}
    assert sorted(set(range(m.slots.starts[-1])) - held) == paddings
    assert m.slots.starts[-1] <= m.edge_count + a + b + 1


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2)], ids=str)
def test_flippable_faces_against_frozensets(dims):
    m = build_mesh(BoxDims(*dims))
    halves = [(pt, frozenset(cycle[0::2]), frozenset(cycle[1::2]))
              for pt in hex_points(m) for cycle in (hex_edge_cycle(*pt),)]
    for M in enumerate_matchings(BoxDims(*dims)):
        F = m.faces_of(M)
        want = [pt for pt, odd, even in halves if odd <= F or even <= F]
        assert flippable_faces(m, M) == want


def test_unknown_faces_and_hexagons():
    m = build_mesh(BoxDims(1, 1, 1))
    with pytest.raises(UnknownFace):
        m.faces_of(1 << m.edge_count)
    for p in (-1, m.edge_count):
        with pytest.raises(UnknownFace):
            m.face(p)
    with pytest.raises(UnknownFace):
        m.hexface_edges((9, 9))
    M = enumerate_matchings(BoxDims(1, 1, 1))[0]
    for pt in ((9, 9), (1, 1), (-1, 0)):  # (1, 1) and (-1, 0) are boundary corners
        with pytest.raises(UnknownFace):
            tau_move(m, M, pt)


def degree_oracle(mesh, M):
    """Perfect matching by brute force: all mesh edges, every degree 1."""
    ends = rhombus_ends(mesh)
    if any(f not in ends for f in M):
        return False
    deg = Counter(t for f in M for t in ends[f])
    return all(deg[t] == 1 for t in GridScanMesh(mesh.dims).vertices)


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)],
                         ids=str)
def test_is_perfect_matching_against_degree_count(dims):
    mesh = build_mesh(BoxDims(*dims))
    rng = random.Random(str(dims))
    edges = sorted(edge_faces(mesh))
    half = mesh.vertex_count // 2
    outside = Face("A", 99, 99, 0)
    cases = [(mesh.faces_of(M), True) for M in enumerate_matchings(BoxDims(*dims))]
    # one vertex covered twice: trade f for another edge g at one end of f;
    # the far end of g gets degree 2 and the far end of f degree 0
    for M, _ in list(cases):
        f = rng.choice(sorted(M))
        t = vertex_triangles(mesh).index(rng.choice(rhombus_ends(mesh)[f]))
        for g in (mesh.face(e) for e, _ in mesh.vertex_edges[t]):
            if g != f:
                cases.append(((M - {f}) | {g}, False))
        cases.append(((M - {f}) | {outside}, False))   # not an edge of the mesh
        cases.append((M - {f}, False))
        cases.append((M | {outside}, False))
    cases += [(frozenset(rng.sample(edges, half)), None) for _ in range(200)]
    for M, want in cases:
        if outside in M:  # no mask holds a face that is not an edge
            assert not degree_oracle(mesh, M) and want is False
            with pytest.raises(UnknownFace):
                mask_of(mesh, M)
            continue
        got = mesh.is_perfect_matching(mask_of(mesh, M))
        assert got == degree_oracle(mesh, M)
        assert want is None or got == want


# -- edge masks -----------------------------------------------------------------


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (3, 2, 1), (4, 2, 2), (12, 12, 12)],
                         ids=str)
def test_mask_of_and_faces_of_round_trip(dims):
    mesh = build_mesh(BoxDims(*dims))
    edges = list(edge_faces(mesh))
    rng = random.Random(str(dims))
    assert mask_of(mesh, edges) == (1 << len(edges)) - 1
    assert mesh.faces_of(0) == frozenset() and mask_of(mesh, []) == 0
    for i, f in enumerate(edges):
        assert mask_of(mesh, [f]) == 1 << i and mesh.faces_of(1 << i) == {f}
    for _ in range(50):
        faces = frozenset(rng.sample(edges, rng.randrange(len(edges) + 1)))
        mask = mask_of(mesh, faces)
        assert mesh.faces_of(mask) == faces
        assert mask_of(mesh, mesh.faces_of(mask)) == mask
    with pytest.raises(UnknownFace):
        mask_of(mesh, [Face("A", 99, 99, 0)])
    for bad in (1 << len(edges), -1):
        with pytest.raises(UnknownFace):
            mesh.faces_of(bad)


# 6, 11, 30 and 86 edges: a top chunk of 6, 3, 6 and 6 edges, never a full byte
TABLE_DIMS = [BoxDims(1, 1, 1), BoxDims(2, 1, 1), BoxDims(2, 2, 2), BoxDims(4, 2, 4)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TABLE_DIMS), st.data())
def test_edge_sums_equal_per_edge_sums(dims, data):
    mesh = build_mesh(dims)
    m = mesh.edge_count
    values = data.draw(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=m, max_size=m))
    # any mask, one with a bit in the top (partial) chunk, and all edges
    top = 1 << (m - 1)
    mask = data.draw(st.one_of(st.integers(0, (1 << m) - 1),
                               st.integers(0, top - 1).map(lambda x: x | top),
                               st.just((1 << m) - 1)))
    table = edge_table(values)
    assert len(table) == -(-m // 8) and len(table[-1]) == 2 ** (m - 8 * (len(table) - 1))
    want = sum(v for i, v in enumerate(values) if mask >> i & 1)
    assert mesh.edge_sum(mask, table) == want
    with pytest.raises(UnknownFace):
        mesh.edge_sum(mask | 1 << m, table)


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1),
                                  (4, 2, 2)], ids=str)
def test_is_perfect_matching_refuses_broken_masks(dims):
    mesh = build_mesh(BoxDims(*dims))

    def perfect(M):
        got = mesh.is_perfect_matching(M)
        if mesh.dims.is_even:  # the squish table's low bits decide the same
            assert (mesh.matching_sum(M) is not None) == got
        return got

    doubly_covered = 0
    for M in enumerate_matchings(BoxDims(*dims)):
        assert perfect(M)
        for N in broken_masks(mesh, M):
            assert not perfect(N)
            if N >= 0 and N.bit_count() == M.bit_count():
                # one edge traded for another, at the right popcount; the
                # new edge j always shares a vertex with an edge left in N
                j = (N & ~M).bit_length() - 1
                doubly_covered += any(N >> e & 1 for v in mesh.edge_ends[j]
                                      for e, _ in mesh.vertex_edges[v] if e != j)
    assert doubly_covered


def test_tables_are_built_on_first_use():
    mesh = HexMesh(BoxDims(8, 8, 8))  # a fresh mesh, outside the cache
    lazy = ("edge_ends", "vertex_edges", "endpoint_bits", "lifts", "squish_table",
            "long_cover", "short_mask", "hex_cycles", "hex_masks",
            "empty_matching", "cell_offsets", "line_prefix", "prefix_base", "a_keys")
    assert not any(name in vars(mesh) for name in lazy)
    # a mask at the wrong popcount is refused before anything is read
    assert not mesh.is_perfect_matching(0)
    with pytest.raises(NotAMatching):
        diagram_of(mesh, 0)
    assert not any(name in vars(mesh) for name in lazy)
    # the bijection reads heights off the A-key table and the cell offsets
    # it is keyed against, no mask table (its round trip runs on the
    # cached mesh of the same box)
    pi = PlanePartition(mesh.dims, ((1,) * 8,) * 8)
    assert diagram_of(mesh, matching_of(pi)) == pi
    assert [name for name in lazy if name in vars(mesh)] == ["cell_offsets", "a_keys"]
    # the endpoint bits are summed edge by edge, without a per-byte table
    assert not mesh.is_perfect_matching((1 << (mesh.vertex_count // 2)) - 1)
    assert "endpoint_bits" in vars(mesh) and "squish_table" not in vars(mesh)
    assert per_byte_tables(mesh) == []


@pytest.mark.parametrize("dims", [BoxDims(1, 1, 1), BoxDims(3, 2, 1), BoxDims(2, 5, 3),
                                  BoxDims(4, 1, 6), BoxDims(12, 12, 12)], ids=str)
def test_line_prefix_is_the_xor_of_the_hexagons_before_each_slot(dims):
    m = HexMesh(dims)  # a fresh mesh, outside the cache
    a, b, c = dims
    assert len(m.line_prefix) == a * b + (a + b + 1) * (c + 1)
    assert m.line_prefix == line_prefix_of(dims, m.hex_masks)
    # a cell's offset is the slot of its lattice point (i, j): its line
    # d = i - j starts with its padding, then its c + 1 + min(i, j)
    # points x in [max(0, d) - c, i], so the boxes k < c sit on its line
    # at x = i - k, inside the line's slots
    for q, off in enumerate(m.cell_offsets):
        i, j = divmod(q, b)
        d = i - j
        padding = m.slot(max(0, d) - c - 1, max(0, d) - c - 1 - d)
        assert off == padding + c + 1 + min(i, j)
        assert padding < off - c <= off <= m.slot(min(a, d + b) - 1, min(a, d + b) - 1 - d)


@pytest.mark.parametrize("dims", [BoxDims(1, 1, 1), BoxDims(3, 2, 1), BoxDims(2, 5, 3),
                                  BoxDims(4, 1, 6)], ids=str)
def test_empty_matching_builds_no_hexagon_table(dims):
    # the empty diagram's matching is read off the per-line runs alone
    m = HexMesh(dims)
    M = m.empty_matching
    assert not {"hex_cycles", "line_prefix", "cell_offsets"} & vars(m).keys()
    assert M == matching_of(PlanePartition.empty(dims))
    assert m.is_perfect_matching(M)
    a, b, c = dims
    assert sorted(f for f in m.faces_of(M) if f.cls == "A") == sorted(
        Face("A", i, j, 0) for i in range(a) for j in range(b))


def test_a_keys_sort_by_line_then_x():
    for dims in (BoxDims(1, 1, 1), BoxDims(3, 2, 1), BoxDims(2, 5, 3), BoxDims(4, 1, 6)):
        m = HexMesh(dims)
        a, b, c = dims
        keys, ranks = m.a_keys
        points = [(x, y) for cls, x, y in m.edge_points() if cls == "A"]
        assert len(keys) == len(points) == len(set(keys)) and list(keys) == sorted(keys)
        by_key = [p for _, p in sorted(zip(keys, points))]
        assert by_key == sorted(points, key=lambda p: (p[0] - p[1], p[0]))
        # the key of A(i,j,0) is the cell's offset; ranks order the cells
        # line by line, i ascending
        offsets = m.cell_offsets
        assert list(offsets) == [keys[points.index(divmod(q, b))] for q in range(a * b)]
        cells = sorted(range(a * b), key=lambda q: (q // b - q % b, q // b))
        assert [ranks[q] for q in cells] == list(range(a * b))
        assert [offsets[q] for q in cells] == sorted(offsets)


def test_face_id_canonical_ranges():
    # canonical representatives have min offset 0 and land in the box ranges
    for dims in (BoxDims(2, 2, 2), BoxDims(3, 2, 1)):
        a, b, c = dims
        for f in edge_faces(build_mesh(dims)):
            assert min(f.i, f.j, f.k) >= 0
            lo = lattice_face(f.cls, *face_lattice(f))
            assert lo == f  # already canonical
            if f.cls == "A":
                assert 0 <= f.i < a and 0 <= f.j < b and 0 <= f.k <= c
            elif f.cls == "B":
                assert 0 <= f.i < a and 0 <= f.j <= b and 0 <= f.k < c
            else:
                assert 0 <= f.i <= a and 0 <= f.j < b and 0 <= f.k < c


def test_shifted_face_ids_describe_same_edge():
    assert face_lattice(Face("A", 1, 1, 1)) == face_lattice(Face("A", 0, 0, 0))
    assert lattice_face("A", 0, 0) == Face("A", 0, 0, 0)
    for cls in "ABC":
        for x, y in itertools.product(range(-4, 5), repeat=2):
            f = lattice_face(cls, x, y)
            assert face_lattice(f) == (x, y) and min(f.i, f.j, f.k) == 0
    # HexMesh.face names each edge by the canonical face at its point
    for dims in (BoxDims(3, 2, 4), BoxDims(1, 5, 2)):
        m = build_mesh(dims)
        for p, (cls, x, y) in enumerate(m.edge_points()):
            assert m.face(p) == lattice_face(cls, x, y)


@pytest.mark.parametrize("base", [BoxDims(1, 1, 1), BoxDims(2, 1, 1),
                                  BoxDims(2, 2, 1), BoxDims(2, 2, 2)], ids=str)
def test_propellers_partition_and_contract(base):
    even = build_mesh(base.doubled())
    props = propellers(even)
    a, b, c = base
    assert len(props) == 2 * (a * b + b * c + c * a)
    seen = [p.center for p in props] + [o for p in props for o in p.outers.values()]
    assert sorted(seen) == sorted(vertex_triangles(even))
    shorts = {f for p in props for f in p.shorts.values()}
    assert all(tuple(p.shorts) == ("A", "B", "C") for p in props)
    # contraction is the doubled base mesh: the fiber map is a 2-to-1,
    # class-preserving surjection onto base edges
    faces, base_faces = edge_faces(even), edge_faces(build_mesh(base))
    assert len(even.lifts) == len(base_faces)
    assert sorted(i for pair in even.lifts for i in pair) == \
        [i for i, f in enumerate(faces) if f not in shorts]
    for bf, lifts in zip(base_faces, even.lifts):
        assert len(lifts) == 2
        for i in lifts:
            assert faces[i].cls == bf.cls
            assert squish_edge(even, faces[i]) == bf


@pytest.mark.parametrize("base", [BoxDims(1, 1, 1), BoxDims(2, 1, 1), BoxDims(2, 2, 1),
                                  BoxDims(3, 2, 2), BoxDims(1, 3, 2), BoxDims(4, 4, 4)],
                         ids=str)
def test_claws_against_triangle_arithmetic(base):
    # each lift joins the outer of LIFT_OUTERS' class in the claw of its
    # base edge's up end to the outer of the third class in the claw of its
    # down end, the claws being the propellers built from each base
    # vertex's triangles; the short mask and the long covers follow them
    even = build_mesh(base.doubled())
    by_base = {p.base: p for p in propellers(even)}
    ends = rhombus_ends(even)
    for j, pair in enumerate(even.lifts):
        bf = even.base.face(j)
        up, down = rhombus_ends(even.base)[bf]
        assert len(pair) == 2
        for i, outer in zip(pair, LIFT_OUTERS[bf.cls]):
            (third,) = set("ABC") - {bf.cls, outer}
            assert ends[even.face(i)] == (by_base[up].outers[outer], by_base[down].outers[third])
    short_at = {o: p.shorts[cls] for p in propellers(even) for cls, o in p.outers.items()}
    assert even.short_mask == mask_of(even, short_at.values())
    for i in (i for pair in even.lifts for i in pair):
        f = even.face(i)
        assert even.long_cover[i] == mask_of(even, {f} | {short_at[t] for t in ends[f]})


@pytest.mark.parametrize("cls, offsets", [
    ("A", ((0, 0), (0, 0))),  # each A lift twice
    ("B", ((1, 0), (0, 1))),  # one B lift at no edge of H_{4,2,2}
    ("A", ((0, 0), (5, 0))),  # the second lifts past the last line
    ("C", ((0, 1), (0, 9))),  # the second lifts before the first line
], ids=("repeated", "missing", "off-table", "before-table"))
def test_a_broken_lift_table_is_refused(monkeypatch, cls, offsets):
    import hexdimer.mesh as mesh_module

    monkeypatch.setitem(mesh_module.LIFT_OFFSETS, cls, offsets)
    with pytest.raises(MeshError, match="not 2-to-1"):
        HexMesh(BoxDims(4, 2, 2)).lifts


@pytest.mark.parametrize("base", [BoxDims(1, 1, 1), BoxDims(2, 1, 1), BoxDims(2, 2, 1)],
                         ids=str)
def test_matching_sum_gives_the_lifts_held(base):
    # the two fields above the endpoint bits: the base edges whose first
    # and whose second lift a matching holds
    even = build_mesh(base.doubled())
    for M in enumerate_matchings(even.dims):
        want = tuple(sum(1 << j for j, pair in enumerate(even.lifts) if M >> pair[k] & 1)
                     for k in (0, 1))
        assert even.matching_sum(M) == want


def test_positions_are_the_set_bits():
    rng = random.Random(5)
    masks = [0, 1, 2, 0b1011] + [rng.getrandbits(70) for _ in range(20)]
    # wide masks, up to 5,000 bits, sparse and dense
    masks += [rng.getrandbits(w) for w in (255, 256, 257, 1260, 4999, 5000) for _ in range(3)]
    masks += [2 ** k - 1 for k in (1, 7, 8, 9, 64, 420, 1260, 4999, 5000)]
    masks += [1 << 4999, 1 << 4999 | 1, sum(1 << rng.randrange(5000) for _ in range(40))]
    for mask in masks:
        assert positions(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]
    # a negative int has no bits to list: its bin() would read '-0b...'
    for mask in (-1, -2, -0b1011, -(2 ** 5000 - 1), -(1 << 5000)):
        with pytest.raises(ValueError):
            positions(mask)


def test_fits_matching_is_the_size_rule():
    mesh = build_mesh(BoxDims(3, 2, 2))
    m, half = mesh.edge_count, mesh.vertex_count // 2
    M = enumerate_matchings(mesh.dims)[0]
    assert mesh.fits_matching(M) and mesh.fits_matching((1 << half) - 1)
    assert mesh.fits_matching(((1 << half) - 1) << (m - half))  # the last edge set
    for bad in (0, -M, M | 1 << m, M ^ 1 << 0 ^ 1 << m, (1 << (half + 1)) - 1,
                (1 << (half - 1)) - 1, -1, (1 << m) - 1):
        assert not mesh.fits_matching(bad), bad


def test_propellers_need_even_dims():
    for name in ("lifts", "short_mask", "long_cover"):
        with pytest.raises(OddDims):
            getattr(HexMesh(BoxDims(2, 1, 2)), name)


# -- the face-level squish map, an oracle for HexMesh.lifts ---------------------

IN_PROPELLER = object()  # sentinel returned by squish_edge for short edges


def propeller_of(mesh, t):
    """The propeller holding the even-mesh vertex t, as its center or an outer."""
    (p,) = [p for p in propellers(mesh) if t == p.center or t in p.outers.values()]
    return p


def squish_edge(mesh, f):
    """Image of an even-mesh edge under squishing: the base edge joining the
    base vertices of the propellers at its two ends; IN_PROPELLER for short
    edges."""
    ends = rhombus_ends(mesh)
    if f not in ends:
        raise UnknownFace(f"{f} is not an edge of H_{tuple(mesh.dims)}")
    p1, p2 = (propeller_of(mesh, t) for t in ends[f])
    if p1 == p2:
        return IN_PROPELLER
    (bf,) = [g for g, ts in rhombus_ends(mesh.base).items() if set(ts) == {p1.base, p2.base}]
    return bf


def unsquish(mesh, base_edges):
    """All long-edge preimages of the given base edges, plus every short edge
    of a propeller incident to one of those preimages."""
    out = set()
    for f in edge_faces(mesh):
        if squish_edge(mesh, f) in base_edges:
            out.add(f)
            for t in rhombus_ends(mesh)[f]:
                out.update(propeller_of(mesh, t).shorts.values())
    return frozenset(out)


def test_squish_edge():
    even = build_mesh(BoxDims(2, 2, 2))
    shorts = [f for f in edge_faces(even) if squish_edge(even, f) is IN_PROPELLER]
    longs = [f for f in edge_faces(even) if f not in shorts]
    assert len(shorts) == 18 and len(longs) == 12
    hits = {}
    for f in longs:
        hits.setdefault(squish_edge(even, f), []).append(f)
    base = build_mesh(BoxDims(1, 1, 1))
    assert set(hits) == set(edge_faces(base))
    assert all(len(v) == 2 for v in hits.values())
    with pytest.raises(UnknownFace):
        squish_edge(even, Face("A", 9, 9, 0))


def test_blowup_lifts_are_crossed():
    # the two lifts of a class-o base edge touch outer vertices of the two
    # classes other than o, in crossed pairs
    even = build_mesh(BoxDims(2, 2, 2))
    faces = edge_faces(even)
    for bf, pair in zip(edge_faces(even.base), even.lifts):
        for prop_end in range(2):
            classes = set()
            for lf in (faces[i] for i in pair):
                t = rhombus_ends(even)[lf][prop_end]
                p = propeller_of(even, t)
                (cls,) = [c for c, o in p.outers.items() if o == t]
                classes.add(cls)
            assert classes == set("ABC") - {bf.cls}


def test_unsquish():
    even = build_mesh(BoxDims(2, 2, 2))
    base = build_mesh(BoxDims(1, 1, 1))
    assert unsquish(even, []) == frozenset()
    one = sorted(edge_faces(base))[0]
    img = unsquish(even, [one])
    assert len(img) == 8  # 2 long lifts + 2 propellers' 6 short edges
    assert {squish_edge(even, f) for f in img} == {one, IN_PROPELLER}
    assert unsquish(even, edge_faces(base)) == frozenset(edge_faces(even))
    # psi o phi = identity on edge sets
    for subset_size in (2, 4):
        sub = sorted(edge_faces(base))[:subset_size]
        back = {squish_edge(even, f) for f in unsquish(even, sub)} - {IN_PROPELLER}
        assert back == set(sub)


def test_the_mesh_cache_keeps_the_latest_meshes():
    build_mesh.cache_clear()
    first = build_mesh(BoxDims(1, 1, 1))
    assert build_mesh(BoxDims(1, 1, 1)) is first
    for a in range(2, MESH_CACHE_SIZE + 1):
        build_mesh(BoxDims(a, 1, 1))
    assert build_mesh.cache_info().currsize == MESH_CACHE_SIZE
    assert build_mesh(BoxDims(1, 1, 1)) is first  # now the one used last
    second = build_mesh(BoxDims(2, 1, 1))  # now the one used last
    build_mesh(BoxDims(MESH_CACHE_SIZE + 1, 1, 1))  # evicts (3, 1, 1)
    assert build_mesh.cache_info().currsize == MESH_CACHE_SIZE
    assert build_mesh(BoxDims(1, 1, 1)) is first and build_mesh(BoxDims(2, 1, 1)) is second
    misses = build_mesh.cache_info().misses
    build_mesh(BoxDims(3, 1, 1))
    assert build_mesh.cache_info().misses == misses + 1
