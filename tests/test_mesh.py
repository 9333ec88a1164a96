import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (LIFT_OUTERS, GridScanMesh, broken_masks, line_prefix_of, mask_of,
                      per_byte_tables, propellers, rhombus_ends, triangle_corners)
from hexdimer.diagrams import (NotAMatching, PlanePartition, diagram_of, enumerate_matchings,
                               flippable_faces, matching_of, tau_move)
from hexdimer.mesh import (
    MESH_CACHE_SIZE, BoxDims, Face, HexMesh, MeshError, OddDims,
    UnknownFace, build_mesh, edge_table, positions,
)


def hex_edge_cycle(x, y):
    """The six edges of the hexagonal face at lattice point (x, y), in
    cyclic order, as faces: the oracle for HexMesh.hex_cycles."""
    return (
        Face.from_lattice("A", x, y),
        Face.from_lattice("C", x, y - 1),
        Face.from_lattice("B", x - 1, y - 1),
        Face.from_lattice("A", x - 1, y - 1),
        Face.from_lattice("C", x - 1, y - 1),
        Face.from_lattice("B", x - 1, y),
    )


def hex_points(mesh):
    """The lattice points that are a corner of six triangles of the mesh,
    sorted: the oracle for the hexagonal faces, the keys of
    HexMesh.hex_cycles."""
    seen = Counter(p for t in mesh.vertices for p in triangle_corners(t))
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


@pytest.mark.parametrize("dims", ALL_SMALL + [BoxDims(40, 2, 2), BoxDims(2, 40, 2),
                                  BoxDims(2, 2, 40), BoxDims(5, 1, 7), BoxDims(7, 3, 9)], ids=str)
def test_column_ranges_build_the_grid_scan_mesh(dims):
    # the same triangles and edges, in the same order, so every table read
    # off them, and every mask, is the one the whole-grid scan gives
    m, want = HexMesh(dims), GridScanMesh(dims)
    assert m.vertices == want.vertices and m.edges == want.edges
    assert m.lattice_table == want.lattice_table
    assert m.hex_cycles == want.hex_cycles
    assert m.edge_ends == want.edge_ends


@pytest.mark.parametrize("dims", [BoxDims(2, 2, 3000), BoxDims(3000, 2, 2), BoxDims(2, 3000, 2)],
                         ids=str)
def test_the_mesh_build_walks_its_columns(monkeypatch, dims):
    # one y range per column for each triangle kind, and two per column for
    # each edge class: 8 (a + c) ranges, however long a side is; the
    # whole-grid scan made (a+c)(b+c) tests for each kind and class
    import hexdimer.mesh as mesh

    calls = Counter()
    for name in ("_up_rows", "_down_rows"):
        real = getattr(mesh, name)
        monkeypatch.setattr(mesh, name, lambda *args, real=real, name=name:
                            calls.update([name]) or real(*args))
    a, b, c = dims
    m = HexMesh(dims)
    assert calls == {"_up_rows": 4 * (a + c), "_down_rows": 4 * (a + c)}
    cells = a * b + b * c + c * a
    assert len(m.vertices) == 2 * cells and len(m.edges) == 3 * cells - a - b - c


@pytest.mark.parametrize("dims", ALL_SMALL, ids=str)
def test_vertex_and_edge_counts(dims):
    mesh = build_mesh(dims)
    a, b, c = dims
    pairs = a * b + b * c + c * a
    assert len(mesh.vertices) == 2 * pairs
    assert len(mesh.edges) == 3 * pairs - (a + b + c)
    # Euler: internal faces of a connected planar graph
    assert len(mesh.hex_cycles) == len(mesh.edges) - len(mesh.vertices) + 1


@pytest.mark.parametrize("dims", [BoxDims(1, 1, 1), BoxDims(2, 1, 1),
                                  BoxDims(2, 2, 2), BoxDims(3, 2, 1)], ids=str)
def test_bipartite_and_degrees(dims):
    mesh = build_mesh(dims)
    for u, v in mesh.edge_ends:
        assert mesh.vertices[u].up and not mesh.vertices[v].up  # ends in opposite classes
    assert all(1 <= len(at) <= 3 for at in mesh.vertex_edges)


@pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
def test_edges_and_edge_ends_against_shared_sides(dims):
    mesh = build_mesh(BoxDims(*dims))
    ends = rhombus_ends(mesh)
    assert type(mesh.edges) is tuple and mesh.edges == tuple(ends)
    assert [(mesh.vertices[u], mesh.vertices[v]) for u, v in mesh.edge_ends] == list(ends.values())
    assert list(mesh.vertices) == sorted(set(mesh.vertices))


@pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
def test_vertex_edges_list_each_vertex_edges_by_face(dims):
    # the edges at each vertex, found by scanning every rhombus's triangles,
    # sorted as faces: positions ascend as faces do
    mesh = build_mesh(BoxDims(*dims))
    ends = rhombus_ends(mesh)
    for v, t in enumerate(mesh.vertices):
        want = sorted((f, o) for f, ts in ends.items() if t in ts for o in ts if o != t)
        assert [(mesh.edges[e], mesh.vertices[o]) for e, o in mesh.vertex_edges[v]] == want


def test_small_examples():
    m = build_mesh(BoxDims(1, 1, 1))
    assert len(m.vertices) == 6 and len(m.edges) == 6 and len(m.hex_cycles) == 1
    m = build_mesh(BoxDims(2, 2, 2))
    assert len(m.vertices) == 24 and len(m.edges) == 30
    m = build_mesh(BoxDims(2, 1, 1))
    assert len(m.vertices) == 10 and len(m.edges) == 11
    assert len(m.hex_cycles) == 2


def test_hexagon_edge_cycle():
    m = build_mesh(BoxDims(1, 1, 1))
    (pt,) = m.hex_cycles
    cycle = m.hexface_edges(pt)
    assert len(cycle) == 6 and set(cycle) == set(range(len(m.edges)))
    # consecutive edges share a vertex; each vertex seen exactly twice
    touched = []
    for i in range(6):
        shared = set(m.edge_ends[cycle[i]]) & set(m.edge_ends[cycle[(i + 1) % 6]])
        assert len(shared) == 1
        touched.append(shared.pop())
    assert sorted(touched) == list(range(len(m.vertices)))


@pytest.mark.parametrize("dims", [BoxDims(1, 1, 1), BoxDims(3, 2, 1), BoxDims(4, 3, 5)],
                         ids=str)
def test_hex_cycles_are_the_mesh_edge_keys(dims):
    m = build_mesh(dims)
    assert list(m.hex_cycles) == list(m.hex_masks) == hex_points(m)
    for pt in m.hex_cycles:
        cycle = m.hexface_edges(pt)
        assert cycle is m.hex_cycles[pt]
        assert tuple(map(m.edges.__getitem__, cycle)) == hex_edge_cycle(*pt)
        assert m.hex_masks[pt] == (mask_of(m, hex_edge_cycle(*pt)[0::2]),
                                   mask_of(m, hex_edge_cycle(*pt)[1::2]))


@pytest.mark.parametrize("dims", [BoxDims(1, 1, 1), BoxDims(3, 2, 1), BoxDims(2, 5, 3),
                                  BoxDims(4, 1, 6)], ids=str)
def test_lattice_table_maps_each_point_to_its_edge(dims):
    m = build_mesh(dims)
    a, b, c = dims
    size = a * b + (a + b + 1) * (c + 1)
    # slot numbers the points x in [max(0, d) - c - 1, min(a, d + b) - 1]
    # on the lines d in [-b, a] one to one onto the table's indices
    points = [(x, x - d) for d in range(-b, a + 1) for x in range(max(0, d) - c - 1, min(a, d + b))]
    assert sorted(m.slot(*pt) for pt in points) == list(range(size))
    found = []
    for cls, table in zip("ABC", m.lattice_table):
        assert type(table) is list and len(table) == size
        for x, y in points:
            p = table[m.slot(x, y)]
            if p != -1:
                assert m.edges[p] == Face.from_lattice(cls, x, y)
                assert x != max(0, x - y) - c - 1  # the padding slot holds no edge
                found.append(p)
    assert sorted(found) == list(range(len(m.edges)))


@pytest.mark.parametrize("dims", [BoxDims(400, 2, 2), BoxDims(2, 400, 2), BoxDims(2, 2, 400),
                                  BoxDims(100, 100, 1), BoxDims(1, 1, 1)], ids=str)
def test_lattice_table_grows_with_the_edges(dims):
    # every slot but the lines' paddings holds an edge of some class, so
    # the table has at most a + b + 1 slots more than the mesh has edges,
    # however long one side is
    m = HexMesh(dims)  # a fresh mesh, outside the cache
    a, b, c = dims
    A, B, C = m.lattice_table
    assert len(A) == m.slot_count == a * b + (a + b + 1) * (c + 1)
    paddings = [m.slot(x, x - d) for d in range(-b, a + 1) for x in [max(0, d) - c - 1]]
    assert [n for n, p in enumerate(zip(A, B, C)) if p == (-1, -1, -1)] == paddings
    assert len(A) <= len(m.edges) + a + b + 1


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
        m.faces_of(1 << len(m.edges))
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
    return all(deg[t] == 1 for t in mesh.vertices)


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)],
                         ids=str)
def test_is_perfect_matching_against_degree_count(dims):
    mesh = build_mesh(BoxDims(*dims))
    rng = random.Random(str(dims))
    edges = sorted(mesh.edges)
    half = len(mesh.vertices) // 2
    outside = Face("A", 99, 99, 0)
    cases = [(mesh.faces_of(M), True) for M in enumerate_matchings(BoxDims(*dims))]
    # one vertex covered twice: trade f for another edge g at one end of f;
    # the far end of g gets degree 2 and the far end of f degree 0
    for M, _ in list(cases):
        f = rng.choice(sorted(M))
        t = mesh.vertices.index(rng.choice(rhombus_ends(mesh)[f]))
        for g in (mesh.edges[e] for e, _ in mesh.vertex_edges[t]):
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
    edges = list(mesh.edges)
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
    m = len(mesh.edges)
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
            "long_cover", "short_mask", "lattice_table", "hex_cycles", "hex_masks",
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
    assert not mesh.is_perfect_matching((1 << (len(mesh.vertices) // 2)) - 1)
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
    # the empty diagram's matching is read off the lattice table alone
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
        points = [f.lattice for f in m.edges if f.cls == "A"]
        assert len(keys) == len(points) == len(set(keys))
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
        for f in build_mesh(dims).edges:
            assert min(f.i, f.j, f.k) >= 0
            lo = Face.from_lattice(f.cls, *f.lattice)
            assert lo == f  # already canonical
            if f.cls == "A":
                assert 0 <= f.i < a and 0 <= f.j < b and 0 <= f.k <= c
            elif f.cls == "B":
                assert 0 <= f.i < a and 0 <= f.j <= b and 0 <= f.k < c
            else:
                assert 0 <= f.i <= a and 0 <= f.j < b and 0 <= f.k < c


def test_shifted_face_ids_describe_same_edge():
    assert Face("A", 1, 1, 1).lattice == Face("A", 0, 0, 0).lattice
    assert Face.from_lattice("A", 0, 0) == Face("A", 0, 0, 0)
    for cls in "ABC":
        for x, y in itertools.product(range(-4, 5), repeat=2):
            f = Face.from_lattice(cls, x, y)
            assert f.lattice == (x, y) and min(f.i, f.j, f.k) == 0


@pytest.mark.parametrize("base", [BoxDims(1, 1, 1), BoxDims(2, 1, 1),
                                  BoxDims(2, 2, 1), BoxDims(2, 2, 2)], ids=str)
def test_propellers_partition_and_contract(base):
    even = build_mesh(base.doubled())
    props = propellers(even)
    a, b, c = base
    assert len(props) == 2 * (a * b + b * c + c * a)
    seen = [p.center for p in props] + [o for p in props for o in p.outers.values()]
    assert sorted(seen) == sorted(even.vertices)
    shorts = {f for p in props for f in p.shorts.values()}
    assert all(tuple(p.shorts) == ("A", "B", "C") for p in props)
    # contraction is the doubled base mesh: the fiber map is a 2-to-1,
    # class-preserving surjection onto base edges
    faces, base_faces = list(even.edges), list(build_mesh(base).edges)
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
    for (bf, (up, down)), pair in zip(rhombus_ends(even.base).items(), even.lifts):
        assert len(pair) == 2
        for i, outer in zip(pair, LIFT_OUTERS[bf.cls]):
            (third,) = set("ABC") - {bf.cls, outer}
            assert ends[even.edges[i]] == (by_base[up].outers[outer], by_base[down].outers[third])
    short_at = {o: p.shorts[cls] for p in propellers(even) for cls, o in p.outers.items()}
    assert even.short_mask == mask_of(even, short_at.values())
    for i in (i for pair in even.lifts for i in pair):
        f = even.edges[i]
        assert even.long_cover[i] == mask_of(even, {f} | {short_at[t] for t in ends[f]})


@pytest.mark.parametrize("cls, offsets", [
    ("A", ((0, 0), (0, 0))),  # each A lift twice
    ("B", ((1, 0), (0, 1))),  # one B lift at no edge of H_{4,2,2}
    ("A", ((0, 0), (5, 0))),  # the first base edge's second lift past the last line
], ids=("repeated", "missing", "off-table"))
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
    m, half = len(mesh.edges), len(mesh.vertices) // 2
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
    for f in mesh.edges:
        if squish_edge(mesh, f) in base_edges:
            out.add(f)
            for t in rhombus_ends(mesh)[f]:
                out.update(propeller_of(mesh, t).shorts.values())
    return frozenset(out)


def test_squish_edge():
    even = build_mesh(BoxDims(2, 2, 2))
    shorts = [f for f in even.edges if squish_edge(even, f) is IN_PROPELLER]
    longs = [f for f in even.edges if f not in shorts]
    assert len(shorts) == 18 and len(longs) == 12
    hits = {}
    for f in longs:
        hits.setdefault(squish_edge(even, f), []).append(f)
    base = build_mesh(BoxDims(1, 1, 1))
    assert set(hits) == set(base.edges)
    assert all(len(v) == 2 for v in hits.values())
    with pytest.raises(UnknownFace):
        squish_edge(even, Face("A", 9, 9, 0))


def test_blowup_lifts_are_crossed():
    # the two lifts of a class-o base edge touch outer vertices of the two
    # classes other than o, in crossed pairs
    even = build_mesh(BoxDims(2, 2, 2))
    faces = list(even.edges)
    for bf, pair in zip(even.base.edges, even.lifts):
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
    one = sorted(base.edges)[0]
    img = unsquish(even, [one])
    assert len(img) == 8  # 2 long lifts + 2 propellers' 6 short edges
    assert {squish_edge(even, f) for f in img} == {one, IN_PROPELLER}
    assert unsquish(even, base.edges) == frozenset(even.edges)
    # psi o phi = identity on edge sets
    for subset_size in (2, 4):
        sub = sorted(base.edges)[:subset_size]
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
