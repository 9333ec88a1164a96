import functools
import itertools
import math
import random

import pytest
from conftest import (backtrack_matchings, box_count_oracle, broken_masks, constant_value,
                      diagram_size, digit_unpack_p, face_matching_of, filled_scan_matching,
                      full_diagram, mask_of, poly_specialize, strided_matching_of)
from hypothesis import given, settings
from hypothesis import strategies as st

import hexdimer.diagrams as dg
from hexdimer.algebra import Monomial, Poly, pack
from hexdimer.diagrams import (
    BOX_COLORS, COUNT, DiagramError, FaceNotFlippable, MONO, NotAMatching, PlanePartition,
    TooLarge, WeightScheme, Z2Z2, _p_width, _profile_states, _unpack_p, box_count,
    bounded_count, diagram_of, diagram_sum, diagram_weight, enumerate_diagrams,
    enumerate_matchings, flippable_faces, iter_matchings, matching_of, tau_move,
    z_at, z_lgv, z_poly,
)
from hexdimer.mesh import BoxDims, Face, HexMesh, build_mesh, positions
from hexdimer.overlay import MeshMismatch, overlay


def box_color(i: int, j: int, k: int) -> str:
    """Color of box (i,j,k) under the Z2xZ2 grading of (i-k, j-k)."""
    return BOX_COLORS[(i - k) % 2, (j - k) % 2]


def test_box_color():
    assert box_color(0, 0, 0) == "P"
    assert box_color(1, 0, 0) == "Q"
    assert box_color(0, 1, 0) == "R"
    assert box_color(1, 1, 0) == "S"
    assert box_color(0, 1, 1) == "Q"  # i-k odd, j-k even
    assert box_color(2, 2, 2) == "P"


def test_plane_partition_validation():
    dims = BoxDims(2, 2, 2)
    PlanePartition(dims, ((2, 1), (1, 0)))
    with pytest.raises(DiagramError):
        PlanePartition(dims, ((1, 2), (0, 0)))  # increases along a row
    with pytest.raises(DiagramError):
        PlanePartition(dims, ((1, 0), (2, 0)))  # increases along a column
    with pytest.raises(DiagramError):
        PlanePartition(dims, ((3, 0), (0, 0)))  # above the box


def first_fault(h, dims):
    """(exception type, message) of the first fault of a heights matrix,
    found cell by cell in row-major order (the value, then the cell below,
    then the one to the right), or None: the oracle for PlanePartition's
    checks."""
    a, b, c = dims
    try:
        if len(h) != a or any(len(row) != b for row in h):
            raise DiagramError(f"heights matrix is not {a}x{b}")
        for i in range(a):
            for j in range(b):
                v = h[i][j]
                if type(v) is not int or not 0 <= v <= c:
                    raise DiagramError(f"height {v!r} at ({i},{j}) is not an integer in [0,{c}]")
                if i + 1 < a and h[i + 1][j] > v:
                    raise DiagramError("heights increase along a column")
                if j + 1 < b and h[i][j + 1] > v:
                    raise DiagramError("heights increase along a row")
    except Exception as exc:
        return type(exc), str(exc)
    return None


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_plane_partition_refuses_as_the_cell_scan(data):
    # the pairwise row and column comparisons accept exactly the matrices
    # the cell-by-cell scan accepts, and a refusal names the scan's first
    # fault, with its exception type
    a, b, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    value = st.one_of(st.integers(-1, c + 1), st.integers(0, c), st.integers(0, c),
                      st.sampled_from([True, False, 1.0, "1", None]))
    shape = st.sampled_from([(a, b)] * 6 + [(a + 1, b), (a, b - 1)])
    rows, cols = data.draw(shape)
    h = tuple(tuple(data.draw(value) for _ in range(cols)) for _ in range(rows))
    if data.draw(st.booleans()):  # a sorted one, mostly a diagram
        cells = sorted((v for row in h for v in row if type(v) is int), reverse=True)
        if len(cells) == rows * cols:
            h = tuple(tuple(cells[i * cols:(i + 1) * cols]) for i in range(rows))
    dims = BoxDims(a, b, c)
    want = first_fault(h, dims)
    try:
        PlanePartition(dims, h)
        got = None
    except Exception as exc:
        got = type(exc), str(exc)
    assert got == want, h


def test_diagram_weight_examples():
    dims = BoxDims(2, 1, 1)
    assert diagram_weight(PlanePartition.empty(dims), Z2Z2) == Monomial(1)
    one = PlanePartition(dims, ((1,), (0,)))
    assert diagram_weight(one, Z2Z2) == Monomial(1, pack(1, 0, 0, 0))  # p
    two = PlanePartition(dims, ((1,), (1,)))
    assert diagram_weight(two, Z2Z2) == Monomial(1, pack(1, 1, 0, 0))  # p*q
    assert diagram_weight(two, MONO) == Monomial(1, pack(2, 0, 0, 0))
    assert diagram_weight(two, COUNT) == Monomial(1)


def test_weight_scheme_specialization():
    sch = Z2Z2.with_signs({"q": -1, "r": -1, "s": -1})
    assert sch.box_monomial(1, 0, 0) == Monomial(-1)
    assert sch.box_monomial(0, 0, 0) == Monomial(1, pack(1, 0, 0, 0))
    neg = MONO.with_signs({"p": "-p"})
    assert neg.box_monomial(0, 0, 0) == Monomial(-1, pack(1, 0, 0, 0))
    with pytest.raises(DiagramError):
        WeightScheme("z2z2", (("x", "1"),))
    with pytest.raises(DiagramError):
        WeightScheme("z2z2", (("p", "--p"),))
    # a variable the kind never produces cannot be specialized
    for kind, name in (("count", "p"), ("count", "q"), ("mono", "q"),
                       ("mono", "r"), ("mono", "s")):
        with pytest.raises(DiagramError):
            WeightScheme(kind, ((name, "-1"),))
    with pytest.raises(DiagramError):
        COUNT.with_signs({"p": -1})


@pytest.mark.parametrize("scheme", [Z2Z2, MONO, COUNT,
                                    Z2Z2.with_signs({"q": -1, "r": "-s", "s": "+p"}),
                                    MONO.with_signs({"p": "-p"}),
                                    Z2Z2.with_signs({"p": "-1", "q": "r"})], ids=repr)
def test_box_monomial_table_equals_substitution(scheme):
    # the per-color table gives each box the variable of its color (p for
    # mono, 1 for count) with the scheme's substitution applied
    subst = dict(scheme.signs)
    for i, j, k in itertools.product(range(3), repeat=3):
        if scheme.kind == "count":
            want = Monomial(1)
        else:
            name = "p" if scheme.kind == "mono" else box_color(i, j, k).lower()
            val = subst.get(name, name)
            coeff = -1 if val.startswith("-") else 1
            var = val.lstrip("+-")
            want = Monomial(coeff, 0 if var == "1" else pack(*(int(v == var) for v in "pqrs")))
        assert scheme.box_monomial(i, j, k) == want


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 2, 1),
                                  (3, 3, 3)], ids=str)
def test_enumeration_count_matches_product_formula(dims):
    got = sum(1 for _ in enumerate_diagrams(BoxDims(*dims)))
    assert got == box_count_oracle(*dims)


def test_enumeration_is_lexicographic_and_duplicate_free():
    seen = [pi.h for pi in enumerate_diagrams(BoxDims(2, 2, 2))]
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen) == 20


@pytest.mark.parametrize("dims", [(1, 1, 1), (1, 3, 2), (2, 3, 1), (3, 2, 2),
                                  (2, 2, 3)], ids=str)
def test_enumeration_order_equals_filtered_product(dims):
    a, b, c = dims
    want = []
    for flat in itertools.product(range(c + 1), repeat=a * b):  # lex order
        h = tuple(flat[i:i + b] for i in range(0, a * b, b))
        if all(h[i][j] >= h[i][j + 1] for i in range(a) for j in range(b - 1)) and \
                all(h[i][j] >= h[i + 1][j] for i in range(a - 1) for j in range(b)):
            want.append(h)
    assert [pi.h for pi in enumerate_diagrams(BoxDims(*dims))] == want
    assert list(_profile_states(a, c)) == sorted(
        s for s in itertools.product(range(c + 1), repeat=a)
        if all(x >= y for x, y in zip(s, s[1:])))


def test_budgeted_enumeration_is_the_size_filtered_enumeration():
    for a, b, c in itertools.product(range(1, 4), repeat=3):
        dims = BoxDims(a, b, c)
        full = [pi.h for pi in enumerate_diagrams(dims)]
        for budget in range(a * b * c + 1):
            want = [h for h in full if sum(map(sum, h)) <= budget]
            assert [pi.h for pi in enumerate_diagrams(dims, budget)] == want
        assert list(enumerate_diagrams(dims, -1)) == []


def test_budgeted_counts_are_the_plane_partition_numbers():
    # plane partitions of n, n = 0..14 (OEIS A000219); each fits in the
    # n x n x n box, so the 14 x 14 x 14 box under budget 14 holds them all
    want = [1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859, 1479, 2485, 4167]
    by_size = [0] * 15
    for pi in enumerate_diagrams(BoxDims(14, 14, 14), budget=14):
        by_size[diagram_size(pi)] += 1
    assert by_size == want


def test_tall_boxes_do_not_recurse():
    states = _profile_states(1500, 1)
    assert len(states) == 1501 and states[1] == (1,) + (0,) * 1499
    pis = list(enumerate_diagrams(BoxDims(1100, 1, 1)))
    assert len(pis) == 1101 and pis[-1] == full_diagram(BoxDims(1100, 1, 1))
    assert len(enumerate_matchings(BoxDims(500, 1, 1))) == 501
    # a profile of one column has one descent, so the sweep has one pair
    # per state and the DP stays well under a second
    assert constant_value(z_poly(BoxDims(990, 1, 1), COUNT)) == 991
    assert constant_value(z_poly(BoxDims(1, 1, 990), COUNT)) == 991


def test_big_count():
    assert box_count_oracle(4, 4, 4) == 232848
    assert constant_value(z_poly(BoxDims(4, 4, 4), COUNT)) == 232848


@pytest.mark.parametrize("dims", [(a, b, c) for a in range(1, 4) for b in range(1, 4)
                                  for c in range(1, 4)] + [(40, 1, 1), (1, 1, 40)], ids=str)
def test_box_count_equals_matching_count(dims):
    # counted straight on the graph, not through the diagrams
    dims = BoxDims(*dims)
    ms = list(backtrack_matchings(dims))
    assert box_count(dims) == len(ms) == len(set(ms)) == box_count_oracle(*dims)
    assert set(ms) == set(enumerate_matchings(dims))
    mesh = build_mesh(dims)
    assert all(mesh.is_perfect_matching(M) for M in ms)


@pytest.mark.parametrize("dims", list(itertools.product(range(1, 4), repeat=3))
                         + [(4, 4, 2), (40, 1, 1), (1, 40, 1), (1, 1, 40)], ids=str)
def test_flip_walk_is_the_diagrams_matchings(dims):
    # the walk yields matching_of of each diagram in enumerate_diagrams
    # order, and the set it yields, without repeats, is the oracle's
    dims = BoxDims(*dims)
    mesh = build_mesh(dims)
    ms = list(iter_matchings(dims))
    assert ms == list(map(matching_of, enumerate_diagrams(dims)))
    assert ms == list(map(strided_matching_of, enumerate_diagrams(dims)))
    assert len(set(ms)) == len(ms) == box_count(dims)
    assert set(ms) == set(backtrack_matchings(dims))
    assert all(mesh.is_perfect_matching(M) for M in ms)


def test_box_count_stops_above_the_bound():
    # below the count, a number above the bound; from the count on, the count
    for dims in (BoxDims(2, 2, 2), BoxDims(3, 2, 1), BoxDims(40, 1, 1)):
        n = box_count(dims)
        for stop in range(n + 3):
            got = box_count(dims, stop)
            assert (got > stop and got <= n) if stop < n else got == n
    assert box_count(BoxDims(1100, 1, 1), 10_000) == 1101
    assert box_count(BoxDims(6, 6, 6), 10_000) > 10_000


def test_bounded_count_on_both_sides_of_the_bound(monkeypatch):
    monkeypatch.setattr(dg, "build_mesh", None)  # any enumeration would fail
    # at N^k (ab + bc + ca) the count passes; one edge visit less refuses it
    for dims in (BoxDims(2, 2, 2), BoxDims(3, 2, 1), BoxDims(40, 1, 1)):
        a, b, c = dims
        n, edges = box_count(dims), a * b + b * c + c * a
        for k in (1, 2):
            monkeypatch.setattr(dg, "WORK_LIMIT", n ** k * edges)
            assert bounded_count(dims, k) == n
            monkeypatch.setattr(dg, "WORK_LIMIT", n ** k * edges - 1)
            with pytest.raises(TooLarge, match=f"over the bound {n ** k * edges - 1}"):
                bounded_count(dims, k)
    monkeypatch.setattr(dg, "WORK_LIMIT", 10 ** 8)
    # 4x4x2's pairs take 1,764^2 * 32 edge visits, 4x4x4's matchings 232,848 * 48
    assert bounded_count(BoxDims(4, 4, 2), 2) == 1764
    assert bounded_count(BoxDims(4, 4, 4), 1) == 232848
    # refused from a count stopped short of the true one, which it never names
    for dims, k in ((BoxDims(4, 4, 3), 2), (BoxDims(6, 4, 2), 2), (BoxDims(6, 4, 4), 1),
                    (BoxDims(6, 6, 6), 1)):
        with pytest.raises(TooLarge, match="over the bound 100000000") as exc:
            bounded_count(dims, k)
        assert str(box_count(dims)) not in str(exc.value)


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 2, 1)],
                         ids=str)
def test_bijection_roundtrip(dims):
    dims = BoxDims(*dims)
    mesh = build_mesh(dims)
    a, b, c = dims
    matchings = set()
    for pi in enumerate_diagrams(dims):
        M = matching_of(pi)
        assert mesh.is_perfect_matching(M)
        by_cls = {cls: sum(1 for f in mesh.faces_of(M) if f.cls == cls) for cls in "ABC"}
        assert by_cls == {"A": a * b, "B": a * c, "C": b * c}
        assert diagram_of(mesh, M) == pi
        matchings.add(M)
    # independent enumeration straight on the graph
    assert set(backtrack_matchings(dims)) == matchings


def random_partition(rng, dims):
    """A random diagram: each height drawn below the bounds above and left."""
    a, b, c = dims
    h = [[0] * b for _ in range(a)]
    for i in range(a):
        for j in range(b):
            h[i][j] = rng.randint(0, min(h[i - 1][j] if i else c, h[i][j - 1] if j else c))
    return PlanePartition(dims, tuple(map(tuple, h)))


def test_matching_of_equals_filled_scan():
    # one XOR per cell off the line prefixes against three oracles: the
    # named faces, the filled-box scan and the wall-by-wall slices
    def check(pi):
        M = matching_of(pi)
        assert M == face_matching_of(pi) == strided_matching_of(pi), pi
        assert build_mesh(pi.dims).faces_of(M) == filled_scan_matching(pi), pi
        assert build_mesh(pi.dims).is_perfect_matching(M)
        return M

    for dims in itertools.product(range(1, 4), repeat=3):
        for pi in enumerate_diagrams(BoxDims(*dims)):
            check(pi)
    # long and skewed boxes, where a wall runs c deep or a side is 1
    for dims in ((40, 1, 1), (1, 1, 40), (1, 40, 1), (1, 2, 30), (30, 2, 1)):
        for pi in enumerate_diagrams(BoxDims(*dims)):
            check(pi)
    rng = random.Random(9)
    # a < c, b < c, both, and neither
    for dims in ((2, 9, 5), (9, 2, 5), (2, 3, 9), (1, 6, 2), (7, 1, 3)):
        for _ in range(10):
            check(random_partition(rng, BoxDims(*dims)))
    for _ in range(50):
        dims = BoxDims(*(rng.randint(1, 14) for _ in range(3)))
        pi = random_partition(rng, dims)
        assert diagram_of(build_mesh(dims), check(pi)) == pi
    for _ in range(50):
        check(random_partition(rng, BoxDims(12, 12, 12)))


def test_matching_of_builds_no_face(monkeypatch):
    # on a built mesh the positions come from the lattice table alone
    dims = BoxDims(6, 5, 7)
    rng = random.Random(4)
    pis = [PlanePartition.empty(dims), full_diagram(dims)]
    pis += [random_partition(rng, dims) for _ in range(20)]
    build_mesh(dims)
    want = [face_matching_of(pi) for pi in pis]

    def no_face(*args, **kwargs):
        raise AssertionError("a Face was built")

    monkeypatch.setattr(Face, "__new__", no_face)
    with pytest.raises(AssertionError, match="a Face was built"):  # the guard bites
        Face.from_lattice("A", 0, 0)
    assert [matching_of(pi) for pi in pis] == want


def test_empty_and_full_on_hexagon():
    dims = BoxDims(1, 1, 1)
    mesh = build_mesh(dims)
    empty = mesh.faces_of(matching_of(PlanePartition.empty(dims)))
    full = mesh.faces_of(matching_of(full_diagram(dims)))
    assert empty | full == frozenset(mesh.edges)
    assert not empty & full
    assert {f.cls for f in empty} == {"A", "B", "C"}


def test_diagram_of_rejects_non_matchings():
    dims = BoxDims(1, 1, 1)
    mesh = build_mesh(dims)
    with pytest.raises(NotAMatching):
        diagram_of(mesh, mask_of(mesh, mesh.edges))
    with pytest.raises(NotAMatching):
        diagram_of(mesh, mask_of(mesh, frozenset()))
    dims = BoxDims(3, 2, 2)
    mesh = build_mesh(dims)
    pi = PlanePartition(dims, ((2, 1), (1, 1), (1, 0)))
    M = matching_of(pi)
    assert diagram_of(mesh, M) == pi
    F = mesh.faces_of(M)
    f = min(F)
    with pytest.raises(NotAMatching):  # one face swapped for a non-edge, a bit past the last
        diagram_of(mesh, mask_of(mesh, F - {f}) | 1 << len(mesh.edges))
    with pytest.raises(NotAMatching):  # one extra edge
        diagram_of(mesh, mask_of(mesh, F | {min(frozenset(mesh.edges) - F)}))
    # on a flippable hexagon, its three matched faces traded for three of
    # its faces that do not alternate
    for pt in flippable_faces(mesh, M):
        cycle = tuple(map(mesh.edges.__getitem__, mesh.hexface_edges(pt)))
        mine = frozenset(cycle) & F
        for three in itertools.combinations(cycle, 3):
            if frozenset(three) not in (frozenset(cycle[0::2]), frozenset(cycle[1::2])):
                with pytest.raises(NotAMatching):
                    diagram_of(mesh, mask_of(mesh, (F - mine) | frozenset(three)))


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 1), (2, 3, 2)], ids=str)
def test_diagram_of_refuses_a_traded_wall_and_a_moved_top_face(dims):
    # two kinds of mask with the size of a matching and ab class-A edges:
    # one B edge traded for an edge outside M, whose A block still reads as
    # M's diagram (only the round trip sees it), and one A edge moved onto
    # another diagonal (the heights' range check sees it); NotAMatching
    # both, never IndexError
    dims = BoxDims(*dims)
    mesh = build_mesh(dims)
    a, b, c = dims
    keys = mesh.a_keys[0]
    line = [k // (a + c + 1) for k in keys]
    traded = moved = 0
    for M in iter_matchings(dims):
        for p in positions(M):
            cls = mesh.edges[p].cls
            if cls == "B":  # for any B or C edge
                others = range(len(keys), len(mesh.edges))
            elif cls == "A":  # for an A edge on another diagonal
                others = [q for q in range(len(keys)) if line[q] != line[p]]
            else:
                continue
            for q in others:
                if not M >> q & 1:
                    with pytest.raises(NotAMatching):
                        diagram_of(mesh, M ^ 1 << p ^ 1 << q)
                    traded += cls == "B"
                    moved += cls == "A"
    assert traded and moved


def no_endpoint_test(self, M):
    raise AssertionError("is_perfect_matching was called")


def test_diagram_of_reads_only_the_class_a_block(monkeypatch):
    # with the endpoint test patched off, every diagram up to (3,3,3) and
    # random 12x12x12 ones still come back from their matchings, and the
    # heights are read off the low len(keys) bits alone (the A-key table)
    import hexdimer.diagrams as diagrams_module

    read = []

    def recorded(mask):
        read.append(mask)
        return positions(mask)

    monkeypatch.setattr(HexMesh, "is_perfect_matching", no_endpoint_test)
    monkeypatch.setattr(diagrams_module, "positions", recorded)
    pis = [pi for dims in itertools.product(range(1, 4), repeat=3)
           for pi in enumerate_diagrams(BoxDims(*dims))]
    rng = random.Random(12)
    pis += [random_partition(rng, BoxDims(12, 12, 12)) for _ in range(20)]
    for pi in pis:
        mesh = build_mesh(pi.dims)
        read.clear()
        assert diagram_of(mesh, matching_of(pi)) == pi
        keys = mesh.a_keys[0]
        assert len(read) == 1 and not read[0] >> len(keys)
        assert len(keys) == sum(f.cls == "A" for f in mesh.edges)


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)],
                         ids=str)
def test_diagram_of_refuses_without_the_endpoint_test(monkeypatch, dims):
    # the size rule and the round trip refuse every broken mask; the edge
    # trades at the right popcount are the ones only the round trip sees
    monkeypatch.setattr(HexMesh, "is_perfect_matching", no_endpoint_test)
    dims = BoxDims(*dims)
    mesh = build_mesh(dims)
    traded = 0
    for M in enumerate_matchings(dims):
        for N in broken_masks(mesh, M):
            with pytest.raises(NotAMatching):
                diagram_of(mesh, N)
            traded += mesh.fits_matching(N)
    assert traded


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)],
                         ids=str)
def test_bijection_refuses_broken_masks(dims):
    # every int that is no perfect matching, among them a negative one and
    # one with a bit past the last edge, is refused before it is read
    dims = BoxDims(*dims)
    mesh = build_mesh(dims)
    for M in enumerate_matchings(dims):
        for N in broken_masks(mesh, M):
            with pytest.raises(NotAMatching):
                diagram_of(mesh, N)
            with pytest.raises(MeshMismatch):
                overlay(mesh, M, N)
            with pytest.raises(MeshMismatch):
                overlay(mesh, N, M)


def test_tau_move():
    dims = BoxDims(1, 1, 1)
    mesh = build_mesh(dims)
    empty = matching_of(PlanePartition.empty(dims))
    (face,) = mesh.hex_cycles
    flipped = tau_move(mesh, empty, face)
    assert flipped == matching_of(full_diagram(dims))
    assert tau_move(mesh, flipped, face) == empty  # involution
    # a non-alternating matching is not flippable there
    dims2 = BoxDims(2, 2, 2)
    mesh2 = build_mesh(dims2)
    M = matching_of(PlanePartition.empty(dims2))
    bad = [pt for pt in mesh2.hex_cycles if pt not in flippable_faces(mesh2, M)]
    assert bad  # only the single box-add corner is flippable
    with pytest.raises(FaceNotFlippable):
        tau_move(mesh2, M, bad[0])


def test_tau_moves_connect_all_matchings():
    dims = BoxDims(2, 2, 2)
    mesh = build_mesh(dims)
    seen = {matching_of(PlanePartition.empty(dims))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for M in frontier:
            for f in flippable_faces(mesh, M):
                M2 = tau_move(mesh, M, f)
                if M2 not in seen:
                    seen.add(M2)
                    nxt.append(M2)
        frontier = nxt
    assert len(seen) == 20


def test_tau_move_changes_size_by_one():
    dims = BoxDims(2, 2, 2)
    mesh = build_mesh(dims)
    for pi in enumerate_diagrams(dims):
        M = matching_of(pi)
        for f in flippable_faces(mesh, M):
            pi2 = diagram_of(mesh, tau_move(mesh, M, f))
            assert abs(diagram_size(pi2) - diagram_size(pi)) == 1


@pytest.mark.parametrize("dims", [(a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)]
                         + [(3, 2, 1)], ids=str)
def test_matching_masks_are_the_diagrams_matchings(dims):
    # the backtracking masks against the bijection, one diagram at a time;
    # enumerate_matchings lists them in the diagrams' order
    dims = BoxDims(*dims)
    want = [matching_of(pi) for pi in enumerate_diagrams(dims)]
    ms = list(backtrack_matchings(dims))
    assert len(ms) == len(set(want)) == len(want) and set(ms) == set(want)
    assert enumerate_matchings(dims) == want


def test_column_weights_multiply_up_to_the_first_zero(monkeypatch):
    from hexdimer import algebra

    real, calls = algebra.Monomial.__mul__, []

    def counted(x, y):
        calls.append(1)
        return real(x, y)

    monkeypatch.setattr(algebra.Monomial, "__mul__", counted)
    assert constant_value(z_poly(BoxDims(990, 1, 1), COUNT)) == 991
    # a*c products fill the run table, then one product per state but the
    # empty one; before, the entries past the first zero cost 492,525
    assert len(calls) == 990 + 990


def test_z_poly_examples():
    assert str(z_poly(BoxDims(1, 1, 1))) == "1 + p"
    assert str(z_poly(BoxDims(2, 1, 1))) == "1 + p + p*q"
    assert constant_value(z_poly(BoxDims(2, 2, 2), COUNT)) == 20


@pytest.mark.parametrize("dims", [(a, b, c)
                                  for a in range(1, 4)
                                  for b in range(1, 4)
                                  for c in range(1, 4)] + [(4, 4, 2)]
                         # sides past 3: a < c, b < c, a > c, and a long column
                         + [(5, 1, 3), (1, 5, 3), (3, 1, 5), (2, 5, 1), (40, 1, 2)]
                         # tall boxes, whose states end in zeros that the
                         # column weights skip
                         + [(6, 1, 1), (5, 1, 2), (4, 2, 1), (6, 2, 3)],
                         ids=str)
def test_dp_equals_enumeration(dims):
    # the signed schemes make sums cancel, so a zero coefficient left behind
    # by the DP's in-place accumulation would show as a difference
    dims = BoxDims(*dims)
    # the last three leave p out, fold it into q, and share it with s: the
    # DP packs p-powers into its values whichever variables carry them
    for scheme in (Z2Z2, MONO, COUNT, Z2Z2.with_signs({"q": -1, "r": -1, "s": -1}),
                   MONO.with_signs({"p": "-p"}), Z2Z2.with_signs({"p": "1"}),
                   Z2Z2.with_signs({"p": "-q"}), Z2Z2.with_signs({"s": "p", "q": "-1"})):
        assert z_poly(dims, scheme) == diagram_sum(dims, scheme)


ORDERS = list(itertools.permutations(range(3)))
# both sides of the main theorem, and two schemes that tie colours together
ORDER_SCHEMES = (Z2Z2, MONO, COUNT, Z2Z2.with_signs({"q": -1, "r": -1, "s": -1}),
                 MONO.with_signs({"p": "-p"}), Z2Z2.with_signs({"q": "p"}),
                 Z2Z2.with_signs({"p": "-s", "r": -1}))


@pytest.mark.parametrize("dims", [(a, b, c)
                                  for a in range(1, 4)
                                  for b in range(1, 4)
                                  for c in range(1, 4)]
                         + [(4, 2, 3), (2, 5, 1), (1, 3, 4)], ids=str)
def test_dp_equals_enumeration_in_every_axis_order(monkeypatch, dims):
    # permuting the axes fixes colour P and permutes Q, R and S, so each
    # order must weigh its boxes as the requested box does; z2z2 keeps q, r
    # and s apart, so a box weighed in the wrong frame shows
    dims = BoxDims(*dims)
    want = {scheme: diagram_sum(dims, scheme) for scheme in ORDER_SCHEMES}
    for order in ORDERS:
        monkeypatch.setattr(dg, "_axis_order", lambda dims, order=order: order)
        for scheme in ORDER_SCHEMES:
            assert z_poly(dims, scheme) == want[scheme], (order, scheme)


def test_an_order_weighed_in_its_own_frame_fails(monkeypatch):
    # the mutant runs the reordered box but weighs its box y as box y of
    # the requested one
    monkeypatch.setattr(dg, "_reoriented", lambda scheme, order: {
        y: scheme.box_monomial(*y) for y in itertools.product((0, 1), repeat=3)})
    differ = []
    for dims in [(1, 2, 3), (3, 1, 2), (2, 3, 1), (1, 1, 2), (2, 1, 1), (3, 2, 1), (2, 2, 3)]:
        want = diagram_sum(BoxDims(*dims))
        for order in ORDERS:
            monkeypatch.setattr(dg, "_axis_order", lambda dims, order=order: order)
            differ.append(z_poly(BoxDims(*dims)) != want)
    assert not any(differ[::6])  # the requested order is not reordered
    assert sum(differ) == 32  # of the 35 reorderings


def test_the_dp_runs_the_cheapest_axis_order(monkeypatch):
    # a*b*C(a+c, a) state additions: 602 for (300,1,2) in the order
    # (1,2,300), against 13,635,300 as given; a cube keeps its own order
    assert dg._axis_order(BoxDims(300, 1, 2)) == (1, 2, 0)
    assert dg._axis_order(BoxDims(2, 2, 300)) == (0, 2, 1)
    assert dg._axis_order(BoxDims(4, 4, 4)) == (0, 1, 2)
    real, listed = dg._profile_states, []
    monkeypatch.setattr(dg, "_profile_states", lambda a, c: listed.append(real(a, c)) or listed[-1])
    assert constant_value(z_poly(BoxDims(2, 2, 300), COUNT)) == box_count(BoxDims(2, 2, 300))
    assert constant_value(z_poly(BoxDims(300, 1, 2), COUNT)) == 45451
    assert [len(states) for states in listed] == [math.comb(4, 2), 301]


@pytest.mark.parametrize("width", [2, 3, 19, 64, 114])
def test_unpack_p_at_its_bound(width):
    # digits of the largest magnitude allowed, zero digits at the bottom,
    # inside and at the top, under several (q,r,s) keys
    rng = random.Random(width)
    top = (1 << (width - 1)) - 1
    packed, want = {}, {}
    for key in (0, pack(0, 1, 0, 0), pack(0, -2, 3, 1), pack(0, 0, 0, 5)):
        digits = [rng.choice((top, -top, 0, rng.randint(-top, top))) for _ in range(12)]
        digits[0], digits[5:7], digits[-1] = 0, [0, 0], 0
        digits[rng.randrange(1, 5)] = rng.choice((top, -top))
        packed[key] = sum(d << (width * n) for n, d in enumerate(digits))
        want.update({key + pack(n, 0, 0, 0): d for n, d in enumerate(digits) if d})
    packed[pack(0, 7, 7, 7)] = 0
    assert _unpack_p(packed, width) == Poly(want)


@pytest.mark.parametrize("width", [2, 3, 19, 64, 388])
def test_unpack_p_halves_like_the_digit_loop(width):
    # ints of 1 to 1,000 digits, below, at and above the 32-digit base case,
    # negative and positive, under several (q,r,s) keys
    rng = random.Random(width)
    top = (1 << (width - 1)) - 1
    for n in (1, 2, 31, 32, 33, 34, 35, 64, 65, 66, 129, 1000):
        packed = {}
        # the top digit's sign is the int's: one positive, two negative
        for key, last in ((0, top), (pack(0, 1, 0, 0), -1), (pack(0, -2, 3, 1), -top - 1)):
            digits = [rng.choice((top, -top - 1, 0, rng.randint(-top - 1, top)))
                      for _ in range(n - 1)] + [last]
            packed[key] = sum(d << (width * i) for i, d in enumerate(digits))
        assert _unpack_p(packed, width) == digit_unpack_p(packed, width), n
        negated = {key: -v for key, v in packed.items()}
        assert _unpack_p(negated, width) == digit_unpack_p(negated, width), n


def test_unpack_p_reads_a_long_left_side():
    # check theorem -d 50,50,1's left side: 5,001 digits of 388 bits
    dims = BoxDims(100, 100, 2)
    width = _p_width(dims)
    packed = {0: z_at(dims, Z2Z2.with_signs({"q": -1, "r": -1, "s": -1}), 1 << width)}
    got = _unpack_p(packed, width)
    assert got == digit_unpack_p(packed, width) and len(got.terms) == 5001


def test_z_poly_needs_its_width(monkeypatch):
    # 232,848 diagrams need 18 bits and a sign bit; with one bit less the
    # count wraps into the next p-power
    dims = BoxDims(4, 4, 4)
    assert _p_width(dims) == 19
    monkeypatch.setattr(dg, "_p_width", lambda dims: 18)
    wrapped = z_poly(dims, COUNT)
    assert wrapped != Poly({0: 232848})
    assert wrapped == Poly({0: 232848 - (1 << 18), pack(1, 0, 0, 0): 1})


def macmahon_oracle(a, b, c):
    """Coefficients of prod_{i,j,k} (1 - p^(i+j+k-1)) / (1 - p^(i+j+k-2))
    by exact integer polynomial division."""
    num, den = [1], [1]
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                for poly, e in ((num, i + j + k - 1), (den, i + j + k - 2)):
                    poly.extend([0] * e)
                    for n in range(len(poly) - 1, e - 1, -1):
                        poly[n] -= poly[n - e]
    quot = []
    rem = num[:]
    for n in range(len(num) - len(den) + 1):  # den[0] == 1
        quot.append(rem[n])
        for k, d in enumerate(den):
            rem[n + k] -= quot[n] * d
    assert not any(rem)
    return quot


def test_macmahon_oracle_counts_diagrams():
    for dims in [(1, 1, 1), (2, 1, 3), (2, 2, 2), (3, 2, 2)]:
        by_size = [0] * (dims[0] * dims[1] * dims[2] + 1)
        for pi in enumerate_diagrams(BoxDims(*dims)):
            by_size[diagram_size(pi)] += 1
        assert macmahon_oracle(*dims) == by_size


# the DP's values, shared by the tests that compare with it: the 8x8x8
# left side is the slowest of them
dp = functools.cache(z_poly)


def assert_main_theorem(n, z=dp):
    """Z^{2n,2n,2n}(p,-1,-1,-1) = (Z^{n,n,n}(-p))^2, the left side from the
    evaluator z, the right side from the box product, not from z."""
    zm = [(-1) ** k * x for k, x in enumerate(macmahon_oracle(n, n, n))]
    square = [0] * (2 * len(zm) - 1)
    for i, x in enumerate(zm):
        for j, y in enumerate(zm):
            square[i + j] += x * y
    lhs = z(BoxDims(2 * n, 2 * n, 2 * n), LHS)
    assert lhs.terms == {pack(k, 0, 0, 0): x for k, x in enumerate(square) if x}


def test_main_theorem_base_333():
    assert_main_theorem(3)


def test_main_theorem_base_444():
    assert_main_theorem(4)


# -- the partition function by nonintersecting paths ---------------------------

LHS = Z2Z2.with_signs({"q": -1, "r": -1, "s": -1})
RHS = MONO.with_signs({"p": "-p"})
# W = +1 on the odd/odd class S, -1 on Q and R: the colour mutant.  (p on
# S instead of P would only relabel the classes, and pass.)
MUTANT = Z2Z2.with_signs({"q": -1, "r": -1, "s": 1})


@pytest.mark.parametrize("dims", list(itertools.product(range(1, 4), repeat=3))
                         + [(4, 4, 4), (4, 1, 2), (1, 2, 4)], ids=str)
def test_lgv_equals_the_dp(dims):
    # both sides of the theorem, the left on the even box
    dims = BoxDims(*dims)
    assert z_lgv(dims.doubled(), LHS) == dp(dims.doubled(), LHS)
    assert z_lgv(dims, RHS) == dp(dims, RHS)


@pytest.mark.parametrize("dims", [(3, 2, 1), (4, 2, 3)], ids=str)
def test_lgv_is_symmetric_in_the_axes(dims):
    # z_lgv sorts the dims; the DP, run on each order as given, agrees
    for side, box in ((LHS, BoxDims(*dims).doubled()), (RHS, BoxDims(*dims))):
        want = z_poly(box, side)
        for perm in itertools.permutations(box):
            assert z_lgv(BoxDims(*perm), side) == z_poly(BoxDims(*perm), side) == want


@pytest.mark.parametrize("dims", [(1, 1, 3), (1, 2, 4), (2, 1, 3), (2, 3, 4), (3, 1, 2),
                                  (1, 3, 2), (4, 2, 2)], ids=str)
def test_lgv_edge_cases_without_sorting(dims):
    # the mutant weighs Q, R and S unlike, so its dims are not sorted: a < c
    # puts sinks above sources (entry 0), b < c makes straight vertical
    # paths (entry 1), and a, b >= c neither
    dims = BoxDims(*dims)
    want = diagram_sum(dims, MUTANT)
    for p in (4, -2, 1, -1):
        assert z_at(dims, MUTANT, p) == sum(c * p ** dg.split(k)[0]
                                            for k, c in want.terms.items())
    assert z_lgv(dims, MUTANT) == z_poly(dims, MUTANT)


def test_lgv_main_theorem_base_5():
    assert_main_theorem(5, z_lgv)


@pytest.mark.parametrize("n", range(1, 5))
def test_lgv_colour_mutant_fails_the_theorem(n):
    dims = BoxDims(n, n, n)
    z = z_lgv(dims, RHS)
    assert z_lgv(dims.doubled(), LHS) == z * z
    assert z_lgv(dims.doubled(), MUTANT) != z * z


def test_lgv_refuses_an_inexact_shift(monkeypatch):
    # the right side of (2,2,2) divides by p^2; a determinant off by one
    # leaves bits below the shift
    real = dg.det_int
    monkeypatch.setattr(dg, "det_int", lambda rows: real(rows) + 1)
    with pytest.raises(DiagramError, match="not divisible"):
        z_lgv(BoxDims(2, 2, 2), RHS)


def test_lgv_needs_p_alone_and_a_power_of_two():
    for p in (0, 3, -6):
        with pytest.raises(DiagramError, match="2\\^s"):
            z_at(BoxDims(1, 1, 1), RHS, p)
    with pytest.raises(DiagramError, match="p alone"):
        z_at(BoxDims(1, 1, 1), Z2Z2, 2)


def macmahon_at_minus_one(a, b, c):
    """MacMahon's prod (1 - q^(i+j+k-1)) / (1 - q^(i+j+k-2)) at q = -1, as a
    limit: 1 - q^n is 2 for odd n and n (1 + q) for even n, so the value is
    0 when the numerator has more even exponents, and the ratio of the
    other factors when both have as many."""
    sums = [i + j + k for i, j, k in itertools.product(range(1, a + 1), range(1, b + 1),
                                                        range(1, c + 1))]
    top, bottom = [n - 1 for n in sums], [n - 2 for n in sums]
    zeros = sum(n % 2 == 0 for n in top) - sum(n % 2 == 0 for n in bottom)
    num, den = (math.prod(n if n % 2 == 0 else 2 for n in ns) for ns in (top, bottom))
    assert zeros >= 0 and num % den == 0
    return 0 if zeros else num // den


def test_macmahon_at_minus_one_is_the_signed_count():
    for dims in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2)]:
        signed = sum((-1) ** diagram_size(pi) for pi in enumerate_diagrams(BoxDims(*dims)))
        assert macmahon_at_minus_one(*dims) == signed
    assert [macmahon_at_minus_one(*d) for d in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (4, 2, 3),
                                                (3, 3, 3), (5, 4, 2)]] == [0, 1, 2, 18, 0, 60]


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (4, 2, 3), (3, 3, 3),
                                  (5, 4, 2), (6, 5, 3), (1, 1, 9)], ids=str)
def test_lgv_at_plus_and_minus_one(dims):
    # Stembridge's q = -1 phenomenon: closed forms of both sides at p = +-1
    dims = BoxDims(*dims)
    m = macmahon_at_minus_one(*dims)
    assert z_at(dims.doubled(), LHS, -1) == box_count(dims) ** 2
    assert z_at(dims, RHS, 1) == m
    assert z_at(dims.doubled(), LHS, 1) == m * m


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (3, 2, 1)], ids=str)
def test_z2z2_collapses_to_mono(dims):
    dims = BoxDims(*dims)
    allp = poly_specialize(z_poly(dims, Z2Z2),
                           {"p": "keep", "q": "p", "r": "p", "s": "p"})
    assert allp == z_poly(dims, MONO)


def test_count_symmetric_under_permutation():
    for perm in itertools.permutations((2, 3, 4)):
        assert (constant_value(z_poly(BoxDims(*perm), COUNT))
                == box_count_oracle(2, 3, 4))


def test_json_format():
    pi = PlanePartition(BoxDims(2, 2, 1), ((1, 1), (1, 0)))
    obj = pi.to_json_obj()
    assert obj == {"dims": [2, 2, 1], "heights": [[1, 1], [1, 0]]}
    assert PlanePartition.from_json_obj(obj) == pi


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_drawn_heights_roundtrip(data):
    # boxes up to (8,8,8), each height drawn below the bounds above and left
    a, b, c = (data.draw(st.integers(1, 8)) for _ in range(3))
    h = [[0] * b for _ in range(a)]
    for i in range(a):
        for j in range(b):
            h[i][j] = data.draw(st.integers(0, min(h[i - 1][j] if i else c,
                                                   h[i][j - 1] if j else c)))
    dims = BoxDims(a, b, c)
    pi = PlanePartition(dims, tuple(map(tuple, h)))
    mesh = build_mesh(dims)
    M = matching_of(pi)
    assert M == strided_matching_of(pi)
    assert mesh.is_perfect_matching(M)
    assert diagram_of(mesh, M) == pi


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_diagram_roundtrip(data):
    dims = BoxDims(*data.draw(st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 3, 1)])))
    pis = list(enumerate_diagrams(dims))
    pi = data.draw(st.sampled_from(pis))
    assert diagram_of(build_mesh(dims), matching_of(pi)) == pi
