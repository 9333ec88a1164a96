import itertools
import random

import pytest
from conftest import box_count_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from hexdimer.algebra import Monomial, pack, poly_specialize
from hexdimer.diagrams import (
    COUNT, DiagramError, FaceNotFlippable, MONO, NotAMatching, PlanePartition,
    TooLarge, WeightScheme, Z2Z2, _profile_states, box_color, box_count,
    count_within, diagram_of, diagram_weight, enumerate_diagrams,
    enumerate_matchings, flippable_faces, iter_matchings, matching_of, tau_move,
    z_poly,
)
from hexdimer.mesh import BoxDims, Face, build_mesh


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
        by_size[pi.size()] += 1
    assert by_size == want


def test_tall_boxes_do_not_recurse():
    states = _profile_states(1500, 1)
    assert len(states) == 1501 and states[1] == (1,) + (0,) * 1499
    pis = list(enumerate_diagrams(BoxDims(1100, 1, 1)))
    assert len(pis) == 1101 and pis[-1] == PlanePartition.full(BoxDims(1100, 1, 1))
    assert len(enumerate_matchings(BoxDims(500, 1, 1))) == 501
    with pytest.raises(TooLarge):
        enumerate_matchings(BoxDims(1100, 1, 1), limit=50)


def test_big_count():
    assert box_count_oracle(4, 4, 4) == 232848
    assert z_poly(BoxDims(4, 4, 4), COUNT).constant_value() == 232848


@pytest.mark.parametrize("dims", [(a, b, c) for a in range(1, 4) for b in range(1, 4)
                                  for c in range(1, 4)] + [(40, 1, 1), (1, 1, 40)], ids=str)
def test_box_count_equals_matching_count(dims):
    dims = BoxDims(*dims)
    ms = list(iter_matchings(dims))
    assert box_count(dims) == len(ms) == len(set(ms)) == box_count_oracle(*dims)
    assert set(ms) == set(enumerate_matchings(dims))


def test_box_count_stops_above_the_bound():
    # below the count, a number above the bound; from the count on, the count
    for dims in (BoxDims(2, 2, 2), BoxDims(3, 2, 1), BoxDims(40, 1, 1)):
        n = box_count(dims)
        for stop in range(n + 3):
            got = box_count(dims, stop)
            assert (got > stop and got <= n) if stop < n else got == n
    assert box_count(BoxDims(1100, 1, 1), 10_000) == 1101
    assert box_count(BoxDims(6, 6, 6), 10_000) > 10_000


def test_iter_matchings_refuses_before_backtracking(monkeypatch):
    import hexdimer.diagrams as dg

    monkeypatch.setattr(dg, "build_mesh", None)  # any backtracking would fail
    with pytest.raises(TooLarge, match="exceeds limit 19"):
        next(iter_matchings(BoxDims(2, 2, 2), limit=19))
    with pytest.raises(TooLarge, match="exceeds limit 10000"):
        count_within(BoxDims(6, 4, 2), 10_000)
    assert count_within(BoxDims(2, 2, 2), 20) == 20


def test_enumerate_matchings_limit():
    # refused at the first matching past the limit; exactly the limit passes
    with pytest.raises(TooLarge) as exc:
        enumerate_matchings(BoxDims(2, 2, 2), limit=5)
    assert "exceeds limit 5" in str(exc.value) and "20" not in str(exc.value)
    with pytest.raises(TooLarge):
        enumerate_matchings(BoxDims(2, 2, 2), limit=19)
    ms = enumerate_matchings(BoxDims(2, 2, 2), limit=20)
    assert len(ms) == 20 and ms == enumerate_matchings(BoxDims(2, 2, 2))


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
        by_cls = {cls: sum(1 for f in M if f.cls == cls) for cls in "ABC"}
        assert by_cls == {"A": a * b, "B": a * c, "C": b * c}
        assert diagram_of(mesh, M) == pi
        matchings.add(M)
    # independent enumeration straight on the graph
    assert set(enumerate_matchings(dims)) == matchings


def filled_scan_matching(pi):
    """Reference matching_of in O(abc): scan every cell of the box for the
    faces between a filled cell and an empty one."""
    a, b, c = pi.dims
    h = pi.h

    def filled(i, j, k):
        return 0 <= i < a and 0 <= j < b and k < h[i][j]

    M = set()
    for i in range(a):
        for j in range(b):
            k = h[i][j]
            M.add(Face.from_lattice("A", i - k, j - k))
    # class B: vertical faces seen along the j axis (wall at j=0 counts as full)
    for i in range(a):
        for j in range(b + 1):
            for k in range(c):
                left = filled(i, j - 1, k) if j > 0 else True
                if left and not filled(i, j, k):
                    M.add(Face.from_lattice("B", i - k - 1, j - k - 1))
    # class C: vertical faces seen along the i axis
    for j in range(b):
        for i in range(a + 1):
            for k in range(c):
                left = filled(i - 1, j, k) if i > 0 else True
                if left and not filled(i, j, k):
                    M.add(Face.from_lattice("C", i - k - 1, j - k - 1))
    return frozenset(M)


def random_partition(rng, dims):
    """A random diagram: each height drawn below the bounds above and left."""
    a, b, c = dims
    h = [[0] * b for _ in range(a)]
    for i in range(a):
        for j in range(b):
            h[i][j] = rng.randint(0, min(h[i - 1][j] if i else c, h[i][j - 1] if j else c))
    return PlanePartition(dims, tuple(map(tuple, h)))


def test_matching_of_equals_filled_scan():
    for dims in itertools.product(range(1, 4), repeat=3):
        for pi in enumerate_diagrams(BoxDims(*dims)):
            assert matching_of(pi) == filled_scan_matching(pi), pi
    for dims in ((40, 1, 1), (1, 1, 40)):
        for pi in enumerate_diagrams(BoxDims(*dims)):
            assert matching_of(pi) == filled_scan_matching(pi), pi
    rng = random.Random(9)
    for _ in range(50):
        dims = BoxDims(*(rng.randint(1, 12) for _ in range(3)))
        pi = random_partition(rng, dims)
        M = matching_of(pi)
        assert M == filled_scan_matching(pi), pi
        assert diagram_of(build_mesh(dims), M) == pi
    pi = random_partition(rng, BoxDims(12, 12, 12))
    assert matching_of(pi) == filled_scan_matching(pi)


def test_empty_and_full_on_hexagon():
    dims = BoxDims(1, 1, 1)
    mesh = build_mesh(dims)
    empty = matching_of(PlanePartition.empty(dims))
    full = matching_of(PlanePartition.full(dims))
    assert empty | full == frozenset(mesh.edges)
    assert not empty & full
    assert {f.cls for f in empty} == {"A", "B", "C"}


def test_diagram_of_rejects_non_matchings():
    dims = BoxDims(1, 1, 1)
    mesh = build_mesh(dims)
    with pytest.raises(NotAMatching):
        diagram_of(mesh, frozenset(mesh.edges))
    with pytest.raises(NotAMatching):
        diagram_of(mesh, frozenset())
    dims = BoxDims(3, 2, 2)
    mesh = build_mesh(dims)
    pi = PlanePartition(dims, ((2, 1), (1, 1), (1, 0)))
    M = matching_of(pi)
    assert diagram_of(mesh, M) == pi
    f = min(M)
    with pytest.raises(NotAMatching):  # one face swapped for a non-edge
        diagram_of(mesh, (M - {f}) | {Face("A", 99, 99, 0)})
    with pytest.raises(NotAMatching):  # one extra edge
        diagram_of(mesh, M | {min(frozenset(mesh.edges) - M)})
    # on a flippable hexagon, its three matched faces traded for three of
    # its faces that do not alternate
    for pt in flippable_faces(mesh, M):
        cycle = mesh.hexface_edges(pt)
        mine = frozenset(cycle) & M
        for three in itertools.combinations(cycle, 3):
            if frozenset(three) not in (frozenset(cycle[0::2]), frozenset(cycle[1::2])):
                with pytest.raises(NotAMatching):
                    diagram_of(mesh, (M - mine) | frozenset(three))


def test_tau_move():
    dims = BoxDims(1, 1, 1)
    mesh = build_mesh(dims)
    empty = matching_of(PlanePartition.empty(dims))
    face = mesh.hexfaces[0]
    flipped = tau_move(mesh, empty, face)
    assert flipped == matching_of(PlanePartition.full(dims))
    assert tau_move(mesh, flipped, face) == empty  # involution
    # a non-alternating matching is not flippable there
    dims2 = BoxDims(2, 2, 2)
    mesh2 = build_mesh(dims2)
    M = matching_of(PlanePartition.empty(dims2))
    bad = [pt for pt in mesh2.hexfaces if pt not in flippable_faces(mesh2, M)]
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
            assert abs(pi2.size() - pi.size()) == 1


def test_z_poly_examples():
    assert str(z_poly(BoxDims(1, 1, 1))) == "1 + p"
    assert str(z_poly(BoxDims(2, 1, 1))) == "1 + p + p*q"
    assert z_poly(BoxDims(2, 2, 2), COUNT).constant_value() == 20


@pytest.mark.parametrize("dims", [(a, b, c)
                                  for a in range(1, 4)
                                  for b in range(1, 4)
                                  for c in range(1, 4)] + [(4, 4, 2)], ids=str)
def test_dp_equals_enumeration(dims):
    # the signed schemes make sums cancel, so a zero coefficient left behind
    # by the DP's in-place accumulation would show as a difference
    dims = BoxDims(*dims)
    for scheme in (Z2Z2, MONO, Z2Z2.with_signs({"q": -1, "r": -1, "s": -1}),
                   MONO.with_signs({"p": "-p"})):
        assert z_poly(dims, scheme) == z_poly(dims, scheme, method="enumerate")


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
            by_size[pi.size()] += 1
        assert macmahon_oracle(*dims) == by_size


def test_main_theorem_base_333():
    """Z^{6,6,6}(p,-1,-1,-1) = (Z^{3,3,3}(-p))^2 with the right side from
    the box product, not from z_poly."""
    zm = [(-1) ** n * x for n, x in enumerate(macmahon_oracle(3, 3, 3))]
    square = [0] * (2 * len(zm) - 1)
    for i, x in enumerate(zm):
        for j, y in enumerate(zm):
            square[i + j] += x * y
    lhs = z_poly(BoxDims(6, 6, 6), Z2Z2.with_signs({"q": -1, "r": -1, "s": -1}))
    assert lhs.terms == {pack(n, 0, 0, 0): x for n, x in enumerate(square) if x}


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (3, 2, 1)], ids=str)
def test_z2z2_collapses_to_mono(dims):
    dims = BoxDims(*dims)
    allp = poly_specialize(z_poly(dims, Z2Z2),
                           {"p": "keep", "q": "p", "r": "p", "s": "p"})
    assert allp == z_poly(dims, MONO)


def test_count_symmetric_under_permutation():
    for perm in itertools.permutations((2, 3, 4)):
        assert (z_poly(BoxDims(*perm), COUNT).constant_value()
                == box_count_oracle(2, 3, 4))


def test_json_format():
    pi = PlanePartition(BoxDims(2, 2, 1), ((1, 1), (1, 0)))
    obj = pi.to_json_obj()
    assert obj == {"dims": [2, 2, 1], "heights": [[1, 1], [1, 0]]}
    assert PlanePartition.from_json_obj(obj) == pi


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_diagram_roundtrip(data):
    dims = BoxDims(*data.draw(st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 3, 1)])))
    pis = list(enumerate_diagrams(dims))
    pi = data.draw(st.sampled_from(pis))
    assert diagram_of(build_mesh(dims), matching_of(pi)) == pi
