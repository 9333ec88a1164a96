import itertools
import random
from typing import List

import pytest

from conftest import (FaceTwoFactor, as_faces, full_diagram, mask_of, per_byte_tables,
                      two_factor_weight, vertex_triangles)
from hexdimer.algebra import MERSENNE_PRIMES, Monomial, det_mod, pack, prime_above
from hexdimer.diagrams import (PlanePartition, TooLarge, box_count, diagram_of,
                               enumerate_matchings, flippable_faces, matching_of, tau_move)
from hexdimer.mesh import BoxDims, HexMesh, UnknownFace, build_mesh, positions
from hexdimer.overlay import (
    MeshMismatch, OverlayError,
    assemble_two_factor, distinct_overlays, iter_two_factors,
    overlay, overlay_keys, overlay_masks, pair_matchings, split,
)
from hexdimer.squish import turn_word, wp_edge_weighting


def key_of(lam):
    """The overlay key (doubled edges, loop edges) of a 2-factor: the order
    iter_two_factors yields them in."""
    return lam.doubled, lam.loop_mask()


def hexagon_setup():
    dims = BoxDims(1, 1, 1)
    mesh = build_mesh(dims)
    empty = matching_of(PlanePartition.empty(dims))
    full = matching_of(full_diagram(dims))
    return dims, mesh, empty, full


def test_overlay_self_is_all_doubled():
    dims, mesh, empty, _ = hexagon_setup()
    lam = overlay(mesh, empty, empty)
    assert lam.doubled == empty and lam.loops == ()
    assert lam.component_count() == 3


def test_overlay_hexagon_loop():
    dims, mesh, empty, full = hexagon_setup()
    lam = overlay(mesh, empty, full)
    assert lam.doubled == 0
    assert len(lam.loops) == 1 and len(lam.loops[0]) == 6
    assert lam.component_count() == 1
    vs = [v for e in lam.loops[0] for v in mesh.edge_ends[e]]
    assert sorted(vs) == sorted(2 * list(range(mesh.vertex_count)))


def test_overlay_rejects_non_matchings():
    dims, mesh, empty, _ = hexagon_setup()
    with pytest.raises(MeshMismatch):
        overlay(mesh, empty, mask_of(mesh, frozenset()))


def test_loops_are_canonical():
    # overlay is symmetric at the 2-factor level
    dims, mesh, empty, full = hexagon_setup()
    assert overlay(mesh, empty, full) == overlay(mesh, full, empty)


def reference_canonical(mesh, loop):
    """Rotate a loop to its least edge, then walk it so that it leaves that
    edge at its down end."""
    k = loop.index(min(loop))
    loop = loop[k:] + loop[:k]
    if mesh.edge_ends[loop[0]][1] not in mesh.edge_ends[loop[1]]:
        loop = loop[:1] + loop[:0:-1]
    return loop


@pytest.mark.parametrize("dims", [(a, b, c) for a in (1, 2) for b in (1, 2)
                                  for c in (1, 2)] + [(3, 2, 1)], ids=str)
def test_loops_oriented_as_reference(dims):
    mesh = build_mesh(BoxDims(*dims))
    n = 0
    for lam in iter_two_factors(BoxDims(*dims)):
        for loop in lam.loops:
            n += 1
            assert reference_canonical(mesh, loop) == loop
            # any rotation or reversal of the walk has the same canonical form
            walks = [loop[i:] + loop[:i] for i in range(len(loop))]
            for walk in walks + [w[::-1] for w in walks]:
                assert reference_canonical(mesh, walk) == loop
    assert n > 0


def test_split_counts_and_reconstruction():
    dims = BoxDims(2, 2, 2)
    mesh = build_mesh(dims)
    ms = enumerate_matchings(dims)
    for M1 in ms:
        for M2 in ms:
            lam = overlay(mesh, M1, M2)
            pairs = split(lam)
            assert len(pairs) == 2 ** len(lam.loops)
            assert (M1, M2) in pairs
            for N1, N2 in pairs:
                assert overlay(mesh, N1, N2) == lam
    # sum over distinct 2-factors
    lams = list(iter_two_factors(dims))
    assert sum(2 ** len(l.loops) for l in lams) == len(ms) ** 2 == 400


def test_split_no_loops_single_pair():
    dims, mesh, empty, _ = hexagon_setup()
    lam = overlay(mesh, empty, empty)
    assert split(lam) == [(empty, empty)]


def test_enumerate_two_factors_hexagon():
    lams = list(iter_two_factors(BoxDims(1, 1, 1)))
    assert len(lams) == 3
    by_loops = sorted(len(l.loops) for l in lams)
    assert by_loops == [0, 0, 1]


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)])
def test_enumerate_two_factors_equals_ordered_pairs(dims):
    dims = BoxDims(*dims)
    mesh = build_mesh(dims)
    ms = enumerate_matchings(dims)
    ordered = {overlay(mesh, M1, M2) for M1 in ms for M2 in ms}
    assert all(overlay(mesh, M1, M2) == overlay(mesh, M2, M1) for M1 in ms for M2 in ms)
    assert list(iter_two_factors(dims)) == sorted(ordered, key=key_of)


@pytest.mark.parametrize("dims", [(a, b, c)
                                  for a in range(1, 4)
                                  for b in range(1, 4)
                                  for c in range(1, 3)], ids=str)
def test_parity_lemma(dims):
    a, b, c = dims
    want = (a * b + b * c + c * a) % 2
    for lam in iter_two_factors(BoxDims(a, b, c)):
        assert lam.component_count() % 2 == want


# -- the Kasteleyn determinant, check parity's certificate -------------------


def row_and_column(mesh: HexMesh, e: int):
    """The up and down ends of edge e, each numbered in position order
    among the vertices of its kind: its entry in ``kasteleyn_rows``."""
    u, v = mesh.edge_ends[e]
    ups = [i for i, t in enumerate(vertex_triangles(mesh)) if t.up]
    downs = [i for i, t in enumerate(vertex_triangles(mesh)) if not t.up]
    return ups.index(u), downs.index(v)


def matching_sign(mesh: HexMesh, M: int) -> int:
    """The sign of M read as the permutation from the up vertices to the
    down ones, each numbered in position order, by its inversions."""
    perm = [j for i, j in sorted(row_and_column(mesh, e) for e in positions(M))]
    inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                     for j in range(i + 1, len(perm)))
    return (-1) ** inversions


def signed_det(rows, P: int) -> int:
    det = det_mod(rows, P)
    return det if det <= P // 2 else det - P


@pytest.mark.parametrize("dims", list(itertools.product((1, 2), repeat=3)), ids=str)
def test_kasteleyn_det_is_the_sum_of_the_matching_signs(dims):
    mesh = build_mesh(BoxDims(*dims))
    want = sum(matching_sign(mesh, M) for M in enumerate_matchings(BoxDims(*dims)))
    assert signed_det(mesh.kasteleyn_rows(), MERSENNE_PRIMES[0]) == want
    # every matching has one sign: the parity lemma's certificate
    assert abs(want) == box_count(BoxDims(*dims))


def test_kasteleyn_det_is_plus_or_minus_the_box_count():
    for dims in itertools.product(range(1, 6), repeat=3):
        count = box_count(BoxDims(*dims))
        P = prime_above(2 * count)
        assert abs(signed_det(build_mesh(BoxDims(*dims)).kasteleyn_rows(), P)) == count, dims


@pytest.mark.parametrize("dims, edges", [((2, 2, 2), 30), ((3, 3, 3), 72)], ids=str)
def test_a_flipped_edge_sign_moves_the_det_off_the_count(dims, edges):
    # negative control: with one entry -1 the determinant is a signed sum
    # with both signs, so it is no longer +-N
    mesh = build_mesh(BoxDims(*dims))
    count = box_count(BoxDims(*dims))
    P = prime_above(2 * count)
    assert mesh.edge_count == edges
    for e in range(edges):
        rows = mesh.kasteleyn_rows()
        i, j = row_and_column(mesh, e)
        assert rows[i][j] == 1
        rows[i][j] = -1
        assert abs(signed_det(rows, P)) != count, e


def mask_weight(wp, lam):
    """A 2-factor's weight as check pullback takes it: the doubled edges'
    weight squared times the loop edges' weight."""
    w = wp.weight_of(lam.doubled)
    return w * w * wp.weight_of(lam.loop_mask())


def test_two_factor_weight():
    dims, mesh, empty, full = hexagon_setup()
    wp = wp_edge_weighting(mesh)
    lam = overlay(mesh, empty, empty)
    assert two_factor_weight(as_faces(lam), wp) == mask_weight(wp, lam) == Monomial(1)
    loop = overlay(mesh, empty, full)
    # whole hexagon once = empty * full = t^3
    assert two_factor_weight(as_faces(loop), wp) == mask_weight(wp, loop) == \
        Monomial(1, pack(3, 0, 0, 0))


def test_weight_factors_over_any_split():
    for dims in (BoxDims(2, 2, 2), BoxDims(3, 2, 1)):
        mesh = build_mesh(dims)
        wp = wp_edge_weighting(mesh)
        for lam in iter_two_factors(dims):
            w = two_factor_weight(as_faces(lam), wp)
            assert mask_weight(wp, lam) == w
            for M1, M2 in split(lam):
                assert w == wp.weight_of(M1) * wp.weight_of(M2)


def test_json_dump():
    dims, mesh, empty, full = hexagon_setup()
    obj = overlay(mesh, empty, full).to_json_obj()
    assert obj["dims"] == [1, 1, 1]
    assert obj["doubled"] == [] and len(obj["loops"][0]) == 6


@pytest.mark.parametrize("dims", [(a, b, c)
                                  for a in range(1, 4)
                                  for b in range(1, 4)
                                  for c in range(1, 3)], ids=str)
def test_grouped_overlays_equal_per_pair_overlays(dims):
    # one assembly per (M1 & M2, M1 ^ M2) key gives what overlaying every
    # pair of face sets gives: the same distinct 2-factors, and for split
    # the same set of ordered pairs behind each 2-factor
    dims = BoxDims(*dims)
    mesh = build_mesh(dims)
    ms = enumerate_matchings(dims)
    per_pair = {}
    for i, M1 in enumerate(ms):
        for M2 in ms[i:]:
            lam = overlay(mesh, M1, M2)
            per_pair.setdefault(lam, set()).update({(M1, M2), (M2, M1)})
    assert list(iter_two_factors(dims)) == sorted(per_pair, key=key_of)
    pairs_of = {}
    for M1 in ms:
        for M2 in ms:
            pairs_of.setdefault((M1 & M2, M1 ^ M2), set()).add((M1, M2))
    keys = overlay_keys(mesh, ms)
    assert set(pairs_of) == {overlay_masks(mesh, key) for key in keys}
    assert len(keys) == len(pairs_of)
    lams = [assemble_two_factor(mesh, *key) for key in pairs_of]
    assert dict(zip(lams, pairs_of.values())) == per_pair


def test_overlay_key_masks_are_the_overlay_edge_sets():
    dims = BoxDims(2, 2, 1)
    mesh = build_mesh(dims)
    ms = enumerate_matchings(dims)
    for M1, M2 in itertools.product(ms, repeat=2):
        F1, F2 = mesh.faces_of(M1), mesh.faces_of(M2)
        assert mesh.faces_of(M1 & M2) == F1 & F2
        assert mesh.faces_of(M1 ^ M2) == F1 ^ F2
        lam = as_faces(assemble_two_factor(mesh, M1 & M2, M1 ^ M2))
        assert lam.doubled == F1 & F2
        assert {f for loop in lam.loops for f in loop} == F1 ^ F2


def test_assemble_refuses_loop_edges_that_are_no_loops():
    dims, mesh, empty, full = hexagon_setup()
    e, f = empty, full
    assert assemble_two_factor(mesh, e & f, e ^ f) == overlay(mesh, empty, full)
    # five of the hexagon's edges: the walk ends at a vertex of degree one
    for i in range(6):
        with pytest.raises(OverlayError, match="end at"):
            assemble_two_factor(mesh, 0, (e ^ f) & ~(1 << i))


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)], ids=str)
def test_streamed_two_factors_are_the_sorted_overlays(dims):
    # iter_two_factors holds only the keys and yields what sorting every
    # distinct overlay by its key gives
    dims = BoxDims(*dims)
    mesh = build_mesh(dims)
    ms = enumerate_matchings(dims)
    every = {overlay(mesh, M1, M2) for M1 in ms for M2 in ms}
    assert list(iter_two_factors(dims)) == sorted(every, key=key_of)


def test_pair_matchings_refuse_before_enumerating(monkeypatch):
    import hexdimer.overlay as ov

    def no_enumeration(*args):
        raise AssertionError("enumerated a box it should refuse")

    monkeypatch.setattr(ov, "enumerate_matchings", no_enumeration)
    for dims in (BoxDims(500, 1, 1), BoxDims(6, 4, 2)):
        with pytest.raises(TooLarge, match="over the bound"):
            pair_matchings(dims)
    monkeypatch.undo()
    assert pair_matchings(BoxDims(2, 2, 2)) == enumerate_matchings(BoxDims(2, 2, 2))


def test_pair_matchings_validate_each_matching(monkeypatch):
    import hexdimer.overlay as ov

    dims, mesh, M, _ = hexagon_setup()
    monkeypatch.setattr(ov, "enumerate_matchings", lambda d: [M, M & (M - 1)])
    with pytest.raises(MeshMismatch):
        pair_matchings(dims)


# -- the face-level assembly, kept as the oracle of the position-level one -------


def face_assemble_two_factor(mesh: HexMesh, doubled: int, loops: int) -> FaceTwoFactor:
    """Build a TwoFactor from the masks of its doubled edges and of the
    union of its loops (every vertex of ``loops`` must have degree exactly
    2 there)."""
    ends, nbrs = mesh.edge_ends, mesh.vertex_edges
    walks: List[List[int]] = []
    rest, limit = loops, loops.bit_count()
    while rest:
        # e0 is the least edge of its loop; the walk leaves it at its down end
        e0 = (rest & -rest).bit_length() - 1
        walk, cur = [e0], e0
        head = ends[e0][1]
        while True:
            for nxt, other in nbrs[head]:
                if loops >> nxt & 1 and nxt != cur:
                    break
            else:
                raise OverlayError(f"loop edges end at vertex {head}")
            if nxt == e0:
                break
            walk.append(nxt)
            if len(walk) > limit:
                raise OverlayError(f"loop edges branch off the loop of {mesh.face(e0)}")
            cur, head = nxt, other
        rest &= ~sum(1 << e for e in walk)
        walks.append(walk)
    # the walks, each from its least position, in ascending order of it
    return FaceTwoFactor(mesh.dims, mesh.faces_of(doubled),
                         tuple(tuple(map(mesh.face, w)) for w in sorted(walks)))


ORACLE_DIMS = [(a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)] + [(3, 2, 1)]


@pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
def test_position_assembly_equals_face_assembly(dims):
    # every matching pair: the same witness, the same loops read as faces
    # (the oracle sorts its walks, assembly yields them sorted); and the
    # distinct overlays come in the order of their face-level forms' keys
    dims = BoxDims(*dims)
    mesh = build_mesh(dims)
    ms = enumerate_matchings(dims)
    oracles = {}
    for M1, M2 in itertools.product(ms, repeat=2):
        lam = assemble_two_factor(mesh, M1 & M2, M1 ^ M2)
        want = face_assemble_two_factor(mesh, M1 & M2, M1 ^ M2)
        assert lam.to_json_obj() == want.to_json_obj()
        assert as_faces(lam) == want
        assert lam.component_count() == want.component_count()
        oracles[lam] = want
    got = list(distinct_overlays(mesh, ms))
    assert len(got) == len(set(got)) == len(oracles)
    assert [oracles[lam] for lam in got] == sorted(oracles.values(), key=lambda tf: (
        mask_of(mesh, tf.doubled), mask_of(mesh, itertools.chain(*tf.loops))))


def sorted_partition(rng, dims):
    """A random diagram: a random matrix with its rows, then its columns,
    sorted in decreasing order (which keeps the rows sorted)."""
    a, b, c = dims
    rows = [sorted((rng.randint(0, c) for _ in range(b)), reverse=True) for _ in range(a)]
    cols = [sorted(col, reverse=True) for col in zip(*rows)]
    return PlanePartition(dims, tuple(zip(*cols)))


@pytest.mark.parametrize("dims", [(8, 8, 8), (12, 12, 12), (3, 10, 9)], ids=str)
def test_position_assembly_equals_face_assembly_on_large_boxes(dims):
    # seeded random diagrams overlaid in pairs and with the empty diagram:
    # up to tens of loops per overlay, the longest over a hundred edges
    dims = BoxDims(*dims)
    mesh = build_mesh(dims)
    rng = random.Random(str(dims))
    empty = matching_of(PlanePartition.empty(dims))
    for _ in range(10):
        M1, M2 = (matching_of(sorted_partition(rng, dims)) for _ in range(2))
        for M in (M2, empty):
            lam = assemble_two_factor(mesh, M1 & M, M1 ^ M)
            want = face_assemble_two_factor(mesh, M1 & M, M1 ^ M)
            assert as_faces(lam) == want
            assert lam.to_json_obj() == want.to_json_obj()
            assert lam.loop_mask() == M1 ^ M


# -- the geometric turn word, the oracle of squish.turn_word -------------------


def corner_sum(t):
    """Sum of a triangle's three lattice corners (up(x,y): (x,y), (x+1,y+1),
    (x,y+1); down(x,y): (x,y), (x+1,y), (x+1,y+1))."""
    if t.up:
        corners = [(t.x, t.y), (t.x + 1, t.y + 1), (t.x, t.y + 1)]
    else:
        corners = [(t.x, t.y), (t.x + 1, t.y), (t.x + 1, t.y + 1)]
    return sum(c[0] for c in corners), sum(c[1] for c in corners)


def walk_points(mesh, walk):
    """Per i, the corner sum of the vertex that walk[i] and walk[i+1]
    (cyclically) share."""
    ends = [set(mesh.edge_ends[e]) for e in walk]
    shared = [u & v for u, v in zip(ends, ends[1:] + ends[:1])]
    assert all(len(v) == 1 for v in shared)
    return [corner_sum(vertex_triangles(mesh)[v]) for (v,) in shared]


def geometric_turn_word(mesh, walk):
    """The turn word of a loop, counterclockwise: the walk through its
    vertices' centroids is reversed after walk[0] when its shoelace sum is
    negative (the lattice-to-plane map has positive determinant, so the
    sign in lattice coordinates is the geometric one), and each letter is
    the sign of the cross product at one vertex."""
    pts = walk_points(mesh, walk)
    area2 = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]))
    assert area2 != 0
    if area2 < 0:
        pts = walk_points(mesh, walk[:1] + walk[:0:-1])
    letters = []
    for (x0, y0), (x1, y1), (x2, y2) in zip(pts[-1:] + pts[:-1], pts, pts[1:] + pts[:1]):
        cross = (x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1)
        assert cross != 0
        letters.append("L" if cross > 0 else "R")
    return "".join(letters)


def geometric_mismatches(dims, word_of):
    """The loops of the box's 2-factors, each walked both ways, on which
    word_of(mesh, walk) is not the geometric turn word."""
    mesh = build_mesh(BoxDims(*dims))
    loops = {loop for lam in iter_two_factors(BoxDims(*dims)) for loop in lam.loops}
    return [walk for loop in sorted(loops) for walk in (loop, loop[:1] + loop[:0:-1])
            if word_of(mesh, walk) != geometric_turn_word(mesh, walk)]


@pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
def test_turn_word_is_the_geometric_word(dims):
    assert geometric_mismatches(dims, turn_word) == []


def test_a_left_turn_on_a_class_step_back_is_refuted():
    # negative control: read L where the next class precedes the current
    # one in A, B, C, and read the word counterclockwise as turn_word
    # does.  Every word still nets six lefts, but comes out reversed, so
    # the geometric words refute the rule on every loop whose word is no
    # palindrome: none of the hexagon's, many of H_(2,2,2)'s
    def left_on_step_back(mesh, walk):
        classes = ["ABC".index(mesh.edge(e)[0]) for e in walk]
        word = "".join("L" if (nxt - cur) % 3 == 2 else "R"
                       for cur, nxt in zip(classes, classes[1:] + classes[:1]))
        if word.count("R") > word.count("L"):
            word = word[::-1].translate(str.maketrans("LR", "RL"))
        assert word.count("L") - word.count("R") == 6
        return word

    assert geometric_mismatches((1, 1, 1), left_on_step_back) == []
    assert geometric_mismatches((2, 2, 2), left_on_step_back)


def test_assemble_refuses_a_doubled_edge_on_a_loop():
    mesh = build_mesh(BoxDims(2, 2, 2))
    hexagon = sum(1 << p for p in mesh.hexface_edges((0, 0)))
    one = hexagon & -hexagon
    with pytest.raises(OverlayError, match="both doubled and on a loop"):
        assemble_two_factor(mesh, one, hexagon)
    assert assemble_two_factor(mesh, 0, hexagon).component_count() == 1
    with pytest.raises(UnknownFace):
        assemble_two_factor(mesh, 1 << mesh.edge_count, hexagon)


def test_bijection_calls_build_no_per_byte_table():
    # the bijection API on a large mesh: round trips, flips, overlays and
    # the perfect-matching test take masks and build no per-byte table
    dims = BoxDims(8, 8, 8)
    mesh = HexMesh(dims)  # a fresh mesh, outside the cache
    rng = random.Random(3)
    empty = matching_of(PlanePartition.empty(dims))
    h = [[8] * 8 for _ in range(8)]
    for i in range(8):
        for j in range(8):
            h[i][j] = min(h[i - 1][j] if i else 8, h[i][j - 1] if j else 8, rng.randint(0, 8))
    pi = PlanePartition(dims, tuple(map(tuple, h)))
    M = matching_of(pi)
    assert diagram_of(mesh, M) == pi
    faces = flippable_faces(mesh, M)
    assert faces
    for face in faces[:5]:
        diagram_of(mesh, tau_move(mesh, M, face))
    assert overlay(mesh, M, empty).component_count() % 2 == (3 * 64) % 2
    assert overlay(mesh, M, M).loops == ()
    assert mesh.is_perfect_matching(M)
    assert "squish_table" not in vars(mesh)
    assert per_byte_tables(mesh) == []
    # the guard sees a table once one is built
    mesh.squish_table
    assert per_byte_tables(mesh) == ["squish_table"]
