import itertools

import pytest

from hexdimer.algebra import Monomial, pack
from hexdimer.diagrams import PlanePartition, enumerate_matchings, matching_of
from hexdimer.mesh import BoxDims, build_mesh
from hexdimer.overlay import (
    MeshMismatch, MissingEdgeWeight, OverlayError, TooLarge, TwoFactor,
    assemble_two_factor, enumerate_two_factors, iter_two_factors, loop_vertices,
    overlay, overlay_keys, pair_matchings, split, two_factor_weight,
)
from hexdimer.squish import wp_edge_weighting


def hexagon_setup():
    dims = BoxDims(1, 1, 1)
    mesh = build_mesh(dims)
    empty = matching_of(PlanePartition.empty(dims))
    full = matching_of(PlanePartition.full(dims))
    return dims, mesh, empty, full


def test_overlay_self_is_all_doubled():
    dims, mesh, empty, _ = hexagon_setup()
    lam = overlay(mesh, empty, empty)
    assert lam.doubled == empty and lam.loops == ()
    assert lam.component_count() == 3


def test_overlay_hexagon_loop():
    dims, mesh, empty, full = hexagon_setup()
    lam = overlay(mesh, empty, full)
    assert lam.doubled == frozenset()
    assert len(lam.loops) == 1 and len(lam.loops[0]) == 6
    assert lam.component_count() == 1
    vs = loop_vertices(mesh, lam.loops[0])
    assert sorted(vs) == sorted(mesh.vertices)


def test_overlay_rejects_non_matchings():
    dims, mesh, empty, _ = hexagon_setup()
    with pytest.raises(MeshMismatch):
        overlay(mesh, empty, frozenset())


def test_loops_are_canonical():
    # overlay is symmetric at the 2-factor level
    dims, mesh, empty, full = hexagon_setup()
    assert overlay(mesh, empty, full) == overlay(mesh, full, empty)


def corner_sum(t):
    """Sum of a triangle's three lattice corners (up(x,y): (x,y), (x+1,y+1),
    (x,y+1); down(x,y): (x,y), (x+1,y), (x+1,y+1))."""
    if t.up:
        corners = [(t.x, t.y), (t.x + 1, t.y + 1), (t.x, t.y + 1)]
    else:
        corners = [(t.x, t.y), (t.x + 1, t.y), (t.x + 1, t.y + 1)]
    return sum(c[0] for c in corners), sum(c[1] for c in corners)


def reference_canonical(mesh, loop):
    """Orient a loop counterclockwise by the shoelace sum over its vertices,
    then rotate it to its least edge."""
    pts = [corner_sum(t) for t in loop_vertices(mesh, loop)]
    area2 = sum(x1 * y2 - x2 * y1
                for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]))
    assert area2 != 0
    if area2 < 0:
        loop = loop[::-1]
    k = loop.index(min(loop))
    return loop[k:] + loop[:k]


@pytest.mark.parametrize("dims", [(a, b, c) for a in (1, 2) for b in (1, 2)
                                  for c in (1, 2)] + [(3, 2, 1)], ids=str)
def test_loops_oriented_as_reference(dims):
    mesh = build_mesh(BoxDims(*dims))
    n = 0
    for lam in enumerate_two_factors(BoxDims(*dims)):
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
    faces = mesh.faces_of
    for M1 in ms:
        for M2 in ms:
            lam = overlay(mesh, faces(M1), faces(M2))
            pairs = split(mesh, lam)
            assert len(pairs) == 2 ** len(lam.loops)
            assert (M1, M2) in pairs
            for N1, N2 in pairs:
                assert overlay(mesh, faces(N1), faces(N2)) == lam
    # sum over distinct 2-factors
    lams = enumerate_two_factors(dims)
    assert sum(2 ** len(l.loops) for l in lams) == len(ms) ** 2 == 400


def test_split_no_loops_single_pair():
    dims, mesh, empty, _ = hexagon_setup()
    lam = overlay(mesh, empty, empty)
    assert split(mesh, lam) == [(mesh.mask_of(empty), mesh.mask_of(empty))]


def test_enumerate_two_factors_hexagon():
    lams = enumerate_two_factors(BoxDims(1, 1, 1))
    assert len(lams) == 3
    by_loops = sorted(len(l.loops) for l in lams)
    assert by_loops == [0, 0, 1]


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)])
def test_enumerate_two_factors_equals_ordered_pairs(dims):
    dims = BoxDims(*dims)
    mesh = build_mesh(dims)
    ms = list(map(mesh.faces_of, enumerate_matchings(dims)))
    ordered = {overlay(mesh, M1, M2) for M1 in ms for M2 in ms}
    assert all(overlay(mesh, M1, M2) == overlay(mesh, M2, M1) for M1 in ms for M2 in ms)
    assert enumerate_two_factors(dims) == \
        sorted(ordered, key=lambda tf: (sorted(tf.doubled), tf.loops))


@pytest.mark.parametrize("dims", [(a, b, c)
                                  for a in range(1, 4)
                                  for b in range(1, 4)
                                  for c in range(1, 3)], ids=str)
def test_parity_lemma(dims):
    a, b, c = dims
    want = (a * b + b * c + c * a) % 2
    for lam in enumerate_two_factors(BoxDims(a, b, c)):
        assert lam.component_count() % 2 == want


def test_two_factor_weight():
    dims, mesh, empty, full = hexagon_setup()
    wp = wp_edge_weighting(mesh)
    lam = overlay(mesh, empty, empty)
    assert two_factor_weight(lam, wp.weights) == Monomial(1)
    loop = overlay(mesh, empty, full)
    # whole hexagon once = empty * full = t^3
    assert two_factor_weight(loop, wp.weights) == Monomial(1, pack(3, 0, 0, 0))
    with pytest.raises(MissingEdgeWeight):
        two_factor_weight(loop, {})


def test_weight_factors_over_any_split():
    dims = BoxDims(2, 2, 2)
    mesh = build_mesh(dims)
    wp = wp_edge_weighting(mesh)
    for lam in enumerate_two_factors(dims):
        w = two_factor_weight(lam, wp.weights)
        for M1, M2 in split(mesh, lam):
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
            lam = overlay(mesh, mesh.faces_of(M1), mesh.faces_of(M2))
            per_pair.setdefault(lam, set()).update({(M1, M2), (M2, M1)})
    assert enumerate_two_factors(dims) == \
        sorted(per_pair, key=lambda tf: (sorted(tf.doubled), tf.loops))
    pairs_of = {}
    for M1 in ms:
        for M2 in ms:
            pairs_of.setdefault((M1 & M2, M1 ^ M2), set()).add((M1, M2))
    assert set(pairs_of) == overlay_keys(ms)
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
        lam = assemble_two_factor(mesh, M1 & M2, M1 ^ M2)
        assert lam.doubled == F1 & F2
        assert {f for loop in lam.loops for f in loop} == F1 ^ F2


def test_assemble_refuses_loop_edges_that_are_no_loops():
    dims, mesh, empty, full = hexagon_setup()
    e, f = mesh.mask_of(empty), mesh.mask_of(full)
    assert assemble_two_factor(mesh, e & f, e ^ f) == overlay(mesh, empty, full)
    # five of the hexagon's edges: the walk ends at a vertex of degree one
    for i in range(6):
        with pytest.raises(OverlayError, match="end at"):
            assemble_two_factor(mesh, 0, (e ^ f) & ~(1 << i))


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)], ids=str)
def test_streamed_two_factors_are_the_sorted_overlays(dims):
    # iter_two_factors holds one doubled-edge group at a time and yields
    # what sorting every distinct overlay gives
    dims = BoxDims(*dims)
    mesh = build_mesh(dims)
    ms = list(map(mesh.faces_of, enumerate_matchings(dims)))
    every = {overlay(mesh, M1, M2) for M1 in ms for M2 in ms}
    assert list(iter_two_factors(dims)) == \
        sorted(every, key=lambda tf: (sorted(tf.doubled), tf.loops))


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

    dims, mesh, empty, _ = hexagon_setup()
    M = mesh.mask_of(empty)
    monkeypatch.setattr(ov, "enumerate_matchings", lambda d: [M, M & (M - 1)])
    with pytest.raises(MeshMismatch):
        pair_matchings(dims)
