import itertools
import math
import random
from collections import Counter
from functools import reduce

import pytest

from conftest import (LIFT_OUTERS, as_faces, diagram_size, edge_positions, full_diagram, mask_of,
                      mat_word, monomials, propellers, rhombus_ends, two_factor_weight)
from hexdimer.algebra import LIMIT, AlgebraError, Monomial, mono_t, pack, split
from hexdimer.diagrams import (PlanePartition, Z2Z2, diagram_of,
                               diagram_weight, enumerate_diagrams,
                               enumerate_matchings, matching_of)
from hexdimer.mesh import BoxDims, OddDims, UnknownFace, build_mesh, positions
from hexdimer.overlay import assemble_two_factor, iter_two_factors, overlay, overlay_keys
from hexdimer.squish import (
    EdgeWeighting, SquishError, calibrate_sign_rule,
    lemma2_sum, lift_preimages, loop_lift_sum,
    project, projection_key,
    _candidate_rules, _loop_lift_choices, _sign_weighting_for, pullback_weighting, sign_weighting,
    transfer_lift_sum, turn_word, wp_edge_weighting, wp_leftover,
)

BASE_DIMS = [BoxDims(1, 1, 1), BoxDims(2, 1, 1), BoxDims(2, 2, 1)]


def lift_fibers(mesh):
    """base face -> the faces of its two lifts (HexMesh.lifts read as faces)."""
    faces = list(mesh.edges)
    return {bf: tuple(faces[i] for i in pair) for bf, pair in zip(mesh.base.edges, mesh.lifts)}


def ones(mesh):
    """The weighting that weighs every edge 1."""
    m = len(mesh.edges)
    return EdgeWeighting(mesh, (1,) * m, (0,) * m)


def coin_signs(mesh, seed):
    """Seeded random signs on the long edges, 1 on the short edges; no sign
    rule gives them."""
    rng = random.Random(seed)
    m = len(mesh.edges)
    return EdgeWeighting(mesh, [1 if mesh.short_mask >> i & 1 else rng.choice((1, -1))
                                for i in range(m)], (0,) * m)


def claws_by_base(mesh):
    """Per base vertex, its claw's outers: (class, vertex position, short
    edge position), read off the propellers built by triangle arithmetic."""
    vertex, edge = {t: v for v, t in enumerate(mesh.vertices)}, edge_positions(mesh)
    return [[(cls, vertex[o], edge[p.shorts[cls]]) for cls, o in p.outers.items()]
            for p in propellers(mesh)]


def hexagon_loop():
    dims = BoxDims(1, 1, 1)
    mesh = build_mesh(dims)
    lam = overlay(mesh, matching_of(PlanePartition.empty(dims)),
                  matching_of(full_diagram(dims)))
    return mesh, lam.loops[0]


# -- w_p gauge ---------------------------------------------------------------


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 2, 1),
                                  (3, 3, 2)], ids=str)
def test_wp_weighs_matchings_by_box_count(dims):
    dims = BoxDims(*dims)
    mesh = build_mesh(dims)
    wp = wp_edge_weighting(mesh)
    for pi in enumerate_diagrams(dims):
        assert wp.weight_of(matching_of(pi)) == \
            Monomial(1, pack(3 * diagram_size(pi), 0, 0, 0))


def test_wp_leftover_is_the_sum_of_min_over_the_top_and_walls():
    def F(m, n):
        return sum(min(u, v) for u in range(m) for v in range(n))

    for a, b, c in itertools.product(range(1, 9), range(1, 5), range(1, 5)):
        assert wp_leftover(BoxDims(a, b, c)) == F(a, b) + F(a, c) + F(b, c)


def test_wp_empty_matching_is_one():
    for dims in itertools.starmap(BoxDims, itertools.product(range(1, 5), repeat=3)):
        mesh = build_mesh(dims)
        wp = wp_edge_weighting(mesh)
        empty = matching_of(PlanePartition.empty(dims))
        assert wp.weight_of(empty) == Monomial(1)


# -- pullback weighting --------------------------------------------------------


def test_pullback_needs_even_dims():
    with pytest.raises(OddDims):
        pullback_weighting(build_mesh(BoxDims(1, 1, 1)))
    with pytest.raises(OddDims):
        sign_weighting(build_mesh(BoxDims(1, 2, 2)))


def test_pullback_short_edges_weigh_one_and_lifts_agree():
    mesh = build_mesh(BoxDims(2, 2, 2))
    U = monomials(pullback_weighting(mesh))
    for i in positions(mesh.short_mask):
        assert U[i] == Monomial(1)
    wp = monomials(wp_edge_weighting(mesh.base))
    for j, (l1, l2) in enumerate(mesh.lifts):
        assert U[l1] == U[l2] == wp[j]


@pytest.mark.parametrize("base", [(1, 1, 1), (2, 2, 1)], ids=str)
def test_pullback_lemma(base):
    dims = BoxDims(*base).doubled()
    mesh = build_mesh(dims)
    U = pullback_weighting(mesh)
    wp = wp_edge_weighting(mesh.base)
    for mu in enumerate_matchings(dims):
        assert U.weight_of(mu) == two_factor_weight(as_faces(project(mesh, mu)), wp)


# -- sign rule -----------------------------------------------------------------


def test_calibration_returns_a_fixed_rule():
    rule = calibrate_sign_rule()
    assert rule == (0, 0, 0)  # -1 on lifts[j][0] for every base edge j
    assert rule is calibrate_sign_rule()  # cached, persists


def test_lift_pairs_have_opposite_signs():
    mesh = build_mesh(BoxDims(2, 2, 2))
    S = monomials(sign_weighting(mesh))
    for i in positions(mesh.short_mask):
        assert S[i] == Monomial(1)
    for l1, l2 in mesh.lifts:
        assert {S[l1].coeff, S[l2].coeff} == {1, -1}


@pytest.mark.parametrize("base", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 2)], ids=str)
def test_sign_weightings_against_the_propellers(base):
    # the eight lift-index rules read through LIFT_OUTERS are the eight
    # class-side rules, one to one (each class picks one of the two outer
    # classes other than its own); under each, a lift weighs -1 exactly
    # when the outer it touches, in the propeller of its base edge's up end
    # (built by triangle arithmetic), has the picked class
    even = build_mesh(BoxDims(*base).doubled())
    by_base = {p.base: p for p in propellers(even)}
    ends = rhombus_ends(even)
    sides = {rule: {cls: LIFT_OUTERS[cls][i] for cls, i in zip("ABC", rule)}
             for rule in _candidate_rules()}
    assert len(sides) == 8
    assert {tuple(side.values()) for side in sides.values()} == \
        set(itertools.product("BC", "AC", "AB"))
    for rule, minus in sides.items():
        S = monomials(_sign_weighting_for(even, rule))
        for (bf, (up, _)), pair in zip(rhombus_ends(even.base).items(), even.lifts):
            outers = by_base[up].outers
            for i in pair:
                (cls,) = [c for c, o in outers.items() if o in ends[even.edges[i]]]
                assert S[i] == Monomial(-1 if cls == minus[bf.cls] else 1)
        assert all(S[i] == Monomial(1) for i in positions(even.short_mask))


def test_global_class_flip_is_gauge():
    # flipping all three class choices leaves every loop sum unchanged
    rule = calibrate_sign_rule()
    flipped = tuple(1 - i for i in rule)
    for base in BASE_DIMS[:2]:
        even = build_mesh(base.doubled())
        for lam in iter_two_factors(base):
            for loop in lam.loops:
                a = loop_lift_sum(even, loop, _sign_weighting_for(even, rule))
                b = loop_lift_sum(even, loop, _sign_weighting_for(even, flipped))
                assert a == b


def test_some_candidate_rules_fail_nothing():
    # all eight candidate rules pass (a base loop holds an even number of
    # edges of each class, so switching one class's lift leaves its sum);
    # the calibrated one is just the first, so rejecting alternatives is
    # not required, but every rule must give opposite in-pair signs
    mesh = build_mesh(BoxDims(2, 2, 2))
    assert len(_candidate_rules()) == 8
    for rule in _candidate_rules():
        S = monomials(_sign_weighting_for(mesh, rule))
        assert all(S[l1].coeff == -S[l2].coeff for l1, l2 in mesh.lifts)


# -- projection and fibers -------------------------------------------------------


def test_project_empty_matching_is_all_doubled():
    mesh = build_mesh(BoxDims(2, 2, 2))
    empty = matching_of(PlanePartition.empty(BoxDims(2, 2, 2)))
    lam = project(mesh, empty)
    assert lam.loops == ()
    assert lam.doubled == matching_of(PlanePartition.empty(BoxDims(1, 1, 1)))


def test_projection_fibers_partition_matchings():
    mesh = build_mesh(BoxDims(2, 2, 2))
    fibers = {}
    for mu in enumerate_matchings(BoxDims(2, 2, 2)):
        fibers.setdefault(project(mesh, mu), set()).add(mu)
    assert len(fibers) == 3
    assert sorted(len(v) for v in fibers.values()) == [1, 1, 18]
    for lam, mus in fibers.items():
        assert set(lift_preimages(mesh, lam)) == mus


def test_every_propeller_has_one_matched_short_edge():
    mesh = build_mesh(BoxDims(2, 2, 2))
    claws = claws_by_base(mesh)
    assert all(len(outers) == 3 for outers in claws)
    for mu in enumerate_matchings(BoxDims(2, 2, 2)):
        for outers in claws:
            assert sum(mu >> e & 1 for _, _, e in outers) == 1


def classify_propeller(mesh, mu, outers):
    """How a matching mask passes through one claw, given by its outers
    (claws_by_base): 'Parallel' (the two long edges are the two lifts of
    one base edge, giving a doubled passage) or a turning passage,
    'OneTurn'/'TwoTurn' by how far apart the two touched outer classes sit
    from the matched short edge's class."""
    short_cls = [cls for cls, _, e in outers if mu >> e & 1]
    longs = [p for _, v, e in outers for p, _ in mesh.vertex_edges[v]
             if p != e and mu >> p & 1]
    if len(short_cls) != 1 or len(longs) != 2:
        raise SquishError("matching does not pass cleanly through the claw")
    squish_of = {i: j for j, pair in enumerate(mesh.lifts) for i in pair}
    b1, b2 = (squish_of[p] for p in longs)
    if b1 == b2:
        return "Parallel"
    # turning passage: the two base edges meet the base vertex at 120 or 240
    # degrees; classes tell them apart (same class twice is impossible here)
    pair = {mesh.base.edges[b1].cls, mesh.base.edges[b2].cls}
    if short_cls[0] in pair:
        return "OneTurn"
    return "TwoTurn"


def test_classify_propeller():
    mesh = build_mesh(BoxDims(2, 2, 2))
    empty = matching_of(PlanePartition.empty(BoxDims(2, 2, 2)))
    claws = claws_by_base(mesh)
    for outers in claws:
        assert classify_propeller(mesh, empty, outers) == "Parallel"
    counts = Counter()
    for mu in enumerate_matchings(BoxDims(2, 2, 2)):
        lam = project(mesh, mu)
        non_parallel = 0
        for outers in claws:
            kind = classify_propeller(mesh, mu, outers)
            counts[kind] += 1
            non_parallel += kind != "Parallel"
        # loops pass through every propeller on them
        assert non_parallel == sum(map(len, lam.loops))
    assert counts["Parallel"] == 12  # the two all-doubled fibers
    assert counts["OneTurn"] + counts["TwoTurn"] == 108


# -- turn words and loop sums ------------------------------------------------------


def test_hexagon_turn_word():
    mesh, loop = hexagon_loop()
    assert turn_word(mesh, loop) == "LLLLLL"


@pytest.mark.parametrize("base", BASE_DIMS, ids=str)
def test_turn_words_have_net_six_lefts(base):
    mesh = build_mesh(base)
    for lam in iter_two_factors(base):
        for loop in lam.loops:
            word = turn_word(mesh, loop)
            assert len(word) == len(loop)
            assert word.count("L") - word.count("R") == 6


def test_hexagon_loop_lift_sums():
    _, loop = hexagon_loop()
    even = build_mesh(BoxDims(2, 2, 2))
    S = sign_weighting(even)
    assert loop_lift_sum(even, loop, S) == -2
    assert transfer_lift_sum(even, loop) == -2
    assert loop_lift_sum(even, loop, ones(even)) == 18


@pytest.mark.parametrize("base", BASE_DIMS, ids=str)
def test_transfer_equals_brute_force(base):
    even = build_mesh(base.doubled())
    S = sign_weighting(even)
    mesh = build_mesh(base)
    for lam in iter_two_factors(base):
        for loop in lam.loops:
            brute = loop_lift_sum(even, loop, S)
            assert brute == transfer_lift_sum(even, loop) == -2
            m = mat_word(turn_word(mesh, loop))
            assert m[2][2] + m[3][3] == -2


def test_transfer_rows_equal_the_full_matrix_product():
    # the two carried rows against the full 4x4 product of the turn word,
    # over every distinct base loop that minus-one -d 2,2,2 sums
    base = BoxDims(2, 2, 2)
    even, mesh = build_mesh(base.doubled()), build_mesh(base)
    loops = {loop for lam in iter_two_factors(base) for loop in lam.loops}
    assert len(loops) == 64
    for loop in loops:
        m = mat_word(turn_word(mesh, loop))
        assert transfer_lift_sum(even, loop) == m[2][2] + m[3][3]


@pytest.mark.parametrize("base", [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1),
                                  (3, 2, 1)], ids=str)
def test_loop_lift_sum_equals_sum_over_lift_choices(base):
    # the transfer against the enumerated lift selections, for three +-1
    # weightings; a weighting with t-exponents (U) is refused
    base = BoxDims(*base)
    even = build_mesh(base.doubled())
    rng = random.Random(7)
    coin = EdgeWeighting(even, [rng.choice((1, -1)) for _ in even.edges], (0,) * len(even.edges))
    U = pullback_weighting(even)
    n = 0
    for lam in iter_two_factors(base):
        for loop in lam.loops:
            choices = _loop_lift_choices(even, loop)
            for w in (sign_weighting(even), ones(even), coin):
                want = sum(math.prod(w.signs[i] for i in pick) for pick in choices)
                assert loop_lift_sum(even, loop, w) == want
            if any(U.exps[i] for e in loop for i in even.lifts[e]):
                with pytest.raises(SquishError):
                    loop_lift_sum(even, loop, U)
                n += 1
    assert n > 0


# -- the sign-weighting lemma ----------------------------------------------------


@pytest.mark.parametrize("base", BASE_DIMS, ids=str)
def test_lemma2(base):
    a, b, c = base
    sgn = (-1) ** (a * b + b * c + c * a)
    even = build_mesh(base.doubled())
    S = sign_weighting(even)
    for lam in iter_two_factors(base):
        assert lemma2_sum(even, lam, S) == sgn * 2 ** len(lam.loops)


def test_lemma2_hexagon_values():
    even = build_mesh(BoxDims(2, 2, 2))
    S = sign_weighting(even)
    values = sorted(lemma2_sum(even, lam, S)
                    for lam in iter_two_factors(BoxDims(1, 1, 1)))
    assert values == [-2, -1, -1]


def test_aggregate_sign_sum():
    # sum of S over ALL matchings of the even mesh equals
    # (-1)^(ab+bc+ca) * (#base matchings)^2
    even = build_mesh(BoxDims(2, 2, 2))
    S = sign_weighting(even)
    total = sum(S.weight_of(mu).coeff for mu in enumerate_matchings(BoxDims(2, 2, 2)))
    assert total == -4


def test_loop_lift_choices_match_filtered_product():
    even = build_mesh(BoxDims(4, 4, 2))
    fibers, base_faces, index = lift_fibers(even), list(even.base.edges), edge_positions(even)
    n = 0
    for lam in iter_two_factors(BoxDims(2, 2, 1)):
        for loop in lam.loops:
            k = len(loop)
            pairs = [fibers[base_faces[e]] for e in loop]
            ends = [[set(rhombus_ends(even)[f]) for f in pair] for pair in pairs]
            want = [tuple(index[pair[i]] for pair, i in zip(pairs, pick))
                    for pick in itertools.product((0, 1), repeat=k)
                    if all(not ends[i][pick[i]] & ends[(i + 1) % k][pick[(i + 1) % k]]
                           for i in range(k))]
            assert _loop_lift_choices(even, loop) == want
            n += 1
    assert n > 0


def test_lemma2_sum_equals_direct_preimage_sum():
    # also for seeded random signs on the long edges, which no sign rule
    # gives, so that the weighting passed in is the one summed
    even = build_mesh(BoxDims(2, 2, 2))
    for S in (sign_weighting(even), coin_signs(even, 7)):
        for lam in iter_two_factors(BoxDims(1, 1, 1)):
            direct = sum(S.weight_of(mu).coeff for mu in lift_preimages(even, lam))
            assert direct == lemma2_sum(even, lam, S)


# -- diagram consistency of the gauge ---------------------------------------------


@pytest.mark.parametrize("base", [(1, 1, 1), (2, 2, 1)], ids=str)
def test_consistency_factorization(base):
    dims = BoxDims(*base).doubled()
    mesh = build_mesh(dims)
    U = pullback_weighting(mesh)
    S = sign_weighting(mesh)
    scheme = Z2Z2.with_signs({"q": -1, "r": -1, "s": -1})
    a, b, c = base

    def W(mu):
        t = split(U.weight_of(mu).key)[0]
        return S.weight_of(mu).coeff * (-1) ** (t % 2), t

    s0, e0 = W(matching_of(PlanePartition.empty(dims)))
    assert (s0, e0) == ((-1) ** (a * b + b * c + c * a), 0)
    for mu in enumerate_matchings(dims):
        s, e = W(mu)
        dw = diagram_weight(diagram_of(mesh, mu), scheme)
        assert s * s0 == dw.coeff and e == 3 * split(dw.key)[0]


# -- one computation per distinct 2-factor ---------------------------------------


@pytest.mark.parametrize("dims", [(2, 2, 2), (4, 4, 2)], ids=str)
def test_grouped_projection_equals_per_matching_assembly(dims):
    # project once per projection key: every matching of the group assembles,
    # on its own, to the group's 2-factor; the key, counted one lift at a
    # time, is the pair of the 2-factor's doubled and loop edges
    mesh = build_mesh(BoxDims(*dims))
    base = mesh.base
    groups = {}
    for mu in enumerate_matchings(mesh.dims):
        groups.setdefault(projection_key(mesh, mu), []).append(mu)
    lams = [project(mesh, mus[0]) for mus in groups.values()]
    assert len(set(lams)) == len(lams)
    squish_of = {i: j for j, pair in enumerate(mesh.lifts) for i in pair}
    for lam, (key, mus) in zip(lams, groups.items()):
        faces = as_faces(lam)
        assert key == (mask_of(base, faces.doubled),
                       mask_of(base, {f for loop in faces.loops for f in loop}))
        for mu in mus:
            counts = Counter(squish_of[i] for i in positions(mu & ~mesh.short_mask))
            doubled = sum(1 << j for j, n in counts.items() if n == 2)
            rest = sum(1 << j for j, n in counts.items() if n == 1)
            assert (doubled, rest) == key
            assert assemble_two_factor(base, doubled, rest) == lam


@pytest.mark.parametrize("base", BASE_DIMS, ids=str)
def test_projection_keys_are_the_overlay_keys(base):
    # the even mesh's matchings project onto the overlay keys of the base
    # matchings' pairs, and every lift of a 2-factor has its key
    even = build_mesh(base.doubled())
    mus = enumerate_matchings(even.dims)
    assert {projection_key(even, mu) for mu in mus} == overlay_keys(enumerate_matchings(base))
    n = 0
    for lam in iter_two_factors(base):
        for mu in lift_preimages(even, lam):
            assert projection_key(even, mu) == (lam.doubled, lam.loop_mask())
            n += 1
    assert n == len(mus)


def test_projection_key_refuses_a_non_matching():
    mesh = build_mesh(BoxDims(2, 2, 2))
    mu = matching_of(PlanePartition.empty(mesh.dims))
    with pytest.raises(SquishError, match="perfect matching"):
        projection_key(mesh, mu & (mu - 1))
    # V/2 edges, one vertex covered twice: trade an edge e for an edge g
    # at one of its ends, whose other end an edge of mu covers
    bits = mesh.endpoint_bits
    e = mu.bit_length() - 1
    g = next(i for i in range(len(bits)) if i != e and bits[i] & bits[e])
    twice = mu ^ 1 << e | 1 << g
    assert 2 * twice.bit_count() == len(mesh.vertices)
    with pytest.raises(SquishError, match="perfect matching"):
        projection_key(mesh, twice)


def test_key_sum_weight_equals_monomial_product():
    mesh = build_mesh(BoxDims(4, 4, 2))
    for w in (pullback_weighting(mesh), sign_weighting(mesh)):
        weights = monomials(w)
        for mu in enumerate_matchings(mesh.dims):
            want = reduce(Monomial.__mul__, (weights[i] for i in positions(mu)), Monomial(1))
            assert w.weight_of(mu) == want


def test_weighting_past_the_range_raises():
    mesh = build_mesh(BoxDims(1, 1, 1))
    m = len(mesh.edges)

    def weighting(exps=(), signs=()):  # t^exps[i] and signs[i] on edge i, 1 past them
        return EdgeWeighting(mesh, tuple(signs) + (1,) * (m - len(signs)),
                             tuple(exps) + (0,) * (m - len(exps)))

    edge = weighting((LIMIT // 2, LIMIT // 2 - 1))
    assert edge.weight_of(0b11) == Monomial(1, pack(LIMIT - 1, 0, 0, 0))
    # weight_of raises AlgebraError once a sum leaves [-LIMIT, LIMIT), and
    # only then: each edge alone, and a sum that cancels, still fits
    for exps, fits in (((LIMIT // 2, LIMIT // 2), False), ((-LIMIT // 2, LIMIT // 2), True),
                       ((-LIMIT // 2, -LIMIT // 2), True),
                       ((-LIMIT // 2, -LIMIT // 2 - 1), False)):
        over = weighting(exps)
        assert over.weight_of(0b1) == mono_t(exps[0])
        assert over.weight_of(0b10) == mono_t(exps[1])
        if fits:
            assert over.weight_of(0b11) == mono_t(sum(exps))
        else:
            with pytest.raises(AlgebraError):
                over.weight_of(0b11)
    # one sign or exponent too few or too many, a sign other than +-1, a
    # bit past the last edge
    for n in (0, 1, m - 1, m + 1):
        with pytest.raises(SquishError, match=f"{n} signs and {m} exponents for {m} edges"):
            EdgeWeighting(mesh, (1,) * n, (0,) * m)
        with pytest.raises(SquishError, match=f"{m} signs and {n} exponents for {m} edges"):
            EdgeWeighting(mesh, (1,) * m, (0,) * n)
    for bad in (2, 0, -2):
        with pytest.raises(SquishError, match="not \\+1 or -1"):
            weighting(signs=(1, bad))
    with pytest.raises(UnknownFace):
        edge.weight_of(1 << m)
    # the face ratio reads the signs and exponents edge by edge
    [cycle] = mesh.hex_cycles.values()
    for i, want in ((1, (1, 1)), (0, (1, -1))):
        exps = [0] * m
        exps[cycle[i]] = 1
        assert weighting(exps).face_ratio(cycle) == want
    signs = [1] * m
    signs[cycle[2]] = -1
    assert weighting(signs=signs).face_ratio(cycle) == (-1, 0)


def test_minus_one_sums_each_distinct_loop_once(monkeypatch):
    import hexdimer.cli as cli
    import hexdimer.squish as sq

    calls = Counter()

    def counting(name, fn):
        def wrapper(mesh, loop, *rest):
            calls[name, loop] += 1
            return fn(mesh, loop, *rest)
        return wrapper

    monkeypatch.setattr(sq, "loop_lift_sum", counting("brute", sq.loop_lift_sum))
    monkeypatch.setattr(cli, "transfer_lift_sum", counting("transfer", cli.transfer_lift_sum))
    rep = cli.check_minus_one(BoxDims(2, 2, 2))
    assert rep.status == "pass"
    loops = {loop for lam in iter_two_factors(BoxDims(2, 2, 2)) for loop in lam.loops}
    assert set(calls) == {(name, loop) for name in ("brute", "transfer") for loop in loops}
    assert set(calls.values()) == {1}


def test_lemma2_sum_builds_no_key_table():
    # the sign sums read S's signs and exponents edge by edge; only
    # weight_of builds the per-byte table of the exponents and the -1 mask
    even = build_mesh(BoxDims(4, 2, 2))
    S = sign_weighting(even)
    for lam in iter_two_factors(BoxDims(2, 1, 1)):
        lemma2_sum(even, lam, S)
    assert "_exp_table" not in vars(S) and "minus" not in vars(S)
    assert [i for i, s in enumerate(S.signs) if s < 0] == sorted(first for first, _ in even.lifts)
    assert set(S.exps) == {0}
    S.weight_of(0)
    assert "_exp_table" in vars(S)
    assert S.minus == sum(1 << first for first, _ in even.lifts)


def test_lemma2_sum_keeps_loop_sums():
    even = build_mesh(BoxDims(4, 2, 2))
    S = sign_weighting(even)
    loop_sums = {}
    for lam in iter_two_factors(BoxDims(2, 1, 1)):
        assert lemma2_sum(even, lam, S, loop_sums) == lemma2_sum(even, lam, S)
    assert loop_sums and all(loop_lift_sum(even, loop, S) == v for loop, v in loop_sums.items())


@pytest.mark.parametrize("base", [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1)], ids=str)
def test_loop_sums_equal_preimage_sums(base):
    # a loop's lift choices are the distinct restrictions of its 2-factor's
    # preimages to the loop's lifts; summing S over them is the brute force
    # that loop_lift_sum and transfer_lift_sum must give, and their product
    # over the loops, with the doubled edges' lifts, is lemma2_sum
    base = BoxDims(*base)
    even = build_mesh(base.doubled())
    coin = coin_signs(even, 11)
    S = sign_weighting(even)
    n = 0
    for lam in iter_two_factors(base):
        pre = lift_preimages(even, lam)
        for w in (S, coin):
            assert lemma2_sum(even, lam, w) == sum(w.weight_of(mu).coeff for mu in pre)
        for loop in lam.loops:
            lifts = sum(1 << i for e in loop for i in even.lifts[e])
            choices = {mu & lifts for mu in pre}
            for w in (S, coin):
                brute = sum(w.weight_of(r).coeff for r in choices)
                assert loop_lift_sum(even, loop, w) == brute
            assert transfer_lift_sum(even, loop) == loop_lift_sum(even, loop, S) == -2
            n += 1
    assert n > 0
