"""`check consistency` by hexagon face ratios, against the per-matching
comparison it replaces."""

import itertools
import json
from functools import reduce

import pytest

import hexdimer.cli as cli
import hexdimer.diagrams as diagrams
import hexdimer.mesh as mesh_module
import hexdimer.overlay as overlay
import hexdimer.squish as squish
from conftest import monomials, per_byte_tables
from hexdimer.algebra import Monomial, split
from hexdimer.cli import check_consistency, main, run_check
from hexdimer.diagrams import (PlanePartition, Z2Z2, diagram_of, diagram_weight,
                               enumerate_diagrams, iter_matchings, matching_of)
from hexdimer.mesh import BoxDims, build_mesh, positions
from hexdimer.squish import (EdgeWeighting, calibrate_sign_rule, pullback_weighting,
                             sign_weighting, wp_edge_weighting)


def consistency_by_matchings(dims: BoxDims, U: EdgeWeighting, S: EdgeWeighting) -> bool:
    """The per-matching comparison: normalized U(t -> -t) * S against the
    diagram weight at q,r,s -> -1, p = t^3, on every matching of the mesh."""
    mesh = build_mesh(dims)
    scheme = Z2Z2.with_signs({"q": -1, "r": -1, "s": -1})
    a, b, c = mesh.base.dims

    def W(mu):
        u = U.weight_of(mu)
        t = split(u.key)[0]
        return S.weight_of(mu).coeff * u.coeff * (-1) ** (t % 2), t

    s0, e0 = W(matching_of(PlanePartition.empty(dims)))
    ok = (s0, e0) == ((-1) ** (a * b + b * c + c * a), 0)
    for mu in iter_matchings(dims):
        s, e = W(mu)
        dw = diagram_weight(diagram_of(mesh, mu), scheme)
        ok = ok and (s * s0, e) == (dw.coeff, 3 * split(dw.key)[0])
    return ok


def with_weightings(monkeypatch, U=None, S=None):
    """Make check_consistency use the given U and S (the real ones where None)."""
    if U is not None:
        monkeypatch.setattr(cli, "pullback_weighting", lambda mesh: U)
    if S is not None:
        monkeypatch.setattr(cli, "sign_weighting", lambda mesh: S)


def changed(w: EdgeWeighting, p: int, sign: int = 1, exp: int = 0) -> EdgeWeighting:
    """The weighting w with the weight of the edge at position p
    multiplied by sign * t^exp."""
    signs, exps = list(w.signs), list(w.exps)
    signs[p] *= sign
    exps[p] += exp
    return EdgeWeighting(w.mesh, signs, exps)


def long_edges(mesh):
    return [i for pair in mesh.lifts for i in pair]


@pytest.mark.parametrize("dims", [(a, b, c) for a, b, c in
                                  itertools.product((1, 2, 3), repeat=3)], ids=str)
def test_adding_a_box_flips_its_hexagon(dims):
    # adding box (i,j,k) to any diagram turns the edges cycle[0::2] of the
    # hexagon at (i-k, j-k) into cycle[1::2], the orientation the check's
    # face ratios assume
    dims = BoxDims(*dims)
    a, b, c = dims
    mesh = build_mesh(dims)
    flips = 0
    for pi in enumerate_diagrams(dims):
        M, h = matching_of(pi), pi.h
        for i, j in itertools.product(range(a), range(b)):
            k = h[i][j]
            if k == c or i and h[i - 1][j] == k or j and h[i][j - 1] == k:
                continue  # not addable
            grown = [list(row) for row in h]
            grown[i][j] += 1
            cycle = mesh.hex_cycles[i - k, j - k]
            leave = sum(1 << p for p in cycle[0::2])
            enter = sum(1 << p for p in cycle[1::2])
            assert M & leave == leave
            grown = PlanePartition(dims, tuple(map(tuple, grown)))
            assert matching_of(grown) == M ^ leave ^ enter
            flips += 1
    assert flips >= a * b * c


def test_each_long_edge_sign_mutant_fails(monkeypatch):
    # one flipped sign of S on any long edge of 4,4,4 fails the check; the
    # witness is the first hexagon that has the edge, its ratio negated,
    # unless the empty matching holds the edge
    dims = BoxDims(4, 4, 4)
    mesh = build_mesh(dims)
    S = sign_weighting(mesh)
    empty = positions(matching_of(PlanePartition.empty(dims)))
    edges = long_edges(mesh)
    assert len(edges) == 60
    for f in edges:
        with_weightings(monkeypatch, S=changed(S, f, sign=-1))
        rep = check_consistency(dims)
        assert rep.status == "fail", f
        if f in empty:
            assert "empty_weight" in rep.witness
            continue
        first = next(pt for pt, cycle in mesh.hex_cycles.items() if f in cycle)
        ratio, want = rep.witness["ratio"], rep.witness["expected"]
        assert rep.witness["hexagon"] == list(first)
        assert ratio == (-want[0], want[1])


def test_a_changed_lift_weight_fails(monkeypatch, capsys):
    # exit 1, and at the witness hexagon the extra t, read at -t, leaves
    # the t-exponent one off and the sign negated
    dims = BoxDims(4, 4, 4)
    mesh = build_mesh(dims)
    U = pullback_weighting(mesh)
    empty = positions(matching_of(PlanePartition.empty(dims)))
    f = next(f for f in long_edges(mesh) if f not in empty)
    with_weightings(monkeypatch, U=changed(U, f, exp=1))
    assert main(["check", "consistency", "-d", "4,4,4", "--format", "json"]) == 1
    [rep] = json.loads(capsys.readouterr().out)
    assert rep["status"] == "fail"
    pt, ratio, want = (rep["witness"][k] for k in ("hexagon", "ratio", "expected"))
    assert f in mesh.hex_cycles[tuple(pt)]
    assert ratio[0] == -want[0] and abs(ratio[1] - want[1]) == 1


@pytest.mark.parametrize("dims", [(2, 2, 2), (4, 2, 2), (2, 2, 4)], ids=str)
def test_face_ratios_agree_with_the_per_matching_comparison(dims, monkeypatch):
    # on the real weightings; on a sign of S or of U flipped, or a t^2
    # added to U, at any one edge; and on the signs flipped at every edge
    # at one vertex, which negates every matching and leaves every face
    # ratio as it is, so that only the empty matching's test can see it
    dims = BoxDims(*dims)
    mesh = build_mesh(dims)
    U, S = pullback_weighting(mesh), sign_weighting(mesh)
    assert consistency_by_matchings(dims, U, S)
    assert check_consistency(dims).status == "pass"
    mutants = []  # (U, S, whether only the empty matching's test sees it)
    for p in range(len(mesh.edges)):
        mutants += [(U, changed(S, p, sign=-1), False), (changed(U, p, exp=2), S, False),
                    (changed(U, p, sign=-1), S, False)]
    for at_vertex in mesh.vertex_edges:
        minus = list(S.signs)
        for p, _ in at_vertex:
            minus[p] *= -1
        mutants.append((U, EdgeWeighting(mesh, minus, S.exps), True))
    for u, s, gauge in mutants:
        with_weightings(monkeypatch, U=u, S=s)
        assert not consistency_by_matchings(dims, u, s)
        rep = check_consistency(dims)
        assert rep.status == "fail"
        if gauge:
            assert "empty_weight" in rep.witness


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3, 4), (5, 5, 5)], ids=str)
def test_wp_weighting_has_face_ratio_t_cubed(dims):
    # so every matching weighs t^(3 * boxes): the empty one weighs 1 and
    # each added box multiplies by t^3
    mesh = build_mesh(BoxDims(*dims))
    wp = wp_edge_weighting(mesh)
    weights = monomials(wp)
    empty = positions(matching_of(PlanePartition.empty(mesh.dims)))
    assert reduce(Monomial.__mul__, (weights[p] for p in empty)) == Monomial(1)
    assert mesh.hex_cycles
    assert all(wp.face_ratio(cycle) == (1, 3) for cycle in mesh.hex_cycles.values())


def test_consistency_enumerates_nothing_and_builds_no_table(monkeypatch):
    calibrate_sign_rule()  # searched once per process, on its own small meshes

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    for module in (cli, diagrams, mesh_module, overlay, squish):
        for name in ("iter_matchings", "diagram_of", "edge_table"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse(name))
    build_mesh.cache_clear()  # fresh meshes
    rep = run_check("consistency", BoxDims(16, 16, 16), None, None)[0]
    assert rep.status == "pass"
    mesh = build_mesh(BoxDims(16, 16, 16))
    assert per_byte_tables(mesh) == per_byte_tables(mesh.base) == []
    # the empty matching is read off the lattice table, not the prefix XORs
    assert "empty_matching" in vars(mesh)
    for m in (mesh, mesh.base):
        assert "line_prefix" not in vars(m) and "prefix_base" not in vars(m)


def test_consistency_builds_no_per_edge_monomial(monkeypatch):
    # the weights are read as ints: the Monomials built do not grow with
    # the number of edges (only the box weights of the scheme are built)
    calibrate_sign_rule()
    real, calls = Monomial.__init__, []

    def counted(self, *args):
        calls.append(None)
        real(self, *args)

    monkeypatch.setattr(Monomial, "__init__", counted)
    counts = []
    for dims in (BoxDims(4, 4, 4), BoxDims(40, 40, 40)):
        calls.clear()
        assert check_consistency(dims).status == "pass"
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 8, counts


class Built(Exception):
    pass


@pytest.mark.parametrize("admitted, refused, rule", [
    ("182,182,182", "184,184,184", "101568 up vertices"),
    ("314,314,2", "316,316,2", "101120 up vertices"),
    ("24998,2,2", "25000,2,2", "100004 up vertices"),
], ids=str)
def test_the_size_rule_at_its_edges(capsys, monkeypatch, admitted, refused, rule):
    # the last admitted size gets as far as its first mesh; the first
    # refused one exits 2 from the dims alone.  The admitted sizes pass end
    # to end in under 4 s and 140 MB each on a 2-vCPU VM; the up-vertex
    # count is the only rule, so the flat boxes meet it too.
    def built(mesh, dims):
        raise Built(tuple(dims))

    monkeypatch.setattr(mesh_module.HexMesh, "__init__", built)
    build_mesh.cache_clear()
    with pytest.raises(Built):
        check_consistency(cli.parse_dims(admitted))
    assert main(["check", "consistency", "-d", refused]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and rule in err and "over the bound" in err
