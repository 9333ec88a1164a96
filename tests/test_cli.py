import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import backtrack_matchings, line_prefix_of
from data.regen_golden import GOLDEN, masked

from hexdimer.algebra import Poly, pack
from hexdimer.cli import (CHECK_NAMES, CheckReport, UsageError, build_parser, main,
                          parse_dims, parse_set, run_check)
from hexdimer.diagrams import diagram_sum, iter_matchings
from hexdimer.mesh import BoxDims, build_mesh


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_zfun_text(capsys):
    code, out, _ = run(capsys, "zfun", "-d", "1,1,1", "-w", "z2z2")
    assert code == 0 and out.strip() == "1 + p"
    code, out, _ = run(capsys, "zfun", "-d", "2,1,1", "-w", "z2z2")
    assert code == 0 and out.strip() == "1 + p + p*q"
    code, out, _ = run(capsys, "zfun", "-d", "2,2,2", "-w", "count")
    assert code == 0 and out.strip() == "20"


def test_zfun_json_and_set(capsys):
    code, out, _ = run(capsys, "zfun", "-d", "2,2,2", "-w", "z2z2",
                       "--set", "q=-1,r=-1,s=-1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["vars"] == ["p", "q", "r", "s"]
    terms = {tuple(t["exp"]): t["coeff"] for t in obj["terms"]}
    assert terms == {(0, 0, 0, 0): 1, (1, 0, 0, 0): -2, (2, 0, 0, 0): 1}


def test_zfun_methods_agree(capsys):
    code, out, _ = run(capsys, "zfun", "-d", "2,2,1", "--format", "json")
    assert code == 0
    assert json.loads(out) == diagram_sum(BoxDims(2, 2, 1)).to_json_obj()


def test_zfun_cap_filters_total_degree(capsys):
    for weighting in ("z2z2", "mono"):
        _, out, _ = run(capsys, "zfun", "-d", "3,2,2", "-w", weighting, "--format", "json")
        full = json.loads(out)
        for k in range(4):
            code, out, _ = run(capsys, "zfun", "-d", "3,2,2", "-w", weighting,
                               "--cap", str(k), "--format", "json")
            assert code == 0
            assert json.loads(out) == {**full, "terms": [
                t for t in full["terms"] if sum(t["exp"]) <= k]}


def test_eq1_order_range(capsys):
    code, out, _ = run(capsys, "check", "eq1", "--order", "12", "--format", "json")
    (rep,) = json.loads(out)
    assert code == 0 and rep["status"] == "pass"
    assert rep["params"]["coefficients"][-1] == 1479  # plane partitions of 12
    code, _, err = run(capsys, "check", "eq1", "--order", "13")
    assert code == 2 and "order 13" in err


def test_zfun_deterministic(capsys):
    a = run(capsys, "zfun", "-d", "3,2,2", "--format", "json")
    b = run(capsys, "zfun", "-d", "3,2,2", "--format", "json")
    assert a == b


def test_bad_flags(capsys):
    assert run(capsys, "zfun", "-d", "nope")[0] == 2
    assert run(capsys, "zfun", "-d", "1,1,1", "--set", "x=-1")[0] == 2
    assert run(capsys, "zfun", "-d", "1,1,1", "--set", "q=2")[0] == 2
    # a variable the weighting does not have is refused, not ignored
    for weighting, bad in (("count", "p=-1,q=-1"), ("mono", "q=-1")):
        code, _, err = run(capsys, "zfun", "-d", "2,2,2", "-w", weighting, "--set", bad)
        assert code == 2 and "has no variable" in err
    assert run(capsys, "check", "bogus")[0] == 2
    assert run(capsys, "zfun", "-d", "0,1,1")[0] == 2
    # an order outside the checked range is refused, never run smaller
    assert run(capsys, "check", "eq1", "--order", "0")[0] == 2
    code, _, err = run(capsys, "check", "eq2", "--order", "5")
    assert code == 2 and "order 5" in err
    assert run(capsys, "check", "all", "--order", "5")[0] == 2
    # no box passes every check, so check all refuses -d before running any
    for dims in ("2,2,2", "1,1,1"):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "check", "all", "-d", dims)
        assert code == 2 and "-d" in err and out == ""
        assert time.perf_counter() - t0 < 0.5
    # a flag the check does not read is refused, never silently dropped
    code, _, err = run(capsys, "check", "theorem", "--max-dims", "2,2,2")
    assert code == 2 and "--max-dims" in err
    code, _, err = run(capsys, "check", "split", "-d", "1,1,1", "--order", "3")
    assert code == 2 and "--order" in err
    assert run(capsys, "check", "matrices", "-d", "1,1,1")[0] == 2
    # parity reads either flag, but not both at once
    code, _, err = run(capsys, "check", "parity", "-d", "2,2,2", "--max-dims", "1,1,1")
    assert code == 2 and "-d" in err and "--max-dims" in err
    # a negative cap would print a zero partition function
    code, _, err = run(capsys, "zfun", "-d", "2,2,2", "--cap", "-1")
    assert code == 2 and "cap" in err
    # a value takes one sign at most, and a variable one value
    for bad in ("p=--p", "p=+-1", "q=-1,q=1"):
        code, _, err = run(capsys, "zfun", "-d", "1,1,1", "--set", bad)
        assert code == 2 and "error:" in err
    # overlaying the pairs of 13,860 matchings passes the work bound:
    # refused, not failed, and the message claims no total it never counted
    for check in ("split", "minus-one"):
        code, _, err = run(capsys, "check", check, "-d", "6,4,2")
        assert code == 2 and "over the bound" in err and "13860" not in err
    # fibers lifts each matching of the doubled box once: N (ab+bc+ca) is
    # 6.0e8 for 6x4x4, refused from the count before anything is enumerated
    for dims in ("3,2,2", "3,3,3"):
        t0 = time.perf_counter()
        code, _, err = run(capsys, "check", "fibers", "-d", dims)
        assert code == 2 and "over the bound 100000000" in err
        assert time.perf_counter() - t0 < 0.5
    # a long box has few matchings but N^2 (ab+bc+ca) pair-overlay work past
    # the bound: refused by either pair check
    for check, dims in (("minus-one", "500,1,1"), ("split", "1100,1,1")):
        code, _, err = run(capsys, "check", check, "-d", dims)
        assert code == 2 and "over the bound 100000000" in err
    # the refusals come from the box count, before any enumeration
    t0 = time.perf_counter()
    assert run(capsys, "check", "minus-one", "-d", "500,1,1")[0] == 2
    assert time.perf_counter() - t0 < 1.0
    # zfun has no --method: the DP is its only path
    with pytest.raises(SystemExit) as exc:
        main(["zfun", "-d", "1,1,1", "--method", "teleport"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("check", "split", "-d", "300,300,300"),
    ("check", "minus-one", "-d", "100,100,100"),
    ("check", "consistency", "-d", "200,200,200"),
    ("check", "consistency", "-d", "2000000,2,2"),
    ("check", "theorem", "-d", "1000000,1000000,1000000"),
    ("zfun", "-d", "1000000,1000000,1000000"),
    ("check", "fibers", "-d", "30,30,30"),
    ("check", "pullback", "-d", "100,100,100"),
    ("check", "parity", "--max-dims", "13,13,13"),
    ("check", "all", "--max-dims", "13,13,13"),
], ids=" ".join)
def test_a_refusal_builds_no_mesh(capsys, monkeypatch, argv):
    # every size rule reads the dims alone: a refused call exits 2 at once,
    # before the first mesh
    from hexdimer.mesh import HexMesh, build_mesh

    def no_mesh(mesh, dims):
        raise AssertionError(f"H_{tuple(dims)} built")

    monkeypatch.setattr(HexMesh, "__init__", no_mesh)
    build_mesh.cache_clear()  # so that a cached mesh cannot stand in for one built
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:") and "over the bound" in err
    assert time.perf_counter() - t0 < 1.0


def test_parse_helpers():
    assert parse_dims("2,3,4") == BoxDims(2, 3, 4)
    assert parse_set("q=-1,p=-p") == {"q": "-1", "p": "-p"}
    assert parse_set(None) == {}
    with pytest.raises(UsageError):
        parse_set("qrs")
    with pytest.raises(UsageError):
        parse_set("q=-1,q=1")


def test_check_matrices(capsys):
    code, out, _ = run(capsys, "check", "matrices")
    assert code == 0 and out.startswith("PASS check=matrices")


def test_check_theorem_json(capsys):
    code, out, _ = run(capsys, "check", "theorem", "-d", "1,1,1",
                       "--format", "json")
    assert code == 0
    (rep,) = json.loads(out)
    assert rep["status"] == "pass" and rep["guarantee"] == "exact"
    assert rep["params"]["lhs"] == "1 - 2*p + p^2"


def test_check_theorem_fails_on_a_perturbed_side(capsys, monkeypatch):
    # a left side off by p fails the check, and the witness holds the two
    # sides compared: the right one is the check's one and only product
    import hexdimer.cli as cli

    real_z, real_mul, products = cli.z_lgv, Poly.__mul__, []

    def perturbed(dims, scheme):
        out = real_z(dims, scheme)
        return out + Poly({pack(1, 0, 0, 0): 1}) if dims == BoxDims(2, 2, 2) else out

    def mul(x, y):
        products.append(real_mul(x, y))
        return products[-1]

    monkeypatch.setattr(cli, "z_lgv", perturbed)
    monkeypatch.setattr(Poly, "__mul__", mul)
    code, out, _ = run(capsys, "check", "theorem", "-d", "1,1,1", "--format", "json")
    (rep,) = json.loads(out)
    assert code == 1 and rep["status"] == "fail" and len(products) == 1
    assert str(products[0]) == "1 - 2*p + p^2"
    assert rep["witness"] == {"lhs": Poly({0: 1, pack(1, 0, 0, 0): -1,
                                           pack(2, 0, 0, 0): 1}).to_json_obj(),
                              "rhs": products[0].to_json_obj()}


def test_check_minus_one_values(capsys):
    code, out, _ = run(capsys, "check", "minus-one", "-d", "1,1,1",
                       "--format", "json")
    assert code == 0
    (rep,) = json.loads(out)
    # two matchings: each doubled (-1, -1) and the hexagon loop (-2)
    assert rep["status"] == "pass"
    assert (rep["params"]["two_factors"], rep["params"]["loops"]) == (3, 1)


def overlay_counts(dims):
    """How many distinct 2-factors and distinct loops the pairs of the
    backtracked matchings overlay to: a loop is an edge set that the
    symmetric difference of a pair connects."""
    mesh = build_mesh(dims)
    ms = list(backtrack_matchings(dims))
    keys = {(M1 & M2, M1 ^ M2) for M1 in ms for M2 in ms}
    loops = set()
    for _, rest in keys:
        while rest:
            seen, todo = set(), [(rest & -rest).bit_length() - 1]
            while todo:
                e = todo.pop()
                if e not in seen:
                    seen.add(e)
                    todo += [f for v in mesh.edge_ends[e] for f, _ in mesh.vertex_edges[v]
                             if rest >> f & 1]
            loops.add(frozenset(seen))
            rest &= ~sum(1 << e for e in seen)
    return len(keys), len(loops)


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1)], ids=str)
def test_check_minus_one_counts_two_factors_and_loops(capsys, dims):
    code, out, _ = run(capsys, "check", "minus-one", "-d", ",".join(map(str, dims)),
                       "--format", "json")
    (rep,) = json.loads(out)
    assert code == 0 and rep["status"] == "pass"
    assert (rep["params"]["two_factors"], rep["params"]["loops"]) == \
        overlay_counts(BoxDims(*dims))


def test_check_fibers(capsys):
    code, out, _ = run(capsys, "check", "fibers", "-d", "1,1,1",
                       "--format", "json")
    assert code == 0
    (rep,) = json.loads(out)
    assert rep["params"]["fiber_sizes"] == [1, 1, 18]


@pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (2, 2, 1)], ids=str)
def test_fiber_sizes_sum_to_the_enumerated_matchings(capsys, dims):
    # ties MacMahon's count, which the check sums the fibers against, to
    # the backtracking enumerator
    dims = BoxDims(*dims)
    code, out, _ = run(capsys, "check", "fibers", "-d", ",".join(map(str, dims)),
                       "--format", "json")
    (rep,) = json.loads(out)
    assert code == 0
    assert sum(rep["params"]["fiber_sizes"]) == len(list(iter_matchings(dims.doubled())))


def test_check_fibers_past_the_old_matching_limit(capsys):
    code, out, _ = run(capsys, "check", "fibers", "-d", "3,2,1", "--format", "json")
    (rep,) = json.loads(out)
    assert code == 0 and sum(rep["params"]["fiber_sizes"]) == 13860


@pytest.mark.parametrize("edit, field", [
    (lambda pre, earlier: pre[1:], "fiber_total"),
    (lambda pre, earlier: pre[:-1] + pre[:1], "distinct"),
    (lambda pre, earlier: pre + earlier[0][:1], "stray"),
], ids=["drop", "repeat", "stranger"])
def test_check_fibers_fails_on_a_wrong_fiber(capsys, monkeypatch, edit, field):
    # one fiber of more than one matching, after at least one other fiber,
    # is edited once: one matching dropped, one repeated in place of
    # another, or one of the first fiber's matchings added to it
    import hexdimer.cli as cli

    real, earlier, edited = cli.lift_preimages, [], []

    def lifts(mesh, lam):
        pre = real(mesh, lam)
        if earlier and len(pre) > 1 and not edited:
            edited.append(lam)
            pre = edit(pre, earlier)
        earlier.append(pre)
        return pre

    monkeypatch.setattr(cli, "lift_preimages", lifts)
    code, out, _ = run(capsys, "check", "fibers", "-d", "2,1,1", "--format", "json")
    (rep,) = json.loads(out)
    assert code == 1 and edited and rep["status"] == "fail"
    witness = rep["witness"]
    if field == "fiber_total":
        assert witness[field] == witness["matchings"] - 1
    elif field == "distinct":
        assert witness[field] == witness["preimages"] - 1
    else:
        assert witness[field] and witness["distinct"] == witness["preimages"]


def test_check_fibers_tests_each_lift_once(monkeypatch):
    # lift_preimages assembles, projection_key validates: one perfect-matching
    # test (HexMesh.matching_sum) per matching of the even mesh, which is
    # also its one per-byte table sum
    from hexdimer.mesh import HexMesh

    calls = {"matching_sum": [], "edge_sum": []}

    def counted(name):
        real = getattr(HexMesh, name)

        def wrapper(mesh, M, *args, **kwargs):
            if mesh.dims == BoxDims(4, 2, 2):
                calls[name].append(M)
            return real(mesh, M, *args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(HexMesh, name, counted(name))
    rep = run_check("fibers", BoxDims(2, 1, 1), None, None)[0]
    assert rep.status == "pass"
    n = sum(rep.params["fiber_sizes"])
    for masks in calls.values():
        assert len(masks) == len(set(masks)) == n


def test_check_fibers_refuses_a_lift_that_is_not_a_matching(monkeypatch):
    import hexdimer.cli as cli
    from hexdimer.squish import SquishError

    real = cli.lift_preimages
    monkeypatch.setattr(cli, "lift_preimages",
                        lambda mesh, lam: [mu & (mu - 1) for mu in real(mesh, lam)])
    with pytest.raises(SquishError, match="perfect matching"):
        run_check("fibers", BoxDims(1, 1, 1), None, None)


class Enumerated(Exception):
    pass


def enumeration_raises(*args):
    raise Enumerated


def test_check_pullback_refuses_from_the_count(capsys, monkeypatch):
    # pullback handles each matching once: N (ab+bc+ca) is bounded from the
    # box count before iter_matchings runs
    import hexdimer.cli as cli

    monkeypatch.setattr(cli, "iter_matchings", enumeration_raises)
    for dims in ("8,8,8", "6,6,4"):
        code, _, err = run(capsys, "check", "pullback", "-d", dims)
        assert code == 2 and "over the bound 100000000" in err
        assert f"H_({dims.replace(',', ', ')})" in err
    # 4,4,4 (232,848 matchings, 48 edges) is admitted and reaches the enumeration
    with pytest.raises(Enumerated):
        run_check("pullback", BoxDims(4, 4, 4), None, None)


def test_an_enumeration_that_stops_short_exits_three(capsys, monkeypatch):
    # pullback streams iter_matchings and split lists enumerate_matchings,
    # which sorts it; with the walk's last matching dropped, each is a
    # program fault that names both counts, never a pass on a smaller box
    import hexdimer.cli as cli
    import hexdimer.diagrams as diagrams

    real = diagrams.iter_matchings

    def short(dims):
        return iter(list(real(dims))[:-1])

    monkeypatch.setattr(cli, "iter_matchings", short)
    monkeypatch.setattr(diagrams, "iter_matchings", short)
    for check, dims, n in (("pullback", "2,2,2", 20), ("split", "2,2,1", 6)):
        code, out, err = run(capsys, "check", check, "-d", dims)
        assert code == 3 and out == "" and err.startswith("internal error: DiagramError")
        assert f"enumerated {n - 1} matchings" in err and f"counts {n}" in err


def test_pullback_exits_three_on_a_broken_flip_table(capsys, monkeypatch):
    # the walk reads each box's flip off line_prefix: rebuilt with two
    # hexagons' masks swapped, or one cut to one half, it yields masks that
    # are no matching, which projection_key refuses (exit 3), never a pass.
    # The mutants run on a mesh of this test's own, dropped from the cache
    # at the end, so no table a mutant leaves cached outlives the test
    from hexdimer.mesh import build_mesh

    dims = BoxDims(2, 2, 2)
    build_mesh.cache_clear()
    try:
        mesh = build_mesh(dims)
        real = mesh.hex_masks
        assert line_prefix_of(dims, real) == mesh.line_prefix
        mutants = []
        for p1, p2 in itertools.combinations(real, 2):
            mutants.append({**real, p1: real[p2], p2: real[p1]})
        for pt, (odd, even) in real.items():
            mutants += [{**real, pt: (odd, 0)}, {**real, pt: (0, even)}]
        assert len(mutants) == 21 + 14
        for masks in mutants:
            monkeypatch.setitem(vars(mesh), "line_prefix", line_prefix_of(dims, masks))
            code, out, err = run(capsys, "check", "pullback", "-d", "2,2,2")
            assert code == 3 and out == "" and err.startswith("internal error:"), masks
        monkeypatch.setitem(vars(mesh), "line_prefix", line_prefix_of(dims, real))
        assert run(capsys, "check", "pullback", "-d", "2,2,2")[0] == 0
    finally:
        build_mesh.cache_clear()


def test_parity_builds_no_line_prefix(capsys):
    # parity flips hexagons from the empty matching and enumerates no
    # diagram, so no mesh it builds holds the bijection's prefix table
    from hexdimer.cli import _all_subdims
    from hexdimer.mesh import build_mesh

    build_mesh.cache_clear()  # fresh meshes
    assert run(capsys, "check", "parity", "--max-dims", "3,3,2")[0] == 0
    for dims in _all_subdims(BoxDims(3, 3, 2)):
        names = vars(build_mesh(dims))
        assert "empty_matching" in names
        assert "line_prefix" not in names and "prefix_base" not in names


def test_check_parity_refuses_before_enumerating_any_box(capsys, monkeypatch):
    # parity enumerates no matching: with every enumeration patched to
    # raise, a box whose pairs the old sweep refused (4,4,3) passes
    import hexdimer.cli as cli
    import hexdimer.diagrams as diagrams
    import hexdimer.overlay as overlay_module

    for module in (cli, diagrams, overlay_module):
        for name in ("enumerate_matchings", "iter_matchings", "pair_matchings"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, enumeration_raises)
    code, out, err = run(capsys, "check", "parity", "--max-dims", "4,4,3")
    assert code == 0 and out.startswith("PASS check=parity certificate max_dims=4,4,3") and err == ""
    # past the work rule (the sum of (ab + bc + ca)^2 over the sub-boxes) it
    # is refused from the dims alone, before the first determinant
    monkeypatch.setattr(cli, "det_mod", enumeration_raises)
    for dims in ("16,16,16", "13,13,13", "400,1,1", "1000000,1000000,1000000"):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "check", "parity", "--max-dims", dims)
        assert code == 2 and out == "" and f"over the bound {cli.PARITY_WORK_LIMIT}" in err
        assert time.perf_counter() - t0 < 0.5
    # an admitted top box gets as far as its first determinant
    with pytest.raises(Enumerated):
        run_check("parity", None, None, BoxDims(12, 12, 12))


def test_parity_work_is_the_sum_over_the_sub_boxes():
    from hexdimer.cli import parity_work

    for top in itertools.product(range(1, 6), repeat=3):
        want = sum((a * b + b * c + c * a) ** 2 for a, b, c in itertools.product(
            *(range(1, m + 1) for m in top)))
        assert parity_work(BoxDims(*top)) == want, top


def test_check_parity_fails_on_a_flipped_sign(capsys, monkeypatch):
    # one -1 entry in the 2,2,2 matrix mixes the signs of its matchings:
    # that box, the last one checked, is the first to fail, with its
    # determinant and count as the witness
    from hexdimer.mesh import HexMesh

    real = HexMesh.kasteleyn_rows

    def flipped(mesh):
        rows = real(mesh)
        if tuple(mesh.dims) == (2, 2, 2):
            rows[0][min(rows[0])] = -1
        return rows

    monkeypatch.setattr(HexMesh, "kasteleyn_rows", flipped)
    code, out, _ = run(capsys, "check", "parity", "--max-dims", "2,2,2", "--format", "json")
    (rep,) = json.loads(out)
    assert code == 1 and rep["status"] == "fail"
    witness = rep["witness"]
    assert witness["dims"] == [2, 2, 2] and witness["count"] == 20
    assert abs(witness["det"]) not in (0, 20) and abs(witness["det"]) < 20


def test_check_parity_checks_each_hexagon_flip_once(capsys, monkeypatch):
    # the flip half overlays one matching with its flip at each hexagon,
    # once per hexagon; an overlay read one component off fails the box
    import hexdimer.cli as cli
    from hexdimer.mesh import build_mesh

    real, seen = cli.overlay, []

    def counted(mesh, M1, M2):
        seen.append((tuple(mesh.dims), M1 ^ M2))
        return real(mesh, M1, M2)

    monkeypatch.setattr(cli, "overlay", counted)
    assert run(capsys, "check", "parity", "--max-dims", "3,2,2")[0] == 0
    for dims in itertools.product((1, 2, 3), (1, 2), (1, 2)):
        loops = [loop for d, loop in seen if d == dims]
        hexagons = build_mesh(BoxDims(*dims)).hex_masks.values()
        assert sorted(loops) == sorted(odd | even for odd, even in hexagons)

    class OffByOne:
        def __init__(self, lam):
            self.lam = lam

        def component_count(self):
            return self.lam.component_count() + 1

    monkeypatch.setattr(cli, "overlay", lambda *args: OffByOne(real(*args)))
    code, out, _ = run(capsys, "check", "parity", "--max-dims", "1,1,1", "--format", "json")
    (rep,) = json.loads(out)
    assert code == 1 and rep["witness"] == {"dims": [1, 1, 1], "face": [0, 0], "C": 2}


def test_check_parity_refuses_a_count_past_the_primes(capsys, monkeypatch):
    # a synthetic count whose double passes the largest listed prime has no
    # modulus to read the determinant back from: a usage error, exit 2
    import hexdimer.cli as cli

    monkeypatch.setattr(cli, "box_count", lambda dims: 2 ** 4422)
    monkeypatch.setattr(cli, "det_mod", enumeration_raises)
    code, out, err = run(capsys, "check", "parity", "--max-dims", "2,2,2")
    assert code == 2 and out == "" and "no listed prime" in err
    # one below the edge is admitted, with the largest prime
    monkeypatch.setattr(cli, "box_count", lambda dims: 2 ** 4422 - 1)
    with pytest.raises(Enumerated):
        run_check("parity", None, None, BoxDims(2, 2, 2))


def test_partition_function_refuses_before_listing_states(capsys, monkeypatch):
    # the DP runs fewer than a*b*C(a+c, a) state additions; past the
    # work bound it is refused before any profile state is listed
    import hexdimer.cli as cli
    import hexdimer.diagrams as diagrams

    monkeypatch.setattr(diagrams, "_profile_states", enumeration_raises)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "zfun", "-d", "300,300,300")
    assert code == 2 and out == "" and "over the bound 100000000" in err
    assert time.perf_counter() - t0 < 0.5
    # admitted: 602 additions for zfun -d 300,1,2, in the order (1,2,300)
    with pytest.raises(Enumerated):
        diagrams.z_poly(BoxDims(300, 1, 2))
    # check theorem never runs the DP: -d 5,5,5 passes with no state listed
    code, out, _ = run(capsys, "check", "theorem", "-d", "5,5,5")
    assert code == 0 and out.startswith("PASS check=theorem exact")
    # and its own rule refuses -d 8,8,8, its first refused cube, before either
    # side is computed
    monkeypatch.setattr(cli, "z_lgv", enumeration_raises)
    monkeypatch.setattr(diagrams, "det_int", enumeration_raises)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "check", "theorem", "-d", "8,8,8")
    assert code == 2 and out == "" and "over the bound" in err
    assert time.perf_counter() - t0 < 0.5


def test_partition_function_refuses_past_the_exponent_range(capsys, monkeypatch):
    # a scheme that uses a variable reaches exponent a*b*c, and pack holds
    # exponents below 2**20: past that the box is refused before any state
    # is listed, while a scheme that uses none is admitted
    import hexdimer.diagrams as diagrams

    monkeypatch.setattr(diagrams, "_profile_states", enumeration_raises)
    for argv in (["-d", "1,1,1100000", "-w", "mono"], ["-d", "1,1048576,1"],
                 ["-d", "1024,1024,1", "--set", "q=-1,r=-1,s=-1"]):
        code, out, err = run(capsys, "zfun", *argv)
        assert code == 2 and out == "" and "outside the exponent range" in err, argv
    for argv in (["-d", "1,1,1100000", "-w", "count"], ["-d", "1,1,1048575", "-w", "mono"],
                 ["-d", "1,1048576,1", "--set", "p=-1,q=-1,r=1,s=-1"]):
        with pytest.raises(Enumerated):
            main(["zfun", *argv])


@pytest.mark.parametrize("dims, admitted", [
    ("7,7,7", True), ("8,8,8", False), ("50,50,1", True), ("1,50,50", True),
    ("100,100,1", False), ("1,1,2500", True), ("9,9,6", False), ("2,2,1000000", False),
])
def test_theorem_size_rule(capsys, monkeypatch, dims, admitted):
    # the rule reads the sorted dims, and decides at once: an admitted box
    # goes on to the evaluator, a refused one exits 2 before it
    import hexdimer.cli as cli

    monkeypatch.setattr(cli, "z_lgv", enumeration_raises)
    t0 = time.perf_counter()
    if admitted:
        with pytest.raises(Enumerated):
            run_check("theorem", parse_dims(dims), None, None)
    else:
        code, out, err = run(capsys, "check", "theorem", "-d", dims)
        assert code == 2 and out == "" and "over the bound" in err
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("dims, bound", [((7, 7, 7), "THEOREM_BAREISS_LIMIT"),
                                         ((50, 50, 1), "THEOREM_PATH_LIMIT")], ids=str)
def test_theorem_size_rule_at_its_edges(capsys, monkeypatch, dims, bound):
    # a bound equal to the box's cost admits it, one less refuses it
    import hexdimer.cli as cli
    from hexdimer.diagrams import _p_width

    a, b, c = sorted(BoxDims(*dims).doubled(), reverse=True)
    bits = a * b * c // 4 * _p_width(BoxDims(a, b, c))
    cost = {"THEOREM_BAREISS_LIMIT": c ** 3 * bits ** 2,
            "THEOREM_PATH_LIMIT": c * (a + c) * (b + c) * bits}[bound]
    monkeypatch.setattr(cli, "z_lgv", enumeration_raises)
    monkeypatch.setattr(cli, bound, cost)
    with pytest.raises(Enumerated):
        run_check("theorem", BoxDims(*dims), None, None)
    monkeypatch.setattr(cli, bound, cost - 1)
    code, out, err = run(capsys, "check", "theorem", "-d", ",".join(map(str, dims)))
    assert code == 2 and out == "" and "over the bound" in err


def _swap_one_edge(pairs):
    """The first pair with one of M1's loop edges moved to M2: the same
    overlay, and M1 no matching."""
    M1, M2 = pairs[0]
    bit = M1 & ~M2 & -(M1 & ~M2)
    return [(M1 ^ bit, M2 | bit)] + pairs[1:]


SPLIT_MUTANTS = {
    "drop": lambda pairs: pairs[1:],
    "append": lambda pairs: pairs + pairs[:1],
    "repeat": lambda pairs: pairs[:-1] + pairs[:1],
    "stray": lambda pairs: [(pairs[0][0], pairs[0][0])] + pairs[1:],
    "swap": _swap_one_edge,
}


@pytest.mark.parametrize("mutation", [*SPLIT_MUTANTS, "skip"])
def test_check_split_fails_a_broken_split(capsys, monkeypatch, mutation):
    # a split with one pair dropped, one pair listed twice (added, or in
    # place of another), one pair that overlays elsewhere or one side that
    # is no matching fails the check; so does a stream that skips a
    # 2-factor, by the count of all pairs
    import hexdimer.cli as cli

    assert run(capsys, "check", "split", "-d", "2,2,1")[0] == 0
    if mutation == "skip":
        real_stream = cli.distinct_overlays
        monkeypatch.setattr(cli, "distinct_overlays",
                            lambda mesh, ms: itertools.islice(real_stream(mesh, ms), 1, None))
    else:
        real = cli.split
        monkeypatch.setattr(cli, "split", lambda lam: (SPLIT_MUTANTS[mutation](real(lam))
                                                       if lam.loops else real(lam)))
    code, out, _ = run(capsys, "check", "split", "-d", "2,2,1")
    assert code == 1 and out.startswith("FAIL check=split")


def test_internal_error_exits_three(capsys, monkeypatch):
    # a lift with one edge bit dropped is refused by projection_key: the
    # program's own error, neither a failed identity nor bad input
    import hexdimer.cli as cli

    real = cli.lift_preimages
    monkeypatch.setattr(cli, "lift_preimages",
                        lambda mesh, lam: [mu & (mu - 1) for mu in real(mesh, lam)])
    code, out, err = run(capsys, "check", "fibers", "-d", "1,1,1")
    assert code == 3 and out == ""
    assert err.startswith("internal error: SquishError") and "perfect matching" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["AlgebraError", "DiagramError", "MeshError",
                                  "OverlayError", "SeriesError", "SquishError"])
def test_each_package_error_exits_three(capsys, monkeypatch, name):
    import hexdimer.cli as cli

    error = next(e for e in cli.INTERNAL_ERRORS if e.__name__ == name)

    def broken():
        raise error("synthetic")

    monkeypatch.setattr(cli, "check_matrices", broken)
    code, _, err = run(capsys, "check", "matrices")
    assert code == 3 and err == f"internal error: {name}: synthetic\n"


def test_pullback_fails_on_one_changed_lift_weight(capsys, monkeypatch):
    import hexdimer.cli as cli
    from hexdimer.squish import EdgeWeighting

    real = cli.pullback_weighting

    def mutant(mesh):  # one lift weighed by an extra t
        U = real(mesh)
        exps = list(U.exps)
        exps[mesh.lifts[-1][0]] += 1
        return EdgeWeighting(mesh, U.signs, exps)

    monkeypatch.setattr(cli, "pullback_weighting", mutant)
    for dims in ("2,2,2", "4,4,2"):
        code, out, _ = run(capsys, "check", "pullback", "-d", dims, "--format", "json")
        (rep,) = json.loads(out)
        assert code == 1 and rep["status"] == "fail" and rep["witness"]["matching"]


def test_minus_one_fails_on_one_flipped_sign(capsys, monkeypatch):
    import hexdimer.cli as cli
    from hexdimer.mesh import build_mesh
    from hexdimer.squish import EdgeWeighting

    real = cli.sign_weighting
    even = build_mesh(BoxDims(2, 2, 2))
    lifts = [i for pair in even.lifts for i in pair]
    for lift in lifts:
        def mutant(mesh):
            S = real(mesh)
            signs = list(S.signs)
            signs[lift] = -signs[lift]
            return EdgeWeighting(mesh, signs, S.exps)

        monkeypatch.setattr(cli, "sign_weighting", mutant)
        code, out, _ = run(capsys, "check", "minus-one", "-d", "1,1,1", "--format", "json")
        assert code == 1 and json.loads(out)[0]["status"] == "fail"


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "hexdimer", "check", "matrices"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.startswith("PASS check=matrices")


def test_import_builds_no_mesh():
    # meshes, edge indices and byte tables are built on first use, never at
    # import, so the start-up of every command pays for none of them
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import hexdimer.cli, hexdimer.mesh as m; print(m.build_mesh.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "0"


def test_check_eq3_witness_is_what_was_compared(capsys, monkeypatch):
    # one extra M~(-q) pair in the product's factor list: the check fails,
    # the product is built once, and the witness holds the two lists the
    # verdict compared
    import hexdimer.series as series
    from hexdimer.series import lmono, mac

    q = lmono(-1, 1, 0, 0)
    factors = series.Z2Z2_FACTORS + [(q, 1), (series._lmono_inv(q), 1)]
    real, built = series._product, []

    def product(n, fs):
        out = real(n, fs)
        if len(fs) == len(factors):
            built.append(out)
        return out

    monkeypatch.setattr(series, "Z2Z2_FACTORS", factors)
    monkeypatch.setattr(series, "_product", product)
    code, out, _ = run(capsys, "check", "eq3", "--order", "5", "--format", "json")
    (rep,) = json.loads(out)
    assert code == 1 and rep["status"] == "fail" and len(built) == 1
    assert rep["witness"] == {"lhs": built[0].specialize_signs(1, 1, 1),
                              "rhs": (mac(1, 5) ** 2).specialize_signs(1, 1, 1)}
    # the left side is the perturbed four-variable product at q,r,s -> -1
    assert rep["witness"]["lhs"] == real(5, factors).specialize_signs(-1, -1, -1)
    assert rep["witness"]["lhs"] != rep["witness"]["rhs"]


def test_check_eq3_refuses_an_order_past_its_top(capsys, monkeypatch):
    # an order past EQ3_MAX_ORDER is a usage error, refused before any
    # series product is expanded; before the bound, --order 400 ran on and
    # an order past the exponent range escaped as an internal error
    import hexdimer.cli as cli
    import hexdimer.series as series

    monkeypatch.setattr(series, "_product", enumeration_raises)
    for order in (str(cli.EQ3_MAX_ORDER + 1), "400", "100000000000000000000", "0"):
        code, out, err = run(capsys, "check", "eq3", "--order", order)
        assert code == 2 and out == "" and err.startswith(f"error: eq3 order {order} ")
    assert run(capsys, "check", "all", "--order", "400")[0] == 2
    # check all refuses eq3's order itself, not only through eq1's and eq2's
    # lower tops, before any check runs
    monkeypatch.setattr(cli, "EQ1_MAX_ORDER", 10 ** 6)
    monkeypatch.setattr(cli, "EQ2_MAX_ORDER", 10 ** 6)
    monkeypatch.setattr(cli, "build_mesh", enumeration_raises)
    order = str(cli.EQ3_MAX_ORDER + 1)
    code, out, err = run(capsys, "check", "all", "--order", order)
    assert code == 2 and out == "" and err.startswith(f"error: eq3 order {order} ")
    # the top itself is admitted: it gets as far as its first product
    with pytest.raises(Enumerated):
        run_check("eq3", None, cli.EQ3_MAX_ORDER, None)


def test_check_all_small(capsys):
    code, out, _ = run(capsys, "check", "all", "--max-dims", "2,2,1",
                       "--order", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("  ")]
    assert len(lines) == 11 and all(l.startswith("PASS") for l in lines)
    names = [l.split()[1].removeprefix("check=") for l in lines]
    assert tuple(names) == CHECK_NAMES


def test_failing_check_exits_one(capsys, monkeypatch):
    import hexdimer.cli as cli

    def broken():
        rep = CheckReport("matrices", "exact", {})
        rep.fail("synthetic failure")
        return rep

    monkeypatch.setattr(cli, "check_matrices", broken)
    code, out, _ = run(capsys, "check", "matrices")
    assert code == 1 and "FAIL" in out and "synthetic failure" in out
    # a transfer sum that disagrees with the lift sum fails minus-one
    monkeypatch.setattr(cli, "transfer_lift_sum", lambda mesh, loop: 5)
    code, out, _ = run(capsys, "check", "minus-one", "-d", "1,1,1", "--format", "json")
    witness = json.loads(out)[0]["witness"]
    assert code == 1 and witness["brute"] == -2 and witness["transfer"] == 5


def test_run_check_unknown_name():
    with pytest.raises(UsageError):
        run_check("nope", None, None, None)


def test_render_matching(tmp_path, capsys):
    out_file = tmp_path / "m.svg"
    code, out, _ = run(capsys, "render", "-d", "3,3,3",
                       "--what", "matching", "-o", str(out_file))
    assert code == 0 and "27 rhombi" in out
    svg = out_file.read_text()
    assert svg.startswith("<svg") and svg.count("<polygon") == 27


def test_render_two_factor_and_squish(tmp_path, capsys):
    diag = tmp_path / "d.json"
    diag.write_text(json.dumps({"dims": [1, 1, 1], "heights": [[1]]}))
    out_file = tmp_path / "tf.svg"
    code, out, _ = run(capsys, "render", "--diagram", str(diag),
                       "--what", "twofactor", "-o", str(out_file))
    assert code == 0 and out_file.read_text().count("<polygon") == 6
    # the diagram file fixes the dims, so -d beside it is refused
    code, _, err = run(capsys, "render", "--diagram", str(diag), "-d", "3,3,3",
                       "-o", str(tmp_path / "z.svg"))
    assert code == 2 and "--diagram" in err and " -d" in err
    code, _, _ = run(capsys, "render", "-d", "2,2,2", "--what", "squish",
                     "-o", str(tmp_path / "s.svg"))
    assert code == 0
    # squish render needs even dims
    assert run(capsys, "render", "-d", "1,1,1", "--what", "squish",
               "-o", str(tmp_path / "x.svg"))[0] == 2
    # a diagram whose heights increase along a row is bad input
    diag.write_text(json.dumps({"dims": [2, 2, 1], "heights": [[0, 1], [0, 0]]}))
    assert run(capsys, "render", "--diagram", str(diag),
               "-o", str(tmp_path / "y.svg"))[0] == 2
    # so is a height or side that is not an int, even one equal to an int
    for obj, named in (({"dims": [1, 1, 1], "heights": [[1.0]]}, "1.0"),
                       ({"dims": [1, 1, 1], "heights": [[True]]}, "True"),
                       ({"dims": [True, 1, 1], "heights": [[1]]}, "a=True")):
        diag.write_text(json.dumps(obj))
        code, _, err = run(capsys, "render", "--diagram", str(diag),
                           "-o", str(tmp_path / "y.svg"))
        assert code == 2 and "integer" in err and named in err
    # an output file that cannot be written is a usage error
    code, _, err = run(capsys, "render", "-d", "1,1,1",
                       "-o", str(tmp_path / "missing" / "out.svg"))
    assert code == 2 and err.startswith("error: cannot write")


def test_squish_render_refuses_odd_dims_before_any_mesh(tmp_path, capsys, monkeypatch):
    # odd dims are refused off the dims alone, by -d or by a diagram
    # file: no mesh is built and no matching converted first
    from hexdimer.mesh import HexMesh

    def no_mesh(mesh, dims):
        raise AssertionError(f"H_{tuple(dims)} built")

    monkeypatch.setattr(HexMesh, "__init__", no_mesh)
    diag = tmp_path / "odd.json"
    diag.write_text(json.dumps({"dims": [3, 2, 2], "heights": [[1, 0], [0, 0], [0, 0]]}))
    for source in (("-d", "3,3,3"), ("--diagram", str(diag))):
        build_mesh.cache_clear()  # so that a cached mesh cannot stand in for one built
        misses = build_mesh.cache_info().misses
        code, out, err = run(capsys, "render", *source, "--what", "squish",
                             "-o", str(tmp_path / "x.svg"))
        assert (code, out) == (2, "") and "even dims" in err, source
        assert build_mesh.cache_info().misses == misses, source
    assert not (tmp_path / "x.svg").exists()


def test_output_matches_golden_file(capsys):
    # stdout, stderr and exit code of fast calls, recorded by
    # data/regen_golden.py from an earlier version of the program: a
    # refactor keeps them byte-identical, and a change of the output
    # regenerates only the entries it changes
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 30
    for case in golden:
        code, out, err = run(capsys, *case["argv"])
        assert (code, masked(out), err) == (case["code"], case["stdout"], case["stderr"]), \
            case["argv"]


def readme_cli_lines():
    """The ``hexdimer`` lines of the README's sh blocks, each as the words
    after ``hexdimer`` and the comment after its '#' ('' if none)."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    out = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.splitlines():
            if line.startswith("hexdimer "):
                cmd, _, comment = line.partition("#")
                out.append((shlex.split(cmd)[1:], comment.strip()))
    return out


def test_readme_cli_lines_match_the_cli(capsys):
    # a zfun line with a comment prints the comment up to its first comma;
    # a check line parses and names a check, and is not run
    lines = readme_cli_lines()
    zfuns = [(argv, comment.split(",")[0]) for argv, comment in lines
             if argv[0] == "zfun" and comment]
    assert len(zfuns) >= 3
    for argv, want in zfuns:
        code, out, _ = run(capsys, *argv)
        assert (code, out.strip()) == (0, want), argv
    checks = [argv for argv, _ in lines if argv[0] == "check"]
    assert checks
    parser = build_parser()
    for argv in checks:
        assert parser.parse_args(argv).name in CHECK_NAMES + ("all",), argv


def test_render_of_dims_draws_the_empty_matching(tmp_path, capsys):
    # -d draws the empty diagram off the mesh's empty matching: the same
    # SVG as the empty diagram's file, with no prefix table built for it
    from hexdimer.mesh import build_mesh

    diag = tmp_path / "e.json"
    diag.write_text(json.dumps({"dims": [3, 2, 2], "heights": [[0, 0]] * 3}))
    build_mesh.cache_clear()  # a fresh mesh
    for what in ("matching", "twofactor"):
        assert run(capsys, "render", "-d", "3,2,2", "--what", what,
                   "-o", str(tmp_path / f"d-{what}.svg"))[0] == 0
    assert "line_prefix" not in vars(build_mesh(BoxDims(3, 2, 2)))
    for what in ("matching", "twofactor"):
        assert run(capsys, "render", "--diagram", str(diag), "--what", what,
                   "-o", str(tmp_path / f"f-{what}.svg"))[0] == 0
        assert ((tmp_path / f"d-{what}.svg").read_bytes()
                == (tmp_path / f"f-{what}.svg").read_bytes())


def test_render_deterministic(tmp_path, capsys):
    f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "render", "-d", "2,2,2", "--what", "matching", "-o", str(f1))
    run(capsys, "render", "-d", "2,2,2", "--what", "matching", "-o", str(f2))
    assert f1.read_bytes() == f2.read_bytes()
