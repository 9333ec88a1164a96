"""Command-line front end: partition functions, named identity checks, and
SVG rendering.

Exit codes: 0 = success / all checks pass, 1 = a mathematical check failed
(a witness is printed), 2 = usage error (including a check refused by the
work bound), 3 = internal error: the program raised one of its own errors,
which says nothing about an identity.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import lru_cache
from itertools import chain, product
from operator import add
from typing import Callable, Dict, List, Optional, Tuple

from .algebra import (MAT_I, MAT_L, MAT_R, AlgebraError, Poly, TooLarge, degree, det_mod,
                      mat_mul, mat_neg, mat_pow, prime_above, split as split_key)
from .diagrams import (COUNT, MONO, DiagramError, PlanePartition, Z2Z2, box_count,
                       bounded_count, iter_matchings, matching_of, require_count, tau_move,
                       z_lgv, z_poly)
from .mesh import BoxDims, MeshError, build_mesh, positions
from .overlay import (OverlayError, distinct_overlays, iter_two_factors, overlay,
                      pair_matchings, split)
from .series import SeriesError, compare_box_vs_series, eq3_check
from .squish import (EdgeWeighting, SquishError, lemma2_sum, lift_preimages, project,
                     projection_key, pullback_weighting, sign_weighting, transfer_lift_sum,
                     wp_edge_weighting)


class UsageError(Exception):
    pass


class CheckReport:
    __slots__ = ("name", "guarantee", "params", "status", "witness", "seconds")

    def __init__(self, name: str, guarantee: str, params: Dict[str, object],
                 status: str = "pass", witness: Optional[object] = None, seconds: float = 0.0):
        self.name = name
        # what a pass shows, by how the check computed: "exhaustive" (every
        # matching, pair, 2-factor or diagram was enumerated), "certificate"
        # (a local test, with a cited theorem that makes it global) or
        # "exact" (an exact computation over the integers)
        self.guarantee = guarantee
        self.params = params
        self.status = status
        self.witness = witness
        self.seconds = seconds

    def fail(self, witness):
        self.status = "fail"
        if self.witness is None:
            self.witness = witness

    def to_json_obj(self) -> dict:
        return {"check": self.name, "guarantee": self.guarantee, "params": self.params,
                "status": self.status, "witness": self.witness,
                "seconds": round(self.seconds, 3)}

    def text(self) -> str:
        ps = " ".join(f"{k}={v}" for k, v in self.params.items())
        line = (f"{self.status.upper()} check={self.name} {self.guarantee} {ps} "
                f"({self.seconds:.2f}s)")
        if self.witness is not None:
            line += f"\n  witness: {self.witness}"
        return line


# -- individual checks -----------------------------------------------------


def check_split(dims: BoxDims) -> CheckReport:
    """Each distinct overlay must split into 2^#loops distinct ordered pairs
    of enumerated matchings that overlay back to it, so distinct overlays
    have disjoint splits; split sizes that add up to N^2 then leave no
    pair out."""
    rep = CheckReport("split", "exhaustive", {"dims": ",".join(map(str, dims))})
    ms = pair_matchings(dims)
    mesh = build_mesh(dims)
    known = set(ms)
    total = 0
    for lam in distinct_overlays(mesh, ms):
        rec = split(lam)
        pairs = set(rec)
        total += len(pairs)
        doubled, loops = lam.doubled, lam.loop_mask()
        sound = (known.issuperset(chain.from_iterable(pairs))
                 and all(M1 & M2 == doubled and M1 ^ M2 == loops for M1, M2 in pairs))
        if not sound or not len(rec) == len(pairs) == 2 ** len(lam.loops):
            rep.fail({"two_factor": lam.to_json_obj(), "expected_pairs": 2 ** len(lam.loops),
                      "split_pairs": len(rec)})
    if total != len(ms) ** 2:
        rep.fail({"split_total": total, "pairs": len(ms) ** 2})
    return rep


def _all_subdims(top: BoxDims):
    for a in range(1, top.a + 1):
        for b in range(1, top.b + 1):
            for c in range(1, top.c + 1):
                yield BoxDims(a, b, c)


# the most work `check parity` may take: the sum over the sub-boxes of n^2,
# with n = ab + bc + ca up vertices (the determinant's size), since the
# elimination and the hexagon walk each cost about n^2 steps per box;
# --max-dims 12,12,12 (3.9e7, about 34 s and 49 MB on a 2-vCPU VM) is
# admitted, 13,13,13 (6.7e7) refused
PARITY_WORK_LIMIT = 5 * 10 ** 7


def parity_work(top: BoxDims) -> int:
    """The sum of (ab + bc + ca)^2 over the sub-boxes (a, b, c) of ``top``,
    in closed form: (ab + bc + ca)^2 = a^2 b^2 + b^2 c^2 + c^2 a^2
    + 2abc (a + b + c), and a sum of products over a box is the product of
    the sums over its sides."""
    (A, s1a, s2a), (B, s1b, s2b), (C, s1c, s2c) = (
        (m, m * (m + 1) // 2, m * (m + 1) * (2 * m + 1) // 6) for m in top)
    return (s2a * s2b * C + A * s2b * s2c + s2a * B * s2c
            + 2 * (s2a * s1b * s1c + s1a * s2b * s1c + s1a * s1b * s2c))


def parity_size(max_dims: BoxDims) -> None:
    """TooLarge, from the dims alone, unless the sweep up to ``max_dims`` stays
    within PARITY_WORK_LIMIT and a listed prime lies above twice its count."""
    work = parity_work(max_dims)
    if work > PARITY_WORK_LIMIT:
        raise TooLarge(f"parity up to H_{tuple(max_dims)} takes {work} steps (the sum of "
                       f"(ab + bc + ca)^2 over the sub-boxes), over the bound "
                       f"{PARITY_WORK_LIMIT}")
    prime_above(2 * box_count(max_dims))


def check_parity(max_dims: BoxDims) -> CheckReport:
    """The parity lemma on every sub-box: any two matchings overlay with
    C = ab + bc + ca (mod 2) components, checked without enumerating any.

    Read a matching as a bijection from the n up vertices to the down ones.
    For two matchings M1, M2, each overlay component is one cycle of
    M2^-1 M1 (a doubled edge a fixed point, a loop of 2m edges an m-cycle),
    so sgn(M1) sgn(M2) = (-1)^(n - C).  The lemma holds for every pair
    exactly when every matching has the same sign, that is when the
    all-plus bipartite adjacency matrix, whose determinant is the sum of
    the signs, has det = +-N, with N from MacMahon's product (box_count)
    (Kasteleyn 1963; Kenyon, "Lectures on dimers", arXiv:0910.3129).
    |det| <= N < P/2, so det = +-N holds exactly when it holds mod P.

    The hexagon flips, by which the bijection walks between diagrams, are
    checked locally: once per hexagon, the matching before a flip of it
    and the one after must overlay with C = n (mod 2).  The walk adds the
    boxes of the full diagram to the empty one in lexicographic order, and
    adding box (i,j,k) flips the hexagon at (i-k, j-k)."""
    rep = CheckReport("parity", "certificate", {"max_dims": ",".join(map(str, max_dims))})
    parity_size(max_dims)
    for dims in _all_subdims(max_dims):
        a, b, c = dims
        n = a * b + b * c + c * a
        mesh = build_mesh(dims)
        count = box_count(dims)
        P = prime_above(2 * count)
        det = det_mod(mesh.kasteleyn_rows(), P)
        if det not in (count, P - count):
            rep.fail({"dims": list(dims), "det": det if det <= P // 2 else det - P,
                      "count": count})
        M = mesh.empty_matching
        for i, j, k in product(range(a), range(b), range(c)):
            pt = (i - k, j - k)
            M2 = tau_move(mesh, M, pt)
            if 0 in (i, j, k):  # the first box over hexagon pt, so its first flip
                C = overlay(mesh, M, M2).component_count()
                if C % 2 != n % 2:
                    rep.fail({"dims": list(dims), "face": list(pt), "C": C})
            M = M2
    return rep


def check_minus_one(dims: BoxDims) -> CheckReport:
    """Sign-weighting lemma at one base size, then the transfer cross-check
    of each distinct loop once; reports how many 2-factors and loops."""
    rep = CheckReport("minus-one", "exhaustive", {"dims": ",".join(map(str, dims))})
    a, b, c = dims
    sgn = (-1) ** (a * b + b * c + c * a)
    two_factors = iter_two_factors(dims)  # TooLarge before any mesh is built
    even = build_mesh(dims.doubled())
    S = sign_weighting(even)
    loop_sums: Dict[Tuple[int, ...], int] = {}  # each distinct loop summed once
    count = 0
    for count, lam in enumerate(two_factors, 1):
        got = lemma2_sum(even, lam, S, loop_sums)
        if got != sgn * 2 ** len(lam.loops):
            rep.fail({"two_factor": lam.to_json_obj(), "sum": got,
                      "expected": sgn * 2 ** len(lam.loops)})
    for loop, brute in loop_sums.items():
        transfer = transfer_lift_sum(even, loop)
        if brute != -2 or transfer != brute:
            rep.fail({"loop": [list(even.base.face(e)) for e in loop], "brute": brute,
                      "transfer": transfer})
    rep.params["two_factors"] = count
    rep.params["loops"] = len(loop_sums)
    return rep


def check_pullback(dims: BoxDims) -> CheckReport:
    """U(mu) = w_p(projection of mu) over all matchings of the even mesh."""
    rep = CheckReport("pullback", "exhaustive", {"dims": ",".join(map(str, dims))})
    if not dims.is_even:
        raise UsageError("pullback check needs even dims")
    n = bounded_count(dims, 1)
    mesh = build_mesh(dims)
    U = pullback_weighting(mesh)
    wp = wp_edge_weighting(mesh.base)
    want = {}  # projection key -> w_p of its 2-factor
    count = 0
    for count, mu in enumerate(iter_matchings(dims), 1):
        key = projection_key(mesh, mu)
        if key not in want:
            lam = project(mesh, mu)
            w = wp.weight_of(lam.doubled)
            want[key] = w * w * wp.weight_of(lam.loop_mask())
        if U.weight_of(mu) != want[key]:
            rep.fail({"matching": sorted(map(list, mesh.faces_of(mu)))})
    require_count(dims, count, n)
    return rep


# the most up vertices of the even mesh `check consistency` may have, its
# only size rule: ab + bc + ca of the even box, half its vertices and the
# edge count of one matching (the mesh has about three times as many
# edges).  End to end on a 2-vCPU VM, -d 182,182,182 (99,372 up vertices,
# 297,570 edges) passes in 0.7-0.9 s and 89 MB, 2,2,24998 and 24998,2,2 in
# 0.6-1.0 s and 75-90 MB; 578,578,578 (1,002,252) took 8.0 s and 771 MB
CONSISTENCY_UP_VERTEX_LIMIT = 10 ** 5


def check_consistency(dims: BoxDims) -> CheckReport:
    """Normalized U(t -> -t) * S equals the diagram weight at q,r,s -> -1,
    with p = t^3, on every matching of the even mesh: checked on the empty
    matching and at each hexagon, in O(edges), without enumerating any.

    Every diagram is built from the empty one a box at a time, and adding
    box (i,j,k) flips the matching at the hexagon at lattice point
    (i-k, j-k): the edges at positions cycle[0::2] of ``mesh.hex_cycles``
    leave it and cycle[1::2] enter.  The flip multiplies the matching's
    weight by the hexagon's face ratio (EdgeWeighting.face_ratio) and the
    diagram's by the box weight, which depends on (i-k, j-k) alone.  So
    the two agree on every matching exactly when they agree on the empty
    matching and, at every hexagon, the face ratio is the box weight: t^3
    on a P hexagon and -1 on the others.  Lozenge tilings are connected by hexagon flips
    (Thurston, "Conway's tiling groups", 1990); Kenyon's "Lectures on
    dimers" states the same as gauge equivalence through face weights.
    An edge on no hexagon lies in every matching or in none, so the empty
    matching covers it.  The signs and exponents are read edge by edge, so
    no per-byte table and no per-edge monomial is built."""
    rep = CheckReport("consistency", "certificate", {"dims": ",".join(map(str, dims))})
    if not dims.is_even:
        raise UsageError("consistency check needs even dims")
    a, b, c = dims.halved()
    ups = 4 * (a * b + b * c + c * a)
    if ups > CONSISTENCY_UP_VERTEX_LIMIT:
        raise TooLarge(f"consistency on H_{tuple(dims)} has {ups} up vertices, over the "
                       f"bound {CONSISTENCY_UP_VERTEX_LIMIT}")
    mesh = build_mesh(dims)
    U = pullback_weighting(mesh)
    S = sign_weighting(mesh)
    scheme = Z2Z2.with_signs({"q": -1, "r": -1, "s": -1})
    # W = U(t -> -t) * S: an odd t-exponent negates its edge's sign
    exps = tuple(map(add, U.exps, S.exps))
    W = EdgeWeighting(mesh, tuple(-u * s if e & 1 else u * s
                                  for u, s, e in zip(U.signs, S.signs, exps)), exps)
    empty = positions(mesh.empty_matching)
    s0 = math.prod(map(W.signs.__getitem__, empty))
    e0 = sum(map(W.exps.__getitem__, empty))
    if (s0, e0) != ((-1) ** (a * b + b * c + c * a), 0):
        rep.fail({"empty_weight": (s0, e0)})
    for pt, cycle in mesh.hex_cycles.items():
        got, box = W.face_ratio(cycle), scheme.box_monomial(*pt, 0)
        want = (box.coeff, 3 * split_key(box.key)[0])
        if got != want:
            rep.fail({"hexagon": list(pt), "ratio": got, "expected": want})
    return rep


# the two sides of the main theorem: Z^{2a,2b,2c}(p,-1,-1,-1) on the even
# box, and Z^{a,b,c}(-p) on the base box
THEOREM_LHS = Z2Z2.with_signs({"q": -1, "r": -1, "s": -1})
THEOREM_RHS = MONO.with_signs({"p": "-p"})

# `check theorem`'s size rule, on the even box's dims sorted so that c is
# the smallest (a >= b >= c), and bits = abc/4 * W, the size of its
# partition function at p = 2^W (the even box's abc/4 P boxes, W from
# _p_width).  Bareiss takes about c^3 products of bits-bit ints, and the
# path sums about c (a + c)(b + c) additions of them.  On a 2-vCPU VM
# -d 7,7,7 (0.92 of the first bound) takes 6.1 s end to end and -d 50,50,1
# (0.81 of the second) 2.3 s; -d 8,8,8 (5.2 times the first) refused, whose
# sides take 36 s in-process
THEOREM_BAREISS_LIMIT = 7 * 10 ** 13
THEOREM_PATH_LIMIT = 5 * 10 ** 10


def theorem_size(dims: BoxDims) -> None:
    """TooLarge, from the dims alone, unless both of `check theorem`'s
    costs stay within their bounds.  W >= 1 refuses first, before any
    count; then the box count stops (box_count's ``stop``) at the largest
    admitted width, so a refused box is never counted to the end."""
    a, b, c = sorted(dims.doubled(), reverse=True)
    boxes = a * b * c // 4
    bareiss, paths = c ** 3 * boxes ** 2, c * (a + c) * (b + c) * boxes
    # the largest W that both bounds admit
    top = min(math.isqrt(THEOREM_BAREISS_LIMIT // bareiss), THEOREM_PATH_LIMIT // paths)
    width = 1
    if top >= width:
        width = box_count(BoxDims(c, b, a), (1 << (top - 1)) - 1).bit_length() + 1
    if width > top:
        raise TooLarge(f"the theorem on H_{tuple(dims)} is over the bound: on the sorted even "
                       f"box {(a, b, c)}, bits >= abc/4 * {width}, and Bareiss takes c^3 bits^2 "
                       f">= {bareiss * width ** 2:.2e} steps (bound {THEOREM_BAREISS_LIMIT:.0e}), "
                       f"the path sums c(a+c)(b+c) bits >= {paths * width:.2e} "
                       f"(bound {THEOREM_PATH_LIMIT:.0e})")


def check_theorem(dims: BoxDims) -> CheckReport:
    """Z^{2a,2b,2c}(p,-1,-1,-1) = Z^{a,b,c}(-p)^2, both sides exact
    polynomials in p from one path determinant each (z_lgv), the right one
    squared as a Poly."""
    rep = CheckReport("theorem", "exact", {"dims": ",".join(map(str, dims))})
    theorem_size(dims)
    lhs = z_lgv(dims.doubled(), THEOREM_LHS)
    z = z_lgv(dims, THEOREM_RHS)
    rhs = z * z
    if lhs != rhs:
        rep.fail({"lhs": lhs.to_json_obj(), "rhs": rhs.to_json_obj()})
    rep.params["lhs"] = str(lhs)
    return rep


def check_matrices() -> CheckReport:
    rep = CheckReport("matrices", "exact", {})
    if mat_mul(MAT_L, MAT_R) != MAT_I or mat_mul(MAT_R, MAT_L) != MAT_I:
        rep.fail("L*R != I")
    if mat_pow(MAT_L, 6) != mat_neg(MAT_I):
        rep.fail("L^6 != -I")
    return rep


# An order outside 1..top is refused, never run smaller.  eq1's top is the
# largest order the tests cover; eq2 stays at 4 because the benchmark's
# self-test (perfbench/selftest.py) needs `check eq2 --order 5` refused.
# eq3 multiplies integer series, one factor at -1 at a time; end to end on a
# 2-vCPU VM order 25 runs in 0.11 s, 200 in 0.54 s and 300 in 1.4 s, all in
# 17 MB, so its top is 300.
EQ1_MAX_ORDER = 12
EQ2_MAX_ORDER = 4
EQ3_MAX_ORDER = 300


def _check_order(name: str, order: int, top: int) -> int:
    if not 1 <= order <= top:
        raise UsageError(f"{name} order {order} is outside 1..{top}")
    return order


def check_eq1(order: int) -> CheckReport:
    n = _check_order("eq1", order, EQ1_MAX_ORDER)
    rep = CheckReport("eq1", "exhaustive", {"order": n})
    report = compare_box_vs_series(n, "mono")
    rep.params["coefficients"] = report["box"]
    if not report["match"]:
        rep.fail(report["first_mismatch"])
    return rep


def check_eq2(order: int) -> CheckReport:
    n = _check_order("eq2", order, EQ2_MAX_ORDER)
    rep = CheckReport("eq2", "exhaustive", {"order": n})
    report = compare_box_vs_series(n, "z2z2")
    if not report["match"]:
        rep.fail(report["first_mismatch"])
    return rep


def check_eq3(order: int) -> CheckReport:
    n = _check_order("eq3", order, EQ3_MAX_ORDER)
    rep = CheckReport("eq3", "exact", {"order": n})
    report = eq3_check(n)
    if not report["match"]:
        rep.fail({"lhs": report["lhs"], "rhs": report["rhs"]})
    return rep


def check_fibers(dims: BoxDims) -> CheckReport:
    """The lifts of the base 2-factors are the projection fibers.  Each lift
    set must be nonempty, repeat no matching and project onto its 2-factor,
    so the sets are disjoint; their sizes must sum to the even box's matching
    count, so they hold every matching.  Each lift is tested for being a
    perfect matching once, by ``projection_key``.  One fiber is held at a
    time."""
    rep = CheckReport("fibers", "exhaustive", {"dims": ",".join(map(str, dims))})
    n = bounded_count(dims.doubled(), 1)
    even = build_mesh(dims.doubled())
    sizes = []
    for lam in iter_two_factors(dims):
        pre = lift_preimages(even, lam)
        key = lam.doubled, lam.loop_mask()
        distinct = len(set(pre))
        stray = next((mu for mu in pre if projection_key(even, mu) != key), None)
        if not pre or distinct != len(pre) or stray is not None:
            rep.fail({"two_factor": lam.to_json_obj(), "preimages": len(pre),
                      "distinct": distinct,
                      "stray": None if stray is None else sorted(map(list, even.faces_of(stray)))})
        sizes.append(len(pre))
    if sum(sizes) != n:
        rep.fail({"fiber_total": sum(sizes), "matchings": n})
    rep.params["fiber_sizes"] = sorted(sizes)
    return rep


# name -> (flags it reads, runner(dims, order, max_dims)), in the order
# "check all" runs them.  The runners look their check up when called and
# fill in its defaults.
CHECKS: Dict[str, Tuple[str, Callable[..., CheckReport]]] = {
    "split": ("-d", lambda d, o, m: check_split(d or BoxDims(2, 2, 2))),
    "parity": ("-d --max-dims", lambda d, o, m: check_parity(m or d or BoxDims(2, 2, 2))),
    "minus-one": ("-d", lambda d, o, m: check_minus_one(d or BoxDims(1, 1, 1))),
    "pullback": ("-d", lambda d, o, m: check_pullback(d or BoxDims(2, 2, 2))),
    "consistency": ("-d", lambda d, o, m: check_consistency(d or BoxDims(2, 2, 2))),
    "theorem": ("-d", lambda d, o, m: check_theorem(d or BoxDims(1, 1, 1))),
    "matrices": ("", lambda d, o, m: check_matrices()),
    "eq1": ("--order", lambda d, o, m: check_eq1(6 if o is None else o)),
    "eq2": ("--order", lambda d, o, m: check_eq2(4 if o is None else o)),
    "eq3": ("--order", lambda d, o, m: check_eq3(10 if o is None else o)),
    "fibers": ("-d", lambda d, o, m: check_fibers(d or BoxDims(1, 1, 1))),
}
CHECK_NAMES = tuple(CHECKS)


def run_check(name: str, dims: Optional[BoxDims], order: Optional[int],
              max_dims: Optional[BoxDims]) -> List[CheckReport]:
    if name == "all":
        if dims is not None:
            # one -d names no single instance: split, parity, minus-one,
            # fibers and theorem read it as the base box, but pullback and
            # consistency as the even box itself
            raise UsageError("check all does not read -d (it takes --order and --max-dims)")
        # refuse a bad order or --max-dims before the other checks run
        if order is not None:
            _check_order("eq1", order, EQ1_MAX_ORDER)
            _check_order("eq2", order, EQ2_MAX_ORDER)
            _check_order("eq3", order, EQ3_MAX_ORDER)
        if max_dims is not None:
            parity_size(max_dims)
        names = CHECK_NAMES
    elif name in CHECKS:
        # a flag the check does not read would run an instance nobody asked for
        reads = CHECKS[name][0].split()
        given = {"-d": dims, "--order": order, "--max-dims": max_dims}
        unread = [f for f, v in given.items() if v is not None and f not in reads]
        if unread:
            raise UsageError(f"check {name} does not read {', '.join(unread)}")
        if dims and max_dims:
            raise UsageError(f"check {name} takes -d or --max-dims, not both")
        names = (name,)
    else:
        raise UsageError(f"unknown check {name!r} (choose from {', '.join(CHECK_NAMES)})")
    reports = []
    for nm in names:
        t0 = time.monotonic()
        r = CHECKS[nm][1](dims, order, max_dims)
        r.seconds = time.monotonic() - t0
        reports.append(r)
    return reports


# -- zfun --------------------------------------------------------------------


def parse_dims(s: str) -> BoxDims:
    try:
        parts = [int(x) for x in s.split(",")]
        return BoxDims(*parts)
    except (ValueError, TypeError, MeshError) as exc:
        raise UsageError(f"bad dims {s!r}, want a,b,c") from exc


def parse_set(s: Optional[str]) -> Dict[str, str]:
    """--set grammar: comma-separated name=value.  WeightScheme checks the
    names and values."""
    if not s:
        return {}
    out = {}
    for item in s.split(","):
        if "=" not in item:
            raise UsageError(f"bad --set item {item!r}")
        name, val = (x.strip() for x in item.split("=", 1))
        if name in out:
            raise UsageError(f"--set names {name!r} twice")
        out[name] = val
    return out


SCHEMES = {"z2z2": Z2Z2, "mono": MONO, "count": COUNT}


def cmd_zfun(args) -> int:
    dims = parse_dims(args.dims)
    try:
        scheme = SCHEMES[args.weighting].with_signs(parse_set(args.set))
    except DiagramError as exc:
        raise UsageError(f"bad --set: {exc}") from exc
    if args.cap is not None and args.cap < 0:
        raise UsageError(f"--cap {args.cap} is below 0")
    zp = z_poly(dims, scheme)
    if args.cap is not None:
        zp = Poly({e: c for e, c in zp.terms.items() if degree(e) <= args.cap})
    if args.format == "json":
        print(json.dumps(zp.to_json_obj()))
    else:
        print(zp)
    return 0


def cmd_check(args) -> int:
    dims = parse_dims(args.dims) if args.dims else None
    max_dims = parse_dims(args.max_dims) if args.max_dims else None
    reports = run_check(args.name, dims, args.order, max_dims)
    if args.format == "json":
        print(json.dumps([r.to_json_obj() for r in reports]))
    else:
        for r in reports:
            print(r.text())
    return 0 if all(r.status == "pass" for r in reports) else 1


# -- render --------------------------------------------------------------------


def _svg_point(x: int, y: int, scale: float = 30.0) -> Tuple[float, float]:
    return (scale * (x - y / 2.0), -scale * y * math.sqrt(3) / 2.0)


_QUAD = {
    "A": ((0, 0), (1, 0), (1, 1), (0, 1)),
    "B": ((0, 0), (1, 0), (2, 1), (1, 1)),
    "C": ((0, 0), (1, 1), (1, 2), (0, 1)),
}

_CLASS_FILL = {"A": "#9ecae1", "B": "#a1d99b", "C": "#fdae6b"}


def _svg(polys: List[Tuple[List[Tuple[float, float]], str]]) -> str:
    xs = [p[0] for poly, _ in polys for p in poly]
    ys = [p[1] for poly, _ in polys for p in poly]
    pad = 10
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = max(xs) - x0 + pad, max(ys) - y0 + pad
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'viewBox="{x0:.1f} {y0:.1f} {w:.1f} {h:.1f}">']
    for poly, style in polys:
        pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in poly)
        out.append(f'<polygon points="{pts}" {style}/>')
    out.append("</svg>")
    return "\n".join(out)


# render's size rules, read off the dims alone.  A render draws the
# ab + bc + ca rhombi of one matching: end to end on a 2-vCPU VM,
# -d 1,1,249999 (499,999 rhombi) took 9.4 s and 619 MB, -d 300,300,300
# 4.1 s and 325 MB.  A --diagram render also builds the prefix table
# (HexMesh.line_prefix), ab + (a+b+1)(c+1) masks of at most |edges| bits:
# a 120x120x120 diagram (5.6e9 bits) took 2.9 s and 901 MB
RENDER_RHOMBUS_LIMIT = 5 * 10 ** 5
RENDER_PREFIX_BIT_LIMIT = 6 * 10 ** 9


def cmd_render(args) -> int:
    if args.diagram and args.dims:
        raise UsageError("render takes --diagram or -d, not both")
    if args.diagram:
        try:
            with open(args.diagram) as fh:
                pi = PlanePartition.from_json_obj(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError,
                DiagramError, MeshError) as exc:
            raise UsageError(f"bad diagram file {args.diagram!r}: {exc}") from exc
    elif args.dims:
        pi = PlanePartition.empty(parse_dims(args.dims))
    else:
        raise UsageError("render needs --diagram or --dims")
    if args.what == "squish" and not pi.dims.is_even:
        raise UsageError("squish render needs even dims")
    a, b, c = pi.dims  # the size rules, before any mesh is built
    rhombi = a * b + b * c + c * a
    bits = (a * b + (a + b + 1) * (c + 1)) * (3 * rhombi - a - b - c)
    if rhombi > RENDER_RHOMBUS_LIMIT or args.diagram and bits > RENDER_PREFIX_BIT_LIMIT:
        raise TooLarge(f"a render of H_{tuple(pi.dims)} is over the bound: {rhombi} rhombi "
                       f"(bound {RENDER_RHOMBUS_LIMIT}), and {bits:.2e} prefix bits from a "
                       f"diagram (bound {RENDER_PREFIX_BIT_LIMIT:.0e})")
    mesh = build_mesh(pi.dims)
    M = matching_of(pi) if args.diagram else mesh.empty_matching
    polys = []

    def add(p: int, fill: Optional[str] = None, extra: str = ""):
        cls, x, y = mesh.edge(p)
        poly = [_svg_point(x + dx, y + dy) for dx, dy in _QUAD[cls]]
        style = f'fill="{fill or _CLASS_FILL[cls]}" stroke="#333" stroke-width="1"{extra}'
        polys.append((poly, style))

    if args.what == "twofactor":
        lam = overlay(mesh, M, mesh.empty_matching)
        for p in positions(lam.doubled):
            add(p, "#cccccc")
        for p in (e for loop in lam.loops for e in loop):
            add(p, extra=' fill-opacity="0.9"')
    else:  # the matching, its short edges grey in a squish render
        shorts = mesh.short_mask if args.what == "squish" else 0
        for p in positions(M):
            add(p, "#bbbbbb" if shorts >> p & 1 else None)
    svg = _svg(polys)
    try:
        with open(args.out, "w") as fh:
            fh.write(svg + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {args.out!r}: {exc}") from exc
    print(f"wrote {args.out} ({len(polys)} rhombi)")
    return 0


# -- entry point -----------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    fills a fresh namespace on every call, so ``main`` calls share it."""
    ap = argparse.ArgumentParser(
        prog="hexdimer",
        description="Exact dimer/plane-partition identities on hexagonal meshes.")
    sub = ap.add_subparsers(dest="command", required=True)

    zf = sub.add_parser("zfun", help="box partition function")
    zf.add_argument("-d", "--dims", required=True, help="a,b,c")
    zf.add_argument("-w", "--weighting", default="z2z2",
                    choices=sorted(SCHEMES))
    zf.add_argument("--set", default=None,
                    help="specializations, e.g. q=-1,r=-1,s=-1,p=-p")
    zf.add_argument("--cap", type=int, default=None, help="total degree cap")
    zf.add_argument("--format", default="text", choices=("text", "json"))
    zf.set_defaults(func=cmd_zfun)

    ck = sub.add_parser("check", help="run a named identity check")
    ck.add_argument("name", help="|".join(CHECK_NAMES + ("all",)))
    ck.add_argument("-d", "--dims", default=None, help="a,b,c")
    ck.add_argument("--order", type=int, default=None, help="series order")
    ck.add_argument("--max-dims", default=None, help="parity sweep bound a,b,c")
    ck.add_argument("--format", default="text", choices=("text", "json"))
    ck.set_defaults(func=cmd_check)

    rd = sub.add_parser("render", help="render a diagram as SVG")
    rd.add_argument("--diagram", default=None, help="diagram JSON file")
    rd.add_argument("-d", "--dims", default=None, help="a,b,c (empty diagram)")
    rd.add_argument("--what", default="matching",
                    choices=("matching", "twofactor", "squish"))
    rd.add_argument("-o", "--out", required=True, help="output SVG path")
    rd.set_defaults(func=cmd_render)
    return ap


# the package's own errors: one escaping a command is a fault of the
# program, not a failed identity (exit 1) or bad input (exit 2)
INTERNAL_ERRORS = (AlgebraError, DiagramError, MeshError, OverlayError, SeriesError,
                   SquishError)


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except (UsageError, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except INTERNAL_ERRORS as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
