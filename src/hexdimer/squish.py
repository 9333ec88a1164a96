"""The matching-level squish correspondence: projecting even-mesh matchings
onto base-mesh 2-factors, the propeller case analysis, preimage enumeration,
the two proof weightings (the pullback U and the sign weighting S), and the
transfer-matrix evaluation of signed loop lifts."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from .algebra import LIMIT, AlgebraError, Monomial, mat_word, mono_t, split
from .diagrams import PlanePartition, matching_of
from .mesh import (BoxDims, Face, HexMesh, OddDims, Propeller, build_mesh, corner_sum,
                   edge_table)
from .overlay import (Loop, TwoFactor, assemble_two_factor, enumerate_two_factors,
                      loop_vertices)


class SquishError(Exception):
    pass


class NoValidRule(SquishError):
    pass


CLASSES = ("A", "B", "C")


@dataclass(frozen=True)
class EdgeWeighting:
    """A monomial weight per edge of a mesh, with t in the first exponent
    field; coefficients are always +1 or -1."""

    mesh: HexMesh
    weights: Mapping[Face, Monomial]

    def __getitem__(self, f: Face) -> Monomial:
        return self.weights[f]

    @cached_property
    def _tables(self) -> Tuple[List[List[int]], int]:
        """The edge_table of the edges' keys, and the mask of the edges
        weighing -1.  In every field the exponents' absolute values must sum
        to less than LIMIT over all edges, so that no edge set's key sum can
        leave the range; AlgebraError otherwise."""
        try:
            ms = [self.weights[f] for f in self.mesh.edges]
        except KeyError as exc:
            raise SquishError(f"no weight for edge {exc.args[0]}") from None
        if any(m.coeff not in (1, -1) for m in ms):
            raise SquishError("an edge weight has a coefficient other than +1 or -1")
        spread = [0, 0, 0, 0]
        for m in ms:
            spread = [s + abs(e) for s, e in zip(spread, split(m.key))]
        if max(spread) >= LIMIT:
            raise AlgebraError(f"edge weights spread {spread} in the exponent fields: "
                               f"a product may leave [-2**20, 2**20)")
        return (edge_table([m.key for m in ms]),
                sum(1 << i for i, m in enumerate(ms) if m.coeff == -1))

    def weight_of(self, mask: int) -> Monomial:
        """The product of the weights of the edges of a mask: their keys
        added, and -1 if an odd number of them weighs -1."""
        keys, neg = self._tables
        key = self.mesh.edge_sum(mask, keys)
        return Monomial(-1 if (mask & neg).bit_count() & 1 else 1, key)


# -- the t-power weighting on the base mesh ----------------------------------


def wp_edge_weighting(mesh: HexMesh) -> EdgeWeighting:
    """Edge weights t^e such that every matching weighs t^(3 * #boxes) of its
    diagram, with the empty matching weighing exactly 1.

    Each class is weighted by depth along its own axis; the empty matching's
    leftover exponent is cancelled on one A-diagonal that every matching
    crosses exactly once.
    """
    a, b, c = mesh.dims
    exps: Dict[Face, int] = {}
    for f in mesh.edges:
        x, y = f.lattice
        if f.cls == "A":
            exps[f] = min(a - 1 - x, b - 1 - y)
        elif f.cls == "B":
            exps[f] = y - max(-c, x - a + 1)
        else:
            exps[f] = x - max(-c, y + 1 - b)
    empty = matching_of(PlanePartition.empty(mesh.dims))
    leftover = sum(exps[f] for f in empty)
    for f in mesh.edges:
        if f.cls == "A" and f.lattice[0] - f.lattice[1] == a - 1:
            exps[f] -= leftover
    return EdgeWeighting(mesh, {f: mono_t(e) for f, e in exps.items()})


def pullback_weighting(mesh: HexMesh) -> EdgeWeighting:
    """U: short edges weigh 1; each long edge weighs what its squished image
    weighs on the base mesh.  Requires even dims."""
    if not mesh.dims.is_even:
        raise OddDims(f"pullback weighting needs even dims, got {tuple(mesh.dims)}")
    base_w = wp_edge_weighting(mesh.base)
    w: Dict[Face, Monomial] = {f: Monomial(1) for f in mesh.short_edges}
    for bf, lifts in mesh.lift_fibers.items():
        for lf in lifts:
            w[lf] = base_w[bf]
    return EdgeWeighting(mesh, w)


# -- sign rule and sign weighting ---------------------------------------------


@dataclass(frozen=True)
class SignRule:
    """For each edge class, the outer-vertex class (at the propeller of the
    base edge's up-triangle endpoint) whose lift carries the -1.  The two
    lifts of a base edge touch the two outer classes other than its own, so
    this gives opposite signs within every lift pair."""

    minus_side: Tuple[Tuple[str, str], ...]  # (edge class, outer class)

    def __post_init__(self):
        d = dict(self.minus_side)
        if sorted(d) != list(CLASSES) or any(d[k] == k or d[k] not in CLASSES
                                             for k in d):
            raise SquishError(f"malformed sign rule {self.minus_side}")

    def sign(self, mesh: HexMesh, base_edge: Face, lift: Face) -> int:
        t1, t2 = mesh.base.face_triangles(base_edge)
        upt = t1 if t1.up else t2
        prop = mesh.propeller_of_base[upt]
        ends = set(mesh.edges[lift])
        for ocls, o in prop.outers:
            if o in ends:
                return -1 if ocls == dict(self.minus_side)[base_edge.cls] else 1
        raise SquishError(f"{lift} does not touch the up-endpoint propeller")


def _candidate_rules() -> List[SignRule]:
    choices = [[x for x in CLASSES if x != cls] for cls in CLASSES]
    return [SignRule(tuple(zip(CLASSES, pick)))
            for pick in itertools.product(*choices)]


@lru_cache(maxsize=1)
def calibrate_sign_rule() -> SignRule:
    """Pick the first class-side sign rule under which every base loop of the
    calibration meshes has signed lift sum exactly -2."""
    calib = [BoxDims(1, 1, 1), BoxDims(2, 1, 1)]
    for rule in _candidate_rules():
        ok = True
        for dims in calib:
            even = build_mesh(dims.doubled())
            S = _sign_weighting_for(even, rule)
            for lam in enumerate_two_factors(dims):
                for loop in lam.loops:
                    if loop_lift_sum(even, loop, S) != -2:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return rule
    raise NoValidRule("no class-side sign rule gives loop sums -2; "
                      "a position-dependent rule family would be needed")


def _sign_weighting_for(mesh: HexMesh, rule: SignRule) -> EdgeWeighting:
    w: Dict[Face, Monomial] = {f: Monomial(1) for f in mesh.short_edges}
    for bf, lifts in mesh.lift_fibers.items():
        signs = [rule.sign(mesh, bf, lf) for lf in lifts]
        if signs[0] == signs[1]:
            raise SquishError(f"lift pair of {bf} got equal signs")
        for lf, s in zip(lifts, signs):
            w[lf] = Monomial(s)
    return EdgeWeighting(mesh, w)


def sign_weighting(mesh: HexMesh) -> EdgeWeighting:
    """S: +1 on short edges, calibrated +-1 on long edges."""
    if not mesh.dims.is_even:
        raise OddDims(f"sign weighting needs even dims, got {tuple(mesh.dims)}")
    return _sign_weighting_for(mesh, calibrate_sign_rule())


# -- the projection map --------------------------------------------------------


def projection_key(mesh: HexMesh, mu: int) -> int:
    """The base edges that the long edges of a matching mask project onto,
    as one int: base-4 digit 2 at a base edge covered twice (doubled), 1 at
    one covered once (a loop edge), 0 elsewhere, digit j for the j-th edge
    of ``mesh.base.edges`` (HexMesh.squish_table).  Refuses anything but a
    perfect matching."""
    if not mesh.is_perfect_matching(mu):
        raise SquishError("projection needs a perfect matching")
    return mesh.edge_sum(mu, mesh.squish_table)


def key_masks(key: int, n: int) -> Tuple[int, int]:
    """The masks of the doubled and the loop edges of a projection key over
    n base edges: the high and the low bits of its base-4 digits."""
    bits = format(key, f"0{2 * n}b")
    return int(bits[0::2], 2), int(bits[1::2], 2)


def lift_key(mesh: HexMesh, lam: TwoFactor) -> int:
    """The projection key that every lift of the base 2-factor lam has."""
    base = mesh.base

    def spread(faces) -> int:  # bit j of the mask to bit 2j
        return int("0".join(format(base.mask_of(faces), "b")), 2)

    return 2 * spread(lam.doubled) + spread(f for loop in lam.loops for f in loop)


def project(mesh: HexMesh, mu: int) -> TwoFactor:
    """Contract every propeller: the long edges of a matching mask project
    onto a 2-factor of the base mesh (doubled where both lifts are
    present)."""
    base = mesh.base
    return assemble_two_factor(base, *key_masks(projection_key(mesh, mu), len(base.edges)))


def classify_propeller(mesh: HexMesh, mu: FrozenSet[Face], prop: Propeller) -> str:
    """How a matching passes through one propeller: 'Parallel' (the two long
    edges are the two lifts of one base edge, giving a doubled passage) or a
    turning passage, 'OneTurn'/'TwoTurn' by how far apart the two touched
    outer classes sit from the matched short edge's class."""
    longs = []
    short_cls = None
    for _, f in prop.shorts:
        if f in mu:
            short_cls = f.cls
    for _, o in prop.outers:
        for f in mesh.incident[o]:
            if f in mu and f not in mesh.short_edges:
                longs.append(f)
    if short_cls is None or len(longs) != 2:
        raise SquishError("matching does not pass cleanly through the propeller")
    b1, b2 = (mesh._squish_of[f] for f in longs)
    if b1 == b2:
        return "Parallel"
    # turning passage: the two base edges meet the base vertex at 120 or 240
    # degrees; classes tell them apart (same class twice is impossible here)
    pair = {b1.cls, b2.cls}
    if short_cls in pair:
        return "OneTurn"
    return "TwoTurn"


def lift_preimages(mesh: HexMesh, lam: TwoFactor) -> List[int]:
    """All matchings of the even mesh projecting onto the base 2-factor, as
    masks.

    The preimages are assembled from lifts and not validated here: a caller
    that must know they are perfect matchings passes each to
    ``projection_key``, which refuses anything else."""
    short_at = mesh.short_at_outer

    def part(lifts: Tuple[Face, ...]) -> Tuple[int, int]:
        # the lifts' mask, and the shorts at the outer vertices they cover
        # (both ends of a long edge are outer vertices)
        covered = 0
        for f in lifts:
            for t in mesh.edges[f]:
                covered |= short_at[t]
        return mesh.mask_of(lifts), covered

    # per component, the admissible long-edge selections
    component_choices = [[part(mesh.lift_fibers[bf])] for bf in sorted(lam.doubled)]
    component_choices += [list(map(part, _loop_lift_choices(mesh, loop)))
                          for loop in lam.loops]
    picks = [(0, 0)]
    for choices in component_choices:
        picks = [(m | cm, c | cc) for m, c in picks for cm, cc in choices]
    # each outer vertex no long edge covers takes its short edge
    shorts_all = sum(short_at.values())
    n = len(mesh.propellers)
    out = []
    for longs, covered in picks:
        shorts = shorts_all & ~covered
        # one short per propeller in total; a propeller left with two and
        # another with none leave a center covered twice, which
        # projection_key refuses
        if shorts.bit_count() != n:
            raise SquishError("long-edge selection does not leave one short slot per propeller")
        out.append(longs | shorts)
    return out


def _loop_lift_choices(mesh: HexMesh, loop: Loop) -> List[Tuple[Face, ...]]:
    """Pairwise non-adjacent lift selections, one lift per loop edge, in
    lexicographic order of the lift indices.  Prefixes grow one edge at a
    time and are dropped as soon as two consecutive lifts touch."""
    lifts = [mesh.lift_fibers[bf] for bf in loop]
    ends = {f: set(mesh.edges[f]) for pair in lifts for f in pair}
    picks = [(f,) for f in lifts[0]]
    for pair in lifts[1:]:
        picks = [p + (f,) for p in picks for f in pair
                 if ends[p[-1]].isdisjoint(ends[f])]
    return [p for p in picks if ends[p[-1]].isdisjoint(ends[p[0]])]


# -- loop turns and lift sums ---------------------------------------------------


def turn_word(mesh: HexMesh, loop: Loop) -> str:
    """One L or R per vertex of a counterclockwise base loop; any such word
    carries 6 more Ls than Rs."""
    vs = loop_vertices(mesh, loop)
    k = len(loop)
    letters = []
    for i in range(k):
        x0, y0 = corner_sum(vs[(i - 1) % k])
        x1, y1 = corner_sum(vs[i])
        x2, y2 = corner_sum(vs[(i + 1) % k])
        cross = (x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1)
        if cross == 0:
            raise SquishError("straight passage in a hexagon-lattice loop")
        letters.append("L" if cross > 0 else "R")
    return "".join(letters)


def loop_lift_sum(mesh: HexMesh, loop: Loop, w: EdgeWeighting) -> int:
    """Sum, over all matchings of the loop's blow-up projecting onto it, of
    the product of long-edge weights (short edges weigh 1 in S).

    A two-state transfer along the loop: for each lift of the current edge,
    the signed sum over the lift choices so far that end in it.  Every lift
    must weigh +1 or -1; a weight with an exponent, as in U, is refused."""
    lifts = [mesh.lift_fibers[bf] for bf in loop]
    ends = {f: set(mesh.edges[f]) for pair in lifts for f in pair}
    sign = {}
    for f in ends:
        if w[f].key or w[f].coeff not in (1, -1):
            raise SquishError(f"lift {f} weighs {w[f]}, not +1 or -1")
        sign[f] = w[f].coeff
    total = 0
    for start in lifts[0]:
        vec = [(start, sign[start])]
        for pair in lifts[1:]:
            vec = [(f, sign[f] * sum(v for g, v in vec if ends[g].isdisjoint(ends[f])))
                   for f in pair]
        total += sum(v for g, v in vec if ends[g].isdisjoint(ends[start]))
    return total


def transfer_lift_sum(mesh: HexMesh, loop: Loop) -> int:
    """Sign-weighting loop sum via the state-transition matrices: the sum of
    the (3,3) and (4,4) entries of the turn-word product."""
    m = mat_word(turn_word(mesh, loop))
    return m[2][2] + m[3][3]


def lemma2_sum(mesh: HexMesh, lam: TwoFactor, S: EdgeWeighting,
               loop_sums: Optional[Dict[Loop, int]] = None) -> int:
    """Sum of the sign weights S (see sign_weighting) over all preimage
    matchings of a base 2-factor; factors over components as (-1 per doubled
    edge) * (loop sums).  ``loop_sums`` keeps each loop's lift sum under S
    across calls, so that a check over many 2-factors sums a loop once."""
    if loop_sums is None:
        loop_sums = {}
    total = 1
    for bf in lam.doubled:
        l1, l2 = mesh.lift_fibers[bf]
        total *= S[l1].coeff * S[l2].coeff
    for loop in lam.loops:
        if loop not in loop_sums:
            loop_sums[loop] = loop_lift_sum(mesh, loop, S)
        total *= loop_sums[loop]
    return total
