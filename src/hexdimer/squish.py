"""The matching-level squish correspondence: projecting even-mesh matchings
onto base-mesh 2-factors, preimage enumeration,
the two proof weightings (the pullback U and the sign weighting S), and the
transfer-matrix evaluation of signed loop lifts over turn words read off
edge classes."""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache, reduce
from operator import or_
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import MAT_L, MAT_R, Monomial, mono_t
from .mesh import BoxDims, HexMesh, Value, _set_field, build_mesh, edge_table, positions
from .overlay import Loop, TwoFactor, assemble_two_factor, iter_two_factors


class SquishError(Exception):
    pass


class NoValidRule(SquishError):
    pass


class EdgeWeighting(Value):
    """A weight sign * t^exp per edge of a mesh, the form of every weight
    that the two proof weightings and w_p give: ``signs`` holds each edge's
    sign, +1 or -1, and ``exps`` its t-exponent, both by edge position."""

    __slots__ = ("mesh", "signs", "exps", "__dict__")

    def __init__(self, mesh: HexMesh, signs: Sequence[int], exps: Sequence[int]):
        signs, exps = tuple(signs), tuple(exps)
        _set_field(self, "mesh", mesh)
        _set_field(self, "signs", signs)
        _set_field(self, "exps", exps)
        _set_field(self, "_key", (mesh, signs, exps))
        if not len(signs) == len(exps) == mesh.edge_count:
            raise SquishError(f"{len(signs)} signs and {len(exps)} exponents for "
                              f"{mesh.edge_count} edges of H_{tuple(mesh.dims)}")
        if not set(signs) <= {1, -1}:
            raise SquishError("an edge sign is not +1 or -1")

    @cached_property
    def minus(self) -> int:
        """The mask of the edges weighing -1, built in O(edges)."""
        return int("".join("1" if s < 0 else "0" for s in reversed(self.signs)), 2)

    @cached_property
    def _exp_table(self) -> List[List[int]]:
        """The edge_table of the exponents, built by the first ``weight_of``."""
        return edge_table(self.exps)

    def weight_of(self, mask: int) -> Monomial:
        """The product of the weights of the edges of a mask: their
        exponents added, and -1 if an odd number of them weighs -1.
        AlgebraError from ``pack`` if the sum leaves the packed range."""
        e = self.mesh.edge_sum(mask, self._exp_table)
        return mono_t(e, -1 if (mask & self.minus).bit_count() & 1 else 1)

    def face_ratio(self, cycle: Sequence[int]) -> Tuple[int, int]:
        """The (sign, t-exponent) of the product of the weights on
        cycle[1::2] over the product on cycle[0::2], for an even cycle of
        edge positions: what a matching's weight is multiplied by when a
        flip of the cycle (a hexagon, ``HexMesh.hex_cycles``) swaps the
        first set of its edges for the second.  A sign is its own inverse."""
        e = self.exps
        return (math.prod(map(self.signs.__getitem__, cycle)),
                sum(map(e.__getitem__, cycle[1::2])) - sum(map(e.__getitem__, cycle[0::2])))


# -- the t-power weighting on the base mesh ----------------------------------


def wp_edge_weighting(mesh: HexMesh) -> EdgeWeighting:
    """Edge weights t^e such that every matching weighs t^(3 * #boxes) of its
    diagram, with the empty matching weighing exactly 1.

    Each class is weighted by depth along its own axis; the empty matching's
    leftover exponent is cancelled on one A-diagonal that every matching
    crosses exactly once.
    """
    a, b, c = mesh.dims
    leftover = wp_leftover(mesh.dims)
    exps: List[int] = []
    for cls, x, y in mesh.edge_points():
        if cls == "A":
            exps.append(min(a - 1 - x, b - 1 - y) - (leftover if x - y == a - 1 else 0))
        elif cls == "B":
            exps.append(y - max(-c, x - a + 1))
        else:
            exps.append(x - max(-c, y + 1 - b))
    return EdgeWeighting(mesh, (1,) * len(exps), exps)


def wp_leftover(dims: BoxDims) -> int:
    """The depth sum of the empty matching, which ``wp_edge_weighting``
    cancels: F(a,b) + F(a,c) + F(b,c) over its top and its two walls, with
    F(m, n) the sum of min(u, v) over u < m, v < n, in closed form."""

    def F(m: int, n: int) -> int:
        k, n = sorted((m, n))
        return n * k * (k - 1) // 2 - (k - 1) * k * (k + 1) // 6

    a, b, c = dims
    return F(a, b) + F(a, c) + F(b, c)


def pullback_weighting(mesh: HexMesh) -> EdgeWeighting:
    """U: short edges weigh 1; each long edge weighs what its squished image
    weighs on the base mesh.  OddDims unless the mesh is even."""
    exps = [0] * mesh.edge_count
    for e, (first, second) in zip(wp_edge_weighting(mesh.base).exps, mesh.lifts):
        exps[first] = exps[second] = e
    return EdgeWeighting(mesh, (1,) * len(exps), exps)


# -- sign rule and sign weighting ---------------------------------------------
# A sign rule is one lift index, 0 or 1, per edge class A, B, C: S weighs the
# lift lifts[j][rule[class of j]] of every base edge j -1, so the two lifts
# of a base edge always differ.


def _candidate_rules() -> List[Tuple[int, ...]]:
    return list(itertools.product((0, 1), repeat=3))


@lru_cache(maxsize=1)
def calibrate_sign_rule() -> Tuple[int, ...]:
    """Pick the first sign rule under which every base loop of the
    calibration meshes has signed lift sum exactly -2."""
    evens = [build_mesh(BoxDims(1, 1, 1).doubled()), build_mesh(BoxDims(2, 1, 1).doubled())]
    for rule in _candidate_rules():
        signed = ((even, _sign_weighting_for(even, rule)) for even in evens)
        if all(loop_lift_sum(even, loop, S) == -2 for even, S in signed
               for lam in iter_two_factors(even.base.dims) for loop in lam.loops):
            return rule
    raise NoValidRule("no per-class sign rule gives loop sums -2; "
                      "a position-dependent rule family would be needed")


def _sign_weighting_for(mesh: HexMesh, rule: Tuple[int, ...]) -> EdgeWeighting:
    signs = [1] * mesh.edge_count
    for (cls, _, _), pair in zip(mesh.base.edge_points(), mesh.lifts):
        signs[pair[rule["ABC".index(cls)]]] = -1
    return EdgeWeighting(mesh, signs, (0,) * len(signs))


def sign_weighting(mesh: HexMesh) -> EdgeWeighting:
    """S: +1 on short edges and on one lift of each base edge, -1 on the
    lift that the calibrated rule picks.  OddDims unless the mesh is even."""
    return _sign_weighting_for(mesh, calibrate_sign_rule())


# -- the projection map --------------------------------------------------------


def projection_key(mesh: HexMesh, mu: int) -> Tuple[int, int]:
    """The base 2-factor that a matching mask projects onto, as its overlay
    key (``overlay.overlay_keys``): the masks of the base edges both of
    whose lifts it holds (doubled) and of those it holds one lift of (loop
    edges).  Refuses anything but a perfect matching; one sum over
    ``HexMesh.squish_table`` decides that and gives the lifts it holds
    (``HexMesh.matching_sum``)."""
    lifts = mesh.matching_sum(mu)
    if lifts is None:
        raise SquishError("projection needs a perfect matching")
    first, second = lifts
    return first & second, first ^ second


def project(mesh: HexMesh, mu: int) -> TwoFactor:
    """Contract every claw: the long edges of a matching mask project
    onto a 2-factor of the base mesh (doubled where both lifts are
    present)."""
    return assemble_two_factor(mesh.base, *projection_key(mesh, mu))


def lift_preimages(mesh: HexMesh, lam: TwoFactor) -> List[int]:
    """All matchings of the even mesh projecting onto the base 2-factor, as
    masks.

    The preimages are assembled from lifts and not validated here: a caller
    that must know they are perfect matchings passes each to
    ``projection_key``, which refuses anything else."""
    # a preimage holds its lifts and, at each outer vertex none of them
    # covers, that vertex's short edge.  The OR x of the lifts' long_cover
    # holds the lifts and the shorts they leave out, so the preimage is
    # x ^ short_mask.  A doubled base edge takes both its lifts, a loop
    # any admissible selection.
    cover = mesh.long_cover
    picks = [reduce(or_, (cover[i] for j in positions(lam.doubled) for i in mesh.lifts[j]), 0)]
    for loop in lam.loops:
        choices = [reduce(or_, map(cover.__getitem__, sel))
                   for sel in _loop_lift_choices(mesh, loop)]
        picks = [x | c for x in picks for c in choices]
    shorts_all = mesh.short_mask
    n = mesh.base.vertex_count
    out = []
    for x in picks:
        mu = x ^ shorts_all
        # one short per claw in total; a claw left with two and another
        # with none leave a center covered twice, which projection_key
        # refuses
        if (mu & shorts_all).bit_count() != n:
            raise SquishError("long-edge selection does not leave one short slot per claw")
        out.append(mu)
    return out


def _loop_lift_choices(mesh: HexMesh, loop: Loop) -> List[Tuple[int, ...]]:
    """Pairwise non-adjacent lift selections, one lift position per loop
    edge, in lexicographic order of the lift indices.  Prefixes grow one
    edge at a time and are dropped as soon as two consecutive lifts touch."""
    lifts, bits = mesh.lifts, mesh.endpoint_bits
    picks = [(i,) for i in lifts[loop[0]]]
    for j in loop[1:]:
        picks = [p + (i,) for p in picks for i in lifts[j] if not bits[p[-1]] & bits[i]]
    return [p for p in picks if not bits[p[-1]] & bits[p[0]]]


# -- loop turns and lift sums ---------------------------------------------------


_SWAP = str.maketrans("LR", "RL")


def turn_word(mesh: HexMesh, loop: Loop) -> str:
    """One L or R per vertex of a base loop, read counterclockwise from
    loop[0].  Letter i of the walk's own word is the turn from loop[i] to
    loop[i+1] (cyclically): every vertex has one edge of each class, so
    the walk turns left exactly when the next edge's class follows the
    current one in the cycle A, B, C.  A closed walk turns six more times
    one way than the other, so a word with more Rs than Ls is a clockwise
    walk's; its counterclockwise reading, the word of (loop[0],) +
    loop[:0:-1], is the word reversed with L and R swapped."""
    classes = ["ABC".index(mesh.edge(e)[0]) for e in loop]
    word = "".join("L" if (nxt - cur) % 3 == 1 else "R"
                   for cur, nxt in zip(classes, classes[1:] + classes[:1]))
    if word.count("R") > word.count("L"):
        return word[::-1].translate(_SWAP)
    return word


def loop_lift_sum(mesh: HexMesh, loop: Loop, w: EdgeWeighting) -> int:
    """Sum, over all matchings of the loop's blow-up projecting onto it, of
    the product of long-edge weights (short edges weigh 1 in S).

    A two-state transfer along the loop: entry (x, y) of the step from one
    loop edge to the next is the sign of the next edge's lift y if it does
    not touch the current edge's lift x, and 0 if it does; the sum is the
    trace of the steps' product around the loop.  Every lift must weigh +1
    or -1; a weight with an exponent, as in U, is refused."""
    signs, exps = w.signs, w.exps
    pairs = [mesh.lifts[j] for j in loop]
    p = next((i for pair in pairs for i in pair if exps[i]), None)
    if p is not None:
        raise SquishError(f"lift {mesh.face(p)} weighs {signs[p]} t^{exps[p]}, not +1 or -1")
    bits = mesh.endpoint_bits
    a, b, c, d = 1, 0, 0, 1  # the product so far, rows (a, b) and (c, d)
    for (p0, p1), (q0, q1) in zip(pairs, pairs[1:] + pairs[:1]):
        s0, s1 = signs[q0], signs[q1]
        t00 = 0 if bits[p0] & bits[q0] else s0
        t01 = 0 if bits[p0] & bits[q1] else s1
        t10 = 0 if bits[p1] & bits[q0] else s0
        t11 = 0 if bits[p1] & bits[q1] else s1
        a, b, c, d = a * t00 + b * t10, a * t01 + b * t11, c * t00 + d * t10, c * t01 + d * t11
    return a + d


# the columns of the turn matrices, by letter
_TURN_COLUMNS = {"L": tuple(zip(*MAT_L)), "R": tuple(zip(*MAT_R))}


def transfer_lift_sum(mesh: HexMesh, loop: Loop) -> int:
    """Sign-weighting loop sum via the state-transition matrices: the sum of
    the (3,3) and (4,4) entries of the product of the turn word that the
    loop, a loop of the even mesh's base, makes there.  Only rows 3 and 4 of
    the product are read, so those two rows are carried through the word,
    one row-by-matrix product each per letter."""
    (x0, x1, x2, x3), (y0, y1, y2, y3) = (0, 0, 1, 0), (0, 0, 0, 1)
    for letter in turn_word(mesh.base, loop):
        cols = _TURN_COLUMNS[letter]
        x0, x1, x2, x3 = [x0 * c0 + x1 * c1 + x2 * c2 + x3 * c3 for c0, c1, c2, c3 in cols]
        y0, y1, y2, y3 = [y0 * c0 + y1 * c1 + y2 * c2 + y3 * c3 for c0, c1, c2, c3 in cols]
    return x2 + y3


def lemma2_sum(mesh: HexMesh, lam: TwoFactor, S: EdgeWeighting,
               loop_sums: Optional[Dict[Loop, int]] = None) -> int:
    """Sum of the sign weights S (see sign_weighting) over all preimage
    matchings of a base 2-factor; factors over components as (-1 per doubled
    edge) * (loop sums).  ``loop_sums`` keeps each loop's lift sum under S
    across calls, so that a check over many 2-factors sums a loop once."""
    if loop_sums is None:
        loop_sums = {}
    # the doubled edges' lifts lie in every preimage
    total = math.prod(S.signs[i] for j in positions(lam.doubled) for i in mesh.lifts[j])
    for loop in lam.loops:
        if loop not in loop_sums:
            loop_sums[loop] = loop_lift_sum(mesh, loop, S)
        total *= loop_sums[loop]
    return total
