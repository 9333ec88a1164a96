"""Overlays of matching pairs: 2-factors, loop decomposition, splitting back
into ordered pairs, and component parity."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

from .algebra import Monomial
from .diagrams import TooLarge, bounded_count, enumerate_matchings  # TooLarge: re-export
from .mesh import BoxDims, Face, HexMesh, Triangle, build_mesh


class OverlayError(Exception):
    pass


class MeshMismatch(OverlayError):
    pass


class MissingEdgeWeight(OverlayError):
    pass


Loop = Tuple[Face, ...]  # edges in counterclockwise cyclic order


@dataclass(frozen=True)
class TwoFactor:
    """Doubled edges plus disjoint even loops; every vertex has degree two
    with multiplicity.  Loops are stored counterclockwise and rotated to
    their lexicographically least edge, so equal 2-factors compare equal."""

    dims: BoxDims
    doubled: FrozenSet[Face]
    loops: Tuple[Loop, ...]

    def component_count(self) -> int:
        return len(self.doubled) + len(self.loops)

    def edges_with_multiplicity(self) -> Iterable[Face]:
        for f in self.doubled:
            yield f
            yield f
        for loop in self.loops:
            yield from loop

    def to_json_obj(self) -> dict:
        return {
            "dims": list(self.dims),
            "doubled": [list(f) for f in sorted(self.doubled)],
            "loops": [[list(f) for f in loop] for loop in self.loops],
        }


def _centroid(t: Triangle) -> Tuple[int, int]:
    # corner sum (3x the centroid); only the orientation sign is used
    if t.up:
        return (3 * t.x + 1, 3 * t.y + 2)
    return (3 * t.x + 2, 3 * t.y + 1)


def loop_vertices(mesh: HexMesh, loop: Loop) -> Tuple[Triangle, ...]:
    """vertices[i] is shared by loop[i] and loop[i+1] (cyclically)."""
    k = len(loop)
    out = []
    for i in range(k):
        shared = set(mesh.edges[loop[i]]) & set(mesh.edges[loop[(i + 1) % k]])
        if len(shared) != 1:
            raise OverlayError(f"edges {loop[i]} and {loop[(i+1) % k]} not consecutive")
        out.append(shared.pop())
    return tuple(out)


def overlay(mesh: HexMesh, M1: FrozenSet[Face], M2: FrozenSet[Face]) -> TwoFactor:
    """Superimpose two perfect matchings of the same mesh."""
    for M in (M1, M2):
        if not mesh.is_perfect_matching(M):
            raise MeshMismatch("argument is not a perfect matching of the given mesh")
    doubled = frozenset(M1 & M2)
    rest = (M1 | M2) - doubled
    return assemble_two_factor(mesh, doubled, rest)


def assemble_two_factor(mesh: HexMesh, doubled: FrozenSet[Face],
                        rest: FrozenSet[Face]) -> TwoFactor:
    """Build a TwoFactor from its doubled edges and the union of its loops
    (every vertex of ``rest`` must have degree exactly 2 there)."""
    edges, incident = mesh.edges, mesh.incident
    loops: List[Loop] = []
    seen = set()
    for f0 in sorted(rest):
        if f0 in seen:
            continue
        # f0 is the least edge of its loop; vs[i] is the vertex shared by
        # loop[i] and loop[i+1], recorded as the walk passes it
        loop, vs = [f0], []
        cur, head = f0, edges[f0][1]
        while True:
            vs.append(head)
            for nxt in incident[head]:
                if nxt != cur and nxt in rest:
                    break
            else:
                raise OverlayError(f"loop edges end at {head}")
            if nxt == f0:
                break
            loop.append(nxt)
            t1, t2 = edges[nxt]
            head = t2 if t1 == head else t1
            cur = nxt
        seen.update(loop)
        if _area2(vs) <= 0:
            loop[1:] = loop[:0:-1]  # clockwise walk: reverse it, f0 stays first
        loops.append(tuple(loop))
    return TwoFactor(mesh.dims, doubled, tuple(sorted(loops)))


def _area2(vs: List[Triangle]) -> int:
    """Shoelace sum of a closed vertex walk, positive when counterclockwise.
    The lattice-to-plane map has positive determinant, so the sign in
    lattice coordinates is the geometric one."""
    area2 = 0
    x0, y0 = _centroid(vs[-1])
    for v in vs:
        x1, y1 = _centroid(v)
        area2 += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    return area2


def split(lam: TwoFactor) -> List[Tuple[FrozenSet[Face], FrozenSet[Face]]]:
    """All 2^{#loops} ordered matching pairs overlaying to lam: doubled edges
    go to both sides, each loop alternates one way or the other."""
    halves = [(frozenset(loop[0::2]), frozenset(loop[1::2])) for loop in lam.loops]
    out = []
    for pick in itertools.product((0, 1), repeat=len(halves)):
        M1, M2 = set(lam.doubled), set(lam.doubled)
        for choice, (even, odd) in zip(pick, halves):
            M1 |= even if choice == 0 else odd
            M2 |= odd if choice == 0 else even
        out.append((frozenset(M1), frozenset(M2)))
    return out


def pair_matchings(dims: BoxDims) -> List[FrozenSet[Face]]:
    """The box's matchings, sorted, for a check that overlays all their pairs,
    each validated once as ``overlay`` validates its arguments.  TooLarge
    before any enumeration if overlaying the pairs would pass the work bound
    (bounded_count with k = 2)."""
    bounded_count(dims, 2)
    mesh = build_mesh(dims)
    ms = enumerate_matchings(dims)
    for M in ms:
        if not mesh.is_perfect_matching(M):
            raise MeshMismatch("argument is not a perfect matching of the given mesh")
    return ms


def pair_keys(mesh: HexMesh, ms: List[FrozenSet[Face]]) -> List[int]:
    """Each matching's share of the overlay key of a pair: the sum of 3^i
    over its edges, i the edge's position in ``mesh.edges``.  A pair's key
    is the sum of its two shares.  Its base-3 digit is 2 on the doubled
    edges M1 & M2, 1 on the loop edges M1 ^ M2 and 0 elsewhere, so it
    encodes those two sets, which make the overlay: pairs with one key have
    one 2-factor.  An int key costs one addition per pair and holds no set."""
    power = {f: 3 ** i for i, f in enumerate(mesh.edges)}
    return [sum(map(power.__getitem__, M)) for M in ms]


def assemble_pairs(mesh: HexMesh, pairs: Iterable[Tuple[FrozenSet[Face], FrozenSet[Face]]]
                   ) -> List[TwoFactor]:
    """The 2-factor of each validated pair, for pairs whose overlay keys
    (pair_keys) are distinct.  The two edge sets a key encodes are read back
    from its 2-factor, so distinct keys must give distinct 2-factors;
    OverlayError otherwise."""
    lams = [assemble_two_factor(mesh, M1 & M2, M1 ^ M2) for M1, M2 in pairs]
    if len(set(lams)) != len(lams):
        raise OverlayError("two overlay keys assemble to the same 2-factor")
    return lams


def distinct_overlays(mesh: HexMesh, ms: List[FrozenSet[Face]]) -> List[TwoFactor]:
    """The distinct overlays of all pairs of the validated matchings ``ms``
    (an overlay is symmetric, so each unordered pair once), each assembled
    once, sorted by doubled edges and loops."""
    shares = pair_keys(mesh, ms)
    first: Dict[int, Tuple[int, int]] = {}  # overlay key -> its first pair
    for i, k1 in enumerate(shares):
        for j in range(i, len(ms)):
            k = k1 + shares[j]
            if k not in first:
                first[k] = (i, j)
    lams = assemble_pairs(mesh, ((ms[i], ms[j]) for i, j in first.values()))
    return sorted(lams, key=lambda tf: (sorted(tf.doubled), tf.loops))


def enumerate_two_factors(dims: BoxDims) -> List[TwoFactor]:
    """Distinct overlays over all matching pairs of the box (pair_matchings,
    distinct_overlays)."""
    return distinct_overlays(build_mesh(dims), pair_matchings(dims))


def two_factor_weight(lam: TwoFactor, weights: Mapping[Face, Monomial]) -> Monomial:
    """Product of edge weights with multiplicity (doubled edges squared)."""
    w = Monomial(1)
    for f in lam.edges_with_multiplicity():
        try:
            w = w * weights[f]
        except KeyError:
            raise MissingEdgeWeight(f"no weight for edge {f}") from None
    return w
