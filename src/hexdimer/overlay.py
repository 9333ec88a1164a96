"""Overlays of matching pairs: 2-factors, loop decomposition, splitting back
into ordered pairs, and component parity."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Mapping, Set, Tuple

from .algebra import Monomial
from .diagrams import TooLarge, bounded_count, enumerate_matchings  # TooLarge: re-export
from .mesh import BoxDims, Face, HexMesh, Triangle, build_mesh, face_order


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
    """Superimpose two perfect matchings of the same mesh, given as faces."""
    for M in (M1, M2):
        if not mesh.is_perfect_matching(M):
            raise MeshMismatch("argument is not a perfect matching of the given mesh")
    m1, m2 = mesh.mask_of(M1), mesh.mask_of(M2)
    return assemble_two_factor(mesh, m1 & m2, m1 ^ m2)


def assemble_two_factor(mesh: HexMesh, doubled: int, loops: int) -> TwoFactor:
    """Build a TwoFactor from the masks of its doubled edges and of the
    union of its loops (every vertex of ``loops`` must have degree exactly
    2 there)."""
    ends, nbrs, centroids = mesh.edge_ends, mesh.vertex_edges, mesh.centroids
    walks: List[List[int]] = []
    rest, limit = loops, loops.bit_count()
    while rest:
        # e0 is the least edge of its loop; the walk leaves it at its down
        # end and adds the shoelace term of each vertex it passes
        e0 = (rest & -rest).bit_length() - 1
        walk, cur = [e0], e0
        head = first = ends[e0][1]
        x0, y0 = centroids[first]
        area2 = 0
        while True:
            for nxt, other in nbrs[head]:
                if loops >> nxt & 1 and nxt != cur:
                    break
            else:
                raise OverlayError(f"loop edges end at {mesh.vertices[head]}")
            if nxt == e0:
                break
            walk.append(nxt)
            if len(walk) > limit:
                raise OverlayError(f"loop edges branch off the loop of {mesh._faces[e0]}")
            cur, head = nxt, other
            x1, y1 = centroids[head]
            area2 += x0 * y1 - x1 * y0
            x0, y0 = x1, y1
        x1, y1 = centroids[first]
        area2 += x0 * y1 - x1 * y0
        # positive when counterclockwise: the lattice-to-plane map has
        # positive determinant, so the sign in lattice coordinates is the
        # geometric one
        if area2 <= 0:
            walk[1:] = walk[:0:-1]  # clockwise walk: reverse it, e0 stays first
        rest &= ~sum(1 << e for e in walk)
        walks.append(walk)
    faces = mesh._faces  # edge positions sort as the edges do
    return TwoFactor(mesh.dims, mesh.faces_of(doubled),
                     tuple(tuple(map(faces.__getitem__, w)) for w in sorted(walks)))


def split(mesh: HexMesh, lam: TwoFactor) -> List[Tuple[int, int]]:
    """All 2^{#loops} ordered matching pairs overlaying to lam, as masks:
    doubled edges go to both sides, each loop alternates one way or the
    other."""
    doubled = mesh.mask_of(lam.doubled)
    halves = [(mesh.mask_of(loop[0::2]), mesh.mask_of(loop[1::2])) for loop in lam.loops]
    out = []
    for pick in itertools.product((0, 1), repeat=len(halves)):
        M1 = M2 = doubled
        for choice, (even, odd) in zip(pick, halves):
            M1 |= even if choice == 0 else odd
            M2 |= odd if choice == 0 else even
        out.append((M1, M2))
    return out


def pair_matchings(dims: BoxDims) -> List[int]:
    """The box's matchings as sorted masks, for a check that overlays all
    their pairs, each validated once.  TooLarge before any enumeration if
    overlaying the pairs would pass the work bound (bounded_count with
    k = 2)."""
    bounded_count(dims, 2)
    mesh = build_mesh(dims)
    ms = enumerate_matchings(dims)
    for M in ms:
        if not mesh.is_perfect_matching(M):
            raise MeshMismatch("argument is not a perfect matching of the given mesh")
    return ms


def overlay_keys(ms: List[int]) -> Set[Tuple[int, int]]:
    """The distinct overlay keys over all pairs of the matching masks ``ms``
    (an overlay is symmetric, so each unordered pair once): the masks of the
    doubled edges M1 & M2 and of the loop edges M1 ^ M2, which make the
    overlay (assemble_two_factor)."""
    return {(M1 & M2, M1 ^ M2) for i, M1 in enumerate(ms) for M2 in ms[i:]}


def distinct_overlays(mesh: HexMesh, ms: List[int]) -> Iterator[TwoFactor]:
    """The distinct overlays of all pairs of the validated matching masks
    ``ms``, each assembled once, in the order of their doubled edges and
    then their loops.  The keys are sorted by their doubled edges, so only
    the 2-factors of one doubled-edge set are held at a time."""
    keys = sorted(overlay_keys(ms), key=lambda key: face_order(key[0]))
    for _, group in itertools.groupby(keys, key=lambda key: key[0]):
        yield from sorted((assemble_two_factor(mesh, *key) for key in group),
                          key=lambda tf: tf.loops)


def iter_two_factors(dims: BoxDims) -> Iterator[TwoFactor]:
    """Distinct overlays over all matching pairs of the box, streamed
    (pair_matchings, distinct_overlays); TooLarge when called, before any
    enumeration."""
    return distinct_overlays(build_mesh(dims), pair_matchings(dims))


def enumerate_two_factors(dims: BoxDims) -> List[TwoFactor]:
    """The list of iter_two_factors."""
    return list(iter_two_factors(dims))


def two_factor_weight(lam: TwoFactor, weights: Mapping[Face, Monomial]) -> Monomial:
    """Product of edge weights with multiplicity (doubled edges squared)."""
    w = Monomial(1)
    for f in lam.edges_with_multiplicity():
        try:
            w = w * weights[f]
        except KeyError:
            raise MissingEdgeWeight(f"no weight for edge {f}") from None
    return w
