"""Overlays of matching pairs: 2-factors, loop decomposition, splitting back
into ordered pairs, and component parity.  A loop is a walk over edge
positions, not oriented in the plane: ``squish.turn_word`` reads its
orientation off edge classes."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Set, Tuple

from .diagrams import bounded_count, enumerate_matchings, require_count
from .mesh import BoxDims, HexMesh, build_mesh, positions


class OverlayError(Exception):
    pass


class MeshMismatch(OverlayError):
    pass


# edge positions in the order a walk meets them: from the loop's least
# position, leaving that edge at its down end
Loop = Tuple[int, ...]


@dataclass(frozen=True)
class TwoFactor:
    """Doubled edges plus disjoint even loops; every vertex has degree two
    with multiplicity.  ``doubled`` is the mask of the doubled edges; each
    loop is a ``Loop``, a walk from its least edge position that leaves
    that edge at its down end, and the loops come in ascending order of
    that position, so equal 2-factors compare equal.  A walk may run
    either way around the plane; ``squish.turn_word`` alone reads the
    orientation.  A position indexes the mesh's sorted tuple of faces
    ``edges``, and ``to_json_obj`` names each edge by its face."""

    dims: BoxDims
    doubled: int
    loops: Tuple[Loop, ...]

    def component_count(self) -> int:
        return self.doubled.bit_count() + len(self.loops)

    def loop_mask(self) -> int:
        """The mask of the loop edges."""
        return sum(1 << e for loop in self.loops for e in loop)

    def to_json_obj(self) -> dict:
        edges = build_mesh(self.dims).edges
        return {
            "dims": list(self.dims),
            "doubled": [list(edges[e]) for e in positions(self.doubled)],
            "loops": [[list(edges[e]) for e in loop] for loop in self.loops],
        }


def overlay(mesh: HexMesh, M1: int, M2: int) -> TwoFactor:
    """Superimpose two perfect matchings of the same mesh, given as edge
    masks."""
    for M in (M1, M2):
        if not mesh.is_perfect_matching(M):
            raise MeshMismatch("argument is not a perfect matching of the given mesh")
    return assemble_two_factor(mesh, M1 & M2, M1 ^ M2)


def assemble_two_factor(mesh: HexMesh, doubled: int, loops: int) -> TwoFactor:
    """Build a TwoFactor from the disjoint masks of its doubled edges and
    of the union of its loops (every vertex of ``loops`` must have degree
    exactly 2 there), each loop walked as ``Loop`` says."""
    mesh.check_mask(doubled | loops)
    if doubled & loops:
        raise OverlayError("an edge is both doubled and on a loop")
    ends, nbrs = mesh.edge_ends, mesh.vertex_edges
    walks: List[Loop] = []
    rest = loops
    while rest:
        # e0, the least edge left, is the least of its loop, so the walks
        # come out in ascending order; the walk leaves e0 at its down end
        seen = rest & -rest
        e0 = seen.bit_length() - 1
        walk, cur, head = [e0], e0, ends[e0][1]
        while True:
            for nxt, other in nbrs[head]:
                if nxt != cur and loops >> nxt & 1:
                    break
            else:
                raise OverlayError(f"loop edges end at {mesh.vertices[head]}")
            if nxt == e0:
                break
            bit = 1 << nxt
            if seen & bit:
                raise OverlayError(f"loop edges branch off the loop of {mesh.edges[e0]}")
            seen |= bit
            walk.append(nxt)
            cur, head = nxt, other
        rest ^= seen
        walks.append(tuple(walk))
    return TwoFactor(mesh.dims, doubled, tuple(walks))


def split(lam: TwoFactor) -> List[Tuple[int, int]]:
    """All 2^{#loops} ordered matching pairs overlaying to lam, as masks:
    doubled edges go to both sides, each loop alternates one way or the
    other."""
    doubled = lam.doubled
    halves = [(sum(1 << e for e in loop[0::2]), sum(1 << e for e in loop[1::2]))
              for loop in lam.loops]
    out = []
    for pick in itertools.product((0, 1), repeat=len(halves)):
        M1 = M2 = doubled
        for choice, (even, odd) in zip(pick, halves):
            M1 |= even if choice == 0 else odd
            M2 |= odd if choice == 0 else even
        out.append((M1, M2))
    return out


def pair_matchings(dims: BoxDims) -> List[int]:
    """The box's matchings as masks, for a check that overlays all their
    pairs, each validated once.  TooLarge before any enumeration if
    overlaying the pairs would pass the work bound (bounded_count with
    k = 2); DiagramError (require_count) unless there are as many distinct
    ones as that count says."""
    n = bounded_count(dims, 2)
    mesh = build_mesh(dims)
    ms = enumerate_matchings(dims)
    for M in ms:
        if not mesh.is_perfect_matching(M):
            raise MeshMismatch("argument is not a perfect matching of the given mesh")
    require_count(dims, len(set(ms)), n)
    return ms


def overlay_keys(ms: List[int]) -> Set[Tuple[int, int]]:
    """The distinct overlay keys over all pairs of the matching masks ``ms``
    (an overlay is symmetric, so each unordered pair once): the masks of the
    doubled edges M1 & M2 and of the loop edges M1 ^ M2, which make the
    overlay (assemble_two_factor)."""
    return {(M1 & M2, M1 ^ M2) for i, M1 in enumerate(ms) for M2 in ms[i:]}


def distinct_overlays(mesh: HexMesh, ms: List[int]) -> Iterator[TwoFactor]:
    """The distinct overlays of all pairs of the validated matching masks
    ``ms``, each assembled once, in the order of their sorted keys
    (overlay_keys): only the keys are held, not the 2-factors."""
    for key in sorted(overlay_keys(ms)):
        yield assemble_two_factor(mesh, *key)


def iter_two_factors(dims: BoxDims) -> Iterator[TwoFactor]:
    """Distinct overlays over all matching pairs of the box, streamed
    (pair_matchings, distinct_overlays); TooLarge when called, before any
    mesh is built."""
    ms = pair_matchings(dims)
    return distinct_overlays(build_mesh(dims), ms)
