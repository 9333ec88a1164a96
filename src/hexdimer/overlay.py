"""Overlays of matching pairs: 2-factors, loop decomposition, splitting back
into ordered pairs, and component parity.  A loop is a walk over edge
positions, not oriented in the plane: ``squish.turn_word`` reads its
orientation off edge classes."""

from __future__ import annotations

import itertools
from typing import Iterator, List, Set, Tuple

from .diagrams import bounded_count, enumerate_matchings, require_count
from .mesh import BoxDims, HexMesh, Value, _set_field, bit_flags, build_mesh, positions


class OverlayError(Exception):
    pass


class MeshMismatch(OverlayError):
    pass


# edge positions in the order a walk meets them: from the loop's least
# position, leaving that edge at its down end
Loop = Tuple[int, ...]


class TwoFactor(Value):
    """Doubled edges plus disjoint even loops; every vertex has degree two
    with multiplicity.  ``doubled`` is the mask of the doubled edges; each
    loop is a ``Loop``, a walk from its least edge position that leaves
    that edge at its down end, and the loops come in ascending order of
    that position, so equal 2-factors compare equal.  A walk may run
    either way around the plane; ``squish.turn_word`` alone reads the
    orientation.  A position is the mesh's number of an edge
    (``HexMesh.edge``), and ``to_json_obj`` names each edge by its face."""

    __slots__ = ("dims", "doubled", "loops")

    def __init__(self, dims: BoxDims, doubled: int, loops: Tuple[Loop, ...]):
        _set_field(self, "dims", dims)
        _set_field(self, "doubled", doubled)
        _set_field(self, "loops", loops)
        _set_field(self, "_key", (dims, doubled, loops))

    def component_count(self) -> int:
        return self.doubled.bit_count() + len(self.loops)

    def loop_mask(self) -> int:
        """The mask of the loop edges."""
        return sum(1 << e for loop in self.loops for e in loop)

    def to_json_obj(self) -> dict:
        face = build_mesh(self.dims).face
        return {
            "dims": list(self.dims),
            "doubled": sorted(list(face(e)) for e in positions(self.doubled)),
            "loops": [[list(face(e)) for e in loop] for loop in self.loops],
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
    on = bit_flags(loops).ljust(mesh.edge_count, b"\0")  # one byte per edge: on a loop
    rest = bytearray(on)  # the loop edges no walk has taken yet
    walks: List[Loop] = []
    # e0, the least edge left, is the least of its loop, so the walks come
    # out in ascending order; the walk leaves e0 at its down end
    e0 = rest.find(1)
    while e0 >= 0:
        rest[e0] = 0
        walk, cur, head = [e0], e0, ends[e0][1]
        while True:
            for nxt, other in nbrs[head]:
                if nxt != cur and on[nxt]:
                    break
            else:
                raise OverlayError(f"loop edges end at vertex {head}")
            if nxt == e0:
                break
            if not rest[nxt]:
                raise OverlayError(f"loop edges branch off the loop of {mesh.face(e0)}")
            rest[nxt] = 0
            walk.append(nxt)
            cur, head = nxt, other
        walks.append(tuple(walk))
        e0 = rest.find(1, e0 + 1)
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


def overlay_keys(mesh: HexMesh, ms: List[int]) -> Set[int]:
    """The distinct overlay keys over all pairs of the matching masks ``ms``
    of the mesh (an overlay is symmetric, so each unordered pair once).  The
    key of a pair is one int, ``(M1 & M2) << m | (M1 ^ M2)`` with m the
    number of edges: the masks of the doubled edges and of the loop edges,
    which make the overlay (assemble_two_factor), read back by
    ``overlay_masks``.  The loop mask is below 2^m, so the keys sort as
    the (doubled, loops) pairs do."""
    m = mesh.edge_count
    return {(M1 & M2) << m | (M1 ^ M2) for i, M1 in enumerate(ms) for M2 in ms[i:]}


def overlay_masks(mesh: HexMesh, key: int) -> Tuple[int, int]:
    """The (doubled, loops) masks of an overlay key (overlay_keys)."""
    m = mesh.edge_count
    return key >> m, key & ((1 << m) - 1)


def distinct_overlays(mesh: HexMesh, ms: List[int]) -> Iterator[TwoFactor]:
    """The distinct overlays of all pairs of the validated matching masks
    ``ms``, each assembled once, in the order of their sorted keys
    (overlay_keys): only the keys are held, not the 2-factors."""
    for key in sorted(overlay_keys(mesh, ms)):
        yield assemble_two_factor(mesh, *overlay_masks(mesh, key))


def iter_two_factors(dims: BoxDims) -> Iterator[TwoFactor]:
    """Distinct overlays over all matching pairs of the box, streamed
    (pair_matchings, distinct_overlays); TooLarge when called, before any
    mesh is built."""
    ms = pair_matchings(dims)
    return distinct_overlays(build_mesh(dims), ms)
