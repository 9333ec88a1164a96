"""The hexagonal mesh H_{a,b,c}: vertices are unit triangles of the triangular
lattice inside the hexagon obtained by projecting an a x b x c box along
(1,1,1); edges are rhombi (pairs of triangles sharing a lattice edge).

Lattice conventions (projection P(x,y,z) = (x-z, y-z)):

* up triangle   up(x,y)   = corners (x,y), (x+1,y+1), (x,y+1)
* down triangle down(x,y) = corners (x,y), (x+1,y),   (x+1,y+1)

Edge classes, keyed by a lattice base point (the table ``_ENDS``):

* A(x,y): up(x,y)   -- down(x,y)     (the "horizontal" rhombus, a square here)
* B(x,y): up(x+1,y) -- down(x,y)
* C(x,y): up(x,y)   -- down(x,y+1)

A face of class A at box coordinates (i,j,k) sits at lattice point
(i-k, j-k); classes B and C at (i-k-1, j-k-1).  Box coordinates are
canonicalized so that min(i,j,k) = 0, which undoes the (1,1,1)-translation
ambiguity of the projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, compress
from operator import xor
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple


class MeshError(Exception):
    pass


class UnknownFace(MeshError):
    pass


class OddDims(MeshError):
    pass


@dataclass(frozen=True)
class BoxDims:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if any(type(v) is not int or v < 1 for v in self):
            raise MeshError(f"side lengths must be integers >= 1, got {self}")

    def __iter__(self):
        return iter((self.a, self.b, self.c))

    @property
    def is_even(self) -> bool:
        return self.a % 2 == 0 and self.b % 2 == 0 and self.c % 2 == 0

    def doubled(self) -> "BoxDims":
        return BoxDims(2 * self.a, 2 * self.b, 2 * self.c)

    def halved(self) -> "BoxDims":
        if not self.is_even:
            raise OddDims(f"{self} has an odd side")
        return BoxDims(self.a // 2, self.b // 2, self.c // 2)


class Triangle(NamedTuple):
    x: int
    y: int
    up: bool


class Face(NamedTuple):
    """One edge of the mesh, equivalently one rhombus position."""

    cls: str  # 'A', 'B' or 'C'
    i: int
    j: int
    k: int

    @property
    def lattice(self) -> Tuple[int, int]:
        if self.cls == "A":
            return (self.i - self.k, self.j - self.k)
        return (self.i - self.k - 1, self.j - self.k - 1)

    @classmethod
    def from_lattice(cls, klass: str, x: int, y: int) -> "Face":
        # A(x,y) is box (x,y,0), B and C(x,y) box (x+1,y+1,0); subtracting
        # min(i,j,k) from a box point gives the canonical one
        i, j = (x, y) if klass == "A" else (x + 1, y + 1)
        m = min(i, j, 0)
        return cls(klass, i - m, j - m, -m)


def _up_rows(x: int, a: int, b: int, c: int) -> range:
    """The y of the up triangles up(x, y) of the mesh in column x, where
    -c <= x <= a-1, -c <= y <= b-1 and 1-b <= x-y <= a; none off [-c, a)."""
    if not -c <= x < a:
        return range(0)
    return range(max(-c, x - a), min(b - 1, x + b - 1) + 1)


def _down_rows(x: int, a: int, b: int, c: int) -> range:
    """The y of the down triangles down(x, y) of the mesh in column x, where
    -c <= x <= a-1, -c <= y <= b-1 and -b <= x-y <= a-1; none off [-c, a)."""
    if not -c <= x < a:
        return range(0)
    return range(max(-c, x - a + 1), min(b - 1, x + b) + 1)


# per class, the offsets from an edge's lattice point of its up end and of
# its down end: the one place that knows the edge classes' geometry
_ENDS = {"A": ((0, 0), (0, 0)), "B": ((1, 0), (0, 0)), "C": ((0, 0), (0, 1))}

# the squish map: each claw of H_{2a,2b,2c} (a center and one outer vertex
# per class) contracts to a vertex of H_{a,b,c}, so a class-cls base edge at
# lattice point p has two lifts, the cls edges at 2p + each offset below
LIFT_OFFSETS = {"A": ((0, 0), (1, 1)), "B": ((1, 0), (1, 1)), "C": ((0, 1), (1, 1))}


class HexMesh:
    """Immutable hexagonal mesh; build with :func:`build_mesh`."""

    def __init__(self, dims: BoxDims):
        self.dims = dims
        a, b, c = dims
        # column by column, each column's y ranges (_up_rows, _down_rows), so
        # the build walks the triangles and edges and no empty grid point
        verts: List[Triangle] = []
        for x in range(-c, a):
            down, up = _down_rows(x, a, b, c), _up_rows(x, a, b, c)
            for y in range(up.start, down.stop):
                if y in down:
                    verts.append(Triangle(x, y, False))
                if y in up:
                    verts.append(Triangle(x, y, True))
        self.vertices: Tuple[Triangle, ...] = tuple(verts)  # sorted as built

        # an edge of class cls at lattice point (x, y) is there when both
        # of its ends are: its column's y range is the intersection of its
        # ends' ranges, each shifted back by the end's offset
        edges = []
        for cls, ((ux, uy), (dx, dy)) in _ENDS.items():
            for x in range(-c, a):
                up, down = _up_rows(x + ux, a, b, c), _down_rows(x + dx, a, b, c)
                ys = range(max(up.start - uy, down.start - dy), min(up.stop - uy, down.stop - dy))
                edges += [Face.from_lattice(cls, x, y) for y in ys]
        self.edges: Tuple[Face, ...] = tuple(sorted(edges))

        # line d = x - y in [-b, a] holds x in [max(0, d) - c - 1, min(a, d + b) - 1]:
        # its padding, the c points below its cells and its cells (i, i - d)
        starts = accumulate((min(a, d + b) - max(0, d) + c + 1 for d in range(-b, a)), initial=0)
        self.line_origins = tuple(s - max(0, d) + c + 1 for d, s in zip(range(-b, a + 1), starts))
        self.slot_count = a * b + (a + b + 1) * (c + 1)

    # -- basic queries --------------------------------------------------

    def slot(self, x: int, y: int) -> int:
        """The slot of lattice point (x, y), ``line_origins[x - y + b] + x``:
        the one numbering of lattice points.  Slots order by line
        d = x - y in [-b, a], the lines every edge lies on, then by x.  A
        line's first slot, x = max(0, d) - c - 1, is its padding, the only
        slot that holds no edge, so the slots grow with the mesh whatever
        its shape."""
        return self.line_origins[x - y + self.dims.b] + x

    @cached_property
    def lattice_table(self) -> Tuple[List[int], List[int], List[int]]:
        """Per class A, B, C, a flat list that maps each slot (``slot``) to
        the position in ``edges`` of the edge of that class there, -1 where
        there is none."""
        table = {cls: [-1] * self.slot_count for cls in "ABC"}
        for p, f in enumerate(self.edges):
            table[f.cls][self.slot(*f.lattice)] = p
        return table["A"], table["B"], table["C"]

    @cached_property
    def hex_cycles(self) -> Dict[Tuple[int, int], Tuple[int, ...]]:
        """Each hexagonal face, in sorted order, -> the positions of its six
        edges in cyclic order; at lattice point (x, y): up(x,y) -A(x,y)-
        down(x,y) -C(x,y-1)- up(x,y-1) -B(x-1,y-1)- down(x-1,y-1)
        -A(x-1,y-1)- up(x-1,y-1) -C(x-1,y-1)- down(x-1,y) -B(x-1,y)- up(x,y).
        At slot n that is A[n], C at (x,y-1), B[n-1], A[n-1], C[n-1], B at
        (x-1,y).  A lattice point is a hexagonal face when all six edges
        are there, which holds exactly when all six triangles are; only
        the lines d in [1-b, a-1] hold one, and on them each of the six
        points is in its line's range or is its padding."""
        A, B, C = self.lattice_table
        a, b, c = self.dims
        at = self.slot
        out = {}
        for x in range(-c, a):
            for y in range(max(-c, x + 1 - a), min(b, x + b)):
                n = at(x, y)
                cycle = A[n], C[at(x, y - 1)], B[n - 1], A[n - 1], C[n - 1], B[at(x - 1, y)]
                if -1 not in cycle:
                    out[x, y] = cycle
        return out

    def hexface_edges(self, pt: Tuple[int, int]) -> Tuple[int, ...]:
        """The positions of the six edges of a hexagonal face, in cyclic order."""
        try:
            return self.hex_cycles[pt]
        except KeyError:
            raise UnknownFace(f"{pt} is not a hexagonal face") from None

    @cached_property
    def hex_masks(self) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """Each hexagonal face -> the masks of its edges cycle[0::2] and
        cycle[1::2] (``hex_cycles``): a matching alternates around the
        face when it holds either."""
        return {pt: (1 << p[0] | 1 << p[2] | 1 << p[4], 1 << p[1] | 1 << p[3] | 1 << p[5])
                for pt, p in self.hex_cycles.items()}

    # -- the bijection's tables ----------------------------------------------
    # Box (i,j,k) flips the hexagon at lattice point (i-k, j-k), so the boxes
    # over cell (i,j) flip hexagons on its line x - y = i - j.

    @cached_property
    def empty_matching(self) -> int:
        """The matching of the empty diagram, read off ``lattice_table``:
        A(i,j,0) on every cell, at lattice point (i, j), and for z < c the
        wall B(i,0,z) left of column 0 and the wall C(0,j,z) above row 0, at
        (i-z-1, -z-1) and (-z-1, j-z-1).  A wall steps by (-1,-1), a stride
        of -1 slot, and its stop, at z = c, is its line's padding.  It reads
        no hexagon and no cell table, so it builds neither ``hex_cycles``
        nor ``line_prefix`` nor ``cell_offsets``."""
        A, B, C = self.lattice_table
        a, b, c = self.dims
        at = self.slot
        out = [A[at(i, j)] for i in range(a) for j in range(b)]
        for i in range(a):
            out += B[at(i - 1, -1):at(i - c - 1, -c - 1):-1]
        for j in range(b):
            out += C[at(-1, j - 1):at(-c - 1, j - c - 1):-1]
        digits = bytearray(b"0") * len(self.edges)
        for p in out:
            digits[p] = 49  # b"1"
        return int(digits[::-1], 2)  # bit 0 first, reversed: the mask in base 2

    @cached_property
    def cell_offsets(self) -> Tuple[int, ...]:
        """Per cell (i, j), row-major, off = the slot of lattice point
        (i, j), that of its top face A(i,j,0) and of its box (i,j,0)."""
        a, b, _ = self.dims
        return tuple(self.slot(i, j) for i in range(a) for j in range(b))

    @cached_property
    def line_prefix(self) -> List[int]:
        """P, one mask per slot (``slot``): P at the slot of (x, y) is the
        XOR of the full masks (both halves) of the hexagons on its line at
        x' <= x, one running XOR per line; each line's first slot is the
        padding, so it holds 0.  ab + (a+b+1)(c+1) masks, built from
        ``hex_cycles``.  The boxes k < h over cell q sit at x' in
        (i - h, i], so they flip P[off_q] ^ P[off_q - h]
        (``cell_offsets``), and off_q - c is still on the cell's line."""
        a, b, c = self.dims
        P = [0] * self.slot_count
        for pt, cycle in self.hex_cycles.items():
            P[self.slot(*pt)] = sum(1 << p for p in cycle)
        for d in range(-b, a + 1):
            first, last = max(0, d) - c - 1, min(a, d + b) - 1  # the line's x range
            line = slice(self.slot(first, first - d), self.slot(last, last - d) + 1)
            P[line] = accumulate(P[line], xor)
        return P

    @cached_property
    def prefix_base(self) -> int:
        """``empty_matching`` XOR P[off_q] over every cell q (``line_prefix``,
        ``cell_offsets``): a diagram's matching is this XOR P[off_q - h_q]
        over its cells."""
        P = self.line_prefix
        return reduce(xor, map(P.__getitem__, self.cell_offsets), self.empty_matching)

    @cached_property
    def a_keys(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Per class-A edge, the slot of its lattice point (``slot``):
        ``edges`` sorts by class, so the A edges are its first len(keys)
        positions, and a mask's A edges are its low len(keys) bits.  Then
        per cell, row-major, its rank among the cells ordered by
        ``cell_offsets``: line by line, i ascending."""
        keys = tuple(self.slot(*f.lattice) for f in self.edges if f.cls == "A")
        offsets = self.cell_offsets
        ranks = [0] * len(offsets)
        for r, q in enumerate(sorted(range(len(offsets)), key=offsets.__getitem__)):
            ranks[q] = r
        return keys, tuple(ranks)

    def fits_matching(self, M: int) -> bool:
        """M has the size of a perfect matching: a mask (not negative) with
        no bit past the last edge and V/2 bits.  The cheap test a mask
        passes before any check reads its bits."""
        # a negative mask shifts to -1
        return not M >> len(self.edges) and 2 * M.bit_count() == len(self.vertices)

    def is_perfect_matching(self, M: int) -> bool:
        """Every vertex has degree one, for an edge mask M (bit p for the
        edge at position p of ``edges``): M has the size of a matching
        (``fits_matching``), and the endpoint bits (``endpoint_bits``) of
        its edges add up to 2^V - 1.  A sum of V bits that carries
        anywhere has fewer than V ones, so the sum is reached only with
        one bit per vertex.  The bits are picked out by ``bit_flags`` and
        summed at C level; no table is read or built."""
        if not self.fits_matching(M):
            return False
        return sum(compress(self.endpoint_bits, bit_flags(M))) == (1 << len(self.vertices)) - 1

    # -- edge masks ---------------------------------------------------------
    # An edge set is also an int mask: bit i stands for the i-th edge of
    # ``edges``.  A per-edge int that adds up over an edge set is read off
    # a mask with per-byte tables (edge_table, edge_sum); each table is a
    # cached property, built the first time it is read.

    def faces_of(self, mask: int) -> FrozenSet[Face]:
        """The edges of a mask, as faces."""
        self.check_mask(mask)
        return frozenset(map(self.edges.__getitem__, positions(mask)))

    def check_mask(self, mask: int) -> None:
        """UnknownFace for a mask with a bit past the last edge."""
        if mask >> len(self.edges):  # a negative mask shifts to -1
            raise UnknownFace(f"mask {mask:#x} has a bit past the last edge "
                              f"of H_{tuple(self.dims)}")

    def edge_sum(self, mask: int, table: List[List[int]]) -> int:
        """The sum over the edges of a mask of the values an ``edge_table``
        was built from: one lookup and one addition per byte of the mask
        (``to_bytes``), the per-byte reader beside ``bit_flags``."""
        self.check_mask(mask)
        return sum(map(list.__getitem__, table, mask.to_bytes(len(table), "little")))

    def matching_sum(self, M: int) -> Optional[Tuple[int, int]]:
        """On an even mesh: None unless the mask M is a perfect matching;
        else the masks, over ``base.edges``, of the base edges whose first
        lift and whose second lift M holds, read off M's sum over
        ``squish_table``.

        The table is read only for a mask of the right size.  The V/2 edges
        of such a mask add V endpoint bits below V 2^V, so the low part
        carries into no higher bit; it must be 2^V - 1, the rule of
        ``is_perfect_matching``."""
        if not self.fits_matching(M):
            return None
        total = self.edge_sum(M, self.squish_table)
        width = self.endpoint_width
        if total & ((1 << width) - 1) != (1 << len(self.vertices)) - 1:
            return None
        n = len(self.lifts)
        return total >> width & ((1 << n) - 1), total >> (width + n)

    @property
    def endpoint_width(self) -> int:
        """How many low bits of ``squish_table``'s values hold endpoint
        bits: V + bit_length(V), which a sum of V such bits cannot pass."""
        n = len(self.vertices)
        return n + n.bit_length()

    @cached_property
    def edge_ends(self) -> Tuple[Tuple[int, int], ...]:
        """Per edge, the positions in ``vertices`` of its up and down end."""
        pos = {t: i for i, t in enumerate(self.vertices)}
        out = []
        for f in self.edges:
            x, y = f.lattice
            (ux, uy), (dx, dy) = _ENDS[f.cls]
            out.append((pos[Triangle(x + ux, y + uy, True)], pos[Triangle(x + dx, y + dy, False)]))
        return tuple(out)

    @cached_property
    def vertex_edges(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Per vertex position, (edge position, other end's position) for
        each edge at it, by ascending edge position."""
        out: List[List[Tuple[int, int]]] = [[] for _ in self.vertices]
        for e, (u, v) in enumerate(self.edge_ends):
            out[u].append((e, v))
            out[v].append((e, u))
        return tuple(map(tuple, out))

    def kasteleyn_rows(self) -> List[Dict[int, int]]:
        """The bipartite adjacency matrix as sparse rows, for
        ``algebra.det_mod``: one row per up vertex and one column per down
        vertex, each numbered in ``vertices`` order, with entry 1 at the
        two ends of every edge."""
        number: List[int] = []
        count = [0, 0]  # down, up
        for t in self.vertices:
            number.append(count[t.up])
            count[t.up] += 1
        rows: List[Dict[int, int]] = [{} for _ in range(count[1])]
        for u, v in self.edge_ends:
            rows[number[u]][number[v]] = 1
        return rows

    @cached_property
    def endpoint_bits(self) -> Tuple[int, ...]:
        """Per edge, 2^u + 2^v for the positions u, v of its ends: two edges
        share a vertex exactly when their bits meet."""
        return tuple((1 << u) | (1 << v) for u, v in self.edge_ends)

    # -- even-mesh structure ---------------------------------------------

    @cached_property
    def base(self) -> "HexMesh":
        """The half-size mesh an even mesh squishes onto."""
        return build_mesh(self.dims.halved())

    @cached_property
    def lifts(self) -> Tuple[Tuple[int, int], ...]:
        """Per base edge position, the positions of its two long-edge
        preimages (its lifts), in ``LIFT_OFFSETS`` order: the squish map,
        2-to-1 and class-preserving onto the base edges.  MeshError when a
        lift falls at no edge or off the table, or on an edge another
        lift holds."""
        tables = dict(zip("ABC", self.lattice_table))
        out = []
        for f in self.base.edges:
            x, y = f.lattice
            try:
                out.append(tuple(tables[f.cls][self.slot(2 * x + dx, 2 * y + dy)]
                                 for dx, dy in LIFT_OFFSETS[f.cls]))
            except IndexError:  # off the table
                out.append((-1, -1))
        found = [i for pair in out for i in pair]
        if -1 in found or len(set(found)) != len(found):
            raise MeshError("squish map is not 2-to-1 onto the base edge set")
        return tuple(out)

    @cached_property
    def squish_table(self) -> List[List[int]]:
        """The ``edge_table`` of each edge's endpoint bits plus, above the
        low ``endpoint_width`` bits, two fields of n = len(base.edges) bits:
        bit j of the first for the first lift of base edge j, bit j of the
        second for its second lift, and nothing for a short edge.  One sum
        decides a perfect matching and gives the base edges whose first
        and whose second lift it holds (``matching_sum``); each lift sets
        its own bit, so no field can carry."""
        values = list(self.endpoint_bits)
        width = self.endpoint_width
        n = len(self.lifts)
        for j, (first, second) in enumerate(self.lifts):
            values[first] += 1 << (width + j)
            values[second] += 1 << (width + n + j)
        return edge_table(values)

    @cached_property
    def short_mask(self) -> int:
        """The mask of the short edges: every edge that is not a lift."""
        return ((1 << len(self.edges)) - 1) ^ sum(1 << i for pair in self.lifts for i in pair)

    @cached_property
    def long_cover(self) -> Tuple[int, ...]:
        """Per edge position i, 2^i plus the bits of the short edges at its
        two ends.  It is read at lifts only, whose two ends are outer
        vertices, each on the one short edge of its claw: a matching that
        holds the lift leaves out those two shorts."""
        ends = self.edge_ends
        at = [0] * len(self.vertices)
        for e in positions(self.short_mask):
            u, v = ends[e]
            at[u] |= 1 << e
            at[v] |= 1 << e
        return tuple((1 << i) | at[u] | at[v] for i, (u, v) in enumerate(ends))


_FLAGS = bytes.maketrans(b"01", b"\0\1")


def bit_flags(mask: int) -> bytes:
    """One byte per bit of a mask, from bit 0 up to its highest (one byte
    for mask 0): 1 for a set bit and 0 for a clear one, the selectors
    ``itertools.compress`` takes.  One of the two readers of a mask's
    bits; the other, ``HexMesh.edge_sum``, reads whole bytes off
    ``to_bytes``, since one table lookup per byte outruns ``compress``
    over a sum's per-edge values.  ValueError for a negative int, whose
    ``bin`` has a sign."""
    if mask < 0:
        raise ValueError(f"a mask cannot be negative, got {mask}")
    return bin(mask).encode()[:1:-1].translate(_FLAGS)


def positions(mask: int) -> List[int]:
    """The positions of a mask's bits, ascending, picked at C level from
    ``bit_flags``.  ValueError for a negative int."""
    flags = bit_flags(mask)
    return list(compress(range(len(flags)), flags))


def edge_table(values: Sequence[int]) -> List[List[int]]:
    """Per-byte sum tables of one int per edge, in ``edges`` order: entry k
    of row c is the sum of the values of edges 8c + j over the bits j set
    in k.  The last row has one entry per subset of the edges it covers."""
    table = []
    for start in range(0, len(values), 8):
        row = [0]
        for v in values[start:start + 8]:
            row += [r + v for r in row]
        table.append(row)
    return table


# the most meshes held at once: a check that sweeps every sub-box of a
# large box (check parity) would otherwise keep all of them
MESH_CACHE_SIZE = 64


@lru_cache(maxsize=MESH_CACHE_SIZE)
def build_mesh(dims: BoxDims) -> HexMesh:
    """The mesh of the box, built once while it stays among the
    MESH_CACHE_SIZE meshes used last."""
    return HexMesh(dims)

