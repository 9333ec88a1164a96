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

Vertices and edges are numbered, not stored (``Lines``): the vertices as
a down and an up block, the edges, by position, as A, B and C blocks,
each by line d = x - y, then by x.  Faces name edges in output only.

A face of class A at box coordinates (i,j,k) sits at lattice point
(i-k, j-k); classes B and C at (i-k-1, j-k-1).  Box coordinates are
canonicalized so that min(i,j,k) = 0, which undoes the (1,1,1)-translation
ambiguity of the projection.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, chain, compress
from operator import xor
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple


class MeshError(Exception):
    pass


class UnknownFace(MeshError):
    pass


class OddDims(MeshError):
    pass


# the assignment a value class's __init__ makes: a name bound once, since
# looking up object.__setattr__ costs about as much as calling it
_set_field = object.__setattr__


class Value:
    """The base of the package's frozen value classes.  A subclass names
    its fields in ``__slots__`` (and ``__dict__`` when it has cached
    properties).  Its ``__init__`` sets each field, and ``_key``, the
    tuple of their values in ``__slots__`` order, through ``_set_field``.
    It gets equality only with instances of its own class, the hash of
    its field values, the repr ``Name(field=value, ...)`` and an
    AttributeError on assignment.  Equality and hashing read the one slot
    ``_key``, not every field."""

    __slots__ = ("_key",)

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle would otherwise restore the slots by assignment
        return type(self), self._key


class BoxDims(Value):
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        _set_field(self, "a", a)
        _set_field(self, "b", b)
        _set_field(self, "c", c)
        _set_field(self, "_key", (a, b, c))
        if not (type(a) is type(b) is type(c) is int and a >= 1 and b >= 1 and c >= 1):
            raise MeshError(f"side lengths must be integers >= 1, got {self}")

    def __iter__(self):
        return iter(self._key)

    @property
    def is_even(self) -> bool:
        return self.a % 2 == 0 and self.b % 2 == 0 and self.c % 2 == 0

    def doubled(self) -> "BoxDims":
        return BoxDims(2 * self.a, 2 * self.b, 2 * self.c)

    def halved(self) -> "BoxDims":
        if not self.is_even:
            raise OddDims(f"{self} has an odd side")
        return BoxDims(self.a // 2, self.b // 2, self.c // 2)


class Face(NamedTuple):
    """One edge of the mesh, equivalently one rhombus position."""

    cls: str  # 'A', 'B' or 'C'
    i: int
    j: int
    k: int


def _triangle_runs(d: int, a: int, b: int, c: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """The x runs (lo, hi) of the down and of the up triangles on line
    d = x - y: down(x, y) on the lines -b..a-1, up(x, y) on 1-b..a, both at
    x in [max(0, d) - c, min(a, d + b) - 1]; (0, -1), no run, off them."""
    run, none = (max(0, d) - c, min(a, d + b) - 1), (0, -1)
    return (run if -b <= d < a else none), (run if -b < d <= a else none)


class Lines:
    """Lattice points with one run (lo, hi) of x on each line d = x - y in
    [-b, a] (``runs``; hi < lo for none), numbered from ``first`` by line,
    then by x: (x, x - d) has the number ``origin[d + b] + x``, and line
    d's numbers start at ``starts[d + b]``."""

    __slots__ = ("origin", "starts")

    def __init__(self, runs: Sequence[Tuple[int, int]], first: int = 0):
        self.starts = list(accumulate((max(0, hi + 1 - lo) for lo, hi in runs), initial=first))
        self.origin = [s - lo for s, (lo, _) in zip(self.starts, runs)]

    def xs(self) -> List[range]:
        """Per line, the x of its points."""
        return [range(s - o, t - o) for s, t, o in zip(self.starts, self.starts[1:], self.origin)]


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
        lines = range(-b, a + 1)
        # line d holds the slots x in [max(0, d) - c - 1, min(a, d + b) - 1]:
        # its padding, the c points below its cells and its cells (i, i - d)
        self.slots = Lines([(max(0, d) - c - 1, min(a, d + b) - 1) for d in lines])
        # the triangles' runs on the lines -b-1..a+1: the mesh's and one more at each end
        downs, ups = zip(*(_triangle_runs(d, a, b, c) for d in range(-b - 1, a + 2)))
        self.downs = Lines(downs[1:-1])
        self.ups = Lines(ups[1:-1], self.downs.starts[-1])
        self.vertex_count = self.ups.starts[-1]
        # an edge of class cls at (x, y) is there when both of its ends are:
        # its run on a line is the intersection of its ends' runs, on the
        # lines of its ends and each shifted back by the end's offset
        self.classes: Dict[str, Lines] = {}
        self.edge_count = 0  # the next class's first position, then the count
        for cls, ((ux, uy), (dx, dy)) in _ENDS.items():
            runs = [(max(ul - ux, dl - dx), min(uh - ux, dh - dx)) for (ul, uh), (dl, dh), _
                    in zip(ups[1 + ux - uy:], downs[1 + dx - dy:], lines)]
            self.classes[cls] = Lines(runs, self.edge_count)
            self.edge_count = self.classes[cls].starts[-1]

    # -- the numberings ------------------------------------------------------

    def slot(self, x: int, y: int) -> int:
        """The slot of lattice point (x, y), the one numbering of lattice
        points (``Lines``): by line d = x - y in [-b, a], the lines every
        edge lies on, then by x.  A line's first slot is its padding, the
        only slot that holds no edge, so the slots grow with the mesh
        whatever its shape."""
        return self.slots.origin[x - y + self.dims.b] + x

    def edge(self, p: int) -> Tuple[str, int, int]:
        """The class and the lattice point of the edge at position p, in
        the A, B or C block; UnknownFace for a position past the edges."""
        if not 0 <= p < self.edge_count:
            raise UnknownFace(f"H_{tuple(self.dims)} has no edge at position {p}")
        cls = "ABC"[(p >= self.classes["B"].starts[0]) + (p >= self.classes["C"].starts[0])]
        lines = self.classes[cls]
        i = bisect_right(lines.starts, p) - 1  # the last line starting at or below p
        x = p - lines.origin[i]
        return cls, x, x - i + self.dims.b

    def edge_points(self) -> Iterator[Tuple[str, int, int]]:
        """The class and the lattice point of every edge, by position."""
        return ((cls, x, x - i + self.dims.b) for cls, lines in self.classes.items()
                for i, xs in enumerate(lines.xs()) for x in xs)

    def position(self, cls: str, x: int, y: int) -> int:
        """The position of the class-cls edge at lattice point (x, y), -1
        where the mesh has none."""
        lines, i = self.classes[cls], x - y + self.dims.b
        if 0 <= i < len(lines.origin):
            p = lines.origin[i] + x
            if lines.starts[i] <= p < lines.starts[i + 1]:
                return p
        return -1

    def face(self, p: int) -> Face:
        """The edge at position p as a face, the one maker of a ``Face``:
        box (x,y,0) for A(x,y), (x+1,y+1,0) for B and C, less min(i,j,k)."""
        cls, x, y = self.edge(p)
        i, j = (x, y) if cls == "A" else (x + 1, y + 1)
        m = min(i, j, 0)
        return Face(cls, i - m, j - m, -m)

    @cached_property
    def hex_cycles(self) -> Dict[Tuple[int, int], Tuple[int, ...]]:
        """Each hexagonal face, in sorted order, -> the positions of its six
        edges in cyclic order; at lattice point (x, y): up(x,y) -A(x,y)-
        down(x,y) -C(x,y-1)- up(x,y-1) -B(x-1,y-1)- down(x-1,y-1)
        -A(x-1,y-1)- up(x-1,y-1) -C(x-1,y-1)- down(x-1,y) -B(x-1,y)- up(x,y).
        (x, y) is a hexagonal face when those six triangles are there,
        which is when 1-c <= x < a, 1-c <= y < b and 1-b <= x - y < a, and
        then all six edges are.  On line d = x - y, with i = d + b and A,
        B, C the classes' origins (``Lines``), they are at A[i] + x,
        C[i+1] + x, then B[i], A[i], C[i] and B[i-1] at x - 1."""
        A, B, C = (lines.origin for lines in self.classes.values())
        a, b, c = self.dims
        out = {}
        for x in range(1 - c, a):
            for y in range(max(1 - c, x + 1 - a), min(b, x + b)):
                i = x - y + b
                n = A[i] + x
                out[x, y] = n, C[i + 1] + x, B[i] + x - 1, n - 1, C[i] + x - 1, B[i - 1] + x - 1
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
        """The matching of the empty diagram, as runs of positions: A(i,j,0)
        on every cell, at lattice point (i, j), which on line d is x in
        [max(0, d), min(a, d + b)); and for z < c the wall B(i,0,z) left of
        column 0, at (i-z-1, -z-1) on line i, and the wall C(0,j,z) above
        row 0, at (-z-1, j-z-1) on line -j: x in [i - c, i) and [-c, 0).
        It reads no hexagon and no cell table, so it builds neither
        ``hex_cycles`` nor ``line_prefix`` nor ``cell_offsets``."""
        A, B, C = (lines.origin for lines in self.classes.values())
        a, b, c = self.dims
        runs = [(A[d + b] + max(0, d), A[d + b] + min(a, d + b)) for d in range(1 - b, a)]
        runs += [(B[i + b] + i - c, B[i + b] + i) for i in range(a)]
        runs += [(C[b - j] - c, C[b - j]) for j in range(b)]
        digits = bytearray(b"0") * self.edge_count
        for start, stop in runs:
            digits[start:stop] = b"1" * (stop - start)
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
        P = [0] * self.slots.starts[-1]
        for pt, cycle in self.hex_cycles.items():
            P[self.slot(*pt)] = sum(1 << p for p in cycle)
        starts = self.slots.starts
        for line in map(slice, starts, starts[1:]):
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
        """Per class-A edge, the slot of its lattice point (``slot``): the
        A edges are the first len(keys) positions, so a mask's A edges are
        its low len(keys) bits, and they number as the slots do, so the keys
        ascend.  Then per cell, row-major, its rank among the cells ordered
        by ``cell_offsets``: line by line, i ascending."""
        keys = tuple(chain.from_iterable(range(o + xs.start, o + xs.stop) for o, xs in
                                         zip(self.slots.origin, self.classes["A"].xs())))
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
        return not M >> self.edge_count and 2 * M.bit_count() == self.vertex_count

    def is_perfect_matching(self, M: int) -> bool:
        """Every vertex has degree one, for an edge mask M (bit p for the
        edge at position p): M has the size of a matching
        (``fits_matching``), and the endpoint bits (``endpoint_bits``) of
        its edges add up to 2^V - 1.  A sum of V bits that carries
        anywhere has fewer than V ones, so the sum is reached only with
        one bit per vertex.  The bits are picked out by ``bit_flags`` and
        summed at C level; no table is read or built."""
        if not self.fits_matching(M):
            return False
        return sum(compress(self.endpoint_bits, bit_flags(M))) == (1 << self.vertex_count) - 1

    # -- edge masks ---------------------------------------------------------
    # An edge set is also an int mask: bit i stands for the edge at
    # position i.  A per-edge int that adds up over an edge set is read off
    # a mask with per-byte tables (edge_table, edge_sum); each table is a
    # cached property, built the first time it is read.

    def faces_of(self, mask: int) -> FrozenSet[Face]:
        """The edges of a mask, as faces."""
        self.check_mask(mask)
        return frozenset(map(self.face, positions(mask)))

    def check_mask(self, mask: int) -> None:
        """UnknownFace for a mask with a bit past the last edge."""
        if mask >> self.edge_count:  # a negative mask shifts to -1
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
        else the masks, over the base edges, of the base edges whose first
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
        if total & ((1 << width) - 1) != (1 << self.vertex_count) - 1:
            return None
        n = len(self.lifts)
        return total >> width & ((1 << n) - 1), total >> (width + n)

    @property
    def endpoint_width(self) -> int:
        """How many low bits of ``squish_table``'s values hold endpoint
        bits: V + bit_length(V), which a sum of V such bits cannot pass."""
        n = self.vertex_count
        return n + n.bit_length()

    @cached_property
    def edge_ends(self) -> Tuple[Tuple[int, int], ...]:
        """Per edge, the positions of its up and down end: a class's edges on
        a line pair two runs of vertices, on their lines, shifted by ``_ENDS``."""
        U, D = self.ups.origin, self.downs.origin
        out: List[Tuple[int, int]] = []
        for ((ux, uy), (dx, dy)), lines in zip(_ENDS.values(), self.classes.values()):
            for i, xs in enumerate(lines.xs()):
                if xs:
                    u, v = U[i + ux - uy] + ux, D[i + dx - dy] + dx
                    out += zip(range(u + xs.start, u + xs.stop), range(v + xs.start, v + xs.stop))
        return tuple(out)

    @cached_property
    def vertex_edges(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Per vertex position, (edge position, other end's position) for
        each edge at it, by ascending edge position."""
        out: List[List[Tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for e, (u, v) in enumerate(self.edge_ends):
            out[u].append((e, v))
            out[v].append((e, u))
        return tuple(map(tuple, out))

    def kasteleyn_rows(self) -> List[Dict[int, int]]:
        """The bipartite adjacency matrix as sparse rows, for
        ``algebra.det_mod``: one row per up vertex and one column per down
        vertex, each numbered in position order within its block, with
        entry 1 at the two ends of every edge."""
        downs = self.downs.starts[-1]
        rows: List[Dict[int, int]] = [{} for _ in range(self.vertex_count - downs)]
        for u, v in self.edge_ends:
            rows[u - downs][v] = 1
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
        lift falls at no edge, or on an edge another lift holds."""
        out = [tuple(self.position(cls, 2 * x + dx, 2 * y + dy) for dx, dy in LIFT_OFFSETS[cls])
               for cls, x, y in self.base.edge_points()]
        found = [i for pair in out for i in pair]
        if -1 in found or len(set(found)) != len(found):
            raise MeshError("squish map is not 2-to-1 onto the base edge set")
        return tuple(out)

    @cached_property
    def squish_table(self) -> List[List[int]]:
        """The ``edge_table`` of each edge's endpoint bits plus, above the
        low ``endpoint_width`` bits, two fields of n = base.edge_count bits:
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
        return ((1 << self.edge_count) - 1) ^ sum(1 << i for pair in self.lifts for i in pair)

    @cached_property
    def long_cover(self) -> Tuple[int, ...]:
        """Per edge position i, 2^i plus the bits of the short edges at its
        two ends.  It is read at lifts only, whose two ends are outer
        vertices, each on the one short edge of its claw: a matching that
        holds the lift leaves out those two shorts."""
        ends = self.edge_ends
        at = [0] * self.vertex_count
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
    """Per-byte sum tables of one int per edge, by position: entry k
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

