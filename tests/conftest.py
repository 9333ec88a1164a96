"""Oracles shared by several test files."""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from hexdimer.algebra import (MAT_I, MAT_L, MAT_R, P_VARS, AlgebraError, LPoly, Mat4, Monomial,
                              Poly, Series, mat_mul, mono_t, pack, split)
from hexdimer.diagrams import PlanePartition
from hexdimer.mesh import (_ENDS, LIFT_OFFSETS, BoxDims, Face, HexMesh, UnknownFace, build_mesh,
                           positions)
from hexdimer.series import _as_lmono, _lmono_inv, _product


def box_count_oracle(a, b, c):
    """Product formula for the number of diagrams in a box, exact rationals."""
    n = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                n *= Fraction(i + j + k - 1, i + j + k - 2)
    assert n.denominator == 1
    return int(n)


def backtrack_matchings(dims: BoxDims) -> Iterator[int]:
    """Every perfect matching of H_{a,b,c} as an edge mask, by backtracking
    on vertex degrees straight on the mesh: the oracle for iter_matchings,
    which walks the diagrams, so it checks the bijection independently."""
    mesh = build_mesh(dims)
    full = (1 << mesh.vertex_count) - 1
    # per vertex position: (edge bit, other end's bit)
    nbrs = [tuple((1 << e, 1 << o) for e, o in ves) for ves in mesh.vertex_edges]
    # an explicit stack, since a long box matches thousands of edges deep:
    # each entry is (edges matched, vertices covered); every vertex below
    # the lowest uncovered one is covered, so that one is matched next
    stack = [(0, 0)]
    while stack:
        mask, covered = stack.pop()
        if covered == full:
            yield mask
            continue
        low = ~covered & (covered + 1)
        covered |= low
        for ebit, obit in nbrs[low.bit_length() - 1]:
            if not covered & obit:
                stack.append((mask | ebit, covered | obit))


def mat_word(word: str) -> Mat4:
    """Product of L/R matrices for a turn word, rightmost letter applied
    first: the full 4x4 product, the oracle for squish.transfer_lift_sum."""
    if not word:
        raise AlgebraError("empty turn word")
    out = MAT_I
    for ch in word:
        if ch == "L":
            out = mat_mul(out, MAT_L)
        elif ch == "R":
            out = mat_mul(out, MAT_R)
        else:
            raise AlgebraError(f"bad letter {ch!r} in turn word")
    return out


# -- polynomials, diagrams and series ----------------------------------------


def lp_neg(x: LPoly) -> LPoly:
    return {e: -c for e, c in x.items()}


def poly_neg(x: Poly) -> Poly:
    return Poly(lp_neg(x.terms))


def constant_value(x: Poly) -> int:
    """The value of a constant polynomial (zero or a pure number)."""
    if x.terms.keys() - {0}:
        raise AlgebraError("polynomial is not constant")
    return x.terms.get(0, 0)


def _parse_assignment_value(v) -> Tuple[Optional[int], Optional[int]]:
    """Normalize an assignment value to (sign, target_index or None)."""
    if v in (1, "1", "+1"):
        return 1, None
    if v in (-1, "-1"):
        return -1, None
    if v in (None, "keep"):
        return None, None
    s = str(v)
    sign = 1
    if s.startswith("-"):
        sign, s = -1, s[1:]
    elif s.startswith("+"):
        s = s[1:]
    if s not in P_VARS:
        raise AlgebraError(f"cannot substitute into variable {v!r} (frame {P_VARS})")
    return sign, P_VARS.index(s)


def poly_specialize(x: Poly, assignment: Mapping[str, object]) -> Poly:
    """Substitute each variable by +-1 or a signed variable of p, q, r, s,
    term by term: the oracle for WeightScheme.with_signs.  ``assignment``
    must cover all four variables; the value ``"keep"`` leaves a variable
    untouched."""
    for name in P_VARS:
        if name not in assignment:
            raise AlgebraError(f"assignment missing variable {name!r}")
    plan = [_parse_assignment_value(assignment[name]) for name in P_VARS]
    tt: Dict[int, int] = {}
    for e, c in x.terms.items():
        ne = [0, 0, 0, 0]
        sign = 1
        for i, k in enumerate(split(e)):
            if k == 0:
                continue
            sg, tgt = plan[i]
            if sg is None:  # keep
                ne[i] += k
                continue
            if sg == -1 and k % 2:
                sign = -sign
            if tgt is not None:
                ne[tgt] += k
        key = pack(*ne)
        tt[key] = tt.get(key, 0) + sign * c
    return Poly(tt)


def digit_unpack_p(packed: Dict[int, int], width: int) -> Poly:
    """The Poly whose value at p = 2^width is ``packed``, read one balanced
    base-2^width digit at a time from the bottom: the oracle for
    diagrams._unpack_p, which cuts long ints in halves first."""
    half, mask, terms = 1 << (width - 1), (1 << width) - 1, {}
    for key, v in packed.items():
        while v:
            d = ((v + half) & mask) - half
            if d:
                terms[key] = d
            v = (v - d) >> width
            key += pack(1, 0, 0, 0)
    return Poly(terms)


def full_diagram(dims: BoxDims) -> PlanePartition:
    a, b, c = dims
    return PlanePartition(dims, tuple((c,) * b for _ in range(a)))


def diagram_size(pi: PlanePartition) -> int:
    return sum(map(sum, pi.h))


def mac_tilde(a, N: int) -> Series:
    """M(a,z) * M(1/a,z)."""
    a = _as_lmono(a)
    return _product(N, [(a, 1), (_lmono_inv(a), 1)])


# -- faces and triangles, oracles for HexMesh's numbering ----------------------


class Triangle(NamedTuple):
    """A vertex of the mesh: up(x, y) or down(x, y)."""

    x: int
    y: int
    up: bool


def triangle_corners(t: Triangle) -> Tuple[Tuple[int, int], ...]:
    """A triangle's three lattice corners, sorted: up(x,y) has (x,y),
    (x,y+1), (x+1,y+1) and down(x,y) has (x,y), (x+1,y), (x+1,y+1)."""
    x, y = t.x, t.y
    if t.up:
        return ((x, y), (x, y + 1), (x + 1, y + 1))
    return ((x, y), (x + 1, y), (x + 1, y + 1))


def lattice_face(cls: str, x: int, y: int) -> Face:
    """The face of the class-cls edge at lattice point (x, y): the box
    point (x, y, 0) for A and (x+1, y+1, 0) for B and C, moved along
    (1,1,1) onto min(i, j, k) = 0."""
    i, j = (x, y) if cls == "A" else (x + 1, y + 1)
    t = max(-i, -j, 0)
    return Face(cls, i + t, j + t, t)


def face_lattice(f: Face) -> Tuple[int, int]:
    """The lattice point of a face: (i-k, j-k) for A, (i-k-1, j-k-1) for
    B and C."""
    shift = 0 if f.cls == "A" else 1
    return f.i - f.k - shift, f.j - f.k - shift


def hex_edge_cycle(x, y):
    """The six edges of the hexagonal face at lattice point (x, y), in
    cyclic order, as faces."""
    return (
        lattice_face("A", x, y),
        lattice_face("C", x, y - 1),
        lattice_face("B", x - 1, y - 1),
        lattice_face("A", x - 1, y - 1),
        lattice_face("C", x - 1, y - 1),
        lattice_face("B", x - 1, y),
    )


class GridScanMesh:
    """The mesh at face level, found by testing every point of the
    (a+c) x (b+c) grid, once for each triangle and once per class for each
    edge, with no numbering: the oracle for HexMesh's per-line runs and
    the tables it computes from them.

    ``vertices`` and ``edges`` are the sorted triangles and faces;
    ``ends`` maps each face to its (up, down) triangles; ``hex_cycles``
    maps each point whose six cycle faces (``hex_edge_cycle``) are all
    edges, in sorted order, to those faces; ``empty_matching`` is the
    face set of the empty diagram, its top faces A(i,j,0) and the walls
    B(i,0,z) and C(0,j,z); on an even box, ``lifts`` maps each base face
    to the two faces at twice its lattice point plus LIFT_OFFSETS."""

    def __init__(self, dims: BoxDims):
        a, b, c = dims

        def up_valid(x, y):
            return -c <= x <= a - 1 and -c <= y <= b - 1 and 1 - b <= x - y <= a

        def down_valid(x, y):
            return -c <= x <= a - 1 and -c <= y <= b - 1 and -b <= x - y <= a - 1

        grid = [(x, y) for x in range(-c, a) for y in range(-c, b)]
        self.vertices = tuple(Triangle(x, y, up) for x, y in grid for up in (False, True)
                              if (up_valid if up else down_valid)(x, y))
        self.ends = dict(sorted(
            (lattice_face(cls, x, y),
             (Triangle(x + ux, y + uy, True), Triangle(x + dx, y + dy, False)))
            for cls, ((ux, uy), (dx, dy)) in _ENDS.items() for x, y in grid
            if up_valid(x + ux, y + uy) and down_valid(x + dx, y + dy)))
        self.edges = tuple(self.ends)
        self.hex_cycles = {pt: hex_edge_cycle(*pt) for pt in grid
                           if set(hex_edge_cycle(*pt)) <= self.ends.keys()}
        self.empty_matching = frozenset(
            [Face("A", i, j, 0) for i in range(a) for j in range(b)]
            + [Face("B", i, 0, z) for i in range(a) for z in range(c)]
            + [Face("C", 0, j, z) for j in range(b) for z in range(c)])
        if dims.is_even:
            base = GridScanMesh(dims.halved())
            self.lifts = {f: tuple(lattice_face(f.cls, 2 * x + dx, 2 * y + dy)
                                   for dx, dy in LIFT_OFFSETS[f.cls])
                          for f in base.edges for x, y in [face_lattice(f)]}


@lru_cache(maxsize=None)
def edge_faces(mesh: HexMesh) -> Tuple[Face, ...]:
    """Each edge of the mesh as a face, by position."""
    return tuple(map(mesh.face, range(mesh.edge_count)))


@lru_cache(maxsize=None)
def vertex_triangles(mesh: HexMesh) -> Tuple[Triangle, ...]:
    """Each vertex of the mesh as a triangle, by position, read off
    ``edge_ends``: a vertex is the up (or down) triangle of each edge that
    has it as its up (or down) end (``rhombus_ends``), which must be one
    triangle, and no two vertices are the same triangle."""
    out: List[Optional[Triangle]] = [None] * mesh.vertex_count
    ends = rhombus_ends(mesh)
    for p, pair in enumerate(mesh.edge_ends):
        for v, t in zip(pair, ends[mesh.face(p)]):
            assert out[v] in (None, t), (v, out[v], t)
            out[v] = t
    assert None not in out and len(set(out)) == len(out)
    return tuple(out)


# a shared lattice edge's direction -> the rhombus class, and the offset of
# the rhombus's lattice point from the edge's lower corner: the diagonal of
# A(x,y) runs from (x,y), the vertical side of B(x,y) from (x+1,y) and the
# horizontal side of C(x,y) from (x,y+1)
SIDE_CLASS = {(1, 1): ("A", (0, 0)), (0, 1): ("B", (1, 0)), (1, 0): ("C", (0, 1))}


@lru_cache(maxsize=None)
def rhombus_ends(mesh: HexMesh) -> Dict[Face, Tuple[Triangle, Triangle]]:
    """Each rhombus of the mesh, sorted, -> its (up, down) triangles: every
    two triangles of the grid scan's ``vertices`` with two common corners,
    named by the direction of the lattice edge they share.  The oracle for
    the edges, edge_ends and vertex_edges, independent of ``_ENDS``."""
    at: Dict[Tuple[Tuple[int, int], ...], List[Triangle]] = {}
    for t in GridScanMesh(mesh.dims).vertices:
        for side in combinations(triangle_corners(t), 2):
            at.setdefault(side, []).append(t)
    out = {}
    for ((x, y), (x2, y2)), ts in at.items():
        if len(ts) == 2:
            down, up = sorted(ts, key=lambda t: t.up)
            assert up.up and not down.up
            cls, (dx, dy) = SIDE_CLASS[x2 - x, y2 - y]
            out[lattice_face(cls, x - dx, y - dy)] = (up, down)
    return dict(sorted(out.items()))


@lru_cache(maxsize=None)
def edge_positions(mesh: HexMesh) -> Dict[Face, int]:
    """Each edge's position, by its face."""
    return {f: i for i, f in enumerate(edge_faces(mesh))}


def mask_of(mesh: HexMesh, faces: Iterable[Face]) -> int:
    """The mask of distinct edges, the inverse of HexMesh.faces_of;
    UnknownFace for a face that is not an edge of the mesh."""
    index = edge_positions(mesh)
    try:
        return sum(1 << index[f] for f in faces)
    except KeyError as exc:
        raise UnknownFace(f"{exc.args[0]} is not an edge of H_{tuple(mesh.dims)}") from None


def broken_masks(mesh: HexMesh, M: int) -> Iterator[int]:
    """Ints made from the perfect matching mask M that are no perfect
    matching: each bit dropped, each bit added, each edge traded for another
    at the right popcount, a bit past the last edge (in the top byte, past
    it, far past it), and -M."""
    m = mesh.edge_count
    bits = positions(M)
    others = [j for j in range(m) if not M >> j & 1]
    for i in bits:
        yield M ^ 1 << i  # a bit dropped
    for j in others:
        yield M | 1 << j  # a bit added
        for i in bits:
            yield M ^ 1 << i ^ 1 << j  # one edge traded for another
    yield from (M | 1 << m, M | 1 << (8 * -(-m // 8)), M | 1 << (m + 64), -M)


def filled_scan_matching(pi):
    """Reference matching_of in O(abc): scan every cell of the box for the
    faces between a filled cell and an empty one."""
    a, b, c = pi.dims
    h = pi.h

    def filled(i, j, k):
        return 0 <= i < a and 0 <= j < b and k < h[i][j]

    M = set()
    for i in range(a):
        for j in range(b):
            k = h[i][j]
            M.add(lattice_face("A", i - k, j - k))
    # class B: vertical faces seen along the j axis (wall at j=0 counts as full)
    for i in range(a):
        for j in range(b + 1):
            for k in range(c):
                left = filled(i, j - 1, k) if j > 0 else True
                if left and not filled(i, j, k):
                    M.add(lattice_face("B", i - k - 1, j - k - 1))
    # class C: vertical faces seen along the i axis
    for j in range(b):
        for i in range(a + 1):
            for k in range(c):
                left = filled(i - 1, j, k) if i > 0 else True
                if left and not filled(i, j, k):
                    M.add(lattice_face("C", i - k - 1, j - k - 1))
    return frozenset(M)


def line_prefix_of(dims: BoxDims, masks) -> List[int]:
    """The oracle for HexMesh.line_prefix, from per-hexagon mask halves
    (HexMesh.hex_masks, or a mutant of them): per line d = x - y in
    [-b, a] and point x in [max(0, d) - c - 1, min(a, d + b) - 1] on it,
    the XOR of both halves of every hexagon on the line at x' <= x."""
    a, b, c = dims
    out = []
    for d in range(-b, a + 1):
        for x in range(max(0, d) - c - 1, min(a, d + b)):
            acc = 0
            for (x1, y1), (odd, even) in masks.items():
                if x1 - y1 == d and x1 <= x:
                    acc ^= odd ^ even
            out.append(acc)
    return out


def strided_matching_of(pi) -> int:
    """Reference matching_of in O(ab + bc + ca), wall by wall, each face's
    position looked up by class and lattice point (HexMesh.position): cell
    (i,j) shows its top face A(i,j,h[i][j]), at lattice point (i-h, j-h);
    in row i the wall between columns j-1 and j shows B(i,j,z) for z in
    [h[i][j], h[i][j-1]), taking h[i][-1] = c and h[i][b] = 0, at
    (i-z-1, j-z-1); class C is the same down each column."""
    mesh = build_mesh(pi.dims)
    c = pi.dims.c
    out: List[int] = []
    for i, row in enumerate(pi.h):
        left = c
        for j, k in enumerate((*row, 0)):
            out += [mesh.position("B", i - z - 1, j - z - 1) for z in range(k, left)]
            if j < len(row):
                out.append(mesh.position("A", i - k, j - k))
            left = k
    for j, col in enumerate(zip(*pi.h)):
        up = c
        for i, k in enumerate((*col, 0)):
            out += [mesh.position("C", i - z - 1, j - z - 1) for z in range(k, up)]
            up = k
    assert len(set(out)) == len(out) and -1 not in out
    return sum(1 << p for p in out)


def face_matching_of(pi) -> int:
    """Reference matching_of in O(ab + bc + ca) that names every face: the
    same walls as matching_of, each face made canonical by subtracting
    min(i,j,k) and looked up with mask_of."""
    c, h = pi.dims.c, pi.h
    M = []
    for i, row in enumerate(h):
        left = c
        for j, k in enumerate((*row, 0)):
            for z in range(k, left):
                m = min(i, j, z)
                M.append(Face("B", i - m, j - m, z - m))
            left = k
        for j, k in enumerate(row):
            m = min(i, j, k)
            M.append(Face("A", i - m, j - m, k - m))
    for j, col in enumerate(zip(*h)):
        up = c
        for i, k in enumerate((*col, 0)):
            for z in range(k, up):
                m = min(i, j, z)
                M.append(Face("C", i - m, j - m, z - m))
            up = k
    return mask_of(build_mesh(pi.dims), M)


class Propeller(NamedTuple):
    """A claw of three short edges around a center vertex of an even mesh."""

    base: Triangle  # the base-mesh vertex it contracts to
    center: Triangle
    outers: Dict[str, Triangle]  # class -> outer vertex, by class
    shorts: Dict[str, Face]  # class -> short edge, by class


def propellers(mesh):
    """The claw partition of an even mesh by triangle arithmetic, one claw
    per base vertex, the oracle for HexMesh.lifts, short_mask and
    long_cover: up(x,y) contracts down(2x,2y+1) and its neighbours,
    down(x,y) up(2x+1,2y) and its neighbours."""
    edge_at = {frozenset(ts): f for f, ts in rhombus_ends(mesh).items()}
    out = []
    for t in GridScanMesh(mesh.base.dims).vertices:
        x, y = t.x, t.y
        if t.up:
            center = Triangle(2 * x, 2 * y + 1, False)
            outers = {"A": Triangle(2 * x, 2 * y + 1, True),
                      "B": Triangle(2 * x + 1, 2 * y + 1, True),
                      "C": Triangle(2 * x, 2 * y, True)}
        else:
            center = Triangle(2 * x + 1, 2 * y, True)
            outers = {"A": Triangle(2 * x + 1, 2 * y, False),
                      "B": Triangle(2 * x, 2 * y, False),
                      "C": Triangle(2 * x + 1, 2 * y + 1, False)}
        shorts = {cls: edge_at[frozenset((center, o))] for cls, o in outers.items()}
        out.append(Propeller(t, center, outers, shorts))
    return out


# per edge class, the class of the outer vertex that each of a base edge's
# two lifts touches in the claw of the base edge's up end, in the order of
# HexMesh.lifts (that of mesh.LIFT_OFFSETS); checked against the propellers
LIFT_OUTERS = {"A": ("C", "B"), "B": ("C", "A"), "C": ("A", "B")}


def per_byte_tables(mesh: HexMesh) -> List[str]:
    """The cached attributes of a mesh that hold edge_table rows."""
    return [name for name, v in vars(mesh).items()
            if isinstance(v, list) and v and isinstance(v[0], list)]


# -- the face-level 2-factor, an oracle for hexdimer.overlay.TwoFactor ----------


@dataclass(frozen=True)
class FaceTwoFactor:
    """Doubled edges plus disjoint even loops; every vertex has degree two
    with multiplicity.  Each loop is stored as the walk from its least
    edge that leaves that edge at its down end, so equal 2-factors compare
    equal."""

    dims: BoxDims
    doubled: FrozenSet[Face]
    loops: Tuple[Tuple[Face, ...], ...]

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


def as_faces(lam) -> FaceTwoFactor:
    """A position-level TwoFactor with each edge position read as its face."""
    faces = edge_faces(build_mesh(lam.dims))
    return FaceTwoFactor(lam.dims, frozenset(faces[i] for i in positions(lam.doubled)),
                         tuple(tuple(faces[e] for e in loop) for loop in lam.loops))


def monomials(weighting) -> Tuple[Monomial, ...]:
    """The edge weights of an EdgeWeighting as monomials sign * t^exp, in
    ``edges`` order."""
    return tuple(map(mono_t, weighting.exps, weighting.signs))


def two_factor_weight(lam: FaceTwoFactor, weighting) -> Monomial:
    """Product of the edge weights of an EdgeWeighting, each read by its
    face, with multiplicity (doubled edges squared)."""
    weights = dict(zip(edge_faces(weighting.mesh), monomials(weighting)))
    w = Monomial(1)
    for f in lam.edges_with_multiplicity():
        w = w * weights[f]
    return w
