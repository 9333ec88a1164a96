"""3D Young diagrams (plane partitions) in an a x b x c box, their box
coloring and weights, the bijection with perfect matchings of the hexagonal
mesh, hexagon flips, the partition-function DP, and the partition function
in p alone by a determinant of lattice-path sums.

A diagram is stored as its heights matrix h, with h[i][j] the number of boxes
stacked over cell (i,j); weak decrease along rows and columns is exactly the
downward-closure condition on the box set.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import chain, combinations_with_replacement, permutations, product
from math import gcd, isqrt
from operator import ge, sub, xor
from typing import Dict, Iterator, List, Optional, Tuple

from .algebra import LIMIT, Monomial, P_VARS, Poly, TooLarge, _add_into, det_int, pack, split
from .mesh import BoxDims, HexMesh, Value, _set_field, build_mesh, positions


class DiagramError(Exception):
    pass


class NotAMatching(DiagramError):
    pass


class FaceNotFlippable(DiagramError):
    pass


# the most edge visits a check that enumerates a box's N matchings may
# spend: N^k (ab + bc + ca), with k = 1 for a check that handles each
# matching once and k = 2 for one that overlays every pair of them; also
# the most state additions the partition-function DP (z_poly) may run, each
# one sum of two dicts of packed ints
WORK_LIMIT = 10 ** 8


# the color of box (i,j,k), by ((i - k) % 2, (j - k) % 2)
BOX_COLORS = {(0, 0): "P", (1, 0): "Q", (0, 1): "R", (1, 1): "S"}


# the substitution values: an optional sign, then 1 or a variable
_SUBSTITUTIONS = {sign + v for sign in ("", "+", "-") for v in ("1",) + P_VARS}
# the variables each kind of scheme produces, so the ones it may specialize
_KIND_VARS = {"z2z2": P_VARS, "mono": ("p",), "count": ()}


class WeightScheme(Value):
    """Assigns a (p,q,r,s)-monomial to each box position.

    kind 'z2z2':  p, q, r or s by box color (p standing for t^3).
    kind 'mono':  p for every box (one p per box, i.e. t^3 collapsed).
    kind 'count': 1 for every box, so z_poly is the plain diagram count.

    ``signs`` optionally sends some of p,q,r,s to +-1 or to the negation of
    another variable, e.g. {'q': -1, 'r': -1, 's': -1} or {'p': '-p'}.
    """

    __slots__ = ("kind", "signs", "__dict__")

    def __init__(self, kind: str = "z2z2", signs: Tuple[Tuple[str, str], ...] = ()):
        _set_field(self, "kind", kind)
        _set_field(self, "signs", signs)
        _set_field(self, "_key", (kind, signs))
        if kind not in _KIND_VARS:
            raise DiagramError(f"unknown weight scheme {kind!r}")
        for name, val in signs:
            if name not in _KIND_VARS[kind]:
                raise DiagramError(f"weight scheme {kind!r} has no variable {name!r}")
            if val not in _SUBSTITUTIONS:
                raise DiagramError(f"bad substitution {name}={val!r}")

    @cached_property
    def _by_color(self) -> Dict[Tuple[int, int], Monomial]:
        """The box monomial of each color class ((i-k) % 2, (j-k) % 2), with
        ``signs`` applied; a scheme parses its substitutions once."""
        subst = dict(self.signs)
        out = {}
        for pos, color in BOX_COLORS.items():
            # count weighs every box 1, and has no variable to substitute
            name = {"z2z2": color.lower(), "mono": "p"}.get(self.kind, "1")
            val = subst.get(name, name)
            coeff = -1 if val.startswith("-") else 1
            val = val.lstrip("+-")
            out[pos] = (Monomial(coeff) if val == "1"
                        else Monomial(coeff, pack(*(int(v == val) for v in P_VARS))))
        return out

    def box_monomial(self, i: int, j: int, k: int) -> Monomial:
        return self._by_color[(i - k) % 2, (j - k) % 2]

    def with_signs(self, assignment: Dict[str, object]) -> "WeightScheme":
        items = dict(self.signs)
        for name, v in assignment.items():
            items[name] = str(v)
        return WeightScheme(self.kind, tuple(sorted(items.items())))


Z2Z2 = WeightScheme("z2z2")
MONO = WeightScheme("mono")
COUNT = WeightScheme("count")


class PlanePartition(Value):
    __slots__ = ("dims", "h")  # h: a rows of b entries

    def __init__(self, dims: BoxDims, h: Tuple[Tuple[int, ...], ...]):
        _set_field(self, "dims", dims)
        _set_field(self, "h", h)
        _set_field(self, "_key", (dims, h))
        a, b, c = dims
        if len(h) != a or set(map(len, h)) != {b}:
            raise DiagramError(f"heights matrix is not {a}x{b}")
        # the cells in row-major order, each compared at C level with the
        # one right of it (0 past a row's end) and the one below it: for
        # ints, weak decrease both ways puts every cell between the 0
        # padding and cells[0] <= c.  Only a matrix that fails is scanned
        # cell by cell, for its first fault.
        cells = list(chain.from_iterable(h))
        right = cells[1:] + [0]
        right[b - 1::b] = [0] * a
        if (set(map(type, cells)) == {int} and all(map(ge, cells, right))
                and all(map(ge, cells, cells[b:])) and cells[0] <= c):
            return
        for i in range(a):
            for j in range(b):
                v = h[i][j]
                if type(v) is not int or not 0 <= v <= c:
                    raise DiagramError(f"height {v!r} at ({i},{j}) is not an integer in [0,{c}]")
                if i + 1 < a and h[i + 1][j] > v:
                    raise DiagramError("heights increase along a column")
                if j + 1 < b and h[i][j + 1] > v:
                    raise DiagramError("heights increase along a row")

    @classmethod
    def empty(cls, dims: BoxDims) -> "PlanePartition":
        a, b, _ = dims
        return cls(dims, tuple((0,) * b for _ in range(a)))

    def boxes(self) -> Iterator[Tuple[int, int, int]]:
        for i, row in enumerate(self.h):
            for j, height in enumerate(row):
                for k in range(height):
                    yield (i, j, k)

    def to_json_obj(self) -> dict:
        return {"dims": list(self.dims), "heights": [list(r) for r in self.h]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PlanePartition":
        return cls(BoxDims(*obj["dims"]), tuple(tuple(r) for r in obj["heights"]))


def diagram_weight(pi: PlanePartition, scheme: WeightScheme) -> Monomial:
    w = Monomial(1)
    for box in pi.boxes():
        w = w * scheme.box_monomial(*box)
    return w


def _lex_steps(h: List[int], b: int, c: int, budget: int) -> Iterator[Tuple[int, List[int]]]:
    """The successor rule of the diagrams in lexicographic order, run in
    place on h, the row-major heights (b columns, all zero at the start)
    followed by c, the bound past the border: raise the last entry that is
    below its bounds (the entries above and to its left) and whose prefix
    sum is below ``budget``, zero every entry after it, and yield the
    raised index k with the old values of the entries after it, up to the
    last nonzero one; stop after the last diagram.

    Every zero after the last nonzero entry has a zero to its left or
    above it, but for two: the first entry of the next row and the entry
    right after the last nonzero one.  Their left bound is c or that
    nonzero entry, so the later of the two that exists is the one raised
    when the entry above it is nonzero.  Otherwise the scan goes back from
    the last nonzero entry."""
    n = len(h) - 1
    # the index of the entry above each entry and of the one to its left,
    # n (the border) where there is none
    up = [k - b if k >= b else n for k in range(n)]
    left = [k - 1 if k % b else n for k in range(n)]
    last = -1  # the last nonzero entry
    total = 0  # while scanning back from entry k <= last, the sum of h[:k + 1]
    while True:
        k = (last // b + 1) * b
        if k >= n:
            k = last + 1
        if total < budget and k < n and h[up[k]]:
            old = []
        else:
            k = last
            while k >= 0:
                v = h[k]
                if total < budget and v < h[up[k]] and v < h[left[k]]:
                    break
                total -= v
                k -= 1
            if k < 0:
                return
            old = h[k + 1:last + 1]
            h[k + 1:last + 1] = [0] * len(old)
        h[k] += 1
        total += 1
        last = k
        yield k, old


def enumerate_diagrams(dims: BoxDims, budget: Optional[int] = None) -> Iterator[PlanePartition]:
    """All diagrams in the box with at most ``budget`` boxes (every diagram
    if None), ascending lexicographic on the heights matrix: the empty one,
    then each successor (_lex_steps) of the one before."""
    a, b, c = dims
    n = a * b
    budget = n * c if budget is None else budget
    if budget < 0:
        return
    h = [0] * n + [c]
    for _ in chain([None], _lex_steps(h, b, c, budget)):
        yield PlanePartition(dims, tuple(tuple(h[i:i + b]) for i in range(0, n, b)))


def diagram_sum(dims: BoxDims, scheme: WeightScheme = Z2Z2,
                budget: Optional[int] = None) -> Poly:
    """The sum of diagram weights over the diagrams in the box with at most
    ``budget`` boxes, one diagram at a time: the brute-force reference for
    z_poly."""
    acc: Dict[int, int] = {}
    for pi in enumerate_diagrams(dims, budget):
        w = diagram_weight(pi, scheme)
        acc[w.key] = acc.get(w.key, 0) + w.coeff
    return Poly(acc)


# -- the matching bijection -------------------------------------------------


def matching_of(pi: PlanePartition) -> int:
    """The perfect matching of H_{a,b,c} whose rhombi tile the diagram
    surface, as an edge mask of the mesh (bit p for edge position p).

    Adding box (i,j,k) to a diagram flips the hexagon at lattice point
    (i-k, j-k): it XORs the hexagon's full mask into the matching.  So the
    matching is the empty diagram's XOR the boxes' hexagons, and the h
    boxes over cell q XOR to P[off_q] ^ P[off_q - h] (``HexMesh.line_prefix``
    at ``HexMesh.cell_offsets``).  The P[off_q] are folded with the empty
    matching into ``HexMesh.prefix_base``, which leaves one XOR of an
    |edges|-bit int per cell, at C level."""
    mesh = build_mesh(pi.dims)
    P = mesh.line_prefix
    return reduce(xor, map(P.__getitem__, map(sub, mesh.cell_offsets, chain.from_iterable(pi.h))),
                  mesh.prefix_base)


def diagram_of(mesh: HexMesh, M: int) -> PlanePartition:
    """Inverse of matching_of.  Raises NotAMatching unless the edge mask M
    is a perfect matching of the mesh (equivalently, unless it arises from
    a diagram).

    A mask without the size of a matching (``HexMesh.fits_matching``:
    negative, a bit past the last edge, or not V/2 bits) is refused before
    its bits are read.  The heights come from the class-A block alone, the
    low len(keys) bits (``HexMesh.a_keys``), which must hold ab edges.  A
    key is the slot (``HexMesh.slot``) of an A edge's lattice point, by
    line x - y, then by x, as the A edges are numbered, so M's keys come
    sorted.  On the line d = i - j the map i -> x = i - h(i,j) is strictly
    increasing, so the keys name the cells in the order of their offsets
    (A(i,j,0)'s keys), line by line.  The cell of rank r gets height
    h_r = off_r - key_r, and ``PlanePartition`` refuses the heights
    unless each lies in [0, c] and they weakly decrease.

    That one range check also proves each key on its cell's line.  Each
    line starts with a padding slot, which holds no key, and off_r, at
    x = i, lies c + 1 + min(i, j) slots above its line's padding and at
    or below its line's last point.  So a key on an earlier line lies at
    least c + 2 below off_r, one on a later line at least 2 above it.
    So every line holds one key per cell, and cell (i,j)'s key is that of its top
    face A(i-h, j-h), at x = i - h.  The round trip matching_of(pi) == M
    then proves M a perfect matching, as matching_of returns only
    matchings; no endpoint is scanned."""
    if not mesh.fits_matching(M):
        raise NotAMatching("edge mask is negative, has a bit past the last edge, "
                           "or has not one edge per two vertices")
    a, b, _ = mesh.dims
    keys, ranks = mesh.a_keys
    found = list(map(keys.__getitem__, positions(M & ((1 << len(keys)) - 1))))
    if len(found) != a * b:
        raise NotAMatching(f"{len(found)} horizontal faces, not one per cell of {a}x{b}")
    h = list(map(sub, mesh.cell_offsets, map(found.__getitem__, ranks)))
    try:
        pi = PlanePartition(mesh.dims, tuple(tuple(h[i:i + b]) for i in range(0, a * b, b)))
    except DiagramError as exc:
        raise NotAMatching(str(exc)) from exc
    if matching_of(pi) != M:
        raise NotAMatching("matching does not arise from any diagram")
    return pi


def box_count(dims: BoxDims, stop: Optional[int] = None) -> int:
    """The number of diagrams in the box, which is the number of matchings of
    H_{a,b,c}, by MacMahon's product over the cells of the a x b base:
    prod (i + j + c - 1) / (i + j - 1), exact in ints.

    Every factor is at least 1, so once the partial product passes ``stop``
    so does the count: the product stops there and returns its ceiling, a
    lower bound of the count that lies above ``stop``."""
    a, b, c = dims
    num = den = 1
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            num *= i + j + c - 1
            den *= i + j - 1
            g = gcd(num, den)
            num, den = num // g, den // g
            if stop is not None and num > stop * den:
                return -(-num // den)
    if den != 1:
        raise DiagramError(f"MacMahon's product for {tuple(dims)} is not an integer")
    return num


def bounded_count(dims: BoxDims, k: int) -> int:
    """The number N of matchings of H_{a,b,c}, for a check that visits
    N^k (ab + bc + ca) edges (see WORK_LIMIT); TooLarge, from the box count
    alone, if that passes WORK_LIMIT.  The count stops at the largest
    allowed N, so an n above it is exactly a refused one."""
    a, b, c = dims
    edges = a * b + b * c + c * a
    stop = isqrt(WORK_LIMIT // edges) if k == 2 else WORK_LIMIT // edges
    n = box_count(dims, stop)
    if n > stop:
        raise TooLarge(f"H_{tuple(dims)} has more than {stop} matchings: {edges} edges for "
                       f"each {'pair' if k == 2 else 'one'} of them is over the bound "
                       f"{WORK_LIMIT} edge visits")
    return n


def iter_matchings(dims: BoxDims) -> Iterator[int]:
    """Every perfect matching, as an edge mask (bit p for edge position p):
    matching_of of each diagram, in the order of enumerate_diagrams, by a
    walk of hexagon flips from the empty diagram's matching.

    col[q][v] = P[off_q] ^ P[off_q - v] is the XOR of the hexagons of boxes
    (i,j,0..v-1) over cell q = (i,j) (``HexMesh.line_prefix``, as in
    matching_of).  Raising entry q from v to v+1 XORs col[q][v] ^
    col[q][v+1] and zeroing it from v XORs col[q][v]: each step of the
    lexicographic walk (_lex_steps) costs one XOR per entry it changes.
    The walk holds ab(c+1) masks and no stack."""
    a, b, c = dims
    mesh = build_mesh(dims)
    P = mesh.line_prefix
    col = [[P[o] ^ P[o - v] for v in range(c + 1)] for o in mesh.cell_offsets]
    M = mesh.empty_matching
    yield M
    h = [0] * (a * b) + [c]
    for k, old in _lex_steps(h, b, c, a * b * c):
        v = h[k]
        M ^= col[k][v - 1] ^ col[k][v]
        if old:
            for q, u in enumerate(old, k + 1):
                M ^= col[q][u]
        yield M


def enumerate_matchings(dims: BoxDims) -> List[int]:
    """Every perfect matching, listed in the flip walk's order
    (iter_matchings): the list the pair checks overlay."""
    return list(iter_matchings(dims))


def require_count(dims: BoxDims, got: int, n: int) -> None:
    """DiagramError (a program fault, not a failed identity) unless a check
    enumerated ``got`` = n matchings of H_{a,b,c}, n from bounded_count: an
    enumeration that stopped short must never pass as a whole one."""
    if got != n:
        raise DiagramError(f"enumerated {got} matchings of H_{tuple(dims)}, "
                           f"but MacMahon's product counts {n}")


# -- hexagon flips ------------------------------------------------------------


def tau_move(mesh: HexMesh, M: int, face: Tuple[int, int]) -> int:
    """Flip the matching mask on one hexagonal face (add or remove one box):
    M ^ the hexagon's mask, when M holds every other edge of its cycle."""
    cycle = mesh.hexface_edges(face)
    odd = 1 << cycle[0] | 1 << cycle[2] | 1 << cycle[4]
    even = 1 << cycle[1] | 1 << cycle[3] | 1 << cycle[5]
    if M & odd == odd or M & even == even:
        return M ^ odd ^ even
    raise FaceNotFlippable(f"matching does not alternate around face {face}")


def flippable_faces(mesh: HexMesh, M: int) -> List[Tuple[int, int]]:
    """The hexagonal faces around which the mask M alternates, in
    ``hex_cycles`` order."""
    return [pt for pt, (odd, even) in mesh.hex_masks.items()
            if M & odd == odd or M & even == even]


# -- partition function -------------------------------------------------------


def _profile_states(a: int, c: int) -> Tuple[Tuple[int, ...], ...]:
    """The DP states: weakly decreasing a-vectors with entries in [0,c], in
    ascending lex order."""
    return tuple(reversed(list(combinations_with_replacement(range(c, -1, -1), a))))


def _sweep_pairs(states: Tuple[Tuple[int, ...], ...]) -> List[Tuple[int, int]]:
    """(idx, idx') index pairs of the zeta-transform sweep over the states
    (_profile_states), in the order they must run.

    For entry i = 0 .. a-1 and states s in ascending lex order, s' is s with
    entry i lowered by one, where that is still a state: s_i > s_{i+1},
    taking s_a = 0.  Running H[s] += H[s'] over all pairs turns H[s] into the
    sum of H[u] over all states u <= s entrywise: u reaches s along exactly
    one path, which raises entry 0 to s_0 in the first pass, then entry 1 to
    s_1, and so on, and every vector on the way is a state.  s' precedes s
    in lex order, so it is complete when it is read.
    """
    a = len(states[0])
    index = {s: n for n, s in enumerate(states)}
    pairs = []
    for i in range(a):
        for n, s in enumerate(states):
            if s[i] > (s[i + 1] if i + 1 < a else 0):
                pairs.append((n, index[s[:i] + (s[i] - 1,) + s[i + 1:]]))
    return pairs


def _column_weights(colors: Dict[Tuple[int, int, int], Monomial], a: int, c: int, j: int,
                    states: Tuple[Tuple[int, ...], ...]) -> List[Monomial]:
    """Weight of column j filled to each of the states, in state order, for
    box (i,j,k) weighing colors[i % 2, j % 2, k % 2] (_reoriented).

    Per row i, run[i][h] is the product of the box monomials for k < h.
    States come in lex order, so a state shares its longest common prefix
    with the one before; pre[i] keeps the weight of the first i entries, and
    each distinct prefix up to the state's first zero costs one monomial
    product.
    """
    run = []
    for i in range(a):
        row = [Monomial(1)]
        for k in range(c):
            row.append(row[-1] * colors[i % 2, j % 2, k % 2])
        run.append(row)
    out = []
    pre = [Monomial(1)] * (a + 1)
    last = (-1,) * a
    for s in states:
        i = 0
        while s[i] == last[i]:
            i += 1
        # a state is weakly decreasing, so its entries from its first zero
        # on weigh 1 and are skipped; the state before has no zero before i
        # (the two would agree from that zero on), so pre[i] is up to date
        k = i
        while k < a and s[k]:
            pre[k + 1] = pre[k] * run[k][s[k]]
            k += 1
        out.append(pre[k])
        last = s
    return out


# the key of p, the unit of _unpack_p's digits unless it is given another
_P_KEY = pack(1, 0, 0, 0)


def _p_width(dims: BoxDims) -> int:
    """W, the bits of one digit in z_poly's packed values.  Every
    coefficient the DP forms is a signed count of distinct diagrams of the
    box, so its absolute value is at most box_count(dims) < 2^(W-1)."""
    return box_count(dims).bit_length() + 1


def _unit(scheme: WeightScheme) -> Tuple[int, int]:
    """(u, pivot): u is the key of the product of the variables that the
    scheme's box monomials use, and pivot the index of the first of them
    in P_VARS; p and 0 for a scheme that uses none.  z_poly holds each
    monomial e as the digit e[pivot] under the key e - e[pivot] u."""
    used = [any(split(w.key)[n] for w in scheme._by_color.values()) for n in range(4)]
    return (pack(*map(int, used)), used.index(True)) if any(used) else (_P_KEY, 0)


def _shifted(terms: Dict[int, int], w: Monomial, width: int, unit: int,
             pivot: int) -> Dict[int, int]:
    """terms times the monomial w, packed along ``unit`` (_unit): w's
    pivot exponent e shifts the packed values by e digits, and the rest of
    its key, key - e u, moves the keys."""
    k, key = w.coeff, w.key
    if k == 1 and not key:
        return terms
    e = split(key)[pivot]
    d, shift = key - e * unit, e * width
    if k == 1:
        return {x + d: v << shift for x, v in terms.items()}
    return {x + d: (v << shift) * k for x, v in terms.items()}


def _unpack_p(packed: Dict[int, int], width: int, unit: int = _P_KEY) -> Poly:
    """The Poly held in ``packed``, a dict from keys to ints: the balanced
    base-2^width digits of each int, in [-2^(width-1), 2^(width-1)), are
    the coefficients of key, key + unit, key + 2 unit, ..; at the default
    unit p, that is the polynomial whose value at p = 2^width is
    ``packed``.  The caller keeps the monomials apart: no two (key, digit)
    pairs may name the same one.

    An int of n > 32 digits is cut at digit k = n // 2: adding half to each
    of its k low digits makes them nonnegative, so a mask reads the low
    part.  The per-digit loop rewrites the whole int at each step, so the
    cuts keep the reading near linear in the int's size."""
    half, mask, terms = 1 << (width - 1), (1 << width) - 1, {}
    todo = list(packed.items())
    while todo:
        key, v = todo.pop()
        n = v.bit_length() // width
        if n > 32:
            k = n // 2
            low = (1 << k * width) - 1
            h = low // mask * half  # half in each of the k low digits
            lo = ((v + h) & low) - h
            todo += (key + k * unit, (v - lo) >> k * width), (key, lo)  # lo first
            continue
        while v:
            d = ((v + half) & mask) - half
            if d:
                terms[key] = d
            v = (v - d) >> width
            key += unit
    return Poly._of(terms)


def _axis_order(dims: BoxDims) -> Tuple[int, int, int]:
    """The order (t0, t1, t2) of the axes in which z_poly's DP runs: the
    one whose box (dims[t0], dims[t1], dims[t2]) = (a, b, c) takes the
    fewest state additions a*b*C(a+c, a), the first of them in
    permutation order, so a cube keeps its own.  TooLarge, before any
    state is listed, when every order passes WORK_LIMIT.

    Each C(a+c, a) is built factor by factor, C(n+1, 1), C(n+2, 2) ..
    C(n+k, k) (n = max(a, c), k = min(a, c)), each the one before times
    (n + i) / i, and stops once a*b times it passes the cheapest order
    found so far, or WORK_LIMIT before one is found."""
    sides = tuple(dims)
    best, chosen = WORK_LIMIT, None
    for order in permutations(range(3)):
        a, b, c = map(sides.__getitem__, order)
        size = 1
        for i in range(1, min(a, c) + 1):
            size = size * (max(a, c) + i) // i
            if a * b * size > best:
                break
        else:
            if chosen is None or a * b * size < best:
                best, chosen = a * b * size, order
    if chosen is None:
        raise TooLarge(f"the partition function of H_{sides} takes a*b*C(a+c, a) state "
                       f"additions in every order of its axes, over the bound {WORK_LIMIT}")
    return chosen


def _reoriented(scheme: WeightScheme,
                order: Tuple[int, int, int]) -> Dict[Tuple[int, int, int], Monomial]:
    """The box monomials of the box with its axes in ``order``
    (_axis_order), by the parities of a box's coordinates: its box y is box
    x of the requested one, x[order[t]] = y[t], and a box's colour depends
    on the parities of its coordinates alone."""
    out = {}
    for y in product((0, 1), repeat=3):
        x = [0, 0, 0]
        for t, v in zip(order, y):
            x[t] = v
        out[y] = scheme.box_monomial(*x)
    return out


def z_poly(dims: BoxDims, scheme: WeightScheme = Z2Z2) -> Poly:
    """The box partition function: sum of diagram weights over the box.

    Permuting the axes maps the diagrams of one box one to one onto those
    of the permuted box, so the DP runs on the box (a, b, c) of the
    cheapest order (_axis_order), each box weighing what it weighs in the
    requested box (_reoriented).  It runs over columns j = b-1 .. 0 with
    the column profiles as states: S = C(a+c, a) states and fewer than S*a
    state additions per column.  TooLarge, before any state is listed, if
    a*b*S passes WORK_LIMIT in every order, or else if the scheme uses a
    variable and a*b*c, the largest exponent it can reach, is outside the
    range of ``pack``.

    Each state is a dict from keys to ints, packed along u, the product of
    the variables the scheme uses (_unit): the monomial e is the digit
    e[pivot] of base 2^W (_p_width) under the key e - e[pivot] u, so one
    int addition merges a whole polynomial in u.  Keys have pivot exponent
    0, so each monomial has one place.  The total is unpacked once
    (_unpack_p).  A partial diagram on columns j..b-1 extends to a whole
    one in one way only (fill the columns left of j to height c), so every
    coefficient of every state, partial sum and the total counts distinct
    diagrams of the box with signs: its absolute value is below 2^(W-1),
    where balanced base-2^W digits are unique.  So a packed value is 0
    exactly when all its coefficients are, and the unpacking is exact.
    """
    order = _axis_order(dims)
    if dims.a * dims.b * dims.c >= LIMIT and any(w.key for w in scheme._by_color.values()):
        raise TooLarge(f"the partition function of H_{tuple(dims)} reaches exponent a*b*c = "
                       f"{dims.a * dims.b * dims.c}, outside the exponent range [-2**20, 2**20)")
    a, b, c = map(tuple(dims).__getitem__, order)
    colors = _reoriented(scheme, order)
    unit, pivot = _unit(scheme)
    width = _p_width(dims)
    states = _profile_states(a, c)
    sweep = _sweep_pairs(states)
    # f[n] = the weighted sum over partial diagrams on columns j..b-1 whose
    # column j equals states[n], packed along unit; the empty column b
    # starts it
    f: List[Dict[int, int]] = [{} for _ in states]
    f[0][0] = 1
    for j in range(b - 1, -1, -1):
        # column j may take state s iff column j+1 lies below s entrywise
        for n, m in sweep:
            _add_into(f[n], f[m])
        # in place, so each old state is freed as soon as its new one is made
        for n, w in enumerate(_column_weights(colors, a, c, j, states)):
            f[n] = _shifted(f[n], w, width, unit, pivot)
    total = Poly()
    for terms in f:
        total = total + Poly(terms)
    return _unpack_p(total.terms, width, unit)


# -- partition function by nonintersecting paths ------------------------------


def z_at(dims: BoxDims, scheme: WeightScheme, p: int) -> int:
    """The box partition function at the integer p = +-2^s, for a scheme
    whose box monomials hold no q, r or s, by the Lindstrom-Gessel-Viennot
    lemma (Gessel and Viennot 1985): one c x c determinant over the
    integers (det_int), with entries from c path-sum DPs.

    A box weighs W(i-k, j-k), its monomial by color.  Permuting the axes
    permutes the colors Q, R and S, so when those three weigh alike the
    dims are sorted first, c the smallest.  Level k of a diagram, the cells
    with h[i][j] > k, shifted by (-k,-k), is an E/D lattice path from
    (-k, a-k) to (b-k, -k): its E step in column x at height y covers the
    cells u = -k .. y-1 of that column.  The levels nest exactly when the
    paths do not meet, and only the identity pairs sources with sinks
    without a meeting.  With the row origin moved to u0 = -(c-1), an E step
    leaving (x, y) weighs R'(x, y) = prod_{u=u0}^{y-1} W(u, x) and a D step
    weighs 1, so no weight is inverted.  Every path from source k has one E
    step in each column x in [-k, b-1-k], so the origin move multiplies
    each family by the same prod_k prod_x R'(x, -k), +-p^m, which at
    p = +-2^s is a sign and a right shift; the shift must be exact.

    Entry (k, l) is the sum over the paths from source k to sink
    (b-l, -l): 0 when the sink lies left of the source or above it, 1 for
    a straight vertical path.  One DP per source, over x ascending and y
    descending, gives the whole row."""
    if not p or abs(p) & (abs(p) - 1):
        raise DiagramError(f"p = {p} is not +-2^s")
    s = abs(p).bit_length() - 1
    # each color's box weight at p, as a sign and a left shift
    weight = {}
    for pos, w in scheme._by_color.items():
        e, *qrs = split(w.key)
        if any(qrs):
            raise DiagramError(f"box weight {w} is not a monomial in p alone")
        weight[pos] = (-w.coeff if p < 0 and e % 2 else w.coeff, s * e)
    if weight[1, 0] == weight[0, 1] == weight[1, 1]:
        dims = BoxDims(*sorted(dims, reverse=True))
    a, b, c = dims
    u0 = 1 - c
    # run[x % 2][y - u0] = R'(x, y), as a sign and a shift, for y = u0 .. a
    run = []
    for xp in (0, 1):
        sign, shift = 1, 0
        col = [(sign, shift)]
        for u in range(u0, a):
            ws, wsh = weight[u % 2, xp]
            sign, shift = sign * ws, shift + wsh
            col.append((sign, shift))
        run.append(col)
    rows = []
    for k in range(c):
        # f[y - u0] = the paths from (-k, a-k) to (x, y); x = -k is straight down
        f = [1] * (a - k - u0 + 1)
        row = [0] * c
        for x in range(-k, b + 1):
            l = b - x
            if l < c and -l - u0 < len(f):
                row[l] = f[-l - u0]
            if x < b:
                # an E step leaves column x at height y, then D steps go down
                weights, acc = run[x % 2], 0
                for y in range(len(f) - 1, -1, -1):
                    sign, shift = weights[y]
                    acc += f[y] << shift if sign > 0 else -(f[y] << shift)
                    f[y] = acc
        rows.append(row)
    sign, shift = 1, 0
    for k in range(c):
        for x in range(-k, b - k):
            ws, wsh = run[x % 2][c - 1 - k]
            sign, shift = sign * ws, shift + wsh
    det = det_int(rows)
    if det & ((1 << shift) - 1):
        raise DiagramError(f"the path determinant of H_{tuple(dims)} is not divisible by "
                           f"2^{shift}, the origin move's factor")
    return sign * (det >> shift)


def z_lgv(dims: BoxDims, scheme: WeightScheme) -> Poly:
    """The box partition function as a polynomial in p, for a scheme whose
    box monomials hold no q, r or s: z_at at p = 2^W (_p_width), its
    balanced base-2^W digits read by _unpack_p.  Exact for the reason
    z_poly is: every coefficient is a signed count of distinct diagrams."""
    width = _p_width(dims)
    return _unpack_p({0: z_at(dims, scheme, 1 << width)}, width)
