"""3D Young diagrams (plane partitions) in an a x b x c box, their box
coloring and weights, the bijection with perfect matchings of the hexagonal
mesh, hexagon flips, and the partition-function DP.

A diagram is stored as its heights matrix h, with h[i][j] the number of boxes
stacked over cell (i,j); weak decrease along rows and columns is exactly the
downward-closure condition on the box set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from math import gcd
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .algebra import Monomial, P_VARS, Poly, _add_into, pack
from .mesh import BoxDims, Face, HexMesh, build_mesh


class DiagramError(Exception):
    pass


class NotAMatching(DiagramError):
    pass


class FaceNotFlippable(DiagramError):
    pass


class TooLarge(DiagramError):
    pass


# the most matchings an enumeration may produce for the checks that
# overlay every pair of them (split, and enumerate_two_factors) and for
# the even box of fibers, which holds every fiber at once
MATCHING_LIMIT = 10_000


BOX_COLORS = {(0, 0): "P", (1, 0): "Q", (0, 1): "R", (1, 1): "S"}


def box_color(i: int, j: int, k: int) -> str:
    """Color of box (i,j,k) under the Z2xZ2 grading of (i-k, j-k)."""
    return BOX_COLORS[((i - k) % 2, (j - k) % 2)]


# the substitution values: an optional sign, then 1 or a variable
_SUBSTITUTIONS = {sign + v for sign in ("", "+", "-") for v in ("1",) + P_VARS}


@dataclass(frozen=True)
class WeightScheme:
    """Assigns a (p,q,r,s)-monomial to each box position.

    kind 'z2z2':  p, q, r or s by box color (p standing for t^3).
    kind 'mono':  p for every box (one p per box, i.e. t^3 collapsed).
    kind 'count': 1 for every box, so z_poly is the plain diagram count.

    ``signs`` optionally sends some of p,q,r,s to +-1 or to the negation of
    another variable, e.g. {'q': -1, 'r': -1, 's': -1} or {'p': '-p'}.
    """

    kind: str = "z2z2"
    signs: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self):
        if self.kind not in ("z2z2", "mono", "count"):
            raise DiagramError(f"unknown weight scheme {self.kind!r}")
        for name, val in self.signs:
            if name not in P_VARS:
                raise DiagramError(f"cannot specialize unknown variable {name!r}")
            if val not in _SUBSTITUTIONS:
                raise DiagramError(f"bad substitution {name}={val!r}")

    @cached_property
    def _by_color(self) -> Dict[Tuple[int, int], Monomial]:
        """The box monomial of each color class ((i-k) % 2, (j-k) % 2), with
        ``signs`` applied; a scheme parses its substitutions once."""
        subst = dict(self.signs)
        out = {}
        for pos, color in BOX_COLORS.items():
            if self.kind == "count":
                out[pos] = Monomial(1)
                continue
            name = "p" if self.kind == "mono" else color.lower()
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


@dataclass(frozen=True)
class PlanePartition:
    dims: BoxDims
    h: Tuple[Tuple[int, ...], ...]  # a rows of b entries

    def __post_init__(self):
        a, b, c = self.dims
        if len(self.h) != a or any(len(row) != b for row in self.h):
            raise DiagramError(f"heights matrix is not {a}x{b}")
        for i in range(a):
            for j in range(b):
                v = self.h[i][j]
                if type(v) is not int or not 0 <= v <= c:
                    raise DiagramError(f"height {v!r} at ({i},{j}) is not an integer in [0,{c}]")
                if i + 1 < a and self.h[i + 1][j] > v:
                    raise DiagramError("heights increase along a column")
                if j + 1 < b and self.h[i][j + 1] > v:
                    raise DiagramError("heights increase along a row")

    @classmethod
    def empty(cls, dims: BoxDims) -> "PlanePartition":
        a, b, _ = dims
        return cls(dims, tuple((0,) * b for _ in range(a)))

    @classmethod
    def full(cls, dims: BoxDims) -> "PlanePartition":
        a, b, c = dims
        return cls(dims, tuple((c,) * b for _ in range(a)))

    def size(self) -> int:
        return sum(map(sum, self.h))

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


def enumerate_diagrams(dims: BoxDims, budget: Optional[int] = None) -> Iterator[PlanePartition]:
    """All diagrams in the box with at most ``budget`` boxes (every diagram
    if None), ascending lexicographic on the heights matrix.

    Each is the successor of the one before: on the row-major entries, raise
    the last entry that is below its bounds (the entries above and to its
    left) and whose prefix sum is below the budget, and zero every entry
    after it."""
    a, b, c = dims
    n = a * b
    budget = n * c if budget is None else budget
    if budget < 0:
        return
    h = [0] * n
    total = 0  # while scanning back from entry k, the sum of h[:k + 1]
    while True:
        yield PlanePartition(dims, tuple(tuple(h[i:i + b]) for i in range(0, n, b)))
        k = n - 1
        while k >= 0 and (total >= budget or
                          h[k] == min(h[k - b] if k >= b else c, h[k - 1] if k % b else c)):
            total -= h[k]
            k -= 1
        if k < 0:
            return
        h[k] += 1
        total += 1
        h[k + 1:] = [0] * (n - 1 - k)


# -- the matching bijection -------------------------------------------------


def matching_of(pi: PlanePartition) -> FrozenSet[Face]:
    """The perfect matching of H_{a,b,c} whose rhombi tile the diagram
    surface, in O(ab + bc + ca): cell (i,j) shows its top face A(i,j,h[i][j]);
    in row i the wall between columns j-1 and j shows B(i,j,k) for k in
    [h[i][j], h[i][j-1]), taking h[i][-1] = c and h[i][b] = 0; class C is the
    same down each column.  Faces are made canonical by subtracting min(i,j,k)."""
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
    return frozenset(M)


def diagram_of(mesh: HexMesh, M: FrozenSet[Face]) -> PlanePartition:
    """Inverse of matching_of.  Raises NotAMatching unless M is a perfect
    matching of the mesh (equivalently, unless it arises from a diagram)."""
    if not mesh.is_perfect_matching(M):
        raise NotAMatching("edge set has a vertex of degree != 1")
    a, b, c = mesh.dims
    # class-A edges determine the heights: on the anti-diagonal i - j = d the
    # map i -> x = i - h(i, i-d) is strictly increasing, so sort and assign.
    by_diag: Dict[int, List[int]] = {}
    for f in M:
        if f.cls == "A":  # at lattice point (i - k, j - k)
            by_diag.setdefault(f.i - f.j, []).append(f.i - f.k)
    h = [[0] * b for _ in range(a)]
    for d, xs in by_diag.items():
        cells = [(i, i - d) for i in range(max(0, d), min(a, b + d))]
        if len(xs) != len(cells):
            raise NotAMatching(f"wrong number of horizontal faces on diagonal {d}")
        for x, (i, j) in zip(sorted(xs), cells):
            k = i - x
            if not 0 <= k <= c:
                raise NotAMatching(f"face at ({x},{x - d}) implies height {k}")
            h[i][j] = k
    try:
        pi = PlanePartition(BoxDims(a, b, c), tuple(map(tuple, h)))
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


def count_within(dims: BoxDims, limit: int) -> int:
    """The number of matchings of H_{a,b,c}; TooLarge if it exceeds ``limit``."""
    n = box_count(dims, limit)
    if n > limit:
        raise TooLarge(f"the number of matchings of H_{tuple(dims)} exceeds limit {limit}")
    return n


def iter_matchings(dims: BoxDims, limit: Optional[int] = None) -> Iterator[FrozenSet[Face]]:
    """Every perfect matching, by direct backtracking on the mesh (it does
    not go through diagrams, so it verifies the bijection independently), in
    backtracking order.  Raises TooLarge before any backtracking when the box
    has more than ``limit`` matchings (count_within)."""
    if limit is not None:
        count_within(dims, limit)
    mesh = build_mesh(dims)
    verts = mesh.vertices
    n = len(verts)
    pos = {t: i for i, t in enumerate(verts)}
    # per vertex position: (edge, position of its other end)
    nbrs = [tuple((f, pos[o]) for f in mesh.incident[t]
                  for o in mesh.edges[f] if o != t) for t in verts]
    # an explicit stack, since a long box matches thousands of edges deep:
    # each entry is (edges matched before it, its edge, lowest vertex that
    # may be free, covered vertices), and chosen[:d] holds the edges matched
    # on the way to an entry with d edges before it
    chosen: List[Face] = [None] * (n // 2)  # type: ignore[list-item]
    stack: List[Tuple[int, Face, int, int]] = []
    d = idx = covered = 0
    while True:
        while covered >> idx & 1:
            idx += 1
        if idx == n:
            yield frozenset(chosen)
        else:
            covered |= 1 << idx
            for f, o in nbrs[idx]:
                if not covered >> o & 1:
                    stack.append((d, f, idx + 1, covered | 1 << o))
        if not stack:
            return
        d, f, idx, covered = stack.pop()
        chosen[d] = f
        d += 1


def enumerate_matchings(dims: BoxDims, limit: Optional[int] = None) -> List[FrozenSet[Face]]:
    """Every perfect matching (iter_matchings), sorted by their sorted edges."""
    return sorted(iter_matchings(dims, limit), key=sorted)


# -- hexagon flips ------------------------------------------------------------


def tau_move(mesh: HexMesh, M: FrozenSet[Face], face: Tuple[int, int]) -> FrozenSet[Face]:
    """Flip the matching on one hexagonal face (add or remove one box)."""
    cycle = mesh.hexface_edges(face)
    odd, even = frozenset(cycle[0::2]), frozenset(cycle[1::2])
    if odd <= M:
        return (M - odd) | even
    if even <= M:
        return (M - even) | odd
    raise FaceNotFlippable(f"matching does not alternate around face {face}")


def flippable_faces(mesh: HexMesh, M: FrozenSet[Face]) -> List[Tuple[int, int]]:
    """The hexagonal faces around which M alternates, in ``hexfaces`` order."""
    return [pt for pt, (e0, e1, e2, e3, e4, e5) in mesh.hex_cycles.items()
            if e0 in M and e2 in M and e4 in M or e1 in M and e3 in M and e5 in M]


# -- partition function -------------------------------------------------------


@lru_cache(maxsize=None)
def _profile_states(a: int, c: int) -> Tuple[Tuple[int, ...], ...]:
    """The DP states: weakly decreasing a-vectors with entries in [0,c], in
    ascending lex order."""
    return tuple(reversed(list(combinations_with_replacement(range(c, -1, -1), a))))


@lru_cache(maxsize=None)
def _sweep_pairs(a: int, c: int) -> Tuple[Tuple[int, int], ...]:
    """(idx, idx') index pairs of the zeta-transform sweep, in the order
    they must run.

    For entry i = a-1 .. 0 and states s in ascending lex order, s' is s with
    entry i lowered by one and every later entry clamped to at most s_i - 1.
    Running H[s] += H[s'] over all pairs turns H[s] into the sum of H[u] over
    all states u <= s entrywise: after the pass for entry i, H[s] sums the u
    that agree with s before i and lie below it from i on.  s' precedes s in
    lex order, so it is complete when it is read.
    """
    states = _profile_states(a, c)
    index = {s: n for n, s in enumerate(states)}
    pairs = []
    for i in range(a - 1, -1, -1):
        for n, s in enumerate(states):
            v = s[i] - 1
            if v >= 0:
                lower = s[:i] + (v,) + tuple(min(x, v) for x in s[i + 1:])
                pairs.append((n, index[lower]))
    return tuple(pairs)


def _column_weights(dims: BoxDims, j: int, scheme: WeightScheme) -> List[Monomial]:
    """Weight of column j filled to each state, in state order.

    Per row i, run[i][h] is the product of the box monomials for k < h.
    States come in lex order, so a state shares its longest common prefix
    with the one before; pre[i] keeps the weight of the first i entries, and
    each distinct prefix costs one monomial product.
    """
    a, _, c = dims
    run = []
    for i in range(a):
        row = [Monomial(1)]
        for k in range(c):
            row.append(row[-1] * scheme.box_monomial(i, j, k))
        run.append(row)
    out = []
    pre = [Monomial(1)] * (a + 1)
    last = (-1,) * a
    for s in _profile_states(a, c):
        i = 0
        while s[i] == last[i]:
            i += 1
        for k in range(i, a):
            pre[k + 1] = pre[k] * run[k][s[k]]
        out.append(pre[a])
        last = s
    return out


def _shifted(terms: Dict[int, int], w: Monomial) -> Dict[int, int]:
    """terms times the monomial w."""
    k, d = w.coeff, w.key
    if k == 1 and not d:
        return terms
    return {e + d: c * k for e, c in terms.items()}


def z_poly(dims: BoxDims, scheme: WeightScheme = Z2Z2, method: str = "dp") -> Poly:
    """The box partition function: sum of diagram weights over the box.

    ``method`` 'enumerate' brute-forces the sum over diagrams for
    cross-checking.

    The DP runs over columns j = b-1 .. 0 with the column profiles as states:
    S = C(a+c, a) states and at most S*a term-dict additions per column.
    """
    if method == "enumerate":
        acc: Dict[int, int] = {}
        for pi in enumerate_diagrams(dims):
            w = diagram_weight(pi, scheme)
            acc[w.key] = acc.get(w.key, 0) + w.coeff
        return Poly(acc)
    if method != "dp":
        raise DiagramError(f"unknown method {method!r}")

    a, b, c = dims
    states = _profile_states(a, c)
    sweep = _sweep_pairs(a, c)
    # f[n] = terms of the weighted sum over partial diagrams on columns j..b-1
    # whose column j equals states[n]; the empty column b starts it off.
    f: List[Dict[int, int]] = [{} for _ in states]
    f[0][0] = 1
    for j in range(b - 1, -1, -1):
        # column j may take state s iff column j+1 lies below s entrywise
        for n, m in sweep:
            _add_into(f[n], f[m])
        f = [_shifted(terms, w)
             for terms, w in zip(f, _column_weights(dims, j, scheme))]
    total = Poly()
    for terms in f:
        total = total + Poly(terms)
    return total
