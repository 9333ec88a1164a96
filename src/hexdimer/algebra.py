"""Exact arithmetic kernel: signed monomials, sparse integer polynomials,
truncated power series with Laurent coefficients, 4x4 integer matrices,
determinants of sparse integer matrices modulo a prime, and determinants
of dense integer matrices over the integers.

Polynomials are in ``('p', 'q', 'r', 's')``, the frame of diagram weights
and partition functions.  Edge weights are monomials whose first variable is
t, with ``p = t**3``.  Every exponent vector, of either kind and in the
Laurent coefficients of a series, is one int key made by ``pack`` and read
by ``split``.  All coefficients are Python ints (arbitrary precision); there
is no floating point anywhere in this module.
"""

from __future__ import annotations

from itertools import chain
from typing import Collection, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

P_VARS = ("p", "q", "r", "s")


class AlgebraError(Exception):
    pass


class NonUnitConstantTerm(AlgebraError):
    """Series inversion requires constant coefficient exactly 1."""


class TooLarge(AlgebraError):
    """A computation refused before it starts, because its size passes a
    work bound or the list of primes (a usage error, not a fault)."""


# ---------------------------------------------------------------------------
# The packed exponent key.  From the top: four exponent fields of _W bits,
# then their sum, the total degree, in the lowest _D bits.  Fields are signed
# and stored by plain addition, so keys add like exponent vectors.
# ---------------------------------------------------------------------------

_W = 22
_D = _W + 2                     # a sum of four exponents needs two more bits
LIMIT = 1 << (_W - 2)           # every exponent lies in [-LIMIT, LIMIT)
_SHIFTS = _S0, _S1, _S2, _S3 = (_D + 3 * _W, _D + 2 * _W, _D + _W, _D)
_U0, _U1, _U2, _U3 = ((1 << s) + 1 for s in _SHIFTS)  # one variable's key
_MASK = (1 << _W) - 1
_DBIAS = 1 << (_D - 2)
_DMASK = (1 << _D) - 1
# Adding _BIAS takes every in-range field (the degree field included) to the
# lower half of its bits.  A sum of two in-range keys sets one of the top
# bits in _GUARD exactly when some exponent has left the range.
_BIAS = sum(LIMIT << s for s in _SHIFTS) + _DBIAS
_GUARD = sum(1 << (s + _W - 1) for s in _SHIFTS) + (1 << (_D - 1))
# The same test for one in-range key: no bit of _HALF_GUARD is set exactly
# when every exponent lies in [-LIMIT/2, LIMIT/2), so that any two such keys
# add without leaving the range.
_HALF_BIAS = sum((LIMIT // 2) << s for s in _SHIFTS) + _DBIAS
_HALF_GUARD = sum((3 * LIMIT) << s for s in _SHIFTS)


def pack(e0: int, e1: int, e2: int, e3: int) -> int:
    """The key of x0^e0 x1^e1 x2^e2 x3^e3, where x0 is p or t; a Laurent
    coefficient q^eq r^er s^es of a series has the key pack(0, eq, er, es).

    Keys are additive: a product of monomials has the sum of their keys, the
    k-th power k times the key and the inverse its negative.  Sorted keys
    follow the lexicographic order of the exponent tuples, and ``degree``
    reads e0 + e1 + e2 + e3 off the lowest field.  Every exponent must lie in
    [-2**20, 2**20); ``pack`` refuses any other.

    A sum of keys is checked where it can leave that range: Monomial products
    by the guard bits; lp_mul products, which Poly products are, and Series
    products by the extreme fields of their operands, once per product;
    series_inv by n times each key of its input, and the sparse-factor
    products of the series module by N times each factor's key, once per
    factor.  The sums left unchecked
    cannot wrap: a z_poly key is a diagram's exponents less a multiple of
    the unit its states are packed along, so each field lies in
    [-a*b*c, a*b*c], and z_poly refuses a scheme with a variable once a*b*c
    reaches 2**20; the Q grading in compare_box_vs_series adds at most D
    times pack(1, 1, 1, 1).
    """
    if not (-LIMIT <= e0 < LIMIT and -LIMIT <= e1 < LIMIT
            and -LIMIT <= e2 < LIMIT and -LIMIT <= e3 < LIMIT):
        raise AlgebraError(f"exponent {(e0, e1, e2, e3)} outside [-2**20, 2**20)")
    return e0 * _U0 + e1 * _U1 + e2 * _U2 + e3 * _U3


def split(key: int) -> Tuple[int, int, int, int]:
    """The exponents (e0, e1, e2, e3) that ``pack`` put into ``key``."""
    v = key + _BIAS
    if v & _GUARD:
        raise AlgebraError(f"key {key} holds an exponent outside [-2**20, 2**20)")
    return ((v >> _S0) - LIMIT, (v >> _S1 & _MASK) - LIMIT,
            (v >> _S2 & _MASK) - LIMIT, (v >> _S3 & _MASK) - LIMIT)


def degree(key: int) -> int:
    """e0 + e1 + e2 + e3 of the key, without decoding it."""
    return ((key + _DBIAS) & _DMASK) - _DBIAS


def _check_product(xs: Collection[int], ys: Collection[int]):
    """Raise AlgebraError if a key of xs plus a key of ys leaves the range.
    Keys with small exponents pass on one bit test each; otherwise the
    extreme fields of the two operands are added."""
    if xs and ys and any((k + _HALF_BIAS) & _HALF_GUARD for k in chain(xs, ys)):
        fx, fy = list(zip(*map(split, xs))), list(zip(*map(split, ys)))
        for pick in (min, max):
            pack(*(pick(a) + pick(b) for a, b in zip(fx, fy)))


class Monomial:
    """A signed monomial coeff * x^key, with ``key`` from ``pack``
    (exponents may be negative).  A zero monomial has key 0."""

    __slots__ = ("coeff", "key")

    def __init__(self, coeff: int, key: int = 0):
        self.coeff = coeff
        self.key = key if coeff else 0

    def __mul__(self, other: "Monomial") -> "Monomial":
        key = self.key + other.key
        if (key + _BIAS) & _GUARD:
            raise AlgebraError(f"{self} * {other} leaves the exponent range")
        return Monomial(self.coeff * other.coeff, key)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Monomial) and self.coeff == other.coeff
                and self.key == other.key)

    def __repr__(self) -> str:
        return f"Monomial({self.coeff}, pack{split(self.key)})"


def mono_t(exp_t: int, coeff: int = 1) -> Monomial:
    return Monomial(coeff, pack(exp_t, 0, 0, 0))


# ---------------------------------------------------------------------------
# Term dicts {key: coeff}: the terms of a Poly, and the Laurent coefficients
# in (q, r, s) of a Series, keyed by pack(0, eq, er, es).  The lp_* helpers
# return new dicts; the *_into helpers accumulate in place.
# ---------------------------------------------------------------------------

LPoly = Dict[int, int]

LP_ONE: LPoly = {0: 1}


def _add_into(acc: LPoly, x: LPoly):
    """acc += x, dropping the coefficients that cancel."""
    get = acc.get
    for e, c in x.items():
        c += get(e, 0)
        if c:
            acc[e] = c
        else:
            del acc[e]


def _lp_mul_into(acc: LPoly, x: LPoly, y: LPoly):
    """acc += x*y, leaving zero coefficients for _drop_zeros."""
    get = acc.get
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2


def _drop_zeros(acc: LPoly) -> LPoly:
    # in place, so a product's largest coefficient is not held twice
    for e in [e for e, c in acc.items() if not c]:
        del acc[e]
    return acc


def lp_mul(x: LPoly, y: LPoly) -> LPoly:
    _check_product(x, y)
    acc: LPoly = {}
    _lp_mul_into(acc, x, y)
    return _drop_zeros(acc)


class Poly:
    """Sparse polynomial in p, q, r, s with integer coefficients.

    ``terms`` maps exponent keys to nonzero coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[int, int]] = None):
        self.terms: Dict[int, int] = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def _of(cls, terms: Dict[int, int]) -> "Poly":
        """A Poly that takes ``terms``, which must hold no zero, as it is."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def __add__(self, other: "Poly") -> "Poly":
        tt = dict(self.terms)
        _add_into(tt, other.terms)  # drops the terms that cancel
        return Poly._of(tt)

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly._of(lp_mul(self.terms, other.terms))

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    # -- serialization / display ---------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "vars": list(P_VARS),
            "terms": [{"coeff": c, "exp": list(split(e))}
                      for e, c in sorted(self.terms.items())],
        }

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            factors = []
            for name, k in zip(P_VARS, split(e)):
                if k == 0:
                    continue
                factors.append(name if k == 1 else f"{name}^{k}")
            body = "*".join(factors)
            if not body:
                body = str(abs(c))
            elif abs(c) != 1:
                body = f"{abs(c)}*{body}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    __repr__ = __str__


def lp_eval_signs(x: LPoly, sq: int = -1, sr: int = -1, ss: int = -1) -> int:
    """Evaluate at q,r,s in {+1,-1}.  Negative exponents are fine: (-1)^-k = (-1)^k."""
    total = 0
    for e, c in x.items():
        _, eq, er, es = split(e)
        sign = (sq ** (eq & 1)) * (sr ** (er & 1)) * (ss ** (es & 1))
        total += c * sign
    return total


class Series:
    """Truncated power series in a grading variable z with LPoly coefficients
    (z is Q = p*q*r*s in the four-variable product formula).

    ``coeffs[n]`` is the Laurent polynomial in (q,r,s) multiplying z**n;
    the sequence always has length ``order + 1``.  The coefficient dicts are
    taken as they are, not copied: a Series never changes them.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[LPoly], order: int):
        cs = list(coeffs)
        if len(cs) < order + 1:
            cs += [{} for _ in range(order + 1 - len(cs))]
        self.coeffs: List[LPoly] = cs[: order + 1]
        self.order = order

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([dict(LP_ONE)], order)

    def __mul__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        x, y = self.coeffs, other.coeffs
        _check_product([e for c in x[:n + 1] for e in c], [e for c in y[:n + 1] for e in c])
        out: List[LPoly] = []
        for k in range(n + 1):
            acc: LPoly = {}
            for i in range(k + 1):
                if x[i] and y[k - i]:
                    _lp_mul_into(acc, x[i], y[k - i])
            out.append(_drop_zeros(acc))
        return Series(out, n)

    def __pow__(self, k: int) -> "Series":
        out = Series.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, Series) and self.order == other.order
                and self.coeffs == other.coeffs)

    def specialize_signs(self, sq=-1, sr=-1, ss=-1) -> List[int]:
        """Coefficientwise evaluation at q,r,s -> +-1; returns plain integers."""
        return [lp_eval_signs(c, sq, sr, ss) for c in self.coeffs]

    def __repr__(self):
        return f"Series(order={self.order})"


def series_inv(x: Series) -> Series:
    """Multiplicative inverse; the constant coefficient must be exactly 1."""
    if x.coeffs[0] != LP_ONE:
        raise NonUnitConstantTerm(f"constant coefficient is {x.coeffs[0]!r}, need 1")
    n = x.order
    for e in chain.from_iterable(x.coeffs[1:]):  # a term of the inverse adds <= n keys
        pack(*(n * f for f in split(e)))
    inv: List[LPoly] = [dict(LP_ONE)]
    for k in range(1, n + 1):
        acc: LPoly = {}
        for i in range(1, k + 1):
            if x.coeffs[i] and inv[k - i]:
                _lp_mul_into(acc, x.coeffs[i], inv[k - i])
        inv.append({e: -c for e, c in acc.items() if c})
    return Series(inv, n)


# ---------------------------------------------------------------------------
# 4x4 integer state-transition matrices.
# ---------------------------------------------------------------------------

Mat4 = Tuple[Tuple[int, ...], ...]

MAT_L: Mat4 = (
    (0, 0, 1, 1),
    (0, 0, 0, -1),
    (1, 0, 0, 0),
    (-1, -1, 0, 0),
)

MAT_R: Mat4 = (
    (0, 0, 1, 0),
    (0, 0, -1, -1),
    (1, 1, 0, 0),
    (0, -1, 0, 0),
)

MAT_I: Mat4 = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def mat_mul(x: Mat4, y: Mat4) -> Mat4:
    cols = tuple(zip(*y))
    return tuple([tuple([r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3 for c0, c1, c2, c3 in cols])
                  for r0, r1, r2, r3 in x])


def mat_neg(x: Mat4) -> Mat4:
    return tuple(tuple(-v for v in row) for row in x)


def mat_pow(x: Mat4, n: int) -> Mat4:
    out = MAT_I
    base = x
    while n:
        if n & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        n >>= 1
    return out



# ---------------------------------------------------------------------------
# Determinants of sparse integer matrices over Z/P.
# ---------------------------------------------------------------------------

# Mersenne primes 2^k - 1: the moduli of exact determinant checks.  A value
# whose absolute value is below P/2 is read back exactly from its residue.
MERSENNE_PRIMES: Tuple[int, ...] = tuple(
    (1 << k) - 1 for k in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423))


def prime_above(bound: int) -> int:
    """The smallest prime of MERSENNE_PRIMES above ``bound``; TooLarge when
    there is none."""
    for P in MERSENNE_PRIMES:
        if P > bound:
            return P
    raise TooLarge(f"no listed prime lies above {bound.bit_length()}-bit bound "
                   f"(the largest is 2^4423 - 1)")


def det_mod(rows: Sequence[Mapping[int, int]], P: int) -> int:
    """The determinant, in [0, P), of the n x n matrix whose row i holds
    rows[i][j] in column j (absent entries are 0), for a prime P.

    Gaussian elimination on the sparse rows, one column at a time in
    ascending order: the pivot of a column is the sparsest live row that
    holds it (the lower index on a tie), and it is subtracted from every
    other live row that holds the column.  The determinant is the product
    of the pivots times the sign of the permutation that sends each column
    to its pivot row, so it is the true determinant mod P, sign included."""
    n = len(rows)
    live: List[Dict[int, int]] = []
    holders: List[set] = [set() for _ in range(n)]  # column -> live rows holding it
    for i, row in enumerate(rows):
        r = {}
        for j, v in row.items():
            if not 0 <= j < n:
                raise AlgebraError(f"row {i} has column {j} outside 0..{n - 1}")
            v %= P
            if v:
                r[j] = v
                holders[j].add(i)
        live.append(r)
    det = 1
    pivot_of: List[int] = []
    for j in range(n):
        holding = holders[j]
        if not holding:
            return 0
        p = min(holding, key=lambda i: (len(live[i]), i))
        holding.discard(p)
        prow = live[p]
        pivot_of.append(p)
        pv = prow.pop(j)
        for k in prow:
            holders[k].discard(p)
        det = det * pv % P
        inv = pow(pv, -1, P)
        for i in holding:
            r = live[i]
            f = r.pop(j) * inv % P
            for k, v in prow.items():
                x = (r.get(k, 0) - f * v) % P
                if x:
                    if k not in r:
                        holders[k].add(i)
                    r[k] = x
                elif k in r:
                    del r[k]
                    holders[k].discard(i)
        holding.clear()
    # a permutation of n points with m cycles has sign (-1)^(n - m)
    seen = [False] * n
    flips = n
    for start in range(n):
        if not seen[start]:
            flips -= 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = pivot_of[j]
    return det if flips % 2 == 0 else -det % P


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """The determinant of the n x n integer matrix ``rows``, over the
    integers, by fraction-free elimination (Bareiss 1968).

    Step k turns every entry of the trailing rows into (pivot * entry -
    leading entry * pivot row's entry) / the previous pivot.  After it each
    such entry is a (k+1) x (k+1) minor of the matrix (Sylvester's
    identity), so every division is exact and the last pivot is the
    determinant.  A zero pivot is swapped with the first nonzero entry
    below it, each swap negating the result."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        i = next((i for i in range(k, n) if m[i][k]), None)
        if i is None:
            return 0
        if i != k:
            m[k], m[i] = m[i], m[k]
            sign = -sign
        top = m[k]
        piv = top[k]
        for row in m[k + 1:]:
            f = row[k]
            row[k + 1:] = [(piv * v - f * w) // prev for v, w in zip(row[k + 1:], top[k + 1:])]
        prev = piv
    return sign * prev
