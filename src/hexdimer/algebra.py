"""Exact arithmetic kernel: signed monomials, sparse integer polynomials,
truncated power series with Laurent coefficients, and 4x4 integer matrices.

Polynomials are in ``('p', 'q', 'r', 's')``, the frame of diagram weights
and partition functions.  Edge weights are monomials whose first variable is
t, with ``p = t**3``.  Every exponent vector, of either kind and in the
Laurent coefficients of a series, is one int key made by ``pack`` and read
by ``split``.  All coefficients are Python ints (arbitrary precision); there
is no floating point anywhere in this module.
"""

from __future__ import annotations

from itertools import chain
from typing import Collection, Dict, Iterable, List, Mapping, Optional, Tuple

P_VARS = ("p", "q", "r", "s")


class AlgebraError(Exception):
    pass


class NonUnitConstantTerm(AlgebraError):
    """Series inversion requires constant coefficient exactly 1."""


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
    series_inv by n times each key of its input.  The sums left unchecked
    cannot wrap: a z_poly key adds at most a*b*c box keys whose fields are 0
    or 1 (each column weight is a checked Monomial product), and a box of
    2**20 boxes is far beyond the DP; the Q grading in compare_box_vs_series
    adds at most D times pack(1, 1, 1, 1).
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


def lp_neg(x: LPoly) -> LPoly:
    return {e: -c for e, c in x.items()}


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

    def __add__(self, other: "Poly") -> "Poly":
        tt = dict(self.terms)
        _add_into(tt, other.terms)
        return Poly(tt)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(lp_neg(self.terms))

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(lp_mul(self.terms, other.terms))

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def constant_value(self) -> int:
        """The value of a constant polynomial (zero or a pure number)."""
        if self.terms.keys() - {0}:
            raise AlgebraError("polynomial is not constant")
        return self.terms.get(0, 0)

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


def _parse_assignment_value(v) -> Tuple[int, Optional[int]]:
    """Normalize an assignment value to (sign, target_index or None)."""
    if v in (1, "1", "+1"):
        return 1, None
    if v in (-1, "-1"):
        return -1, None
    if v in (None, "keep"):
        return None, None  # type: ignore[return-value]
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
    """Substitute each variable by +-1 or a signed variable of p, q, r, s.

    ``assignment`` must cover all four variables; the value ``"keep"`` leaves
    a variable untouched.  Substitution is exact and multiplicative.
    """
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
            if sg == -1:
                if k % 2:
                    sign = -sign
            if tgt is not None:
                ne[tgt] += k
        key = pack(*ne)
        nc = tt.get(key, 0) + sign * c
        if nc:
            tt[key] = nc
        else:
            del tt[key]
    return Poly(tt)


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

    def to_json_obj(self) -> dict:
        return {
            "vars": ["q", "r", "s"],
            "order": self.order,
            "coeffs": [
                [{"coeff": c, "exp": list(split(e)[1:])} for e, c in sorted(cc.items())]
                for cc in self.coeffs
            ],
        }

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


def mat_word(word: str) -> Mat4:
    """Product of L/R matrices for a turn word, rightmost letter applied first."""
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
