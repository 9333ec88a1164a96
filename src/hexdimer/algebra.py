"""Exact arithmetic kernel: signed Laurent monomials, sparse integer polynomials,
truncated power series with Laurent coefficients, and 4x4 integer matrices.

Polynomials live in one of two variable frames:

* ``('t', 'q', 'r', 's')`` -- used for edge weightings, where ``p = t**3``;
* ``('p', 'q', 'r', 's')`` -- used for diagram weights and partition functions.

``poly_collapse_t`` converts from the first frame to the second.  All
coefficients are Python ints (arbitrary precision); there is no floating
point anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

Exp = Tuple[int, int, int, int]

T_VARS = ("t", "q", "r", "s")
P_VARS = ("p", "q", "r", "s")


class AlgebraError(Exception):
    pass


class NonDivisibleExponent(AlgebraError):
    """A t-exponent was not a multiple of 3 where p = t**3 was required."""


class NonUnitConstantTerm(AlgebraError):
    """Series inversion requires constant coefficient exactly 1."""


@dataclass(frozen=True)
class Monomial:
    """A signed monomial c * v0^e0 v1^e1 v2^e2 v3^e3 (exponents may be negative)."""

    coeff: int
    exp: Exp = (0, 0, 0, 0)

    def __post_init__(self):
        if self.coeff == 0 and self.exp != (0, 0, 0, 0):
            object.__setattr__(self, "exp", (0, 0, 0, 0))

    def __mul__(self, other: "Monomial") -> "Monomial":
        if self.coeff == 0 or other.coeff == 0:
            return ZERO
        return Monomial(self.coeff * other.coeff,
                        tuple(a + b for a, b in zip(self.exp, other.exp)))

    def __pow__(self, n: int) -> "Monomial":
        if n == 0:
            return ONE
        return Monomial(self.coeff ** n, tuple(e * n for e in self.exp))


ZERO = Monomial(0)
ONE = Monomial(1)


def mono_t(exp_t: int, coeff: int = 1) -> Monomial:
    return Monomial(coeff, (exp_t, 0, 0, 0))


class Poly:
    """Sparse polynomial with integer coefficients over a fixed 4-variable frame.

    ``terms`` maps exponent 4-vectors to nonzero coefficients.  An optional
    ``cap`` discards terms whose total degree (in p,q,r,s, counting t^3 as one
    unit of p) exceeds it; products inherit the smaller cap.
    """

    __slots__ = ("vars", "terms", "cap")

    def __init__(self, terms: Optional[Mapping[Exp, int]] = None,
                 vars: Tuple[str, str, str, str] = P_VARS,
                 cap: Optional[int] = None):
        self.vars = tuple(vars)
        self.cap = cap
        tt: Dict[Exp, int] = {}
        if terms:
            for e, c in terms.items():
                if c == 0:
                    continue
                e = tuple(e)
                if cap is not None and self._total_degree(e) > cap:
                    continue
                tt[e] = tt.get(e, 0) + c
                if tt[e] == 0:
                    del tt[e]
        self.terms = tt

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars=P_VARS, cap=None) -> "Poly":
        return cls({}, vars=vars, cap=cap)

    @classmethod
    def one(cls, vars=P_VARS, cap=None) -> "Poly":
        return cls({(0, 0, 0, 0): 1}, vars=vars, cap=cap)

    @classmethod
    def from_monomial(cls, m: Monomial, vars=P_VARS, cap=None) -> "Poly":
        return cls({m.exp: m.coeff}, vars=vars, cap=cap)

    # -- degree bookkeeping -------------------------------------------

    def _total_degree(self, e: Exp) -> int:
        if self.vars[0] == "t":
            if e[0] % 3 != 0:
                raise NonDivisibleExponent(
                    f"t-exponent {e[0]} not divisible by 3 under a degree cap")
            return e[0] // 3 + e[1] + e[2] + e[3]
        return e[0] + e[1] + e[2] + e[3]

    # -- ring operations ----------------------------------------------

    def _merged_cap(self, other: "Poly") -> Optional[int]:
        if self.cap is None:
            return other.cap
        if other.cap is None:
            return self.cap
        return min(self.cap, other.cap)

    def _check_vars(self, other: "Poly"):
        if self.vars != other.vars:
            raise AlgebraError(f"variable frames differ: {self.vars} vs {other.vars}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_vars(other)
        tt = dict(self.terms)
        for e, c in other.terms.items():
            nc = tt.get(e, 0) + c
            if nc:
                tt[e] = nc
            else:
                tt.pop(e, None)
        return Poly(tt, vars=self.vars, cap=self._merged_cap(other))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly({e: -c for e, c in self.terms.items()}, vars=self.vars, cap=self.cap)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Monomial):
            other = Poly.from_monomial(other, vars=self.vars)
        self._check_vars(other)
        cap = self._merged_cap(other)
        tt: Dict[Exp, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                nc = tt.get(e, 0) + c1 * c2
                if nc:
                    tt[e] = nc
                else:
                    del tt[e]
        return Poly(tt, vars=self.vars, cap=cap)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def constant_value(self) -> int:
        """The value of a constant polynomial (zero or a pure number)."""
        if not self.terms:
            return 0
        if set(self.terms) != {(0, 0, 0, 0)}:
            raise AlgebraError("polynomial is not constant")
        return self.terms[(0, 0, 0, 0)]

    # -- serialization / display ---------------------------------------

    def sorted_terms(self) -> List[Tuple[Exp, int]]:
        return sorted(self.terms.items())

    def to_json_obj(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [{"coeff": c, "exp": list(e)} for e, c in self.sorted_terms()],
        }

    @classmethod
    def from_json_obj(cls, obj: dict, cap=None) -> "Poly":
        return cls({tuple(t["exp"]): t["coeff"] for t in obj["terms"]},
                   vars=tuple(obj["vars"]), cap=cap)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, k in zip(self.vars, e):
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


def _parse_assignment_value(v, vars) -> Tuple[int, Optional[int]]:
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
    if s not in vars:
        raise AlgebraError(f"cannot substitute into variable {v!r} (frame {vars})")
    return sign, vars.index(s)


def poly_specialize(x: Poly, assignment: Mapping[str, object]) -> Poly:
    """Substitute each variable by +-1 or a signed variable of the same frame.

    ``assignment`` must cover all four variables; the value ``"keep"`` leaves
    a variable untouched.  Substitution is exact and multiplicative.
    """
    for name in x.vars:
        if name not in assignment:
            raise AlgebraError(f"assignment missing variable {name!r}")
    plan = [_parse_assignment_value(assignment[name], x.vars) for name in x.vars]
    tt: Dict[Exp, int] = {}
    for e, c in x.terms.items():
        ne = [0, 0, 0, 0]
        sign = 1
        for i, k in enumerate(e):
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
        key = tuple(ne)
        nc = tt.get(key, 0) + sign * c
        if nc:
            tt[key] = nc
        else:
            del tt[key]
    return Poly(tt, vars=x.vars, cap=x.cap)


def poly_collapse_t(x: Poly) -> Poly:
    """Convert a (t,q,r,s)-frame polynomial to the (p,q,r,s) frame via p = t^3."""
    if x.vars[0] != "t":
        raise AlgebraError("poly_collapse_t expects the (t,q,r,s) frame")
    tt: Dict[Exp, int] = {}
    for e, c in x.terms.items():
        if e[0] % 3 != 0:
            raise NonDivisibleExponent(f"t-exponent {e[0]} is not a multiple of 3")
        tt[(e[0] // 3, e[1], e[2], e[3])] = c
    return Poly(tt, vars=P_VARS, cap=x.cap)


# ---------------------------------------------------------------------------
# Laurent polynomials in (q, r, s): the coefficient ring for Series.
# Represented as plain dicts {lexp(eq, er, es): coeff}; the lp_* helpers
# return new dicts, the Series kernel accumulates in place.
# ---------------------------------------------------------------------------

LExp = Tuple[int, int, int]
LPoly = Dict[int, int]

# Each exponent gets a 21-bit signed field; |e| < 2**20 keeps them apart.
_LBITS = 21
_LHALF = 1 << (_LBITS - 1)
_LMASK = (1 << _LBITS) - 1


def lexp(eq: int, er: int, es: int) -> int:
    """Pack q^eq r^er s^es into one int key.  The map is additive, so a
    product of monomials is a sum of keys, k*e is the k-th power and -e the
    inverse, as long as every exponent stays below 2**20 in absolute value."""
    if not (-_LHALF < eq < _LHALF and -_LHALF < er < _LHALF and -_LHALF < es < _LHALF):
        raise AlgebraError(f"Laurent exponent {(eq, er, es)} outside +-(2**20 - 1)")
    return (eq << (2 * _LBITS)) + (er << _LBITS) + es


def lexp_split(e: int) -> LExp:
    """The (eq, er, es) that ``lexp`` packed into ``e``."""
    es = ((e + _LHALF) & _LMASK) - _LHALF
    e = (e - es) >> _LBITS
    er = ((e + _LHALF) & _LMASK) - _LHALF
    return (e - er) >> _LBITS, er, es


LP_ONE: LPoly = {0: 1}


def lp_neg(x: LPoly) -> LPoly:
    return {e: -c for e, c in x.items()}


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
    acc: LPoly = {}
    _lp_mul_into(acc, x, y)
    return _drop_zeros(acc)


def lp_eval_signs(x: LPoly, sq: int = -1, sr: int = -1, ss: int = -1) -> int:
    """Evaluate at q,r,s in {+1,-1}.  Negative exponents are fine: (-1)^-k = (-1)^k."""
    total = 0
    for e, c in x.items():
        eq, er, es = lexp_split(e)
        sign = (sq ** (eq & 1)) * (sr ** (er & 1)) * (ss ** (es & 1))
        total += c * sign
    return total


class Series:
    """Truncated power series in one grading variable with LPoly coefficients.

    ``coeffs[n]`` is the Laurent polynomial in (q,r,s) multiplying grading**n;
    the sequence always has length ``order + 1``.  The coefficient dicts are
    taken as they are, not copied: a Series never changes them.
    """

    __slots__ = ("grading", "order", "coeffs")

    def __init__(self, coeffs: Iterable[LPoly], order: int, grading: str = "z"):
        cs = list(coeffs)
        if len(cs) < order + 1:
            cs += [{} for _ in range(order + 1 - len(cs))]
        self.coeffs: List[LPoly] = cs[: order + 1]
        self.order = order
        self.grading = grading

    @classmethod
    def one(cls, order: int, grading: str = "z") -> "Series":
        return cls([dict(LP_ONE)], order, grading)

    def __mul__(self, other: "Series") -> "Series":
        if self.grading != other.grading:
            raise AlgebraError(f"gradings differ: {self.grading} vs {other.grading}")
        n = min(self.order, other.order)
        x, y = self.coeffs, other.coeffs
        out: List[LPoly] = []
        for k in range(n + 1):
            acc: LPoly = {}
            for i in range(k + 1):
                if x[i] and y[k - i]:
                    _lp_mul_into(acc, x[i], y[k - i])
            out.append(_drop_zeros(acc))
        return Series(out, n, self.grading)

    def __pow__(self, k: int) -> "Series":
        out = Series.one(self.order, self.grading)
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
                and self.grading == other.grading and self.coeffs == other.coeffs)

    def specialize_signs(self, sq=-1, sr=-1, ss=-1) -> List[int]:
        """Coefficientwise evaluation at q,r,s -> +-1; returns plain integers."""
        return [lp_eval_signs(c, sq, sr, ss) for c in self.coeffs]

    def to_json_obj(self) -> dict:
        return {
            "vars": ["q", "r", "s"],
            "grading": self.grading,
            "order": self.order,
            "coeffs": [
                [{"coeff": c, "exp": list(e)}
                 for e, c in sorted((lexp_split(e), c) for e, c in cc.items())]
                for cc in self.coeffs
            ],
        }

    def __repr__(self):
        return f"Series({self.grading}, order={self.order})"


def series_inv(x: Series) -> Series:
    """Multiplicative inverse; the constant coefficient must be exactly 1."""
    if x.coeffs[0] != LP_ONE:
        raise NonUnitConstantTerm(f"constant coefficient is {x.coeffs[0]!r}, need 1")
    n = x.order
    inv: List[LPoly] = [dict(LP_ONE)]
    for k in range(1, n + 1):
        acc: LPoly = {}
        for i in range(1, k + 1):
            if x.coeffs[i] and inv[k - i]:
                _lp_mul_into(acc, x.coeffs[i], inv[k - i])
        inv.append({e: -c for e, c in acc.items() if c})
    return Series(inv, n, x.grading)


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
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(4)) for j in range(4))
        for i in range(4)
    )


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
