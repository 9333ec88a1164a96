"""Independent oracles for the benchmark: MacMahon's box formula computed by
exact integer polynomial division, and plane-partition facts read straight
off a heights matrix.  Nothing here imports hexdimer, so a defect in the
program cannot make both sides of a check agree."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple


def _times_one_minus(poly: List[int], e: int) -> List[int]:
    """poly * (1 - p^e), coefficients listed from degree 0."""
    out = poly + [0] * e
    for n, c in enumerate(poly):
        out[n + e] -= c
    return out


@lru_cache(maxsize=None)
def macmahon(a: int, b: int, c: int) -> Tuple[int, ...]:
    """Coefficients of prod_{i,j,k} (1 - p^(i+j+k-1)) / (1 - p^(i+j+k-2)),
    the generating function of plane partitions in an a x b x c box by
    number of boxes."""
    num, den = [1], [1]
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                num = _times_one_minus(num, i + j + k - 1)
                den = _times_one_minus(den, i + j + k - 2)
    deg = len(num) - len(den)
    quot = [0] * (deg + 1)
    for n in range(deg + 1):  # den[0] == 1, so long division is exact in Z
        quot[n] = num[n] - sum(den[k] * quot[n - k]
                               for k in range(1, min(n, len(den) - 1) + 1))
    if _convolve(quot, den) != num:
        raise ArithmeticError(f"box product for {(a, b, c)} is not a polynomial")
    if deg != a * b * c:
        raise ArithmeticError(f"box product for {(a, b, c)} has degree {deg}")
    return tuple(quot)


def box_count(a: int, b: int, c: int) -> int:
    """Number of plane partitions in the box: the product at p = 1, evaluated
    factor by factor as rationals (no polynomial arithmetic)."""
    total = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                total *= Fraction(i + j + k - 1, i + j + k - 2)
    if total.denominator != 1:
        raise ArithmeticError("box count is not an integer")
    return int(total)


def _convolve(x: Sequence[int], y: Sequence[int]) -> List[int]:
    out = [0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                out[i + j] += xi * yj
    return out


def theorem_rhs(a: int, b: int, c: int) -> List[int]:
    """(Z^{a,b,c}(-p))^2 from the box formula."""
    z = [(-1) ** n * m for n, m in enumerate(macmahon(a, b, c))]
    return _convolve(z, z)


def parse_univariate(text: str) -> List[int]:
    """Coefficients of a polynomial in p printed as '1 - 2*p + 7*p^2 ...'.
    Raises ValueError on any other variable or syntax."""
    coeffs: dict = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        if "*" in term:
            num, var = term.split("*", 1)
            coeff = int(num)
        elif term.startswith("p"):
            coeff, var = 1, term
        else:
            coeff, var = int(term), ""
        if var == "":
            exp = 0
        elif var == "p":
            exp = 1
        elif var.startswith("p^"):
            exp = int(var[2:])
        else:
            raise ValueError(f"unexpected factor {var!r}")
        if exp in coeffs:
            raise ValueError(f"repeated power p^{exp}")
        coeffs[exp] = sign * coeff
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return out


def flippable_count(heights: Sequence[Sequence[int]], c: int) -> int:
    """Boxes that can be removed plus boxes that can be added: each is one
    hexagon of the tiling around which the matching alternates."""
    a, b = len(heights), len(heights[0])
    n = 0
    for i in range(a):
        for j in range(b):
            h = heights[i][j]
            if h > 0 and (i + 1 == a or heights[i + 1][j] < h) \
                    and (j + 1 == b or heights[i][j + 1] < h):
                n += 1
            if h < c and (i == 0 or heights[i - 1][j] > h) \
                    and (j == 0 or heights[i][j - 1] > h):
                n += 1
    return n


def one_box_apart(h1: Sequence[Sequence[int]], h2: Sequence[Sequence[int]]) -> bool:
    """Do two heights matrices differ by exactly one box?"""
    diffs = [y - x for r1, r2 in zip(h1, h2) for x, y in zip(r1, r2) if x != y]
    return len(diffs) == 1 and abs(diffs[0]) == 1
