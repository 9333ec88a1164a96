"""Oracles shared by several test files."""

from fractions import Fraction


def box_count_oracle(a, b, c):
    """Product formula for the number of diagrams in a box, exact rationals."""
    n = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                n *= Fraction(i + j + k - 1, i + j + k - 2)
    assert n.denominator == 1
    return int(n)
