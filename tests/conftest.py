"""Oracles shared by several test files."""

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Iterable, Mapping, Tuple

from hexdimer.algebra import Monomial
from hexdimer.mesh import BoxDims, Face, build_mesh, positions


def box_count_oracle(a, b, c):
    """Product formula for the number of diagrams in a box, exact rationals."""
    n = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                n *= Fraction(i + j + k - 1, i + j + k - 2)
    assert n.denominator == 1
    return int(n)


# -- the face-level 2-factor, an oracle for hexdimer.overlay.TwoFactor ----------


@dataclass(frozen=True)
class FaceTwoFactor:
    """Doubled edges plus disjoint even loops; every vertex has degree two
    with multiplicity.  Loops are stored counterclockwise and rotated to
    their lexicographically least edge, so equal 2-factors compare equal."""

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
    mesh = build_mesh(lam.dims)
    faces = list(mesh.edges)
    return FaceTwoFactor(lam.dims, frozenset(faces[i] for i in positions(lam.doubled)),
                         tuple(tuple(faces[e] for e in loop) for loop in lam.loops))


def two_factor_weight(lam: FaceTwoFactor, weights: Mapping[Face, Monomial]) -> Monomial:
    """Product of edge weights with multiplicity (doubled edges squared)."""
    w = Monomial(1)
    for f in lam.edges_with_multiplicity():
        w = w * weights[f]
    return w
