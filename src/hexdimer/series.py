"""Truncated product formulas: the generalized product M(a,z), its symmetric
variant, the four-variable right-hand-side product graded by Q = p*q*r*s, and
exact comparison of boxed partition polynomials against these series."""

from __future__ import annotations

import math

from .algebra import LPoly, Series, degree, lp_mul, lp_neg, pack, series_inv, split
from .diagrams import MONO, Z2Z2, z_poly
from .mesh import BoxDims


class SeriesError(Exception):
    pass


class DegreeTooLarge(SeriesError):
    pass


def lmono(coeff: int, eq: int = 0, er: int = 0, es: int = 0) -> LPoly:
    """A signed Laurent monomial in (q, r, s), the argument type of mac."""
    if coeff not in (1, -1):
        raise SeriesError("argument coefficient must be +1 or -1")
    return {pack(0, eq, er, es): coeff}


def _lmono_inv(a: LPoly) -> LPoly:
    ((e, c),) = a.items()
    return {-e: c}


def _as_lmono(a) -> LPoly:
    if isinstance(a, int):
        return lmono(a)
    if len(a) != 1 or abs(next(iter(a.values()))) != 1:
        raise SeriesError(f"not a signed monomial: {a!r}")
    return dict(a)


def mac(a, N: int) -> Series:
    """prod_{n=1..N} (1 - a z^n)^(-n), truncated at z^N.

    Each factor is expanded in closed form as sum_k C(n+k-1, k) a^k z^(nk).
    """
    ((e, sign),) = _as_lmono(a).items()
    # a^N is the highest power below; pack raises if its exponents do not fit
    pack(*(N * x for x in split(e)))
    out = Series.one(N)
    for n in range(1, N + 1):
        factor = Series.one(N)
        for k in range(1, N // n + 1):
            factor.coeffs[n * k] = {k * e: sign ** k * math.comb(n + k - 1, k)}
        out = out * factor
    return out


def mac_tilde(a, N: int) -> Series:
    """M(a,z) * M(1/a,z)."""
    a = _as_lmono(a)
    return mac(a, N) * mac(_lmono_inv(a), N)


def z2z2_rhs(N: int) -> Series:
    """The four-variable product formula in the grading variable Q = p*q*r*s,
    with Laurent-polynomial coefficients in (q, r, s)."""
    q, r, s = lmono(1, 1, 0, 0), lmono(1, 0, 1, 0), lmono(1, 0, 0, 1)
    qr = lp_mul(q, r)
    qs = lp_mul(q, s)
    rs = lp_mul(r, s)
    qrs = lp_mul(qr, s)
    num = mac(1, N) ** 4 * mac_tilde(qr, N) * mac_tilde(qs, N) * mac_tilde(rs, N)
    den = (mac_tilde(lp_neg(q), N) * mac_tilde(lp_neg(r), N)
           * mac_tilde(lp_neg(s), N) * mac_tilde(lp_neg(qrs), N))
    return num * series_inv(den)


def eq3_check(N: int) -> bool:
    """Does the four-variable product at q,r,s -> -1 equal M(1,Q)^2?"""
    lhs = z2z2_rhs(N).specialize_signs(-1, -1, -1)
    rhs = (mac(1, N) ** 2).specialize_signs(1, 1, 1)
    return lhs == rhs


# -- boxed polynomial vs series -------------------------------------------------


def compare_box_vs_series(dims: BoxDims, D: int, scheme: str = "z2z2") -> dict:
    """Compare the boxed partition polynomial against the matching infinite
    product, coefficientwise through total degree D.

    Coefficients of total degree <= min(a,b,c) are stable under box growth
    (every diagram with that few boxes fits), so D above the smallest side is
    rejected.  Returns a report dict; 'match' is the verdict and
    'first_mismatch' names the first differing term, if any.
    """
    a, b, c = dims
    if D > min(a, b, c):
        raise DegreeTooLarge(f"degree {D} exceeds min side {min(a, b, c)}")
    report = {"dims": list(dims), "degree": D, "scheme": scheme}
    if scheme == "mono":
        zp = z_poly(dims, MONO, cap=D)
        box = [zp.terms.get(pack(n, 0, 0, 0), 0) for n in range(D + 1)]
        prod = mac(1, D).specialize_signs(1, 1, 1)
        report["box"] = box
        report["series"] = prod
        mismatches = [n for n in range(D + 1) if box[n] != prod[n]]
    elif scheme == "z2z2":
        # one key space for both: Q^n q^i r^j s^k = p^n q^(n+i) r^(n+j) s^(n+k)
        box = z_poly(dims, Z2Z2, cap=D).terms
        prod = {}
        for n, coeff in enumerate(z2z2_rhs(D).coeffs):
            for e, c in coeff.items():
                e += n * pack(1, 1, 1, 1)
                if degree(e) <= D:
                    prod[e] = c
        mismatches = sorted(k for k in box.keys() | prod.keys()
                            if box.get(k, 0) != prod.get(k, 0))
    else:
        raise SeriesError(f"unknown scheme {scheme!r} (want z2z2 or mono)")
    report["match"] = not mismatches
    report["first_mismatch"] = None
    if mismatches:
        k = mismatches[0]
        if scheme == "mono":
            report["first_mismatch"] = {
                "term": f"p^{k}", "box": box[k], "series": prod[k]}
        else:
            n, *qrs = split(k)
            report["first_mismatch"] = {
                "term": {"Q": n, "qrs": [e - n for e in qrs]},
                "box": box.get(k, 0), "series": prod.get(k, 0)}
    return report
