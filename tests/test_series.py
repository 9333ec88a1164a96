import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lp_neg, mac_tilde
from hexdimer.algebra import AlgebraError, Series, lp_mul, pack, series_inv
from hexdimer import series
from hexdimer.cli import EQ3_MAX_ORDER
from hexdimer.series import (
    SeriesError, compare_box_vs_series, eq3_check, lmono, mac,
    z2z2_rhs,
)


# The dense route the sparse-factor product replaced, kept as a reference:
# every factor of M(a, z) is a full Series, the factors are multiplied with
# Series.__mul__, and the denominator is inverted with series_inv.

def _dense_mac(a, N, comb=math.comb):
    ((e, sign),) = a.items()
    out = Series.one(N)
    for n in range(1, N + 1):
        factor = Series.one(N)
        for k in range(1, N // n + 1):
            factor.coeffs[n * k] = {k * e: sign ** k * comb(n + k - 1, k)}
        out = out * factor
    return out


def _dense_mac_tilde(a, N, comb=math.comb):
    ((e, sign),) = a.items()
    return _dense_mac(a, N, comb) * _dense_mac({-e: sign}, N, comb)


def _dense_z2z2_rhs(N, comb=math.comb):
    q, r, s = lmono(1, 1, 0, 0), lmono(1, 0, 1, 0), lmono(1, 0, 0, 1)
    qr, qs, rs = lp_mul(q, r), lp_mul(q, s), lp_mul(r, s)
    qrs = lp_mul(qr, s)
    num = (_dense_mac(lmono(1), N, comb) ** 4 * _dense_mac_tilde(qr, N, comb)
           * _dense_mac_tilde(qs, N, comb) * _dense_mac_tilde(rs, N, comb))
    den = (_dense_mac_tilde(lp_neg(q), N, comb) * _dense_mac_tilde(lp_neg(r), N, comb)
           * _dense_mac_tilde(lp_neg(s), N, comb) * _dense_mac_tilde(lp_neg(qrs), N, comb))
    return num * series_inv(den)


def pp_counts_oracle(N):
    """Coefficients of prod (1-z^n)^(-n) via the sigma_2 recurrence:
    n*a_n = sum_k a_(n-k) * (sum of d^2 over d | k)."""
    sigma2 = [sum(d * d for d in range(1, k + 1) if k % d == 0)
              for k in range(N + 1)]
    a = [Fraction(1)]
    for n in range(1, N + 1):
        a.append(sum(a[n - k] * sigma2[k] for k in range(1, n + 1)) / n)
    assert all(x.denominator == 1 for x in a)
    return [int(x) for x in a]


def test_oracle_self_check():
    assert pp_counts_oracle(6) == [1, 1, 3, 6, 13, 24, 48]


def test_mac_counts_match_oracle():
    N = 12
    assert mac(1, N).specialize_signs(1, 1, 1) == pp_counts_oracle(N)


def test_mac_small():
    assert mac(1, 0).specialize_signs(1, 1, 1) == [1]
    a = lmono(1, 1, 0, 0)  # q
    m = mac(a, 1)
    assert m.coeffs[0] == {pack(0, 0, 0, 0): 1}
    assert m.coeffs[1] == {pack(0, 1, 0, 0): 1}


def test_mac_coefficients_weakly_increasing():
    vals = mac(1, 12).specialize_signs(1, 1, 1)
    assert all(x > 0 for x in vals)
    assert all(x <= y for x, y in zip(vals, vals[1:]))


def test_mac_rejects_non_monomials():
    with pytest.raises(SeriesError):
        mac(2, 3)
    with pytest.raises(SeriesError):
        mac({pack(0, 0, 0, 0): 1, pack(0, 1, 0, 0): 1}, 3)
    # r^(2^19) is a valid monomial, but its fourth power would overflow
    assert mac(lmono(1, 0, 2 ** 19, 0), 1).coeffs[1] == {pack(0, 0, 2 ** 19, 0): 1}
    with pytest.raises(AlgebraError):
        mac(lmono(1, 0, 2 ** 19, 0), 4)


def test_mac_tilde():
    a = lmono(1, 1, 1, 0)  # q*r
    m = mac_tilde(a, 1)
    assert m.coeffs[1] == {pack(0, 1, 1, 0): 1, pack(0, -1, -1, 0): 1}
    assert mac_tilde(1, 8) == mac(1, 8) ** 2
    # z^2 coefficient two ways: truncated product vs direct expansion of
    # (1 + az + a^2 z^2 + 2az^2)(1 + z/a + z^2/a^2 + 2z^2/a)
    m2 = mac_tilde(a, 2)
    direct = {pack(0, 2, 2, 0): 1, pack(0, 1, 1, 0): 2, pack(0, 0, 0, 0): 1,
              pack(0, -1, -1, 0): 2, pack(0, -2, -2, 0): 1}
    assert m2.coeffs[2] == direct


def test_z2z2_rhs_low_order():
    ser = z2z2_rhs(3)
    assert ser.coeffs[0] == {pack(0, 0, 0, 0): 1}
    # the Q^1 (qrs)^-1 term is the single one-box diagram of color P
    assert ser.coeffs[1].get(pack(0, -1, -1, -1)) == 1


def test_sparse_products_match_the_dense_route():
    for N in range(9):
        assert z2z2_rhs(N) == _dense_z2z2_rhs(N)
    for a in (lmono(1), lmono(-1), lmono(1, 2, -1, 0), lmono(-1, 0, 1, -3)):
        assert mac(a, 7) == _dense_mac(a, 7)
        assert mac_tilde(a, 7) == _dense_mac_tilde(a, 7)


def _expansion(a, m, n, N):
    """(1 - a z^n)^(-m*n) truncated at z^N, as a power of the geometric
    series 1/(1 - a z^n) for m > 0 and of the binomial 1 - a z^n for m < 0."""
    ((e, c),) = a.items()
    if m > 0:
        geo = [{d // n * e: c ** (d // n)} if d % n == 0 else {} for d in range(N + 1)]
        return Series(geo, N) ** (m * n)
    return Series([{0: 1}] + [{}] * (n - 1) + [{e: -c}], N) ** (-m * n)


lmonos = st.builds(lmono, st.sampled_from([1, -1]), *[st.integers(-2, 2)] * 3)
factor_lists = st.lists(st.tuples(lmonos, st.sampled_from([-3, -2, -1, 1, 2, 3])),
                        max_size=3)


@given(st.integers(0, 6), factor_lists)
@settings(max_examples=60, deadline=None)
def test_product_matches_schoolbook(N, factors):
    want = Series.one(N)
    for a, m in factors:
        for n in range(1, N + 1):
            want = want * _expansion(a, m, n, N)
    assert series._product(N, factors) == want


def test_product_refuses_a_factor_key_out_of_range_before_any_work(monkeypatch):
    # the N-th power of each factor key must fit [-2**20, 2**20)
    r_low, r_high = lmono(1, 0, -2 ** 19, 0), lmono(-1, 0, 2 ** 19, 0)
    assert mac(r_low, 2).coeffs[2][pack(0, 0, -2 ** 20, 0)] == 1
    calls = []
    monkeypatch.setattr(series, "_coefficients", lambda M, top: calls.append(M) or [])
    for N, factors in ((3, [(1, 4), (r_low, 1)]), (2, [(1, 4), (r_high, -1)])):
        with pytest.raises(AlgebraError):
            series._product(N, factors)
    assert calls == []


def test_z2z2_rhs_internal_consistency():
    # at q=r=s=1 the product collapses to mac(1)^10 / mac(-1)^8
    N = 6
    lhs = z2z2_rhs(N).specialize_signs(1, 1, 1)
    rhs = (mac(1, N) ** 10 * series_inv(mac(-1, N) ** 8))
    assert lhs == rhs.specialize_signs(1, 1, 1)


def test_eq3():
    for N in (0, 10, 12):
        report = eq3_check(N)
        assert report["match"] and report["lhs"] == report["rhs"]
    # the right side is M(1,Q)^2, here against the sigma_2 recurrence
    counts = pp_counts_oracle(6)
    square = [sum(counts[i] * counts[n - i] for i in range(n + 1)) for n in range(7)]
    assert eq3_check(6) == {"lhs": square, "rhs": square, "match": True}


def test_eq3_fails_on_one_wrong_infinite_binomial(monkeypatch):
    # C(2, 2), the z^2 coefficient of 1/(1 - a z), read as 2.  In the dense
    # route every factor specializes to a power of the same wrong M(1), so
    # its eq3 (M^10 / M^8 against M^2) still passes; the right side of
    # eq3_check inverts a finite product and shares no infinite expansion
    N = 6

    def wrong(n, k):
        return math.comb(n, k) + ((n, k) == (2, 2))

    lhs = _dense_z2z2_rhs(N, wrong).specialize_signs(-1, -1, -1)
    assert lhs == (_dense_mac(lmono(1), N, wrong) ** 2).specialize_signs(1, 1, 1)
    real = series._coefficients

    def one_wrong(M, top):
        cs = real(M, top)
        if M == 1 and top >= 2:
            cs[1] += 1
        return cs

    monkeypatch.setattr(series, "_coefficients", one_wrong)
    assert eq3_check(N)["match"] is False


def test_eq3_left_side_is_the_four_variable_product_at_minus_one():
    # eq3 takes each factor at -1 before multiplying; the old route expands
    # the whole (q, r, s) product first and evaluates it after
    for N in range(15):
        assert eq3_check(N)["lhs"] == z2z2_rhs(N).specialize_signs(-1, -1, -1)


def test_eq3_at_its_top_order_is_the_squared_recurrence():
    N = EQ3_MAX_ORDER
    counts = pp_counts_oracle(N)
    square = [sum(counts[i] * counts[n - i] for i in range(n + 1)) for n in range(N + 1)]
    assert eq3_check(N) == {"lhs": square, "rhs": square, "match": True}


def test_eq3_negative_control(monkeypatch):
    # the check itself fails when any one factor's monomial is negated, or
    # when one extra M~(-q) pair joins the product
    N = 6
    factors = series.Z2Z2_FACTORS
    assert len(factors) == 15
    for i, (a, m) in enumerate(factors):
        ((e, c),) = a.items()
        monkeypatch.setattr(series, "Z2Z2_FACTORS",
                            factors[:i] + [({e: -c}, m)] + factors[i + 1:])
        assert eq3_check(N)["match"] is False, i
    q = lmono(-1, 1, 0, 0)
    monkeypatch.setattr(series, "Z2Z2_FACTORS", factors + [(q, 1), (series._lmono_inv(q), 1)])
    report = eq3_check(N)
    assert report["match"] is False
    assert report["lhs"] == z2z2_rhs(N).specialize_signs(-1, -1, -1)


def test_compare_mono_boxes():
    r = compare_box_vs_series(1, "mono")
    assert r["match"] and r["box"] == [1, 1]
    r = compare_box_vs_series(6, "mono")
    assert r["match"] and r["box"] == [1, 1, 3, 6, 13, 24, 48]


def test_compare_z2z2_boxes():
    for n in (1, 2, 3, 4, 8, 10):
        r = compare_box_vs_series(n, "z2z2")
        assert r["match"], r["first_mismatch"]


def test_compare_rejects_bad_scheme():
    with pytest.raises(SeriesError):
        compare_box_vs_series(2, "nope")


def test_compare_detects_a_perturbed_series(monkeypatch):
    # one extra factor on the series side must show as a mismatch, reported
    # at the first differing term in the scheme's format
    N = 5
    q = lmono(1, 1, 0, 0)
    monkeypatch.setattr(series, "z2z2_rhs",
                        lambda n: z2z2_rhs(n) * mac_tilde(lp_neg(q), n))
    r = compare_box_vs_series(N, "z2z2")
    assert r["match"] is False
    # the factor adds -Q/q: the one diagram p*r*s (heights [[2, 1]]) is lost
    assert r["first_mismatch"] == {"term": {"Q": 1, "qrs": [-1, 0, 0]},
                                   "box": 1, "series": 0}
    monkeypatch.undo()
    monkeypatch.setattr(series, "mac", lambda a, n: mac(a, n) * mac(a, n))
    r = compare_box_vs_series(N, "mono")
    assert r["match"] is False
    assert r["first_mismatch"] == {"term": "p^1", "box": 1, "series": 2}
