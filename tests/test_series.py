from fractions import Fraction

import pytest

from hexdimer.algebra import AlgebraError, lp_neg, pack, series_inv
from hexdimer.mesh import BoxDims
from hexdimer.series import (
    DegreeTooLarge, SeriesError, compare_box_vs_series, eq3_check, lmono,
    mac, mac_tilde, z2z2_rhs,
)


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


def test_z2z2_rhs_internal_consistency():
    # at q=r=s=1 the product collapses to mac(1)^10 / mac(-1)^8
    N = 6
    lhs = z2z2_rhs(N).specialize_signs(1, 1, 1)
    rhs = (mac(1, N) ** 10 * series_inv(mac(-1, N) ** 8))
    assert lhs == rhs.specialize_signs(1, 1, 1)


def test_eq3():
    assert eq3_check(0)
    assert eq3_check(10)
    assert eq3_check(12)


def test_eq3_negative_control():
    # dropping a factor from the product breaks the identity
    N = 6
    q = lmono(1, 1, 0, 0)
    perturbed = z2z2_rhs(N) * mac_tilde(lp_neg(q), N)
    lhs = perturbed.specialize_signs(-1, -1, -1)
    rhs = (mac(1, N) ** 2).specialize_signs(1, 1, 1)
    assert lhs != rhs


def test_compare_mono_boxes():
    r = compare_box_vs_series(BoxDims(1, 1, 1), 1, "mono")
    assert r["match"] and r["box"] == [1, 1]
    r = compare_box_vs_series(BoxDims(6, 6, 6), 6, "mono")
    assert r["match"] and r["box"] == [1, 1, 3, 6, 13, 24, 48]


def test_compare_z2z2_boxes():
    for n in (1, 2, 3, 4):
        r = compare_box_vs_series(BoxDims(n, n, n), n, "z2z2")
        assert r["match"], r["first_mismatch"]


def test_compare_rejects_unstable_degrees():
    with pytest.raises(DegreeTooLarge):
        compare_box_vs_series(BoxDims(2, 2, 2), 3, "mono")
    with pytest.raises(SeriesError):
        compare_box_vs_series(BoxDims(2, 2, 2), 2, "nope")


def test_series_json():
    obj = mac(1, 2).to_json_obj()
    assert obj["order"] == 2
    assert obj["coeffs"][2] == [{"coeff": 3, "exp": [0, 0, 0]}]
    obj = mac_tilde(lmono(-1, 1, 0, -1), 1).to_json_obj()
    assert obj["coeffs"][1] == [{"coeff": -1, "exp": [-1, 0, 1]},
                                {"coeff": -1, "exp": [1, 0, -1]}]
    ser = z2z2_rhs(3)
    for cc, terms in zip(ser.coeffs, ser.to_json_obj()["coeffs"]):
        exps = [tuple(t["exp"]) for t in terms]
        assert exps == sorted(exps)
        assert {pack(0, *e): t["coeff"] for e, t in zip(exps, terms)} == cc
