import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexdimer.algebra import (
    MAT_I, MAT_L, MAT_R, Monomial, NonDivisibleExponent, NonUnitConstantTerm,
    P_VARS, Poly, Series, T_VARS, AlgebraError, lexp, lexp_split, lp_eval_signs,
    lp_mul, mat_mul, mat_neg, mat_pow, mat_word, mono_t, poly_collapse_t,
    poly_specialize, series_inv,
)

exps = st.tuples(*[st.integers(0, 5)] * 4)
coeffs = st.integers(-9, 9)
polys = st.dictionaries(exps, coeffs, max_size=6).map(lambda d: Poly(d))


def test_monomial_mul_and_zero():
    m = Monomial(2, (1, 0, 3, 0)) * Monomial(-1, (0, 2, 0, 0))
    assert m == Monomial(-2, (1, 2, 3, 0))
    assert Monomial(0, (5, 5, 5, 5)) == Monomial(0)
    assert Monomial(3, (1, 1, 0, 0)) ** 2 == Monomial(9, (2, 2, 0, 0))


def test_poly_str():
    p = Poly({(1, 0, 0, 0): 1, (0, 0, 0, 0): 1, (1, 1, 0, 0): 1})
    assert str(p) == "1 + p + p*q"
    assert str(Poly({(2, 0, 0, 0): 1, (1, 0, 0, 0): -2, (0, 0, 0, 0): 1})) == "1 - 2*p + p^2"
    assert str(Poly.zero()) == "0"


def test_poly_json_roundtrip():
    p = Poly({(1, 2, 0, 0): -3, (0, 0, 0, 1): 7})
    assert Poly.from_json_obj(p.to_json_obj()) == p


def test_variable_frames_must_match():
    with pytest.raises(AlgebraError):
        Poly.one(vars=T_VARS) + Poly.one(vars=P_VARS)


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_laws(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x - x == Poly.zero()


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_specialize_is_multiplicative(x, y):
    assignment = {"p": "keep", "q": -1, "r": -1, "s": 1}
    lhs = poly_specialize(x * y, assignment)
    rhs = poly_specialize(x, assignment) * poly_specialize(y, assignment)
    assert lhs == rhs


def test_specialize_to_other_variable():
    p = Poly({(1, 1, 0, 0): 1})  # p*q
    out = poly_specialize(p, {"p": "-p", "q": "p", "r": 1, "s": 1})
    assert out == Poly({(2, 0, 0, 0): -1})


def test_collapse_t():
    p = Poly({(6, 1, 0, 0): 2}, vars=T_VARS)
    assert poly_collapse_t(p) == Poly({(2, 1, 0, 0): 2})
    with pytest.raises(NonDivisibleExponent):
        poly_collapse_t(Poly({(4, 0, 0, 0): 1}, vars=T_VARS))


def test_cap_truncates_products():
    x = Poly({(1, 0, 0, 0): 1, (0, 0, 0, 0): 1}, cap=2)
    cube = x * x * x
    assert cube == Poly({(0, 0, 0, 0): 1, (1, 0, 0, 0): 3, (2, 0, 0, 0): 3})
    t = Poly({(3, 0, 0, 0): 1}, vars=T_VARS, cap=2)  # t^3 counts as one p
    assert (t * t).terms == {(6, 0, 0, 0): 1}
    assert (t * t * t).terms == {}  # t^9 exceeds the cap


def test_laurent_helpers():
    x = {lexp(1, 0, 0): 1, lexp(-1, 0, 0): 1}
    assert lp_mul(x, x) == {lexp(2, 0, 0): 1, lexp(0, 0, 0): 2, lexp(-2, 0, 0): 1}
    assert lp_eval_signs(x, -1, 1, 1) == -2
    assert lp_eval_signs({lexp(-3, 2, 1): 5}, -1, -1, -1) == 5  # (-1)^-3 * (-1)^1


def test_lexp_packing_and_range_guard():
    top = 2 ** 20 - 1
    for e in [(0, 0, 0), (1, -1, 0), (-3, 2, 1), (top, -top, top), (-top, top, -top)]:
        assert lexp_split(lexp(*e)) == e
        assert lexp_split(-lexp(*e)) == tuple(-x for x in e)
        assert lexp_split(3 * lexp(*e) - 2 * lexp(*e)) == e
    assert lexp(1, 2, 3) + lexp(-4, 5, -6) == lexp(-3, 7, -3)
    assert sorted([lexp(0, 1, -1), lexp(-1, 5, 5), lexp(0, 0, 9)]) == \
        [lexp(-1, 5, 5), lexp(0, 0, 9), lexp(0, 1, -1)]  # lexicographic order
    for e in [(2 ** 20, 0, 0), (0, -2 ** 20, 0), (0, 0, 2 ** 20), (0, 0, -2 ** 21)]:
        with pytest.raises(AlgebraError):
            lexp(*e)


def test_series_inverse():
    s = Series([{lexp(0, 0, 0): 1}, {lexp(0, 0, 0): -1}], order=6)
    inv = series_inv(s)
    assert (s * inv).specialize_signs(1, 1, 1) == [1, 0, 0, 0, 0, 0, 0]
    with pytest.raises(NonUnitConstantTerm):
        series_inv(Series([{lexp(0, 0, 0): 2}], order=3))


def test_series_pow_matches_repeated_mul(monkeypatch):
    s = Series([{lexp(0, 0, 0): 1}, {lexp(1, 0, 0): 1}], order=5)
    assert s ** 3 == s * s * s
    expected = Series.one(5)
    for k in range(6):
        assert s ** k == expected
        expected = expected * s
    # s**4 squares twice and multiplies once; a third squaring is wasted work
    products = []
    mul = Series.__mul__
    monkeypatch.setattr(Series, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    s ** 4
    assert len(products) == 3


def test_series_gradings_must_match():
    z, Q = Series.one(3, "z"), Series.one(3, "Q")
    with pytest.raises(AlgebraError):
        z * Q
    assert z != Q and z == Series.one(3, "z")


# Oracle for the packed kernel: series whose coefficients are dicts over
# (eq, er, es) tuples, multiplied term by term.

def _tuple_lp_mul(x, y):
    out = {}
    for (a, b, c), u in x.items():
        for (d, e, f), v in y.items():
            k = (a + d, b + e, c + f)
            out[k] = out.get(k, 0) + u * v
    return {k: c for k, c in out.items() if c}


def _tuple_series_mul(x, y):
    n = min(len(x), len(y))
    out = [{} for _ in range(n)]
    for i in range(n):
        for j in range(n - i):
            for k, c in _tuple_lp_mul(x[i], y[j]).items():
                out[i + j][k] = out[i + j].get(k, 0) + c
    return [{k: c for k, c in cc.items() if c} for cc in out]


def _tuple_series_inv(x):
    # 1/x = sum_m u^m with u = 1 - x, which has no constant term
    n = len(x)
    u = [{}] + [{k: -c for k, c in cc.items()} for cc in x[1:]]
    power = [{(0, 0, 0): 1}] + [{} for _ in range(n - 1)]
    total = [dict(cc) for cc in power]
    for _ in range(1, n):
        power = _tuple_series_mul(power, u)
        for i, cc in enumerate(power):
            for k, c in cc.items():
                total[i][k] = total[i].get(k, 0) + c
    return [{k: c for k, c in cc.items() if c} for cc in total]


def _packed(x):
    return [{lexp(*k): c for k, c in cc.items()} for cc in x]


def _unpacked(ser):
    return [{lexp_split(e): c for e, c in cc.items()} for cc in ser.coeffs]


laurent = st.dictionaries(st.tuples(*[st.integers(-2, 2)] * 3),
                          st.sampled_from([-2, -1, 1, 2]), max_size=4)
tuple_series = st.lists(laurent, min_size=1, max_size=6)


@given(tuple_series, tuple_series)
@settings(max_examples=80, deadline=None)
def test_series_mul_matches_schoolbook(x, y):
    got = Series(_packed(x), len(x) - 1) * Series(_packed(y), len(y) - 1)
    assert _unpacked(got) == _tuple_series_mul(x, y)


@given(tuple_series)
@settings(max_examples=80, deadline=None)
def test_series_inv_matches_schoolbook(x):
    x = [{(0, 0, 0): 1}] + x[1:]
    inv = series_inv(Series(_packed(x), len(x) - 1))
    assert _unpacked(inv) == _tuple_series_inv(x)
    one = [{(0, 0, 0): 1}] + [{} for _ in x[1:]]
    assert _tuple_series_mul(x, _unpacked(inv)) == one


def test_series_kernel_cancels_to_empty():
    # (1 + q z)(1 - q z) = 1 - q^2 z^2: the z coefficient cancels away
    a = Series([{lexp(0, 0, 0): 1}, {lexp(1, 0, 0): 1}], 2)
    b = Series([{lexp(0, 0, 0): 1}, {lexp(1, 0, 0): -1}], 2)
    assert (a * b).coeffs == [{lexp(0, 0, 0): 1}, {}, {lexp(2, 0, 0): -1}]
    assert series_inv(a).coeffs == [{lexp(0, 0, 0): 1}, {lexp(1, 0, 0): -1},
                                    {lexp(2, 0, 0): 1}]


def test_matrix_identities():
    assert mat_mul(MAT_L, MAT_R) == MAT_I
    assert mat_mul(MAT_R, MAT_L) == MAT_I
    assert mat_pow(MAT_L, 6) == mat_neg(MAT_I)
    assert mat_pow(MAT_L, 12) == MAT_I


@given(st.lists(st.sampled_from("LR"), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_word_reduces_to_net_left_turns(letters):
    word = "".join(letters)
    net = word.count("L") - word.count("R")
    expected = mat_pow(MAT_L, net % 12)  # L has order 12, R = L^-1
    assert mat_word(word) == expected


def test_net_six_words_give_minus_identity():
    for word in ("LLLLLL", "LRLLLLLLR" + "L" * 0, "LRRLLLLRLLRLLL"):
        if word.count("L") - word.count("R") == 6:
            assert mat_word(word) == mat_neg(MAT_I)
    assert mat_word("LRRLLLLRLLRLLL") == mat_neg(MAT_I)


def test_mat_word_rejects_garbage():
    with pytest.raises(AlgebraError):
        mat_word("")
    with pytest.raises(AlgebraError):
        mat_word("LXR")


def test_mono_t():
    assert mono_t(4, -1) == Monomial(-1, (4, 0, 0, 0))
