from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mat_word, poly_neg, poly_specialize
from hexdimer.algebra import (
    LIMIT, MAT_I, MAT_L, MAT_R, MERSENNE_PRIMES, Monomial, NonUnitConstantTerm,
    Poly, Series, AlgebraError, TooLarge, degree, det_int, det_mod, lp_eval_signs, lp_mul,
    mat_mul, mat_neg, mat_pow, mono_t, pack, prime_above,
    series_inv, split,
)

exps = st.tuples(*[st.integers(0, 5)] * 4).map(lambda e: pack(*e))
coeffs = st.integers(-9, 9)
polys = st.dictionaries(exps, coeffs, max_size=6).map(lambda d: Poly(d))


def lq(eq, er, es):
    """The key of a Laurent coefficient q^eq r^er s^es."""
    return pack(0, eq, er, es)


def test_monomial_mul_and_zero():
    m = Monomial(2, pack(1, 0, 3, 0)) * Monomial(-1, pack(0, 2, 0, 0))
    assert m == Monomial(-2, pack(1, 2, 3, 0))
    assert Monomial(0, pack(5, 5, 5, 5)) == Monomial(0)


def test_poly_str():
    p = Poly({pack(1, 0, 0, 0): 1, pack(0, 0, 0, 0): 1, pack(1, 1, 0, 0): 1})
    assert str(p) == "1 + p + p*q"
    assert str(Poly({pack(2, 0, 0, 0): 1, pack(1, 0, 0, 0): -2, pack(0, 0, 0, 0): 1})) \
        == "1 - 2*p + p^2"
    assert str(Poly()) == "0"


def test_poly_json():
    p = Poly({pack(1, 2, 0, 0): -3, pack(0, 0, 0, 1): 7, pack(0, -1, 0, 0): 1})
    assert p.to_json_obj() == {"vars": ["p", "q", "r", "s"], "terms": [
        {"coeff": 1, "exp": [0, -1, 0, 0]}, {"coeff": 7, "exp": [0, 0, 0, 1]},
        {"coeff": -3, "exp": [1, 2, 0, 0]}]}


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_laws(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x + poly_neg(x) == Poly()


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_specialize_is_multiplicative(x, y):
    assignment = {"p": "keep", "q": -1, "r": -1, "s": 1}
    lhs = poly_specialize(x * y, assignment)
    rhs = poly_specialize(x, assignment) * poly_specialize(y, assignment)
    assert lhs == rhs


def test_specialize_to_other_variable():
    p = Poly({pack(1, 1, 0, 0): 1})  # p*q
    out = poly_specialize(p, {"p": "-p", "q": "p", "r": 1, "s": 1})
    assert out == Poly({pack(2, 0, 0, 0): -1})


def test_laurent_helpers():
    x = {lq(1, 0, 0): 1, lq(-1, 0, 0): 1}
    assert lp_mul(x, x) == {lq(2, 0, 0): 1, lq(0, 0, 0): 2, lq(-2, 0, 0): 1}
    assert lp_eval_signs(x, -1, 1, 1) == -2
    assert lp_eval_signs({lq(-3, 2, 1): 5}, -1, -1, -1) == 5  # (-1)^-3 * (-1)^1


EDGES = (0, 1, -1, LIMIT - 1, -LIMIT, LIMIT // 2, -(LIMIT // 2))
vectors = st.tuples(*[st.one_of(st.sampled_from(EDGES),
                                st.integers(-LIMIT, LIMIT - 1))] * 4)


def test_pack_split_at_the_field_edges():
    assert LIMIT == 2 ** 20
    top, low = LIMIT - 1, -LIMIT
    for e in [(0, 0, 0, 0), (1, -1, 0, 2), (-3, 2, 1, 0), (top, low, top, low),
              (low, top, low, top), (top, top, top, top), (low, low, low, low)]:
        k = pack(*e)
        assert split(k) == e and degree(k) == sum(e)
        if low not in e:
            assert split(-k) == tuple(-x for x in e)  # the inverse
        assert split(3 * k - 2 * k) == e
    assert pack(1, 2, 3, 0) + pack(-4, 5, -6, 1) == pack(-3, 7, -3, 1)
    for i in range(4):
        for bad in (LIMIT, low - 1, -2 ** 21):
            with pytest.raises(AlgebraError):
                pack(*(bad if j == i else 0 for j in range(4)))


@given(vectors, vectors, st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_pack_is_additive(x, y, k):
    kx, ky = pack(*x), pack(*y)
    total = tuple(a + b for a, b in zip(x, y))
    power = tuple(k * a for a in x)
    if all(-LIMIT <= e < LIMIT for e in total):
        assert split(kx + ky) == total and degree(kx + ky) == sum(total)
        assert Monomial(1, kx) * Monomial(-1, ky) == Monomial(-1, pack(*total))
    else:
        with pytest.raises(AlgebraError):
            Monomial(1, kx) * Monomial(1, ky)
    if all(-LIMIT <= e < LIMIT for e in power):
        assert split(k * kx) == power and degree(k * kx) == k * sum(x)


@given(st.lists(vectors, max_size=30))
@settings(max_examples=100, deadline=None)
def test_sorted_keys_follow_tuple_order(es):
    assert [split(k) for k in sorted(pack(*e) for e in es)] == sorted(es)
    small = [tuple(x % 7 - 3 for x in e) for e in es]  # many equal fields
    assert [split(k) for k in sorted(pack(*e) for e in small)] == sorted(small)


def test_products_past_the_range_raise():
    top = pack(0, 0, LIMIT - 1, 0)
    # r^(2**21 - 2) must raise, not wrap into another monomial
    with pytest.raises(AlgebraError):
        Series([{top: 1}], 0) ** 2
    with pytest.raises(AlgebraError):
        Series([{0: 1}, {top: 1}], 1) * Series([{pack(0, 0, 1, 0): 1}], 1)
    with pytest.raises(AlgebraError):
        series_inv(Series([{0: 1}, {pack(0, LIMIT // 2, 0, 0): 1}], 2))
    with pytest.raises(AlgebraError):
        lp_mul({top: 1}, {top: 1})
    for e in [(LIMIT - 1, 0, 0, 0), (0, -LIMIT, 0, 0), (0, 0, 0, LIMIT - 1)]:
        x = Poly({pack(*e): 1, 0: 1})
        with pytest.raises(AlgebraError):
            x * x
        with pytest.raises(AlgebraError):
            Monomial(1, pack(*e)) * Monomial(-1, pack(*e))
    # right at the edge is still fine
    half = pack(0, LIMIT // 2, 0, -(LIMIT // 2))
    assert (Poly({half: 1}) * Poly({half - pack(0, 1, 0, 0): 1})).terms == \
        {pack(0, LIMIT - 1, 0, -LIMIT): 1}
    assert (Monomial(1, half) * Monomial(1, half - pack(0, 1, 0, 0))).key == \
        pack(0, LIMIT - 1, 0, -LIMIT)


def test_series_inverse():
    s = Series([{lq(0, 0, 0): 1}, {lq(0, 0, 0): -1}], order=6)
    inv = series_inv(s)
    assert (s * inv).specialize_signs(1, 1, 1) == [1, 0, 0, 0, 0, 0, 0]
    with pytest.raises(NonUnitConstantTerm):
        series_inv(Series([{lq(0, 0, 0): 2}], order=3))


def test_series_pow_matches_repeated_mul(monkeypatch):
    s = Series([{lq(0, 0, 0): 1}, {lq(1, 0, 0): 1}], order=5)
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
    return [{lq(*k): c for k, c in cc.items()} for cc in x]


def _unpacked(ser):
    return [{split(e)[1:]: c for e, c in cc.items()} for cc in ser.coeffs]


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
    a = Series([{lq(0, 0, 0): 1}, {lq(1, 0, 0): 1}], 2)
    b = Series([{lq(0, 0, 0): 1}, {lq(1, 0, 0): -1}], 2)
    assert (a * b).coeffs == [{lq(0, 0, 0): 1}, {}, {lq(2, 0, 0): -1}]
    assert series_inv(a).coeffs == [{lq(0, 0, 0): 1}, {lq(1, 0, 0): -1},
                                    {lq(2, 0, 0): 1}]


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
    assert mono_t(4, -1) == Monomial(-1, pack(4, 0, 0, 0))


@given(st.lists(st.integers(-9, 9), min_size=32, max_size=32))
def test_mat_mul_is_the_row_by_column_product(xs):
    x = tuple(tuple(xs[4 * i:4 * i + 4]) for i in range(4))
    y = tuple(tuple(xs[16 + 4 * i:20 + 4 * i]) for i in range(4))
    want = tuple(tuple(sum(x[i][k] * y[k][j] for k in range(4)) for j in range(4))
                 for i in range(4))
    assert mat_mul(x, y) == want


# -- determinants mod P ------------------------------------------------------


def leibniz_det(rows, n):
    """The determinant by the permutation expansion, with the sign of each
    permutation from its inversions: the oracle for det_mod."""
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i].get(j, 0)
        total += term
    return total


sparse_squares = st.integers(0, 6).flatmap(lambda n: st.lists(
    st.dictionaries(st.integers(0, n - 1), st.integers(-3, 3), max_size=n),
    min_size=n, max_size=n) if n else st.just([]))


@settings(max_examples=300)
@given(sparse_squares)
def test_det_mod_is_the_determinant_with_its_sign(rows):
    want = leibniz_det(rows, len(rows))
    # a large prime reads the value back; a small one makes pivots vanish
    for P in (MERSENNE_PRIMES[0], 7, 2):
        assert det_mod(rows, P) == want % P


@settings(max_examples=100)
@given(sparse_squares)
def test_det_int_is_the_determinant_with_its_sign(rows):
    # entries in [-3, 3] with many zeros: pivots vanish and rows swap
    n = len(rows)
    assert det_int([[r.get(j, 0) for j in range(n)] for r in rows]) == leibniz_det(rows, n)


def test_det_int_small_cases():
    assert det_int([]) == 1
    assert det_int([[-7]]) == -7
    assert det_int([[0, 1], [1, 0]]) == -1  # a transposition
    assert det_int([[0, 0], [0, 5]]) == 0  # no pivot in the first column
    assert det_int([[0, 1, 2], [0, 3, 4], [5, 6, 7]]) == 5 * (4 - 6)
    # entries past 2^64, where every quotient is still exact
    big = 1 << 200
    assert det_int([[big, 1], [3, big]]) == big * big - 3


def test_det_mod_small_cases():
    P = MERSENNE_PRIMES[0]
    assert det_mod([], P) == 1
    assert det_mod([{0: 1, 1: 1}, {0: 1, 1: 1}], P) == 0  # a square face
    assert det_mod([{1: 1}, {0: 1}], P) == P - 1  # a transposition
    assert det_mod([{0: 2}, {1: 3}], P) == 6
    assert det_mod([{0: 1}, {}], P) == 0  # an empty row
    assert det_mod([{1: 1, 2: 1}, {0: 1, 2: 1}, {0: 1, 1: 1}], P) == 2
    with pytest.raises(AlgebraError):
        det_mod([{2: 1}, {0: 1}], P)


def test_the_primes_are_the_listed_mersenne_primes():
    ks = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423)
    assert MERSENNE_PRIMES == tuple(2 ** k - 1 for k in ks)
    for P in MERSENNE_PRIMES[:4]:  # Fermat's little theorem, base 3
        assert pow(3, P - 1, P) == 1


def test_prime_above_takes_the_smallest_listed_prime_past_the_bound():
    # synthetic bounds 2N at the edges of the list
    assert prime_above(0) == prime_above(2 ** 61 - 2) == 2 ** 61 - 1
    assert prime_above(2 ** 61 - 1) == 2 ** 89 - 1
    assert prime_above(2 ** 127) == 2 ** 521 - 1
    assert prime_above(2 ** 4423 - 2) == 2 ** 4423 - 1
    for bound in (2 ** 4423 - 1, 2 ** 4423, 2 ** 10000):
        with pytest.raises(TooLarge):
            prime_above(bound)


@given(polys, polys)
def test_sums_and_products_hold_no_zero_coefficient(x, y):
    before = dict(x.terms)
    for z in (x + y, x * y, x + poly_neg(x), poly_neg(y) + y):
        assert all(z.terms.values())
    assert x.terms == before  # a sum is a new dict, never the operand's
