"""Acceptance gate: the ten headline identities, each as one exact check with
a single pass/fail line.  Everything here is integer/polynomial equality with
zero tolerance."""

from conftest import box_count_oracle
from hexdimer.algebra import (MAT_I, MAT_L, MAT_R, mat_mul, mat_neg, mat_pow, pack,
                              poly_specialize, split as split_key)
from hexdimer.diagrams import (COUNT, MONO, PlanePartition, Z2Z2, diagram_of,
                               diagram_weight, enumerate_matchings,
                               flippable_faces, matching_of, tau_move, z_poly)
from hexdimer.mesh import BoxDims, build_mesh
from hexdimer.overlay import (enumerate_two_factors, overlay, split,
                              two_factor_weight)
from hexdimer.series import compare_box_vs_series, eq3_check
from hexdimer.squish import (lemma2_sum, loop_lift_sum, project,
                             pullback_weighting, sign_weighting,
                             transfer_lift_sum, wp_edge_weighting)


def verdict(n, label, ok):
    print(f"ACCEPTANCE {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} ({label}) failed"


def test_01_counting():
    ok = (len(enumerate_matchings(BoxDims(2, 2, 2))) == 20
          and len(enumerate_two_factors(BoxDims(1, 1, 1))) == 3
          and z_poly(BoxDims(4, 4, 4), COUNT).constant_value()
          == box_count_oracle(4, 4, 4) == 232848)
    verdict(1, "counting", ok)


def test_02_splitting_lemma():
    dims = BoxDims(2, 2, 2)
    mesh = build_mesh(dims)
    ms = enumerate_matchings(dims)
    ok = len(ms) ** 2 == 400
    reconstructed = 0
    for M1 in ms:
        for M2 in ms:
            lam = overlay(mesh, M1, M2)
            pairs = split(lam)
            ok = ok and len(pairs) == 2 ** len(lam.loops) and (M1, M2) in pairs
            reconstructed += 1
    lams = enumerate_two_factors(dims)
    ok = ok and sum(2 ** len(l.loops) for l in lams) == 400 == reconstructed
    verdict(2, "splitting lemma", ok)


def test_03_parity_lemma():
    ok = True
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 3):
                dims = BoxDims(a, b, c)
                want = (a * b + b * c + c * a) % 2
                mesh = build_mesh(dims)
                ms = enumerate_matchings(dims)
                for lam in enumerate_two_factors(dims):
                    ok = ok and lam.component_count() % 2 == want
                ref = ms[0]
                for M in ms:
                    par = overlay(mesh, M, ref).component_count() % 2
                    for f in flippable_faces(mesh, M):
                        lam = overlay(mesh, tau_move(mesh, M, f), ref)
                        ok = ok and lam.component_count() % 2 == par
    verdict(3, "parity lemma", ok)


def test_04_sign_weighting_lemma():
    ok = (mat_mul(MAT_L, MAT_R) == MAT_I
          and mat_pow(MAT_L, 6) == mat_neg(MAT_I))
    for base in (BoxDims(1, 1, 1), BoxDims(2, 1, 1), BoxDims(2, 2, 1),
                 BoxDims(2, 2, 2)):
        a, b, c = base
        sgn = (-1) ** (a * b + b * c + c * a)
        even = build_mesh(base.doubled())
        S = sign_weighting(even)
        for lam in enumerate_two_factors(base):
            ok = ok and lemma2_sum(even, lam, S) == sgn * 2 ** len(lam.loops)
            for loop in lam.loops:
                brute = loop_lift_sum(even, loop, S)
                ok = ok and brute == transfer_lift_sum(even, loop) == -2
    even = build_mesh(BoxDims(2, 2, 2))
    S = sign_weighting(even)
    aggregate = sum(S.weight_of(mu).coeff
                    for mu in enumerate_matchings(BoxDims(2, 2, 2)))
    ok = ok and aggregate == -4
    verdict(4, "sign-weighting lemma", ok)


def test_05_pullback_and_consistency():
    ok = True
    scheme = Z2Z2.with_signs({"q": -1, "r": -1, "s": -1})
    for dims in (BoxDims(2, 2, 2), BoxDims(4, 4, 2)):
        mesh = build_mesh(dims)
        U = pullback_weighting(mesh)
        S = sign_weighting(mesh)
        wp = wp_edge_weighting(mesh.base)
        a, b, c = mesh.base.dims

        def W(mu):
            t = split_key(U.weight_of(mu).key)[0]
            return S.weight_of(mu).coeff * (-1) ** (t % 2), t

        s0, e0 = W(matching_of(PlanePartition.empty(dims)))
        ok = ok and (s0, e0) == ((-1) ** (a * b + b * c + c * a), 0)
        for mu in enumerate_matchings(dims):
            ok = ok and U.weight_of(mu) == two_factor_weight(
                project(mesh, mu), wp.weights)
            s, e = W(mu)
            dw = diagram_weight(diagram_of(mesh, mu), scheme)
            ok = ok and s * s0 == dw.coeff and e == 3 * split_key(dw.key)[0]
    verdict(5, "pullback lemma and consistency", ok)


def test_06_main_theorem():
    ok = True
    for base in ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)):
        dims = BoxDims(*base)
        lhs = z_poly(dims.doubled(), Z2Z2.with_signs({"q": -1, "r": -1, "s": -1}))
        z = z_poly(dims, MONO.with_signs({"p": "-p"}))
        ok = ok and lhs == z * z
        if base == (1, 1, 1):
            one_minus_p_sq = {pack(0, 0, 0, 0): 1, pack(1, 0, 0, 0): -2,
                              pack(2, 0, 0, 0): 1}
            ok = ok and lhs.terms == one_minus_p_sq
    verdict(6, "main theorem", ok)


def test_07_monochromatic_series():
    report = compare_box_vs_series(6, "mono")
    ok = report["match"] and report["box"] == [1, 1, 3, 6, 13, 24, 48]
    verdict(7, "monochromatic generating function", ok)


def test_08_four_variable_series():
    report = compare_box_vs_series(4, "z2z2")
    verdict(8, "four-variable generating function", report["match"])


def test_09_specialized_series_identity():
    verdict(9, "specialized series identity", eq3_check(10))


def test_10_cross_method():
    ok = True
    dims_list = [(a, b, c) for a in range(1, 4) for b in range(1, 4)
                 for c in range(1, 4)] + [(4, 4, 2)]
    for d in dims_list:
        dims = BoxDims(*d)
        zz = z_poly(dims, Z2Z2)
        ok = ok and zz == z_poly(dims, Z2Z2, method="enumerate")
        allp = poly_specialize(zz, {"p": "keep", "q": "p", "r": "p", "s": "p"})
        ok = ok and allp == z_poly(dims, MONO)
    verdict(10, "cross-method agreement", ok)
