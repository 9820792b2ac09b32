import json

import numpy as np
import pytest

from conftest import ALGEBRA_SPECS
from lieorb.liecore import (
    AlgebraSpec,
    ConfigurationError,
    DecompositionError,
    InconsistencyError,
    MatrixLieAlgebra,
    build_algebra,
    cartan_split,
    exp_element,
    in_K_residual,
    iwasawa_decompose,
    jacobi_residual,
    killing_compare_realified,
    kp_decompose,
    random_element,
    random_in_K,
)
from oracles import (
    dense_jacobi_residual,
    killing_matrix_oracle,
    structure_constants_pairwise,
    trace_form_multiple,
)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        AlgebraSpec("so", 3, "R")
    with pytest.raises(ConfigurationError):
        AlgebraSpec("sl", 1, "R")
    with pytest.raises(ConfigurationError):
        AlgebraSpec("sl", 3, "H")


def test_sl2_basis_is_standard(ws):
    alg = ws.algebra("sl2r")
    assert alg.dim == 3
    H, E, F = alg.basis
    np.testing.assert_array_equal(H, np.diag([1.0, -1.0]))
    np.testing.assert_array_equal(E, [[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(F, [[0.0, 0.0], [1.0, 0.0]])


def test_killing_values_sl2(ws):
    alg = ws.algebra("sl2r")
    K = killing_matrix_oracle(alg)
    np.testing.assert_allclose(K, alg.killing_matrix, atol=1e-10)
    H, E, F = alg.basis
    assert alg.killing(H, H) == pytest.approx(8.0, abs=1e-10)
    assert alg.killing(E, F) == pytest.approx(4.0, abs=1e-10)
    assert alg.killing(H, E) == pytest.approx(0.0, abs=1e-10)
    assert alg.killing(E, E) == pytest.approx(0.0, abs=1e-10)
    assert alg.killing(E, np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-12)


def test_killing_matches_trace_multiple(ws, rng):
    for key in ("sl2r", "sl3r", "sl4r", "sl2c", "sl3c"):
        alg = ws.algebra(key)
        for _ in range(5):
            X = random_element(alg, rng)
            Y = random_element(alg, rng)
            assert alg.killing(X, Y) == pytest.approx(trace_form_multiple(alg, X, Y), rel=1e-10, abs=1e-9)


def test_realified_dimension_and_nondegeneracy(ws):
    alg = ws.algebra("sl3c")
    assert alg.dim == 16
    ev = np.linalg.eigvalsh(alg.killing_matrix)
    assert np.min(np.abs(ev)) / np.max(np.abs(ev)) > 1e-8


def test_bracket_examples(ws, rng):
    alg = ws.algebra("sl2r")
    H, E, F = alg.basis
    np.testing.assert_allclose(alg.bracket(H, E), 2.0 * E, atol=1e-12)
    np.testing.assert_allclose(alg.bracket(E, F), H, atol=1e-12)
    X = random_element(alg, rng)
    np.testing.assert_allclose(alg.bracket(X, X), 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        alg.bracket(np.eye(3), np.eye(3))


def test_bracket_agrees_with_structure_constants(ws, rng):
    for key in ("sl3r", "sl2c"):
        alg = ws.algebra(key)
        x = rng.standard_normal(alg.dim)
        y = rng.standard_normal(alg.dim)
        via_struct = alg.structure_bracket(x, y)
        via_matrix = alg.coords(alg.bracket(alg.from_coords(x), alg.from_coords(y)))
        np.testing.assert_allclose(via_struct, via_matrix, atol=1e-10)


def test_jacobi_all_basis_triples(ws):
    for key in ALGEBRA_SPECS:
        alg = ws.algebra(key)
        c = alg.structure
        resid = dense_jacobi_residual(c)
        assert resid < 1e-10
        # the sparse certificate is exact: it equals the dense tensor's maximum
        assert jacobi_residual(c) == resid == alg.build_residuals["jacobi"]


def test_jacobi_certificate_sees_planted_fault(ws):
    for key in ALGEBRA_SPECS:
        alg = ws.algebra(key)
        rng = np.random.default_rng(11)
        seen = []
        for _ in range(5):
            # some faults still satisfy Jacobi; the dense
            # tensor decides which, and the certificate must agree exactly
            i, j = rng.choice(alg.dim, size=2, replace=False)
            m = rng.integers(alg.dim)
            c = alg.structure.copy()
            c[i, j, m] += 1
            c[j, i, m] -= 1
            got = jacobi_residual(c)
            assert got == dense_jacobi_residual(c), f"{key}: fault at ({i}, {j}, {m})"
            seen.append(got > 0)
        assert sum(seen) >= 3, f"{key}: planted faults seen {seen}"


def test_non_integer_structure_constants_are_rejected(monkeypatch):
    build_basis = MatrixLieAlgebra._build_basis
    monkeypatch.setattr(MatrixLieAlgebra, "_build_basis", lambda self: 0.5 * build_basis(self))
    with pytest.raises(InconsistencyError, match="build_algebra.*not integers"):
        build_algebra(AlgebraSpec("sl", 3, "R"))


def test_killing_invariance(ws):
    for key in ("sl3r", "sl3c"):
        alg = ws.algebra(key)
        c, K = alg.structure, alg.killing_matrix
        # B([Z,X],Y) + B(X,[Z,Y]) over all basis triples
        t1 = np.einsum("zxm,my->zxy", c, K)
        t2 = np.einsum("zym,xm->zxy", c, K)
        assert np.max(np.abs(t1 + t2)) < 1e-10


def test_theta_is_involution_and_automorphism(ws, rng):
    for key in ("sl3r", "sl2c"):
        alg = ws.algebra(key)
        X, Y = random_element(alg, rng), random_element(alg, rng)
        np.testing.assert_allclose(alg.theta(alg.theta(X)), X, atol=1e-12)
        np.testing.assert_allclose(
            alg.theta(alg.bracket(X, Y)), alg.bracket(alg.theta(X), alg.theta(Y)), atol=1e-10
        )
        assert alg.killing(alg.theta(X), alg.theta(Y)) == pytest.approx(alg.killing(X, Y), abs=1e-9)


def test_killing_compare_realified(ws):
    assert killing_compare_realified(ws.algebra("sl2c")) < 1e-9
    assert killing_compare_realified(ws.algebra("sl3c")) < 1e-9
    with pytest.raises(ConfigurationError):
        killing_compare_realified(ws.algebra("sl2r"))


def test_realified_diagonal_pair(ws):
    # B_C(H, iH) is purely imaginary, so both Re B_C and B_R vanish
    alg = ws.algebra("sl2c")
    H, iH = alg.basis[0], alg.basis[1]
    assert alg.killing(H, iH) == pytest.approx(0.0, abs=1e-12)


def test_cartan_split_sl2(ws):
    alg = ws.algebra("sl2r")
    split = ws.split("sl2r")
    H, E, F = alg.basis
    assert split.k_basis.shape[0] == 1
    k0 = split.k_basis[0]
    np.testing.assert_allclose(k0 / k0[0, 1], E - F, atol=1e-12)
    assert split.p_basis.shape[0] == 2
    assert alg.inner(H, H) == pytest.approx(8.0, abs=1e-10)


def test_cartan_split_dimensions_sl3(ws):
    split = ws.split("sl3r")
    assert split.k_basis.shape[0] == 3
    assert split.p_basis.shape[0] == 5


def test_cartan_bracket_relations_and_definiteness(ws):
    for key in ("sl3r", "sl2c"):
        alg = ws.algebra(key)
        split = ws.split(key)
        K = alg.killing_matrix
        kk = split.k_coords @ K @ split.k_coords.T
        pp = split.p_coords @ K @ split.p_coords.T
        assert np.max(np.linalg.eigvalsh(kk)) < 0
        assert np.min(np.linalg.eigvalsh(pp)) > 0
        Qk, _ = np.linalg.qr(split.k_coords.T)
        Qp, _ = np.linalg.qr(split.p_coords.T)
        for A in split.k_basis:
            for B in split.k_basis:
                v = alg.coords(alg.bracket(A, B))
                assert np.max(np.abs(v - Qk @ (Qk.T @ v))) < 1e-10
            for B in split.p_basis:
                v = alg.coords(alg.bracket(A, B))
                assert np.max(np.abs(v - Qp @ (Qp.T @ v))) < 1e-10
        for A in split.p_basis:
            for B in split.p_basis:
                v = alg.coords(alg.bracket(A, B))
                assert np.max(np.abs(v - Qk @ (Qk.T @ v))) < 1e-10


def test_inner_product_positive_definite_and_ad_p_symmetric(ws, rng):
    for key in ("sl3r", "sl2c"):
        alg = ws.algebra(key)
        split = ws.split(key)
        G = (alg.inner_matrix + alg.inner_matrix.T) / 2
        assert np.min(np.linalg.eigvalsh(G)) > 0
        coeff = rng.standard_normal(split.p_coords.shape[0])
        Hc = coeff @ split.p_coords
        A = alg.ad_coord(Hc)
        # symmetric for <.,.>: G A = (G A)^T
        assert np.max(np.abs(G @ A - A.T @ G)) < 1e-9


def test_coords_roundtrip(ws, rng):
    for key in ("sl4r", "sl3c"):
        alg = ws.algebra(key)
        x = rng.standard_normal(alg.dim)
        np.testing.assert_allclose(alg.coords(alg.from_coords(x)), x, atol=1e-12)
        assert alg.span_residual(alg.from_coords(x)) < 1e-12


@pytest.mark.parametrize("key", sorted(ALGEBRA_SPECS))
def test_coords_batched_match_single_calls(ws, rng, key):
    alg = ws.algebra(key)
    X = rng.standard_normal((2, 3, alg.d, alg.d))
    x = rng.standard_normal((4, alg.dim))
    batched = alg.coords(X)
    assert batched.shape == (2, 3, alg.dim)
    np.testing.assert_array_equal(batched, [[alg.coords(M) for M in row] for row in X])
    np.testing.assert_array_equal(alg.from_coords(x), np.stack([alg.from_coords(v) for v in x]))
    assert alg.coords(np.zeros((0, alg.d, alg.d))).shape == (0, alg.dim)
    assert alg.from_coords(np.zeros((0, alg.dim))).shape == (0, alg.d, alg.d)
    with pytest.raises(ValueError):
        alg.coords(np.zeros((2, alg.d + 1, alg.d + 1)))
    with pytest.raises(ValueError):
        alg.from_coords(np.zeros((2, alg.dim + 1)))


@pytest.mark.parametrize("key", sorted(ALGEBRA_SPECS))
def test_structure_constants_match_pairwise_oracle(ws, key):
    # compared as JSON text, so every signed zero of the fixture counts
    alg = ws.algebra(key)
    expected = json.dumps(structure_constants_pairwise(alg).tolist())
    assert json.dumps(alg.structure.tolist()) == expected


def test_iwasawa_identity_and_n(ws):
    alg = ws.algebra("sl2r")
    k, a, n = iwasawa_decompose(alg, np.eye(2))
    for m in (k, a, n):
        np.testing.assert_allclose(m.matrix, np.eye(2), atol=1e-12)
    expE = np.array([[1.0, 1.0], [0.0, 1.0]])
    k, a, n = iwasawa_decompose(alg, expE)
    np.testing.assert_allclose(k.matrix, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(a.matrix, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(n.matrix, expE, atol=1e-12)


def test_iwasawa_random_and_qr_oracle(ws, rng):
    alg = ws.algebra("sl3r")
    for _ in range(5):
        g = exp_element(alg, random_element(alg, rng, 0.6)).matrix
        k, a, n = iwasawa_decompose(alg, g)
        np.testing.assert_allclose(k.matrix @ a.matrix @ n.matrix, g, atol=1e-9)
        assert in_K_residual(alg, k.matrix) < 1e-9
        assert np.min(np.diagonal(a.matrix)) > 0
        np.testing.assert_allclose(np.tril(n.matrix, -1), 0.0, atol=1e-12)
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diagonal(r))[None, :]
        np.testing.assert_allclose(k.matrix, q, atol=1e-9)


def test_iwasawa_realified(ws, rng):
    alg = ws.algebra("sl2c")
    g = exp_element(alg, random_element(alg, rng, 0.5)).matrix
    k, a, n = iwasawa_decompose(alg, g)
    np.testing.assert_allclose(k.matrix @ a.matrix @ n.matrix, g, atol=1e-9)
    assert in_K_residual(alg, k.matrix) < 1e-9


def test_iwasawa_roundtrip_on_kan(ws, rng):
    alg = ws.algebra("sl3r")
    k0 = random_in_K(alg, rng).matrix
    avec = np.exp(rng.standard_normal(3) * 0.3)
    avec /= np.prod(avec) ** (1 / 3)
    a0 = np.diag(avec)
    n0 = np.eye(3)
    n0[0, 1], n0[0, 2], n0[1, 2] = rng.standard_normal(3) * 0.5
    k, a, n = iwasawa_decompose(alg, k0 @ a0 @ n0)
    np.testing.assert_allclose(k.matrix, k0, atol=1e-9)
    np.testing.assert_allclose(a.matrix, a0, atol=1e-9)
    np.testing.assert_allclose(n.matrix, n0, atol=1e-9)


def test_iwasawa_errors(ws):
    alg = ws.algebra("sl2r")
    # det 2 at unit and at large scale (Hadamard bound 1e10), then singular ones
    bad = (
        np.diag([2.0, 1.0]),
        np.array([[1e5, 1e5], [0.0, 2e-5]]),
        np.zeros((2, 2)),
        np.ones((2, 2)),
        np.full((2, 2), 1e5),
    )
    for g in bad:
        with pytest.raises(DecompositionError):
            iwasawa_decompose(alg, g)
    # a large special element still factors
    k, a, n = iwasawa_decompose(ws.algebra("sl3r"), np.diag([1e9, 1.0, 1e-9]))
    np.testing.assert_allclose(np.diagonal(a.matrix), [1e9, 1.0, 1e-9], rtol=1e-15)


def test_kp_decompose(ws, rng):
    alg = ws.algebra("sl3r")
    data = ws.data("sl3r", (1, 0, -1))
    filt = data.p_filtration_coords
    g = random_in_K(alg, rng).matrix
    k, p = kp_decompose(alg, g, filt)
    np.testing.assert_allclose(k.matrix, g, atol=1e-9)
    np.testing.assert_allclose(p.matrix, np.eye(3), atol=1e-9)
    from lieorb.flows import exp_H

    nelt = exp_H(data, np.array([0.3, -0.2, 0.5])).matrix
    k, p = kp_decompose(alg, nelt, filt)
    np.testing.assert_allclose(k.matrix, np.eye(3), atol=1e-9)
    np.testing.assert_allclose(p.matrix, nelt, atol=1e-9)
    g = exp_element(alg, random_element(alg, rng, 0.5)).matrix
    k, p = kp_decompose(alg, g, filt)
    np.testing.assert_allclose(k.matrix @ p.matrix, g, atol=1e-9)
    assert in_K_residual(alg, k.matrix) < 1e-9


def test_group_element_k_membership(ws, rng):
    for key in ("sl3r", "sl2c"):
        alg = ws.algebra(key)
        k = random_in_K(alg, rng)
        assert k.tag == "in_K"
        assert in_K_residual(alg, k.matrix) < 1e-9


def test_kp_rejects_non_invariant_filtration(ws, rng):
    # a span that Ad of the AN factor does not preserve must be flagged
    alg = ws.algebra("sl3r")
    g = exp_element(alg, random_element(alg, rng, 0.6)).matrix
    E, F = alg.basis[1], alg.basis[3]  # E12 and E21
    bogus = alg.coords(E - F)[None, :]
    with pytest.raises(DecompositionError):
        kp_decompose(alg, g, bogus)
