import ast
import json
import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg

from conftest import ALGEBRA_SPECS
from lieorb.liecore import (
    AlgebraSpec,
    ConfigurationError,
    DecompositionError,
    InconsistencyError,
    MatrixLieAlgebra,
    build_algebra,
    cartan_split,
    complex_linearity_residual,
    embed_complex,
    exp_series,
    expm,
    in_K_residual,
    iwasawa_decompose,
    jacobi_residual,
    killing_compare_realified,
    positive_qr,
    random_element,
    random_in_K,
    signed_permutation,
    theta_automorphism_residual,
    theta_rows,
)
from oracles import (
    ad_coord_einsum,
    complex_bilinear_part,
    complex_linearity_einsum,
    dense_jacobi_residual,
    independent_rows_reference,
    inner,
    j_layout,
    killing,
    theta_automorphism_einsum,
    theta_dense,
    killing_matrix_einsum,
    killing_matrix_oracle,
    nilpotent_exp_loop,
    nonzeros_of,
    span_residual,
    structure_bracket,
    structure_constants_pairwise,
    trace_form_multiple,
)

# the Jacobi certificate runs on two larger algebras, the byte-identity tests on the
# largest of the benchmark grids as well
JACOBI_KEYS = sorted(ALGEBRA_SPECS) + ["sl4c", "sl5r"]
BYTE_KEYS = sorted(ALGEBRA_SPECS) + ["sl6c", "sl8r"]
# the realified algebras on which the J-orbit Jacobi route is held to the dense tensor
J_ORBIT_KEYS = ["sl2c", "sl3c", "sl4c"]


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
    assert killing(alg, H, H) == pytest.approx(8.0, abs=1e-10)
    assert killing(alg, E, F) == pytest.approx(4.0, abs=1e-10)
    assert killing(alg, H, E) == pytest.approx(0.0, abs=1e-10)
    assert killing(alg, E, E) == pytest.approx(0.0, abs=1e-10)
    assert killing(alg, E, np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-12)


def test_killing_matches_trace_multiple(ws, rng):
    for key in ("sl2r", "sl3r", "sl4r", "sl2c", "sl3c"):
        alg = ws.algebra(key)
        for _ in range(5):
            X = random_element(alg, rng)
            Y = random_element(alg, rng)
            assert killing(alg, X, Y) == pytest.approx(trace_form_multiple(alg, X, Y), rel=1e-10, abs=1e-9)


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
    with pytest.raises(ValueError):
        alg.bracket(np.stack([X, X]), np.stack([np.eye(3)] * 2))  # trailing shapes
    with pytest.raises(ValueError):
        alg.bracket(np.stack([X, X]), np.stack([X, X, X]))  # batch shapes
    np.testing.assert_array_equal(alg.bracket(np.stack([H, E]), np.stack([E, F])), [alg.bracket(H, E), alg.bracket(E, F)])


def test_bracket_agrees_with_structure_constants(ws, rng):
    for key in ("sl3r", "sl2c"):
        alg = ws.algebra(key)
        x = rng.standard_normal(alg.dim)
        y = rng.standard_normal(alg.dim)
        via_struct = structure_bracket(alg, x, y)
        via_matrix = alg.coords(alg.bracket(alg.from_coords(x), alg.from_coords(y)))
        np.testing.assert_allclose(via_struct, via_matrix, atol=1e-10)


def test_jacobi_all_basis_triples(ws):
    for key in JACOBI_KEYS:
        alg = ws.algebra(key)
        c = alg.structure
        resid = dense_jacobi_residual(c)
        assert resid < 1e-10
        # the sparse certificate is exact: it equals the dense tensor's maximum
        assert jacobi_residual(alg.nonzeros) == jacobi_residual(nonzeros_of(c)) == resid
        assert resid == alg.build_residuals["jacobi"]


def test_theta_index_test_matches_einsum_oracle(ws):
    for key in ALGEBRA_SPECS:
        alg = ws.algebra(key)
        c, Th = alg.structure, theta_dense(alg)
        perm, sign = signed_permutation(Th, "theta")
        assert theta_automorphism_residual(alg.nonzeros, perm, sign) == theta_automorphism_einsum(c, Th) == 0.0
        assert alg.build_residuals["theta_automorphism"] == 0.0
        # planted faults: one structure constant moved, where c is nonzero and where it is zero
        rng = np.random.default_rng(9)
        seen = []
        planted = np.concatenate([np.argwhere(c)[rng.choice(np.count_nonzero(c), 3)], rng.integers(0, alg.dim, (3, 3))])
        for t in planted:
            bad = c.copy()
            bad[tuple(t)] += 2
            seen.append(theta_automorphism_residual(nonzeros_of(bad), perm, sign))
            assert seen[-1] == theta_automorphism_einsum(bad, Th), (key, t)
        assert max(seen) == 2, key
        # theta that is no signed permutation of the basis is refused
        for off in (0.5, 1.0):
            bad = Th.copy()
            bad[0, 1] = off
            with pytest.raises(InconsistencyError, match="signed permutation"):
                theta_automorphism_residual(alg.nonzeros, *signed_permutation(bad, "theta"))


@pytest.mark.parametrize("key", ["sl3r", "sl2c"])
def test_theta_sign_rules_match_dense_products(key):
    """The involution and isometry residuals, read off (pi, s), equal max |Th Th - I| and
    max |Th^T K Th - K| on theta itself and on planted signed permutations."""
    alg = build_algebra(ALGEBRA_SPECS[key])
    K, dim = alg.killing_matrix, alg.dim
    rng = np.random.default_rng(3)
    flipped = alg.theta_sign.copy()
    flipped[2] *= -1  # basis index 2 is E_01, in a 2-cycle of pi: s_i s_pi(i) = -1 there
    planted = [(alg.theta_perm, alg.theta_sign), (alg.theta_perm, flipped)]
    planted += [(rng.permutation(dim), rng.choice([-1.0, 1.0], dim)) for _ in range(4)]
    seen = []
    for perm, sign in planted:
        Th = np.zeros((dim, dim))
        Th[perm, np.arange(dim)] = sign
        alg.theta_perm, alg.theta_sign = perm, sign
        try:
            res = alg._validate()
        except InconsistencyError as exc:
            res = ast.literal_eval(str(exc).split(": ", 1)[1])
        assert res["theta_involution"] == np.max(np.abs(Th @ Th - np.eye(dim)))
        assert res["theta_isometry"] == np.max(np.abs(Th.T @ K @ Th - K))
        seen.append(res["theta_involution"] > 0)
    assert seen[:2] == [False, True] and any(seen[2:])


def test_certificates_refuse_maps_that_do_not_square_to_one(ws):
    """theta and J composed with a 3-cycle of three basis indices, or with one sign of a 2-cycle
    flipped, square to no +/-1, and both certificates are nonzero there.  Ad(diag(i, 1, ..., 1))
    is a signed permutation of the realified basis that preserves c but squares to -1 on E_0j and
    E_j0 only: c alone cannot refuse it, and the folded theta^2 = 1 must."""
    for key in ("sl3r", "sl4r", "sl2c", "sl3c"):
        alg = ws.algebra(key)
        dim = alg.dim
        maps = [(theta_automorphism_residual, alg.theta_perm, alg.theta_sign)]
        if alg.is_complex:
            maps.append((complex_linearity_residual, alg.j_perm, alg.j_sign))
        for residual, perm, sign in maps:
            assert residual(alg.nonzeros, perm, sign) == 0, key
            pair = int(np.flatnonzero(perm != np.arange(dim))[0])
            # the first index of each of the map's first three orbits
            idx = np.unique(np.minimum(np.arange(dim), perm))[:3]
            cycled = perm.copy()
            cycled[idx] = perm[np.roll(idx, 1)]
            assert not np.array_equal(cycled[cycled], np.arange(dim)), key
            flipped = sign.copy()
            flipped[pair] *= -1
            for p, s in ((cycled, sign), (perm, flipped)):
                assert residual(alg.nonzeros, p, s) > 0, (key, residual.__name__)
        if alg.is_complex:
            g = embed_complex(np.diag([1j] + [1.0] * (alg.n - 1)))
            A = alg.coords(g @ alg.basis @ g.T).T
            assert theta_automorphism_einsum(alg.structure, A) == 0.0, key
            assert theta_automorphism_residual(alg.nonzeros, *signed_permutation(A, "Ad(g)")) == 2, key


def test_jacobi_certificate_sees_planted_fault(ws):
    for key in JACOBI_KEYS:
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
            got = jacobi_residual(nonzeros_of(c))
            assert got == dense_jacobi_residual(c), f"{key}: fault at ({i}, {j}, {m})"
            seen.append(got > 0)
        assert sum(seen) >= 3, f"{key}: planted faults seen {seen}"


def test_jacobi_certificate_refuses_non_antisymmetric_c(ws):
    # the certificate sums increasing triples only, which presumes c[j, i] = -c[i, j];
    # one entry moved alone breaks that and must still be refused
    for key in JACOBI_KEYS:
        alg = ws.algebra(key)
        c0 = alg.structure
        rng = np.random.default_rng(13)
        nonzero = np.argwhere(c0)[rng.choice(np.count_nonzero(c0), 2)]
        diagonal = [(i, i, m) for i, m in rng.integers(0, alg.dim, (2, 2))]
        for t in [*nonzero, *rng.integers(0, alg.dim, (2, 3)), *diagonal]:
            c = c0.copy()
            c[tuple(t)] += 1
            assert jacobi_residual(nonzeros_of(c)) >= 1, f"{key}: fault at {tuple(t)}"


def _j_route(alg):
    """J read off the matrices and the mask of one index per J-orbit."""
    return alg.coords(alg.J @ alg.basis).T, alg.j_perm > np.arange(alg.dim)


def test_complex_structure_is_a_certified_signed_permutation(ws):
    for key in J_ORBIT_KEYS:
        alg = ws.algebra(key)
        Jm, rep = _j_route(alg)
        # the layout written out by hand, against the matrix J and the build's reading of it
        perm, sign = j_layout(alg)
        assert np.array_equal(perm, alg.j_perm) and np.array_equal(sign, alg.j_sign), key
        dense = np.zeros((alg.dim, alg.dim))
        dense[perm, np.arange(alg.dim)] = sign
        assert np.array_equal(dense, Jm) and np.array_equal(Jm @ Jm, -np.eye(alg.dim)), key
        assert 2 * np.count_nonzero(rep) == alg.dim, key
        lin = complex_linearity_residual(alg.nonzeros, alg.j_perm, alg.j_sign)
        assert lin == complex_linearity_einsum(alg.structure, Jm) == alg.build_residuals["complex_linearity"] == 0.0
        assert jacobi_residual(alg.nonzeros, rep) == 0
        # the identity is trivially linear, but its empty mask would certify no triple: J^2 = -1 refuses it
        assert complex_linearity_residual(alg.nonzeros, np.arange(alg.dim), np.ones(alg.dim)) == 2, key
    real = ws.algebra("sl3r")
    assert real.j_perm is None and "complex_linearity" not in real.build_residuals


def test_j_orbit_jacobi_is_exact_on_c_bilinear_faults(ws):
    """A C-bilinear planted fault keeps the bracket J-linear, so the Jacobi certificate on one
    index per J-orbit must equal the dense maximum over all (i, j, k, l) exactly."""
    seen = []
    for key in J_ORBIT_KEYS:
        alg = ws.algebra(key)
        Jm, rep = _j_route(alg)
        rng = np.random.default_rng(17)
        for _ in range(12):
            i, j = rng.choice(alg.dim, size=2, replace=False)
            m = rng.integers(alg.dim)
            f = np.zeros((alg.dim,) * 3)
            f[i, j, m], f[j, i, m] = 4, -4
            c = alg.structure + complex_bilinear_part(f, Jm)
            nz = nonzeros_of(c)
            assert complex_linearity_residual(nz, alg.j_perm, alg.j_sign) == complex_linearity_einsum(c, Jm) == 0
            got = jacobi_residual(nz, rep)
            assert got == dense_jacobi_residual(c), f"{key}: fault at ({i}, {j}, {m})"
            seen.append(got > 0)
    assert sum(seen) >= 18, f"planted faults seen {seen}"


def test_j_orbit_route_refuses_single_planted_pairs(ws):
    """One antisymmetric pair is no C-bilinear change: wherever the dense Jacobi residual sees it,
    the linearity certificate or the J-orbit Jacobi certificate must, and the build refuses it."""
    refused = 0
    for key in J_ORBIT_KEYS:
        alg = ws.algebra(key)
        Jm, rep = _j_route(alg)
        bad = build_algebra(alg.spec)
        rng = np.random.default_rng(19)
        for _ in range(12):
            i, j = rng.choice(alg.dim, size=2, replace=False)
            m = rng.integers(alg.dim)
            c = alg.structure.copy()
            c[i, j, m] += 1
            c[j, i, m] -= 1
            nz = nonzeros_of(c)
            lin = complex_linearity_residual(nz, alg.j_perm, alg.j_sign)
            assert lin == complex_linearity_einsum(c, Jm), f"{key}: fault at ({i}, {j}, {m})"
            if dense_jacobi_residual(c) > 0:
                assert lin > 0 or jacobi_residual(nz, rep) > 0, f"{key}: fault at ({i}, {j}, {m})"
                bad.nonzeros = nz
                with pytest.raises(InconsistencyError, match="structural self-checks"):
                    bad._validate()
                refused += 1
    assert refused >= 18, refused


def test_structure_constants_peak_memory(ws):
    # the joins hold arrays of the basis's nonzeros, not dim^3 temporaries: at
    # sl(6, C) the bound, 0.70 MiB, is a fifth of 1.5 times the 2.6 MiB dense tensor
    alg = ws.algebra("sl6c")
    tracemalloc.start()
    try:
        nonzeros = alg._structure_constants()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(x.nbytes for x in nonzeros)
    assert peak <= 12 * nbytes, f"peak {peak} bytes for {nbytes} bytes of nonzeros"


def test_build_peak_memory():
    # the build keeps the structure constants as their nonzeros and builds no
    # dim^3 array: at sl(8, C) the relative bound, 12.9 MiB, is under half of
    # 1.75 times the 15.3 MiB dense tensor.  The Jacobi join runs on one index
    # per J-orbit, about 1/8 of the products, so the build peaks at 2.2 MiB,
    # under the absolute 4 MiB bound
    tracemalloc.start()
    try:
        alg = build_algebra(AlgebraSpec("sl", 8, "C"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "structure" not in vars(alg)
    nbytes = sum(x.nbytes for x in alg.nonzeros)
    assert peak <= 88 * nbytes, f"peak {peak} bytes for {nbytes} bytes of nonzeros"
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_nonzeros_are_the_sorted_dense_entries(ws):
    """nonzeros lists every nonzero of the dense view, both halves, in C order of (i, j, k), read-only."""
    for key in BYTE_KEYS:
        alg = ws.algebra(key)
        for got, want in zip(alg.nonzeros, nonzeros_of(alg.structure)):
            assert got.tobytes() == want.astype(got.dtype).tobytes() and not got.flags.writeable, key


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
        assert killing(alg, alg.theta(X), alg.theta(Y)) == pytest.approx(killing(alg, X, Y), abs=1e-9)


def test_killing_compare_realified(ws):
    assert killing_compare_realified(ws.algebra("sl2c")) < 1e-9
    assert killing_compare_realified(ws.algebra("sl3c")) < 1e-9
    with pytest.raises(ConfigurationError):
        killing_compare_realified(ws.algebra("sl2r"))


def test_realified_diagonal_pair(ws):
    # B_C(H, iH) is purely imaginary, so both Re B_C and B_R vanish
    alg = ws.algebra("sl2c")
    H, iH = alg.basis[0], alg.basis[1]
    assert killing(alg, H, iH) == pytest.approx(0.0, abs=1e-12)


def test_cartan_split_sl2(ws):
    alg = ws.algebra("sl2r")
    split = ws.split("sl2r")
    H, E, F = alg.basis
    assert split.k_basis.shape[0] == 1
    k0 = split.k_basis[0]
    np.testing.assert_allclose(k0 / k0[0, 1], E - F, atol=1e-12)
    assert split.p_basis.shape[0] == 2
    assert inner(alg, H, H) == pytest.approx(8.0, abs=1e-10)


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
        A = ad_coord_einsum(alg, Hc)
        # symmetric for <.,.>: G A = (G A)^T
        assert np.max(np.abs(G @ A - A.T @ G)) < 1e-9


def test_coords_roundtrip(ws, rng):
    for key in ("sl4r", "sl3c"):
        alg = ws.algebra(key)
        x = rng.standard_normal(alg.dim)
        np.testing.assert_allclose(alg.coords(alg.from_coords(x)), x, atol=1e-12)
        assert span_residual(alg, alg.from_coords(x)) < 1e-12


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


@pytest.mark.parametrize("key", BYTE_KEYS)
def test_structure_constants_match_pairwise_oracle(ws, key):
    # compared as JSON text, so every signed zero of the fixture counts
    alg = ws.algebra(key)
    expected = json.dumps(structure_constants_pairwise(alg).tolist())
    assert json.dumps(alg.structure.tolist()) == expected


@pytest.mark.parametrize("key", BYTE_KEYS)
def test_killing_matrix_matches_einsum_bytes(ws, key):
    # byte for byte, so the fixture's signed zeros count
    alg = ws.algebra(key)
    assert alg.killing_matrix.tobytes() == killing_matrix_einsum(alg).tobytes()


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
        g = scipy.linalg.expm(random_element(alg, rng, 0.6))
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
    g = scipy.linalg.expm(random_element(alg, rng, 0.5))
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


@pytest.mark.parametrize("key", ("sl2r", "sl3c"))
def test_batched_decompositions_name_the_failing_point(ws, key):
    # a non-special element, and a singular one whose det 0 is within the
    # rounding scale of its Hadamard bound, each planted in a batch
    alg = ws.algebra(key)
    embed = embed_complex if alg.is_complex else np.asarray
    m = alg.n
    good = scipy.linalg.expm(random_element(alg, np.random.default_rng(8), 0.5))
    non_special = embed(np.diag([2.0] + [1.0] * (m - 1)))
    singular = np.diag([0.0] + [1.0] * (m - 2) + [0.0])
    singular[0] = 1e8
    for bad, message in ((non_special, r"input is not special \(det = \(2\+0j\)\)"),
                         (embed(singular), r"singular input")):
        with pytest.raises(DecompositionError, match=message + "$"):
            iwasawa_decompose(alg, bad)
        with pytest.raises(DecompositionError, match=message + r" at point \(1,\)$"):
            iwasawa_decompose(alg, np.stack([good, bad, good]))
        with pytest.raises(DecompositionError, match=message + r" at point \(1, 0\)$"):
            iwasawa_decompose(alg, np.stack([[good, good], [bad, good]]))


def test_positive_qr_moves_the_phases_into_q(rng):
    for Z in (rng.standard_normal((4, 3, 3)), rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))):
        q, r = positive_qr(Z)
        dg = np.diagonal(r, axis1=-2, axis2=-1)
        assert np.all(dg.real > 0) and np.max(np.abs(dg.imag)) < 1e-15
        np.testing.assert_allclose(q @ r, Z, atol=1e-12)
        np.testing.assert_allclose(q.conj().mT @ q, np.broadcast_to(np.eye(3), q.shape), atol=1e-12)
    # an exactly zero pivot keeps a zero row of r, with no NaN
    with np.errstate(all="raise"):
        _, r = positive_qr(np.diag([1.0, 0.0, 2.0]))
    assert np.all(r[1] == 0) and not np.isnan(r).any()


def test_group_element_k_membership(ws, rng):
    for key in ("sl3r", "sl2c"):
        alg = ws.algebra(key)
        k = random_in_K(alg, rng)
        assert in_K_residual(alg, k.matrix) < 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_independent_rows_match_loop_form_on_rank_deficient_stacks(seed):
    """On a random involutive signed permutation theta and a random theta-stable index set,
    theta_rows keeps, bit for bit, the rows the Gram-Schmidt loop form keeps from the
    rank-deficient stack e_i +/- theta(e_i), as many as its rank."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 13))
    order = rng.permutation(dim)
    pairs = int(rng.integers(0, dim // 2 + 1))
    perm = np.arange(dim)
    a, b = order[: 2 * pairs : 2], order[1 : 2 * pairs : 2]
    perm[a], perm[b] = b, a
    sign = rng.choice([-1.0, 1.0], dim)
    sign[b] = sign[a]  # theta^2 = 1 needs s_i s_pi(i) = 1
    Th = np.zeros((dim, dim))
    Th[perm, np.arange(dim)] = sign
    assert np.array_equal(Th @ Th, np.eye(dim))
    theta = types.SimpleNamespace(dim=dim, theta_perm=perm, theta_sign=sign)
    assert all(np.array_equal(x, y) for x, y in zip(signed_permutation(Th, "theta"), (perm, sign)))
    # a random union of theta-orbits, in increasing order
    idx = np.flatnonzero(rng.random(dim) < 0.6)
    idx = np.union1d(idx, perm[idx])
    for s in (1, -1):
        V = np.eye(dim)[idx] + s * Th.T[idx]
        got = theta_rows(theta, idx, s)
        assert got.tobytes() == independent_rows_reference(V).tobytes(), f"seed {seed}"
        assert len(got) == np.linalg.matrix_rank(V), f"seed {seed}"
    assert len(theta_rows(theta, idx, 1)) + len(theta_rows(theta, idx, -1)) == len(idx)


@pytest.mark.parametrize("field, n", [("R", 2), ("R", 3), ("R", 4), ("R", 8), ("C", 3), ("C", 4), ("C", 6)])
def test_expm_matches_scipy_reference(field, n):
    """expm agrees with scipy's Pade expm to 1e-14 of max|exp M|, and each matrix of a stack
    mixing the scales (so its s) gives, bit for bit, what it gives alone."""
    alg = build_algebra(AlgebraSpec("sl", n, field))
    rng = np.random.default_rng(n)
    M = np.concatenate([alg.from_coords(scale * rng.standard_normal((4, alg.dim))) for scale in (1e-5, 0.3, 0.4)])
    got = expm(M)
    for scale, block in zip((1e-5, 0.3, 0.4), np.split(np.arange(len(M)), 3)):
        ref = scipy.linalg.expm(M[block])
        assert np.max(np.abs(got[block] - ref)) <= 1e-14 * np.max(np.abs(ref)), scale
    for m, g in zip(M, got):
        assert expm(m).tobytes() == g.tobytes()


def test_exp_series_is_the_nilpotent_loop_and_keeps_batch_axes():
    """On nilpotent stacks the series is the finite loop bit for bit; zero and empty stacks keep their shape."""
    rng = np.random.default_rng(5)
    for d in (3, 5, 8):
        M = np.triu(rng.standard_normal((7, d, d)), 1)
        M[2] = 0.0
        assert exp_series(M, d).tobytes() == nilpotent_exp_loop(M).tobytes()
    assert exp_series(np.zeros((5, 3, 3)), 3).tobytes() == np.broadcast_to(np.eye(3), (5, 3, 3)).tobytes()
    assert exp_series(np.zeros((0, 3, 3)), 3).shape == expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)
