import copy
import dataclasses

import numpy as np
import pytest
import scipy.linalg

from conftest import DATA_GRID
from lieorb import parabolic
from lieorb.liecore import AlgebraSpec, ConfigurationError, InconsistencyError, build_algebra, cartan_split
from lieorb.parabolic import chamber_sort, grade_projection, hyperbolic_data, nilpotency_index, z_k_coords
from lieorb.rootspace import maximal_abelian, restricted_roots
from oracles import symmetrized_power_vanishes_bruteforce


def _cold_data(field, n, entries):
    alg = build_algebra(AlgebraSpec("sl", n, field))
    return hyperbolic_data(alg, restricted_roots(alg, maximal_abelian(alg, cartan_split(alg))), entries)


def test_sl2_data(ws):
    data = ws.data("sl2r", (1, -1))
    alg = ws.algebra("sl2r")
    assert data.z_indices == (0,)           # z(c) = span(H)
    assert data.n_dim == 1
    np.testing.assert_allclose(data.n_basis[0], alg.basis[1], atol=0)  # E
    np.testing.assert_allclose(data.T_diag, [2.0])
    assert data.levels == ((2.0, 1),)
    assert data.N0 == 1


def test_sl3_regular_data(ws):
    data = ws.data("sl3r", (1, 0, -1))
    assert data.levels == ((1.0, 2), (2.0, 1))
    # ordered eigenbasis (E12, E23, E13)
    alg = ws.algebra("sl3r")
    E12 = np.zeros((3, 3)); E12[0, 1] = 1
    E23 = np.zeros((3, 3)); E23[1, 2] = 1
    E13 = np.zeros((3, 3)); E13[0, 2] = 1
    np.testing.assert_allclose(data.n_basis[0], E12, atol=0)
    np.testing.assert_allclose(data.n_basis[1], E23, atol=0)
    np.testing.assert_allclose(data.n_basis[2], E13, atol=0)
    assert data.N0 == 1  # (ad E12)(ad E23) lands in the vanished grade 3


def test_sl3_wall_data(ws):
    data = ws.data("sl3r", (1, 1, -2))
    assert len(data.z_indices) == 4
    assert data.n_dim == 2
    assert data.levels == ((3.0, 2),)
    assert data.N0 == 1


def test_sl4_nilpotency_index(ws):
    data = ws.data("sl4r", (3, 1, -1, -3))
    assert data.levels == ((2.0, 3), (4.0, 2), (6.0, 1))
    assert data.N0 == 2
    # brute-force oracle: generic U has (ad U)^3 = 0 but (ad U)^2 != 0
    rng = np.random.default_rng(5)
    saw_square = False
    for _ in range(10):
        U = rng.standard_normal(6)
        A = np.einsum("i,ikj->kj", U, data.adn)
        assert np.max(np.abs(np.linalg.matrix_power(A, 3))) < 1e-12
        if np.max(np.abs(A @ A)) > 1e-6:
            saw_square = True
    assert saw_square


def test_symbolic_power_matches_bruteforce(ws):
    datas = [ws.data(key, entries) for key, entries in DATA_GRID]
    datas += [_cold_data(f, 5, c) for f in "RC" for c in ((4, 2, 0, -2, -4), (3, 3, 0, -2, -4))]
    for data in datas:
        floor_bound = int(data.max_grade / data.min_grade)
        powers = parabolic._symbolic_powers(data.adn)
        for q, power in zip(range(1, floor_bound + 2), powers):
            expected = symmetrized_power_vanishes_bruteforce(data.adn, q)
            assert (not power) == expected, f"c = {data.c_entries}, q = {q}"


@pytest.mark.parametrize("field, n, n0", [("R", 7, 5), ("C", 6, 4)])
def test_desk_scale_regular_nilpotency_index(field, n, n0):
    # regular chamber: s = n distinct entries and N0 = max(1, s - 2)
    data = _cold_data(field, n, tuple(n - 1 - 2 * k for k in range(n)))
    assert data.N0 == n0 == max(1, n - 2)


def test_nilpotency_index_second_route_checks_both_sides(ws, monkeypatch):
    data = ws.data("sl4r", (3, 1, -1, -3))     # N0 = 2
    true_powers = parabolic._symbolic_powers

    def vanishing_from(q_zero):
        def fake(adn):
            for q, power in enumerate(true_powers(adn), 1):
                yield {} if q >= q_zero else (power or {(): np.eye(1)})
        return fake

    monkeypatch.setattr(parabolic, "_symbolic_powers", vanishing_from(2))   # claims N0 = 1
    with pytest.raises(InconsistencyError, match="violates the nilpotency index"):
        nilpotency_index(data)
    monkeypatch.setattr(parabolic, "_symbolic_powers", vanishing_from(4))   # claims N0 = 3
    with pytest.raises(InconsistencyError, match="no sampled power reaches"):
        nilpotency_index(data)


def test_nilpotency_index_integer_gates(ws):
    data = ws.data("sl4r", (3, 1, -1, -3))
    with pytest.raises(InconsistencyError, match=r"nilpotency_index.*not integral.*'3', '1', '-1', '-3'"):
        nilpotency_index(dataclasses.replace(data, adn=0.5 * data.adn))
    # the same N0 in exact arithmetic, but the int64 products would wrap
    with pytest.raises(ConfigurationError, match="int64 range"):
        nilpotency_index(dataclasses.replace(data, adn=2.0**31 * data.adn))


@pytest.mark.parametrize("field", "RC")
@pytest.mark.parametrize("entries", [(101, 100, -201), (1001, 1000, -2001)])
def test_nilpotency_index_large_grade_ratio(field, entries):
    # grades 1, 301, 302 (or 1, 3001, 3002): the grade ratio is far above any
    # power the search reaches, and [E12, E23] = E13 gives (ad U)^2 = 0
    data = _cold_data(field, 3, entries)
    assert int(data.max_grade / data.min_grade) > 300
    assert data.N0 == 1


def test_hyperbolic_data_rejects_bad_brackets(ws):
    alg, rs = ws.algebra("sl3r"), ws.rs("sl3r")
    data = ws.data("sl3r", (1, 0, -1))
    b12, _, b13 = data.b_indices
    # [E12, E13] = 0 in sl(3); planting a z(c) component makes n(c) not closed,
    # planting an E13 component breaks the grading (2 != 1 + 2)
    for target, message in ((data.z_indices[0], "escapes n"), (b13, "violates the eigenvalue grading")):
        bad = copy.copy(alg)
        bad.structure = alg.structure.copy()
        bad.structure[b12, b13, target] = 1.0
        bad.structure[b13, b12, target] = -1.0
        with pytest.raises(InconsistencyError, match=message):
            hyperbolic_data(bad, rs, (1, 0, -1))


def test_nilpotency_respects_floor_bound(ws):
    from conftest import DATA_GRID

    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        assert 1 <= data.N0 <= int(data.max_grade / data.min_grade)


def test_chamber_preconditions(ws):
    alg, rs = ws.algebra("sl3r"), ws.rs("sl3r")
    with pytest.raises(ConfigurationError):
        hyperbolic_data(alg, rs, (-1, 0, 1))     # outside the chamber closure
    with pytest.raises(ConfigurationError):
        hyperbolic_data(alg, rs, (1, 1, -1))     # not traceless
    with pytest.raises(ConfigurationError):
        hyperbolic_data(alg, rs, (0, 0, 0))      # zero
    assert chamber_sort((-1, 0, 1)) == (1, 0, -1)


def test_lambda_covector_roundtrip(ws):
    from lieorb.kkform import dual_element

    data = ws.data("sl3r", (1, 0, -1))
    alg = ws.algebra("sl3r")
    np.testing.assert_allclose(dual_element(alg, data.lam), data.c, atol=1e-10)
    np.testing.assert_allclose(dual_element(alg, np.zeros(alg.dim)), 0.0, atol=1e-12)


def test_grade_projection(ws, rng):
    data = ws.data("sl3r", (1, 0, -1))
    E12, E23, E13 = data.n_basis
    X = E12 + 5.0 * E13
    np.testing.assert_allclose(grade_projection(data, X, "j", 2), 5.0 * E13, atol=1e-12)
    np.testing.assert_allclose(grade_projection(data, X, "le", 2), X, atol=1e-12)
    np.testing.assert_allclose(grade_projection(data, X, "gt", 1), 5.0 * E13, atol=1e-12)
    # complementary projections: pairwise orthogonal, summing to the identity
    Y = data.n_matrix_of(rng.standard_normal(3))
    parts = [grade_projection(data, Y, "j", j) for j in range(3)]
    for j in range(3):
        for k in range(3):
            target = parts[j] if j == k else np.zeros((3, 3))
            np.testing.assert_allclose(grade_projection(data, parts[k], "j", j), target, atol=1e-14)
    np.testing.assert_allclose(sum(parts), Y, atol=0)
    for k in range(3):
        split = grade_projection(data, Y, "le", k) + grade_projection(data, Y, "gt", k)
        np.testing.assert_allclose(split, Y, atol=0)
    with pytest.raises(ValueError):
        grade_projection(data, data.c, "j", 0)   # component outside n(c)


def test_killing_orthogonality_n_vs_parabolic(ws):
    from conftest import DATA_GRID

    for key, entries in DATA_GRID:
        alg = ws.algebra(key)
        data = ws.data(key, entries)
        K = alg.killing_matrix
        for b in data.b_indices:
            v = np.eye(alg.dim)[b]
            for x in data.p_filtration_coords:
                assert abs(float(v @ K @ x)) < 1e-10


def test_half_dimension(ws):
    from conftest import DATA_GRID

    for key, entries in DATA_GRID:
        alg = ws.algebra(key)
        data = ws.data(key, entries)
        assert 2 * data.n_dim == alg.dim - len(data.z_indices)


def test_stabilizer_preserves_levels(ws, rng):
    # Ad(exp tY) for Y in the compact stabilizer preserves each eigenvalue level
    for key, entries in (("sl3r", (1, 1, -2)), ("sl3c", (1, 0, -1))):
        alg = ws.algebra(key)
        data = ws.data(key, entries)
        zk = z_k_coords(data)
        assert zk.shape[0] > 0
        for x in zk:
            m = scipy.linalg.expm(float(rng.uniform(-1, 1)) * alg.from_coords(x))
            m_inv = np.linalg.inv(m)
            for block in data.blocks:
                idx = [data.b_indices[j] for j in block]
                Q, _ = np.linalg.qr(np.eye(alg.dim)[idx].T)
                for j in block:
                    v = alg.coords(m @ data.n_basis[j] @ m_inv)
                    assert np.max(np.abs(v - Q @ (Q.T @ v))) < 1e-9


def test_blocks_are_ordered_partition(ws):
    # the first d_1 + ... + d_k basis vectors span exactly the first k levels
    from conftest import DATA_GRID

    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        flat = np.concatenate(data.blocks)
        np.testing.assert_array_equal(flat, np.arange(data.n_dim))
        offset = 0
        for (nu, dj), block in zip(data.levels, data.blocks):
            np.testing.assert_array_equal(block, np.arange(offset, offset + dj))
            assert all(float(data.grades_exact[j]) == nu for j in block)
            offset += dj


def test_theta_n_is_opposite(ws):
    data = ws.data("sl3r", (1, 0, -1))
    alg = ws.algebra("sl3r")
    for j, V in enumerate(data.n_basis):
        lowered = alg.bracket(data.c, alg.from_coords(data.nbar_coords[j]))
        np.testing.assert_allclose(
            lowered, -data.grades[j] * alg.from_coords(data.nbar_coords[j]), atol=1e-10
        )
