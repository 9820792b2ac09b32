import copy
import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from conftest import DATA_GRID, cold_data
from lieorb import parabolic
from lieorb.liecore import AlgebraSpec, ConfigurationError, InconsistencyError, build_algebra
from lieorb.parabolic import chamber_sort, hyperbolic_data, nilpotency_index, z_k_coords
from oracles import dual_element, grade_projection, hyperbolic_data_per_root, nonzeros_of, p_filtration_coords
from oracles import symmetrized_power_vanishes_bruteforce


def _planted(alg, i, j, k):
    """A copy of alg whose nonzeros hold c[i, j, k] = 1 and c[j, i, k] = -1."""
    c = alg.structure.copy()
    c[i, j, k], c[j, i, k] = 1.0, -1.0
    bad = copy.copy(alg)
    vars(bad).pop("structure", None)  # the copy's dense view is scattered from its own nonzeros
    bad.nonzeros = nonzeros_of(c)
    return bad


def test_sl2_data(ws):
    data = ws.data("sl2r", (1, -1))
    alg = ws.algebra("sl2r")
    assert data.z_indices == (0,)           # z(c) = span(H)
    assert data.n_dim == 1
    np.testing.assert_allclose(data.n_basis[0], alg.basis[1], atol=0)  # E
    np.testing.assert_allclose(data.grades, [2.0])
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


def test_nilpotency_index_matches_bruteforce(ws):
    datas = [ws.data(key, entries) for key, entries in DATA_GRID]
    datas += [cold_data(f, 5, c) for f in "RC" for c in ((4, 2, 0, -2, -4), (3, 3, 0, -2, -4))]
    for data in datas:
        assert symmetrized_power_vanishes_bruteforce(data.adn, data.N0 + 1), f"c = {data.c_entries}"
        if data.N0 >= 2:
            assert not symmetrized_power_vanishes_bruteforce(data.adn, data.N0), f"c = {data.c_entries}"


@pytest.mark.parametrize("field, n, n0", [("R", 7, 5), ("C", 6, 4)])
def test_desk_scale_regular_nilpotency_index(field, n, n0):
    # regular chamber: s = n distinct entries and N0 = max(1, s - 2)
    data = cold_data(field, n, tuple(n - 1 - 2 * k for k in range(n)))
    assert data.N0 == n0 == max(1, n - 2)


def test_nilpotency_index_samples_ad_U_in_one_product(ws, monkeypatch):
    # the sampled ad U stack, as one GEMM over adn, is the per-sample contraction byte for byte
    power, seen = np.linalg.matrix_power, []
    monkeypatch.setattr(np.linalg, "matrix_power", lambda A, k: seen.append(A) or power(A, k))
    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        seen.clear()
        assert nilpotency_index(data) == data.N0
        U = np.random.default_rng(20240801).standard_normal((parabolic.NILPOTENCY_SAMPLES, data.n_dim))
        assert seen[0].tobytes() == np.einsum("si,ikj->skj", U, data.adn).tobytes(), (key, entries)


def test_nilpotency_index_second_route_checks_both_sides(ws, monkeypatch):
    data = ws.data("sl4r", (3, 1, -1, -3))     # N0 = 2
    monkeypatch.setattr(parabolic, "_graded_index", lambda *_: 1)
    with pytest.raises(InconsistencyError,
                       match=r"violates the nilpotency index.*: \|\(ad U\)\^2\| = .* > .* at point \(\d+,\)$"):
        nilpotency_index(data)
    monkeypatch.setattr(parabolic, "_graded_index", lambda *_: 3)
    with pytest.raises(InconsistencyError, match=r"no sampled power reaches.*, sample \d+: .*\(ad U\)\^3\| = .* <= "):
        nilpotency_index(data)


def test_nilpotency_index_rejects_planted_faults(ws):
    alg, rs = ws.algebra("sl4r"), ws.rs("sl4r")
    data = ws.data("sl4r", (3, 1, -1, -3))     # block grade nu / 2, N0 = 2
    at = r"at c = \('3', '1', '-1', '-3'\)$"
    # [V_0, V_1] gains a V_2 component, joining block grades 1 + 1 into 1:
    # the grading that bounds N0 is certified once, in hyperbolic_data
    b0, b1, b2 = data.b_indices[:3]
    assert data.block_grades[:3].tolist() == [1, 1, 1]
    bad = _planted(alg, b0, b1, b2)
    with pytest.raises(InconsistencyError, match=f"violates the root-weight grading {at}"):
        hyperbolic_data(bad, rs, (3, 1, -1, -3))
    # dropping every bracket into the top block keeps the grading but kills (ad U)^2
    flat = data.adn.copy()
    flat[:, data.grades == 6.0, :] = 0.0
    with pytest.raises(InconsistencyError, match=f"integer witness .* vanishes {at}"):
        nilpotency_index(dataclasses.replace(data, adn=flat))


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
    # grades 1, 301, 302 (or 1, 3001, 3002): the grade ratio is far above
    # N0 = max(1, s - 2), and [E12, E23] = E13 gives (ad U)^2 = 0
    data = cold_data(field, 3, entries)
    assert int(max(data.grades_exact) / min(data.grades_exact)) > 300
    assert data.N0 == 1


def test_nilpotency_index_past_the_row_sum_bound():
    # sl(16, R) regular, B = 15: a row-sum bound on the whole power (ad U)^14 refused it,
    # while the one column the witness needs stays small
    data = cold_data("R", 16, tuple(15 - 2 * k for k in range(16)))
    assert data.N0 == 14


def test_hyperbolic_data_rejects_bad_brackets(ws):
    alg, rs = ws.algebra("sl3r"), ws.rs("sl3r")
    data = ws.data("sl3r", (1, 0, -1))
    b12, _, b13 = data.b_indices
    # [E12, E13] = 0 in sl(3); planting a z(c) component makes n(c) not closed,
    # planting an E13 component breaks the grading (2 != 1 + 2)
    for target, message in ((data.z_indices[0], "escapes n"), (b13, "violates the root-weight grading")):
        bad = _planted(alg, b12, b13, target)
        with pytest.raises(InconsistencyError, match=message):
            hyperbolic_data(bad, rs, (1, 0, -1))


def test_hyperbolic_data_errors_name_the_chamber(ws):
    alg, rs = ws.algebra("sl3r"), ws.rs("sl3r")
    data = ws.data("sl3r", (1, 0, -1))
    b12, _, b13 = data.b_indices
    at = r"at c = \('1', '0', '-1'\)$"
    for target, message in ((data.z_indices[0], "escapes n"), (b13, "violates the root-weight grading")):
        bad = _planted(alg, b12, b13, target)
        with pytest.raises(InconsistencyError, match=f"{message}.* {at}"):
            hyperbolic_data(bad, rs, (1, 0, -1))
    # with the row of E12 in the table flipped to -(e1 - e2), off the positive system, n(c) and its
    # opposite miss two dimensions of g/z(c)
    flipped = [b for b in range(alg.dim) if rs.weights[b].tolist() == [1, -1, 0]]
    assert flipped == [b12]
    W = rs.weights.copy()
    W[b12] *= -1
    with pytest.raises(InconsistencyError, match=f"half the dimension of g/z\\(c\\) {at}"):
        hyperbolic_data(alg, dataclasses.replace(rs, weights=W), (1, 0, -1))


@pytest.mark.parametrize("key, entries", DATA_GRID)
def test_adn_is_the_dense_block_byte_for_byte(ws, key, entries):
    """adn, read off the nonzeros, is the block of the dense structure constants, signed zeros included."""
    data, alg = ws.data(key, entries), ws.algebra(key)
    sel = list(data.b_indices)
    block = alg.structure[np.ix_(sel, sel)][:, :, sel].transpose(0, 2, 1)
    assert data.adn.tobytes() == np.ascontiguousarray(block).tobytes()


def _outcome(build, alg, rs, entries):
    """What build makes of the chamber: its HyperbolicData's fields, byte for byte, or its refusal."""
    try:
        d = build(alg, rs, entries)
    except (ConfigurationError, InconsistencyError) as exc:
        return type(exc), str(exc)
    return (d.z_indices, d.b_indices, d.grades_exact, d.levels, d.block_grades.dtype, d.block_grades.tobytes(),
            d.adn.shape, d.adn.tobytes(), d.N0)


def _chamber_sweep(n, rng, count):
    """count seeded traceless rational chambers, walls and repeated entries among them; every other one sorted."""
    out = []
    for q in range(count):
        head = [Fraction(int(a), int(b)) for a, b in zip(rng.integers(-3, 4, n - 1), rng.choice([1, 2, 3], n - 1))]
        entries = (*head, -sum(head))
        out.append(chamber_sort(entries) if q % 2 else entries)
    return out


def test_hyperbolic_data_matches_the_per_root_reference(ws):
    """Read off the weight table, hyperbolic_data builds what the per-root construction builds, byte for
    byte, and refuses what it refuses with the same error: on DATA_GRID, on a seeded sweep of sorted and
    unsorted chambers, and on the planted bracket faults."""
    rng = np.random.default_rng(32)
    cases = [(ws.algebra(key), ws.rs(key), entries) for key, entries in DATA_GRID]
    for key in ("sl2r", "sl3r", "sl4r", "sl5r", "sl2c", "sl3c", "sl4c"):
        alg, rs = ws.algebra(key), ws.rs(key)
        cases += [(alg, rs, entries) for entries in _chamber_sweep(alg.n, rng, 12)]
    alg, rs = ws.algebra("sl3r"), ws.rs("sl3r")
    data = ws.data("sl3r", (1, 0, -1))
    b12, _, b13 = data.b_indices
    cases += [(_planted(alg, b12, b13, target), rs, (1, 0, -1)) for target in (data.z_indices[0], b13)]
    refused = 0
    for alg, rs, entries in cases:
        want = _outcome(hyperbolic_data_per_root, alg, rs, entries)
        assert _outcome(hyperbolic_data, alg, rs, entries) == want, (alg.spec, entries)
        refused += isinstance(want[0], type)
    assert 2 < refused < len(cases) - len(DATA_GRID)


@pytest.mark.parametrize("n", [3, 4])
def test_hyperbolic_data_refuses_another_algebra(ws, n):
    """The algebra must be the one the roots were found in; the error names both specs."""
    real, complex_ = AlgebraSpec("sl", n, "R"), AlgebraSpec("sl", n, "C")
    with pytest.raises(ConfigurationError, match=f"{re.escape(str(complex_))}.*{re.escape(str(real))}"):
        hyperbolic_data(build_algebra(complex_), ws.rs(f"sl{n}r"), range(n - 1, -n, -2))


def test_nilpotency_respects_floor_bound(ws):
    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        assert 1 <= data.N0 <= int(max(data.grades_exact) / min(data.grades_exact))


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
    data = ws.data("sl3r", (1, 0, -1))
    alg = ws.algebra("sl3r")
    lam = alg.killing_matrix @ alg.coords(data.c)  # B(c, .) in dual coordinates
    np.testing.assert_allclose(dual_element(alg, lam), data.c, atol=1e-10)
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
    from conftest import DATA_GRID, cold_data

    for key, entries in DATA_GRID:
        alg = ws.algebra(key)
        data = ws.data(key, entries)
        K = alg.killing_matrix
        for b in data.b_indices:
            v = np.eye(alg.dim)[b]
            for x in p_filtration_coords(data):
                assert abs(float(v @ K @ x)) < 1e-10


def test_half_dimension(ws):
    from conftest import DATA_GRID, cold_data

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
            for block in _level_blocks(data):
                idx = [data.b_indices[j] for j in block]
                Q, _ = np.linalg.qr(np.eye(alg.dim)[idx].T)
                for j in block:
                    v = alg.coords(m @ data.n_basis[j] @ m_inv)
                    assert np.max(np.abs(v - Q @ (Q.T @ v))) < 1e-9


def _level_blocks(data):
    """The V-indices of each eigenvalue level, in increasing grade."""
    return [np.flatnonzero([g == nu for g in data.grades_exact]) for nu in sorted(set(data.grades_exact))]


def test_blocks_are_ordered_partition(ws):
    # the first d_1 + ... + d_k basis vectors span exactly the first k levels
    from conftest import DATA_GRID, cold_data

    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        blocks = _level_blocks(data)
        flat = np.concatenate(blocks)
        np.testing.assert_array_equal(flat, np.arange(data.n_dim))
        assert len(blocks) == len(data.levels)
        offset = 0
        for (nu, dj), block in zip(data.levels, blocks):
            np.testing.assert_array_equal(block, np.arange(offset, offset + dj))
            assert all(float(data.grades_exact[j]) == nu for j in block)
            offset += dj


@pytest.mark.parametrize("field, entries", [("R", (3, 3, 0, -2, -4)), ("R", (1000, 1, 0, -1001)), ("C", (2, 0, 0, -2))])
def test_block_grades_count_the_distinct_entries_crossed(field, entries):
    # V_j sits at matrix position (a, b) (or (a, b + n) over C); its block
    # grade is the number of distinct entries of c in [c_b, c_a), counted
    # from the matrix, not from the root weights
    data = cold_data(field, len(entries), entries)
    n = len(entries)
    distinct = sorted(set(entries))
    for j, V in enumerate(data.n_basis):
        a, b = (int(x) % n for x in np.argwhere(V != 0)[0])
        crossed = sum(entries[b] <= e < entries[a] for e in distinct)
        assert data.block_grades[j] == crossed, (entries, j)
    assert data.block_grades.max() == len(distinct) - 1 and data.N0 == max(1, len(distinct) - 2)


def test_theta_n_is_opposite(ws):
    data = ws.data("sl3r", (1, 0, -1))
    alg = ws.algebra("sl3r")
    for j, V in enumerate(data.n_basis):
        lowered = alg.bracket(data.c, alg.theta(V))
        np.testing.assert_allclose(lowered, -data.grades[j] * alg.theta(V), atol=1e-10)


def test_n_coords_of_gathers_the_coordinates_bit_for_bit(ws):
    # the gather equals the full coordinate map restricted to n(c), sign of
    # zero included, for X with a z(c) and trace part, a conjugate-linear
    # part over C, exact zeros of both signs, and batch axes
    datas = [ws.data(key, entries) for key, entries in DATA_GRID]
    datas += [cold_data("R", 8, (7, 5, 3, 1, -1, -3, -5, -7)), cold_data("C", 6, (5, 3, 1, -1, -3, -5))]
    for data in datas:
        alg, rng = data.algebra, np.random.default_rng(61)
        d, want = alg.d, list(data.b_indices)
        exact = alg.from_coords(np.where(rng.random((4, alg.dim)) < 0.5, rng.integers(-2, 3, (4, alg.dim)), 0.0))
        Xs = [
            rng.standard_normal((d, d)),                            # every part: trace, z(c), nbar(c), conjugate-linear
            alg.from_coords(rng.standard_normal(alg.dim)) + np.eye(d),
            rng.standard_normal((2, 3, d, d)),
            exact,                                                  # exact zeros, -0.0 among them over C
            rng.choice(np.array([0.0, -0.0, 1.0, -1.0]), (5, d, d)),
            rng.standard_normal((d, d, 3)).transpose(2, 0, 1),      # a batch that is not C-contiguous
        ]
        if alg.is_complex:
            J = alg.J
            conj = rng.standard_normal((d, d))
            Xs.append(conj + J @ conj @ J)                          # anticommutes with J: conjugate-linear only
            assert not data.n_coords_of(Xs[-1]).any()
        for X in Xs:
            got, ref = data.n_coords_of(X), alg.coords(X)[..., want]
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (data.c_entries, X.shape)
        with pytest.raises(ValueError, match="dimension mismatch"):
            data.n_coords_of(np.zeros((d + 1, d + 1)))
