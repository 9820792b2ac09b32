import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import ALGEBRA_SPECS
from lieorb import checks, rootspace
from lieorb.liecore import (
    TOL_EIGEN,
    AlgebraSpec,
    ConfigurationError,
    InconsistencyError,
    build_algebra,
    cartan_split,
    embed_complex,
    theta_rows,
)
from lieorb.parabolic import hyperbolic_data, z_k_coords
from lieorb.rootspace import (
    k_from_roots_check,
    maximal_abelian,
    positive_system,
    restricted_roots,
    weight_code,
)
from oracles import (
    independent_rows_reference,
    inner,
    inner_matrix_dense,
    integer_weights_reference,
    k_from_roots_dense,
    nbar_coords_dense,
    negative_of,
    orthonormalize_gram_schmidt,
    outside_span,
    positive_system_float,
    projector_onto,
    restricted_roots_dense,
    restricted_roots_eigen_reference,
    root_value_on,
    theta_dense,
    theta_pairing_dense,
    theta_rows_isin,
)


def test_maximal_abelian_dimensions(ws):
    a2 = maximal_abelian(ws.algebra("sl2r"), ws.split("sl2r"))
    assert a2.shape[0] == 1
    np.testing.assert_allclose(a2[0] / a2[0][0, 0], np.diag([1.0, -1.0]), atol=1e-12)
    a3 = maximal_abelian(ws.algebra("sl3r"), ws.split("sl3r"))
    assert a3.shape[0] == 2
    a2c = maximal_abelian(ws.algebra("sl2c"), ws.split("sl2c"))
    assert a2c.shape[0] == 1


def test_maximal_abelian_commutant_rank_oracle(ws):
    # independent certificate: the joint kernel of ad(a) inside p has dim = dim a
    for key in ("sl3r", "sl2c"):
        alg, split = ws.algebra(key), ws.split(key)
        a = maximal_abelian(alg, split)
        rows = [alg.ad_matrix_of(H) @ split.p_coords.T for H in a]
        sv = np.linalg.svd(np.concatenate(rows), compute_uv=False)
        kernel = split.p_coords.shape[0] - int(np.sum(sv > 1e-9 * sv[0]))
        assert kernel == a.shape[0]


def test_roots_sl3(ws):
    rs = ws.rs("sl3r")
    assert len(rs.roots) == 6
    wanted = set()
    for i in range(3):
        for j in range(3):
            if i != j:
                w = [0, 0, 0]
                w[i], w[j] = 1, -1
                wanted.add(tuple(w))
    got = {tuple(int(x) for x in r.weights) for r in rs.roots}
    assert got == wanted
    assert all(r.multiplicity == 1 for r in rs.roots)


@pytest.mark.parametrize("key", ALGEBRA_SPECS)
def test_weight_table_agrees_with_the_roots(ws, key):
    """rs.weights holds each root's weights on its members, 0 on g_0, and each nonzero row in one root."""
    rs = ws.rs(key)
    W = rs.weights
    assert W.dtype == np.int64 and W.shape == (rs.algebra.dim, rs.algebra.n) and not W.flags.writeable
    owners = np.zeros(rs.algebra.dim, dtype=int)
    for r in rs.roots:
        assert np.all(W[r.members] == r.weights), r.weights
        owners[r.members] += 1
    assert not W[rs.zero_indices].any()
    nonzero = W.any(axis=1)
    assert nonzero.sum() == rs.algebra.dim - len(rs.zero_indices)
    assert np.all(owners[nonzero] == 1) and not owners[~nonzero].any()


def test_roots_sl3_eigen_oracle(ws):
    # brute-force eigen-decomposition of ad(diag(2,1,-3)) matches the weights
    alg, rs = ws.algebra("sl3r"), ws.rs("sl3r")
    H = alg.element_from_entries([2, 1, -3])
    A = alg.ad_matrix_of(H)
    ev = np.sort_complex(np.linalg.eigvals(A)).real
    want = sorted([2 - 1, 2 + 3, 1 - 2, 1 + 3, -3 - 2, -3 - 1] + [0, 0])
    np.testing.assert_allclose(np.sort(ev), np.sort(np.array(want, float)), atol=1e-9)


def test_roots_sl2(ws):
    alg, rs = ws.algebra("sl2r"), ws.rs("sl2r")
    H, E, F = alg.basis
    pos = positive_system(rs)
    assert len(pos) == 1
    alpha = pos[0]
    assert root_value_on(alg, alpha, H) == pytest.approx(2.0)
    assert alpha.multiplicity == 1
    np.testing.assert_allclose(alg.basis[alpha.members[0]], E, atol=1e-12)


def test_roots_realified_multiplicity(ws):
    alg, rs = ws.algebra("sl2c"), ws.rs("sl2c")
    assert len(rs.roots) == 2
    for r in rs.roots:
        assert r.multiplicity == 2
    pos = positive_system(rs)[0]
    # root space spanned by E and iE
    E, iE = alg.basis[pos.members]
    np.testing.assert_allclose(E @ alg.J, iE, atol=1e-12)


def test_root_vector_defining_relation(ws):
    for key in ("sl3r", "sl3c"):
        alg, rs = ws.algebra(key), ws.rs(key)
        for r in rs.roots:
            for H, val in zip(rs.a_basis, r.functional):
                for X in alg.basis[r.members]:
                    assert np.max(np.abs(alg.bracket(H, X) - val * X)) < 1e-9


def test_a_basis_orthonormal(ws):
    for key in ("sl4r", "sl3c"):
        alg, rs = ws.algebra(key), ws.rs(key)
        G = np.array([[inner(alg, A, B) for B in rs.a_basis] for A in rs.a_basis])
        np.testing.assert_allclose(G, np.eye(rs.rank), atol=1e-10)


def test_positive_system_sl3(ws):
    rs = ws.rs("sl3r")
    pos = positive_system(rs)
    got = {tuple(int(x) for x in r.weights) for r in pos}
    assert got == {(1, -1, 0), (0, 1, -1), (1, 0, -1)}
    neg = [r for r in rs.roots if all(r is not p for p in pos)]
    assert {tuple(-r.weights) for r in neg} == got
    # closure under addition within the root set
    weights = {tuple(int(x) for x in r.weights) for r in rs.roots}
    for a in pos:
        for b in pos:
            s = tuple(int(x) for x in (a.weights + b.weights))
            if s in weights:
                assert s in got


def test_k_from_roots(ws):
    assert k_from_roots_check(ws.rs("sl2r"), ws.split("sl2r")) < 1e-12
    assert k_from_roots_check(ws.rs("sl3r"), ws.split("sl3r")) < 1e-9
    assert k_from_roots_check(ws.rs("sl2c"), ws.split("sl2c")) < 1e-9


def test_m_is_compact_cartan_part_realified(ws):
    alg, rs = ws.algebra("sl2c"), ws.rs("sl2c")
    assert rs.m_coords.shape[0] == 1
    x = rs.m_coords[0]
    # collinear with the coordinate direction of iH (basis index 1)
    assert abs(x[1]) > 1e-9
    np.testing.assert_allclose(x / x[1], np.eye(alg.dim)[1], atol=1e-12)
    assert ws.rs("sl3r").m_coords.shape[0] == 0


def test_dimension_bookkeeping(ws):
    for key in ("sl2r", "sl3r", "sl4r", "sl2c", "sl3c"):
        alg, rs = ws.algebra(key), ws.rs(key)
        total = rs.m_coords.shape[0] + rs.rank + sum(r.multiplicity for r in rs.roots)
        assert total == alg.dim


@pytest.mark.parametrize("plant, message", [("key", "root system is not symmetric"),
                                            ("count", "asymmetric multiplicities")])
def test_bookkeeping_refuses_an_asymmetric_root_system(ws, monkeypatch, plant, message):
    """_check_bookkeeping, given the weight codes, group sizes and root order that restricted_roots built for
    sl(3, C), refuses a largest code with no negative and a multiplicity moved between two roots, while the
    dimensions still add up."""
    alg, seen = ws.algebra("sl3c"), []
    monkeypatch.setattr(rootspace, "_check_bookkeeping", lambda *args: seen.append(args))
    restricted_roots(alg, maximal_abelian(alg, ws.split("sl3c")))
    monkeypatch.undo()
    [(rs, keys, counts, order)] = seen
    rootspace._check_bookkeeping(rs, keys, counts, order)
    keys, counts = keys.copy(), counts.copy()
    if plant == "key":
        keys[-1] += 1  # the largest code, still sorted; neither it nor its old negative has a partner
    else:
        w, u = order[0], order[1]
        assert keys[u] != -keys[w] and set(counts[order]) == {2}
        counts[w] += 1  # w and -w now differ by one, and so do u and -u
        counts[u] -= 1
    assert len(rs.zero_indices) + counts[order].sum() == alg.dim
    with pytest.raises(InconsistencyError, match=f"^{message}$"):
        rootspace._check_bookkeeping(rs, keys, counts, order)


def test_theta_pairing(ws):
    for key in ("sl3r", "sl3c"):
        alg, rs = ws.algebra(key), ws.rs(key)
        for r in rs.roots:
            neg = negative_of(rs, r)
            for x in np.eye(alg.dim)[r.members]:
                assert outside_span(np.eye(alg.dim)[neg.members], theta_dense(alg) @ x) < 1e-9


def test_bracket_grading(ws):
    for key in ("sl3r", "sl4r", "sl3c"):
        alg, rs = ws.algebra(key), ws.rs(key)
        weights = {tuple(int(x) for x in r.weights): r for r in rs.roots}
        for ra in rs.roots:
            for rb in rs.roots:
                target = tuple(int(x) for x in (ra.weights + rb.weights))
                if not any(target):
                    span = np.eye(alg.dim)[rs.zero_indices]
                elif target in weights:
                    span = np.eye(alg.dim)[weights[target].members]
                else:
                    span = None
                for X in alg.basis[ra.members]:
                    for Y in alg.basis[rb.members]:
                        v = alg.coords(alg.bracket(X, Y))
                        if span is None:
                            assert np.max(np.abs(v)) < 1e-9
                        else:
                            assert outside_span(span, v) < 1e-9


def test_root_system_symmetric_and_reduced(ws):
    for key in ("sl3r", "sl3c"):
        rs = ws.rs(key)
        weights = {tuple(int(x) for x in r.weights) for r in rs.roots}
        assert weights == {tuple(-w for w in t) for t in weights}
        # sl restricted systems are reduced: alpha/2 is never a root
        for t in weights:
            assert tuple(w / 2 for w in t) not in weights


def test_zero_space_meets_p_in_a(ws):
    for key in ("sl3r", "sl2c"):
        alg, rs, split = ws.algebra(key), ws.rs(key), ws.split(key)
        Pz = projector_onto(np.eye(alg.dim)[rs.zero_indices])
        Pp = projector_onto(split.p_coords)
        # intersection projector rank equals rank of a
        inter = Pz @ Pp
        sv = np.linalg.svd(inter, compute_uv=False)
        assert int(np.sum(sv > 1 - 1e-8)) == rs.rank


@pytest.mark.parametrize("key", sorted(ALGEBRA_SPECS))
def test_positive_system_matches_float_evaluation(ws, key):
    """The integer sign rule picks, in order, the roots the float evaluation on diag(n-1, ..., 1-n) picks."""
    rs = ws.rs(key)
    assert [id(r) for r in positive_system(rs)] == [id(r) for r in positive_system_float(rs)]


# -- batched structure helpers against their loop forms ------------------------

# every ALGEBRA_SPECS key, then sl(5..6, R/C) built cold as (field, n)
STRUCTURE_CASES = list(ALGEBRA_SPECS) + [(field, n) for field in ("R", "C") for n in (5, 6)]
CASE_IDS = [c if isinstance(c, str) else f"sl{c[1]}{c[0].lower()}" for c in STRUCTURE_CASES]


def _structure(ws, case):
    """(algebra, root system, hyperbolic data at the regular chamber) for a case."""
    if case in ALGEBRA_SPECS:
        alg = ws.algebra(case)
        return alg, ws.rs(case), ws.data(case, tuple(alg.n - 1 - 2 * k for k in range(alg.n)))
    field, n = case
    alg = build_algebra(AlgebraSpec("sl", n, field))
    rs = restricted_roots(alg, maximal_abelian(alg, cartan_split(alg)))
    return alg, rs, hyperbolic_data(alg, rs, tuple(n - 1 - 2 * k for k in range(n)))


@pytest.mark.parametrize("case", STRUCTURE_CASES, ids=CASE_IDS)
def test_integer_weights_match_loop_form(ws, case):
    alg, rs, _ = _structure(ws, case)
    X = np.concatenate([alg.basis[r.members] for r in rs.roots])
    expected = np.array([integer_weights_reference(alg, x) for x in X])
    got = rootspace._integer_weights(alg, X)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
    owner = np.repeat(np.arange(len(rs.roots)), [r.multiplicity for r in rs.roots])
    assert np.array_equal(expected, np.stack([r.weights for r in rs.roots])[owner])


DENSE_CASES = STRUCTURE_CASES + [("R", 8), ("C", 10)]


@pytest.mark.parametrize("case", DENSE_CASES, ids=CASE_IDS + ["sl8r", "sl10c"])
def test_restricted_roots_byte_equal_to_the_dense_forms(ws, case):
    """restricted_roots and cartan_split, read off the basis's nonzero entries, give bit for bit what
    the dense (n, d, d) weight and (rank, dim, d, d) bracket stacks give."""
    field, n = case if isinstance(case, tuple) else (ALGEBRA_SPECS[case].field, ALGEBRA_SPECS[case].n)
    alg = build_algebra(AlgebraSpec("sl", n, field))
    split = cartan_split(alg)
    a = maximal_abelian(alg, split)
    rs = restricted_roots(alg, a)
    W, roots, a_coords, zero_indices, m_coords = restricted_roots_dense(alg, a)
    pairs = [(rs.weights, W), (rs.a_coords, a_coords), (rs.zero_indices, zero_indices), (rs.m_coords, m_coords)]
    every = np.arange(alg.dim)
    pairs += [(split.k_coords, theta_rows_isin(alg, every, 1)), (split.p_coords, theta_rows_isin(alg, every, -1))]
    assert len(rs.roots) == len(roots)
    for r, (functional, weights, members) in zip(rs.roots, roots):
        pairs += [(r.functional, functional), (r.weights, weights), (r.members, members)]
    for got, expected in pairs:
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_restricted_roots_peak_memory():
    # no (rank, dim, d, d) or (dim, n, d, d) stack: one cold call at sl(10, C)
    # peaked at 18.2 MiB on those stacks, and at 0.3 MiB on the nonzero entries
    alg = build_algebra(AlgebraSpec("sl", 10, "C"))
    a = maximal_abelian(alg, cartan_split(alg))
    tracemalloc.start()
    try:
        restricted_roots(alg, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_weight_code_refuses_codes_past_int64():
    """Codes of n weight entries up to 1 are base-4 numbers: code_i + code_j stays in int64 up to
    n = 31 and may not from n = 32 on, which is refused before any code is formed."""
    W = np.zeros((1, 32), dtype=np.int64)
    W[0, 0], W[0, -1] = -1, 1
    message = r"^weight_code: codes of 32 entries up to 1 in size pass the int64 bound 2\^63$"
    with pytest.raises(ConfigurationError, match=message):
        weight_code(W)
    W31 = np.delete(W, 0, axis=1)
    W31[0, 0] = -1
    assert weight_code(W31).tolist() == [4**30 - 1]


@pytest.mark.parametrize("case", STRUCTURE_CASES, ids=CASE_IDS)
def test_root_spaces_match_eigensolver_clusters(ws, case):
    """The integer-weight root spaces and g_0 are exactly the clusters of the sequential eigensolve,
    and each root's functional matches its cluster's eigenvalues."""
    alg, rs, _ = _structure(ws, case)
    clusters = restricted_roots_eigen_reference(alg, maximal_abelian(alg, cartan_split(alg)))
    zero = [members for members, vals in clusters if np.max(np.abs(vals)) < TOL_EIGEN]
    assert len(zero) == 1 and np.array_equal(zero[0], rs.zero_indices)
    by_members = {tuple(members): vals for members, vals in clusters}
    assert len(by_members) == len(clusters) == len(rs.roots) + 1
    for r in rs.roots:
        vals = by_members[tuple(r.members)]
        assert np.max(np.abs(vals - r.functional)) < TOL_EIGEN


@pytest.mark.parametrize("case", STRUCTURE_CASES, ids=CASE_IDS)
def test_independent_rows_match_loop_form_on_structure_inputs(ws, case):
    """theta_rows keeps, bit for bit, the rows the Gram-Schmidt loop form keeps from e_i +/- theta(e_i):
    k and p over the algebra, m over g_0, and k meet z(c) at the regular chamber and at the wall."""
    alg, rs, data = _structure(ws, case)
    split = cartan_split(alg)
    every = np.arange(alg.dim)
    n = alg.n
    regular = [n - 1 - 2 * k for k in range(n)]
    wall = (regular[0] + regular[1]) // 2
    # sl(2) has no nonzero wall
    datas = [data] if n == 2 else [data, hyperbolic_data(alg, rs, (wall, wall, *regular[2:]))]
    stacks = [(split.k_coords, every, 1), (split.p_coords, every, -1), (rs.m_coords, rs.zero_indices, 1)]
    stacks += [(z_k_coords(d), list(d.z_indices), 1) for d in datas]
    for got, idx, sign in stacks:
        expected = independent_rows_reference(np.eye(alg.dim)[idx] + sign * theta_dense(alg).T[idx])
        assert theta_rows(alg, idx, sign).tobytes() == got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("field, n", [("R", n) for n in range(2, 9)] + [("C", n) for n in range(2, 7)])
def test_theta_index_forms_match_the_dense_theta(field, n):
    """inner_matrix (in its C order), the theta pairing (also with one root's weight planted wrong)
    and k_from_roots_check, read off (theta_perm, theta_sign), equal byte for byte what the dense
    theta gives; theta(n_basis) at the regular chamber equals the dense theta's rows up to the
    sign of zero."""
    alg = build_algebra(AlgebraSpec("sl", n, field))
    split = cartan_split(alg)
    rs = restricted_roots(alg, maximal_abelian(alg, split))
    dense = inner_matrix_dense(alg)
    assert alg.inner_matrix.tobytes() == dense.tobytes()
    assert alg.inner_matrix.flags.c_contiguous and dense.flags.c_contiguous
    data = hyperbolic_data(alg, rs, [n - 1 - 2 * k for k in range(n)])
    dense = alg.from_coords(nbar_coords_dense(alg, data.b_indices))
    assert (alg.theta(data.n_basis) + 0.0).tobytes() == (dense + 0.0).tobytes()
    k_roots = checks._roots_values(rs, split)[3]
    assert np.float64(k_roots).tobytes() == np.float64(k_from_roots_dense(rs, split)).tobytes()
    pairings = []
    for r in (None, 0, len(rs.roots) - 1):
        W = rs.weights.copy()
        if r is not None:
            W[rs.roots[r].members] *= 2  # a weight that theta(X) of the negative root space does not carry
        planted = dataclasses.replace(rs, weights=W)
        pairings.append(checks._roots_values(planted, split)[2])
        assert np.float64(pairings[-1]).tobytes() == np.float64(theta_pairing_dense(planted)).tobytes()
    assert pairings == [0.0, 1.0, 1.0]


def test_theta_rows_reject_an_index_set_that_is_not_theta_stable(ws):
    alg = ws.algebra("sl3r")
    # basis index 2 is E_01, whose theta partner -E_10 lies outside the set
    assert alg.theta_perm[2] not in (0, 1, 2)
    with pytest.raises(InconsistencyError, match="not theta-stable"):
        theta_rows(alg, [0, 1, 2], 1)


# -- planted faults on the batched error paths ---------------------------------


def test_orthonormalize_refuses_dependent_elements(ws):
    alg = ws.algebra("sl3r")
    a = maximal_abelian(alg, ws.split("sl3r"))
    with pytest.raises(InconsistencyError, match="dependent vectors in abelian subspace"):
        rootspace._orthonormalize(alg, np.stack([a[0], a[0]]))


@pytest.mark.parametrize("n, eps", [(3, 1e-13), (8, 1e-9)])
def test_orthonormalize_refuses_a_nearly_dependent_pair(n, eps):
    """(a_0, a_0 + eps a_1) over sl(n, R).  At sl(3, R), 1e-13, the second Gram-Schmidt norm is
    below 1e-12, and the Gram rounds that pivot to zero.  At sl(8, R), 1e-9, every pivot of L is
    above 1e-12 but carries the Gram's rounding: L^-1 X is far from orthonormal, and only the
    orthonormality certificate refuses it (Gram-Schmidt accepts it, off by about 2e-7)."""
    alg = build_algebra(AlgebraSpec("sl", n, "R"))
    a = maximal_abelian(alg, cartan_split(alg))
    pair = np.stack([a[0], a[0] + eps * a[1]])
    with pytest.raises(InconsistencyError, match="dependent vectors in abelian subspace"):
        rootspace._orthonormalize(alg, pair)
    if n == 3:
        with pytest.raises(InconsistencyError, match="dependent vectors in abelian subspace"):
            orthonormalize_gram_schmidt(alg, pair)
    else:
        X = alg.coords(pair)
        assert np.diagonal(np.linalg.cholesky(X @ alg.inner_matrix @ X.T)).min() >= 1e-12


@pytest.mark.parametrize("field", ["R", "C"])
def test_orthonormalize_matches_gram_schmidt(monkeypatch, field):
    """The Cholesky QR a-basis is within 1e-15 of the Gram-Schmidt oracle's and orthonormal to
    1e-15, and the roots keep the order of weights that the oracle's a-basis gives them."""
    for n in range(2, 9 if field == "R" else 7):
        alg = build_algebra(AlgebraSpec("sl", n, field))
        a = maximal_abelian(alg, cartan_split(alg))
        a_coords, _ = rootspace._orthonormalize(alg, a)
        ref_coords, _ = orthonormalize_gram_schmidt(alg, a)
        assert np.max(np.abs(a_coords - ref_coords)) <= 1e-15, n
        assert np.max(np.abs(a_coords @ alg.inner_matrix @ a_coords.T - np.eye(len(a)))) <= 1e-15, n
        order = [r.weights.tolist() for r in restricted_roots(alg, a).roots]
        with monkeypatch.context() as m:
            m.setattr(rootspace, "_orthonormalize", orthonormalize_gram_schmidt)
            assert [r.weights.tolist() for r in restricted_roots(alg, a).roots] == order, n


@pytest.mark.parametrize("field, n", [("R", 3), ("R", 5), ("C", 3), ("C", 4)])
def test_planted_non_maximal_abelian_is_rejected(field, n):
    """maximal_abelian makes no rank test; a subspace of a that is not maximal abelian in p
    is caught by the exact bookkeeping of restricted_roots."""
    alg = build_algebra(AlgebraSpec("sl", n, field))
    a = maximal_abelian(alg, cartan_split(alg))
    assert len(a) == n - 1
    with pytest.raises(InconsistencyError, match="g_0 does not split as m \\+ a"):
        restricted_roots(alg, a[:-1])


def test_planted_non_weight_vector_is_rejected():
    alg = build_algebra(AlgebraSpec("sl", 3, "R"))
    a = maximal_abelian(alg, cartan_split(alg))
    basis = alg.basis.copy()
    basis[2] = basis[2] + 0.5 * basis[2].T  # E_01 + E_10 / 2 carries no single weight
    alg.basis = basis
    with pytest.raises(InconsistencyError, match="root vector is not a diagonal weight vector"):
        restricted_roots(alg, a)


def test_planted_cluster_not_spanned_by_basis_vectors():
    alg = build_algebra(AlgebraSpec("sl", 2, "R"))
    # E_01 + E_10 lies in p, but ad of it has eigenvectors off the basis
    a = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    with pytest.raises(InconsistencyError, match="joint eigenspace is not spanned by basis vectors"):
        restricted_roots(alg, a)


def test_planted_a_basis_perturbation_is_rejected(monkeypatch):
    alg = build_algebra(AlgebraSpec("sl", 3, "R"))
    a = maximal_abelian(alg, cartan_split(alg))
    orthonormalize = rootspace._orthonormalize
    # off the diagonal, so the root functionals and eigenvalues still agree
    bump = 1e-6 * (alg.basis[2] + alg.basis[2].T)

    def perturbed(algebra, mats):
        a_coords, a_basis = orthonormalize(algebra, mats)
        return a_coords, a_basis + bump

    monkeypatch.setattr(rootspace, "_orthonormalize", perturbed)
    with pytest.raises(InconsistencyError, match="root vector residual"):
        restricted_roots(alg, a)


def test_planted_weight_on_g0_is_rejected_by_the_bracket_certificate(monkeypatch):
    """A root vector given weight 0 claims to lie in g_0; the g_0 half of the certificate,
    [H, X] = 0 on g_0, sees it before any later check (theta-stability of g_0, bookkeeping) does."""
    alg = build_algebra(AlgebraSpec("sl", 3, "R"))
    a = maximal_abelian(alg, cartan_split(alg))
    integer_weights = rootspace._integer_weights
    root_vector = 2  # E_01
    assert integer_weights(alg, alg.basis[[root_vector]]).any()

    def planted(algebra, X):
        W = integer_weights(algebra, X)
        W[root_vector] = 0
        return W

    monkeypatch.setattr(rootspace, "_integer_weights", planted)
    with pytest.raises(InconsistencyError, match="joint eigenspace is not spanned by basis vectors"):
        restricted_roots(alg, a)


@pytest.mark.parametrize(
    "field, message",
    [
        ("R", "joint eigenspace is not spanned by basis vectors: root vector residual 2.89e-01 off the diagonal of a-basis element 1"),
        ("C", "joint eigenspace is not spanned by basis vectors: root vector residual 2.04e-01 off the diagonal of a-basis element 1"),
    ],
    ids=["sl3r", "sl3c"],
)
def test_planted_non_diagonal_a_element_is_rejected(field, message):
    """An a-element with an off-diagonal entry fails the exact zero test, named by its a-basis index,
    on sl(3, R) and on the realified sl(3, C) alike."""
    alg = build_algebra(AlgebraSpec("sl", 3, field))
    a = maximal_abelian(alg, cartan_split(alg))
    swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])  # E_01 + E_10, in p
    off = embed_complex(swap) if alg.is_complex else swap
    with pytest.raises(InconsistencyError, match=f"^{message}$"):
        restricted_roots(alg, np.stack([a[0], off]))


def test_planted_non_weight_vector_is_rejected_realified():
    """As on sl(3, R): E_01 + E_10 / 2, embedded, in place of E_01 carries no single weight."""
    alg = build_algebra(AlgebraSpec("sl", 3, "C"))
    a = maximal_abelian(alg, cartan_split(alg))
    basis = alg.basis.copy()
    basis[4] = basis[4] + 0.5 * basis[4].T  # basis index 4 is the embedded E_01
    alg.basis = basis
    with pytest.raises(InconsistencyError, match="^root vector is not a diagonal weight vector$"):
        restricted_roots(alg, a)
