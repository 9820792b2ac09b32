import dataclasses
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from conftest import DATA_GRID, cold_data
from lieorb import flows
from lieorb.flows import (
    commute_residual,
    exp_H,
    flow_exact,
    flow_numeric,
    invert_exp_H,
    linear_chart,
)
from lieorb.liecore import DecompositionError, InconsistencyError, exp_series, random_in_K
from oracles import (
    Covector,
    commute_four_flows,
    covector_annihilation_gap,
    flow_exact_reference,
    flow_numeric_stepwise,
    flow_rk4_reference,
    hv_field,
    hv_poly_reference,
    hv_vec_reference,
    linear_chart_exact,
    ode_residual,
)


def test_hv_at_origin_is_T_inverse(ws):
    data = ws.data("sl2r", (1, -1))
    np.testing.assert_allclose(hv_field(data, np.array([1.0]), np.array([0.0])), [0.5], atol=1e-14)
    data3 = ws.data("sl3r", (1, 0, -1))
    V = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(hv_field(data3, V, np.zeros(3)), V / data3.grades, atol=1e-12)


def test_hv_constant_on_abelian(ws, rng):
    data = ws.data("sl2r", (1, -1))
    V = np.array([0.7])
    for _ in range(5):
        U = rng.standard_normal(1)
        np.testing.assert_allclose(hv_field(data, V, U), [0.35], atol=1e-14)


def _dexp_exact(M, h, terms=12):
    """d/de exp(M + e h) at e = 0 for nilpotent matrices, by expanding the series."""
    d = M.shape[0]
    out = np.zeros_like(M)
    fact = 1.0
    for k in range(1, terms + 1):
        fact *= k
        for a in range(k):
            term = np.eye(d)
            for _ in range(a):
                term = term @ M
            term = term @ h
            for _ in range(k - 1 - a):
                term = term @ M
            out += term / fact
    return out


def test_hv_defining_identity_matrix_oracle(ws, rng):
    # h_V must satisfy dexp(U)[h_V(U)] = n . (T^-1 Ad(n)^-1 V) in the 3x3 picture
    data = ws.data("sl3r", (1, 0, -1))
    alg = ws.algebra("sl3r")
    cases = [
        (np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])),  # V = E12+E23, U = E12
    ]
    for _ in range(5):
        cases.append((rng.standard_normal(3), rng.standard_normal(3)))
    for Vc, Uc in cases:
        h = hv_field(data, Vc, Uc)
        U = data.n_matrix_of(Uc)
        V = data.n_matrix_of(Vc)
        n = exp_series(U, 3)
        n_inv = np.linalg.inv(n)
        W = data.n_coords_of(n_inv @ V @ n) / data.grades
        rhs = n @ data.n_matrix_of(W)
        lhs = _dexp_exact(U, data.n_matrix_of(h))
        scale = 1.0 + np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


def test_flow_exact_sl2(ws):
    data = ws.data("sl2r", (1, -1))
    fp = flow_exact(data, np.array([1.0]), np.array([0.0]))
    np.testing.assert_allclose(fp.coeffs, [[0.0], [0.5]], atol=1e-14)
    # zero field: constant curve
    fp0 = flow_exact(data, np.array([0.0]), np.array([0.4]))
    np.testing.assert_allclose(fp0.coeffs, [[0.4]], atol=1e-14)


def test_flow_exact_vs_rk4_example(ws):
    data = ws.data("sl3r", (1, 0, -1))
    V = np.array([1.0, 0.0, 0.0])   # E12
    U0 = np.array([0.0, 1.0, 0.0])  # E23
    fp = flow_exact(data, V, U0)
    assert fp.degree <= 2
    for t in (1.0, -1.0, 2.0, -2.0):
        num = flow_rk4_reference(data, V, U0, t)
        assert np.max(np.abs(fp.eval(t) - num)) < 1e-8


def test_flow_numeric_degenerate_cases(ws, rng):
    data = ws.data("sl2r", (1, -1))
    U0 = rng.standard_normal(1)
    V = rng.standard_normal(1)
    np.testing.assert_allclose(flow_numeric(data, V, U0, 0.0), U0, atol=1e-14)
    # abelian fiber: the field is constant, so the curve is linear in t
    for t in (0.5, 1.0, 2.0):
        np.testing.assert_allclose(flow_numeric(data, V, U0, t), U0 + t * V / 2.0, atol=1e-10)


def test_flow_oracle_sweep(ws, rng):
    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        n = data.n_dim
        V = rng.standard_normal((8, n))
        U0 = rng.standard_normal((8, n))
        for t in (1.0, -2.0):
            num = flow_numeric(data, V, U0, t)
            for i in range(8):
                ex = flow_exact(data, V[i], U0[i]).eval(t)
                assert np.max(np.abs(ex - num[i])) < 1e-8


def test_flow_numeric_over_times_is_the_stepwise_route_bit_for_bit(ws):
    # one call over a sequence of times equals the stack of one call per time,
    # and each equals the six sequential steps of the stepwise route, sign of
    # zero included
    rng = np.random.default_rng(67)
    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        for batch in ((), (7,), (2, 3)):
            V, U0 = rng.standard_normal((2,) + batch + (data.n_dim,))
            V[..., 0], U0[..., -1] = -0.0, -0.0
            for times in ((1.0, -2.0), (0.0, 0.5), (-1.5,), (1e-12, 1.0)):  # the last settles its steps unevenly
                got = flow_numeric(data, V, U0, times)
                assert got.shape == (len(times),) + batch + (data.n_dim,)
                single = np.stack([flow_numeric(data, V, U0, t) for t in times])
                stepwise = np.stack([flow_numeric_stepwise(data, V, U0, t) for t in times])
                assert got.tobytes() == single.tobytes() == stepwise.tobytes(), (key, entries, batch, times)


def test_flow_numeric_takes_an_empty_batch(ws):
    data = ws.data("sl3r", (1, 0, -1))
    for batch in ((0,), (2, 0)):
        empty = np.zeros(batch + (3,))
        assert flow_numeric(data, empty, empty, 1.0).shape == batch + (3,)
        assert flow_numeric(data, empty, np.zeros(3), (1.0, -2.0)).shape == (2,) + batch + (3,)
        assert flow_numeric(data, empty, empty, ()).shape == (0,) + batch + (3,)


def test_witness_matches_rk4_reference(ws, rng):
    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        V, U0 = rng.standard_normal((2, 8, data.n_dim))
        for t in (1.0, -2.0):
            gap = np.max(np.abs(flow_numeric(data, V, U0, t) - flow_rk4_reference(data, V, U0, t)))
            assert gap < 1e-9, (key, entries, t)


def test_batched_flows_match_single_points(ws):
    for data in _kernel_grid(ws):
        rng = np.random.default_rng(41)
        n = data.n_dim
        V, U0 = rng.standard_normal((2, 6, n)) * np.array([0.5, 1.0, 3.0, 1.0, 2.0, 1.0])[:, None]
        batch = flow_exact(data, V, U0).coeffs
        mats = exp_H(data, V).matrix
        assert batch.shape[1:] == (6, n) and mats.shape[0] == 6
        for i in range(6):
            scale = 1.0 + np.max(np.abs(V[i])) + np.max(np.abs(U0[i]))
            single = flow_exact(data, V[i], U0[i]).coeffs
            assert single.shape[0] <= batch.shape[0], data.c_entries
            assert np.max(np.abs(batch[: single.shape[0], i] - single)) <= 1e-15 * scale, data.c_entries
            assert np.max(np.abs(batch[single.shape[0]:, i]), initial=0.0) <= 1e-15 * scale, data.c_entries
            M = exp_H(data, V[i]).matrix
            assert np.max(np.abs(mats[i] - M)) <= 1e-15 * np.max(np.abs(M)), data.c_entries


def test_flow_polynomial_invariants(ws, rng):
    data = ws.data("sl4r", (3, 1, -1, -3))
    B = int(data.block_grades.max())
    assert B == len(data.levels) == 3
    for _ in range(10):
        V = rng.standard_normal(6)
        fp = flow_exact(data, V, rng.standard_normal(6))
        assert ode_residual(data, V, fp) < 1e-10 * 10
        assert fp.degree <= B
        np.testing.assert_allclose(fp.eval(0.0), fp.coeffs[0], atol=1e-14)


def test_flow_triangular_leading_term(ws):
    # for a basis direction V_k the components up to k move linearly with rate 1/nu_k
    for key, entries in (("sl3r", (1, 0, -1)), ("sl4r", (3, 1, -1, -3))):
        data = ws.data(key, entries)
        n = data.n_dim
        rng = np.random.default_rng(11)
        for k in range(n):
            V = np.eye(n)[k]
            U0 = rng.standard_normal(n)
            fp = flow_exact(data, V, U0)
            for t in (0.5, 1.0, -1.5):
                diff = (fp.eval(t) - U0)[: k + 1]
                want = np.zeros(k + 1)
                want[k] = t / data.grades[k]
                np.testing.assert_allclose(diff, want, atol=1e-10)


def test_commutation(ws):
    data = ws.data("sl2r", (1, -1))
    assert commute_residual(data, np.array([1.0]), np.array([0.5])) == 0.0
    data3 = ws.data("sl3r", (1, 0, -1))
    # E12, E23 do not commute in the algebra, but their fiber flows do
    alg = ws.algebra("sl3r")
    assert np.max(np.abs(alg.bracket(data3.n_basis[0], data3.n_basis[1]))) > 0.5
    assert commute_residual(data3, np.eye(3)[0], np.eye(3)[1]) < 1e-9
    assert commute_residual(data3, np.eye(3)[0], np.eye(3)[0]) == 0.0


def test_commutation_all_basis_pairs(ws):
    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        n = data.n_dim
        for i in range(n):
            for j in range(i + 1, n):
                assert commute_residual(data, np.eye(n)[i], np.eye(n)[j]) < 1e-9


def test_batched_commute_matches_single_pairs(ws):
    # a stack of pairs is judged as the max of its single-pair calls
    rng = np.random.default_rng(12)
    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        n = data.n_dim
        V, W = rng.standard_normal((2, 6, n))
        single = max(commute_residual(data, v, w) for v, w in zip(V, W))
        assert abs(commute_residual(data, V, W) - single) <= 1e-4 * 1e-9
        assert commute_residual(data, V.reshape(2, 3, n), W.reshape(2, 3, n)) == commute_residual(data, V, W)
        i, j = np.triu_indices(n, 1)
        single = max((commute_residual(data, np.eye(n)[a], np.eye(n)[b]) for a, b in zip(i, j)), default=0.0)
        assert abs(commute_residual(data, np.eye(n)[i], np.eye(n)[j]) - single) <= 1e-4 * 1e-9


def test_commute_residual_is_the_four_flow_route_bit_for_bit(ws):
    # the flows from 0, taken once per distinct row and gathered, give the
    # residual of the four whole-batch flows exactly: on every basis pair, and
    # on random pairs, some of which share rows
    rng = np.random.default_rng(71)
    for data in [ws.data(key, entries) for key, entries in DATA_GRID] + [cold_data("R", 5, (4, 2, 0, -2, -4))]:
        n = data.n_dim
        i, j = np.triu_indices(n, 1)
        V, W = rng.standard_normal((2, 6, n))
        W[3:] = V[:3]
        for v, w in ((np.eye(n)[i], np.eye(n)[j]), (V, W), (V.reshape(2, 3, n), W.reshape(2, 3, n)), (V[0], W[0])):
            assert commute_residual(data, v, w) == commute_four_flows(data, v, w), (data.c_entries, v.shape)


def test_exp_H(ws, rng):
    data = ws.data("sl2r", (1, -1))
    np.testing.assert_allclose(exp_H(data, np.zeros(1)).matrix, np.eye(2), atol=1e-14)
    g = exp_H(data, np.array([1.0]))
    np.testing.assert_allclose(g.matrix, [[1.0, 0.5], [0.0, 1.0]], atol=1e-14)
    # injectivity sweep
    data3 = ws.data("sl3r", (1, 0, -1))
    samples = rng.standard_normal((40, 3))
    mats = [exp_H(data3, v).matrix for v in samples]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if np.max(np.abs(samples[i] - samples[j])) > 1e-3:
                assert np.max(np.abs(mats[i] - mats[j])) > 1e-6


def test_invert_exp_H(ws, rng):
    data = ws.data("sl2r", (1, -1))
    np.testing.assert_allclose(invert_exp_H(data, np.eye(2)), [0.0], atol=1e-12)
    np.testing.assert_allclose(invert_exp_H(data, np.array([[1.0, 1.0], [0.0, 1.0]])), [2.0], atol=1e-12)
    data3 = ws.data("sl3r", (1, 0, -1))
    for _ in range(40):
        V = rng.standard_normal(3)
        back = invert_exp_H(data3, exp_H(data3, V))
        assert np.max(np.abs(back - V)) < 1e-9
    alg = ws.algebra("sl3r")
    with pytest.raises(ValueError):
        invert_exp_H(data3, random_in_K(alg, rng).matrix)


def test_roundtrip_bigger_algebras(ws, rng):
    for key, entries in (("sl4r", (3, 1, -1, -3)), ("sl3c", (1, 0, -1))):
        data = ws.data(key, entries)
        for _ in range(10):
            V = rng.standard_normal(data.n_dim)
            assert np.max(np.abs(invert_exp_H(data, exp_H(data, V)) - V)) < 1e-9


def test_chart_is_affine_on_the_orbit(ws):
    # Ad(exp_H(V)) c = c - V: N(c) acts simply transitively on c + n(c)
    for data in _kernel_grid(ws):
        rng = np.random.default_rng(41)
        for size in (1.0, 30.0):
            V = rng.standard_normal((12, data.n_dim))
            V *= size / np.max(np.abs(V), axis=-1, keepdims=True)
            g = exp_H(data, V).matrix
            gap = np.max(np.abs(g @ data.c @ np.linalg.inv(g) - data.c + data.n_matrix_of(V)))
            assert gap <= 1e-10 * max(1.0, size), (data.c_entries, size, gap)


def test_invert_exp_H_solves_no_flow(ws, monkeypatch):
    # the closed-form inverse is a route independent of flow_exact
    data = ws.data("sl4r", (3, 1, -1, -3))
    V = np.random.default_rng(3).standard_normal(data.n_dim)
    g = exp_H(data, V)

    def no_flow(*args):
        raise AssertionError("invert_exp_H solved a flow")

    monkeypatch.setattr(flows, "flow_exact", no_flow)
    assert np.max(np.abs(invert_exp_H(data, g) - V)) < 1e-12


def test_invert_exp_H_round_trips_batches(ws):
    # a stack of 5 (more points than matrix rows) and a (2, 3) stack
    data = ws.data("sl3r", (2, 0, -2))
    rng = np.random.default_rng(5)
    for shape in ((5,), (2, 3)):
        V = rng.standard_normal(shape + (data.n_dim,))
        back = invert_exp_H(data, exp_H(data, V))
        assert back.shape == V.shape
        assert np.max(np.abs(back - V)) < 1e-12


def test_invert_exp_H_judges_each_point_of_a_batch(ws):
    # a unipotent z in Z(c) off by 1e-7 at batch index 2: within 1e-8 of the
    # batch's largest coordinates, but not of that point's own
    data = ws.data("sl4r", (1, 1, -1, -1))
    rng = np.random.default_rng(6)
    V = 30 * rng.standard_normal((5, data.n_dim))
    V[2] *= 1e-3
    g = exp_H(data, V).matrix
    z = np.eye(4)
    z[0, 1] = 1e-7
    g[2] = g[2] @ z
    with pytest.raises(ValueError, match=r"does not lie in N\(c\)") as err:
        invert_exp_H(data, g)
    assert str(err.value).endswith("at point (2,)")


def test_invert_exp_H_refuses_a_diagonal_part_and_names_the_point(ws):
    # g - I gains a diagonal part at batch index 1: a traceless one (z(c)
    # coordinates), then a pure trace one (off the algebra)
    data = ws.data("sl3r", (1, 0, -1))
    g = exp_H(data, np.random.default_rng(3).standard_normal((3, data.n_dim))).matrix
    for diagonal in (np.diag([1 + 1e-6, 1.0, 1 / (1 + 1e-6)]), (1 + 1e-6) * np.eye(3)):
        bad = g.copy()
        bad[1] = bad[1] @ diagonal
        with pytest.raises(ValueError, match=r"does not lie in N\(c\)") as err:
            invert_exp_H(data, bad)
        assert "component outside n(c)" in str(err.value)
        assert str(err.value).endswith("at point (1,)")


def test_invert_exp_H_refuses_a_conjugate_linear_part(ws):
    # X -> E_01 conj(X) at 1e-6 on sl(3, C): its complex-linear part, all that
    # the n(c) coordinates read, is zero, and E_01 lies in n(c)
    data = ws.data("sl3c", (1, 0, -1))
    g = exp_H(data, np.random.default_rng(4).standard_normal((3, data.n_dim))).matrix
    E = np.zeros((3, 3))
    E[0, 1] = 1e-6
    conj_linear = np.block([[E, np.zeros((3, 3))], [np.zeros((3, 3)), -E]])
    assert np.all(data.n_coords_of(conj_linear) == 0)
    bad = g.copy()
    bad[1] = bad[1] + conj_linear
    with pytest.raises(ValueError, match=r"does not lie in N\(c\)") as err:
        invert_exp_H(data, bad)
    assert "component outside n(c)" in str(err.value)
    assert str(err.value).endswith("at point (1,)")


def test_invert_exp_H_rejects_elements_outside_N(ws, rng):
    data = ws.data("sl4r", (1, 1, -1, -1))
    n = exp_H(data, rng.standard_normal(data.n_dim)).matrix
    z = np.eye(4)
    z[0, 1] = 0.7  # unipotent, in the stabilizer Z(c) of the wall chamber
    nan = n.copy()
    nan[2, 0] = np.nan  # below the diagonal, outside n(c): a NaN there must fail the test, not pass it
    for g in (n @ z, z, np.diag([2.0, 0.5, 1.0, 1.0]), nan):
        with pytest.raises(ValueError, match=r"^invert_exp_H: input does not lie in N\(c\) = I \+ n\(c\): "
                           r"component outside n\(c\) \(\S+\)$"):
            invert_exp_H(data, g)


def test_covector_annihilates_parabolic(ws, rng):
    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        V = rng.standard_normal(data.n_dim)
        assert covector_annihilation_gap(data, V) < 1e-10
        # injective: a nonzero V pairs nontrivially with theta-n
        eta = Covector(V)
        vals = [abs(eta.value_on(data, X)) for X in data.algebra.theta(data.n_basis)]
        assert max(vals) > 1e-6 * np.max(np.abs(V))


@pytest.mark.parametrize("shape", [(5,), (0,)])
def test_exp_H_keeps_batch_axes_at_zero_and_empty_batches(ws, shape):
    data = ws.data("sl3r", (1, 0, -1))
    V = np.zeros(shape + (data.n_dim,))
    g = exp_H(data, V)
    assert g.matrix.shape == shape + (3, 3)
    assert invert_exp_H(data, g).shape == V.shape


@pytest.mark.parametrize("shape", [(), (5,), (0,)])
def test_linear_chart_keeps_batch_axes(ws, shape):
    data = ws.data("sl4r", (3, 1, -1, -3))
    V = np.random.default_rng(8).standard_normal(shape + (data.n_dim,))
    g = linear_chart(data, V)
    assert g.matrix.shape == shape + (4, 4)
    assert invert_exp_H(data, g).shape == V.shape


def test_linear_chart_batch_is_bitwise_its_points(ws):
    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        V = 10 * np.random.default_rng(9).standard_normal((2, 3, data.n_dim))
        batch = linear_chart(data, V).matrix
        for i in np.ndindex(V.shape[:-1]):
            assert np.array_equal(linear_chart(data, V[i]).matrix, batch[i]), (key, entries, i)


def test_linear_chart_vanishes_off_n(ws):
    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        N = linear_chart(data, 10 * np.random.default_rng(10).standard_normal((4, data.n_dim))).matrix
        N = N - np.eye(data.algebra.d)
        off = ~np.any(data.n_basis != 0, axis=0)
        assert np.all(N[:, off] == 0.0), (key, entries)


def test_linear_chart_names_a_failing_certificate(ws):
    # the block grades reversed (B + 1 - b): the top grade is solved before the V N it needs
    data = ws.data("sl4r", (3, 1, -1, -3))
    reversed_levels = dataclasses.replace(data, block_grades=data.block_grades.max() + 1 - data.block_grades)
    V = np.random.default_rng(11).standard_normal((3, data.n_dim))
    V[0] = 0.0  # the zero point solves the equation in any order
    linear_chart(reversed_levels, V[0])
    pattern = (
        r"linear_chart: n c = \(c - V\) n fails at c = \('3', '1', '-1', '-3'\), "
        r"max\|V\| = \S+: residual \S+ > \S+ at point \(1,\)"
    )
    with pytest.raises(DecompositionError, match=pattern):
        linear_chart(reversed_levels, V)
    # |V| = 1e160 overflows n to inf, so the residual is NaN: the certificate must fail on it
    with np.errstate(all="ignore"), pytest.raises(DecompositionError, match=r"^linear_chart: n c = \(c - V\) n fails"):
        linear_chart(data, 1e160 * np.ones(data.n_dim))


_CHART_GRID = [
    ("R", 3, (2, 0, -2)),
    ("R", 3, (Fraction(1, 1000), 0, Fraction(-1, 1000))),
    ("R", 5, (4, 2, 0, -2, -4)),
    ("R", 5, (3, 3, 0, -2, -4)),
    ("C", 4, (3, 1, -1, -3)),
]


@pytest.mark.parametrize("field, n, entries", _CHART_GRID)
def test_linear_chart_matches_exact_back_substitution(field, n, entries):
    data = cold_data(field, n, entries)
    rng = np.random.default_rng(12)
    for _ in range(3):
        V = [Fraction(int(k), 8) for k in rng.integers(-40, 41, data.n_dim)]
        exact, c, Vm = linear_chart_exact(data, V)
        assert np.array_equal(exact.dot(c), (c - Vm).dot(exact))  # n c = (c - V) n, in exact rationals
        ref = exact.astype(float)
        scale = np.max(np.abs(ref))
        Vf = np.array(V, dtype=float)
        assert np.max(np.abs(linear_chart(data, Vf).matrix - ref)) <= 1e-14 * scale
        assert np.max(np.abs(exp_H(data, Vf).matrix - ref)) <= 1e-14 * scale


def test_exp_log_helpers(rng):
    M = np.zeros((4, 4))
    M[0, 1], M[1, 2], M[2, 3], M[0, 2] = rng.standard_normal(4)
    np.testing.assert_allclose(exp_series(M, 4), scipy.linalg.expm(M), atol=1e-12)


def _kernel_grid(ws):
    datas = [ws.data(key, entries) for key, entries in DATA_GRID]
    return datas + [cold_data(f, 5, (4, 2, 0, -2, -4)) for f in "RC"]


def test_series_kernel_matches_untruncated_reference(ws):
    # rounding tolerance fixed from the dtype: the kernel sums the same
    # products as the reference in another order and through x / (e^x - 1)
    # in place of the Neumann series of R
    tol = 64 * np.finfo(float).eps
    for data in _kernel_grid(ws):
        rng = np.random.default_rng(31)
        n, p = data.n_dim, len(data.levels)
        cap = p + 2
        U = rng.standard_normal((cap + 1, n))
        V = rng.standard_normal(n)
        ref = hv_poly_reference(data, V, U)
        cut = flows._hv_series(data, V, U, cap - 1)
        assert cut.shape == (cap, n)
        assert np.max(np.abs(cut - ref[:cap])) <= tol * np.max(np.abs(ref[:cap])), data.c_entries
        # deg = 2 N0 cap keeps every coefficient; the reference's longer
        # tail is zero up to rounding
        full = flows._hv_series(data, V, U, 2 * data.N0 * cap)
        K = max(full.shape[0], ref.shape[0])
        gap = np.zeros((K, n))
        gap[: full.shape[0]] += full
        gap[: ref.shape[0]] -= ref
        assert np.max(np.abs(gap)) <= tol * np.max(np.abs(ref)), data.c_entries
        # degree 0: a batch of plain vectors
        Vb, Ub = rng.standard_normal((2, 8, n))
        want = hv_vec_reference(data, Vb, Ub)
        got = flows._hv_series(data, Vb, Ub[None], 0)[0]
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), data.c_entries
        np.testing.assert_array_equal(hv_field(data, Vb, Ub), got)
        # flow_exact against the untruncated Picard sweeps
        for _ in range(3):
            V0, U0 = rng.standard_normal((2, n)) * rng.choice([0.5, 1.0, 3.0])
            scale = 1.0 + np.max(np.abs(V0)) + np.max(np.abs(U0))
            fp, want = flow_exact(data, V0, U0), flow_exact_reference(data, V0, U0)
            assert fp.coeffs.shape == want.shape, data.c_entries
            assert np.max(np.abs(fp.coeffs - want)) <= 1e-15 * scale, data.c_entries


def test_adn_has_one_term_per_negA_entry(ws):
    # _hv_series forms negA = -sum_i U_i adn[i] as one BLAS product; with at
    # most one nonzero i per (k, j) its sums match the einsum's bit for bit
    datas = [ws.data(key, entries) for key, entries in DATA_GRID]
    datas += [cold_data(field, n, tuple(n - 1 - 2 * k for k in range(n))) for field, n in (("R", 8), ("C", 6))]
    for data in datas:
        n = data.n_dim
        assert np.max(np.count_nonzero(data.adn, axis=0)) <= 1, data.c_entries
        U = np.random.default_rng(5).standard_normal((3, 4, n))
        blas = (U @ data.adn.reshape(n, n * n)).reshape(3, 4, n, n)
        assert blas.tobytes() == np.einsum("...i,ikj->...kj", U, data.adn).tobytes(), data.c_entries


# the input every flow error names: chamber, max|V| and max|U0|
_ERR_V, _ERR_U0 = np.array([1.0, -2.0, 0.5]), np.array([0.25, 0.0, 3.0])
_ERR_WHERE = r"at c = \('1', '0', '-1'\), max\|V\| = 2\.000e\+00, max\|U0\| = 3\.000e\+00"


def _drifting_kernel(monkeypatch):
    """Make the field change on every call, so no iteration can settle; a
    random factor per call keeps the exact zeros of the block grading."""
    kernel = flows._hv_series
    rng = np.random.default_rng(2)
    monkeypatch.setattr(flows, "_hv_series", lambda d, v, u, deg: kernel(d, v, u, deg) * (1.0 + rng.random()))


def test_flow_exact_names_unstable_recursion(ws, monkeypatch):
    # the check's fresh evaluation drifts away from the field the recursion
    # extended, so the curve fails its defining equation
    data = ws.data("sl3r", (1, 0, -1))
    _drifting_kernel(monkeypatch)
    with pytest.raises(InconsistencyError, match=r"flow_exact: flow polynomial fails its defining equation "
                       + _ERR_WHERE + r": residual \S+ > 6\.000e-10"):
        flow_exact(data, _ERR_V, _ERR_U0)


def test_flow_exact_names_defining_equation_residual(ws, monkeypatch):
    data = ws.data("sl3r", (1, 0, -1))
    kernel = flows._hv_series

    def off_in_check(d, v, u, deg):
        out = kernel(d, v, u, deg)   # only the check calls _hv_series; the recursion extends its own series
        out[0, 0] += 1e-3
        return out

    monkeypatch.setattr(flows, "_hv_series", off_in_check)
    with pytest.raises(InconsistencyError, match=r"flow_exact: flow polynomial fails its defining equation "
                       + _ERR_WHERE + r": residual 1\.000e-03 > 6\.000e-10"):
        flow_exact(data, _ERR_V, _ERR_U0)


def test_flow_exact_rejects_a_coefficient_above_its_block_grade(ws, monkeypatch):
    # every coefficient the recursion extends is planted in coordinate 0: the
    # curve then has a t^B term in a coordinate of block grade 1, which the
    # grading forbids, so flow_exact raises before its check runs
    data = ws.data("sl3r", (1, 0, -1))
    B = int(np.max(data.block_grades))
    assert data.block_grades[0] == 1 < B
    extend = flows._HvSeries.extend
    rows = []

    def planted_top(series, U):
        rows.append(series.filled)
        out = extend(series, U).copy()
        out[..., 0] += 1e-3
        return out

    monkeypatch.setattr(flows._HvSeries, "extend", planted_top)
    with pytest.raises(InconsistencyError, match=r"flow_exact: flow polynomial leaves the block grading "
                       + _ERR_WHERE + r": \|t\^2 coefficient\| 5\.000e-04 in coordinate 0 of block grade 1"):
        flow_exact(data, _ERR_V, _ERR_U0)
    assert rows == list(range(B))


def test_graded_cut_certifies_the_uncut_residual(ws):
    # above the cut every coefficient of h_V(U) is an exact zero, so the check
    # at degree B - 1 sees the uncut residual bit for bit
    for data in _kernel_grid(ws):
        rng = np.random.default_rng(43)
        V, U0 = rng.standard_normal((2, 10, data.n_dim)) * rng.choice([0.5, 1.0, 3.0], (10, 1))
        fp = flow_exact(data, V, U0)
        deg, B = fp.degree, int(np.max(data.block_grades))
        above = np.arange(deg + 1)[:, None, None] > data.block_grades
        assert not np.any(np.where(above, fp.coeffs, 0.0)), data.c_entries
        E = flows._hv_series(data, V, fp.coeffs, 2 * data.N0 * deg)
        assert not np.any(E[max(B, deg):]), data.c_entries
        cut = flows._hv_series(data, V, fp.coeffs, B - 1)
        np.testing.assert_array_equal(cut, E[:B])
        E[:deg] -= flows._poly_deriv(fp.coeffs)[:deg]
        assert ode_residual(data, V, fp) == float(np.max(np.abs(E))) <= 1e-10 * np.max(1 + np.abs(V) + np.abs(U0))


def test_flow_exact_early_stop_rejects_a_dropped_coefficient(monkeypatch):
    # the recursion's extension to coefficient 1 zeroes it once, so the curve
    # cut there looks finished but is no solution: the check must turn the cut
    # down, and the curve the recursion goes on to build from the dropped
    # coefficient must fail its defining equation rather than be repaired
    data = cold_data("R", 5, (4, 2, 0, -2, -4))
    rng = np.random.default_rng(47)
    V, U0 = rng.standard_normal((2, data.n_dim))
    assert flow_exact_reference(data, V, U0).shape[0] > 2
    extend = flows._HvSeries.extend
    planted = []

    def drop_once(series, U):
        out = extend(series, U)
        if series.filled == 2 and not planted:
            planted.append(series.filled)
            out = np.zeros_like(out)
        return out

    monkeypatch.setattr(flows._HvSeries, "extend", drop_once)
    with pytest.raises(InconsistencyError, match=r"flow_exact: flow polynomial fails its defining equation"):
        flow_exact(data, V, U0)
    assert planted


def _count_kernel_calls(monkeypatch) -> list:
    """Record every extension of a series as ("extend", its row), every fresh _hv_series call as (rows of U, degree)."""
    kernel, extend = flows._hv_series, flows._HvSeries.extend
    calls = []

    def counted(d, v, u, deg):
        calls.append((u.shape[0], deg))
        return kernel(d, v, u, deg)

    def extended(series, U):
        calls.append(("extend", series.filled))
        return extend(series, U)

    monkeypatch.setattr(flows, "_hv_series", counted)
    monkeypatch.setattr(flows._HvSeries, "extend", extended)
    return calls


def _assert_one_extension_per_coefficient(calls, fp, B):
    # one extension per coefficient, up to the first that is cut or to U_B,
    # then one fresh evaluation at degree B - 1 on the curve: the check
    *steps, check = calls
    assert steps == [("extend", m) for m in range(min(fp.degree + 1, B))], calls
    assert check == (fp.degree + 1, B - 1), calls


def test_flow_exact_kernel_calls(monkeypatch):
    data = cold_data("R", 5, (4, 2, 0, -2, -4))
    B = int(np.max(data.block_grades))
    calls = _count_kernel_calls(monkeypatch)
    rng = np.random.default_rng(5)
    for U0 in (np.zeros(data.n_dim), rng.standard_normal(data.n_dim)):
        calls.clear()
        fp = flow_exact(data, rng.standard_normal(data.n_dim), U0)
        _assert_one_extension_per_coefficient(calls, fp, B)
    # the commute check on every basis pair, as flow-check makes it: the flow
    # from 0 of the distinct rows and the two outer flows each stop after two
    # coefficients and the check
    n = data.n_dim
    a, b = np.triu_indices(n, 1)
    calls.clear()
    assert commute_residual(data, np.eye(n)[a], np.eye(n)[b]) <= 1e-12
    assert calls == 3 * [("extend", 0), ("extend", 1), (2, B - 1)], calls


def test_flow_exact_kernel_calls_at_the_spread_chamber(monkeypatch):
    # c = (1000, 1, 0, -1001): floor(nu_max / nu_1) = 2001, but the block
    # grade bounds every flow by B = s - 1 = 3: at most B extensions and the
    # check at degree B - 1 = 2, from U0 = 0 and from a random U0
    data = cold_data("R", 4, (1000, 1, 0, -1001))
    assert int(np.max(data.block_grades)) == 3 and max(data.grades_exact) / min(data.grades_exact) == 2001
    calls = _count_kernel_calls(monkeypatch)
    rng = np.random.default_rng(5)
    for U0 in (np.zeros(data.n_dim), rng.standard_normal(data.n_dim)):
        calls.clear()
        V = rng.standard_normal(data.n_dim)
        fp = flow_exact(data, V, U0)
        _assert_one_extension_per_coefficient(calls, fp, 3)
        assert fp.degree <= int(data.block_grades.max()) == 3
        want = flow_exact_reference(data, V, U0)
        assert fp.coeffs.shape == want.shape
        assert np.max(np.abs(fp.coeffs - want)) <= 256 * np.finfo(float).eps * np.max(np.abs(want))


def test_series_extension_equals_a_fresh_evaluation_bit_for_bit(ws):
    # the recursion's rows, one coefficient at a time or in uneven ranges,
    # are the fresh evaluation's, sign of zero included, from U0 = 0 (where
    # the exact zeros are skipped) and from a random U0, over batches
    for data in _kernel_grid(ws):
        rng = np.random.default_rng(59)
        rows = int(np.max(data.block_grades)) + 2
        for batch in ((), (7,), (2, 3)):
            V = rng.standard_normal(batch + (data.n_dim,))
            V[..., 0], V[..., -1] = 0.0, -0.0
            for U0 in (np.zeros(batch + (data.n_dim,)), rng.standard_normal(batch + (data.n_dim,))):
                U = rng.standard_normal((rows,) + batch + (data.n_dim,))
                U[0] = U0
                fresh = flows._hv_series(data, V, U, rows - 1)
                series = flows._HvSeries(data, V, U, rows)
                one_by_one = np.stack([series.extend(U) for _ in range(rows)])
                assert one_by_one.tobytes() == fresh.tobytes(), (data.c_entries, batch)
                series = flows._HvSeries(data, V, U, rows)
                ranges = np.concatenate([series.fill(U, 1), series.fill(U, rows - 2), series.fill(U, rows - 1)])
                assert ranges.tobytes() == fresh.tobytes(), (data.c_entries, batch)


def test_flow_exact_below_the_level_count_and_at_extreme_V(ws):
    # B < p at (3, 3, 0, -2, -4) (levels 2, 3, 4, 5, 7: B = 3, p = 5), and
    # tiny and large |V|: the flow matches the untruncated Picard reference
    # up to rounding of its largest coefficient (both sum the same products,
    # in another order), and its chart matches the flow-free linear chart
    cases = [cold_data("R", 5, (3, 3, 0, -2, -4)), cold_data("R", 5, (4, 2, 0, -2, -4)), ws.data("sl3c", (1, 0, -1))]
    assert int(np.max(cases[0].block_grades)) == 3 < len(cases[0].levels) == 5
    for data in cases:
        rng = np.random.default_rng(53)
        for size in (1e-14, 30.0):
            V, U0 = size * rng.standard_normal((2, data.n_dim))
            for u0 in (np.zeros(data.n_dim), U0):
                fp, want = flow_exact(data, V, u0), flow_exact_reference(data, V, u0)
                assert fp.coeffs.shape == want.shape, (data.c_entries, size)
                assert np.max(np.abs(fp.coeffs - want)) <= 256 * np.finfo(float).eps * np.max(np.abs(want)), (
                    data.c_entries, size)
                assert fp.degree <= int(np.max(data.block_grades))
            g = exp_H(data, V).matrix
            gap = np.max(np.abs(g - linear_chart(data, V).matrix))
            assert gap <= 1e-14 * np.max(np.abs(g)), (data.c_entries, size)


def test_flow_numeric_names_stage_iteration(ws, monkeypatch):
    data = ws.data("sl3r", (1, 0, -1))
    _drifting_kernel(monkeypatch)
    for t in (1.0, (1.0, -2.0)):  # the first failing time in order
        with pytest.raises(DecompositionError, match=r"flow_numeric: collocation stages failed to settle "
                           + _ERR_WHERE + r", t = 1: stage gap \S+ > \S+"):
            flow_numeric(data, _ERR_V, _ERR_U0, t)


def test_flow_numeric_names_step_halving_gap(ws, monkeypatch):
    data = ws.data("sl3r", (1, 0, -1))
    kernel = flows._hv_series

    def high_degree(d, v, u, deg):
        # still level-triangular, so the stages settle, but the top level now
        # grows like t^9, past what B + 1 = 3 stages reproduce
        out = kernel(d, v, u, deg)
        out[..., 2] += u[..., 0] ** 8
        return out

    monkeypatch.setattr(flows, "_hv_series", high_degree)
    with pytest.raises(DecompositionError, match=r"flow_numeric: collocation self-check failed "
                       + _ERR_WHERE + r", t = -2: step-halving gap \S+ >= \S+"):
        flow_numeric(data, _ERR_V, _ERR_U0, -2.0)


def test_flow_numeric_over_times_names_the_failing_time(ws, monkeypatch):
    # a weaker planted t^9 term: t = 1 passes the self-check and t = -2 does
    # not, so the call over both times names t = -2
    data = ws.data("sl3r", (1, 0, -1))
    kernel = flows._hv_series

    def high_degree(d, v, u, deg):
        out = kernel(d, v, u, deg)
        out[..., 2] += 1e-7 * u[..., 0] ** 8
        return out

    monkeypatch.setattr(flows, "_hv_series", high_degree)
    assert flow_numeric(data, _ERR_V, _ERR_U0, 1.0).shape == (3,)
    with pytest.raises(DecompositionError, match=r"flow_numeric: collocation self-check failed "
                       + _ERR_WHERE + r", t = -2: step-halving gap \S+ >= \S+"):
        flow_numeric(data, _ERR_V, _ERR_U0, (1.0, -2.0))


def test_flows_refuse_non_finite_and_overflowing_input(ws):
    # a NaN in V, an inf in V or U0 and |V| = 1e200 (whose powers overflow) must
    # each fail a certificate: every comparison in the flows fails on NaN
    data = ws.data("sl4r", (3, 1, -1, -3))
    n = data.n_dim
    nan_V, inf_V, inf_U0, huge_V = np.ones(n), np.ones(n), np.zeros(n), np.full(n, 1e200)
    nan_V[2], inf_V[1], inf_U0[1] = np.nan, np.inf, np.inf
    with np.errstate(all="ignore"):
        for V, U0 in ((nan_V, np.zeros(n)), (inf_V, np.zeros(n)), (np.ones(n), inf_U0), (huge_V, np.zeros(n))):
            with pytest.raises(InconsistencyError, match="^flow_exact: "):
                flow_exact(data, V, U0)
            with pytest.raises(DecompositionError, match="^flow_numeric: "):
                flow_numeric(data, V, U0, 1.0)
        for V in (nan_V, inf_V, huge_V):
            with pytest.raises(InconsistencyError, match="^flow_exact: "):
                exp_H(data, V)
        # in a batch, the refusal names the failing point
        with pytest.raises(InconsistencyError, match=r"^flow_exact: non-finite input .*max\|V\| = inf.* at point \(1,\)$"):
            exp_H(data, np.stack([np.ones(n), inf_V]))
