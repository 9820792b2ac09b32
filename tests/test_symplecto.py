import dataclasses

import numpy as np
import pytest

from conftest import DATA_GRID, cold_data
from lieorb import symplecto
from lieorb.kkform import OrbitPoint, kk_eval, orbit_point
from lieorb.flows import exp_H, invert_exp_H
from lieorb.liecore import (
    ConfigurationError,
    DecompositionError,
    GroupElement,
    MatrixLieAlgebra,
    expm,
    iwasawa_decompose,
    random_element,
    random_in_K,
)
from lieorb.flows import linear_chart
from lieorb.symplecto import (
    STEP,
    CotangentPoint,
    chart_frame,
    coset_gap,
    cotangent_point,
    horizontal_basis,
    liouville_fd_gap,
    phi_lambda,
    project_pi,
    pullback_residual,
    section_lagrangian_check,
)
from oracles import (
    CotangentTangent,
    equivalence_gap,
    kp_decompose_single,
    linear_chart_per_call,
    liouville_eval,
    liouville_fd_gap_per_call,
    p_filtration_coords,
    pullback_per_call,
    tautological_form,
)


def test_phi_zero_section(ws, rng):
    data = ws.data("sl3r", (1, 0, -1))
    alg = ws.algebra("sl3r")
    k = random_in_K(alg, rng).matrix
    op = phi_lambda(data, cotangent_point(data, k, np.zeros(3)))
    np.testing.assert_allclose(op.w, k @ data.c @ k.T, atol=1e-12)


def test_phi_sl2_example(ws):
    data = ws.data("sl2r", (1, -1))
    op = phi_lambda(data, cotangent_point(data, np.eye(2), np.array([1.0])))
    np.testing.assert_allclose(op.g, [[1.0, 0.5], [0.0, 1.0]], atol=1e-14)
    H, E, _ = ws.algebra("sl2r").basis
    np.testing.assert_allclose(op.w, H - E, atol=1e-12)


def test_phi_rejects_non_k_base(ws):
    data = ws.data("sl2r", (1, -1))
    with pytest.raises(ConfigurationError):
        cotangent_point(data, np.array([[2.0, 0.0], [0.0, 0.5]]), np.zeros(1))


def test_phi_equivalence_classes(ws, rng):
    # sl(2): m = -I lies in the compact stabilizer
    data = ws.data("sl2r", (1, -1))
    pt = cotangent_point(data, random_in_K(ws.algebra("sl2r"), rng).matrix, np.array([0.8]))
    assert equivalence_gap(data, pt, -np.eye(2)) < 1e-9
    # sl(3) wall case has a continuous stabilizer
    import scipy.linalg

    from lieorb.parabolic import z_k_coords

    data3 = ws.data("sl3r", (1, 1, -2))
    alg3 = ws.algebra("sl3r")
    zk = z_k_coords(data3)
    assert zk.shape[0] > 0
    m = scipy.linalg.expm(0.6 * alg3.from_coords(zk[0]))
    pt3 = cotangent_point(data3, random_in_K(alg3, rng).matrix, rng.standard_normal(2))
    assert equivalence_gap(data3, pt3, m) < 1e-9


def test_phi_equivariance(ws, rng):
    data = ws.data("sl3r", (1, 0, -1))
    alg = ws.algebra("sl3r")
    k0 = random_in_K(alg, rng).matrix
    k = random_in_K(alg, rng).matrix
    V = rng.standard_normal(3)
    a = phi_lambda(data, cotangent_point(data, k0 @ k, V), validate=False)
    b = phi_lambda(data, cotangent_point(data, k, V), validate=False)
    np.testing.assert_allclose(a.w, k0 @ b.w @ np.linalg.inv(k0), atol=1e-9)


def test_project_pi(ws, rng):
    data = ws.data("sl3r", (1, 0, -1))
    alg = ws.algebra("sl3r")
    bc = project_pi(data, orbit_point(alg, data.c, np.eye(3)))
    assert coset_gap(data, bc.k, np.eye(3)) < 1e-12
    nelt = exp_H(data, rng.standard_normal(3))
    bc = project_pi(data, orbit_point(alg, data.c, nelt.matrix, validate=False))
    assert coset_gap(data, bc.k, np.eye(3)) < 1e-9


def test_project_pi_takes_the_iwasawa_k_factor(ws, rng):
    # k in K maps to itself and exp_H(V) in N(c) to I; the a n it drops is
    # exactly 0 below c's block diagonal, so it lies in P(c)
    for key, entries in (("sl3r", (1, 0, -1)), ("sl3r", (1, 1, -2)), ("sl3c", (1, 0, -1))):
        data = ws.data(key, entries)
        alg = data.algebra
        k = random_in_K(alg, rng).matrix
        np.testing.assert_allclose(project_pi(data, orbit_point(alg, data.c, k)).k, k, atol=1e-9)
        nelt = exp_H(data, rng.standard_normal(data.n_dim)).matrix
        on = orbit_point(alg, data.c, nelt, validate=False)
        np.testing.assert_allclose(project_pi(data, on).k, np.eye(alg.d), atol=1e-9)
        g = k @ expm(random_element(alg, rng, 0.5)) @ nelt
        k_g, a, n = iwasawa_decompose(alg, g)
        c = np.diagonal(data.c)
        assert np.all((a.matrix @ n.matrix)[c[:, None] < c[None, :]] == 0), (key, entries)
        assert project_pi(data, orbit_point(alg, data.c, g, validate=False)).k.tobytes() == k_g.matrix.tobytes()


def test_project_pi_with_large_group_entries(ws):
    # |c| = 1e-3 and |V| ~ 17: group elements reach ~1e9, det g = 1 +- 1e-7
    data = ws.data("sl3r", ("1/1000", "0", "-1/1000"))
    alg = ws.algebra("sl3r")
    rng = np.random.default_rng(3)
    for _ in range(20):
        V = 17 * rng.standard_normal(3)
        k = random_in_K(alg, rng).matrix
        bc = project_pi(data, phi_lambda(data, cotangent_point(data, k, V), validate=False))
        assert coset_gap(data, bc.k, k) < 1e-9


def test_batched_project_pi_matches_point_loop(ws):
    # bit for bit: the batch runs the same QR, phases and products per point
    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        alg = data.algebra
        rng = np.random.default_rng(19)
        k = np.stack([random_in_K(alg, rng).matrix for _ in range(20)])
        on = phi_lambda(data, cotangent_point(data, k, 0.8 * rng.standard_normal((20, data.n_dim))), validate=False)
        batch = project_pi(data, on).k
        loop = np.stack([kp_decompose_single(alg, g, p_filtration_coords(data))[0] for g in on.g])
        assert batch.tobytes() == loop.tobytes(), (key, entries)
        assert coset_gap(data, batch, k) == max(coset_gap(data, a, b) for a, b in zip(batch, k))


def test_bundle_compatibility_sweep(ws, rng):
    for key, entries in (("sl3r", (1, 0, -1)), ("sl3c", (1, 0, -1))):
        data = ws.data(key, entries)
        alg = ws.algebra(key)
        for _ in range(15):
            pt = cotangent_point(data, random_in_K(alg, rng).matrix, rng.standard_normal(data.n_dim))
            bc = project_pi(data, phi_lambda(data, pt, validate=False))
            assert coset_gap(data, bc.k, pt.k) < 1e-9


def test_tautological_form(ws, rng):
    data = ws.data("sl2r", (1, -1))
    alg = ws.algebra("sl2r")
    H, E, F = alg.basis
    pt = cotangent_point(data, np.eye(2), np.array([1.0]))  # eta_E
    W = CotangentTangent(E - F, np.zeros(1))
    assert tautological_form(data, pt, W) == pytest.approx(4.0, abs=1e-12)
    # zero section and vertical directions are annihilated
    pt0 = cotangent_point(data, np.eye(2), np.zeros(1))
    assert tautological_form(data, pt0, W) == 0.0
    Wv = CotangentTangent(np.zeros((2, 2)), np.array([1.0]))
    assert tautological_form(data, pt, Wv) == 0.0


def test_liouville_vs_fd(ws, rng):
    cases = [("sl2r", (1, -1), 3), ("sl3r", (1, 0, -1), 4), ("sl3r", (1, 1, -2), 3), ("sl3c", (1, 0, -1), 2)]
    for key, entries, count in cases:
        data = ws.data(key, entries)
        alg = ws.algebra(key)
        for _ in range(count):
            pt = cotangent_point(data, random_in_K(alg, rng).matrix, 0.8 * rng.standard_normal(data.n_dim))
            assert liouville_fd_gap(data, pt) < 1e-6


def test_liouville_vertical_pair_vanishes(ws, rng):
    data = ws.data("sl3r", (1, 0, -1))
    pt = cotangent_point(data, np.eye(3), np.zeros(3))
    W1 = CotangentTangent(np.zeros((3, 3)), rng.standard_normal(3))
    W2 = CotangentTangent(np.zeros((3, 3)), rng.standard_normal(3))
    assert liouville_eval(data, pt, W1, W2) == 0.0


def test_pullback_hand_value_sl2(ws):
    # phi* Omega on (horizontal, vertical) at (I, v E) equals sigma = +4
    data = ws.data("sl2r", (1, -1))
    alg = ws.algebra("sl2r")
    H, E, F = alg.basis
    pt = cotangent_point(data, np.eye(2), np.array([0.7]))
    Wh = CotangentTangent(E - F, np.zeros(1))
    Wv = CotangentTangent(np.zeros((2, 2)), np.array([1.0]))
    assert liouville_eval(data, pt, Wh, Wv) == pytest.approx(4.0, abs=1e-12)
    w0 = H - 0.7 * E
    op = orbit_point(alg, data.c, np.eye(2) @ np.array([[1.0, 0.35], [0.0, 1.0]]), validate=False)
    np.testing.assert_allclose(op.w, w0, atol=1e-12)
    # representatives: horizontal E - F, vertical solves [X, w0] = -E
    X_v = 0.5 * E
    np.testing.assert_allclose(alg.bracket(X_v, w0), -E, atol=1e-12)
    assert kk_eval(alg, op, E - F, X_v) == pytest.approx(4.0, abs=1e-12)


def test_pullback_zero_section_blocks(ws):
    data = ws.data("sl3r", (1, 0, -1))
    pt = cotangent_point(data, np.eye(3), np.zeros(3))
    # both vertical-vertical blocks vanish: fibers are Lagrangian on each side
    alg = ws.algebra("sl3r")
    op = phi_lambda(data, pt, validate=False)
    for i in range(3):
        for j in range(3):
            Wi = CotangentTangent(np.zeros((3, 3)), np.eye(3)[i])
            Wj = CotangentTangent(np.zeros((3, 3)), np.eye(3)[j])
            assert liouville_eval(data, pt, Wi, Wj) == 0.0
            assert abs(kk_eval(alg, op, data.n_basis[i], data.n_basis[j])) < 1e-12
    assert pullback_residual(data, pt)[0] < 1e-6


def test_pullback_sweep(ws, rng):
    cases = [
        ("sl2r", (1, -1), 5),
        ("sl3r", (1, 0, -1), 5),
        ("sl3r", (1, 1, -2), 5),
        ("sl4r", (3, 1, -1, -3), 3),
        ("sl2c", (1, -1), 4),
        ("sl3c", (1, 0, -1), 3),
    ]
    for key, entries, count in cases:
        data = ws.data(key, entries)
        alg = ws.algebra(key)
        for _ in range(count):
            pt = cotangent_point(data, random_in_K(alg, rng).matrix, 0.8 * rng.standard_normal(data.n_dim))
            assert pullback_residual(data, pt)[0] < 1e-6


def test_batched_fd_checks_match_single_points(ws):
    # a stack of points is judged as the max of its single-point calls
    rng = np.random.default_rng(11)
    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        alg = ws.algebra(key)
        pts = [cotangent_point(data, random_in_K(alg, rng).matrix, 0.8 * rng.standard_normal(data.n_dim))
               for _ in range(4)]
        k, V = np.stack([p.k for p in pts]), np.stack([p.V for p in pts])
        for check in (lambda d, p: pullback_residual(d, p)[0], liouville_fd_gap):
            batched = check(data, CotangentPoint(k, V))
            assert abs(batched - max(check(data, p) for p in pts)) <= 1e-4 * 1e-6
            assert check(data, CotangentPoint(k.reshape((2, 2) + k.shape[1:]), V.reshape(2, 2, -1))) == batched


def test_pullback_exact_to_rounding(ws):
    # exact representatives leave only rounding in phi* Omega - sigma
    rng = np.random.default_rng(13)
    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        alg = ws.algebra(key)
        k = np.stack([random_in_K(alg, rng).matrix for _ in range(6)])
        V = 0.8 * rng.standard_normal((6, data.n_dim))
        assert pullback_residual(data, CotangentPoint(k, V))[0] <= 1e-12, entries


# the one tangent witness error, with the input it names: chamber and max|V|
_V = np.array([1.0, -2.0, 0.5])
_TANGENT_MISS = (r"pullback_residual: tangent witness disagrees with the exact orbit tangent "
                 r"at c = \('1', '0', '-1'\), max\|V\| = 2\.000e\+00")


def test_pullback_names_mis_graded_fiber_tangent(ws, monkeypatch):
    # X_b built with grades x (1 + 1e-4), while exp_H and the linear chart read the true data
    data = ws.data("sl3r", (1, 0, -1))
    exp_H, linear_chart = symplecto.exp_H, symplecto.linear_chart
    monkeypatch.setattr(symplecto, "exp_H", lambda d, V: exp_H(data, V))
    monkeypatch.setattr(symplecto, "linear_chart", lambda d, V: linear_chart(data, V))
    bad = dataclasses.replace(data, grades=data.grades * (1.0 + 1e-4))
    with pytest.raises(DecompositionError, match=_TANGENT_MISS + r", fiber direction 0: tangent gap \S+ > \S+"):
        pullback_residual(bad, cotangent_point(bad, np.eye(3), _V))


def test_pullback_names_mis_scaled_horizontal_tangent(ws, monkeypatch):
    # the frame's Y_i doubled in X only: the steps exp(+-STEP Y_i) stay the true ones
    data = ws.data("sl3r", (1, 0, -1))
    frame = chart_frame(data)
    monkeypatch.setattr(symplecto, "chart_frame", lambda d: frame._replace(Ys=2 * frame.Ys))
    with pytest.raises(DecompositionError, match=_TANGENT_MISS + r", horizontal direction 0: tangent gap \S+ > \S+"):
        pullback_residual(data, cotangent_point(data, np.eye(3), _V))


def test_pullback_batch_names_first_failing_point(ws, monkeypatch):
    # w of point 1 only scaled by 1.001: [X_b, w] leaves the fiber tangent -Ad(k) V_b there
    data = ws.data("sl3r", (1, 0, -1))
    orbit_point = symplecto.orbit_point

    def drifted(algebra, c, g, validate=True):
        on = orbit_point(algebra, c, g, validate=validate)
        scale = np.where(np.arange(len(g)) == 1, 1.001, 1.0)
        return OrbitPoint(on.g, scale[:, None, None] * on.w)

    monkeypatch.setattr(symplecto, "orbit_point", drifted)
    batch = CotangentPoint(np.stack([np.eye(3)] * 3), np.stack([_V / 4, _V, 2 * _V]))
    with pytest.raises(DecompositionError, match=_TANGENT_MISS + r", fiber direction 0: tangent gap \S+ > \S+"):
        pullback_residual(data, batch)


def test_pullback_ties_the_flow_to_the_linear_chart(ws, monkeypatch):
    # a flow off by 1e-6 max|n| at point 1 of the sample points only
    data = ws.data("sl3r", (1, 0, -1))
    exp_H = symplecto.exp_H

    def drifted(d, V):
        g = exp_H(d, V)
        M = g.matrix.copy()
        M[1, 0, 2] += 1e-6 * np.max(np.abs(M[1]))
        return GroupElement(M)

    monkeypatch.setattr(symplecto, "exp_H", drifted)
    batch = CotangentPoint(np.stack([np.eye(3)] * 3), np.stack([_V / 4, _V, 2 * _V]))
    pattern = (r"pullback_residual: exp_H\(V\) leaves the linear chart at c = \('1', '0', '-1'\), "
               r"max\|V\| = 2\.000e\+00: gap \S+ > \S+ at point \(1,\)")
    with pytest.raises(DecompositionError, match=pattern):
        pullback_residual(data, batch)


def test_pullback_flows_only_its_sample_points(ws, monkeypatch):
    # no perturbed point is flowed or charted: one exp_H and one linear_chart, both on the sample points
    data = ws.data("sl3r", (1, 0, -1))
    calls = []
    exp_H, linear_chart = symplecto.exp_H, symplecto.linear_chart
    monkeypatch.setattr(symplecto, "exp_H", lambda d, V: calls.append(("exp_H", np.shape(V))) or exp_H(d, V))
    monkeypatch.setattr(symplecto, "linear_chart",
                        lambda d, V: calls.append(("linear_chart", np.shape(V))) or linear_chart(d, V))
    batch = CotangentPoint(np.stack([np.eye(3)] * 3), np.stack([_V / 4, _V, 2 * _V]))
    pullback_residual(data, batch)
    assert calls == [("exp_H", (3, 3)), ("linear_chart", (3, 3))]


@pytest.mark.parametrize("field", "RC")
def test_orbit_map_path_reads_no_coordinates(field, monkeypatch):
    """phi, pi and the fiber chart on prepared sl(5) data, the perfbench orbit-map path, never call coords."""
    data = cold_data(field, 5, (4, 2, 0, -2, -4))
    rng = np.random.default_rng(5)
    k, V = random_in_K(data.algebra, rng).matrix, rng.standard_normal(data.n_dim)
    calls = []
    coords = MatrixLieAlgebra.coords
    monkeypatch.setattr(MatrixLieAlgebra, "coords", lambda self, X: calls.append(np.shape(X)) or coords(self, X))
    w = phi_lambda(data, cotangent_point(data, k, V))
    project_pi(data, w)
    invert_exp_H(data, exp_H(data, V))
    assert calls == []


def test_chart_frame_matches_per_call_formulas(ws):
    # bit for bit on DATA_GRID: what the frame keeps per data is what each call used to build,
    # and the orbit points pullback_residual returns are phi_lambda's
    rng = np.random.default_rng(29)
    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        pts = CotangentPoint(random_in_K(data.algebra, rng, (5,)).matrix, 0.8 * rng.standard_normal((5, data.n_dim)))
        residual, on = pullback_residual(data, pts)
        ref, E = pullback_per_call(data, pts)
        assert residual == ref and chart_frame(data).E.tobytes() == E.tobytes(), (key, entries)
        ref_on = phi_lambda(data, pts, validate=False)
        assert [x.tobytes() for x in (on.g, on.w)] == [x.tobytes() for x in (ref_on.g, ref_on.w)], (key, entries)
        assert liouville_fd_gap(data, pts) == liouville_fd_gap_per_call(data, pts), (key, entries)
        fiber = pts.V[:, None, None, :] + STEP * np.array([1.0, -1.0])[:, None, None] * np.eye(data.n_dim)
        assert linear_chart(data, fiber).matrix.tobytes() == linear_chart_per_call(data, fiber).tobytes(), key


def test_section_lagrangian(ws, rng):
    data = ws.data("sl2r", (1, -1))
    assert section_lagrangian_check(data, ws.split("sl2r"), rng, samples=3) < 1e-12
    data3 = ws.data("sl3r", (1, 0, -1))
    assert section_lagrangian_check(data3, ws.split("sl3r"), rng, samples=5) < 1e-9
    # theta-flip identity at the base point: Omega(X, Y) = -Omega(X, Y) on k
    alg = ws.algebra("sl3r")
    split = ws.split("sl3r")
    op = orbit_point(alg, data3.c, np.eye(3))
    for X in split.k_basis:
        for Y in split.k_basis:
            assert abs(kk_eval(alg, op, X, Y)) < 1e-12


def test_injectivity_sampling(ws, rng):
    data = ws.data("sl3r", (1, 0, -1))
    alg = ws.algebra("sl3r")
    pts = []
    for _ in range(15):
        pts.append(cotangent_point(data, random_in_K(alg, rng).matrix, rng.standard_normal(3)))
    ws_ = [phi_lambda(data, p, validate=False).w for p in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            distinct = coset_gap(data, pts[i].k, pts[j].k) > 1e-3 or np.max(
                np.abs(pts[i].V - pts[j].V)
            ) > 1e-3
            if distinct:
                assert np.max(np.abs(ws_[i] - ws_[j])) > 1e-7


def test_horizontal_basis_spans_complement(ws):
    data = ws.data("sl3r", (1, 0, -1))
    Ys = horizontal_basis(data)
    assert Ys.shape[0] == data.n_dim
    coords = np.stack([ws.algebra("sl3r").coords(Y) for Y in Ys])
    assert np.linalg.matrix_rank(coords) == data.n_dim


@pytest.mark.parametrize("key, entries", [("sl2r", (1, -1)), ("sl3r", (1, 0, -1))])
def test_coset_gap_refuses_a_boost_that_fixes_c(ws, key, entries):
    """A boost in the (0, n - 1) plane keeps m c m^T = c but is not in K, so only coset_gap's in-K term sees it."""
    data = ws.data(key, entries)
    n, t = data.algebra.d, 0.3
    m = np.eye(n)
    m[np.ix_([0, n - 1], [0, n - 1])] = [[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]]
    assert np.max(np.abs(m @ data.c @ m.T - data.c)) < 1e-15
    assert coset_gap(data, np.eye(n), m) > 0.6  # |m^T m - I| = sinh(2t) = 0.637
