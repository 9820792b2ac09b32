import re

import numpy as np
import pytest
import scipy.linalg

from lieorb.kkform import (
    exactness_verdict,
    fiber_isotropy_check,
    k_orbit_lagrangian_check,
    kk_eval,
    kk_gram,
    nondegeneracy_check,
    orbit_point,
)
from lieorb.liecore import TOL_DECOMP, AlgebraSpec, ConfigurationError, DecompositionError, InconsistencyError
from lieorb.liecore import build_algebra, random_element
from conftest import ALGEBRA_SPECS
from oracles import ad_coord_einsum, dual_element, killing, killing_matrix_oracle, kk_gram_dense, omega_rank
from oracles import re_dual_gap


def _pt(ws, key, entries, g=None):
    alg = ws.algebra(key)
    c = alg.element_from_entries(entries)
    return alg, orbit_point(alg, c, np.eye(alg.d) if g is None else g)


def test_kk_eval_base_value(ws):
    alg, pt = _pt(ws, "sl2r", (1, -1))
    H, E, F = alg.basis
    # oracle: B(H, [E, F]) = B(H, H) via the brute-force Killing matrix
    K = killing_matrix_oracle(alg)
    assert K[0, 0] == pytest.approx(8.0, abs=1e-10)
    assert kk_eval(alg, pt, E, F) == pytest.approx(8.0, abs=1e-10)
    assert kk_eval(alg, pt, E, E) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("key", sorted(ALGEBRA_SPECS))
def test_kk_gram_matches_kk_eval(ws, rng, key):
    alg = ws.algebra(key)
    c = alg.element_from_entries([alg.n - 1 - 2 * k for k in range(alg.n)])
    for _ in range(3):
        pt = orbit_point(alg, c, scipy.linalg.expm(random_element(alg, rng, 0.4)), validate=False)
        Xc = rng.standard_normal((4, alg.dim))
        Yc = rng.standard_normal((3, alg.dim))
        gram = kk_gram(alg, pt.w, alg.from_coords(Xc), alg.from_coords(Yc))
        ref = np.array(
            [[kk_eval(alg, pt, alg.from_coords(x), alg.from_coords(y)) for y in Yc] for x in Xc]
        )
        np.testing.assert_allclose(gram, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
        square = np.array([[kk_eval(alg, pt, alg.from_coords(x), alg.from_coords(y)) for y in Xc] for x in Xc])
        np.testing.assert_allclose(kk_gram(alg, pt.w, alg.from_coords(Xc)), square, rtol=0,
                                   atol=1e-12 * np.max(np.abs(square)))
    # on stacks of points and of pairs, kk_eval equals the per-item calls
    g = scipy.linalg.expm(alg.from_coords(0.4 * rng.standard_normal((4, alg.dim))))
    pts = orbit_point(alg, c, g, validate=False)
    X, Y = alg.from_coords(rng.standard_normal((2, 4, alg.dim)))
    single = [orbit_point(alg, c, gi, validate=False) for gi in g]
    np.testing.assert_array_equal(kk_eval(alg, pts, X, Y), [kk_eval(alg, p, x, y) for p, x, y in zip(single, X, Y)])
    np.testing.assert_array_equal(kk_eval(alg, single[0], X, Y), [kk_eval(alg, single[0], x, y) for x, y in zip(X, Y)])


@pytest.mark.parametrize("spec", [AlgebraSpec("sl", n, "R") for n in range(2, 7)]
                         + [AlgebraSpec("sl", n, "C") for n in range(2, 6)], ids=lambda s: f"sl{s.n}{s.field.lower()}")
def test_kk_gram_matches_the_structure_constant_route(spec):
    """kk_gram on matrices against the dim^3 contraction with the structure constants, a 4-point batch
    against its per-point calls, and ad_matrix_of against the structure constants' einsum."""
    alg, rng = build_algebra(spec), np.random.default_rng(spec.n)
    c = alg.element_from_entries([alg.n - 1 - 2 * k for k in range(alg.n)])
    g = scipy.linalg.expm(alg.from_coords(0.4 * rng.standard_normal((4, alg.dim))))
    pts = orbit_point(alg, c, g, validate=False)
    Xc, Yc = rng.standard_normal((2, 4, 5, alg.dim))
    X, Y = alg.from_coords(Xc), alg.from_coords(Yc)
    for gram, ref in ((kk_gram(alg, pts.w, X, Y), kk_gram_dense(alg, alg.coords(pts.w), Xc, Yc)),
                      (kk_gram(alg, pts.w, X), kk_gram_dense(alg, alg.coords(pts.w), Xc))):
        assert np.max(np.abs(gram - ref)) <= 1e-13 * np.max(np.abs(ref))
    np.testing.assert_array_equal(kk_gram(alg, pts.w, X, Y),
                                  [kk_gram(alg, w, x, y) for w, x, y in zip(pts.w, X, Y)])
    np.testing.assert_array_equal(kk_gram(alg, pts.w, X), [kk_gram(alg, w, x) for w, x in zip(pts.w, X)])
    # one stack of directions shared by the batch, as the chart frame's
    np.testing.assert_array_equal(kk_gram(alg, pts.w, X[0]), [kk_gram(alg, w, X[0]) for w in pts.w])
    # exact on an integer chamber element; on random elements within rounding of the entries' scale
    np.testing.assert_array_equal(alg.ad_matrix_of(c), ad_coord_einsum(alg, alg.coords(c)))
    for x in rng.standard_normal((3, alg.dim)):
        ref = ad_coord_einsum(alg, x)
        assert np.max(np.abs(alg.ad_matrix_of(alg.from_coords(x)) - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_antisymmetry_and_degeneracy(ws, rng):
    alg, pt = _pt(ws, "sl3r", (1, 0, -1))
    for X in alg.basis:
        for Y in alg.basis:
            assert kk_eval(alg, pt, X, Y) == pytest.approx(-kk_eval(alg, pt, Y, X), abs=1e-10)
    for _ in range(100):
        X, Y = random_element(alg, rng), random_element(alg, rng)
        assert kk_eval(alg, pt, X, Y) == pytest.approx(-kk_eval(alg, pt, Y, X), abs=1e-10)
    # perturbing by centralizer elements does not change the value
    data = ws.data("sl3r", (1, 0, -1))
    for _ in range(10):
        X, Y = random_element(alg, rng), random_element(alg, rng)
        Z = alg.from_coords(rng.standard_normal(len(data.z_indices)) @ np.eye(alg.dim)[list(data.z_indices)])
        assert kk_eval(alg, pt, X + Z, Y) == pytest.approx(kk_eval(alg, pt, X, Y), abs=1e-10)


def test_tangent_rep_vanishes_iff_centralizer(ws, rng):
    alg, pt = _pt(ws, "sl3r", (1, 0, -1))
    data = ws.data("sl3r", (1, 0, -1))
    Z = alg.from_coords(rng.standard_normal(len(data.z_indices)) @ np.eye(alg.dim)[list(data.z_indices)])
    assert np.max(np.abs(alg.bracket(Z, pt.w))) < 1e-10
    V = data.n_basis[0]
    assert np.max(np.abs(alg.bracket(V, pt.w))) > 1e-3


def test_g_invariance(ws, rng):
    alg, pt = _pt(ws, "sl3r", (1, 0, -1))
    for _ in range(20):
        g = scipy.linalg.expm(random_element(alg, rng, 0.4))
        g_inv = np.linalg.inv(g)
        pt2 = orbit_point(alg, alg.element_from_entries((1, 0, -1)), g @ pt.g, validate=False)
        X, Y = random_element(alg, rng), random_element(alg, rng)
        lhs = kk_eval(alg, pt2, g @ X @ g_inv, g @ Y @ g_inv)
        assert lhs == pytest.approx(kk_eval(alg, pt, X, Y), abs=1e-9 * max(1, abs(lhs)))


def test_nondegeneracy(ws, rng):
    alg = ws.algebra("sl2r")
    data = ws.data("sl2r", (1, -1))
    assert nondegeneracy_check(data) == pytest.approx(8.0, abs=1e-9)
    data3 = ws.data("sl3r", (1, 0, -1))
    alg3 = ws.algebra("sl3r")
    assert nondegeneracy_check(data3) > 1e-8
    for _ in range(5):
        g = scipy.linalg.expm(random_element(alg3, rng, 0.4))
        pt = orbit_point(alg3, data3.c, g, validate=False)
        assert omega_rank(alg3, data3, pt) == alg3.dim - len(data3.z_indices)


def test_fiber_isotropy(ws, rng):
    from conftest import DATA_GRID

    assert fiber_isotropy_check(ws.data("sl2r", (1, -1))) == 0.0
    for key, entries in DATA_GRID:
        alg = ws.algebra(key)
        data = ws.data(key, entries)
        assert fiber_isotropy_check(data) < 1e-10
        for _ in range(3):
            g = scipy.linalg.expm(random_element(alg, rng, 0.4))
            assert fiber_isotropy_check(data, g) < 1e-9


def test_fiber_isotropy_root_pairing(ws):
    # B(c, [E12, E23]) pairs grade 1 with grade 2, hence vanishes exactly
    alg = ws.algebra("sl3r")
    data = ws.data("sl3r", (1, 0, -1))
    E12, E23 = data.n_basis[0], data.n_basis[1]
    assert abs(killing(alg, data.c, alg.bracket(E12, E23))) < 1e-12


def test_k_orbit_lagrangian_forms(ws):
    # [Re Omega, Im Omega] on a realified algebra, [Omega] on a real form
    alg = ws.algebra("sl2c")
    split = ws.split("sl2c")
    re_real, im_real = k_orbit_lagrangian_check(alg, split, alg.element_from_entries([1, -1]))
    re_imag, im_imag = k_orbit_lagrangian_check(alg, split, alg.element_from_entries([1j, -1j]))
    assert re_real < 1e-10 and im_imag < 1e-10
    assert re_imag > 1e-3 and im_real > 1e-3
    algr, splitr = ws.algebra("sl3r"), ws.split("sl3r")
    (omega,) = k_orbit_lagrangian_check(algr, splitr, algr.element_from_entries([1, 0, -1]))
    assert omega < 1e-10


def test_non_traceless_complex_c_is_refused(ws):
    # a complex c has no exact trace: its float sum is judged against
    # 1e-12 max(1, max|entry|), so it is refused over that and taken under it
    alg, split = ws.algebra("sl3c"), ws.split("sl3c")
    for entries in ([1j, 0, -1j + 1e-9], [1 + 1j, -1, 1e-6 - 1j], [1e4j, 0, 2e-8 - 1e4j]):
        with pytest.raises(ConfigurationError, match="diagonal entries must sum to zero"):
            alg.element_from_entries(entries)
        with pytest.raises(ConfigurationError, match="diagonal entries must sum to zero"):
            exactness_verdict(alg, split, entries)
    c = alg.element_from_entries([1e4j, 0, 5e-9 - 1e4j])
    assert c[0, 3] == -1e4 and c[2, 2] == 5e-9


def test_orbit_point_validation_sees_a_planted_spectrum_fault(ws, monkeypatch):
    # validate compares eigvals(w) with c's diagonal, each entry twice over C;
    # an inverse off by 1 + 1e-6 scales w, and so its spectrum, past
    # 10 TOL_DECOMP max(1, max|c|).  The refusal names its stage, the
    # eigenvalue gap, that limit and, in a batch, the first failing point
    inv = np.linalg.inv
    message = r"^orbit_point: conjugate has a different spectrum: eigenvalue gap (\S+) > (\S+), max\|g\| = (\S+)"
    for key, entries in (("sl3r", (2, 0, -2)), ("sl3c", (2, 0, -2)), ("sl3c", (1j, 0, -1j))):
        alg = ws.algebra(key)
        c = alg.element_from_entries(entries)
        g = scipy.linalg.expm(random_element(alg, np.random.default_rng(3), 0.4))
        pt = orbit_point(alg, c, g)
        np.testing.assert_array_equal(pt.w, g @ c @ inv(g))
        monkeypatch.setattr(np.linalg, "inv", lambda m: inv(m) * (1.0 + 1e-6))
        with pytest.raises(InconsistencyError, match=message + "$") as err:
            orbit_point(alg, c, g)
        gap, limit, size = map(float, re.match(message, str(err.value)).groups())
        assert limit == float(f"{TOL_DECOMP * max(1.0, max(abs(complex(e)) for e in entries)) * 10:.3e}"), key
        assert gap > limit and size == float(f"{np.max(np.abs(g)):.3e}"), key
        orbit_point(alg, c, g, validate=False)
        # points 1 and 2 of a batch are off, point 0 is not
        off = np.array([1.0, 1.0 + 1e-6, 1.0 + 2e-6])[:, None, None]
        monkeypatch.setattr(np.linalg, "inv", lambda m: inv(m) * off)
        with pytest.raises(InconsistencyError, match=message + r" at point \(1,\)$"):
            orbit_point(alg, c, np.stack([g] * 3))
        monkeypatch.setattr(np.linalg, "inv", inv)


def test_orbit_point_names_a_singular_g(ws):
    # inv's LinAlgError comes back as a DecompositionError naming the point
    for key in ("sl3r", "sl3c"):
        alg = ws.algebra(key)
        c = alg.element_from_entries((1, 0, -1))
        zero, one = np.zeros((alg.d, alg.d)), np.eye(alg.d)
        message = r"^orbit_point: g is singular, max\|g\| = 0\.000e\+00"
        with pytest.raises(DecompositionError, match=message + "$"):
            orbit_point(alg, c, zero)
        with pytest.raises(DecompositionError, match=message + r" at point \(1, 0\)$"):
            orbit_point(alg, c, np.stack([[one, one], [zero, one]]), validate=False)


def test_exactness_verdicts(ws):
    cases = {
        (1, -1): (True, False),
        (1j, -1j): (False, True),
        (1 + 1j, -1 - 1j): (False, False),
    }
    for key in ("sl2c", "sl3c"):
        alg, split = ws.algebra(key), ws.split(key)
        for entries, want in cases.items():
            padded = list(entries) + [0] * (alg.n - 2)
            v = exactness_verdict(alg, split, padded)
            assert (v["re_exact"], v["im_exact"]) == want
            if not v["re_exact"]:
                assert v["evidence"]["re_restriction_max"] > 1e-3
            else:
                assert v["evidence"]["re_restriction_max"] < 1e-10
    with pytest.raises(ConfigurationError):
        exactness_verdict(ws.algebra("sl2r"), ws.split("sl2r"), [1, -1])


def test_dual_element(ws, rng):
    alg = ws.algebra("sl3r")
    c = alg.element_from_entries([2, -1, -1])
    lam = np.array([killing(alg, c, b) for b in alg.basis])
    np.testing.assert_allclose(dual_element(alg, lam), c, atol=1e-10)


def test_re_duality(ws, rng):
    for key in ("sl2c", "sl3c"):
        alg = ws.algebra(key)
        n = alg.n
        for _ in range(10):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            z -= z.sum() / n
            assert re_dual_gap(alg, z) < 1e-10


def test_orbit_point_invariants(ws, rng):
    alg = ws.algebra("sl3r")
    c = alg.element_from_entries((1, 0, -1))
    g = scipy.linalg.expm(random_element(alg, rng, 0.5))
    pt = orbit_point(alg, c, g)
    np.testing.assert_allclose(pt.w, g @ c @ np.linalg.inv(g), atol=1e-10)
