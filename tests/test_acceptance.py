"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
All sampling is explicitly seeded; tolerances are pinned here and never
relaxed relative to the module-level defaults.
"""

import numpy as np
import pytest
import scipy.linalg

from lieorb import cli
from lieorb.flows import commute_residual, exp_H, flow_exact, flow_numeric, invert_exp_H
from lieorb.kkform import exactness_verdict, fiber_isotropy_check
from lieorb.liecore import killing_compare_realified, random_element, random_in_K
from lieorb.rootspace import k_from_roots_check
from lieorb.symplecto import (
    coset_gap,
    cotangent_point,
    liouville_fd_gap,
    phi_lambda,
    project_pi,
    pullback_residual,
)

from conftest import DATA_GRID
from oracles import re_dual_gap

ALL_KEYS = ("sl2r", "sl3r", "sl4r", "sl2c", "sl3c")


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_structure_suite(ws):
    worst = 0.0
    cond_ok = True
    for key in ALL_KEYS:
        alg = ws.algebra(key)
        c = alg.structure
        j1 = np.einsum("ijm,mkl->ijkl", c, c)
        worst = max(worst, float(np.max(np.abs(j1 + j1.transpose(1, 2, 0, 3) + j1.transpose(2, 0, 1, 3)))))
        K = alg.killing_matrix
        worst = max(worst, float(np.max(np.abs(np.einsum("zxm,my->zxy", c, K) + np.einsum("zym,xm->zxy", c, K)))))
        ev = np.linalg.eigvalsh(K)
        cond_ok = cond_ok and (np.min(np.abs(ev)) / np.max(np.abs(ev)) > 1e-8)
        worst = max(worst, alg.build_residuals["theta_automorphism"])
        split = ws.split(key)
        Qk, _ = np.linalg.qr(split.k_coords.T)
        Qp, _ = np.linalg.qr(split.p_coords.T)
        for X in split.k_basis:
            for Y in split.k_basis:
                v = alg.coords(alg.bracket(X, Y))
                worst = max(worst, float(np.max(np.abs(v - Qk @ (Qk.T @ v)))))
            for Y in split.p_basis:
                v = alg.coords(alg.bracket(X, Y))
                worst = max(worst, float(np.max(np.abs(v - Qp @ (Qp.T @ v)))))
        for X in split.p_basis:
            for Y in split.p_basis:
                v = alg.coords(alg.bracket(X, Y))
                worst = max(worst, float(np.max(np.abs(v - Qk @ (Qk.T @ v)))))
    ok = worst < 1e-10 and cond_ok
    _report(1, "structure-suite", ok, f"max residual {worst:.2e}, killing nondegenerate: {cond_ok}")


def test_criterion_2_root_suite(ws):
    dims_ok = True
    grading = 0.0
    for key in ALL_KEYS:
        alg, rs = ws.algebra(key), ws.rs(key)
        dims_ok = dims_ok and (
            alg.dim == rs.m_coords.shape[0] + rs.rank + sum(r.multiplicity for r in rs.roots)
        )
        weights = {tuple(int(x) for x in r.weights): r for r in rs.roots}
        for ra in rs.roots:
            for rb in rs.roots:
                t = tuple(int(x) for x in (ra.weights + rb.weights))
                span = rs.zero_indices if not any(t) else (weights[t].members if t in weights else None)
                Q = None
                if span is not None:
                    Q, _ = np.linalg.qr(np.eye(alg.dim)[span].T)
                for X in alg.basis[ra.members]:
                    for Y in alg.basis[rb.members]:
                        v = alg.coords(alg.bracket(X, Y))
                        resid = v if Q is None else v - Q @ (Q.T @ v)
                        grading = max(grading, float(np.max(np.abs(resid))))
        grading = max(grading, k_from_roots_check(rs, ws.split(key)))
    # ad(c) spectrum on realified sl(3, C) is the pair-difference multiset
    alg = ws.algebra("sl3c")
    spec_gap = 0.0
    for entries in ([2, 0, -2], [1 + 1j, -1 + 2j, -3j]):
        c = alg.element_from_entries(entries)
        ev = np.linalg.eigvals(alg.ad_matrix_of(c))
        want = []
        for a in entries:
            for b in entries:
                if a != b:
                    diff = complex(a) - complex(b)
                    want.extend([diff, diff.conjugate()])
        want.extend([0.0] * (alg.dim - len(want)))
        ev = sorted(ev, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        want = sorted(np.array(want, complex), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        spec_gap = max(spec_gap, float(np.max(np.abs(np.array(ev) - np.array(want)))))
    ok = dims_ok and grading < 1e-9 and spec_gap < 1e-9
    _report(2, "root-suite", ok, f"bookkeeping {dims_ok}, grading {grading:.2e}, ad-spectrum gap {spec_gap:.2e}")


def test_criterion_3_killing_duality(ws):
    rng = np.random.default_rng(303)
    worst_b = 0.0
    worst_dual = 0.0
    for key in ("sl2c", "sl3c"):
        alg = ws.algebra(key)
        worst_b = max(worst_b, killing_compare_realified(alg))
        for _ in range(10):
            z = rng.standard_normal(alg.n) + 1j * rng.standard_normal(alg.n)
            z -= z.sum() / alg.n
            worst_dual = max(worst_dual, re_dual_gap(alg, z))
    ok = worst_b < 1e-9 and worst_dual < 1e-10
    _report(3, "killing-duality", ok, f"|B_R - 2ReB_C| {worst_b:.2e}, |c - 2X_Re| {worst_dual:.2e}")


def test_criterion_4_exactness_grid(ws):
    grid = {
        (1, -1): (True, False),
        (1j, -1j): (False, True),
        (1 + 1j, -1 - 1j): (False, False),
    }
    agree = True
    vanish = 0.0
    witness = np.inf
    for key in ("sl2c", "sl3c"):
        alg, split = ws.algebra(key), ws.split(key)
        for entries, want in grid.items():
            padded = list(entries) + [0] * (alg.n - 2)
            v = exactness_verdict(alg, split, padded)  # raises on spectral/geometric mismatch
            agree = agree and (v["re_exact"], v["im_exact"]) == want
            for flag, resid in (
                (v["re_exact"], v["evidence"]["re_restriction_max"]),
                (v["im_exact"], v["evidence"]["im_restriction_max"]),
            ):
                if flag:
                    vanish = max(vanish, resid)
                else:
                    witness = min(witness, resid)
    ok = agree and vanish < 1e-10 and witness > 1e-3
    _report(4, "exactness-criterion", ok, f"agreement {agree}, vanishing {vanish:.2e}, witness {witness:.2e}")


def test_criterion_5_fiber_lagrangian(ws):
    rng = np.random.default_rng(505)
    at_base = 0.0
    translated = 0.0
    half = True
    for key, entries in DATA_GRID:
        alg = ws.algebra(key)
        data = ws.data(key, entries)
        at_base = max(at_base, fiber_isotropy_check(data))
        for _ in range(20):
            g = scipy.linalg.expm(random_element(alg, rng, 0.4))
            translated = max(translated, fiber_isotropy_check(data, g))
        half = half and (2 * data.n_dim == alg.dim - len(data.z_indices))
    ok = at_base < 1e-10 and translated < 1e-9 and half
    _report(5, "fiber-lagrangian", ok, f"base {at_base:.2e}, translated {translated:.2e}, half-dim {half}")


def test_criterion_6_flow_suite(ws):
    rng = np.random.default_rng(606)
    gap = 0.0
    per_pair = 8  # 8 instances x 7 (algebra, c) pairs > 50 random instances
    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        n = data.n_dim
        V = rng.standard_normal((per_pair, n))
        U0 = rng.standard_normal((per_pair, n))
        for t in (0.5, 1.0, -1.5, -2.0, 2.0):
            num = flow_numeric(data, V, U0, t)
            for i in range(per_pair):
                gap = max(gap, float(np.max(np.abs(flow_exact(data, V[i], U0[i]).eval(t) - num[i]))))
    commute = 0.0
    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        n = data.n_dim
        for i in range(n):
            for j in range(i + 1, n):
                commute = max(commute, commute_residual(data, np.eye(n)[i], np.eye(n)[j]))
    roundtrip = 0.0
    degree_ok = True
    for key, entries in DATA_GRID:
        data = ws.data(key, entries)
        for _ in range(15):  # 15 x 7 pairs > 100 samples
            V = rng.standard_normal(data.n_dim)
            roundtrip = max(roundtrip, float(np.max(np.abs(invert_exp_H(data, exp_H(data, V)) - V))))
            fp = flow_exact(data, V, rng.standard_normal(data.n_dim))
            degree_ok = degree_ok and fp.degree <= int(data.block_grades.max())  # tails < 1e-12 by construction
    ok = gap < 1e-8 and commute < 1e-9 and roundtrip < 1e-9 and degree_ok
    _report(
        6,
        "flow-suite",
        ok,
        f"oracle gap {gap:.2e}, commute {commute:.2e}, roundtrip {roundtrip:.2e}, degree bound {degree_ok}",
    )


def test_criterion_7_symplectomorphism_suite(ws):
    rng = np.random.default_rng(707)
    pull = bundle = zero_gap = liou = 0.0
    for key, entries in DATA_GRID:
        alg = ws.algebra(key)
        data = ws.data(key, entries)
        for i in range(20):
            pt = cotangent_point(data, random_in_K(alg, rng).matrix, 0.8 * rng.standard_normal(data.n_dim))
            pull = max(pull, pullback_residual(data, pt)[0])
            op = phi_lambda(data, pt, validate=False)
            bundle = max(bundle, coset_gap(data, project_pi(data, op).k, pt.k))
            if i < 3:
                liou = max(liou, liouville_fd_gap(data, pt))
            zpt = phi_lambda(data, cotangent_point(data, pt.k, np.zeros(data.n_dim)), validate=False)
            zero_gap = max(zero_gap, float(np.max(np.abs(zpt.w - pt.k @ data.c @ pt.k.T))))
    ok = pull < 1e-6 and bundle < 1e-9 and zero_gap < 1e-9 and liou < 1e-6
    _report(
        7,
        "symplectomorphism-suite",
        ok,
        f"pullback {pull:.2e}, bundle {bundle:.2e}, zero-section {zero_gap:.2e}, liouville-fd {liou:.2e}",
    )


def test_criterion_8_determinism():
    cfg = cli.parse_config(
        {
            "algebra": {"family": "sl", "n": 2, "field": "R"},
            "c": [1, -1],
            "checks": ["roots", "parabolic", "kk", "flow", "symplecto"],
            "seed": 11,
            "samples": 4,
        }
    )
    a = cli.dumps_report(cli.run(cfg)["body"])
    b = cli.dumps_report(cli.run(cfg)["body"])
    ok = a == b
    _report(8, "determinism", ok, f"{len(a)} bytes, byte-identical {ok}")
