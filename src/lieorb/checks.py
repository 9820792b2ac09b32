"""The report checks: one function per check, each certifying one layer by two routes.

A check takes (ctx, rng).  ctx holds the run's objects: config (a RunConfig:
c_entries, samples, seed and tol(class)), algebra, split (the Cartan split),
rs (the restricted roots), real_entries (the entries of c where all are
rational, else None) and data (the HyperbolicData of the chamber-sorted c,
which a real c needs).  rng is the numpy Generator every draw of the check
comes from, so a section is fixed by the seed.  A check returns its report
section, a JSON-ready dict: each residual as {value, tol, kind, pass}
(_res), descriptive fields beside them, and "pass", which holds when every
residual passes.  CHECK_FUNCS maps each check's name to its function.
"""

from __future__ import annotations

import numpy as np

from .liecore import ConfigurationError, complex_trace_form, expm, k_from_normals, killing_compare_realified
from .liecore import per_instance, random_element
from .rootspace import k_from_roots_check, weight_code
from .parabolic import z_k_coords
from .kkform import closedness_check, exactness_verdict, fiber_isotropy_check, k_orbit_lagrangian_check, kk_eval
from .kkform import nondegeneracy_check, orbit_point
from .flows import commute_residual, exp_H, flow_exact, flow_numeric, invert_exp_H, linear_chart
from .symplecto import CotangentPoint, coset_gap, cotangent_point, liouville_fd_gap, phi_lambda, project_pi
from .symplecto import pullback_residual, section_lagrangian_check


def _res(value: float, tol: float, kind: str = "max") -> dict:
    ok = value <= tol if kind == "max" else value >= tol
    return {"value": float(value), "tol": float(tol), "kind": kind, "pass": bool(ok)}


def _section_pass(section: dict) -> bool:
    return all(v["pass"] for v in section.values() if isinstance(v, dict) and isinstance(v.get("pass"), bool))


@per_instance
def _roots_values(rs, split) -> tuple:
    """check_roots' values: each root's (alpha, mult), then dims ok, bracket grading, theta pairing, k_from_roots."""
    alg = rs.algebra
    # every root space is spanned by basis vectors: each basis index's weight
    # (0 on g_0) as one integer code, which adds where weights do
    weight = weight_code(rs.weights)
    ri = np.flatnonzero(weight)
    # the nonzero c_ijk between root vectors b_i, b_j whose codes do not add to b_k's
    i, j, k, v = alg.nonzeros
    outside = (weight[i] != 0) & (weight[j] != 0) & (weight[k] != weight[i] + weight[j])
    grading = float(np.max(np.abs(v[outside]), initial=0.0))
    # theta(X_i) = s_i X_pi(i) must have the weight -weight_i
    theta_pair = float(np.any(weight[alg.theta_perm[ri]] != -weight[ri]))
    dims_ok = alg.dim == len(rs.zero_indices) + sum(r.multiplicity for r in rs.roots)
    roots = tuple((tuple(int(w) for w in r.weights), int(r.multiplicity)) for r in rs.roots)
    return roots, dims_ok, grading, theta_pair, k_from_roots_check(rs, split)


def check_roots(ctx, rng) -> dict:
    rs, tol = ctx.rs, ctx.config.tol("decomposition")
    roots, dims_ok, grading, theta_pair, k_roots = _roots_values(rs, ctx.split)
    section = {
        "roots": [{"alpha": list(alpha), "mult": mult} for alpha, mult in roots],
        "dim_m": int(rs.m_coords.shape[0]),
        "dim_a": int(rs.rank),
        "dimension_bookkeeping": _res(float(not dims_ok), 0.5),
        "bracket_grading": _res(grading, tol),
        "theta_pairing": _res(theta_pair, tol),
        "k_from_roots": _res(k_roots, tol),
    }
    section["pass"] = _section_pass(section)
    return section


def check_parabolic(ctx, rng) -> dict:
    data, cfg = ctx.data, ctx.config
    alg = ctx.algebra
    ortho = float(np.max(np.abs(alg.killing_matrix[np.ix_(data.b_indices, data.z_indices + data.b_indices)])))
    half = data.n_dim * 2 == alg.dim - len(data.z_indices)
    # Ad of the compact stabilizer preserves each eigenvalue level: label the
    # basis indices of n(c) by their grade (NaN off n(c)), one draw per element
    level = np.full(alg.dim, np.nan)
    level[list(data.b_indices)] = data.grades
    zk = z_k_coords(data)
    m = expm(rng.uniform(-1, 1, len(zk))[:, None, None] * alg.from_coords(zk))
    moved = alg.coords(m[:, None] @ data.n_basis @ np.linalg.inv(m)[:, None])  # [element, j]
    ad_inv = float(np.max(np.abs(np.where(level != data.grades[:, None], moved, 0.0)), initial=0.0))
    section = {
        "dim_z": len(data.z_indices),
        "dim_n": data.n_dim,
        "eigenvalues": [[nu, dj] for (nu, dj) in data.levels],
        "N0": data.N0,
        "killing_n_vs_P": _res(ortho, cfg.tol("structural")),
        "half_dimension": _res(float(not half), 0.5),
        "stabilizer_invariance": _res(ad_inv, cfg.tol("decomposition")),
    }
    section["pass"] = _section_pass(section)
    return section


# the values of check_kk and check_arnold that no draw enters; those at c read it as the config gives it
_nondegeneracy = per_instance(lambda data: nondegeneracy_check(data))
_killing_gap = per_instance(lambda rs: killing_compare_realified(rs.algebra))
_k_lagrangian = per_instance(
    lambda rs, split, entries: k_orbit_lagrangian_check(rs.algebra, split, rs.algebra.element_from_entries(entries))[0])


@per_instance
def _verdict(rs, split, entries) -> tuple:
    """exactness_verdict at c: re_exact, im_exact and the evidence's items."""
    verdict = exactness_verdict(rs.algebra, split, entries)
    return verdict["re_exact"], verdict["im_exact"], tuple(verdict["evidence"].items())


@per_instance
def _spectrum_gap(rs, entries) -> float:
    """max |eigenvalue of ad(c) - the pair differences c_a - c_b|, each seen twice when realified."""
    alg = rs.algebra
    ev = np.sort_complex(np.linalg.eigvals(alg.ad_matrix_of(alg.element_from_entries(entries))))
    expect = [float(a - b) for a in entries for b in entries if a != b] * 2
    expect = np.sort_complex(np.array(expect + [0.0] * (alg.dim - len(expect)), dtype=complex))
    return float(np.max(np.abs(ev - expect)))


def check_kk(ctx, rng) -> dict:
    alg, cfg = ctx.algebra, ctx.config
    c = alg.element_from_entries(ctx.config.c_entries)
    real = ctx.real_entries
    # one draw for all samples, each in the order g, X, Y, Z, h; g and h at scale 0.4; then,
    # on a real c, the 3 elements that move the fiber; one expm for g, h and those
    draws = rng.standard_normal((max(5, cfg.samples // 4), 5, alg.dim)) * np.array([0.4, 1, 1, 1, 0.4])[:, None]
    moved = 0.4 * rng.standard_normal((0 if real is None else 3, alg.dim))
    a, X, Y, Z, b = np.moveaxis(alg.from_coords(draws), 1, 0)
    g, h, moved = np.split(expm(np.concatenate([a, b, alg.from_coords(moved)])), [len(a), 2 * len(a)])
    pt = orbit_point(alg, c, g, validate=False)
    XY, YX, XX = kk_eval(alg, pt, np.stack([X, Y, X]), np.stack([Y, X, X]))
    anti = float(np.max(np.abs(np.concatenate([XY + YX, XX]))))
    closed = float(np.max(closedness_check(alg, pt, X, Y, Z)))
    pt2 = orbit_point(alg, c, h @ g, validate=False)
    h_inv = np.linalg.inv(h)
    inv = float(np.max(np.abs(kk_eval(alg, pt2, h @ X @ h_inv, h @ Y @ h_inv) - XY)))
    scale = max(1.0, float(np.max(np.abs(alg.killing_matrix))))
    section = {
        "antisymmetry": _res(anti, cfg.tol("structural") * scale),
        "invariance": _res(inv, cfg.tol("decomposition") * scale * 10),
        "closedness": _res(closed, cfg.tol("decomposition") * scale),
    }
    if real is not None:
        data = ctx.data
        iso = fiber_isotropy_check(data, np.concatenate([np.eye(alg.d)[None], moved]))  # the base fiber, then moved
        section["fiber_isotropy"] = _res(iso, cfg.tol("decomposition"))
        section["nondegeneracy"] = _res(_nondegeneracy(data), cfg.tol("eigen"), kind="min")
    if alg.is_complex:
        re_exact, im_exact, evidence = _verdict(ctx.rs, ctx.split, cfg.c_entries)
        section["exactness_verdict"] = {"re_exact": re_exact, "im_exact": im_exact, "evidence": dict(evidence)}
        section["killing_realified_gap"] = _res(_killing_gap(ctx.rs), cfg.tol("decomposition"))
        which = "re" if re_exact else ("im" if im_exact else None)
        if which:
            section["k_lagrangian"] = _res(dict(evidence)[f"{which}_restriction_max"], cfg.tol("structural"))
    else:
        section["k_lagrangian"] = _res(_k_lagrangian(ctx.rs, ctx.split, cfg.c_entries), cfg.tol("structural"))
    section["pass"] = _section_pass(section)
    return section


@per_instance
def _commute_pairs(data) -> float:
    """commute_residual over every pair of basis vectors of n(c)."""
    a, b = np.triu_indices(data.n_dim, 1)
    return commute_residual(data, np.eye(data.n_dim)[a], np.eye(data.n_dim)[b])


def check_flow(ctx, rng) -> dict:
    data, cfg = ctx.data, ctx.config
    V, U0 = rng.standard_normal((2, cfg.samples, data.n_dim))
    fp = flow_exact(data, V, U0)
    times = (1.0, -2.0)
    gap = float(np.max(np.abs(fp.eval(np.array(times)) - flow_numeric(data, V, U0, times))))
    values, counts = np.unique(fp.degrees, return_counts=True)
    commute = _commute_pairs(data)
    g = exp_H(data, V[:25]).matrix
    roundtrip = float(np.max(np.abs(invert_exp_H(data, g) - V[:25])))
    chart = np.max(np.abs(g - linear_chart(data, V[:25]).matrix), axis=(-2, -1)) / np.max(np.abs(g), axis=(-2, -1))
    section = {
        "max_oracle_gap": _res(gap, cfg.tol("eigen")),
        "max_commute_residual": _res(commute, cfg.tol("decomposition")),
        "max_roundtrip_residual": _res(roundtrip, cfg.tol("decomposition")),
        "max_chart_gap": _res(float(np.max(chart, initial=0.0)), cfg.tol("decomposition")),
        # every point counts once per witness time
        "degree_histogram": {str(k): len(times) * int(v) for k, v in zip(values, counts)},
        "degree_bound_violations": _res(float(np.any(fp.degrees > fp.degree_bound)), 0.5),
    }
    section["pass"] = _section_pass(section)
    return section


def _sample_points(data, rng, count: int):
    """count cotangent points (k, 0.8 V) as one batch, from one draw that holds each point's k, then its V."""
    m = data.algebra.d * data.algebra.n  # normals per k
    z = rng.standard_normal((count, m + data.n_dim))
    return cotangent_point(data, k_from_normals(data.algebra, z[:, :m]).matrix, 0.8 * z[:, m:])


def check_symplecto(ctx, rng) -> dict:
    data, cfg = ctx.data, ctx.config
    n = cfg.samples
    # one draw: the pullback's points, then the Liouville check's
    drawn = _sample_points(data, rng, n + max(2, n // 5))
    pts, fd_pts = (CotangentPoint(drawn.k[part], drawn.V[part]) for part in (slice(n), slice(n, None)))
    pull, on = pullback_residual(data, pts)
    bundle = coset_gap(data, project_pi(data, on).k, pts.k)
    zero = phi_lambda(data, CotangentPoint(pts.k, np.zeros_like(pts.V)), validate=False)
    zero_gap = float(np.max(np.abs(zero.w - pts.k @ data.c @ pts.k.mT)))
    liou = liouville_fd_gap(data, fd_pts)
    section_res = section_lagrangian_check(data, ctx.split, rng, samples=max(3, cfg.samples // 4))
    out = {
        "pullback_max_residual": _res(pull, cfg.tol("finite_difference")),
        "bundle_residual": _res(bundle, cfg.tol("decomposition")),
        "section_residual": _res(section_res, cfg.tol("decomposition")),
        "zero_section_gap": _res(zero_gap, cfg.tol("decomposition")),
        "liouville_fd_gap": _res(liou, cfg.tol("finite_difference")),
        "samples": cfg.samples,
        "seed": cfg.seed,
    }
    out["pass"] = _section_pass(out)
    return out


def check_arnold(ctx, rng) -> dict:
    """End-to-end scenario: realified sl(n, C), regular real diagonal c."""
    alg, cfg = ctx.algebra, ctx.config
    if not alg.is_complex:
        raise ConfigurationError("the arnold scenario needs the complex-realified family")
    entries = ctx.real_entries
    if entries is None:
        raise ConfigurationError("the arnold scenario needs real diagonal entries")
    if len(set(entries)) != len(entries):
        raise ConfigurationError("the arnold scenario needs a regular element")
    spec_gap = _spectrum_gap(ctx.rs, entries)
    re_exact, im_exact, _ = _verdict(ctx.rs, ctx.split, entries)
    # Re of the holomorphic form is half the realified form (B_R = 2 Re B_C)
    pt = orbit_point(alg, alg.element_from_entries(entries), expm(random_element(alg, rng, 0.3)), validate=False)
    X, Y = np.moveaxis(alg.from_coords(rng.standard_normal((10, 2, alg.dim))), 1, 0)  # X, then Y per sample
    om_c = complex_trace_form(alg, pt.w, alg.bracket(X, Y))
    scale_gap = float(np.max(np.abs(om_c.real - kk_eval(alg, pt, X, Y) / 2.0)))
    sympl = check_symplecto(ctx, rng)
    out = {
        "ad_spectrum_gap": _res(spec_gap, cfg.tol("decomposition")),
        "re_exact": re_exact,
        "im_exact": im_exact,
        "re_exact_ok": _res(float(not re_exact), 0.5),
        "re_omega_scale_gap": _res(scale_gap, cfg.tol("decomposition") * 100),
        "symplecto": sympl,
    }
    out["pass"] = _section_pass(out)
    return out


CHECK_FUNCS = {
    "roots": check_roots,
    "parabolic": check_parabolic,
    "kk": check_kk,
    "flow": check_flow,
    "symplecto": check_symplecto,
    "arnold": check_arnold,
}
