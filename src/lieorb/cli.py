"""Configuration-driven verification runs with machine-readable JSON reports.

Usage:  lieorb <subcommand> --config path.json [--seed N] [--out path]

Subcommands: roots, parabolic, kk-check, flow-check, symplecto-verify,
arnold, fixture.  The config selects the algebra, the chamber element c and
tolerance overrides; the report body is deterministic for a fixed seed
(timestamps and runtimes live outside the body).  Exit codes: 0 all checks
pass, 1 a check failed, 2 configuration error, 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__
from .liecore import (
    TOL_DECOMP,
    TOL_EIGEN,
    TOL_STRUCT,
    AlgebraSpec,
    ConfigurationError,
    DecompositionError,
    InconsistencyError,
    build_algebra,
    cartan_split,
    complex_trace_form,
    expm,
    k_from_normals,
    killing_compare_realified,
    random_element,
    traceless,
)
from .rootspace import k_from_roots_check, maximal_abelian, restricted_roots, weight_code
from .parabolic import chamber_sort, hyperbolic_data, z_k_coords
from .kkform import (
    closedness_check,
    exactness_verdict,
    fiber_isotropy_check,
    k_orbit_lagrangian_check,
    kk_eval,
    nondegeneracy_check,
    orbit_point,
    re_dual_gap,
)
from .flows import commute_residual, exp_H, flow_exact, flow_numeric, invert_exp_H, linear_chart
from .symplecto import (
    CotangentPoint,
    coset_gap,
    cotangent_point,
    liouville_fd_gap,
    phi_lambda,
    project_pi,
    pullback_residual,
    section_lagrangian_check,
)

CONVENTIONS = {
    "eta_V": "-B(V, .)",
    "tautological": "tau(Y, delta) = eta_V(Y mod P)",
    "liouville_orientation": "sigma = -d(tau)  (base-fiber pairing positive)",
    "re_omega_complex_scale": 2.0,
}

DEFAULT_TOLERANCES = {
    "structural": TOL_STRUCT,
    "decomposition": TOL_DECOMP,
    "eigen": TOL_EIGEN,
    "finite_difference": 1e-6,
}

ALL_CHECKS = ("roots", "parabolic", "kk", "flow", "symplecto", "arnold")


@dataclass
class RunConfig:
    algebra: AlgebraSpec
    c_entries: tuple
    checks: tuple[str, ...]
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    output_path: str | None = None
    samples: int = 20

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))


def _parse_entry(e):
    try:
        if isinstance(e, dict):
            if set(e) - {"re", "im"} or isinstance(e.get("re"), dict):
                raise ConfigurationError(f"bad complex entry {e!r}")
            im = float(e.get("im", 0.0))
            # {"re": x} with "im" absent or zero is the real entry x, read by the rules below
            v = _parse_entry(e.get("re", 0)) if im == 0 else complex(float(e.get("re", 0.0)), im)
        elif isinstance(e, (str, int)) and not isinstance(e, bool):
            v = Fraction(e)
        elif isinstance(e, float) and e == int(e):
            v = Fraction(int(e))
        elif isinstance(e, float):
            raise ConfigurationError("float entries must be integral; use strings for rationals")
        else:
            raise ConfigurationError(f"bad entry {e!r}")
        if np.isfinite(complex(v)):
            return v
    except ConfigurationError:
        raise
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigurationError(f"bad entry {e!r}: {exc}") from exc
    raise ConfigurationError(f"bad entry {e!r}: not finite")


def _integer(value, what: str, least: int) -> int:
    """An int >= least, given as a JSON integer or a decimal string."""
    try:
        n = int(value) if isinstance(value, (int, str)) and not isinstance(value, bool) else None
    except ValueError:
        n = None
    if n is None or n < least:
        raise ConfigurationError(f"{what} must be an integer >= {least}, got {value!r}")
    return n


def parse_config(d: dict) -> RunConfig:
    if not isinstance(d, dict):
        raise ConfigurationError("config must be a JSON object")
    alg = d.get("algebra", {})
    if not isinstance(alg, dict):
        raise ConfigurationError("algebra must be a JSON object")
    spec = AlgebraSpec(
        family=alg.get("family", "sl"), n=_integer(alg.get("n", 2), "algebra n", 2), field=alg.get("field", "R")
    )
    raw_c = d.get("c")
    if not isinstance(raw_c, (list, tuple)):
        raise ConfigurationError("config requires a diagonal element c, as a list of entries")
    entries = tuple(_parse_entry(e) for e in raw_c)
    if len(entries) != spec.n:
        raise ConfigurationError(f"c must have {spec.n} entries")
    if not traceless(entries):
        raise ConfigurationError("c must be traceless")
    if spec.field == "R" and any(complex(e).imag for e in entries):
        raise ConfigurationError("complex entries require the realified family")
    checks = d.get("checks", ["roots", "parabolic", "kk", "flow", "symplecto"])
    if not isinstance(checks, (list, tuple)) or not checks:
        raise ConfigurationError("checks must be a non-empty list")
    for c in checks:
        if c not in ALL_CHECKS and c != "fixture":
            raise ConfigurationError(f"unknown check {c!r}")
    tols = d.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ConfigurationError("tolerances must be a JSON object")
    for k, v in tols.items():
        if k not in DEFAULT_TOLERANCES:
            raise ConfigurationError(f"unknown tolerance class {k!r}")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v <= sys.float_info.max:
            raise ConfigurationError(f"tolerance {k!r} must be a positive finite number, got {v!r}")
    out = d.get("output_path")
    if out is not None and not isinstance(out, str):
        raise ConfigurationError(f"output_path must be a string, got {out!r}")
    return RunConfig(
        algebra=spec,
        c_entries=entries,
        checks=tuple(checks),
        seed=_integer(d.get("seed", 0), "seed", 0),
        tolerances=dict(tols),
        output_path=out,
        samples=_integer(d.get("samples", 20), "samples", 1),
    )


def _entry_json(e):
    if isinstance(e, Fraction):
        return str(e) if e.denominator != 1 else int(e)
    c = complex(e)
    return {"re": c.real, "im": c.imag}


def _res(value: float, tol: float, kind: str = "max") -> dict:
    ok = value <= tol if kind == "max" else value >= tol
    return {"value": float(value), "tol": float(tol), "kind": kind, "pass": bool(ok)}


def _section_pass(section: dict) -> bool:
    return all(v["pass"] for v in section.values() if isinstance(v, dict) and isinstance(v.get("pass"), bool))


# entries kept per cache: a verify pass touches 3 algebras and 5 real chambers
STRUCTURE_CACHE_SIZE = 8


def _read_only(obj):
    """Mark every ndarray reachable from obj (through attributes, lists, tuples and dicts) read-only."""
    if isinstance(obj, np.ndarray):
        obj.setflags(write=False)
    elif isinstance(obj, (list, tuple, dict)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            _read_only(item)
    elif hasattr(obj, "__dict__"):
        _read_only(vars(obj))
    return obj


@functools.lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
def _structure(spec: AlgebraSpec):
    """(algebra, Cartan split, restricted roots) of spec, built once per process and shared read-only."""
    algebra = build_algebra(spec)
    split = cartan_split(algebra)
    return _read_only((algebra, split, restricted_roots(algebra, maximal_abelian(algebra, split))))


@functools.lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
def _hyperbolic(spec: AlgebraSpec, entries: tuple[Fraction, ...]):
    """hyperbolic_data at the chamber-sorted entries, built once per process and shared read-only."""
    algebra, _, rs = _structure(spec)
    return _read_only(hyperbolic_data(algebra, rs, entries))


class _Context:
    """The shared objects of one run, read from the structure caches; an instance may replace them."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.structure_meta = {"reused": True, "s": 0.0}
        self.algebra, self.split, self.rs = self._cached(_structure, config.algebra)

    def _cached(self, cache, *key):
        """cache(*key), adding its time to structure_meta and noting a miss."""
        misses, t0 = cache.cache_info().misses, time.perf_counter()
        try:
            return cache(*key)
        finally:
            self.structure_meta["s"] += time.perf_counter() - t0
            self.structure_meta["reused"] &= cache.cache_info().misses == misses

    @property
    def real_entries(self):
        entries = tuple(self.config.c_entries)
        return entries if all(isinstance(e, Fraction) for e in entries) else None

    @functools.cached_property
    def data(self):
        entries = self.real_entries
        if entries is None:
            raise ConfigurationError("this check needs a real (hyperbolic) diagonal c")
        return self._cached(_hyperbolic, self.config.algebra, chamber_sort(entries))


def check_roots(ctx: _Context, cfg: RunConfig, rng) -> dict:
    rs = ctx.rs
    alg = ctx.algebra
    # every root space is spanned by basis vectors: give each basis index its
    # root's weight (0 on g_0) as one integer code, which adds where weights do
    W = np.zeros((alg.dim, alg.n), dtype=np.int64)
    for r in rs.roots:
        W[r.members] = r.weights
    weight = weight_code(W)
    ri = np.flatnonzero(weight)
    # the nonzero c_ijk between root vectors b_i, b_j whose codes do not add to b_k's
    i, j, k, v = alg.nonzeros
    outside = (weight[i] != 0) & (weight[j] != 0) & (weight[k] != weight[i] + weight[j])
    grading = float(np.max(np.abs(v[outside]), initial=0.0))
    theta = alg.theta_matrix[:, ri]  # column i: theta(X_i)
    theta_pair = float(np.max(np.abs(np.where(weight[:, None] != -weight[ri], theta, 0.0)), initial=0.0))
    dims_ok = ctx.algebra.dim == len(rs.zero_indices) + sum(r.multiplicity for r in rs.roots)
    section = {
        "roots": [
            {"alpha": [int(w) for w in r.weights], "mult": int(r.multiplicity)} for r in rs.roots
        ],
        "dim_m": int(rs.m_coords.shape[0]),
        "dim_a": int(rs.rank),
        "dimension_bookkeeping": _res(float(not dims_ok), 0.5),
        "bracket_grading": _res(grading, cfg.tol("decomposition")),
        "theta_pairing": _res(theta_pair, cfg.tol("decomposition")),
        "k_from_roots": _res(k_from_roots_check(rs, ctx.split), cfg.tol("decomposition")),
    }
    section["pass"] = _section_pass(section)
    return section


def check_parabolic(ctx: _Context, cfg: RunConfig, rng) -> dict:
    data = ctx.data
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


def check_kk(ctx: _Context, cfg: RunConfig, rng) -> dict:
    alg = ctx.algebra
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
        section["nondegeneracy"] = _res(nondegeneracy_check(data), cfg.tol("eigen"), kind="min")
    if alg.is_complex:
        verdict = exactness_verdict(alg, ctx.split, ctx.config.c_entries)
        section["exactness_verdict"] = verdict
        section["re_duality_gap"] = _res(re_dual_gap(alg, ctx.config.c_entries), cfg.tol("structural"))
        section["killing_realified_gap"] = _res(killing_compare_realified(alg), cfg.tol("decomposition"))
        which = "re" if verdict["re_exact"] else ("im" if verdict["im_exact"] else None)
        if which:
            section["k_lagrangian"] = _res(verdict["evidence"][f"{which}_restriction_max"], cfg.tol("structural"))
    else:
        section["k_lagrangian"] = _res(k_orbit_lagrangian_check(alg, ctx.split, c)[0], cfg.tol("structural"))
    section["pass"] = _section_pass(section)
    return section


def check_flow(ctx: _Context, cfg: RunConfig, rng) -> dict:
    data = ctx.data
    n = data.n_dim
    V, U0 = rng.standard_normal((2, cfg.samples, n))
    fp = flow_exact(data, V, U0)
    times = (1.0, -2.0)
    gap = float(np.max(np.abs(fp.eval(np.array(times)) - flow_numeric(data, V, U0, times))))
    values, counts = np.unique(fp.degrees, return_counts=True)
    a, b = np.triu_indices(n, 1)
    commute = commute_residual(data, np.eye(n)[a], np.eye(n)[b])
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


def check_symplecto(ctx: _Context, cfg: RunConfig, rng) -> dict:
    data, n = ctx.data, cfg.samples
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


def check_arnold(ctx: _Context, cfg: RunConfig, rng) -> dict:
    """End-to-end scenario: realified sl(n, C), regular real diagonal c."""
    alg = ctx.algebra
    if not alg.is_complex:
        raise ConfigurationError("the arnold scenario needs the complex-realified family")
    entries = ctx.real_entries
    if entries is None:
        raise ConfigurationError("the arnold scenario needs real diagonal entries")
    if len(set(entries)) != len(entries):
        raise ConfigurationError("the arnold scenario needs a regular element")
    # ad(c) spectrum must be the pair differences, each seen twice when realified
    c = alg.element_from_entries(entries)
    ev = np.sort_complex(np.linalg.eigvals(alg.ad_matrix_of(c)))
    expect = [float(a - b) for a in entries for b in entries if a != b] * 2
    expect = np.sort_complex(np.array(expect + [0.0] * (alg.dim - len(expect)), dtype=complex))
    spec_gap = float(np.max(np.abs(ev - expect)))
    verdict = exactness_verdict(alg, ctx.split, entries)
    # Re of the holomorphic form is half the realified form (B_R = 2 Re B_C)
    data = ctx.data
    pt = orbit_point(alg, c, expm(random_element(alg, rng, 0.3)), validate=False)
    X, Y = np.moveaxis(alg.from_coords(rng.standard_normal((10, 2, alg.dim))), 1, 0)  # X, then Y per sample
    om_c = complex_trace_form(alg, pt.w, alg.bracket(X, Y))
    scale_gap = float(np.max(np.abs(om_c.real - kk_eval(alg, pt, X, Y) / 2.0)))
    sympl = check_symplecto(ctx, cfg, rng)
    out = {
        "ad_spectrum_gap": _res(spec_gap, cfg.tol("decomposition")),
        "re_exact": verdict["re_exact"],
        "im_exact": verdict["im_exact"],
        "re_exact_ok": _res(float(not verdict["re_exact"]), 0.5),
        "re_omega_scale_gap": _res(scale_gap, cfg.tol("decomposition") * 100),
        "symplecto": sympl,
    }
    out["pass"] = _section_pass(out) and sympl["pass"]
    return out


CHECK_FUNCS = {
    "roots": check_roots,
    "parabolic": check_parabolic,
    "kk": check_kk,
    "flow": check_flow,
    "symplecto": check_symplecto,
    "arnold": check_arnold,
}


def run(config: RunConfig) -> dict:
    """Execute the configured checks; returns {body, meta} with a stable body."""
    t0 = time.perf_counter()
    ctx = _Context(config)
    checks = {}
    for name in config.checks:
        if name == "fixture":
            continue
        rng = np.random.default_rng(config.seed + sum(map(ord, name)))
        checks[name] = CHECK_FUNCS[name](ctx, config, rng)
    body = {
        "config": {
            "algebra": {"family": config.algebra.family, "n": config.algebra.n, "field": config.algebra.field},
            "c": [_entry_json(e) for e in config.c_entries],
            "checks": list(config.checks),
        },
        "seed": config.seed,
        "versions": {"lieorb": __version__, "numpy": np.__version__},
        "conventions": CONVENTIONS,
        "checks": checks,
        "pass": all(c.get("pass", False) for c in checks.values()) if checks else True,
    }
    # thread settings of the BLAS libraries, which the run neither reads nor changes (null: unset)
    threads = {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    meta = {"runtime_s": time.perf_counter() - t0, "blas_threads": threads, "structure": ctx.structure_meta}
    return {"body": body, "meta": meta}


def emit_fixture(config: RunConfig) -> dict:
    """Golden structural data: byte-stable, seed-independent."""
    ctx = _Context(config)
    alg = ctx.algebra
    rs = ctx.rs
    fixture = {
        "algebra": {"family": config.algebra.family, "n": config.algebra.n, "field": config.algebra.field},
        "dim": alg.dim,
        "structure_constants": alg.structure.tolist(),
        "killing_matrix": alg.killing_matrix.tolist(),
        "roots": [
            {
                "alpha": [int(w) for w in r.weights],
                "functional": r.functional.tolist(),
                "mult": int(r.multiplicity),
            }
            for r in rs.roots
        ],
        "conventions": CONVENTIONS,
    }
    if ctx.real_entries is not None:
        data = ctx.data
        fixture["eigenvalue_ladder"] = [[nu, dj] for (nu, dj) in data.levels]
        fixture["N0"] = data.N0
    return fixture


def dumps_report(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line, built once per process."""
    parser = argparse.ArgumentParser(prog="lieorb", description=__doc__)
    parser.add_argument(
        "subcommand",
        choices=["roots", "parabolic", "kk-check", "flow-check", "symplecto-verify", "arnold", "fixture"],
    )
    parser.add_argument("--config", required=True, help="path to JSON run configuration")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    sub_to_check = {"kk-check": "kk", "flow-check": "flow", "symplecto-verify": "symplecto"}
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(raw)
        env_seed = os.environ.get("LIEORB_SEED")
        if env_seed is not None:
            config.seed = _integer(env_seed, "LIEORB_SEED", 0)
        if args.seed is not None:
            config.seed = _integer(args.seed, "--seed", 0)
        if args.subcommand == "fixture":
            report = emit_fixture(config)
        else:
            config.checks = (sub_to_check.get(args.subcommand, args.subcommand),)
            report = run(config)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InconsistencyError, DecompositionError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3

    text = dumps_report(report)
    out_path = args.out or config.output_path
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"config error: cannot write report to {out_path}: {exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    if args.subcommand == "fixture":
        return 0
    return 0 if report["body"]["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
