"""Configuration-driven verification runs with machine-readable JSON reports.

Usage:  lieorb <subcommand> --config path.json [--seed N] [--out path]

Subcommands: roots, parabolic, kk-check, flow-check, symplecto-verify,
arnold, fixture.  The config selects the algebra, the chamber element c and
tolerance overrides; the report body is deterministic for a fixed seed
(timestamps and runtimes live outside the body).  Exit codes: 0 all checks
pass, 1 a check failed, 2 configuration error (a run out of memory too),
3 internal inconsistency.
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
    KEPT,
    TOL_DECOMP,
    TOL_EIGEN,
    TOL_STRUCT,
    AlgebraSpec,
    ConfigurationError,
    DecompositionError,
    InconsistencyError,
    build_algebra,
    cartan_split,
    read_only,
    traceless,
)
from .rootspace import maximal_abelian, restricted_roots
from .parabolic import chamber_sort, hyperbolic_data
# the checks are also read as cli.check_* (perfbench/tracer.py wraps them under those names)
from .checks import CHECK_FUNCS, check_arnold, check_flow, check_kk, check_parabolic, check_roots  # noqa: F401
from .checks import check_symplecto  # noqa: F401

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

ALL_CHECKS = tuple(CHECK_FUNCS)
# subcommand -> check: the check's own name but for three aliases
_ALIASES = {"kk": "kk-check", "flow": "flow-check", "symplecto": "symplecto-verify"}
_SUBCOMMANDS = {_ALIASES.get(name, name): name for name in ALL_CHECKS}


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


def _complex_part(x) -> float:
    """One part of a complex entry: a number, or a string read exactly as a real entry is ("1/2"); not a bool."""
    if isinstance(x, bool):
        raise ConfigurationError(f"bad entry {x!r}")
    return float(Fraction(x) if isinstance(x, str) else x)


def _parse_entry(e):
    try:
        if isinstance(e, dict):
            if set(e) - {"re", "im"} or isinstance(e.get("re"), dict):
                raise ConfigurationError(f"bad complex entry {e!r}")
            im = _complex_part(e.get("im", 0))
            # {"re": x} with "im" absent or zero is the real entry x, read by the rules below
            v = _parse_entry(e.get("re", 0)) if im == 0 else complex(_complex_part(e.get("re", 0)), im)
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
        if c not in ALL_CHECKS:
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


# entries kept per cache: a verify pass touches 3 algebras and 5 real chambers
STRUCTURE_CACHE_SIZE = 8


@functools.lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
def _structure(spec: AlgebraSpec):
    """(algebra, Cartan split, restricted roots) of spec, built once per process and shared read-only."""
    algebra = build_algebra(spec)
    split = cartan_split(algebra)
    return read_only((algebra, split, restricted_roots(algebra, maximal_abelian(algebra, split))))


@functools.lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
def _hyperbolic(spec: AlgebraSpec, entries: tuple[Fraction, ...]):
    """hyperbolic_data at the chamber-sorted entries, built once per process and shared read-only."""
    algebra, _, rs = _structure(spec)
    return read_only(hyperbolic_data(algebra, rs, entries))


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


def run(config: RunConfig) -> dict:
    """Execute the configured checks; returns {body, meta} with a stable body."""
    t0, builds, built_s = time.perf_counter(), KEPT["builds"], KEPT["s"]
    ctx = _Context(config)
    checks = {}
    for name in config.checks:
        rng = np.random.default_rng(config.seed + sum(map(ord, name)))
        checks[name] = CHECK_FUNCS[name](ctx, rng)
    # the per-chamber values (liecore.per_instance): certificates and frames
    ctx.structure_meta.update(certificates_reused=KEPT["builds"] == builds, certificates_s=KEPT["s"] - built_s)
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
    alg, rs = ctx.algebra, ctx.rs
    fixture = {
        "algebra": {"family": config.algebra.family, "n": config.algebra.n, "field": config.algebra.field},
        "dim": alg.dim,
        "structure_constants": alg.structure.tolist(),
        "killing_matrix": alg.killing_matrix.tolist(),
        "roots": [{"alpha": [int(w) for w in r.weights], "functional": r.functional.tolist(),
                   "mult": int(r.multiplicity)} for r in rs.roots],
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
    parser.add_argument("subcommand", choices=[*_SUBCOMMANDS, "fixture"])
    parser.add_argument("--config", required=True, help="path to JSON run configuration")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
            config.checks = (_SUBCOMMANDS[args.subcommand],)
            report = run(config)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InconsistencyError, DecompositionError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"config error: {args.subcommand} ran out of memory: {exc}", file=sys.stderr)
        return 2

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
    return 0 if args.subcommand == "fixture" or report["body"]["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
