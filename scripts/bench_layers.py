"""Structure-layer ladder: median times of the cold structure builds.

    python scripts/bench_layers.py --label after [--src src] [--out BENCH_layers.json]

For sl(2..8, R) and sl(2..6, C) it records dim g, the rank, the number of
restricted roots and the median of 5 cold calls of build_algebra,
cartan_split, maximal_abelian and restricted_roots, each on the output of
the layer before it, and the tracemalloc peak in MiB of one more cold
build_algebra call (build_peak_mib); then, at the regular chamber
diag(n-1, n-3, ...) and at the wall made by merging its two largest entries,
dim n(c), N0 and the median of 5 calls of hyperbolic_data (which includes the
N0 certificate).  sl(2) has no nonzero wall, so its wall entries are null.
At the regular chamber it also records the median of 5 in-process cli.run
parabolic reports, with the CLI's structure caches cleared before each call
(cli_report_cold_s) and with them warm (cli_report_warm_s).  It also records
cached_entry_bytes, the bytes of the distinct ndarray buffers reachable from
the CLI's cached structure entry (cli._structure: algebra, Cartan split,
restricted roots).  Past the ladder, build-only rows at sl(8, C), sl(10, C)
and sl(12, C) record dim g, the build_algebra median and build_peak_mib, and
restricted-roots rows at sl(12, 16, 20; R) and sl(10, 12, 14; C) record dim g,
the rank, the number of roots, the restricted_roots median and the
tracemalloc peak in MiB of one more restricted_roots call (roots_peak_mib).  A
pass opens with one row for the import cost: the median wall time of
`import lieorb.cli` (import_s) and the median peak RSS in MiB
(import_rss_mb) of 5 fresh Python processes.  Each run adds one pass to
--out under --label, with BLAS single-threaded (see benchlib.py) here and in
those processes.  The script times checkouts whose CLI keeps the structure
caches (cli._structure and cli._hyperbolic).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from benchlib import REPEATS, main, median_time, peak_mib, regular, wall

import numpy as np  # after benchlib's thread settings

GRID = [("R", n) for n in range(2, 9)] + [("C", n) for n in range(2, 7)]
BUILD_ONLY = [("C", n) for n in (8, 10, 12)]
ROOTS_ONLY = [("R", n) for n in (12, 16, 20)] + [("C", n) for n in (10, 12, 14)]
IMPORT_PROBE = (
    "import resource, time; t = time.perf_counter(); import lieorb.cli; "
    "print(time.perf_counter() - t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)"
)


def import_cost() -> dict:
    """Median wall time of `import lieorb.cli` and median peak RSS (MiB) over REPEATS fresh processes."""
    import lieorb

    env = {**os.environ, "PYTHONPATH": str(Path(lieorb.__file__).resolve().parents[1])}
    probe = [sys.executable, "-c", IMPORT_PROBE]
    runs = [subprocess.run(probe, env=env, capture_output=True, text=True, check=True).stdout.split() for _ in range(REPEATS)]
    return {
        "import": "lieorb.cli",
        "import_s": statistics.median(float(s) for s, _ in runs),
        "import_rss_mb": statistics.median(float(mb) for _, mb in runs),
    }


def cli_report_times(field: str, n: int) -> tuple[float, float]:
    """Median times of a cli.run parabolic report at the regular chamber: caches cleared, then warm."""
    from lieorb import cli

    def clear():
        cli._structure.cache_clear()
        cli._hyperbolic.cache_clear()

    cfg = cli.parse_config({"algebra": {"family": "sl", "n": n, "field": field}, "c": list(regular(n)),
                            "checks": ["parabolic"]})
    cold_s, _ = median_time(lambda: (clear(), cli.run(cfg)))
    warm_s, _ = median_time(lambda: cli.run(cfg))
    return cold_s, warm_s


def cached_entry_bytes(field: str, n: int) -> int:
    """Bytes of the distinct ndarray buffers (views counted once, by their base) reachable from cli._structure."""
    from lieorb import cli
    from lieorb.liecore import AlgebraSpec

    buffers = {}

    def walk(x):
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            buffers[id(x)] = x.nbytes
        elif isinstance(x, (list, tuple, dict)):
            for item in x.values() if isinstance(x, dict) else x:
                walk(item)
        elif hasattr(x, "__dict__"):
            walk(vars(x))

    walk(cli._structure(AlgebraSpec("sl", n, field)))
    return sum(buffers.values())


def ladder() -> list[dict]:
    from lieorb.liecore import AlgebraSpec, build_algebra, cartan_split
    from lieorb.parabolic import hyperbolic_data
    from lieorb.rootspace import maximal_abelian, restricted_roots

    rows = [import_cost()]
    print(json.dumps(rows[0]), flush=True)
    for field, n in GRID:
        build_s, alg = median_time(lambda: build_algebra(AlgebraSpec("sl", n, field)))
        split_s, split = median_time(lambda: cartan_split(alg))
        abelian_s, a = median_time(lambda: maximal_abelian(alg, split))
        roots_s, rs = median_time(lambda: restricted_roots(alg, a))
        row = {
            "algebra": f"sl({n}, {field})",
            "dim": alg.dim,
            "rank": rs.rank,
            "roots": len(rs.roots),
            "build_algebra_s": build_s,
            "build_peak_mib": peak_mib(lambda: build_algebra(AlgebraSpec("sl", n, field))),
            "cartan_split_s": split_s,
            "maximal_abelian_s": abelian_s,
            "restricted_roots_s": roots_s,
        }
        for kind, entries in (("regular", regular(n)), ("wall", wall(n))):
            if not any(entries):
                row.update({f"{kind}_c": None, f"{kind}_dim_n": None, f"{kind}_N0": None, f"hyperbolic_data_{kind}_s": None})
                continue
            hd_s, data = median_time(lambda: hyperbolic_data(alg, rs, entries))
            row.update({f"{kind}_c": list(entries), f"{kind}_dim_n": data.n_dim, f"{kind}_N0": data.N0, f"hyperbolic_data_{kind}_s": hd_s})
        row["cli_report_cold_s"], row["cli_report_warm_s"] = cli_report_times(field, n)
        row["cached_entry_bytes"] = cached_entry_bytes(field, n)
        print(json.dumps(row), flush=True)
        rows.append(row)
    for field, n in BUILD_ONLY:
        build_s, alg = median_time(lambda: build_algebra(AlgebraSpec("sl", n, field)))
        row = {
            "algebra": f"sl({n}, {field})",
            "dim": alg.dim,
            "build_algebra_s": build_s,
            "build_peak_mib": peak_mib(lambda: build_algebra(AlgebraSpec("sl", n, field))),
        }
        print(json.dumps(row), flush=True)
        rows.append(row)
    for field, n in ROOTS_ONLY:
        alg = build_algebra(AlgebraSpec("sl", n, field))
        a = maximal_abelian(alg, cartan_split(alg))
        roots_s, rs = median_time(lambda: restricted_roots(alg, a))
        row = {
            "algebra": f"sl({n}, {field})",
            "dim": alg.dim,
            "rank": rs.rank,
            "roots": len(rs.roots),
            "restricted_roots_s": roots_s,
            "roots_peak_mib": peak_mib(lambda: restricted_roots(alg, a)),
        }
        print(json.dumps(row), flush=True)
        rows.append(row)
    return rows


if __name__ == "__main__":
    sys.exit(main(__doc__, "BENCH_layers.json", ladder))
