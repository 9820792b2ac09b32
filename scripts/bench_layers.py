"""Structure-layer ladder: median times of the cold structure builds.

    python scripts/bench_layers.py --label after [--src src] [--out BENCH_layers.json]

Imports lieorb from --src (default: this checkout's src/), so the same script
times any checkout.  For sl(2..8, R) and sl(2..6, C) it records dim g, the
rank, the number of restricted roots and the median of 5 cold calls of
build_algebra, cartan_split, maximal_abelian and restricted_roots, each on
the output of the layer before it; then, at the regular chamber
diag(n-1, n-3, ...) and at the wall made by merging its two largest
entries, dim n(c), N0 and the median of 5 calls of hyperbolic_data (which
includes the N0 search).  sl(2) has no nonzero wall, so its wall entries are
null.  Results are merged into --out under --label, next to any other
labels already there; BLAS runs single-threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings)

ROOT = Path(__file__).resolve().parents[1]
GRID = [("R", n) for n in range(2, 9)] + [("C", n) for n in range(2, 7)]
REPEATS = 5


def regular(n: int) -> tuple[int, ...]:
    return tuple(n - 1 - 2 * k for k in range(n))


def wall(n: int) -> tuple[int, ...]:
    r = regular(n)
    m = (r[0] + r[1]) // 2
    return (m, m) + r[2:]


def median_time(fn):
    """Median wall time of REPEATS calls, and the last call's result."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def ladder() -> list[dict]:
    from lieorb.liecore import AlgebraSpec, build_algebra, cartan_split
    from lieorb.parabolic import hyperbolic_data
    from lieorb.rootspace import maximal_abelian, restricted_roots

    rows = []
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
        print(json.dumps(row), flush=True)
        rows.append(row)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key the results are stored under")
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory that holds the lieorb package")
    ap.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    result = {
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        },
        "repeats": REPEATS,
        "rows": ladder(),
    }
    out = Path(args.out)
    stored = json.loads(out.read_text()) if out.exists() else {}
    stored[args.label] = result
    out.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
