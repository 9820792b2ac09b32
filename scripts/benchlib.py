"""Shared parts of the bench ladders: the chambers, the timer and the store of labelled passes.

A ladder script imports lieorb from --src (default: this checkout's src/), so
the same script times any checkout.  Each run adds one pass of rows to --out
under --label, next to the passes already there and to any other labels;
running the labels of two checkouts in turn, twice each, gives two
alternating passes per side.  Delete a label from the file to start it
afresh.  BLAS runs single-threaded: import this module before numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings)

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 5


def regular(n: int) -> tuple[int, ...]:
    """The regular chamber element diag(n-1, n-3, ..., -(n-1))."""
    return tuple(n - 1 - 2 * k for k in range(n))


def wall(n: int) -> tuple[int, ...]:
    """The wall made by merging the two largest entries of regular(n)."""
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


def peak_mib(fn) -> float:
    """The tracemalloc peak of one call of fn in MiB: the most it held allocated at once."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(doc: str, default_out: str, ladder, argv=None, **fields) -> int:
    """Parse --label/--src/--out, run ladder() against --src and add its rows as one pass under the label."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--label", required=True, help="key the passes are stored under")
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory that holds the lieorb package")
    ap.add_argument("--out", default=str(ROOT / default_out))
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    host = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    rows = ladder()
    out = Path(args.out)
    stored = json.loads(out.read_text()) if out.exists() else {}
    passes = stored.get(args.label, {}).get("passes", [])
    stored[args.label] = {"host": host, "repeats": REPEATS, **fields, "passes": passes + [rows]}
    out.write_text(json.dumps(stored, indent=1) + "\n")
    return 0
