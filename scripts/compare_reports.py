"""Compare the CLI outputs of two checkouts over a fixed grid.

    python scripts/compare_reports.py --src OTHER/src [--src src]

Each side runs lieorb.cli.main in one process of its own, importing lieorb
from its --src (the second defaults to this checkout's src/): every
subcommand but fixture at samples 8 and seeds 0, 3 and 7 on the configs in
CONFIGS, and the fixture of each config.  On the configs in FIXTURE_ONLY,
sl(6, R) and sl(6, C) at the regular chamber (the largest algebras of the
perfbench structure workload), it runs the fixture alone.  A run records
its exit code, its standard error and its report body (the whole fixture);
meta, which holds times, is left out.  The script prints one sha256 per
side over all runs, then every field that differs, and exits 1 if any
does.  BLAS runs single-threaded, as in the bench ladders.  Beside each sha
it prints the line count of that side's lieorb/*.py, the size that ROADMAP
aim 2 tracks, and the wall time of that side's process (its imports and
the whole grid).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUBCOMMANDS = ("roots", "parabolic", "kk-check", "flow-check", "symplecto-verify", "arnold")
SEEDS = (0, 3, 7)
SAMPLES = 8
CONFIGS = {
    **{f"sl({n}, R)": ("R", [n - 1 - 2 * k for k in range(n)]) for n in range(2, 6)},
    **{f"sl({n}, C)": ("C", [n - 1 - 2 * k for k in range(n)]) for n in range(2, 5)},
    "sl(4, R) wall": ("R", [1, 1, -1, -1]),
    "sl(5, R) G < p": ("R", [3, 3, 0, -2, -4]),
    "sl(4, R) spread": ("R", [1000, 1, 0, -1001]),
    "sl(3, R) small c": ("R", ["1/1000", "0", "-1/1000"]),
    "sl(5, R) small c": ("R", ["4/1000", "2/1000", "0", "-2/1000", "-4/1000"]),
    "sl(3, C) imaginary c": ("C", [{"im": 1}, 0, {"im": -1}]),
}
# the structure pipeline (build, roots, parabolic data) at sizes where a change of array layout moves bits
FIXTURE_ONLY = {f"sl(6, {field})": (field, [5 - 2 * k for k in range(6)]) for field in "RC"}


def run_side() -> dict:
    """Every run of the grid in this process, keyed by subcommand, config and seed."""
    from lieorb import cli

    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        grid = [(name, config, [(s, seed) for s in SUBCOMMANDS for seed in SEEDS]) for name, config in CONFIGS.items()]
        grid += [(name, config, []) for name, config in FIXTURE_ONLY.items()]
        for name, (field, c), runs_of_config in grid:
            cfg = Path(tmp, "config.json")
            cfg.write_text(json.dumps({"algebra": {"family": "sl", "n": len(c), "field": field},
                                       "c": c, "samples": SAMPLES}))
            for sub, seed in runs_of_config + [("fixture", 0)]:
                out = Path(tmp, "report.json")
                out.unlink(missing_ok=True)
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = cli.main([sub, "--config", str(cfg), "--seed", str(seed), "--out", str(out)])
                report = json.loads(out.read_text()) if out.exists() else None
                if report is not None and sub != "fixture":
                    report = report["body"]
                runs[f"{sub} | {name} | seed {seed}"] = {"exit": code, "stderr": err.getvalue(), "output": report}
    return runs


def side(src: str) -> tuple[dict, float]:
    """The runs of one checkout, from a child process that imports lieorb from src, and its wall seconds."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, __file__, "--emit"], env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode:
        sys.exit(f"{src}: the grid run failed\n{proc.stderr}")
    return json.loads(proc.stdout), wall


def differences(a, b, path=""):
    """(path, left, right) for every leaf where a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from differences(a.get(key, "<missing>"), b.get(key, "<missing>"), f"{path}.{key}" if path else key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{path}[{i}]")
    elif json.dumps(a) != json.dumps(b):
        yield path, a, b


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", default=[], help="a directory holding the lieorb package (once or twice)")
    ap.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        print(json.dumps(run_side(), sort_keys=True))
        return 0
    if not 1 <= len(args.src) <= 2:
        ap.error("give one or two --src trees")
    srcs = args.src + [str(ROOT / "src")] * (2 - len(args.src))
    sides, walls = zip(*(side(src) for src in srcs))
    for src, runs, wall in zip(srcs, sides, walls):
        digest = hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()
        lines = sum(len(path.read_text().splitlines()) for path in Path(src, "lieorb").glob("*.py"))
        print(f"{digest}  {len(runs)} runs  {lines} lines  {wall:.2f} s  {src}")
    diffs = list(differences(*sides))
    for path, left, right in diffs:
        print(f"{path}: {json.dumps(left)} != {json.dumps(right)}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
