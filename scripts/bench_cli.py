"""CLI size ladder: one child process per (subcommand, algebra) row.

    python scripts/bench_cli.py --label after [--src src] [--out BENCH_cli.json]

For kk-check and symplecto-verify at sl(8, R), sl(6, C), sl(12, R),
sl(10, C), sl(16, R), sl(20, R) and sl(14, C), each at the regular chamber
diag(n-1, n-3, ...) with samples 20 and seed 0, it runs
`python -m lieorb.cli <subcommand> --config cfg.json --out report.json` in
a fresh child process that imports lieorb from --src, and records the wall
time from start to exit, the child's own peak RSS in MiB (ru_maxrss from
wait4 on that child; spawned from this process, it reads no lower than this
process's RSS at the spawn, about 29 MiB), its exit code and the row's time
limit.  A child still running at the limit is killed and its row says so
(timed_out, exit null); a crash is a row too, with its exit code and its
last stderr line.
Each run adds one pass to --out under --label, with BLAS single-threaded
(see benchlib.py) in every child.  Rows run one after another, so no two
children share the machine.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchlib import main, regular  # first: it pins BLAS to one thread

LADDER = [("R", 8), ("C", 6), ("R", 12), ("C", 10), ("R", 16), ("R", 20), ("C", 14)]
SUBCOMMANDS = ("kk-check", "symplecto-verify")
SAMPLES, SEED = 20, 0
LIMIT_S = 120.0


def run_child(argv: list[str], env: dict, limit_s: float, stderr_path: Path) -> dict:
    """Run argv to its exit or to limit_s, then kill it; wall time, the child's peak RSS and how it ended."""
    with open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timed_out = False
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - t0 > limit_s:
                child.send_signal(signal.SIGKILL)
                _, status, usage = os.wait4(child.pid, 0)
                timed_out = True
                break
            time.sleep(0.005)
        wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    lines = stderr_path.read_text().strip().splitlines()
    return {
        "wall_s": wall,
        "peak_rss_mib": usage.ru_maxrss / 1024,  # kilobytes on Linux
        "exit": None if timed_out else child.returncode,
        "timed_out": timed_out,
        "limit_s": limit_s,
        "stderr_last": lines[-1] if lines and child.returncode else None,
    }


def ladder() -> list[dict]:
    import lieorb

    env = {**os.environ, "PYTHONPATH": str(Path(lieorb.__file__).resolve().parents[1])}
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for field, n in LADDER:
            config = Path(tmp) / "cfg.json"
            config.write_text(json.dumps({"algebra": {"family": "sl", "n": n, "field": field}, "c": list(regular(n)),
                                          "samples": SAMPLES, "seed": SEED}))
            for sub in SUBCOMMANDS:
                argv = [sys.executable, "-m", "lieorb.cli", sub, "--config", str(config),
                        "--out", str(Path(tmp) / "report.json")]
                row = {"subcommand": sub, "algebra": f"sl({n}, {field})",
                       **run_child(argv, env, LIMIT_S, Path(tmp) / "stderr.txt")}
                print(json.dumps(row), flush=True)
                rows.append(row)
    return rows


if __name__ == "__main__":
    sys.exit(main(__doc__, "BENCH_cli.json", ladder, repeats=1, samples=SAMPLES, seed=SEED))
