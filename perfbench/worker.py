"""One workload in its own process: set-up, warm-up, then timed whole rounds.

run.py starts it as
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The last line of standard output is one JSON object.  With --setup-only the
process stops after the set-up and reports only its duration.  Times are
reference seconds (see refclock.py); the wall-clock figures are reported too.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here and covers the numpy/lieorb import

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import traceback

from refclock import RefClock  # imports numpy, which lieorb would import first anyway

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def timed_setup(clock, name: str, seed: int, workdir: str, tracer):
    """Import lieorb and prepare the workload.

    Returns the workload and the (start, end) marks of the two timed parts;
    the benchmark's own modules load between them, untimed.
    """
    import lieorb  # noqa: F401
    import lieorb.cli  # noqa: F401

    import_end = clock.mark()
    import workloads

    wl = workloads.make(name, seed, workdir)
    if tracer is not None:
        tracer.install()
    setup_start = clock.mark()
    wl.setup()
    setup_end = clock.mark()
    if tracer is not None:
        tracer.remove()
    return wl, [((_T0, 0.0), import_end), (setup_start, setup_end)]


def tail(times: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 40:
        return None
    idx = n - 11
    return {"percentile": 100 * (idx + 1) / n, "value": sorted(times)[idx], "beyond": 10, "samples": n}


def per_layer(tracer, clock, wl, traced_ops: int, overhead: float) -> dict:
    from tracer import TRACED

    ops = tracer.self_times(True, clock.factor)
    setup = tracer.self_times(False, clock.factor)
    out = {}
    for mod, fn in TRACED:
        out[f"{mod}.{fn}.self_s"] = ops.get(f"{mod}.{fn}", (0.0, 0))[0] / traced_ops
    for key in ("flows.flow_exact", "kkform.kk_eval"):
        out[f"{key}.calls"] = ops.get(key, (0.0, 0))[1] / traced_ops
    for key in ("liecore.build_algebra", "parabolic.nilpotency_index"):
        out[f"{key}.setup_self_s"] = setup.get(key, (0.0, 0))[0]
    kids, parents = tracer.child_counts("flows.invert_exp_H", "flows.flow_exact")
    out["flows.invert_exp_H.iterations"] = kids / parents if parents else 0.0
    kids, parents = tracer.child_counts("symplecto.pullback_residual", "flows.exp_H")
    out["symplecto.pullback_residual.exp_H_calls"] = kids / parents if parents else 0.0
    out["liecore.build_algebra.jacobi_bytes"] = float(max(wl.algebra_dims()) ** 4 * 8)
    out["tracing_overhead"] = overhead
    return out


def run(args, clock, workdir: str) -> dict:
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    wl, setup_marks = timed_setup(clock, args.workload, args.seed, workdir, tracer)
    if args.setup_only:
        clock.sample()  # the set-up's last interval needs a sample after its end
        return {
            "setup_s": sum(clock.scaled(a, b) for a, b in setup_marks),
            "wall_setup_s": sum(clock.wall(a, b) for a, b in setup_marks),
        }

    from closed_forms import CheckFailed

    attempted = failed = 0
    errors: list[str] = []
    wrong: list[str] = []
    marks = {False: [], True: []}  # traced? -> (start, end) marks of timed operations

    def execute(op, timed: bool, traced: bool = False) -> None:
        nonlocal attempted, failed
        clock.sample()
        start = clock.mark()
        try:
            out = tracer.span("op", wl.run, op) if traced else wl.run(op)
        except Exception as exc:  # a failed operation is counted, the run goes on
            out = exc
        end = clock.mark()
        clock.sample()
        reason = None
        if isinstance(out, Exception):
            reason = f"{type(out).__name__}: {out}"
        else:
            try:
                reason = wl.check(op, out)
            except CheckFailed as exc:
                wrong.append(str(exc))
        if timed:
            attempted += 1
            marks[traced].append((start, end))
            if reason is not None:
                failed += 1
                errors.append(reason)

    # warm-up: lazy imports, first-call costs and the reference reports of verify
    for op in wl.round(0, warm=True):
        execute(op, timed=False)

    r = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        for op in wl.round(r):
            if tracer is not None:
                tracer.op = attempted
            execute(op, timed=True, traced=traced)
        if traced:
            tracer.remove()
        r += 1
        # a traced run alternates plain and traced rounds, in pairs
        if time.perf_counter() - start >= args.seconds and (tracer is None or r % 2 == 0):
            break

    plain = [clock.scaled(a, b) for a, b in marks[False]]
    wall = [clock.wall(a, b) for a, b in marks[False]]
    result = {
        "setup_s": sum(clock.scaled(a, b) for a, b in setup_marks),
        "wall_setup_s": sum(clock.wall(a, b) for a, b in setup_marks),
        "attempted": attempted,
        "failed": failed,
        "correct": not wrong,
        "wrong": wrong[:5],
        "errors": errors[:5],
        "rounds": r,
        "ops_per_s": len(plain) / sum(plain),
        "op_p50_s": statistics.median(plain),
        "op_tail": tail(plain),
        "wall_ops_per_s": len(wall) / sum(wall),
        "wall_op_p50_s": statistics.median(wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        traced = [clock.scaled(a, b) for a, b in marks[True]]
        overhead = result["ops_per_s"] / (len(traced) / sum(traced))
        result["per_layer"] = per_layer(tracer, clock, wl, len(traced), overhead)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path)
        result["trace_file"] = os.path.relpath(path, os.path.dirname(HERE))
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    clock = RefClock()
    clock.start()
    os.makedirs(OUT, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            result = run(args, clock, workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        clock.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
