"""Flow-layer ladder: median times of the flows and of the pullback check.

    python scripts/bench_flows.py --label after [--src src] [--out BENCH_flows.json]

For sl(4..8, R) and sl(4..6, C), at the regular chamber diag(n-1, n-3, ...)
and at the wall made by merging its two largest entries, and on sl(4, R) at
the spread chamber (1000, 1, 0, -1001), whose grade ratio is 2001 while its
top block grade is 3, it records dim n(c), N0, the number of eigenvalue
levels p and the median of 5 calls of
flow_exact, exp_H and invert_exp_H at one seeded point, of flow_exact and
the witness flow_numeric (at t = 1 and t = -2) on a seeded 20-point batch,
of that witness as check_flow makes it (flow_numeric_times_s: both times in
one call), and of the checks as symplecto-verify makes them at its default
20 samples: pullback_residual and project_pi on 20 seeded cotangent points
in one batch and liouville_fd_gap on 4.  commute_s times commute_residual
on the n(n - 1)/2 pairs of basis vectors of n(c) in one batch, as
flow-check makes it, and linear_chart_s times linear_chart on the 20
sample points, as pullback_residual's tie to exp_H calls it (passes before
the label witness_affine timed it on the 20 * 2n perturbed fiber points of
the pullback's former finite-difference witness).  Four rows time the
sampled checks from a fresh generator at the default 20 samples:
checks.check_kk, checks.check_flow (the whole flow-check section) and
checks.check_symplecto (the whole symplecto-verify section) on a context
whose structure is already built, and the sampling of symplecto-verify
(checks._sample_points at 20 points and section_lagrangian_check at 5).
check_flow_peak_mib and check_symplecto_peak_mib are the tracemalloc peaks
of one more check_flow and check_symplecto call.  Two more rows, at the
regular chamber of sl(10, R) and sl(8, C), where the flow check's memory
binds, hold only check_flow_s and check_flow_peak_mib.  The first of the 5
calls of a check builds the chamber's chart frame (symplecto.chart_frame)
and the other calls, and the peak's, reuse it.
The script times checkouts that have lieorb.checks, whose checks take
(ctx, rng), and the batched flow and symplecto APIs; passes of older
checkouts stay in BENCH_flows.json under their labels.
Each run adds one pass to --out under --label, with BLAS single-threaded
(see benchlib.py).
"""

from __future__ import annotations

import json
import sys

from benchlib import main, median_time, peak_mib, regular, wall  # first: it pins BLAS to one thread

import numpy as np  # noqa: E402

GRID = [("R", n) for n in range(4, 9)] + [("C", n) for n in range(4, 7)]
LARGE = [("R", 10), ("C", 8)]  # regular chamber, check_flow only
TIMES = (1.0, -2.0)  # the witness times of check_flow
SPREAD = ("R", 4, (1000, 1, 0, -1001))  # one more chamber: (field, n, entries)
WITNESS_BATCH = 20
FD_SAMPLES = 20  # symplecto-verify's default samples: the pullback points; samples // 5 Liouville points


def batch(pts):
    """The points as one CotangentPoint batch, as check_symplecto passes them."""
    from lieorb.symplecto import CotangentPoint

    return CotangentPoint(np.stack([pt.k for pt in pts]), np.stack([pt.V for pt in pts]))


def library_check(field, n, entries, check: str):
    """The lieorb.checks function of that name at the default samples, with the context's structure in place
    before timing."""
    from lieorb import checks, cli

    ctx = cli._Context(cli.parse_config({"algebra": {"family": "sl", "n": n, "field": field}, "c": list(entries)}))
    ctx.data  # noqa: B018  (fetched before timing, with the split and the roots it needs)
    return lambda: getattr(checks, check)(ctx, np.random.default_rng(0))


def sampling(data, split):
    """The draws of symplecto-verify: 20 cotangent points and a 5-sample section check."""
    from lieorb import checks, symplecto

    def run():
        rng = np.random.default_rng(0)
        checks._sample_points(data, rng, FD_SAMPLES)
        symplecto.section_lagrangian_check(data, split, rng, samples=FD_SAMPLES // 4)

    return run


def ladder() -> list[dict]:
    from lieorb import flows, symplecto
    from lieorb.liecore import AlgebraSpec, build_algebra, cartan_split, random_in_K
    from lieorb.parabolic import hyperbolic_data
    from lieorb.rootspace import maximal_abelian, restricted_roots

    rows = []
    for field, n in GRID:
        alg = build_algebra(AlgebraSpec("sl", n, field))
        split = cartan_split(alg)
        rs = restricted_roots(alg, maximal_abelian(alg, split))
        chambers = [("regular", regular(n)), ("wall", wall(n))]
        if SPREAD[:2] == (field, n):
            chambers.append(("spread", SPREAD[2]))
        for kind, entries in chambers:
            data = hyperbolic_data(alg, rs, entries)
            rng = np.random.default_rng([n, field == "C", ("regular", "wall", "spread").index(kind)])
            V, U0 = rng.standard_normal((2, data.n_dim))
            Vb, U0b = rng.standard_normal((2, WITNESS_BATCH, data.n_dim))
            pts = [
                symplecto.cotangent_point(data, random_in_K(alg, rng).matrix, 0.8 * rng.standard_normal(data.n_dim))
                for _ in range(FD_SAMPLES)
            ]
            g = flows.exp_H(data, V)
            a, b = np.triu_indices(data.n_dim, 1)
            basis = np.eye(data.n_dim)
            fd, fd_few = batch(pts), batch(pts[: FD_SAMPLES // 5])
            on = symplecto.phi_lambda(data, fd, validate=False)
            timed = {
                "flow_exact_s": lambda: flows.flow_exact(data, V, U0),
                "exp_H_s": lambda: flows.exp_H(data, V),
                "invert_exp_H_s": lambda: flows.invert_exp_H(data, g),
                "flow_exact_batch_s": lambda: flows.flow_exact(data, Vb, U0b),
                "flow_numeric_t1_s": lambda: flows.flow_numeric(data, Vb, U0b, 1.0),
                "flow_numeric_t-2_s": lambda: flows.flow_numeric(data, Vb, U0b, -2.0),
                "flow_numeric_times_s": lambda: flows.flow_numeric(data, Vb, U0b, TIMES),
                "commute_s": lambda: flows.commute_residual(data, basis[a], basis[b]),
                "pullback_residual_s": lambda: symplecto.pullback_residual(data, fd),
                "project_pi_s": lambda: symplecto.project_pi(data, on),
                "liouville_fd_gap_s": lambda: symplecto.liouville_fd_gap(data, fd_few),
                "check_kk_s": library_check(field, n, entries, "check_kk"),
                "check_flow_s": library_check(field, n, entries, "check_flow"),
                "check_symplecto_s": library_check(field, n, entries, "check_symplecto"),
                "symplecto_sampling_s": sampling(data, split),
                "linear_chart_s": lambda: flows.linear_chart(data, fd.V),
            }
            row = {
                "algebra": f"sl({n}, {field})",
                "chamber": kind,
                "c": list(entries),
                "dim_n": data.n_dim,
                "N0": data.N0,
                "p": len(data.levels),
                "flow_degree": flows.flow_exact(data, V, U0).degree,
                **{name: median_time(fn)[0] for name, fn in timed.items()},
                "check_flow_peak_mib": peak_mib(timed["check_flow_s"]),
                "check_symplecto_peak_mib": peak_mib(timed["check_symplecto_s"]),
            }
            print(json.dumps(row), flush=True)
            rows.append(row)
    for field, n in LARGE:
        check = library_check(field, n, regular(n), "check_flow")
        row = {
            "algebra": f"sl({n}, {field})",
            "chamber": "regular",
            "c": list(regular(n)),
            "check_flow_s": median_time(check)[0],
            "check_flow_peak_mib": peak_mib(check),
        }
        print(json.dumps(row), flush=True)
        rows.append(row)
    return rows


if __name__ == "__main__":
    sys.exit(main(__doc__, "BENCH_flows.json", ladder, witness_batch=WITNESS_BATCH, fd_samples=FD_SAMPLES))
