"""The three closed-loop workloads: one client thread, one operation at a time.

Each workload makes its inputs from the seed, runs whole rounds of operations
and checks every output against closed_forms.  ``run`` is the timed part of an
operation; ``check`` runs with the clock stopped, returns a message when the
operation failed (it is then counted, not checked) and raises CheckFailed when
an output is wrong.  Library functions are looked up through their modules at
call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction

import numpy as np

from lieorb import cli, flows, liecore, parabolic, rootspace, symplecto

from closed_forms import (
    block_index,
    complex_part,
    embed,
    exactness_rule,
    field_factor,
    killing_oracle,
    parabolic_forms,
    random_special_unitary,
    require,
    root_forms,
)


def regular(n: int) -> tuple[int, ...]:
    return tuple(n - 1 - 2 * k for k in range(n))


def wall(n: int) -> tuple[int, ...]:
    """The regular element with its two largest entries merged (one wall, s = n - 1)."""
    r = regular(n)
    m = (r[0] + r[1]) // 2
    return (m, m) + r[2:]


def build_structure(field: str, n: int, entries):
    """The cold pipeline of one (algebra, chamber), as the library user calls it."""
    alg = liecore.build_algebra(liecore.AlgebraSpec("sl", n, field))
    split = liecore.cartan_split(alg)
    rs = rootspace.restricted_roots(alg, rootspace.maximal_abelian(alg, split))
    return alg, rs, parabolic.hyperbolic_data(alg, rs, entries)


def check_levels(levels, expected) -> None:
    require(len(levels) == len(expected), f"ladder {levels} != {expected}")
    for (nu, d), (delta, m) in zip(levels, expected):
        require(abs(float(nu) - float(delta)) <= 1e-12 and int(d) == m, f"ladder {levels} != {expected}")


class Structure:
    """Cold builds over a grid of algebras and chambers; one operation per pair."""

    name = "structure"
    # sl(6, C) regular is left out: its N0 search alone walks ~2.8e5 multisets
    GRID = (
        [("R", n, regular(n)) for n in range(2, 7)]
        + [("R", n, wall(n)) for n in range(3, 7)]
        + [("C", n, regular(n)) for n in range(2, 6)]
        + [("C", n, wall(n)) for n in range(3, 6)]
        + [("C", 6, (1, 1, 1, -1, -1, -1))]
    )
    BRACKET_PAIRS = 16

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        pass

    def algebra_dims(self) -> list[int]:
        return [field_factor(f) * (n * n - 1) for f, n, _ in self.GRID]

    def round(self, r: int, warm: bool = False) -> list:
        rng = np.random.default_rng([self.seed, int(warm), r])
        grid = [g for g in self.GRID if not warm or field_factor(g[0]) * (g[1] ** 2 - 1) <= 24]
        ops = []
        for i in rng.permutation(len(grid)):
            f, n, c = grid[i]
            dim = field_factor(f) * (n * n - 1)
            ops.append((f, n, c, rng.integers(0, dim, size=(self.BRACKET_PAIRS, 2))))
        return ops

    def run(self, op):
        f, n, c, _ = op
        return build_structure(f, n, c)

    def check(self, op, result) -> None:
        f, n, c, pairs = op
        alg, rs, data = result
        roots = root_forms(n, f)
        require(alg.dim == roots["dim"], f"dim {alg.dim} != {roots['dim']}")
        got = {tuple(int(w) for w in r.weights): r.multiplicity for r in rs.roots}
        require(got == dict(roots["roots"]), f"roots of sl({n}, {f}) differ from e_i - e_j")
        K = alg.killing_matrix
        gap = float(np.max(np.abs(K - killing_oracle(alg.basis, n, f))))
        require(gap <= 1e-9 * float(np.max(np.abs(K))), f"Killing matrix off the trace form by {gap:.2e}")
        B = alg.basis
        for i, j in pairs:
            br = B[i] @ B[j] - B[j] @ B[i]
            via = np.einsum("k,kab->ab", alg.structure[i, j], B)
            require(float(np.max(np.abs(br - via))) <= 1e-12, f"bracket [b_{i}, b_{j}] off the commutator")
        forms = parabolic_forms(c, f)
        require(data.N0 == forms["N0"], f"N0 {data.N0} != {forms['N0']} at c = {c}")
        require(data.n_dim == forms["dim_n"], f"dim n(c) {data.n_dim} != {forms['dim_n']}")
        require(len(data.z_indices) == forms["dim_z"], f"dim z(c) {len(data.z_indices)} != {forms['dim_z']}")
        check_levels(data.levels, forms["levels"])


class OrbitMap:
    """Seeded cotangent points through phi, pi and the fiber chart on prepared data."""

    name = "orbit-map"
    N = 5
    C = regular(5)
    FIELDS = ("R", "C")

    def __init__(self, seed: int):
        self.seed = seed
        self.datas = []

    def setup(self) -> None:
        self.datas = [build_structure(f, self.N, self.C)[2] for f in self.FIELDS]

    def algebra_dims(self) -> list[int]:
        return [field_factor(f) * (self.N**2 - 1) for f in self.FIELDS]

    def round(self, r: int, warm: bool = False) -> list:
        rng = np.random.default_rng([self.seed, int(warm), r])
        ops = []
        for i, data in enumerate(self.datas):
            k = random_special_unitary(rng, self.N, self.FIELDS[i])
            ops.append((i, k, rng.standard_normal(data.n_dim)))
        return ops

    def run(self, op):
        i, k, V = op
        data = self.datas[i]
        w = symplecto.phi_lambda(data, symplecto.cotangent_point(data, k, V))
        base = symplecto.project_pi(data, w)
        g = flows.exp_H(data, V)
        return w.w, base.k, g.matrix, flows.invert_exp_H(data, g)

    def check(self, op, result) -> None:
        i, k, V = op
        w, k2, g, V2 = result
        field = self.FIELDS[i]
        entries = np.array(self.C, dtype=float)
        gap = float(np.max(np.abs(V2 - V)))
        require(gap <= 1e-9 * (1 + float(np.max(np.abs(V)))), f"chart round trip off by {gap:.2e}")

        Z = complex_part(g) if field == "C" else g
        D = Z - np.eye(self.N)
        bi = block_index(self.C)
        below = bi[:, None] >= bi[None, :]
        require(float(np.max(np.abs(D[below]))) == 0.0, "exp_H(V) - I is not strictly block-upper-triangular")

        ev = np.linalg.eigvals(w)
        expect = np.sort(np.repeat(entries, 2) if field == "C" else entries)
        scale = 1.0 + float(np.max(np.abs(w)))
        got = np.sort_complex(ev)
        require(
            float(np.max(np.abs(got - expect))) <= 1e-6 * scale,
            f"spectrum of phi(k, V) {np.round(got, 6)} is not c",
        )

        d = k2.shape[0]
        require(float(np.max(np.abs(k2.T @ k2 - np.eye(d)))) <= 1e-9, "project_pi is not orthogonal")
        require(abs(np.linalg.det(k2) - 1.0) <= 1e-9, "project_pi is not of determinant 1")
        c = embed(np.diag(entries).astype(complex)) if field == "C" else np.diag(entries)
        m = k.T @ k2
        gap = float(np.max(np.abs(m @ c @ m.T - c)))
        require(gap <= 1e-8 * float(np.max(np.abs(entries))), f"Ad(k^T k') moves c by {gap:.2e}")


def parse_entry(e):
    if isinstance(e, dict):
        return complex(e.get("re", 0), e.get("im", 0))
    return Fraction(e)


ALL_SUBCOMMANDS = ("roots", "parabolic", "kk-check", "flow-check", "symplecto-verify")
SECTION = {
    "roots": "roots",
    "parabolic": "parabolic",
    "kk-check": "kk",
    "flow-check": "flow",
    "symplecto-verify": "symplecto",
    "arnold": "arnold",
}


I, MINUS_I = {"re": 0, "im": 1}, {"re": 0, "im": -1}


class Verify:
    """In-process ``lieorb.cli.main`` reports over a fixed list of configurations."""

    name = "verify"
    # (n, field, c, subcommands, config seed fixed regardless of --seed)
    CONFIGS = (
        (3, "R", regular(3), ALL_SUBCOMMANDS, None),
        (4, "R", regular(4), ALL_SUBCOMMANDS, None),
        (4, "R", (1, 1, -1, -1), ("parabolic", "kk-check", "flow-check", "symplecto-verify"), None),
        (3, "C", (1, 0, -1), ("arnold",), None),
        (3, "C", (I, 0, MINUS_I), ("roots", "kk-check"), None),
        # the scale fault: absolute FD step and tolerances at |c| = 1e-3
        (3, "R", ("1/1000", "0", "-1/1000"), ("symplecto-verify",), 7),
    )

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.paths: list[str] = []
        self.reference: dict[tuple, str] = {}

    def setup(self) -> None:
        for i, (n, f, c, _, _) in enumerate(self.CONFIGS):
            path = os.path.join(self.workdir, f"config{i}.json")
            with open(path, "w") as fh:
                json.dump({"algebra": {"family": "sl", "n": n, "field": f}, "c": list(c), "samples": 20}, fh)
            self.paths.append(path)

    def algebra_dims(self) -> list[int]:
        return [field_factor(f) * (n * n - 1) for n, f, *_ in self.CONFIGS]

    def round(self, r: int, warm: bool = False) -> list:
        # every pass repeats the same reports, so each can be compared byte for byte
        ops = []
        for i, (_, _, _, subs, fixed) in enumerate(self.CONFIGS):
            seed = fixed if fixed is not None else 1000 * self.seed + i
            ops.extend((i, sub, seed) for sub in subs)
        return ops

    def out_path(self, op) -> str:
        i, sub, _ = op
        return os.path.join(self.workdir, f"report{i}-{sub}.json")

    def run(self, op):
        i, sub, seed = op
        out = self.out_path(op)
        if os.path.exists(out):
            os.remove(out)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main([sub, "--config", self.paths[i], "--seed", str(seed), "--out", out])
        return rc, err.getvalue()

    def check(self, op, result) -> str | None:
        i, sub, seed = op
        rc, err = result
        n, f, c, *_ = self.CONFIGS[i]
        body = None
        if os.path.exists(self.out_path(op)):
            with open(self.out_path(op)) as fh:
                body = json.dumps(json.load(fh)["body"], sort_keys=True)
        if body is not None:
            ref = self.reference.setdefault(op, body)
            require(ref == body, f"two reports of {sub} on config {i} differ")
        if rc != 0:
            return f"{sub} on config {i} (seed {seed}) exited {rc} {err.strip()[:100]}".rstrip()
        require(body is not None, f"{sub} on config {i} wrote no report")
        body = json.loads(body)
        require(body["pass"] is True, f"{sub} on config {i} exits 0 with a failing body")
        section = body["checks"][SECTION[sub]]
        entries = [parse_entry(e) for e in c]
        if sub == "roots":
            roots = root_forms(n, f)
            got = {tuple(r["alpha"]): r["mult"] for r in section["roots"]}
            require(got == dict(roots["roots"]), f"roots section of config {i} differs from e_i - e_j")
            require(section["dim_a"] == n - 1, "dim a != n - 1")
            require(section["dim_m"] == (n - 1 if f == "C" else 0), "dim m differs from its closed form")
        if sub == "parabolic":
            forms = parabolic_forms(entries, f)
            require(section["N0"] == forms["N0"], f"N0 of config {i} differs from max(1, s - 2)")
            require(section["dim_n"] == forms["dim_n"], f"dim n(c) of config {i} differs")
            require(section["dim_z"] == forms["dim_z"], f"dim z(c) of config {i} differs")
            check_levels(section["eigenvalues"], forms["levels"])
        verdict = section.get("exactness_verdict", section)
        if f == "C" and "re_exact" in verdict:
            rule = exactness_rule(entries)
            got = (verdict["re_exact"], verdict["im_exact"])
            require(got == rule, f"exactness verdict {got} of config {i} breaks the rule {rule}")
        return None


def make(name: str, seed: int, workdir: str):
    if name == "structure":
        return Structure(seed)
    if name == "orbit-map":
        return OrbitMap(seed)
    return Verify(seed, workdir)

