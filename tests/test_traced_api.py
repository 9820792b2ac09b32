"""The lieorb names that the benchmark in perfbench/ looks up must keep resolving.

perfbench/tracer.py wraps each (module, function) of its TRACED list, and the
orbit-map workload reads fields of the results of phi_lambda, project_pi and
exp_H; removing any of them would break the benchmark's traced runs.  Its
structure workload reads alg.structure[i, j] and alg.killing_matrix.  The
checks live in lieorb.checks, and a traced report must still show each as
its cli.check_* span: a dispatch the tracer cannot patch would drop them.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import ALGEBRA_SPECS
from lieorb import checks, cli, flows, symplecto
from lieorb.liecore import build_algebra, random_in_K

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_function_resolves():
    traced = _tracer().TRACED
    assert traced
    for module, name in traced:
        assert callable(getattr(importlib.import_module(f"lieorb.{module}"), name, None)), f"lieorb.{module}.{name}"


def test_the_tracer_sees_every_check(tmp_path):
    """Traced in-process kk-check and arnold reports on sl(3, C) give each check its cli.check_* span, with
    check_arnold's own check_symplecto a direct child and that check's pullback_residual under it."""
    config, out = tmp_path / "cfg.json", str(tmp_path / "report.json")
    config.write_text(json.dumps({"algebra": {"family": "sl", "n": 3, "field": "C"}, "c": [1, 0, -1], "samples": 4}))
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        assert [cli.main([sub, "--config", str(config), "--out", out]) for sub in ("kk-check", "arnold")] == [0, 0]
    finally:
        tracer.remove()
    assert cli.check_kk is checks.check_kk and cli.CHECK_FUNCS["arnold"] is checks.check_arnold
    assert [name for name, *_ in tracer.spans].count("cli.check_kk") == 1
    assert tracer.child_counts("cli.check_arnold", "cli.check_symplecto") == (1, 1)
    assert tracer.child_counts("cli.check_symplecto", "symplecto.pullback_residual") == (1, 1)


@pytest.mark.parametrize("key, entries", [("sl3r", (1, 0, -1)), ("sl3c", (1, 0, -1))])
def test_orbit_map_reads_its_fields(ws, key, entries):
    data = ws.data(key, entries)
    rng = np.random.default_rng(5)
    k, V = random_in_K(data.algebra, rng).matrix, rng.standard_normal(data.n_dim)
    d = data.algebra.d
    w = symplecto.phi_lambda(data, symplecto.cotangent_point(data, k, V))
    assert w.w.shape == (d, d)
    assert symplecto.project_pi(data, w).k.shape == (d, d)
    assert flows.exp_H(data, V).matrix.shape == (d, d)


@pytest.mark.parametrize("key", ["sl3r", "sl3c"])
def test_structure_workload_reads_the_dense_view(key):
    """alg.structure is a read-only dim^3 array of the matrix brackets of basis pairs, byte for byte the fixture's."""
    spec = ALGEBRA_SPECS[key]
    alg = build_algebra(spec)
    c, dim = alg.structure, alg.dim
    assert isinstance(c, np.ndarray) and c.shape == (dim, dim, dim) and not c.flags.writeable
    assert alg.structure is c and alg.killing_matrix.shape == (dim, dim)
    X, Y = np.broadcast_arrays(alg.basis[:, None], alg.basis[None, :])
    np.testing.assert_array_equal(c, alg.coords(alg.bracket(X, Y)))
    config = cli.parse_config({"algebra": {"family": spec.family, "n": spec.n, "field": spec.field}, "c": [1, 0, -1]})
    assert c.tobytes() == np.array(cli.emit_fixture(config)["structure_constants"]).tobytes()
