"""The lieorb names that the benchmark in perfbench/ looks up must keep resolving.

perfbench/tracer.py wraps each (module, function) of its TRACED list, and the
orbit-map workload reads fields of the results of phi_lambda, project_pi and
exp_H; removing any of them would break the benchmark's traced runs.  Its
structure workload reads alg.structure[i, j] and alg.killing_matrix.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import ALGEBRA_SPECS
from lieorb import cli, flows, symplecto
from lieorb.liecore import build_algebra, random_in_K

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_every_traced_function_resolves():
    traced = _traced()
    assert traced
    for module, name in traced:
        assert callable(getattr(importlib.import_module(f"lieorb.{module}"), name, None)), f"lieorb.{module}.{name}"


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
