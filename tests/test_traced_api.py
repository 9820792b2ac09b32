"""The lieorb names that the benchmark in perfbench/ looks up must keep resolving.

perfbench/tracer.py wraps each (module, function) of its TRACED list, and the
orbit-map workload reads fields of the results of phi_lambda, project_pi and
exp_H; removing any of them would break the benchmark's traced runs.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from lieorb import flows, symplecto
from lieorb.liecore import random_in_K

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
