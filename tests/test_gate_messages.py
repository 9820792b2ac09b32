"""Every per-point gate names the first failing point of a batch, with that point's own input.

Each case plants one fault at batch index 1 of 3 points of sl(3, R) at c = (1, 0, -1), whose V
rows have max|V| = 0.5, 2 and 4: a message that read the whole batch would give 4.
"""

import dataclasses

import numpy as np
import pytest

from lieorb import flows, symplecto
from lieorb.flows import exp_H, flow_exact, invert_exp_H, linear_chart
from lieorb.kkform import OrbitPoint, orbit_point
from lieorb.liecore import DecompositionError, GroupElement, InconsistencyError, iwasawa_decompose
from lieorb.symplecto import CotangentPoint, pullback_residual

_V = np.array([1.0, -2.0, 0.5])
_BATCH = np.stack([_V / 4, _V, 2 * _V])
_CHAMBER = "at c = ('1', '0', '-1')"


def _flow_non_finite(data, monkeypatch):
    U0 = np.zeros((3, data.n_dim))
    U0[1, 2] = np.inf
    return lambda: flow_exact(data, _BATCH, U0)


def _flow_defining_equation(data, monkeypatch):
    kernel = flows._hv_series

    def off_at_point_1(d, v, u, deg):
        out = kernel(d, v, u, deg)  # only the check calls _hv_series; the recursion extends its own series
        out[0, 1, 0] += 1e-3
        return out

    monkeypatch.setattr(flows, "_hv_series", off_at_point_1)
    return lambda: flow_exact(data, _BATCH, np.zeros((3, data.n_dim)))


def _flow_grading(data, monkeypatch):
    extend = flows._HvSeries.extend

    def planted(series, U):  # every coefficient of point 1 gains a coordinate-0 part, of block grade 1
        out = extend(series, U).copy()
        out[1, 0] += 1e-3
        return out

    monkeypatch.setattr(flows._HvSeries, "extend", planted)
    return lambda: flow_exact(data, _BATCH, np.zeros((3, data.n_dim)))


def _linear_chart(data, monkeypatch):
    # block grades reversed: N13 is solved before the V12 N23 term it needs, which is 0 where
    # coordinate 0 of V is: at points 0 and 2
    reversed_levels = dataclasses.replace(data, block_grades=3 - data.block_grades)
    V = _BATCH.copy()
    V[[0, 2], 0] = 0.0
    return lambda: linear_chart(reversed_levels, V)


def _invert_exp_H(data, monkeypatch):
    g = exp_H(data, _BATCH).matrix
    g[1] = g[1] @ np.diag([1 + 1e-6, 1.0, 1 / (1 + 1e-6)])  # a z(c) part
    return lambda: invert_exp_H(data, g)


def _pullback_tie(data, monkeypatch):
    def drifted(d, V):
        M = exp_H(d, V).matrix.copy()
        M[1, 0, 2] += 1e-6 * np.max(np.abs(M[1]))
        return GroupElement(M)

    monkeypatch.setattr(symplecto, "exp_H", drifted)
    return lambda: pullback_residual(data, CotangentPoint(np.stack([np.eye(3)] * 3), _BATCH))


def _pullback_tangent(data, monkeypatch):
    def drifted(algebra, c, g, validate=True):  # w of point 1 only scaled by 1.001
        on = orbit_point(algebra, c, g, validate=validate)
        scale = np.where(np.arange(len(g)) == 1, 1.001, 1.0)
        return OrbitPoint(on.g, scale[:, None, None] * on.w)

    monkeypatch.setattr(symplecto, "orbit_point", drifted)
    return lambda: pullback_residual(data, CotangentPoint(np.stack([np.eye(3)] * 3), _BATCH))


def _iwasawa(data, monkeypatch):
    g = np.stack([np.eye(3), np.diag([2.0, 1.0, 1.0]), np.eye(3)])
    return lambda: iwasawa_decompose(data.algebra, g)


def _orbit_point(data, monkeypatch):
    g = np.stack([np.eye(3), np.zeros((3, 3)), 2 * np.eye(3)])
    return lambda: orbit_point(data.algebra, data.c, g)


# (stage, error, planted fault, whether the chamber is named, the failing point's own input)
GATES = {
    "flow_exact non-finite": ("flow_exact", InconsistencyError, _flow_non_finite, True, "max|V| = 2.000e+00"),
    "flow_exact equation": ("flow_exact", InconsistencyError, _flow_defining_equation, True, "max|V| = 2.000e+00"),
    "flow_exact grading": ("flow_exact", InconsistencyError, _flow_grading, True, "max|V| = 2.000e+00"),
    "linear_chart": ("linear_chart", DecompositionError, _linear_chart, True, "max|V| = 2.000e+00"),
    "invert_exp_H": ("invert_exp_H", ValueError, _invert_exp_H, False, None),
    "pullback tie": ("pullback_residual", DecompositionError, _pullback_tie, True, "max|V| = 2.000e+00"),
    "pullback tangent": ("pullback_residual", DecompositionError, _pullback_tangent, True, "max|V| = 2.000e+00"),
    "iwasawa_decompose": ("iwasawa_decompose", DecompositionError, _iwasawa, False, None),
    "orbit_point": ("orbit_point", DecompositionError, _orbit_point, False, "max|g| = 0.000e+00"),
}


@pytest.mark.parametrize("gate", GATES)
def test_gate_names_the_failing_point(ws, monkeypatch, gate):
    stage, error, plant, chamber, own = GATES[gate]
    data = ws.data("sl3r", (1, 0, -1))
    call = plant(data, monkeypatch)
    with pytest.raises(error) as err:
        call()
    message = str(err.value)
    assert message.startswith(f"{stage}: "), message
    assert (_CHAMBER in message) == chamber, message
    if own is not None:
        assert own in message, message
    assert "4.000e+00" not in message, message  # no other point's input
    assert message.endswith(" at point (1,)"), message
