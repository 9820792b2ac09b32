"""Fiber vector fields in exponential coordinates and their exact flows.

The field pulled back to n(c) is

    h_V(U) = [I + R(ad U)]^{-1} . T^{-1} . e^{-ad U} (V),

where R(t) = (1 - e^{-t})/t - 1.  The inverse is x / (e^x - 1) at
x = -ad U, and every series in ad U terminates at the nilpotency index N0,
so h_V is a polynomial map and its integral curves are polynomials in t.
One kernel, _hv_series, evaluates h_V on degree-truncated coefficient arrays
in t: a plain vector is the degree-0 case (the witness flow_numeric), a
polynomial curve the general one (flow_exact).  flow_exact computes the
curves by their Taylor recursion, extending the kernel's state (_HvSeries)
by one exact coefficient per step, so that each is computed once, up to the
top block grade B of n(c): the bracket adds block grades, so coordinate j of
a flow has degree at most its own.  The chamber constants the kernel reads
are built once per data (_kernel_frame).  flow_exact and exp_H batch over
leading axes of V / U0.  flow_numeric is an independent witness:
Gauss-Legendre collocation, exact on polynomial solutions of degree <= its
stage count (Hairer, Norsett & Wanner, Solving ODEs I, II.7), which only
evaluates the field at points, takes each iteration of all its unsettled
steps in one stacked product and checks itself by step halving.

The fiber chart exp_H(V) = exp(U(1)) lands in N(c) and is affine on the
orbit, Ad(exp_H(V)) c = c - V, since N(c) acts simply transitively on
c + n(c) (Kostant).  invert_exp_H reads V off that identity in closed form,
so the chart round trip checks flow_exact by a route that solves no flow;
linear_chart solves the same identity, linear in n, for exp_H(V) itself.

Vectors here are coordinates in the ordered eigenbasis V_1, ..., V_n of n(c)
(see HyperbolicData); convert with data.n_coords_of / data.n_matrix_of.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import legint, leggauss, legval, legvander

from .liecore import TOL_DECOMP, TOL_STRUCT, DecompositionError, GroupElement, InconsistencyError, _as_matrix
from .liecore import exp_series, per_instance, raise_first
from .parabolic import HyperbolicData


# -- small polynomial helpers (coefficients along axis 0) ----------------------


def _poly_deriv(P: np.ndarray) -> np.ndarray:
    if P.shape[0] == 1:
        return np.zeros_like(P[:1])
    return P[1:] * np.arange(1, P.shape[0]).reshape((-1,) + (1,) * (P.ndim - 1))


def _poly_eval(P: np.ndarray, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    tb = t.reshape(t.shape + (1,) * (P.ndim - 1))
    out = np.zeros(t.shape + P.shape[1:]) + P[-1]
    for m in range(P.shape[0] - 2, -1, -1):
        out = out * tb + P[m]
    return out


# -- the field ---------------------------------------------------------------


@functools.cache
def _inverse_weights(N0: int) -> tuple[float, ...]:
    """b_0, ..., b_N0 of x / (e^x - 1) = sum_k b_k x^k (b_k = B_k / k!).

    Exact rationals from (e^x - 1)/x . sum_k b_k x^k = 1, rounded once;
    trailing zero weights are dropped.
    """
    b = [Fraction(1)]
    for m in range(1, N0 + 1):
        b.append(-sum(b[m - j] / factorial(j + 1) for j in range(1, m + 1)))
    while len(b) > 1 and b[-1] == 0:
        b.pop()
    return tuple(float(x) for x in b)


class _KernelFrame(NamedTuple):
    """What the flows read of a chamber: B its top block grade, and the arrays below."""

    adn: np.ndarray  # (n, n^2): adn as one block, so that negA = -U adn is one BLAS product
    grades: np.ndarray  # (n, 1): the eigenvalues of T, a column against the stages
    degrees: np.ndarray  # (B + 1, 1): 0 ... B
    above: np.ndarray  # (B + 1, n): degree k lies above coordinate j's block grade
    masks: np.ndarray  # (B, d, d): for block grades 1 ... B, the entries of n(c) on the grade
    dens: np.ndarray  # (B, d, d): and c_i - c_j there (1.0 elsewhere), for linear_chart
    B = property(lambda self: len(self.degrees) - 1)


@per_instance
def _kernel_frame(data: HyperbolicData) -> _KernelFrame:
    c, degrees = np.diagonal(data.c), np.arange(int(data.block_grades.max()) + 1)[:, None]
    masks = np.stack([np.any(data.n_basis[data.block_grades == b] != 0, axis=0) for b in degrees[1:, 0]])
    return _KernelFrame(data.adn.reshape(data.n_dim, -1), data.grades[:, None], degrees, degrees > data.block_grades,
                        masks, np.where(masks, c[:, None] - c, 1.0))


class _HvSeries:
    """The stages of _hv_series, kept so that the Taylor recursion extends them a row at a time.

    Stage m <= N0 holds x^m V / m! and stage N0 + 1 + p holds x^p T^{-1} of the first series'
    sum, as columns; each but N0 + 1 is negA times the one before.  Row k reads rows <= k of U
    and of the stage before, so fill(U, hi) adds rows self.filled .. hi, with each row's products
    summed in the same order, a = 0, 1, ..., however the rows are split.  Where U_0 = 0, negA[0]
    and the rows of a stage below its order are exact zeros, neither formed nor multiplied.
    """

    def __init__(self, data: HyperbolicData, V: np.ndarray, U: np.ndarray, rows: int):
        batch = U.shape[1:] if np.shape(V) == U.shape[1:] else np.broadcast_shapes(np.shape(V), U.shape[1:])
        self.data, self.frame, self.filled, self.skip = data, _kernel_frame(data), 0, int(np.count_nonzero(U[0]) == 0)
        self.negA = np.empty((rows,) + U.shape[1:] + (data.n_dim,))
        self.stages = np.zeros((data.N0 + 1 + len(_inverse_weights(data.N0)), rows) + batch + (1,))
        self.stages[0, 0, ..., 0] = V + 0.0  # a -0.0 of V turns +0.0 in its sum with stage 1, which may be left out

    def fill(self, U: np.ndarray, hi: int) -> np.ndarray:
        """Rows self.filled .. hi of h_V(U), from rows <= hi of U (rows past its end are zero)."""
        d, f, lo, skip, negA, S = self.data, self.frame, self.filled, self.skip, self.negA, self.stages
        y0, top, weights = d.N0 + 1, min(hi + 1, U.shape[0]), _inverse_weights(d.N0)
        a0 = max(lo, skip)
        if top > a0:  # one BLAS product, exact in any order: adn[:, k, j] has at most one nonzero entry
            block = negA[a0:top].reshape((top - a0,) + U.shape[1:-1] + (d.n_dim**2,))
            np.negative(np.matmul(U[a0:top], f.adn, out=block), out=block)
        W = S[0, lo : hi + 1]
        for s in range(1, len(S)):
            prev, cur, order = S[s - 1], S[s], skip * (s - 1 if s < y0 else s - y0 - 1)  # of stage s - 1
            if s == y0:
                cur[lo : hi + 1] = W = W / f.grades
            elif not skip or hi > order:  # else rows lo .. hi of stage s are exact zeros
                for a in range(skip, min(top, hi + 1 - order)):
                    r = max(lo, a + order)
                    if a == skip:  # the rows it writes are still zero
                        np.matmul(negA[a], prev[r - a : hi + 1 - a], out=cur[r : hi + 1])
                    else:
                        cur[r : hi + 1] += negA[a] @ prev[r - a : hi + 1 - a]
                x = cur[lo : hi + 1]
                if s < y0:
                    x /= s
                    W = W + x
                elif weights[s - y0]:
                    W = W + weights[s - y0] * x
        self.filled = hi + 1
        return W[..., 0]

    def extend(self, U: np.ndarray) -> np.ndarray:
        """Coefficient m = self.filled of h_V(U), from U_0 .. U_m."""
        return self.fill(U, self.filled)[0]


def _hv_series(data: HyperbolicData, V: np.ndarray, U: np.ndarray, deg: int) -> np.ndarray:
    """h_V(U(t)) to degree deg in t: the one series kernel for h_V.

    Axis 0 of U holds the coefficients of U(t), the last axis the n(c)
    coordinates, and any axes between them batch over points; V is constant
    in t and broadcasts against the batch.  A plain vector is the degree-0
    case U[None].  With x = -ad U,

        h_V(U) = sum_k b_k x^k . T^{-1} . sum_m x^m V / m!,

    since [I + R(ad U)]^{-1} = x / (e^x - 1); both series stop at N0, past
    which the powers of ad U vanish.  Coefficient k of a product needs only
    coefficients <= k of its factors, so every product is cut at deg and
    every kept coefficient is exact; deg = 2 N0 (len(U) - 1) cuts nothing.
    """
    return _HvSeries(data, V, U, deg + 1).fill(U, deg)


@dataclass(frozen=True, eq=False)
class FlowPolynomial:
    """Integral curve U(t) = sum_m coeffs[m] t^m of h_V, exact in t, of degree <= degree_bound;
    degrees holds each point's own degree, its top coefficient above flow_exact's cut."""

    coeffs: np.ndarray
    degree_bound: int
    degrees: np.ndarray

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def eval(self, t) -> np.ndarray:
        return _poly_eval(self.coeffs, t)


def flow_exact(data: HyperbolicData, V: np.ndarray, U0: np.ndarray) -> FlowPolynomial:
    """Solve U' = h_V(U), U(0) = U0 as a polynomial in t.

    Leading axes of V / U0 batch over points, placed between the degree and
    coordinate axes of the coefficients; thresholds are judged per point.
    Coefficient m of h_V(U) reads only U_0 .. U_m, so the Taylor recursion
    U_{m+1} = [h_V(U)]_m / (m + 1) gives each coefficient exactly, extending
    one _HvSeries by one row apiece.  The bracket adds block grades and V's are
    >= 1, so coordinate j has degree <= its block grade for any U0 and the
    recursion ends at the top block grade B.  Where a new coefficient is
    within 1e-12 (1 + max|V| + max|U0|) at every point, the curve cut there
    is checked against the defining equation, and the recursion stops if it
    holds; that check, also run at B, is the only acceptance test.  The same
    cut gives each point's degree.  A coefficient above its block grade is a
    fault of the kernel and raises, as does a non-finite V or U0.
    """
    V, U0 = np.asarray(V, dtype=float), np.asarray(U0, dtype=float)
    if V.shape[-1:] != (data.n_dim,) or U0.shape[-1:] != (data.n_dim,):
        raise ValueError("V and U0 must be n(c) coordinate vectors")
    if V.shape != U0.shape:
        V, U0 = np.broadcast_arrays(V, U0)
    scale = 1.0 + np.abs(V).max(axis=-1) + np.abs(U0).max(axis=-1)
    # an inf scale would pass every cut and limit below
    raise_first(~np.isfinite(scale), lambda i: f"flow_exact: non-finite input {data.where(V[i], U0[i])}",
                InconsistencyError)
    cut, f = 1e-12 * scale[..., None], _kernel_frame(data)
    U = np.zeros((f.B + 1,) + U0.shape)
    U[0] = U0
    series = _HvSeries(data, V, U, f.B)
    for m in range(f.B):
        np.divide(series.extend(U), m + 1, out=U[m + 1])
        tiny = (np.abs(U[m + 1]) <= cut).all()
        if not tiny and m + 1 < f.B:
            continue
        Ut = U[: m + 1 if tiny else m + 2]
        # the defining equation on every coefficient of h_V(U).  With every
        # coefficient of the curve above its coordinate's block grade exactly
        # 0.0, every coefficient of h_V(U) past B - 1 is a sum of products with
        # an exact-zero factor, so the check stops there
        deg, size = Ut.shape[0] - 1, np.abs(Ut)
        above = np.where(f.above[: deg + 1, None], size.reshape(deg + 1, -1, data.n_dim), 0.0)
        if above.any():  # a fault of the kernel; per point, on axes (..., degree, coordinate)
            above = np.moveaxis(above.reshape(size.shape), 0, -2)

            def leaves(i):
                k, j = np.unravel_index(np.argmax(above[i]), above[i].shape)
                return (f"flow_exact: flow polynomial leaves the block grading {data.where(V[i], U0[i])}: |t^{k} "
                        f"coefficient| {above[i][k, j]:.3e} in coordinate {j} of block grade {data.block_grades[j]}")

            raise_first(above.any(axis=(-2, -1)), leaves, InconsistencyError)
        E = _hv_series(data, V, Ut, f.B - 1)
        E[:deg] -= _poly_deriv(Ut)[:deg]
        resid, limit = np.abs(E).max(axis=(0, -1)), TOL_STRUCT * scale
        if (resid <= limit).all():
            kept = (size > cut).any(axis=-1)
            return FlowPolynomial(Ut, f.B, (kept * f.degrees[: deg + 1].reshape((-1,) + (1,) * scale.ndim)).max(axis=0))
    raise_first(~(resid <= limit), lambda i: f"flow_exact: flow polynomial fails its defining equation "
                f"{data.where(V[i], U0[i])}: residual {resid[i]:.3e} > {limit[i]:.3e}", InconsistencyError)


@functools.cache
def _gauss_legendre(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Stage matrix A and weights b of s-stage Gauss-Legendre collocation on [0, 1].

    A[i, j] integrates the Lagrange polynomial of node j from 0 to node i.
    Gauss quadrature is exact to degree 2s - 1, so that polynomial is
    sum_k (k + 1/2) w_j P_k(x_j) P_k(x) on [-1, 1]; it is integrated in the
    Legendre basis, with no Vandermonde solve.
    """
    x, w = leggauss(s)
    ell = legvander(x, s - 1).T * (np.arange(s) + 0.5)[:, None] * w
    return legval(x, legint(ell, lbnd=-1)).T / 2, w / 2


def flow_numeric(data: HyperbolicData, V: np.ndarray, U0: np.ndarray, t) -> np.ndarray:
    """Gauss-Legendre collocation along h_V up to time t; independent of flow_exact.

    Broadcasts over leading axes of V / U0; t is a time or a sequence of
    times, which adds a leading axis of one result per time.  With s = B + 1
    stages, B the top block grade that bounds the flow's degree, a step
    reproduces any solution of degree <= s, so one step of length t and two
    of length t / 2 must agree: that gap is the self-check.  The stages are
    solved by fixed-point iteration on field values at points, batch-wide:
    the steps from U0 (each time's whole and first half step) share one field
    evaluation per iteration, the second half steps another, and each step
    settles on its own; the first iteration reads the field once per start
    point, where all its stages sit.  A failure names the first failing time.
    """
    V = np.asarray(V, dtype=float)
    U0 = np.broadcast_arrays(np.asarray(U0, dtype=float), V)[0]
    times = np.asarray(t, dtype=float)
    out = np.broadcast_to(U0, times.shape + U0.shape).copy()
    live = np.flatnonzero(times)
    if not live.size or not U0.size:
        return out
    B = _kernel_frame(data).B
    A, b = _gauss_legendre(B + 1)
    h = times.reshape(-1)[live].repeat(2) / np.tile([1.0, 2.0], live.size)  # each time's whole, then half step

    def steps(U: np.ndarray, h: np.ndarray, start: np.ndarray):
        """Steps of length h[i] from U[i], the field there start[i]: their ends, last stage gaps and limits."""
        Y, end, F = np.repeat(U[:, None], len(b), axis=1), U.copy(), np.repeat(start[:, None], len(b), axis=1)
        gap, tol, todo = np.full(len(h), np.inf), np.zeros(len(h)), np.arange(len(h))
        for it in range(B + 3):  # todo holds the steps not yet settled
            Yk, Uk, hk = Y[todo], U[todo], h[todo].reshape((-1,) + (1,) * (Y.ndim - 1))
            # one stacked product per item: bit for bit the per-step A F, which a tensordot over the stack is not
            F = (_hv_series(data, V, Yk[None], 0)[0] if it else F).reshape(todo.size, len(b), -1)
            Y[todo] = Yn = Uk[:, None] + hk * np.matmul(A, F).reshape(Yk.shape)
            gap[todo] = g = np.abs(Yn - Yk).reshape(todo.size, -1).max(axis=1)
            tol[todo] = t = 1e-13 * (1.0 + np.abs(Yn).reshape(todo.size, -1).max(axis=1))
            done = g <= t
            if done.any():
                end[todo[done]] = Uk[done] + hk[done, 0] * np.matmul(b, F[done]).reshape((-1,) + U.shape[1:])
            todo = todo[~done]
            if not todo.size:
                break
        return end, gap, tol

    field = np.broadcast_to(_hv_series(data, V, U0[None], 0)[0], h.shape + U0.shape)
    first, gap1, tol1 = steps(np.broadcast_to(U0, h.shape + U0.shape), h, field)
    fine, gap2, tol2 = steps(first[1::2], h[1::2], _hv_series(data, V, first[1::2][None], 0)[0])
    gaps, tols = np.stack([gap1[0::2], gap1[1::2], gap2]), np.stack([tol1[0::2], tol1[1::2], tol2])
    halving = np.abs(fine - first[0::2]).reshape(live.size, -1).max(axis=1)
    limit = 1e-9 * (1.0 + np.abs(fine).reshape(live.size, -1).max(axis=1))
    for j in np.flatnonzero(~(gaps <= tols).all(axis=0) | ~(halving < limit))[:1]:  # the first failing time
        q = int(np.argmin(gaps[:, j] <= tols[:, j]))  # the first of the time's steps that did not settle, if any
        if not gaps[q, j] <= tols[q, j]:
            raise DecompositionError(f"flow_numeric: collocation stages failed to settle {data.where(V, U0)}, "
                                     f"t = {h[2 * j]:g}: stage gap {gaps[q, j]:.3e} > {tols[q, j]:.3e}")
        raise DecompositionError(f"flow_numeric: collocation self-check failed {data.where(V, U0)}, "
                                 f"t = {h[2 * j]:g}: step-halving gap {halving[j]:.3e} >= {limit[j]:.3e}")
    out.reshape((-1,) + U0.shape)[live] = fine
    return out


def commute_residual(data: HyperbolicData, V: np.ndarray, W: np.ndarray) -> float:
    """||e^{h_V} e^{h_W}(0) - e^{h_W} e^{h_V}(0)|| via the exact flows.

    Leading axes of V / W batch over pairs; the result is their max (0 if none).
    The flows from 0 are taken once per distinct row (by its bytes) of V and W and gathered.
    """
    V, W = np.broadcast_arrays(np.asarray(V, float), np.asarray(W, float))
    rows = np.stack([V, W]).reshape((-1,) + V.shape[-1:])
    key = rows.view(f"V{rows.itemsize * rows.shape[-1]}")[:, 0]  # each row's bytes as one item
    _, first, at = np.unique(key, return_index=True, return_inverse=True)
    rows, at = rows[first], at.reshape((2,) + V.shape[:-1])
    ends = flow_exact(data, rows, np.zeros(rows.shape)).eval(1.0)
    a = flow_exact(data, V, ends[at[1]]).eval(1.0)
    b = flow_exact(data, W, ends[at[0]]).eval(1.0)
    return float(np.max(np.linalg.norm(a - b, axis=-1), initial=0.0))


def exp_H(data: HyperbolicData, V: np.ndarray) -> GroupElement:
    """Flow the fiber field for unit time from the group identity.

    V -> exp(H_V) e_N is the global fiber chart; the returned element lies in
    N(c).  Leading axes of V batch over points, like flow_exact.
    """
    V = np.asarray(V, dtype=float)
    U1 = flow_exact(data, V, np.zeros(V.shape)).eval(1.0)
    return GroupElement(exp_series(data.n_matrix_of(U1), data.algebra.d))


def invert_exp_H(data: HyperbolicData, g) -> np.ndarray:
    """Recover V from g = exp_H(V) in closed form, with no flow solved.

    The chart is affine on the orbit, Ad(exp_H(V)) c = c - V: N(c) acts
    simply transitively on c + n(c) (Kostant), and in this matrix model N(c)
    is the group I + n(c).  So g is checked once for g - I in n(c), and V is
    read off c - Ad(g) c, which then lies in n(c) exactly.  g - I lies in
    n(c) when it equals the element of its own n(c) coordinates.  Leading
    axes of g batch over points, each judged on its own.
    """
    M = _as_matrix(g)
    D = M - np.eye(M.shape[-1])
    v = data.n_coords_of(D)
    outside = np.abs(D - data.n_matrix_of(v)).max(axis=(-2, -1))
    bad = ~(outside <= 1e-8 * np.maximum(1.0, np.abs(v).max(axis=-1)))  # a NaN is outside too
    raise_first(bad, lambda i: f"invert_exp_H: input does not lie in N(c) = I + n(c): component outside n(c) "
                f"({outside[i]:.2e})", ValueError)
    return data.n_coords_of(data.c - M @ data.c @ np.linalg.inv(M))


def linear_chart(data: HyperbolicData, V: np.ndarray) -> GroupElement:
    """exp_H(V) with no flow: the n in I + n(c) with n c = (c - V) n (Kostant).

    With n = I + N this is the Sylvester equation (c - V) N - N c = V.  c is
    diagonal and V raises the block grade, so back substitution over the
    block grades 1 ... B solves it (Bartels & Stewart, CACM 15, 1972): on a
    grade, N_ij = (V + V N)_ij / (c_i - c_j) = (V n)_ij / (c_i - c_j), and
    V n reads only lower grades.  Each grade's entries and denominators are
    built once per data (_kernel_frame).  Leading axes of V batch over
    points; each point's residual is judged against the scale of its terms.
    """
    V = np.asarray(V, dtype=float)
    Vm, c, f = data.n_matrix_of(V), np.diagonal(data.c), _kernel_frame(data)
    n = np.eye(data.algebra.d) + np.zeros(Vm.shape)
    for mask, den in zip(f.masks, f.dens):
        n = n + np.where(mask, Vm @ n / den, 0.0)
    resid = np.max(np.abs(n @ data.c - (data.c - Vm) @ n), axis=(-2, -1))
    limit = TOL_DECOMP * np.max(np.abs(n), axis=(-2, -1)) * (np.max(np.abs(c)) + np.max(np.abs(V), axis=-1))
    raise_first(
        ~(resid <= limit),
        lambda i: f"linear_chart: n c = (c - V) n fails {data.where(V[i])}: residual {resid[i]:.3e} > {limit[i]:.3e}",
    )
    return GroupElement(n)
