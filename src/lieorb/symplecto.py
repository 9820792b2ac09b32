"""The cotangent-bundle model over the compact flag and the orbit map.

Points of T*(G/P(c)) are carried as pairs (k, V): k in K fixes the base coset
and V in n(c) encodes the fiber covector eta_V = -B(V, .).  The orbit map is

    phi(k, V) = k . exp_H(V) . e_bar,

Since Ad(exp_H(V)) c = c - V (N(c) acts simply transitively on c + n(c),
Kostant), its differentials have exact representatives (see
pullback_residual), and the same affine identity witnesses them: along a
fiber direction w moves by a constant, and along a horizontal one a central
difference at the chart step STEP conjugates w by exp(+-STEP Y_i), with no
point re-solved and no element inverted.  liouville_fd_gap checks
sigma = -d tau by finite differences.  Both checks take batches of points.
What they read of the chart frame depends on the chamber alone (chart_frame:
the Y_i, exp(+-STEP Y_i), the matrices of B(., Y_j) and sigma's base-fiber
pairing) and is built once per HyperbolicData; per point they compute
exp_H(V), phi(k, V) and its tangents, and pullback_residual returns
phi(k, V) with its residual.  Every form is evaluated on the matrices the
checks hold (kkform.kk_gram, kkform.form_matrix); the structure-constant
route of the Gram is a reference in tests/oracles.py.

Frozen sign conventions (fixed once on sl(2, R), asserted everywhere):
  * eta_V = -B(V, .)
  * tautological one-form  tau(Y, delta) = eta_V(Y mod P) = -B(V, Y)
  * Liouville form oriented as sigma = -d tau, i.e.

        sigma(W1, W2) = d_eta2(Y1) - d_eta1(Y2) + eta([Y1, Y2])
                      = B(d1, Y2) - B(d2, Y1) - B(V, [Y1, Y2]),

    which is the orientation that matches the pullback of the orbit form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kkform import OrbitPoint, form_matrix, frobenius, kk_gram, orbit_point, upper_max
from .liecore import (
    TOL_DECOMP,
    CartanSplit,
    ConfigurationError,
    _as_matrix,
    expm,
    in_K_residual,
    iwasawa_decompose,
    per_instance,
    raise_first,
    random_in_K,
)
from .flows import exp_H, linear_chart
from .parabolic import HyperbolicData

STEP = 1e-5  # central-difference step of the chart coordinates


@dataclass(frozen=True, eq=False)
class CotangentPoint:
    """A point (k, V), or a batch of them along leading axes of k and V."""

    k: np.ndarray
    V: np.ndarray  # n(c)-coordinates of the B-dual of the covector


@dataclass(frozen=True, eq=False)
class BaseCoset:
    k: np.ndarray


def cotangent_point(data: HyperbolicData, k, V) -> CotangentPoint:
    kmat = _as_matrix(k)
    r = in_K_residual(data.algebra, kmat)
    if r > TOL_DECOMP:
        raise ConfigurationError(f"base representative is not in K (residual {r:.2e})")
    return CotangentPoint(kmat, np.asarray(V, dtype=float))


def phi_lambda(data: HyperbolicData, pt: CotangentPoint, validate: bool = True) -> OrbitPoint:
    """phi(k, V) = k exp_H(V) e_bar as an orbit point."""
    if in_K_residual(data.algebra, pt.k) > TOL_DECOMP:
        raise ConfigurationError("base representative is not in K")
    g = pt.k @ exp_H(data, pt.V).matrix
    return orbit_point(data.algebra, data.c, g, validate=validate)


def project_pi(data: HyperbolicData, pt: OrbitPoint) -> BaseCoset:
    """Bundle projection G/Z(c) -> G/P(c) = K/Z_K(c): the K factor of g = k a n, batched over pt.g.

    a n is in P(c), block upper triangular for the chamber-sorted c: n is QR's triu R over its
    positive diagonal, so exactly upper unitriangular, and a is a positive diagonal in Z(c).
    """
    k, _, _ = iwasawa_decompose(data.algebra, pt.g)
    return BaseCoset(k.matrix)


def coset_gap(data: HyperbolicData, k1: np.ndarray, k2: np.ndarray) -> float:
    """Distance of k1 Z_K(c) and k2 Z_K(c): how far Ad(k1^-1 k2) moves c; max over a batch."""
    m = k1.mT @ k2  # k1 in K, so the transpose is the inverse
    gap = float(np.max(np.abs(m @ data.c @ m.mT - data.c)))
    return max(gap, in_K_residual(data.algebra, m))


def horizontal_basis(data: HyperbolicData) -> np.ndarray:
    """Directions V_j + theta(V_j) in k, complementary to the stabilizer part."""
    return data.n_basis + data.algebra.theta(data.n_basis)


class ChartFrame(NamedTuple):
    """The chart frame of a chamber, horizontal (Ys[i], 0) then vertical (0, e_b), and what no point enters."""

    Ys: np.ndarray  # horizontal directions V_i + theta(V_i)
    E: np.ndarray  # [+-, i]: exp(+-STEP Y_i); E[::-1] holds their inverses
    duals: np.ndarray  # [j]: the matrix of B(., Y_j), B(Z, Y_j) = frobenius(Z, duals)[j]
    pairing: np.ndarray  # sigma's base-fiber part: [n + b, j] = B(V_b, Y_j) = -[j, n + b], else 0


@per_instance
def chart_frame(data: HyperbolicData) -> ChartFrame:
    """The point-independent parts of pullback_residual and liouville_fd_gap, built once per data."""
    Ys = horizontal_basis(data)
    E = expm(STEP * np.array([1.0, -1.0])[:, None, None, None] * Ys)
    duals = form_matrix(data.algebra, Ys)
    P, zero = frobenius(data.n_basis, duals), np.zeros((data.n_dim, data.n_dim))
    return ChartFrame(Ys, E, duals, np.block([[zero, -P.T], [P, zero]]))


def _chart_sigma(data: HyperbolicData, pt: CotangentPoint) -> np.ndarray:
    """sigma on the chart frame at the points pt: the frame's pairing - B(V, [Y_i, Y_j])."""
    frame, n = chart_frame(data), data.n_dim
    sigma = frame.pairing + np.zeros(np.shape(pt.V)[:-1] + frame.pairing.shape)
    sigma[..., :n, :n] -= kk_gram(data.algebra, data.n_matrix_of(pt.V), frame.Ys)
    return sigma


def liouville_fd_gap(data: HyperbolicData, pt: CotangentPoint) -> float:
    """Compare sigma on the chart frame with the FD exterior derivative of tau; max over a batch.

    The chart u = (y, v) -> (k0 exp(y_1 Y_1) ... exp(y_n Y_n), V0 + v) is a
    local parametrization on which tau_j(u) = -B(V0 + v, Ad(S_{j+1})^-1 Y_j),
    S_j = exp(y_j Y_j) ... exp(y_n Y_n), with no fiber components.  d tau is
    taken by second-order central differences at u = +-h e_i, where only
    exp(+-h Y_i) differs from I: tau_j = -B(V0, Ad(exp(+-h Y_i))^-1 Y_j) for
    j < i < n, -B(V0 +- h e_{i-n}, Y_j) for i >= n, and -B(V0, Y_j) otherwise.
    The first is -B(Ad(exp(+-h Y_i)) V0, Y_j), with exp(-+h Y_i) as the inverse:
    point matrices against the chamber's B(., Y_j) (chart_frame), nothing inverted.
    The frozen orientation is sigma = -d tau.
    """
    frame, n, s = chart_frame(data), data.n_dim, STEP * np.array([1.0, -1.0])
    V = data.n_matrix_of(pt.V)[..., None, None, :, :]
    moved = frame.E @ V @ frame.E[::-1]  # [..., +-, i]: Ad(exp(+-h Y_i)) V0
    fiber = data.n_matrix_of(pt.V[..., None, None, :] + s[:, None, None] * np.eye(n))  # [..., +-, b]: V0 +- h e_b
    tau = np.zeros(np.shape(pt.V)[:-1] + (2, 2 * n, 2 * n))  # [..., +-, direction, component]
    tau[..., :n, :n] = np.where(np.tri(n, k=-1, dtype=bool), -frobenius(moved, frame.duals), -frobenius(V, frame.duals))
    tau[..., n:, :n] = -frobenius(fiber, frame.duals)
    dtau = (tau[..., 0, :, :] - tau[..., 1, :, :]) / (2 * STEP)  # dtau[..., i, j] = d_i tau_j
    # sigma = -d tau on the chart tangents at u = 0
    return upper_max(_chart_sigma(data, pt) + (dtau - np.swapaxes(dtau, -1, -2)))


def pullback_residual(data: HyperbolicData, pt: CotangentPoint) -> tuple[float, OrbitPoint]:
    """max |phi* Omega - sigma| over a frame of 2 dim n(c) tangent directions and a batch, and phi(pt).

    The orbit tangents have exact representatives X, [X, w] = w-dot, at
    w = phi(k, V) = Ad(k n) c with n = exp_H(V): X_i = Ad(k) Y_i along the
    horizontal directions and X_b = Ad(k n) T^{-1} Ad(n)^{-1} V_b along
    fiber direction b.  So phi* Omega is kk_gram(w, X).  The witness
    compares [X, w] with the tangents of w, which the affine identity
    Ad(n) c = c - V gives by another route.  The identity holds for
    linear_chart(V) by construction, and n must match it to
    TOL_DECOMP max|n| (the tie gate), which certifies it for n: so along e_b
    w moves by exactly -Ad(k) V_b.  Along Y_i, w(+-STEP) = A+- w A-+ with
    A+- = k exp(+-STEP Y_i) k^T from the chamber's factors (chart_frame), one
    central difference that inverts nothing.  Each tangent must match within
    1e-5 max(1, |w|).  Per point it computes n, the orbit point and X, and
    returns that orbit point phi(k, V), unvalidated, with the residual.
    """
    algebra, frame = data.algebra, chart_frame(data)
    nV = exp_H(data, pt.V).matrix
    tie = np.max(np.abs(nV - linear_chart(data, pt.V).matrix), axis=(-2, -1))
    limit = TOL_DECOMP * np.max(np.abs(nV), axis=(-2, -1))
    raise_first(
        tie > limit,
        lambda i: f"pullback_residual: exp_H(V) leaves the linear chart {data.where(pt.V[i])}: "
        f"gap {tie[i]:.3e} > {limit[i]:.3e}",
    )
    pt0 = orbit_point(algebra, data.c, pt.k @ nV, validate=False)
    k, nV, w = pt.k[..., None, :, :], nV[..., None, :, :], pt0.w[..., None, :, :]
    n_inv = np.linalg.inv(nV)
    fiber_reps = data.n_matrix_of(data.n_coords_of(n_inv @ data.n_basis @ nV) / data.grades)
    X = np.concatenate([k @ frame.Ys @ k.mT, k @ nV @ fiber_reps @ n_inv @ k.mT], axis=-3)

    # horizontal: w(+-STEP) = A+- w A-+ with A+- = k exp(+-STEP Y_i) k^T; fiber: exactly -Ad(k) V_b
    Ap, Am = np.moveaxis(k[..., None, :, :] @ frame.E @ k[..., None, :, :].mT, -4, 0)
    tangents = np.concatenate([(Ap @ w @ Am - Am @ w @ Ap) / (2 * STEP), -(k @ data.n_basis @ k.mT)], axis=-3)
    gaps = np.max(np.abs(tangents - (X @ w - w @ X)), axis=(-2, -1))
    tol = 1e-5 * np.maximum(1.0, np.max(np.abs(pt0.w), axis=(-2, -1)))
    over = gaps > tol[..., None]

    def missed(p):
        j = int(np.argmax(over[p]))  # the point's first frame direction over tol
        direction = f"horizontal direction {j}" if j < data.n_dim else f"fiber direction {j - data.n_dim}"
        return (f"pullback_residual: tangent witness disagrees with the exact orbit tangent {data.where(pt.V[p])}, "
                f"{direction}: tangent gap {gaps[p][j]:.3e} > {tol[p]:.3e}")

    raise_first(over.any(axis=-1), missed)
    return upper_max(kk_gram(algebra, pt0.w, X) - _chart_sigma(data, pt)), pt0


def section_lagrangian_check(
    data: HyperbolicData, split: CartanSplit, rng: np.random.Generator, samples: int = 10
) -> float:
    """max |Omega| on pushforwards of k-directions at random zero-section points.

    Zero-section tangents have exact representatives Ad(k) Y, so no finite
    differences are needed here.
    """
    algebra = data.algebra
    k = random_in_K(algebra, rng, (samples,)).matrix
    pt = orbit_point(algebra, data.c, k, validate=False)
    dirs = k[:, None] @ split.k_basis @ k.mT[:, None]
    return upper_max(kk_gram(algebra, pt.w, dirs))
