"""The cotangent-bundle model over the compact flag and the orbit map.

Points of T*(G/P(c)) are carried as pairs (k, V): k in K fixes the base coset
and V in n(c) encodes the fiber covector eta_V = -B(V, .).  The orbit map is

    phi(k, V) = k . exp_H(V) . e_bar,

and its differentials are taken by central finite differences so the
verification stays independent of the construction.

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

import numpy as np
import scipy.linalg

from .kkform import OrbitPoint, kk_gram, orbit_point, upper_max
from .liecore import (
    TOL_DECOMP,
    ConfigurationError,
    DecompositionError,
    GroupElement,
    cartan_split,
    in_K_residual,
    kp_decompose,
    random_in_K,
)
from .flows import exp_H
from .parabolic import HyperbolicData


@dataclass(frozen=True, eq=False)
class CotangentPoint:
    k: np.ndarray
    V: np.ndarray  # n(c)-coordinates of the B-dual of the covector


@dataclass(frozen=True, eq=False)
class CotangentTangent:
    """Tangent of the curve t -> (k exp(t Y), V + t delta)."""

    Y: np.ndarray      # direction in k
    delta: np.ndarray  # n(c)-coordinates


@dataclass(frozen=True, eq=False)
class BaseCoset:
    k: np.ndarray


def cotangent_point(data: HyperbolicData, k, V) -> CotangentPoint:
    kmat = k.matrix if isinstance(k, GroupElement) else np.asarray(k, dtype=float)
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
    """Bundle projection G/Z(c) -> G/P(c) = K/Z_K(c), canonical K representative."""
    k, _ = kp_decompose(data.algebra, pt.g, data.p_filtration_coords)
    return BaseCoset(k.matrix)


def coset_gap(data: HyperbolicData, k1: np.ndarray, k2: np.ndarray) -> float:
    """Distance of k1 Z_K(c) and k2 Z_K(c): how far Ad(k1^-1 k2) moves c."""
    m = k1.T @ k2  # k1 in K, so the transpose is the inverse
    gap = float(np.max(np.abs(m @ data.c @ m.T - data.c)))
    return max(gap, in_K_residual(data.algebra, m))


def tautological_form(data: HyperbolicData, pt: CotangentPoint, W: CotangentTangent) -> float:
    """eta(d(base) W) = -B(V, Y); vertical directions are annihilated."""
    algebra = data.algebra
    Vm = data.n_matrix_of(pt.V)
    return -float(algebra.coords(Vm) @ algebra.killing_matrix @ algebra.coords(W.Y))


def liouville_gram(
    data: HyperbolicData, pt: CotangentPoint, Ys: np.ndarray, deltas: np.ndarray
) -> np.ndarray:
    """sigma(W_i, W_j) for the tangents W_i = (Ys[i], deltas[i]) of the (k, V) chart.

    With D and Y the coordinate rows of the fiber and base parts,
    sigma = D K Y^T - Y K D^T - B(V, [Y_i, Y_j]); see the frozen conventions above.
    """
    algebra = data.algebra
    Y = algebra.coords(Ys)
    DKY = algebra.coords(data.n_matrix_of(deltas)) @ algebra.killing_matrix @ Y.T
    return DKY - DKY.T - kk_gram(algebra, algebra.coords(data.n_matrix_of(pt.V)), Y)


def liouville_eval(
    data: HyperbolicData, pt: CotangentPoint, W1: CotangentTangent, W2: CotangentTangent
) -> float:
    """Liouville form in the (k, V) chart: the one-pair case of liouville_gram."""
    return float(liouville_gram(data, pt, np.stack([W1.Y, W2.Y]), np.stack([W1.delta, W2.delta]))[0, 1])


def horizontal_basis(data: HyperbolicData) -> np.ndarray:
    """Directions V_j + theta(V_j) in k, complementary to the stabilizer part."""
    mats = []
    for V in data.n_basis:
        mats.append(V + data.algebra.theta(V))
    return np.stack(mats)


def _chart_sigma(data: HyperbolicData, pt: CotangentPoint, Ys: np.ndarray) -> np.ndarray:
    """sigma on the chart frame: horizontal (Ys[i], 0), then vertical (0, e_b)."""
    n, d = data.n_dim, data.algebra.d
    return liouville_gram(
        data, pt, np.concatenate([Ys, np.zeros((n, d, d))]), np.concatenate([np.zeros((n, n)), np.eye(n)])
    )


def liouville_fd_gap(data: HyperbolicData, pt: CotangentPoint, step: float = 1e-5) -> float:
    """Compare liouville_gram with the FD exterior derivative of tau.

    The chart u = (y, v) -> (k0 exp(y_1 Y_1) ... exp(y_n Y_n), V0 + v) is a
    local parametrization; coordinate tangents are computed in closed form
    and d tau by second-order central differences of the chart components.
    The frozen orientation is sigma = -d tau.
    """
    algebra = data.algebra
    Ys = horizontal_basis(data)
    n = data.n_dim
    dimu = 2 * n
    K = algebra.killing_matrix

    def tau_components(u: np.ndarray) -> np.ndarray:
        y, v = u[:n], u[n:]
        # suffix products S_i = exp(y_{i+1} Y_{i+1}) ... exp(y_n Y_n)
        suffix = [np.eye(algebra.d)]
        for j in range(n - 1, -1, -1):
            suffix.append(scipy.linalg.expm(y[j] * Ys[j]) @ suffix[-1])
        suffix.reverse()  # suffix[i] = prod_{j >= i} exp(y_j Y_j); suffix[n] = I
        Vm = data.n_matrix_of(pt.V + v)
        vc = algebra.coords(Vm)
        comps = np.zeros(dimu)
        for i in range(n):
            S = suffix[i + 1]
            Yt = np.linalg.solve(S, Ys[i] @ S)  # Ad(S^-1) Y_i
            comps[i] = -float(vc @ K @ algebra.coords(Yt))
        return comps  # fiber components of tau vanish identically

    u0 = np.zeros(dimu)
    dtau = np.zeros((dimu, dimu))
    for i in range(dimu):
        e = np.eye(dimu)[i] * step
        tp = tau_components(u0 + e)
        tm = tau_components(u0 - e)
        dtau[i] = (tp - tm) / (2 * step)  # dtau[i, j] = d_i tau_j
    # sigma = -d tau on the chart tangents at u0
    return upper_max(_chart_sigma(data, pt, Ys) + (dtau - dtau.T))


def _orbit_w(data: HyperbolicData, g: np.ndarray) -> np.ndarray:
    return g @ data.c @ np.linalg.inv(g)


def _fd_error(data: HyperbolicData, pt: CotangentPoint, what: str, j: int, value: str) -> DecompositionError:
    """A pullback FD failure, naming the chamber, max|V| and direction j of the chart frame."""
    n = data.n_dim
    direction = f"horizontal direction {j}" if j < n else f"fiber direction {j - n}"
    chamber = tuple(str(e) for e in data.c_entries)
    return DecompositionError(
        f"pullback_residual: {what} at c = {chamber}, max|V| = {np.max(np.abs(pt.V)):.3e}, {direction}: {value}"
    )


def pullback_residual(data: HyperbolicData, pt: CotangentPoint, step: float = 1e-5) -> float:
    """max |phi* Omega - sigma| over a frame of 2 dim n(c) tangent directions.

    phi is differentiated along the chart curves by central differences at
    steps h and h/2, Richardson-extrapolated; the 4 dim n(c) perturbed fiber
    points go through one batched exp_H.  The orbit tangents are re-expressed
    through representatives by solving [X, w] = w-dot, and both Gram matrices
    are assembled.
    """
    algebra = data.algebra
    n = data.n_dim
    Ys = horizontal_basis(data)
    nV = exp_H(data, pt.V).matrix
    g0 = pt.k @ nV
    pt0 = orbit_point(algebra, data.c, g0, validate=False)
    scale = float(np.max(np.abs(pt0.w)))
    tol = 1e-5 * max(1.0, scale)

    s = step * np.array([1.0, -1.0, 0.5, -0.5])
    horizontal = [[pt.k @ scipy.linalg.expm(si * Y) @ nV for si in s] for Y in Ys]
    fiber = pt.k @ exp_H(data, pt.V + s[:, None, None] * np.eye(n)).matrix.swapaxes(0, 1)
    w = _orbit_w(data, np.concatenate([np.array(horizontal), fiber]))
    d1 = (w[:, 0] - w[:, 1]) / (2 * step)
    d2 = (w[:, 2] - w[:, 3]) / step  # half step
    gaps = np.max(np.abs(d1 - d2), axis=(1, 2))
    if np.any(gaps > tol):
        j = int(np.argmax(gaps > tol))
        raise _fd_error(data, pt, "finite-difference step adaptation failed", j,
                        f"step-halving gap {gaps[j]:.3e} > {tol:.3e}")
    tangents = (4.0 * d2 - d1) / 3.0

    # representative rows: solve [X, w0] = dw, i.e. -ad(w0) x = dw in coordinates
    M = -algebra.ad_coord(pt0.w_coords)
    dwc = algebra.coords(tangents)
    reps = dwc @ np.linalg.pinv(M, rcond=1e-10).T
    resid = np.max(np.abs(reps @ M.T - dwc), axis=1)
    if np.any(resid > tol):
        j = int(np.argmax(resid > tol))
        raise _fd_error(data, pt, "orbit tangent fell outside the orbit (FD breakdown)", j,
                        f"representative residual {resid[j]:.3e} > {tol:.3e}")
    return upper_max(kk_gram(algebra, pt0.w_coords, reps) - _chart_sigma(data, pt, Ys))


def section_lagrangian_check(
    data: HyperbolicData, rng: np.random.Generator, samples: int = 10
) -> float:
    """max |Omega| on pushforwards of k-directions at random zero-section points.

    Zero-section tangents have exact representatives Ad(k) Y, so no finite
    differences are needed here.
    """
    algebra = data.algebra
    split = cartan_split(algebra)
    worst = 0.0
    for _ in range(samples):
        k = random_in_K(algebra, rng).matrix
        pt = orbit_point(algebra, data.c, k, validate=False)
        dirs = algebra.coords(k @ split.k_basis @ k.T)
        worst = max(worst, upper_max(kk_gram(algebra, pt.w_coords, dirs)))
    return worst
