"""Orbit points, the Kostant-Kirillov two-form, and the exactness criterion.

Tangent vectors to the orbit at w = Ad(g)c are kept together with a
representative X (the tangent value is [X, w]), and the two-form is always
evaluated on representatives as B(w, [X, Y]).  Whole Gram matrices of the
form are read on the matrices (kk_gram): B(w, .) is one d x d matrix W, and
B(w, [X_i, Y_j]) = tr([W^T, X_i] Y_j); the structure-constant route is a
reference in tests/oracles.py.  kk_eval stays the scalar route.  On
realified complex algebras the real and imaginary parts of the holomorphic
form are recovered through the complex structure J:

    Re Omega = B_R(w, [X, Y]) / 2,      Im Omega = -B_R(w, [J X, Y]) / 2.

Exactness of Re/Im Omega is decided only through the two equivalent criteria
(spectrum of ad(c); vanishing of the restricted form on the compact orbit);
no primitive one-form is ever constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .liecore import (
    TOL_DECOMP,
    TOL_STRUCT,
    CartanSplit,
    ConfigurationError,
    InconsistencyError,
    MatrixLieAlgebra,
    _as_matrix,
    extract_complex,
    raise_first,
)
from .parabolic import HyperbolicData


@dataclass(frozen=True, eq=False)
class OrbitPoint:
    g: np.ndarray
    w: np.ndarray
    w_coords: np.ndarray


def orbit_point(
    algebra: MatrixLieAlgebra, c: np.ndarray, g, validate: bool = True
) -> OrbitPoint:
    """w = Ad(g) c for the diagonal c, over leading batch axes of g.

    validate checks that w keeps the spectrum of c: c's diagonal entries,
    each twice on the realified family (as z and its conjugate).  Both
    spectra are sorted along the generic direction e^{-i/2} of C, where
    neither a real nor an imaginary spectrum ties under rounding.
    """
    G = _as_matrix(g)
    try:
        w = G @ c @ np.linalg.inv(G)
    except np.linalg.LinAlgError:  # det runs inv's LU, so it is exactly 0 where inv met a zero pivot
        raise_first(np.linalg.det(G) == 0, lambda i: f"orbit_point: g is singular, max|g| = {abs(G[i]).max():.3e}")
        raise
    if validate:
        z = np.diagonal(extract_complex(c) if algebra.is_complex else c)
        ev_c = np.concatenate([z, np.conj(z)]) if algebra.is_complex else z
        ev_c = ev_c[np.argsort((ev_c * np.exp(0.5j)).real)]
        ev_w = np.linalg.eigvals(w)
        ev_w = np.take_along_axis(ev_w, np.argsort((ev_w * np.exp(0.5j)).real, axis=-1), axis=-1)
        gap, limit = np.abs(ev_c - ev_w), TOL_DECOMP * max(1.0, float(np.max(np.abs(ev_c)))) * 10
        if np.max(gap) > limit:
            gap = np.max(gap, axis=-1)
            raise_first(gap > limit, lambda i: f"orbit_point: conjugate has a different spectrum: eigenvalue gap "
                        f"{gap[i]:.3e} > {limit:.3e}, max|g| = {np.max(np.abs(G[i])):.3e}", InconsistencyError)
    return OrbitPoint(G, w, algebra.coords(w))


def kk_eval(algebra: MatrixLieAlgebra, pt: OrbitPoint, X: np.ndarray, Y: np.ndarray):
    """Omega at pt on the tangents represented by X and Y, B(w, [X, Y]); per item over leading batch axes."""
    bx = algebra.coords(algebra.bracket(X, Y))[..., :, None]
    return (pt.w_coords[..., None, :] @ algebra.killing_matrix @ bx)[..., 0, 0]


def form_matrix(algebra: MatrixLieAlgebra, w_coords: np.ndarray) -> np.ndarray:
    """The d x d matrix W of B(w, .), B(w, Z) = frobenius(W, Z) for Z in the algebra; per point of leading axes."""
    w = np.asarray(w_coords, dtype=float)[..., :, None]
    return (algebra.killing_dual @ w).reshape(w.shape[:-2] + (algebra.d, algebra.d))


def frobenius(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum_ab A_i[a, b] B_j[a, b] for stacks of matrices A_i and B_j; leading axes broadcast, one product a point."""
    return A.reshape(A.shape[:-2] + (-1,)) @ np.swapaxes(B.reshape(B.shape[:-2] + (-1,)), -1, -2)


def kk_gram(algebra: MatrixLieAlgebra, w_coords: np.ndarray, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """B(w, [X_i, Y_j]) = tr([W^T, X_i] Y_j), W = form_matrix(w), for stacks of matrices X and Y (default X).
    Leading axes of w_coords batch over points against those of X / Y; every product is one point's, so a
    batch equals its per-point calls bit for bit."""
    W, Xt = form_matrix(algebra, w_coords)[..., None, :, :], np.swapaxes(X, -1, -2)
    return frobenius(Xt @ W - W @ Xt, X if Y is None else Y)  # [W^T, X_i]^T against Y_j


def upper_max(M: np.ndarray) -> float:
    """max |M_ij| over i < j and any leading batch axes; 0 when there is no such pair."""
    i, j = np.triu_indices(M.shape[-1], 1)
    return float(np.max(np.abs(M[..., i, j]), initial=0.0))


def closedness_check(
    algebra: MatrixLieAlgebra, pt: OrbitPoint, X: np.ndarray, Y: np.ndarray, Z: np.ndarray
) -> float:
    """|B(w, [[X,Y],Z]) + B(w, [[Y,Z],X]) + B(w, [[Z,X],Y])|, over leading batch axes as in kk_eval."""
    return np.abs(sum(kk_eval(algebra, pt, algebra.bracket(P, Q), R) for P, Q, R in ((X, Y, Z), (Y, Z, X), (Z, X, Y))))


def _omega_svals(data: HyperbolicData, pt: OrbitPoint) -> np.ndarray:
    """Singular values of Omega on Ad(g) of the theta-n + n directions, a basis of g/z(w)."""
    algebra = data.algebra
    dirs = pt.g @ np.concatenate([algebra.theta(data.n_basis), data.n_basis]) @ np.linalg.inv(pt.g)
    return np.linalg.svd(kk_gram(algebra, pt.w_coords, dirs), compute_uv=False)


def nondegeneracy_check(data: HyperbolicData) -> float:
    """Smallest singular value of Omega on a basis of g/z(w) at the base point c."""
    pt = orbit_point(data.algebra, data.c, np.eye(data.algebra.d), validate=False)
    return float(_omega_svals(data, pt)[-1])


def fiber_isotropy_check(data: HyperbolicData, g=None) -> float:
    """max |Omega| over the fiber directions; at the base fiber when g is None, and over a batch of g."""
    algebra = data.algebra
    pt = orbit_point(algebra, data.c, np.eye(algebra.d) if g is None else g, validate=False)
    dirs = pt.g[..., None, :, :] @ data.n_basis @ np.linalg.inv(pt.g)[..., None, :, :]
    return upper_max(kk_gram(algebra, pt.w_coords, dirs))


def k_orbit_lagrangian_check(algebra: MatrixLieAlgebra, split: CartanSplit, c: np.ndarray) -> list[float]:
    """max |form(X, Y)| over k-basis pairs at the base point of the orbit of c, one per form.

    The forms are Omega on a real form, and Re Omega and Im Omega, the real
    and imaginary parts of the holomorphic form, on a realified algebra.
    Together with the half-dimension count this certifies (or refutes) the
    Lagrangian property of the compact orbit.
    """
    Y, w = split.k_basis, algebra.coords(c)
    if not algebra.is_complex:
        return [upper_max(kk_gram(algebra, w, Y))]
    return [upper_max(0.5 * kk_gram(algebra, w, Y)), upper_max(-0.5 * kk_gram(algebra, w, algebra.J @ Y, Y))]


def exactness_verdict(
    algebra: MatrixLieAlgebra, split: CartanSplit, c_entries: Sequence
) -> dict:
    """Decide exactness of Re/Im Omega on the orbit of diag(c_entries).

    The spectral test (eigenvalues of ad(c) real / purely imaginary) is
    cross-checked against the vanishing of the restricted form on the compact
    orbit; disagreement is a hard failure.
    """
    if not algebra.is_complex:
        raise ConfigurationError("exactness verdict applies to realified complex orbits")
    c = algebra.element_from_entries(c_entries)  # checks the size and the trace
    cscale = max(abs(complex(e)) for e in c_entries)
    if cscale == 0:
        raise ConfigurationError("c must be nonzero")
    ev = np.linalg.eigvals(algebra.ad_matrix_of(c))
    scale = max(1.0, float(np.max(np.abs(ev))))
    re_spec = bool(np.max(np.abs(ev.imag)) < TOL_DECOMP * scale)
    im_spec = bool(np.max(np.abs(ev.real)) < TOL_DECOMP * scale)

    re_resid, im_resid = k_orbit_lagrangian_check(algebra, split, c)
    re_geom = re_resid < TOL_STRUCT * scale
    im_geom = im_resid < TOL_STRUCT * scale
    if not re_geom and re_resid < 1e-3 * cscale:
        raise InconsistencyError(f"re witness too weak: {re_resid:.2e}")
    if not im_geom and im_resid < 1e-3 * cscale:
        raise InconsistencyError(f"im witness too weak: {im_resid:.2e}")
    if re_spec != re_geom or im_spec != im_geom:
        raise InconsistencyError(
            "spectral and geometric exactness tests disagree: "
            f"spec=({re_spec},{im_spec}) geom=({re_geom},{im_geom})"
        )
    return {
        "re_exact": re_spec,
        "im_exact": im_spec,
        "evidence": {
            "max_imag_eigenvalue": float(np.max(np.abs(ev.imag))),
            "max_real_eigenvalue": float(np.max(np.abs(ev.real))),
            "re_restriction_max": re_resid,
            "im_restriction_max": im_resid,
        },
    }
