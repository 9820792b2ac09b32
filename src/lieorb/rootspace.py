"""Restricted root-space decomposition for a maximal abelian subspace of p.

For the sl families every basis vector X_b is a weight vector of the
diagonal, with integer weights w_b: zero on the diagonal, e_i - e_j on E_ij.
The weights are read off exactly; g_0 is the set of basis indices of weight
zero, and each root space the set of basis indices of one nonzero weight.

One bracket residual certifies this: [H, X_b] = alpha_b(H) X_b for every
a-basis element H and every basis vector X_b, with alpha_b the functional of
w_b on a (zero on g_0).  The basis spans g, so ad(a) is then diagonal in it
and each joint eigenspace is spanned by the basis vectors of one functional.
Then a commutes with the Cartan subalgebra g_0, so lies in it; the real
eigenvalues and the bookkeeping test dim g_0 - dim m = dim a make a the
whole real diagonal, where distinct weights are distinct functionals.  The
same test certifies that a is maximal abelian in p.  No eigensolver or rank
test is needed, and no float tolerance decides any membership.

Roots are stored twice: as float values on the orthonormalized a-basis
(`functional`, used for lexicographic ordering) and as the integer vector of
diagonal-entry coefficients (`weights`, used for exact evaluation on rational
chamber elements).  The system also keeps the per-basis table those are read
off (`RestrictedRootSystem.weights`): row b is w_b, zero on g_0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .liecore import (
    TOL_DECOMP,
    CartanSplit,
    InconsistencyError,
    MatrixLieAlgebra,
    embed_complex,
    extract_complex,
    theta_rows,
)


@dataclass
class RestrictedRoot:
    functional: np.ndarray   # values on the orthonormal a-basis
    weights: np.ndarray      # integer coefficients of the diagonal entries e_l
    members: np.ndarray      # algebra basis indices spanning the root space

    @property
    def multiplicity(self) -> int:
        return len(self.members)


@dataclass
class RestrictedRootSystem:
    algebra: MatrixLieAlgebra
    a_coords: np.ndarray     # orthonormal for <.,.>, shape (r, dim)
    a_basis: np.ndarray      # (r, d, d)
    weights: np.ndarray      # read-only (dim, n) int64: row b is the weight of basis vector b, 0 on g_0
    roots: list[RestrictedRoot]
    zero_indices: np.ndarray  # algebra basis indices spanning g_0 = m + a
    m_coords: np.ndarray      # basis of m, the k-part of g_0 (may be empty)
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def rank(self) -> int:
        return self.a_coords.shape[0]


def maximal_abelian(algebra: MatrixLieAlgebra, split: CartanSplit) -> np.ndarray:
    """Maximal abelian subspace of p, as a stack of matrices: the diagonal part of p.

    The p-basis elements with no off-diagonal entry are picked by an exact
    zero test on their integer entries.  Maximality is certified where the
    root spaces are built: restricted_roots checks dim(g_0 meet p) = dim a.
    """
    P = split.p_basis
    diagonal = ~np.any(np.where(np.eye(algebra.d, dtype=bool), 0.0, P), axis=(1, 2))
    if not diagonal.any():
        raise InconsistencyError("no diagonal directions found in p")
    return P[diagonal]


def _orthonormalize(algebra: MatrixLieAlgebra, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt for <.,.> in the given deterministic order."""
    G = algebra.inner_matrix
    out = []
    for x in algebra.coords(mats):
        v = x.copy()
        for u in out:
            v = v - (u @ G @ v) * u
        nrm = float(np.sqrt(v @ G @ v))
        if nrm < 1e-12:
            raise InconsistencyError("dependent vectors in abelian subspace")
        out.append(v / nrm)
    a_coords = np.stack(out)
    return a_coords, algebra.from_coords(a_coords)


def restricted_roots(algebra: MatrixLieAlgebra, a_elements: np.ndarray) -> RestrictedRootSystem:
    a_coords, a_basis = _orthonormalize(algebra, np.asarray(a_elements, dtype=float))
    # every basis vector's integer weight: zero on g_0, equal weights share a root space
    W = _integer_weights(algebra, algebra.basis)
    W.setflags(write=False)
    in_root = W.any(axis=1)
    root_idx = np.flatnonzero(in_root)
    weights, owner = np.unique(W[root_idx], axis=0, return_inverse=True)
    functionals = weights.astype(float) @ _real_diag(algebra, a_basis).T
    # [H, X_b] = alpha_b(H) X_b for every a-basis element H and every basis
    # vector X_b, with alpha_b = 0 on g_0, as one batched bracket
    alpha = np.zeros((algebra.dim, len(a_basis)))
    alpha[root_idx] = functionals[owner]
    X = algebra.basis
    Hs = a_basis[:, None]
    C = Hs @ X
    C -= X @ Hs
    C -= alpha.T[:, :, None, None] * X
    resid = np.max(np.abs(C), axis=(0, 2, 3))
    if np.any(resid > TOL_DECOMP):
        b = int(np.argmax(resid > TOL_DECOMP))
        raise InconsistencyError(
            "joint eigenspace is not spanned by basis vectors: "
            f"root vector residual {resid[b]:.2e} at basis index {b}"
        )
    roots = [RestrictedRoot(f, w, root_idx[owner == k]) for k, (f, w) in enumerate(zip(functionals, weights))]
    roots.sort(key=lambda r: tuple(r.functional))

    zero_indices = np.flatnonzero(~in_root)
    # m is the theta-fixed part of g_0 (g_0 is theta-stable)
    rs = RestrictedRootSystem(
        algebra, a_coords, a_basis, W, roots, zero_indices, theta_rows(algebra, zero_indices, 1)
    )
    _check_bookkeeping(rs)
    return rs


def _real_diag(algebra: MatrixLieAlgebra, H: np.ndarray) -> np.ndarray:
    """Real diagonal entries of H, over any leading batch axes."""
    Z = extract_complex(H) if algebra.is_complex else H
    return np.diagonal(Z, axis1=-2, axis2=-1).real.copy()


def _integer_weights(algebra: MatrixLieAlgebra, X: np.ndarray) -> np.ndarray:
    """Diagonal-entry coefficients of the weight vectors in the stack X, snapped to ints.

    Row k holds the weights w_l of X[k]: [D_l, X] = w_l X for the diagonal
    units D_l (embedded for the realified family), with
    [D_l, X]_ab = (D_l,aa - D_l,bb) X_ab for the whole (vector, l) stack.
    """
    n = algebra.n
    units = np.eye(n)[:, None] * np.eye(n)
    D = np.diagonal(embed_complex(units) if algebra.is_complex else units, axis1=-2, axis2=-1)
    X = X[:, None]
    C = (D[:, :, None] - D[:, None, :]) * X
    w = np.sum(C * X, axis=(2, 3)) / np.sum(X * X, axis=(2, 3))
    wi = np.rint(w)
    if np.any(np.abs(w - wi) > 1e-9) or np.max(np.abs(C - wi[:, :, None, None] * X)) > TOL_DECOMP:
        raise InconsistencyError("root vector is not a diagonal weight vector")
    return wi.astype(np.int64)


def weight_code(W: np.ndarray) -> np.ndarray:
    """Each integer weight row of W as one integer, with its entries as base-b digits.

    b = 3 max|w| + 1 exceeds every entry of w_k - w_i - w_j, so
    code_k = code_i + code_j exactly where w_k = w_i + w_j.
    """
    W = np.asarray(W, dtype=np.int64)
    return W @ (3 * int(np.max(np.abs(W), initial=0)) + 1) ** np.arange(W.shape[-1])


def _check_bookkeeping(rs: RestrictedRootSystem) -> None:
    dim = rs.algebra.dim
    total = len(rs.zero_indices) + sum(r.multiplicity for r in rs.roots)
    if total != dim:
        raise InconsistencyError(f"dimension bookkeeping failed: {total} != {dim}")
    by_weights = {tuple(r.weights): r for r in rs.roots}
    for r in rs.roots:
        neg = by_weights.get(tuple(-r.weights))
        if neg is None:
            raise InconsistencyError("root system is not symmetric")
        if neg.multiplicity != r.multiplicity:
            raise InconsistencyError("asymmetric multiplicities")
    # the p-part of g_0 must equal a
    if len(rs.zero_indices) - rs.m_coords.shape[0] != rs.rank:
        raise InconsistencyError("g_0 does not split as m + a")


def positive_system(rs: RestrictedRootSystem) -> list[RestrictedRoot]:
    """Roots positive on the regular element diag(n-1, n-3, ..., 1-n), decided in integers,
    in lexicographic functional order."""
    n = rs.algebra.n
    regular = np.arange(n - 1, -n, -2)
    pos = [r for r in rs.roots if r.weights @ regular > 0]
    if 2 * len(pos) != len(rs.roots):
        raise InconsistencyError("positive system does not halve the root set")
    return pos


def k_from_roots_check(rs: RestrictedRootSystem, split: CartanSplit) -> float:
    """Subspace distance between m + span(X + theta X) and k."""
    algebra = rs.algebra
    Th = algebra.theta_matrix
    members = np.concatenate([root.members for root in positive_system(rs)])
    # rows e_b + theta(e_b) for the positive root vectors e_b, after m
    A = np.concatenate([rs.m_coords, np.eye(algebra.dim)[members] + Th[:, members].T]).T
    Qa, _ = np.linalg.qr(A)
    Qk, _ = np.linalg.qr(split.k_coords.T)
    P1 = Qa @ Qa.T
    P2 = Qk @ Qk.T
    return float(np.linalg.norm(P1 - P2, ord=2))
