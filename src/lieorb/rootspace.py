"""Restricted root-space decomposition for a maximal abelian subspace of p.

For the sl families every basis vector X_b is a weight vector of the
diagonal, with integer weights w_b: zero on the diagonal, e_i - e_j on E_ij.
The weights are read off exactly; g_0 is the set of basis indices of weight
zero, and each root space the set of basis indices of one nonzero weight.

Two exact tests on the basis vectors' nonzero entries certify [H, X_b] =
alpha_b(H) X_b for every a-basis element H and basis vector X_b, with alpha_b
the functional of w_b on a (zero on g_0): H has no nonzero off-diagonal entry
H_pq (it would put H_pq into [H, E_qj] off the support of E_qj), and on each
entry x = X_b[e, c] the residual H_ee x - x H_cc - alpha_b(H) x is within
TOL_DECOMP.  The basis spans g, so ad(a) is then diagonal in it and each
joint eigenspace is spanned by the basis vectors of one functional.  Then a
commutes with the Cartan subalgebra g_0, so lies in it; the real eigenvalues
and the bookkeeping test dim g_0 - dim m = dim a make a the whole real
diagonal, where distinct weights are distinct functionals.  The same test
certifies that a is maximal abelian in p.  No eigensolver or rank test is
needed, and no float tolerance decides any membership.

Roots are stored twice: as float values on the a-basis, orthonormalized by
one Cholesky factor of its Gram (`functional`, used for lexicographic
ordering), and as the integer vector of diagonal-entry coefficients
(`weights`, used for exact evaluation on rational chamber elements).  The
system also keeps the per-basis table those are read off, formed in one
bincount (`RestrictedRootSystem.weights`): row b is w_b, zero on g_0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .liecore import (
    TOL_DECOMP,
    CartanSplit,
    ConfigurationError,
    InconsistencyError,
    MatrixLieAlgebra,
    _lookup,
    _nonzero,
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
    """Orthonormalize for <.,.> in the given deterministic order, by Cholesky QR: with the Gram
    X G X^T = L L^T of the coordinate rows X, the rows of L^-1 X are what Gram-Schmidt gives, and
    the pivots of L are its norms (Golub & Van Loan, Matrix Computations, 5.2).  Its loss of
    orthogonality grows as eps cond(X)^2, so the rows are certified orthonormal to TOL_DECOMP."""
    X, G = algebra.coords(mats), algebra.inner_matrix
    try:
        L = np.linalg.cholesky(X @ G @ X.T)
    except np.linalg.LinAlgError:  # a pivot that is not positive
        L = np.zeros((1, 1))
    if np.diagonal(L).min() >= 1e-12:
        a_coords = np.linalg.solve(L, X)
        if np.max(np.abs(a_coords @ G @ a_coords.T - np.eye(len(X)))) <= TOL_DECOMP:
            return a_coords, algebra.from_coords(a_coords)
    raise InconsistencyError("dependent vectors in abelian subspace")


def restricted_roots(algebra: MatrixLieAlgebra, a_elements: np.ndarray) -> RestrictedRootSystem:
    a_coords, a_basis = _orthonormalize(algebra, np.asarray(a_elements, dtype=float))
    # every basis vector's integer weight: zero on g_0, equal weights share a root space
    W = _integer_weights(algebra, algebra.basis)
    W.setflags(write=False)
    # the basis grouped by weight code (0 on g_0), each group in basis order
    keys, first, owner = np.unique(weight_code(W), return_index=True, return_inverse=True)
    members, counts = np.argsort(owner, kind="stable"), np.bincount(owner)
    ends = [0, *np.cumsum(counts).tolist()]
    # [H, X_b] = alpha_b(H) X_b for every a-basis element H and every basis vector X_b, with
    # alpha_b = 0 on g_0: H is diagonal, and the bracket is an exact zero off X_b's entries
    off = np.max(np.abs(np.where(np.eye(algebra.d, dtype=bool), 0.0, a_basis)), axis=(1, 2))
    if off.any():
        h = int(np.argmax(off != 0))
        raise InconsistencyError(
            "joint eigenspace is not spanned by basis vectors: "
            f"root vector residual {off[h]:.2e} off the diagonal of a-basis element {h}"
        )
    H = np.diagonal(a_basis, axis1=1, axis2=2)  # its first n entries are the real diagonal
    weights = W[first]
    functionals = weights.astype(float) @ H[:, : algebra.n].T
    b, e, c = _nonzero(algebra.basis)
    x = algebra.basis[b, e, c]
    C = H[:, e] * x
    C -= x * H[:, c]
    C -= functionals[owner[b]].T * x
    resid = np.zeros(algebra.dim)
    np.maximum.at(resid, b, np.max(np.abs(C), axis=0))
    if np.any(resid > TOL_DECOMP):
        b = int(np.argmax(resid > TOL_DECOMP))
        raise InconsistencyError(
            "joint eigenspace is not spanned by basis vectors: "
            f"root vector residual {resid[b]:.2e} at basis index {b}"
        )
    # the roots in lexicographic order of their functionals
    order = np.lexsort(functionals.T[::-1])
    order = order[keys[order] != 0]
    roots = [RestrictedRoot(functionals[k], weights[k], members[ends[k] : ends[k + 1]]) for k in order.tolist()]
    zero_indices = np.flatnonzero(~W.any(axis=1))
    # m is the theta-fixed part of g_0 (g_0 is theta-stable)
    rs = RestrictedRootSystem(
        algebra, a_coords, a_basis, W, roots, zero_indices, theta_rows(algebra, zero_indices, 1)
    )
    _check_bookkeeping(rs, keys, counts, order)
    return rs


def _integer_weights(algebra: MatrixLieAlgebra, X: np.ndarray) -> np.ndarray:
    """Diagonal-entry coefficients of the weight vectors in the stack X, snapped to ints.

    Row k holds the weights w_l of X[k]: [D_l, X] = w_l X for the diagonal
    units D_l (embedded for the realified family, where D_l,aa = 1 at a = l
    and a = n + l).  [D_l, X]_ab = (D_l,aa - D_l,bb) X_ab is zero off X's
    nonzero entries, so it and w_l are formed on those entries alone.
    """
    n = algebra.n
    D = np.eye(n)[:, np.arange(algebra.d) % n]
    k, a, b = _nonzero(X)
    x = X[k, a, b]
    C = (D[:, a] - D[:, b]) * x
    # one bincount over the (row, unit) slots k n + l; each slot sums its entries in entry order
    w = np.bincount((k[:, None] * n + np.arange(n)).ravel(), (C * x).T.ravel(), len(X) * n).reshape(-1, n)
    w /= np.bincount(k, x * x, len(X))[:, None]
    wi = np.rint(w)
    if np.any(np.abs(w - wi) > 1e-9) or np.max(np.abs(C - wi[k].T * x), initial=0.0) > TOL_DECOMP:
        raise InconsistencyError("root vector is not a diagonal weight vector")
    return wi.astype(np.int64)


def weight_code(W: np.ndarray) -> np.ndarray:
    """Each integer weight row of W as one integer, with its entries as base-b digits.

    b = 3 max|w| + 1 exceeds every entry of w_k - w_i - w_j, so
    code_k = code_i + code_j exactly where w_k = w_i + w_j.  That sum must stay
    in int64: W is refused where 2 max|w| (1 + b + ... + b^(n-1)) reaches 2^63.
    """
    W = np.asarray(W, dtype=np.int64)
    top, n = int(np.max(np.abs(W), initial=0)), W.shape[-1]
    if 2 * top * sum((3 * top + 1) ** l for l in range(n)) >= 2**63:
        raise ConfigurationError(f"weight_code: codes of {n} entries up to {top} in size pass the int64 bound 2^63")
    return W @ (3 * top + 1) ** np.arange(n)


def _check_bookkeeping(rs: RestrictedRootSystem, keys: np.ndarray, counts: np.ndarray, order: np.ndarray) -> None:
    """Dimensions, root symmetry and multiplicities: keys are the sorted weight codes of the basis
    groups, counts their sizes, and keys[order] the codes of rs.roots."""
    dim = rs.algebra.dim
    # the multiplicity of each root w and of -w, 0 where -w is no root
    mult, neg = counts[order], _lookup(keys, counts, -keys[order])
    total = len(rs.zero_indices) + int(mult.sum())
    if total != dim:
        raise InconsistencyError(f"dimension bookkeeping failed: {total} != {dim}")
    if np.any(neg != mult):
        first = np.argmax(neg != mult)
        raise InconsistencyError("root system is not symmetric" if neg[first] == 0 else "asymmetric multiplicities")
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
    members = np.concatenate([root.members for root in positive_system(rs)])
    # rows e_b + theta(e_b) = e_b + s_b e_pi(b) for the positive root vectors e_b, after m
    rows = np.eye(algebra.dim)[members]
    rows[np.arange(len(members)), algebra.theta_perm[members]] += algebra.theta_sign[members]
    A = np.concatenate([rs.m_coords, rows]).T
    Qa, _ = np.linalg.qr(A)
    Qk, _ = np.linalg.qr(split.k_coords.T)
    return float(np.linalg.norm(Qa @ Qa.T - Qk @ Qk.T, ord=2))
