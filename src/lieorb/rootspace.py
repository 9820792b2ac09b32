"""Restricted root-space decomposition for a maximal abelian subspace of p.

The commuting family {ad(H) : H in a} is self-adjoint for the inner product
-B(X, theta Y), so the decomposition is obtained by sequential symmetric
eigendecomposition with cluster refinement: diagonalize ad(H_1), then ad(H_2)
restricted to each eigencluster, and so on.  For the sl families every joint
eigenspace is spanned by original basis vectors; the construction verifies
this and keeps those exact vectors, which is what makes the downstream
grading operators exactly diagonal.

Roots are stored twice: as float values on the orthonormalized a-basis
(`functional`, used for lexicographic ordering) and as the integer vector of
diagonal-entry coefficients (`weights`, used for exact evaluation on rational
chamber elements).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .liecore import (
    TOL_DECOMP,
    TOL_EIGEN,
    TOL_STRUCT,
    CartanSplit,
    ConfigurationError,
    DegeneracyError,
    InconsistencyError,
    MatrixLieAlgebra,
    cartan_split,
    embed_complex,
    extract_complex,
    independent_rows,
)


@dataclass
class RestrictedRoot:
    functional: np.ndarray   # values on the orthonormal a-basis
    weights: np.ndarray      # integer coefficients of the diagonal entries e_l
    space_coords: np.ndarray  # (mult, dim) unit coordinate vectors
    space_basis: np.ndarray   # (mult, d, d)
    multiplicity: int

    def value_on_entries(self, entries: Sequence[Fraction]) -> Fraction:
        """Exact alpha(c) for a diagonal chamber element with rational entries."""
        total = Fraction(0)
        for w, e in zip(self.weights, entries):
            total += int(w) * Fraction(e)
        return total


@dataclass
class RestrictedRootSystem:
    algebra: MatrixLieAlgebra
    a_coords: np.ndarray     # orthonormal for <.,.>, shape (r, dim)
    a_basis: np.ndarray      # (r, d, d)
    roots: list[RestrictedRoot]
    zero_coords: np.ndarray  # basis of g_0 = m + a
    zero_basis: np.ndarray
    m_coords: np.ndarray     # basis of m, the k-part of g_0 (may be empty)
    m_basis: np.ndarray

    @property
    def rank(self) -> int:
        return self.a_coords.shape[0]

    def negative_of(self, root: RestrictedRoot) -> RestrictedRoot:
        target = tuple(-root.weights)
        for r in self.roots:
            if tuple(r.weights) == target:
                return r
        raise InconsistencyError("root system is not symmetric")


def maximal_abelian(algebra: MatrixLieAlgebra, split: CartanSplit) -> np.ndarray:
    """Maximal abelian subspace of p, as a stack of matrices.

    The candidate is the diagonal part of p; maximality is certified by a rank
    test on the joint commutant of the candidate inside p.
    """
    cand = []
    for M in split.p_basis:
        if np.max(np.abs(M - np.diag(np.diagonal(M)))) < 1e-12:
            cand.append(M)
    if not cand:
        raise DegeneracyError("no diagonal directions found in p")
    cand = np.stack(cand)
    r = cand.shape[0]
    pair = np.stack([algebra.bracket(A, B) for A in cand for B in cand])
    if np.max(np.abs(pair)) > TOL_STRUCT:
        raise InconsistencyError("candidate subspace is not abelian")
    # joint commutant of the candidate inside p
    rows = []
    for A in cand:
        adA = algebra.ad_matrix_of(A)
        rows.append(adA @ split.p_coords.T)
    M = np.concatenate(rows, axis=0)
    svals = np.linalg.svd(M, compute_uv=False)
    scale = max(1.0, float(svals[0])) if svals.size else 1.0
    suspicious = int(np.sum((svals >= 1e-9 * scale) & (svals < 1e-7 * scale)))
    if suspicious:
        raise DegeneracyError("commutant rank test inconclusive at tolerance")
    rank = int(np.sum(svals >= 1e-9 * scale))
    if split.p_coords.shape[0] - rank != r:
        raise DegeneracyError(
            f"candidate of dimension {r} is not maximal abelian "
            f"(commutant has dimension {split.p_coords.shape[0] - rank})"
        )
    return cand


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
            raise DegeneracyError("dependent vectors in abelian subspace")
        out.append(v / nrm)
    a_coords = np.stack(out)
    return a_coords, algebra.from_coords(a_coords)


def restricted_roots(algebra: MatrixLieAlgebra, a_elements: np.ndarray) -> RestrictedRootSystem:
    split = cartan_split(algebra)
    a_coords, a_basis = _orthonormalize(algebra, np.asarray(a_elements, dtype=float))
    dim = algebra.dim
    G = (algebra.inner_matrix + algebra.inner_matrix.T) / 2
    L = np.linalg.cholesky(G)

    # clusters live in the orthonormal y = L^T x coordinates
    clusters: list[tuple[np.ndarray, list[float]]] = [(np.eye(dim), [])]
    for H in a_coords:
        A = algebra.ad_coord(H)
        S = L.T @ A @ np.linalg.inv(L.T)
        if np.max(np.abs(S - S.T)) > TOL_DECOMP:
            raise InconsistencyError("ad(H) is not symmetric for the inner product")
        S = (S + S.T) / 2
        refined = []
        for Q, vals in clusters:
            w, vecs = np.linalg.eigh(Q.T @ S @ Q)
            gaps = np.diff(w)
            if np.any((gaps > TOL_EIGEN) & (gaps < 100 * TOL_EIGEN)):
                raise DegeneracyError("eigenvalue cluster ambiguous at tolerance")
            start = 0
            for stop in range(1, len(w) + 1):
                if stop == len(w) or w[stop] - w[stop - 1] > TOL_EIGEN:
                    sub = Q @ vecs[:, start:stop]
                    refined.append((sub, vals + [float(np.mean(w[start:stop]))]))
                    start = stop
        clusters = refined

    # identify the original basis vectors spanning each cluster
    y_units = L.T @ np.eye(dim)
    y_units = y_units / np.linalg.norm(y_units, axis=0)[None, :]
    zero_idx: list[int] = []
    root_groups: list[tuple[list[float], list[int]]] = []
    for Q, vals in clusters:
        members = []
        for b in range(dim):
            resid = np.linalg.norm(y_units[:, b] - Q @ (Q.T @ y_units[:, b]))
            if resid < TOL_DECOMP:
                members.append(b)
        if len(members) != Q.shape[1]:
            raise InconsistencyError(
                "joint eigenspace is not spanned by basis vectors "
                f"(found {len(members)} of {Q.shape[1]})"
            )
        if max(abs(v) for v in vals) < TOL_EIGEN:
            zero_idx.extend(members)
        else:
            root_groups.append((vals, members))

    n = algebra.n
    roots = []
    for vals, members in root_groups:
        X = algebra.basis[members[0]]
        weights = _integer_weights(algebra, X)
        functional = np.array(
            [float(np.asarray(weights, float) @ _real_diag(algebra, H)) for H in a_basis]
        )
        if np.max(np.abs(functional - np.asarray(vals))) > TOL_EIGEN:
            raise InconsistencyError("snapped root functional disagrees with eigenvalues")
        for b in members:
            resid = _root_vector_residual(algebra, a_basis, functional, algebra.basis[b])
            if resid > TOL_DECOMP:
                raise InconsistencyError(f"root vector residual {resid:.2e}")
        roots.append(
            RestrictedRoot(
                functional=functional,
                weights=np.asarray(weights, dtype=int),
                space_coords=np.eye(dim)[members],
                space_basis=algebra.basis[members],
                multiplicity=len(members),
            )
        )
    roots.sort(key=lambda r: tuple(r.functional))

    zero_idx.sort()
    zero_coords = np.eye(dim)[zero_idx]
    zero_basis = algebra.basis[zero_idx]
    # m is the theta-fixed part of g_0 (g_0 is theta-stable)
    m_coords = independent_rows(zero_coords + zero_coords @ algebra.theta_matrix.T)
    m_basis = algebra.from_coords(m_coords)

    rs = RestrictedRootSystem(
        algebra, a_coords, a_basis, roots, zero_coords, zero_basis, m_coords, m_basis
    )
    _check_bookkeeping(rs)
    return rs


def _real_diag(algebra: MatrixLieAlgebra, H: np.ndarray) -> np.ndarray:
    Z = extract_complex(H) if algebra.is_complex else H
    return np.diagonal(Z).real.copy()


def _integer_weights(algebra: MatrixLieAlgebra, X: np.ndarray) -> list[int]:
    """Diagonal-entry coefficients of the root carried by X, snapped to ints."""
    n = algebra.n
    ws = []
    nrm2 = float(np.sum(X * X))
    for l in range(n):
        if algebra.is_complex:
            D = embed_complex(np.diag(np.eye(n, dtype=complex)[l]))
        else:
            D = np.diag(np.eye(n)[l])
        C = D @ X - X @ D
        w = float(np.sum(C * X)) / nrm2
        wi = int(round(w))
        if abs(w - wi) > 1e-9 or np.max(np.abs(C - wi * X)) > TOL_DECOMP:
            raise InconsistencyError("root vector is not a diagonal weight vector")
        ws.append(wi)
    return ws


def _root_vector_residual(algebra, a_basis, functional, X) -> float:
    worst = 0.0
    for H, val in zip(a_basis, functional):
        worst = max(worst, float(np.max(np.abs(algebra.bracket(H, X) - val * X))))
    return worst


def _check_bookkeeping(rs: RestrictedRootSystem) -> None:
    dim = rs.algebra.dim
    total = rs.zero_coords.shape[0] + sum(r.multiplicity for r in rs.roots)
    if total != dim:
        raise InconsistencyError(f"dimension bookkeeping failed: {total} != {dim}")
    for r in rs.roots:
        neg = rs.negative_of(r)
        if neg.multiplicity != r.multiplicity:
            raise InconsistencyError("asymmetric multiplicities")
    # the p-part of g_0 must equal a
    if rs.zero_coords.shape[0] - rs.m_coords.shape[0] != rs.rank:
        raise InconsistencyError("g_0 does not split as m + a")


def default_regular(algebra: MatrixLieAlgebra) -> np.ndarray:
    """Canonical regular chamber element diag(n-1, n-3, ..., -(n-1))."""
    n = algebra.n
    entries = [n - 1 - 2 * k for k in range(n)]
    return algebra.element_from_entries(entries)


def positive_system(
    rs: RestrictedRootSystem, H_reg: np.ndarray | None = None
) -> list[RestrictedRoot]:
    """Roots positive on H_reg, in lexicographic functional order."""
    algebra = rs.algebra
    if H_reg is None:
        H_reg = default_regular(algebra)
    dg = _real_diag(algebra, H_reg)
    scale = max(1.0, float(np.max(np.abs(dg))))
    pos = []
    for r in rs.roots:
        val = float(np.asarray(r.weights, float) @ dg)
        if abs(val) <= TOL_EIGEN * scale:
            raise ConfigurationError("regularity failure: a root vanishes on H_reg")
        if val > 0:
            pos.append(r)
    if 2 * len(pos) != len(rs.roots):
        raise InconsistencyError("positive system does not halve the root set")
    return pos


def k_from_roots_check(rs: RestrictedRootSystem, split: CartanSplit) -> float:
    """Subspace distance between m + span(X + theta X) and k."""
    algebra = rs.algebra
    Th = algebra.theta_matrix
    cols = [x for x in rs.m_coords]
    for root in positive_system(rs):
        for x in root.space_coords:
            cols.append(x + Th @ x)
    A = np.stack(cols).T
    Qa, _ = np.linalg.qr(A)
    Qk, _ = np.linalg.qr(split.k_coords.T)
    P1 = Qa @ Qa.T
    P2 = Qk @ Qk.T
    return float(np.linalg.norm(P1 - P2, ord=2))
