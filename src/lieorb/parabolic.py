"""Parabolic data for a chamber element c: centralizer, graded nilradical, T, N0.

The eigenbasis V_1, ..., V_n of the nilradical is taken directly from the
root-space basis vectors (already eigenvectors of ad(c)), ordered by
increasing eigenvalue and lexicographic root within an eigenvalue.  That
makes T = ad(c) restricted to n(c) exactly diagonal, and the bracket tensor
on n(c) exactly the relevant block of the structure constants.

Chamber elements are given by their diagonal entries as exact rationals, so
wall cases (alpha(c) = 0) are decided exactly rather than at a float
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from typing import Sequence

import numpy as np

from .liecore import (
    TOL_STRUCT,
    ConfigurationError,
    InconsistencyError,
    MatrixLieAlgebra,
    independent_rows,
)
from .rootspace import RestrictedRootSystem, positive_system


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float) and x == int(x):
        return Fraction(int(x))
    raise ConfigurationError(f"chamber entries must be exact rationals, got {x!r}")


def chamber_sort(entries: Sequence) -> tuple[Fraction, ...]:
    """Sort diagonal entries into the closed positive chamber (non-increasing)."""
    return tuple(sorted((_to_fraction(e) for e in entries), reverse=True))


@dataclass
class HyperbolicData:
    algebra: MatrixLieAlgebra
    rs: RestrictedRootSystem
    c_entries: tuple[Fraction, ...]
    c: np.ndarray
    c_coords: np.ndarray
    lam: np.ndarray               # covector B(c, .) in dual coordinates
    z_indices: tuple[int, ...]    # algebra basis indices spanning z(c)
    b_indices: tuple[int, ...]    # algebra basis index of V_j, grade order
    n_basis: np.ndarray           # (n_dim, d, d)
    nbar_coords: np.ndarray       # coordinates of theta(V_j)
    grades: np.ndarray            # float eigenvalue of ad(c) on V_j
    grades_exact: tuple[Fraction, ...]
    levels: tuple[tuple[float, int], ...]   # distinct (nu_j, d_j), increasing
    blocks: tuple[np.ndarray, ...]          # V-indices per level
    T_diag: np.ndarray
    N0: int = 0
    adn: np.ndarray = field(default=None, repr=False)  # adn[i] = ad(V_i) on n-coords

    @property
    def n_dim(self) -> int:
        return len(self.b_indices)

    @property
    def z_coords(self) -> np.ndarray:
        return np.eye(self.algebra.dim)[list(self.z_indices)]

    @property
    def p_filtration_coords(self) -> np.ndarray:
        """Basis of P(c) = z(c) + n(c) as coordinate vectors."""
        idx = list(self.z_indices) + list(self.b_indices)
        return np.eye(self.algebra.dim)[idx]

    def n_coords_of(self, X: np.ndarray, strict: float | None = None) -> np.ndarray:
        """Coordinates of X in the V-basis of n(c)."""
        full = self.algebra.coords(X)
        v = full[list(self.b_indices)]
        if strict is not None:
            rest = full.copy()
            rest[list(self.b_indices)] = 0.0
            outside = max(float(np.max(np.abs(rest))), self.algebra.span_residual(X))
            scale = max(1.0, float(np.max(np.abs(v))))
            if outside > strict * scale:
                raise ValueError(f"element has a component outside n(c) ({outside:.2e})")
        return v

    def n_matrix_of(self, v: np.ndarray) -> np.ndarray:
        """The element sum_j v_j V_j, over any leading batch axes of v."""
        v = np.asarray(v, dtype=float)
        return np.einsum("...j,jab->...ab", v, self.n_basis)

    @property
    def min_grade(self) -> Fraction:
        return min(self.grades_exact)

    @property
    def max_grade(self) -> Fraction:
        return max(self.grades_exact)


def hyperbolic_data(
    algebra: MatrixLieAlgebra, rs: RestrictedRootSystem, c_entries: Sequence
) -> HyperbolicData:
    entries = tuple(_to_fraction(e) for e in c_entries)
    if len(entries) != algebra.n:
        raise ConfigurationError(f"expected {algebra.n} diagonal entries")
    if sum(entries) != 0:
        raise ConfigurationError("chamber element must be traceless")
    if all(e == 0 for e in entries):
        raise ConfigurationError("chamber element must be nonzero")
    pos = positive_system(rs)
    for root in pos:
        if root.value_on_entries(entries) < 0:
            raise ConfigurationError(
                "element lies outside the closed positive chamber; "
                "sort the entries with chamber_sort first"
            )

    c = algebra.element_from_entries(entries)
    c_coords = algebra.coords(c)
    lam = algebra.killing_matrix @ c_coords

    z_idx: list[int] = [int(np.argmax(x)) for x in rs.zero_coords]
    graded: list[tuple[Fraction, int]] = []
    for root in rs.roots:
        nu = root.value_on_entries(entries)
        members = [int(np.argmax(x)) for x in root.space_coords]
        if nu == 0:
            z_idx.extend(members)
        elif nu > 0:
            for b in members:
                graded.append((nu, b))
    z_idx.sort()
    # within an eigenvalue, the fixed basis enumeration orders the roots
    graded.sort(key=lambda t: (t[0], t[1]))
    b_indices = tuple(b for (_, b) in graded)
    grades_exact = tuple(nu for (nu, _) in graded)
    n_dim = len(b_indices)
    if 2 * n_dim != algebra.dim - len(z_idx):
        raise InconsistencyError("n(c) does not have half the dimension of g/z(c)")

    grades = np.array([float(nu) for nu in grades_exact])
    levels: list[tuple[float, int]] = []
    blocks: list[np.ndarray] = []
    for nu in sorted(set(grades_exact)):
        idx = np.array([j for j, g in enumerate(grades_exact) if g == nu], dtype=int)
        levels.append((float(nu), len(idx)))
        blocks.append(idx)

    n_basis = algebra.basis[list(b_indices)]
    Th = algebra.theta_matrix
    nbar_coords = np.stack([Th @ np.eye(algebra.dim)[b] for b in b_indices])

    # ad(V_i) restricted to n(c); exact block of the structure constants
    adn = np.zeros((n_dim, n_dim, n_dim))
    sel = list(b_indices)
    for i, bi in enumerate(sel):
        block = algebra.structure[bi][sel][:, sel]   # rows j, columns k
        adn[i] = block.T                              # adn[i][k, j]
        full = algebra.structure[bi][sel]
        outside = full.copy()
        outside[:, sel] = 0.0
        if np.max(np.abs(outside)) > 1e-12:
            raise InconsistencyError("bracket of n(c) escapes n(c)")
    # grading: nonzero entries only where grade_k = grade_i + grade_j
    for i in range(n_dim):
        for j in range(n_dim):
            target = grades_exact[i] + grades_exact[j]
            for k in range(n_dim):
                if abs(adn[i][k, j]) > 1e-12 and grades_exact[k] != target:
                    raise InconsistencyError("bracket violates the eigenvalue grading")

    data = HyperbolicData(
        algebra=algebra,
        rs=rs,
        c_entries=entries,
        c=c,
        c_coords=c_coords,
        lam=lam,
        z_indices=tuple(z_idx),
        b_indices=b_indices,
        n_basis=n_basis,
        nbar_coords=nbar_coords,
        grades=grades,
        grades_exact=grades_exact,
        levels=tuple(levels),
        blocks=tuple(blocks),
        T_diag=grades.copy(),
    )
    data.adn = adn
    data.N0 = nilpotency_index(data)
    return data


def _symmetrized_power_vanishes(adn: np.ndarray, q: int) -> bool:
    """Whether (ad U)^q = 0 on n(c) identically in U.

    The q-th power is a homogeneous polynomial in the coordinates of U; it
    vanishes identically iff every permutation-symmetrized product of the
    generator matrices vanishes.  Entries are integer structure constants, so
    the test is exact well below the threshold.
    """
    n = adn.shape[0]
    for combo in combinations_with_replacement(range(n), q):
        acc = np.zeros((n, n))
        for perm in set(permutations(combo)):
            M = adn[perm[0]]
            for idx in perm[1:]:
                M = M @ adn[idx]
            acc = acc + M
        if np.max(np.abs(acc)) > 1e-8:
            return False
    return True


def nilpotency_index(data: HyperbolicData, samples: int = 20) -> int:
    """Smallest positive N0 with (ad U)^{N0+1} = 0 on n(c) for all U in n(c)."""
    nu1, nup = data.min_grade, data.max_grade
    floor_bound = int(nup / nu1)
    n0 = None
    for m in range(1, floor_bound + 1):
        if _symmetrized_power_vanishes(data.adn, m + 1):
            n0 = m
            break
    if n0 is None:
        # (m+2) nu_1 > nu_p already forces vanishing at m = floor_bound
        raise InconsistencyError("nilpotency search exceeded the grading bound")
    rng = np.random.default_rng(20240801)
    for _ in range(samples):
        U = rng.standard_normal(data.n_dim)
        A = np.einsum("i,ikj->kj", U, data.adn)
        P = np.linalg.matrix_power(A, n0 + 1)
        if np.max(np.abs(P)) > 1e-12 * max(1.0, np.max(np.abs(A)) ** (n0 + 1)):
            raise InconsistencyError("sampled power violates the nilpotency index")
    return n0


def grade_projection(data: HyperbolicData, X: np.ndarray, mode: str, index: int) -> np.ndarray:
    """Project an n(c) element onto R V_index, or the <=/> index tail.

    Indices are 0-based positions in the ordered eigenbasis.
    """
    v = data.n_coords_of(X, strict=TOL_STRUCT)
    j = np.arange(data.n_dim)
    masks = {"j": j == index, "le": j <= index, "gt": j > index}
    if mode not in masks:
        raise ConfigurationError(f"unknown projection mode {mode!r}")
    return data.n_matrix_of(np.where(masks[mode], v, 0.0))


def z_k_coords(data: HyperbolicData) -> np.ndarray:
    """Basis of the intersection of k with z(c): the compact stabilizer algebra."""
    return independent_rows(data.z_coords + data.z_coords @ data.algebra.theta_matrix.T)
