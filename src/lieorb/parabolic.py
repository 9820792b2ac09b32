"""Parabolic data for a chamber element c: centralizer, graded nilradical, T, N0.

The eigenbasis V_1, ..., V_n of the nilradical is taken directly from the
root-space basis vectors (already eigenvectors of ad(c)), read off the root
system's per-basis weight table and ordered by increasing eigenvalue and
basis index within an eigenvalue.  That makes T = ad(c) restricted to n(c)
exactly diagonal, and the bracket tensor on n(c) exactly the relevant block
of the structure constants, read off their nonzero entries.

Chamber elements are given by their diagonal entries as exact rationals, so
wall cases (alpha(c) = 0) are decided exactly rather than at a float
threshold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .liecore import (
    ConfigurationError,
    InconsistencyError,
    MatrixLieAlgebra,
    raise_first,
    theta_rows,
)
from .rootspace import RestrictedRootSystem, weight_code


def _to_fraction(x) -> Fraction:
    if isinstance(x, (Fraction, int, str)):
        return Fraction(x)
    if isinstance(x, float) and x == int(x):
        return Fraction(int(x))
    raise ConfigurationError(f"chamber entries must be exact rationals, got {x!r}")


def chamber_sort(entries: Sequence) -> tuple[Fraction, ...]:
    """Sort diagonal entries into the closed positive chamber (non-increasing)."""
    return tuple(sorted((_to_fraction(e) for e in entries), reverse=True))


def _input_at(entries: Sequence, V=None, U0=None) -> str:
    """The input of a gate, for its error message: the chamber, then max|V| and max|U0| where given."""
    text = f"at c = {tuple(str(e) for e in entries)}"
    for name, x in (("V", V), ("U0", U0)):
        if x is not None:
            text += f", max|{name}| = {np.max(np.abs(x)):.3e}"
    return text


@dataclass
class HyperbolicData:
    algebra: MatrixLieAlgebra
    c_entries: tuple[Fraction, ...]
    c: np.ndarray
    z_indices: tuple[int, ...]    # algebra basis indices spanning z(c)
    b_indices: tuple[int, ...]    # algebra basis index of V_j, grade order
    n_basis: np.ndarray           # (n_dim, d, d)
    grades: np.ndarray            # float eigenvalue of ad(c) on V_j
    grades_exact: tuple[Fraction, ...]
    levels: tuple[tuple[float, int], ...]   # distinct (nu_j, d_j), increasing
    # the number of distinct entries of c that V_j's root crosses, 1 ... s - 1;
    # the bracket adds them, so they bound N0, flow degrees and the chart's passes
    block_grades: np.ndarray
    N0: int = 0
    adn: np.ndarray = field(default=None, repr=False)  # adn[i] = ad(V_i) on n-coords
    # what liecore.per_instance builds from this instance; dataclasses.replace starts it empty
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_dim(self) -> int:
        return len(self.b_indices)

    def where(self, V=None, U0=None) -> str:
        """The input a failing gate names: "at c = (...)[, max|V| = ...][, max|U0| = ...]"."""
        return _input_at(self.c_entries, V, U0)

    @functools.cached_property
    def _positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Matrix row and column of each V_j; over C, of each pair (E_ij, i E_ij)."""
        q, alg = np.array(self.b_indices) - (self.algebra.n - 1), self.algebra
        q = (q[::2] - (alg.n - 1)) // 2 if alg.is_complex else q
        return alg._rows[q], alg._cols[q]

    def n_coords_of(self, X: np.ndarray) -> np.ndarray:
        """Coordinates v of X in the V-basis of n(c), over any leading batch axes; parts outside n(c) drop.

        algebra.coords(X)[..., b_indices] bit for bit, read off X at each V_j's position; over C a pair
        (E_ij, i E_ij) reads the entry of the complex-linear part, as extract_complex does."""
        X = np.asarray(X, dtype=float)
        alg, (i, j), n = self.algebra, self._positions, self.algebra.n
        if X.shape[-2:] != (alg.d, alg.d):
            raise ValueError(f"dimension mismatch: expected (..., {alg.d}, {alg.d}), got {X.shape}")
        if not alg.is_complex:
            return X[..., i, j]
        Z = (X[..., i, j] + X[..., i + n, j + n]) / 2.0 + 1j * (X[..., i + n, j] - X[..., i, j + n]) / 2.0
        return np.ascontiguousarray(Z).view(float)

    def n_matrix_of(self, v: np.ndarray) -> np.ndarray:
        """The element sum_j v_j V_j over leading batch axes of v: one product, exact as no two V_j share an entry."""
        v = np.asarray(v, dtype=float)
        return (v @ self.n_basis.reshape(self.n_dim, -1)).reshape(v.shape[:-1] + self.n_basis.shape[1:])


def hyperbolic_data(
    algebra: MatrixLieAlgebra, rs: RestrictedRootSystem, c_entries: Sequence
) -> HyperbolicData:
    if algebra.spec != rs.algebra.spec:
        raise ConfigurationError(f"hyperbolic_data: algebra {algebra.spec} is not the root system's {rs.algebra.spec}")
    entries = tuple(_to_fraction(e) for e in c_entries)
    if len(entries) != algebra.n:
        raise ConfigurationError(f"expected {algebra.n} diagonal entries")
    if all(e == 0 for e in entries):
        raise ConfigurationError("chamber element must be nonzero")
    # alpha(c) for every basis vector, exactly: its integer weights (0 on g_0)
    # against the entries brought to one common denominator
    den, W, n = math.lcm(*(e.denominator for e in entries)), rs.weights, algebra.n
    alpha = W.astype(object) @ np.array([int(e * den) for e in entries], dtype=object)
    if np.any((W @ np.arange(n - 1, -n, -2) > 0) & (alpha < 0)):
        raise ConfigurationError(
            "element lies outside the closed positive chamber; "
            "sort the entries with chamber_sort first"
        )

    c = algebra.element_from_entries(entries)
    z_idx = np.flatnonzero(alpha == 0)
    # V_j by increasing eigenvalue; within one, the fixed basis enumeration orders them
    sel = np.flatnonzero(alpha > 0)
    sel = sel[np.argsort(alpha[sel], kind="stable")]
    b_indices = tuple(sel.tolist())
    grades_exact = tuple(Fraction(a, den) for a in alpha[sel])
    n_dim = len(b_indices)
    where = _input_at(entries)
    if 2 * n_dim != algebra.dim - len(z_idx):
        raise InconsistencyError(f"n(c) does not have half the dimension of g/z(c) {where}")

    grades = np.array([float(nu) for nu in grades_exact])
    levels = tuple((float(nu), grades_exact.count(nu)) for nu in sorted(set(grades_exact)))
    # each entry's rank among the distinct entries, against V_j's weights
    distinct = sorted(set(entries))
    block_grades = W[sel] @ np.array([distinct.index(e) for e in entries])

    n_basis = algebra.basis[sel]

    # ad(V_i) restricted to n(c), adn[i][k, j] = c_{b_i b_j b_k}: an exact
    # block of the structure constants, read off the nonzeros c_{b_i b_j k},
    # whose k must not leave n(c)
    pos = np.full(algebra.dim, -1)
    pos[sel] = np.arange(n_dim)
    i, j, k, v = algebra.nonzeros
    inside = (pos[i] >= 0) & (pos[j] >= 0)
    i, j, k = pos[i[inside]], pos[j[inside]], pos[k[inside]]
    if np.any(k < 0):
        raise InconsistencyError(f"bracket of n(c) escapes n(c) {where}")
    # the bracket adds root weights: c_{b_i b_j b_k} != 0 only where code_k =
    # code_i + code_j.  nu_j and the block grade are linear in the weights,
    # so the bracket adds both gradings
    code = weight_code(W[sel])
    if np.any(code[k] != code[i] + code[j]):
        raise InconsistencyError(f"bracket violates the root-weight grading {where}")
    adn = np.zeros((n_dim, n_dim, n_dim))
    adn.transpose(0, 2, 1)[sel[:, None] > sel] = -0.0  # as in the dense c
    adn[i, k, j] = v[inside]

    data = HyperbolicData(
        algebra=algebra, c_entries=entries, c=c, z_indices=tuple(z_idx.tolist()), b_indices=b_indices,
        n_basis=n_basis, grades=grades, grades_exact=grades_exact, levels=levels,
        block_grades=block_grades, adn=adn,
    )
    data.N0 = nilpotency_index(data)
    return data


def _graded_index(data: HyperbolicData) -> int:
    """N0 = max(1, B - 1) for the top block grade B = s - 1 (s distinct entries of c), certified in integers.

    Upper bound: the bracket adds block grades (hyperbolic_data certifies
    that it adds root weights), so ad U raises the block grade by at least 1
    and (ad U)^B = 0 on grades 1 ... B.
    Lower bound, B >= 3: (ad U)^{B-1} X != 0 in int64 at U = (1, ..., 1):
    1 (1 + i over C) in every entry of n(c), and X the first V_j of block
    grade 1, that is one column of (sum_i adn[i])^{B-1}.  For X = E_ij joining
    the adjacent blocks a and a + 1 (by decreasing entry), only the term k = a
    of binom(B-1, k) (-1)^(B-1-k) U^k X U^(B-1-k) reaches the top block (rows
    of block 0, columns of block B), and only through U_1, U's part between
    adjacent blocks: it is +-binom(B-1, a) U_1^a X U_1^(B-1-a), whose every
    entry there is a positive count (times (1 + i)^(B-1)), so not zero.
    """
    nonzero = data.adn[data.adn.nonzero()]  # the signed zeros are integral
    if not np.array_equal(nonzero, np.rint(nonzero)):
        raise InconsistencyError(f"nilpotency_index: ad(n(c)) is not integral {data.where()}")
    B = int(data.block_grades.max())
    if B >= 3:
        ad_U = data.adn.sum(axis=0)
        row_sum = int(np.abs(ad_U).sum(axis=1).max())  # every partial sum of ad_U x is <= row_sum max|x|
        column = np.eye(data.n_dim, dtype=np.int64)[np.argmax(data.block_grades == 1)]  # first V_j of grade 1
        for _ in range(B - 1):
            if row_sum * int(np.abs(column).max()) >= 2**62:  # so the int64 product is exact
                raise ConfigurationError(f"nilpotency_index: int64 range exceeded {data.where()}")
            column = ad_U.astype(np.int64) @ column
        if not column.any():
            raise InconsistencyError(f"nilpotency_index: integer witness (ad U)^{B - 1} vanishes {data.where()}")
    return max(1, B - 1)


NILPOTENCY_SAMPLES = 20  # sampled elements U of the second route


def nilpotency_index(data: HyperbolicData) -> int:
    """Smallest positive N0 with (ad U)^{N0+1} = 0 on n(c) for all U in n(c).

    The exact route reads N0 off the block grading.  The second route samples
    U: (ad U)^{N0+1} vanishes on every sample and, for N0 > 1, (ad U)^{N0}
    does not vanish on all of them, both judged against |ad U|^power.
    """
    n0, n = _graded_index(data), data.n_dim
    # all samples in one draw, one row each; every ad U in one BLAS product, as the flow kernel forms it
    U = np.random.default_rng(20240801).standard_normal((NILPOTENCY_SAMPLES, n))
    A = (U @ data.adn.reshape(n, -1)).reshape(-1, n, n)
    top = np.max(np.abs(A), axis=(1, 2))
    low = np.linalg.matrix_power(A, n0)
    high, limit = np.max(np.abs(low @ A), axis=(1, 2)), 1e-12 * np.maximum(1.0, top ** (n0 + 1))
    raise_first(high > limit, lambda s: f"nilpotency_index: sampled power violates the nilpotency index "
                f"{data.where()}: |(ad U)^{n0 + 1}| = {high[s]:.2e} > {limit[s]:.2e}", InconsistencyError)
    value, limit = np.max(np.abs(low), axis=(1, 2)), 1e-12 * np.maximum(1.0, top**n0)
    s = int(np.argmax(value / limit))  # the sample nearest to reaching
    if n0 > 1 and value[s] / limit[s] <= 1:
        raise InconsistencyError(
            f"nilpotency_index: no sampled power reaches the nilpotency index {data.where()}, sample {s}: "
            f"largest |(ad U)^{n0}| = {value[s]:.2e} <= {limit[s]:.2e}"
        )
    return n0


def z_k_coords(data: HyperbolicData) -> np.ndarray:
    """Basis of the intersection of k with z(c): the compact stabilizer algebra."""
    return theta_rows(data.algebra, data.z_indices, 1)
