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
    z_indices: tuple[int, ...]    # algebra basis indices spanning z(c)
    b_indices: tuple[int, ...]    # algebra basis index of V_j, grade order
    n_basis: np.ndarray           # (n_dim, d, d)
    nbar_coords: np.ndarray       # coordinates of theta(V_j)
    grades: np.ndarray            # float eigenvalue of ad(c) on V_j
    grades_exact: tuple[Fraction, ...]
    levels: tuple[tuple[float, int], ...]   # distinct (nu_j, d_j), increasing
    blocks: tuple[np.ndarray, ...]          # V-indices per level
    # floor(nu_j / nu_1): the top power of t in coordinate j of a fiber flow (the bracket adds grades)
    graded_degrees: np.ndarray
    N0: int = 0
    adn: np.ndarray = field(default=None, repr=False)  # adn[i] = ad(V_i) on n-coords

    @property
    def n_dim(self) -> int:
        return len(self.b_indices)

    @property
    def p_filtration_coords(self) -> np.ndarray:
        """Basis of P(c) = z(c) + n(c) as coordinate vectors."""
        idx = list(self.z_indices) + list(self.b_indices)
        return np.eye(self.algebra.dim)[idx]

    def n_coords_of(self, X: np.ndarray, strict: float | None = None) -> np.ndarray:
        """Coordinates v of X in the V-basis of n(c), over any leading batch axes; with strict,
        each element's part outside n(c) must be within strict max(1, max|v|) of its own v."""
        full = self.algebra.coords(X)
        v = full[..., list(self.b_indices)]
        if strict is not None:
            rest = full.copy()
            rest[..., list(self.b_indices)] = 0.0
            outside = np.maximum(np.max(np.abs(rest), axis=-1), self.algebra.span_residual(X))
            bound = strict * np.maximum(1.0, np.max(np.abs(v), axis=-1))
            raise_first(
                outside > bound, lambda i: f"element has a component outside n(c) ({outside[i]:.2e})", ValueError
            )
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
    # alpha(c) for every root, exactly: integer weights against the entries
    # brought to one common denominator
    den = math.lcm(*(e.denominator for e in entries))
    weights = np.stack([root.weights for root in rs.roots]).astype(object)
    alpha = weights @ np.array([int(e * den) for e in entries], dtype=object)
    positive = {id(root) for root in positive_system(rs)}
    if any(a < 0 for root, a in zip(rs.roots, alpha) if id(root) in positive):
        raise ConfigurationError(
            "element lies outside the closed positive chamber; "
            "sort the entries with chamber_sort first"
        )

    c = algebra.element_from_entries(entries)
    z_idx: list[int] = rs.zero_indices.tolist()
    graded: list[tuple[Fraction, int]] = []
    for root, a in zip(rs.roots, alpha):
        members = root.members.tolist()
        if a == 0:
            z_idx.extend(members)
        elif a > 0:
            nu = Fraction(a, den)
            graded.extend((nu, b) for b in members)
    z_idx.sort()
    # within an eigenvalue, the fixed basis enumeration orders the roots
    graded.sort(key=lambda t: (t[0], t[1]))
    b_indices = tuple(b for (_, b) in graded)
    grades_exact = tuple(nu for (nu, _) in graded)
    n_dim = len(b_indices)
    chamber = tuple(str(e) for e in entries)
    if 2 * n_dim != algebra.dim - len(z_idx):
        raise InconsistencyError(f"n(c) does not have half the dimension of g/z(c) at c = {chamber}")

    grades = np.array([float(nu) for nu in grades_exact])
    levels: list[tuple[float, int]] = []
    blocks: list[np.ndarray] = []
    for nu in sorted(set(grades_exact)):
        idx = np.array([j for j, g in enumerate(grades_exact) if g == nu], dtype=int)
        levels.append((float(nu), len(idx)))
        blocks.append(idx)

    n_basis = algebra.basis[list(b_indices)]
    Th = algebra.theta_matrix
    nbar_coords = Th[:, list(b_indices)].T + 0.0  # + 0.0: no signed zeros, as from Th @ e_b

    # ad(V_i) restricted to n(c), adn[i][k, j] = c_{b_i b_j b_k}: an exact
    # block of the structure constants, which must not leave n(c)
    sel = list(b_indices)
    pairs = algebra.structure[np.ix_(sel, sel)]
    adn = np.ascontiguousarray(pairs[:, :, sel].transpose(0, 2, 1))
    if np.any(np.delete(pairs, sel, axis=2) != 0):
        raise InconsistencyError(f"bracket of n(c) escapes n(c) at c = {chamber}")
    # grading: nonzero entries only where grade_k = grade_i + grade_j, decided
    # on the grades brought to one integer denominator
    den = math.lcm(*(nu.denominator for nu in grades_exact))
    g = np.array([int(nu * den) for nu in grades_exact])
    off_grade = g[None, :, None] != g[:, None, None] + g[None, None, :]
    if np.any((adn != 0) & off_grade):
        raise InconsistencyError(f"bracket violates the eigenvalue grading at c = {chamber}")

    data = HyperbolicData(
        algebra=algebra,
        rs=rs,
        c_entries=entries,
        c=c,
        z_indices=tuple(z_idx),
        b_indices=b_indices,
        n_basis=n_basis,
        nbar_coords=nbar_coords,
        grades=grades,
        grades_exact=grades_exact,
        levels=tuple(levels),
        blocks=tuple(blocks),
        graded_degrees=np.array([int(nu / grades_exact[0]) for nu in grades_exact]),
    )
    data.adn = adn
    data.N0 = nilpotency_index(data)
    return data


def _symbolic_powers(adn: np.ndarray):
    """Yield (ad U)^q on n(c) for q = 1, 2, ..., as polynomials in U.

    (ad U)^q is the sum over sorted index tuples m of U^m P_m, where P_m sums
    adn[i_1] ... adn[i_q] over the distinct orderings of m.  Each power is a
    dict m -> P_m that keeps only the nonzero P_m, so the empty dict means
    (ad U)^q = 0 identically in U.  The entries are integer structure
    constants and the P_m are int64, so the decision is exact.
    """
    gens = adn.astype(np.int64)
    rows = gens.any(axis=2)          # rows[i, k]: adn[i] has a nonzero row k
    power = {(): np.eye(adn.shape[0], dtype=np.int64)}
    while True:
        # (ad U)^q = (ad U)^{q-1} ad U: the orderings of a monomial are those
        # of each of its one-shorter monomials with the remaining index last;
        # only the nonzero columns of P_m and the generators they meet count
        nxt: dict[tuple[int, ...], np.ndarray] = {}
        for m, P in power.items():
            cols = np.flatnonzero(P.any(axis=0))
            meets = np.flatnonzero(rows[:, cols].any(axis=1))
            for i, Q in zip(meets, P[:, cols] @ gens[meets][:, cols, :]):
                key = tuple(sorted(m + (int(i),)))
                nxt[key] = nxt[key] + Q if key in nxt else Q
        power = {m: P for m, P in nxt.items() if P.any()}
        yield power


NILPOTENCY_SAMPLES = 20  # sampled elements U of the second route


def nilpotency_index(data: HyperbolicData) -> int:
    """Smallest positive N0 with (ad U)^{N0+1} = 0 on n(c) for all U in n(c)."""
    chamber = tuple(str(e) for e in data.c_entries)
    if not np.array_equal(data.adn, np.rint(data.adn)):
        raise InconsistencyError(f"nilpotency_index: ad(n(c)) is not integral at c = {chamber}")
    nu1, nup = data.min_grade, data.max_grade
    floor_bound = int(nup / nu1)
    # ad U raises the level, so a chain through the s levels vanishes at
    # power s; the search reaches the lower of the two grading bounds
    limit = min(floor_bound, len(data.levels)) + 1
    # every entry of every partial sum of power q is at most an entry of
    # (sum_i |adn[i]|)^q, so this bound, in exact ints, keeps int64 exact
    row_sum = max(1, int(np.max(np.abs(data.adn).sum(axis=(0, 2)))))
    powers = _symbolic_powers(data.adn)
    n0 = None
    for q in range(1, limit + 1):
        if row_sum**q >= 2**62:
            raise ConfigurationError(f"nilpotency_index: int64 range exceeded at c = {chamber}")
        if not next(powers) and q > 1:
            n0 = q - 1
            break
    if n0 is None:
        # (m+2) nu_1 > nu_p already forces vanishing at m = floor_bound
        raise InconsistencyError(f"nilpotency search exceeded the grading bound at c = {chamber}")
    # second route: sampled (ad U)^{N0+1} vanishes, and for N0 > 1 some
    # sampled (ad U)^{N0} does not, both judged against |ad U|^power
    rng = np.random.default_rng(20240801)
    reached = n0 == 1
    for _ in range(NILPOTENCY_SAMPLES):
        U = rng.standard_normal(data.n_dim)
        A = np.einsum("i,ikj->kj", U, data.adn)
        top = float(np.max(np.abs(A)))
        low = np.linalg.matrix_power(A, n0)
        if np.max(np.abs(low @ A)) > 1e-12 * max(1.0, top ** (n0 + 1)):
            raise InconsistencyError(f"sampled power violates the nilpotency index at c = {chamber}")
        reached = reached or np.max(np.abs(low)) > 1e-12 * max(1.0, top**n0)
    if not reached:
        raise InconsistencyError(f"no sampled power reaches the nilpotency index at c = {chamber}")
    return n0


def z_k_coords(data: HyperbolicData) -> np.ndarray:
    """Basis of the intersection of k with z(c): the compact stabilizer algebra."""
    return theta_rows(data.algebra, data.z_indices, 1)
