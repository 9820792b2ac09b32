"""Matrix models of sl(n, R) and of sl(n, C) viewed as a real Lie algebra.

Every algebra element is a d x d real matrix (d = n over R, d = 2n for the
block embedding [[X, -Y], [Y, X]] of a complex matrix X + iY).  The basis is
fixed once per algebra -- diagonal Cartan part first, then off-diagonal root
vectors in row-major order of their matrix position -- so structure constants,
Killing matrices and every downstream fixture are reproducible byte for byte.

The structure constants are kept as their sorted nonzeros, which every certificate
reads; the dense dim^3 view, built on its first read, serves the fixture alone (their
contractions for Omega and ad are references in tests/oracles.py).

The Killing form is always computed as trace(ad X . ad Y) from the structure
constants.  The closed multiple of trace(XY) valid for sl is reserved for
test oracles; the complex trace form appears only in the realified-vs-complex
comparison.  The Cartan involution theta(X) = -X^T and, over C, the complex
structure J are each kept as one signed permutation of the basis, read off
the matrix model; the build certifies the bracket theta-invariant and J-linear
at the nonzero entries of c, each map's square folded in, and then Jacobi on
one basis vector per J-orbit.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from numbers import Rational
from typing import Callable, Sequence

import numpy as np

# Three of the four tolerance classes; cli.DEFAULT_TOLERANCES reads them and adds the FD class.
TOL_STRUCT = 1e-10   # exact algebraic identities
TOL_DECOMP = 1e-9    # decompositions that involve orthonormalization
TOL_EIGEN = 1e-8     # spectral quantities: singular values, Killing conditioning, oracle gaps


class ConfigurationError(ValueError):
    """Unsupported family/field, malformed input, or violated precondition."""


class DecompositionError(RuntimeError):
    """A matrix factorization failed or its reconstruction residual is too large."""


class InconsistencyError(RuntimeError):
    """Two supposedly equivalent computations disagree (internal bug guard)."""


@dataclass(frozen=True)
class AlgebraSpec:
    """Which algebra to build: the sl family over R or realified C."""

    family: str = "sl"
    n: int = 2
    field: str = "R"

    def __post_init__(self):
        if self.family != "sl":
            raise ConfigurationError(f"unsupported family {self.family!r}")
        if self.field not in ("R", "C"):
            raise ConfigurationError(f"unsupported base field {self.field!r}")
        if self.n < 2:
            raise ConfigurationError("matrix size must be at least 2")

    @property
    def dim(self) -> int:
        d = self.n * self.n - 1
        return 2 * d if self.field == "C" else d

    @property
    def matrix_size(self) -> int:
        return 2 * self.n if self.field == "C" else self.n


def embed_complex(Z: np.ndarray) -> np.ndarray:
    """Real 2n x 2n embedding of a complex n x n matrix, over any leading batch axes."""
    Z = np.asarray(Z, dtype=complex)
    n = Z.shape[-1]
    out = np.empty(Z.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = out[..., n:, n:] = Z.real
    out[..., :n, n:] = -Z.imag
    out[..., n:, :n] = Z.imag
    return out


def extract_complex(M: np.ndarray) -> np.ndarray:
    """Left inverse of embed_complex; projects onto the complex-linear part."""
    n = M.shape[-1] // 2
    A, B = M[..., :n, :n], M[..., :n, n:]
    C, D = M[..., n:, :n], M[..., n:, n:]
    return (A + D) / 2.0 + 1j * (C - B) / 2.0


class MatrixLieAlgebra:
    """sl(n) in a fixed basis, with structure constants and Killing data.

    nonzeros = (i, j, k, value) lists every nonzero structure constant
    c_ijk, [b_i, b_j] = sum_k c_ijk b_k, sorted in C order of (i, j, k).
    Construction is deterministic; instances are immutable by convention and
    safe to share across threads.
    """

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self.n = spec.n
        self.d = spec.matrix_size
        self.dim = spec.dim
        self.is_complex = spec.field == "C"
        # row and column index arrays of the off-diagonal positions, basis order
        self._rows, self._cols = np.nonzero(~np.eye(self.n, dtype=bool))
        self.basis = self._build_basis()
        self.J = embed_complex(1j * np.eye(self.n)) if self.is_complex else None
        self.nonzeros = self._structure_constants()
        # B_ij = tr(ad_i ad_j) = sum_ab c[i, b, a] c[j, a, b]: each nonzero (i, b, a) joined with every
        # nonzero (j, a, b); the integer sums are exact in any order
        (i, j, k, v), dim = self.nonzeros, self.dim
        by_jk = np.argsort(j * dim + k)
        p, q = _join((j * dim + k)[by_jk], k * dim + j, dim * dim)
        q = by_jk[q]
        self.killing_matrix = np.bincount(i[p] * dim + i[q], weights=v[p] * v[q], minlength=dim * dim).reshape(dim, dim)
        # theta(b_k) = theta_sign[k] b_theta_perm[k] and J(b_k) = j_sign[k] b_j_perm[k], read off the matrix model
        self.theta_perm, self.theta_sign = signed_permutation(self.coords(self.theta(self.basis)).T, "theta")
        self.j_perm = self.j_sign = None
        if self.is_complex:
            self.j_perm, self.j_sign = signed_permutation(self.coords(self.J @ self.basis).T, "J")
        # -B(b_i, theta b_k) = -s_k K[i, pi(k)], in C order (the BLAS kernels of later products) and no -0.0
        self.inner_matrix = np.ascontiguousarray(-self.killing_matrix[:, self.theta_perm] * self.theta_sign + 0.0)
        self.build_residuals = self._validate()

    # -- basis and coordinates -------------------------------------------

    def _build_basis(self) -> np.ndarray:
        return self.from_coords(np.eye(self.dim))

    def coords(self, X: np.ndarray) -> np.ndarray:
        """Coordinates of X in the fixed basis, over any leading batch axes.

        Valid for any X in the span; components orthogonal to the span (e.g.
        a trace part, or the conjugate-linear part in the realified case) are
        silently projected away.
        """
        X = np.asarray(X, dtype=float)
        if X.shape[-2:] != (self.d, self.d):
            raise ValueError(f"dimension mismatch: expected (..., {self.d}, {self.d}), got {X.shape}")
        n = self.n
        Z = extract_complex(X) if self.is_complex else X
        diag = np.diagonal(Z, axis1=-2, axis2=-1)
        diag = diag - diag.sum(axis=-1, keepdims=True) / n
        a = np.cumsum(diag, axis=-1)[..., : n - 1]
        off = Z[..., self._rows, self._cols]
        if not self.is_complex:
            return np.concatenate([a, off], axis=-1)
        out = np.empty(X.shape[:-2] + (self.dim,))
        r = n - 1
        out[..., :r] = a.real
        out[..., r : 2 * r] = a.imag
        out[..., 2 * r :: 2] = off.real
        out[..., 2 * r + 1 :: 2] = off.imag
        return out

    def from_coords(self, x: np.ndarray) -> np.ndarray:
        """Inverse of coords, over any leading batch axes."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"dimension mismatch: expected (..., {self.dim}), got {x.shape}")
        n = self.n
        r = n - 1
        if not self.is_complex:
            a = x[..., :r]
            off = x[..., r:]
        else:
            a = x[..., :r] + 1j * x[..., r : 2 * r]
            off = x[..., 2 * r :: 2] + 1j * x[..., 2 * r + 1 :: 2]
        Z = np.zeros(x.shape[:-1] + (n, n), dtype=a.dtype)
        # diagonal entries a_k - a_{k-1} (a_{-1} = 0), and -a_{r-1} last
        Z[..., np.arange(r), np.arange(r)] = a
        Z[..., np.arange(1, r), np.arange(1, r)] -= a[..., :-1]
        Z[..., r, r] = -a[..., r - 1]
        Z[..., self._rows, self._cols] = off
        return embed_complex(Z) if self.is_complex else Z

    # -- algebraic operations ---------------------------------------------

    def bracket(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """[X, Y] = XY - YX, over leading batch axes that X and Y share."""
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if X.shape[-2:] != (self.d, self.d) or X.shape != Y.shape:
            raise ValueError(f"dimension mismatch in bracket: {X.shape} and {Y.shape}")
        return X @ Y - Y @ X

    def theta(self, X: np.ndarray) -> np.ndarray:
        """Cartan involution; -X^T realizes it for both supported families."""
        return -np.swapaxes(np.asarray(X, dtype=float), -1, -2)

    def ad_matrix_of(self, X: np.ndarray) -> np.ndarray:
        """Matrix of ad(X) on coordinates, column j that of [X, b_j]; over leading batch axes."""
        X = np.asarray(X, dtype=float)[..., None, :, :]
        return np.swapaxes(self.coords(X @ self.basis - self.basis @ X), -1, -2)

    def element_from_entries(self, entries: Sequence) -> np.ndarray:
        """Diagonal algebra element from its (traceless) diagonal entries."""
        if len(entries) != self.n:
            raise ConfigurationError(f"expected {self.n} diagonal entries")
        if not traceless(entries):
            raise ConfigurationError("diagonal entries must sum to zero")
        vals = [complex(e) for e in entries]
        if self.is_complex:
            return embed_complex(np.diag(np.array(vals, dtype=complex)))
        if any(abs(v.imag) > 0 for v in vals):
            raise ConfigurationError("complex entries require the realified family")
        return np.diag(np.array([v.real for v in vals]))

    # -- internal consistency ----------------------------------------------

    def _structure_constants(self) -> tuple[np.ndarray, ...]:
        # c[i, j] (i < j) sums B_i[a, k] B_j[k, b] L[ab] over basis entries that share k, negated
        # where the product is B_j B_i; L[ab] = coords(2n E_ab) is integral, so the sums are exact
        dim, d, two_n = self.dim, self.d, 2 * self.n
        B = self.basis
        i, a, k = _nonzero(B)
        k2, j, b = _nonzero(B.transpose(1, 0, 2))  # sorted by the row k
        p, q = _join(k2, k, d)
        keep = i[p] != j[q]
        p, q = p[keep], q[keep]
        i, j, ab = i[p], j[q], a[p] * d + b[q]
        prod = B[i, a[p], k[p]] * B[j, k2[q], b[q]] * np.sign(j - i)
        L = self.coords(two_n * np.eye(d * d).reshape(d * d, d, d))
        ab2, m = _nonzero(L)
        p, q = _join(ab2, ab, d * d)
        key = (np.minimum(i, j)[p] * dim + np.maximum(i, j)[p]) * dim + m[q]
        key, slot = np.unique(key, return_inverse=True)
        vals = np.bincount(slot, weights=prod[p] * L[ab2[q], m[q]]) / two_n
        # the exact checks read c as int64
        if not np.array_equal(vals, np.rint(vals)):
            raise InconsistencyError(f"build_algebra: structure constants of {self.spec} are not integers")
        # c[j, i] = -c[i, j]: both halves of the nonzero entries, sorted in C order of (i, j, k)
        nz = vals != 0
        i, j, k = np.unravel_index(key[nz], (dim, dim, dim))
        order = np.argsort(np.concatenate([key[nz], (j * dim + i) * dim + k]))
        return read_only(tuple(np.concatenate(pair)[order] for pair in ((i, j), (j, i), (k, k), (vals[nz], -vals[nz]))))

    @functools.cached_property
    def structure(self) -> np.ndarray:
        """The dense c[i, j, k], scattered from nonzeros on its first read; read-only, and -0.0 on
        every zero where i > j, as the fixtures hold it.  Only the fixture reads it."""
        dim = self.dim
        c = np.zeros((dim, dim, dim))
        c[np.tril_indices(dim, -1)] = -0.0
        i, j, k, v = self.nonzeros
        c[i, j, k] = v
        return read_only(c)

    @functools.cached_property
    def killing_dual(self) -> np.ndarray:
        """The (d^2, dim) rows coords(E_ab) K, read-only, built on its first read: coords is linear, so
        B(w, Z) = sum_ab W_ab Z_ab for Z in the algebra, W = killing_dual . w read as d x d."""
        eye = np.eye(self.d * self.d)
        return read_only(self.coords(eye.reshape(-1, self.d, self.d)) @ self.killing_matrix)

    def _validate(self) -> dict:
        linear, rep = {}, None
        if self.is_complex:
            # with the bracket J-linear, Jacobi on one index per J-orbit is Jacobi on every triple
            linear["complex_linearity"] = float(complex_linearity_residual(self.nonzeros, self.j_perm, self.j_sign))
            rep = self.j_perm > np.arange(self.dim)
        jacobi = float(jacobi_residual(self.nonzeros, rep))
        K = self.killing_matrix
        k_sym = float(np.max(np.abs(K - K.T)))
        ev = np.linalg.eigvalsh((K + K.T) / 2)
        k_cond = float(np.min(np.abs(ev)) / np.max(np.abs(ev)))
        perm, s = self.theta_perm, self.theta_sign
        res = {
            "jacobi": jacobi,
            "killing_symmetry": k_sym,
            "killing_condition": k_cond,
            "theta_involution": float(_square_defect(perm, s, 1)),
            # (Th^T K Th)_ij = s_i s_j K_pi(i)pi(j): exact on the signs
            "theta_isometry": float(np.max(np.abs(np.outer(s, s) * K[np.ix_(perm, perm)] - K))),
            "theta_automorphism": float(theta_automorphism_residual(self.nonzeros, perm, s)),
            **linear,
        }
        worst = max(v for key, v in res.items() if key != "killing_condition")
        if worst > TOL_STRUCT or k_cond < TOL_EIGEN:
            raise InconsistencyError(f"algebra failed structural self-checks: {res}")
        return res


def traceless(entries: Sequence) -> bool:
    """Whether diagonal entries sum to zero: exactly when every entry is rational,
    else the float sum within 1e-12 max(1, max|entry|), the rounding scale of the entries."""
    if all(isinstance(e, Rational) for e in entries):
        return sum(entries) == 0
    vals = [complex(e) for e in entries]
    return abs(sum(vals)) <= 1e-12 * max(1.0, *(abs(v) for v in vals))


def _nonzero(c: np.ndarray) -> tuple[np.ndarray, ...]:
    """np.nonzero(c) in C order, through a flat boolean mask (several times faster on dense floats)."""
    return np.unravel_index(np.flatnonzero(c != 0), c.shape)


def _join(first: np.ndarray, key: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (p, q) with key[p] == first[q], for sorted first and values below size."""
    count = np.bincount(first, minlength=size)
    start = np.cumsum(count) - count  # where each value's block of first begins
    reps = count[key]
    p = np.repeat(np.arange(len(key)), reps)
    q = np.arange(len(p)) + np.repeat(start[key] - np.cumsum(reps) + reps, reps)
    return p, q


def _lookup(key: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """values[p] where key[p] == at, else 0, for a sorted key with no repeats."""
    p = np.minimum(np.searchsorted(key, at), len(key) - 1)
    return np.where(key[p] == at, values[p], 0)


def jacobi_residual(nonzeros: tuple[np.ndarray, ...], rep: np.ndarray | None = None) -> int:
    """max over all (i, j, k, l) of |sum_m c_ijm c_mkl + c_jkm c_mil + c_kim c_mjl|.

    c is given by its nonzeros, sorted as MatrixLieAlgebra.nonzeros holds them.
    Exact for integer-valued c antisymmetric in (i, j), without the dim^4
    tensor: the sum is then totally antisymmetric in (i, j, k), so each
    nonzero entry (a, b, m) with a < b is joined in int64 with every nonzero
    entry (m, k, l), k not in {a, b}, and the product goes to the increasing
    triple of {a, b, k} and l, negated when a < k < b.  The contributions are
    summed per index after one sort of index and product packed in one int64.
    The defect max |c_ijm + c_jim| is folded in, so a c that is not
    antisymmetric is refused as well.

    A boolean mask rep restricts i, j and k (so a, b and k) to its indices.
    Where c is J-linear (complex_linearity_residual exactly 0) and rep holds
    one index per J-orbit, the maximum is still that over all (i, j, k, l):
    the Jacobi sum is J-linear in each of i, j and k, so every triple's sums
    are a signed permutation of a masked triple's, or 0 where two of its
    indices share an orbit.
    """
    i, j, m, v = nonzeros
    dim = 1 + int(max(x.max(initial=0) for x in (i, j, m)))
    v = v.astype(np.int64)
    defect = int(np.max(np.abs(v + _lookup((i * dim + j) * dim + m, v, (j * dim + i) * dim + m)), initial=0))
    up, part = i < j, slice(None)
    if rep is not None:
        up, part = up & rep[i] & rep[j], rep[j]
    up = np.flatnonzero(up)
    pk, pl, pv = j[part], m[part], v[part]
    p, q = _join(i[part], m[up], dim)       # partners (m, k, l) = (i, pk, pl)[part][q] of entry (a, b, m)
    keep = (pk[q] != i[up[p]]) & (pk[q] != j[up[p]])
    p, q = up[p[keep]], q[keep]
    a, b, k = i[p], j[p], pk[q]
    lo, hi = np.minimum(a, k), np.maximum(b, k)
    key = ((lo * dim + a + b + k - lo - hi) * dim + hi) * dim + pl[q]
    prod = np.where((a < k) & (k < b), -1, 1) * v[p] * pv[q]
    w = int(np.max(np.abs(prod), initial=0)).bit_length() + 1
    packed = np.sort((key << w) + prod + (1 << (w - 1)))
    sums = np.add.reduceat((packed & ((1 << w) - 1)) - (1 << (w - 1)), np.flatnonzero(np.diff(packed >> w, prepend=-1)))
    return max(defect, int(np.max(np.abs(sums), initial=0)))


def signed_permutation(M: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(pi, s) with M e_k = s_k e_pi(k), for the map called name; raises unless M is a signed
    permutation matrix."""
    dim = M.shape[0]
    perm = np.argmax(np.abs(M), axis=0)
    s = M[perm, np.arange(dim)]
    if np.count_nonzero(M) != dim or not np.all(np.abs(s) == 1) or len(set(perm.tolist())) != dim:
        raise InconsistencyError(f"build_algebra: {name} is not a signed permutation of the basis")
    return perm, s


def _square_defect(perm: np.ndarray, sign: np.ndarray, square: int) -> int:
    """max |s_k s_pi(k) - square| where pi(pi(k)) = k, and 1 where not: 0 exactly when (pi, s)^2 = square."""
    return int(np.max(np.where(perm[perm] == np.arange(len(perm)), np.abs(sign * sign[perm] - square), 1)))


def _permuted_residual(nonzeros: tuple[np.ndarray, ...], maps) -> int:
    """max over the nonzero entries (i, j, k) of c of |c_ijk - t_i u_j w_k c_p(i)q(j)r(k)|, for signed
    permutations maps = ((p, t), (q, u), (r, w)) of the three slots; exact for integer-valued c.

    For involutions p, q, r it is the max over all (i, j, k): an entry where only the permuted copy
    is nonzero maps to one of c's, where the same difference is read.  Callers fold that square test in.
    """
    (p, t), (q, u), (r, w) = maps
    i, j, k, v = nonzeros
    dim = len(p)
    there = _lookup((i * dim + j) * dim + k, v, (p[i] * dim + q[j]) * dim + r[k])
    # integers and signs: every float operation here is exact
    return int(np.max(np.abs(v - t[i] * u[j] * w[k] * there), initial=0))


def theta_automorphism_residual(nonzeros: tuple[np.ndarray, ...], perm: np.ndarray, sign: np.ndarray) -> int:
    """max over (i, j) of |theta [b_i, b_j] - [theta b_i, theta b_j]| in coordinates, theta b_k = sign_k b_perm(k).

    Exact for integer-valued c, given by its nonzeros as in jacobi_residual, with no dim^3
    product: at (i, j, perm(k)) it is |c_ijk - sign_i sign_j sign_k c_perm(i)perm(j)perm(k)|
    (_permuted_residual), read at the nonzeros of c only; theta^2 = 1 is folded in and makes that exact.
    """
    return max(_square_defect(perm, sign, 1), _permuted_residual(nonzeros, ((perm, sign),) * 3))


def complex_linearity_residual(nonzeros: tuple[np.ndarray, ...], perm: np.ndarray, sign: np.ndarray) -> int:
    """max over (i, j) of |[J b_i, b_j] - J [b_i, b_j]| in coordinates, for J b_k = sign_k b_perm(k).

    Exact for integer-valued c, given by its nonzeros as in jacobi_residual:
    at (i, j, perm(k)) it is |c_ijk - sign_i sign_k c_perm(i)j perm(k)|
    (_permuted_residual), read at the nonzeros of c only; with c antisymmetric,
    linearity in the first slot gives it in the second.  J^2 = -1 is folded in and
    makes that exact, and so perm pairs the basis and perm[k] > k picks one index per J-orbit.
    """
    identity = (np.arange(len(perm)), np.ones(len(perm)))
    return max(_square_defect(perm, sign, -1), _permuted_residual(nonzeros, ((perm, sign), identity, (perm, sign))))


def build_algebra(spec: AlgebraSpec) -> MatrixLieAlgebra:
    return MatrixLieAlgebra(spec)


def killing_compare_realified(algebra: MatrixLieAlgebra) -> float:
    """max |B_R(b_i, b_j) - 2 Re B_C(b_i, b_j)| over basis pairs."""
    if not algebra.is_complex:
        raise ConfigurationError("realified comparison needs a complex-realified algebra")
    Zs = extract_complex(algebra.basis)
    Bc = 2 * algebra.n * np.einsum("iab,jba->ij", Zs, Zs)
    return float(np.max(np.abs(algebra.killing_matrix - 2 * Bc.real)))


def complex_trace_form(algebra: MatrixLieAlgebra, X: np.ndarray, Y: np.ndarray):
    """Complex Killing form 2n tr(Z_X Z_Y), over leading batch axes; only meaningful on realified algebras."""
    if not algebra.is_complex:
        raise ConfigurationError("complex trace form needs a complex-realified algebra")
    return 2 * algebra.n * np.trace(extract_complex(X) @ extract_complex(Y), axis1=-2, axis2=-1)


# -- Cartan decomposition ----------------------------------------------------


@dataclass(eq=False)  # hashed by identity, so per_instance can key on it
class CartanSplit:
    """g = k + p with the positive definite inner product -B(X, theta Y)."""

    k_coords: np.ndarray
    p_coords: np.ndarray
    k_basis: np.ndarray
    p_basis: np.ndarray


def theta_rows(algebra: MatrixLieAlgebra, indices, sign: int) -> np.ndarray:
    """Rows e_i + sign theta(e_i) that span the sign-eigenspace of theta on span{e_i : i in indices}.

    theta(e_i) = s_i e_pi(i) pairs the basis, so i is kept when pi(i) > i (the
    first of its pair), or when pi(i) = i and s_i = sign; the decision is
    exact.  The index set must be theta-stable.
    """
    idx = np.asarray(indices, dtype=int)
    perm, s = algebra.theta_perm, algebra.theta_sign
    inside = np.zeros(algebra.dim, dtype=bool)
    inside[idx] = True
    if not inside[perm[idx]].all():
        raise InconsistencyError("theta_rows: the index set is not theta-stable")
    keep = idx[(perm[idx] > idx) | ((perm[idx] == idx) & (s[idx] == sign))]
    rows = np.zeros((len(keep), algebra.dim))
    rows[np.arange(len(keep)), keep] = 1.0
    rows[np.arange(len(keep)), perm[keep]] += sign * s[keep]
    return rows


def cartan_split(algebra: MatrixLieAlgebra) -> CartanSplit:
    every = np.arange(algebra.dim)
    k_coords = theta_rows(algebra, every, 1)
    p_coords = theta_rows(algebra, every, -1)
    if len(k_coords) + len(p_coords) != algebra.dim:
        raise InconsistencyError("Cartan eigenspaces do not fill the algebra")
    try:
        np.linalg.cholesky((algebra.inner_matrix + algebra.inner_matrix.T) / 2)
    except np.linalg.LinAlgError as exc:
        raise InconsistencyError("inner product is not positive definite") from exc
    return CartanSplit(k_coords, p_coords, algebra.from_coords(k_coords), algebra.from_coords(p_coords))


# -- group elements and decompositions ----------------------------------------


@dataclass(frozen=True, eq=False)
class GroupElement:
    matrix: np.ndarray


def in_K_residual(algebra: MatrixLieAlgebra, g: np.ndarray) -> float:
    """How far g is from K, as the max over any leading batch axes."""
    r = float(np.max(np.abs(g.mT @ g - np.eye(algebra.d))))
    if algebra.is_complex:
        r = max(r, float(np.max(np.abs(g @ algebra.J - algebra.J @ g))))
    return r


def exp_series(M: np.ndarray, terms: int) -> np.ndarray:
    """Sum of M^k / k! for k <= terms over leading batch axes, cut at the first exactly zero term."""
    out = term = np.eye(M.shape[-1]) + np.zeros(M.shape)
    for k in range(1, terms + 1):
        term = term @ M / k
        if not term.any():
            break
        out = out + term
    return out


def expm(M: np.ndarray) -> np.ndarray:
    """exp(M) over leading batch axes by scaling and squaring (Moler & Van Loan, SIAM Rev. 45, 2003):
    18 terms on M / 2^s, |M / 2^s|_1 <= 1, with s per matrix, so no result depends on its batch-mates."""
    mant, e = np.frexp(np.max(np.sum(np.abs(M), axis=-2), axis=-1, initial=0.0))
    s = np.maximum(e - (mant == 0.5), 0)
    X = exp_series(M / 2.0 ** s[..., None, None], 18)
    for j in range(int(np.max(s, initial=0))):
        X = np.where((j < s)[..., None, None], X @ X, X)
    return X


def _as_matrix(g) -> np.ndarray:
    return g.matrix if isinstance(g, GroupElement) else np.asarray(g, dtype=float)


def raise_first(bad: np.ndarray, message: Callable[[tuple], str], error: type = DecompositionError) -> None:
    """Raise error(message(i)) at the first batch index i where bad holds, naming i in a batch."""
    if bad.any():
        i = tuple(int(x) for x in np.argwhere(bad)[0])
        raise error(message(i) + (f" at point {i}" if i else ""))


def read_only(obj):
    """Mark every ndarray reachable from obj (through attributes, lists, tuples and dicts) read-only."""
    if isinstance(obj, np.ndarray):
        obj.setflags(write=False)
    elif isinstance(obj, (list, tuple, dict)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            read_only(item)
    elif hasattr(obj, "__dict__"):
        read_only(vars(obj))
    return obj


KEPT = {"builds": 0, "s": 0.0, "depth": 0}  # per_instance's outermost builds and their seconds, this process


def per_instance(build):
    """build(obj, *key) once per obj and key, kept in obj._kept with its arrays read-only; a
    dataclasses.replace'd obj starts with nothing kept, and nothing is kept where build raises."""

    @functools.wraps(build)
    def kept(obj, *key):
        store, k = obj._kept, (build,) + key if key else build
        try:
            return store[k]
        except KeyError:
            pass
        t0, KEPT["depth"] = time.perf_counter(), KEPT["depth"] + 1
        try:
            store[k] = value = read_only(build(obj, *key))
        finally:
            KEPT["depth"] -= 1
            if not KEPT["depth"]:
                KEPT["builds"], KEPT["s"] = KEPT["builds"] + 1, KEPT["s"] + time.perf_counter() - t0
        return value

    return kept


def positive_qr(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z = q r over leading batch axes, with the phases of diag r moved into q so that r has a
    positive diagonal: the convention that makes K representatives canonical.  A zero pivot
    keeps a zero row of r (and a zero column of q)."""
    q, r = np.linalg.qr(Z)
    dg = np.diagonal(r, axis1=-2, axis2=-1)
    u = dg / np.where(dg == 0, 1.0, np.abs(dg))
    return q * u[..., None, :], np.conj(u)[..., :, None] * r


def iwasawa_decompose(algebra: MatrixLieAlgebra, g) -> tuple[GroupElement, GroupElement, GroupElement]:
    """g = k a n with k in K, a positive diagonal, n upper unitriangular.

    Realized by positive_qr over the base field (the complex matrix for the
    realified family), so that a is positive.
    Leading axes of g batch over points, and every check is judged per
    point: det g = 1 at det's rounding scale, a few eps times the Hadamard
    bound prod |g_col|, and the reconstruction against max |g|, so large
    valid elements pass while non-special and singular ones do not.
    """
    G = _as_matrix(g)
    if G.shape[-2:] != (algebra.d, algebra.d):
        raise ValueError("dimension mismatch in iwasawa_decompose")
    embed = embed_complex if algebra.is_complex else np.asarray
    Z = extract_complex(G) if algebra.is_complex else G
    det = np.linalg.det(Z)
    hadamard = np.prod(np.linalg.norm(Z, axis=-2), axis=-1)
    raise_first(
        np.abs(det - 1.0) > TOL_DECOMP + 8 * algebra.d * np.finfo(float).eps * hadamard,
        lambda i: f"iwasawa_decompose: input is not special (det = {complex(det[i])})",
    )
    q, r = positive_qr(Z)
    avec = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    raise_first(np.min(avec, axis=-1) < 1e-12, lambda i: "iwasawa_decompose: singular input")
    kmat = embed(q)
    amat = embed(avec[..., None] * np.eye(algebra.n))
    nmat = embed(r / avec[..., :, None])
    resid = np.max(np.abs(kmat @ amat @ nmat - G), axis=(-2, -1))
    limit = TOL_DECOMP * np.maximum(1.0, np.max(np.abs(G), axis=(-2, -1)))
    raise_first(resid > limit, lambda i: f"iwasawa_decompose: reconstruction residual {resid[i]:.3e}")
    return GroupElement(kmat), GroupElement(amat), GroupElement(nmat)


def random_element(algebra: MatrixLieAlgebra, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return algebra.from_coords(scale * rng.standard_normal(algebra.dim))


def k_from_normals(algebra: MatrixLieAlgebra, z: np.ndarray) -> GroupElement:
    """Haar-random elements of K from standard normals z of shape (..., d n), one per leading index.

    z fills an n x n matrix (over C its real, then its imaginary part); its positive_qr factor q
    gets det 1 by a column swap (over R) or a scalar phase (over C).
    """
    n = algebra.n
    z = np.asarray(z, dtype=float).reshape(np.shape(z)[:-1] + (-1, n, n))
    m = z[..., 0, :, :] + 1j * z[..., 1, :, :] if algebra.is_complex else z[..., 0, :, :]
    q, _ = positive_qr(m)
    det = np.linalg.det(q)
    if algebra.is_complex:
        return GroupElement(embed_complex(q * np.exp(-1j * (np.angle(det) / n))[..., None, None]))
    swapped = q[..., [1, 0, *range(2, n)]]
    return GroupElement(np.where((det < 0)[..., None, None], swapped, q))


def random_in_K(algebra: MatrixLieAlgebra, rng: np.random.Generator, shape: tuple[int, ...] = ()) -> GroupElement:
    """A batch of the given shape of Haar-random elements of K, drawn in one call of rng."""
    return k_from_normals(algebra, rng.standard_normal((*shape, algebra.d * algebra.n)))
