"""Matrix models of sl(n, R) and of sl(n, C) viewed as a real Lie algebra.

Every algebra element is a d x d real matrix (d = n over R, d = 2n for the
block embedding [[X, -Y], [Y, X]] of a complex matrix X + iY).  The basis is
fixed once per algebra -- diagonal Cartan part first, then off-diagonal root
vectors in row-major order of their matrix position -- so structure constants,
Killing matrices and every downstream fixture are reproducible byte for byte.

The Killing form is always computed as trace(ad X . ad Y) from the structure
constants.  The closed multiple of trace(XY) valid for sl is reserved for
test oracles; the complex trace form appears only in the realified-vs-complex
comparison, which is the one place the complex structure is consulted
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

# One tolerance per failure class (cli.DEFAULT_TOLERANCES exposes the knobs).
TOL_STRUCT = 1e-10   # exact algebraic identities
TOL_DECOMP = 1e-9    # decompositions that involve orthonormalization
TOL_EIGEN = 1e-8     # eigenvalue clustering
TOL_FD = 1e-6        # finite-difference comparisons


class ConfigurationError(ValueError):
    """Unsupported family/field, malformed input, or violated precondition."""


class DecompositionError(RuntimeError):
    """A matrix factorization failed or its reconstruction residual is too large."""


class DegeneracyError(RuntimeError):
    """A rank or clustering decision is inconclusive at the working tolerance."""


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
    """Real 2n x 2n embedding of a complex n x n matrix."""
    Z = np.asarray(Z, dtype=complex)
    return np.block([[Z.real, -Z.imag], [Z.imag, Z.real]])


def extract_complex(M: np.ndarray) -> np.ndarray:
    """Left inverse of embed_complex; projects onto the complex-linear part."""
    n = M.shape[-1] // 2
    A, B = M[..., :n, :n], M[..., :n, n:]
    C, D = M[..., n:, :n], M[..., n:, n:]
    return (A + D) / 2.0 + 1j * (C - B) / 2.0


class MatrixLieAlgebra:
    """sl(n) in a fixed basis, with structure constants and Killing data.

    Construction is deterministic; instances are immutable by convention and
    safe to share across threads.
    """

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self.n = spec.n
        self.d = spec.matrix_size
        self.dim = spec.dim
        self.is_complex = spec.field == "C"
        self._pairs = [(i, j) for i in range(self.n) for j in range(self.n) if i != j]
        # row and column index arrays of the off-diagonal positions, basis order
        self._rows, self._cols = np.array(self._pairs).T
        self.basis = self._build_basis()
        self.J = embed_complex(1j * np.eye(self.n)) if self.is_complex else None
        self.structure = self._structure_constants()
        # ad_ops[i] @ x = coordinates of [b_i, X] for X with coordinates x
        self.ad_ops = self.structure.transpose(0, 2, 1).copy()
        self.killing_matrix = np.einsum("iab,jba->ij", self.ad_ops, self.ad_ops)
        self.theta_matrix = self.coords(self.theta(self.basis)).T
        self.inner_matrix = -self.killing_matrix @ self.theta_matrix
        self.build_residuals = self._validate()

    # -- basis and coordinates -------------------------------------------

    def _cartan_entries(self, k: int) -> np.ndarray:
        h = np.zeros(self.n)
        h[k] = 1.0
        h[k + 1] = -1.0
        return h

    def _build_basis(self) -> np.ndarray:
        n = self.n
        mats = []
        if not self.is_complex:
            for k in range(n - 1):
                mats.append(np.diag(self._cartan_entries(k)))
            for i, j in self._pairs:
                E = np.zeros((n, n))
                E[i, j] = 1.0
                mats.append(E)
        else:
            for k in range(n - 1):
                mats.append(embed_complex(np.diag(self._cartan_entries(k)).astype(complex)))
            for k in range(n - 1):
                mats.append(embed_complex(1j * np.diag(self._cartan_entries(k)).astype(complex)))
            for i, j in self._pairs:
                E = np.zeros((n, n), dtype=complex)
                E[i, j] = 1.0
                mats.append(embed_complex(E))
                mats.append(embed_complex(1j * E))
        out = np.stack(mats)
        assert out.shape == (self.dim, self.d, self.d)
        return out

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

    def span_residual(self, X: np.ndarray) -> float:
        """How far X is from the algebra (max-abs of the discarded part)."""
        return float(np.max(np.abs(X - self.from_coords(self.coords(X)))))

    # -- algebraic operations ---------------------------------------------

    def bracket(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if X.shape != (self.d, self.d) or Y.shape != (self.d, self.d):
            raise ValueError("dimension mismatch in bracket")
        return X @ Y - Y @ X

    def theta(self, X: np.ndarray) -> np.ndarray:
        """Cartan involution; -X^T realizes it for both supported families."""
        return -np.swapaxes(np.asarray(X, dtype=float), -1, -2)

    def killing(self, X: np.ndarray, Y: np.ndarray) -> float:
        return float(self.coords(X) @ self.killing_matrix @ self.coords(Y))

    def inner(self, X: np.ndarray, Y: np.ndarray) -> float:
        return -self.killing(X, self.theta(Y))

    def ad_coord(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad(X) on coordinates, X given by coordinates x."""
        return np.einsum("i,ikj->kj", x, self.ad_ops)

    def ad_matrix_of(self, X: np.ndarray) -> np.ndarray:
        return self.ad_coord(self.coords(X))

    def structure_bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Bracket on coordinates via structure constants (cross-check path)."""
        return np.einsum("ijk,i,j->k", self.structure, x, y)

    def element_from_entries(self, entries: Sequence) -> np.ndarray:
        """Diagonal algebra element from its (traceless) diagonal entries."""
        vals = [complex(e) for e in entries]
        if len(vals) != self.n:
            raise ConfigurationError(f"expected {self.n} diagonal entries")
        if abs(sum(vals)) > 1e-12:
            raise ConfigurationError("diagonal entries must sum to zero")
        if self.is_complex:
            return embed_complex(np.diag(np.array(vals, dtype=complex)))
        if any(abs(v.imag) > 0 for v in vals):
            raise ConfigurationError("complex entries require the realified family")
        return np.diag(np.array([v.real for v in vals]))

    # -- internal consistency ----------------------------------------------

    def _structure_constants(self) -> np.ndarray:
        # c[j, i] = -c[i, j] by negation, not by a second bracket, so the
        # signed zeros of the fixture do not depend on the product order
        i, j = np.triu_indices(self.dim, 1)
        B = self.basis
        c = np.zeros((self.dim, self.dim, self.dim))
        c[i, j] = self.coords(B[i] @ B[j] - B[j] @ B[i])
        c[j, i] = -c[i, j]
        # the exact checks read c as int64
        if not np.array_equal(c, np.rint(c)):
            raise InconsistencyError(f"build_algebra: structure constants of {self.spec} are not integers")
        return c

    def _validate(self) -> dict:
        c = self.structure
        jacobi = float(jacobi_residual(c))
        K = self.killing_matrix
        k_sym = float(np.max(np.abs(K - K.T)))
        ev = np.linalg.eigvalsh((K + K.T) / 2)
        k_cond = float(np.min(np.abs(ev)) / np.max(np.abs(ev)))
        Th = self.theta_matrix
        th_sq = float(np.max(np.abs(Th @ Th - np.eye(self.dim))))
        th_iso = float(np.max(np.abs(Th.T @ K @ Th - K)))
        lhs = c @ Th.T
        rhs = np.einsum("pi,qj,pqk->ijk", Th, Th, c, optimize=True)
        th_auto = float(np.max(np.abs(lhs - rhs)))
        res = {
            "jacobi": jacobi,
            "killing_symmetry": k_sym,
            "killing_condition": k_cond,
            "theta_involution": th_sq,
            "theta_isometry": th_iso,
            "theta_automorphism": th_auto,
        }
        worst = max(jacobi, k_sym, th_sq, th_iso, th_auto)
        if worst > TOL_STRUCT or k_cond < TOL_EIGEN:
            raise InconsistencyError(f"algebra failed structural self-checks: {res}")
        return res


def jacobi_residual(c: np.ndarray) -> int:
    """max over all (i, j, k, l) of |sum_m c_ijm c_mkl + c_jkm c_mil + c_kim c_mjl|.

    Exact for integer-valued c, without the dim^4 tensor: each nonzero entry
    (i, j, m) is joined with every nonzero entry (m, k, l) in int64, the
    product goes to (i, j, k, l) and to its two cyclic shifts in (i, j, k),
    and the contributions are summed per index after one sort.  An index that
    no join reaches has the value 0.
    """
    dim = c.shape[0]
    i, j, m = np.nonzero(c)           # C order: sorted by the first index
    v = c[i, j, m].astype(np.int64)
    count = np.bincount(i, minlength=dim)
    start = np.cumsum(count) - count
    reps = count[m]                   # partners (m, k, l) of entry (i, j, m)
    left = np.repeat(np.arange(len(v)), reps)
    if len(left) == 0:
        return 0
    right = start[m[left]] + np.arange(len(left)) - np.repeat(np.cumsum(reps) - reps, reps)
    a, b, k, l = i[left], j[left], j[right], m[right]
    keys = np.concatenate([((x * dim + y) * dim + z) * dim + l for x, y, z in ((a, b, k), (b, k, a), (k, a, b))])
    order = np.argsort(keys)
    keys, vals = keys[order], np.tile(v[left] * v[right], 3)[order]
    sums = np.add.reduceat(vals, np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]))
    return int(np.max(np.abs(sums)))


def build_algebra(spec: AlgebraSpec) -> MatrixLieAlgebra:
    return MatrixLieAlgebra(spec)


def killing_compare_realified(algebra: MatrixLieAlgebra) -> float:
    """max |B_R(b_i, b_j) - 2 Re B_C(b_i, b_j)| over basis pairs."""
    if not algebra.is_complex:
        raise ConfigurationError("realified comparison needs a complex-realified algebra")
    Zs = np.stack([extract_complex(b) for b in algebra.basis])
    Bc = 2 * algebra.n * np.einsum("iab,jba->ij", Zs, Zs)
    return float(np.max(np.abs(algebra.killing_matrix - 2 * Bc.real)))


def complex_trace_form(algebra: MatrixLieAlgebra, X: np.ndarray, Y: np.ndarray) -> complex:
    """Complex Killing form 2n tr(Z_X Z_Y); only meaningful on realified algebras."""
    if not algebra.is_complex:
        raise ConfigurationError("complex trace form needs a complex-realified algebra")
    return 2 * algebra.n * complex(np.trace(extract_complex(X) @ extract_complex(Y)))


# -- Cartan decomposition ----------------------------------------------------


@dataclass
class CartanSplit:
    """g = k + p with the positive definite inner product -B(X, theta Y)."""

    k_coords: np.ndarray
    p_coords: np.ndarray
    k_basis: np.ndarray
    p_basis: np.ndarray
    inner_matrix: np.ndarray


def independent_rows(vectors: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """The rows that extend the span of the rows before them, in order, unchanged."""
    kept: list[int] = []
    ortho: list[np.ndarray] = []
    for i, v in enumerate(vectors):
        w = v.astype(float).copy()
        for u in ortho:
            w -= (u @ w) * u
        nrm = np.linalg.norm(w)
        if nrm > tol * max(1.0, np.linalg.norm(v)):
            kept.append(i)
            ortho.append(w / nrm)
    return vectors[kept]


def cartan_split(algebra: MatrixLieAlgebra) -> CartanSplit:
    Th = algebra.theta_matrix
    if np.max(np.abs(Th @ Th - np.eye(algebra.dim))) > TOL_STRUCT:
        raise InconsistencyError("theta is not an involution")
    # row i is e_i +/- theta(e_i)
    k_coords = independent_rows(np.eye(algebra.dim) + Th.T)
    p_coords = independent_rows(np.eye(algebra.dim) - Th.T)
    if len(k_coords) + len(p_coords) != algebra.dim:
        raise InconsistencyError("Cartan eigenspaces do not fill the algebra")
    try:
        np.linalg.cholesky((algebra.inner_matrix + algebra.inner_matrix.T) / 2)
    except np.linalg.LinAlgError as exc:
        raise InconsistencyError("inner product is not positive definite") from exc
    return CartanSplit(
        k_coords, p_coords, algebra.from_coords(k_coords), algebra.from_coords(p_coords), algebra.inner_matrix
    )


# -- group elements and decompositions ----------------------------------------


@dataclass(frozen=True, eq=False)
class GroupElement:
    matrix: np.ndarray
    tag: str = "general"


def special_determinant(algebra: MatrixLieAlgebra, g: np.ndarray) -> complex:
    """det over the base field (complex det for the realified family)."""
    if algebra.is_complex:
        return complex(np.linalg.det(extract_complex(g)))
    return complex(np.linalg.det(g))


def in_K_residual(algebra: MatrixLieAlgebra, g: np.ndarray) -> float:
    r = float(np.max(np.abs(g.T @ g - np.eye(algebra.d))))
    if algebra.is_complex:
        r = max(r, float(np.max(np.abs(g @ algebra.J - algebra.J @ g))))
    return r


def _as_matrix(g) -> np.ndarray:
    return g.matrix if isinstance(g, GroupElement) else np.asarray(g, dtype=float)


def iwasawa_decompose(algebra: MatrixLieAlgebra, g) -> tuple[GroupElement, GroupElement, GroupElement]:
    """g = k a n with k in K, a positive diagonal, n upper unitriangular.

    Realized by QR with the positive-diagonal convention; the same convention
    canonicalizes coset representatives downstream.  det g = 1 is judged at
    det's rounding scale, a few eps times the Hadamard bound prod |g_col|, and
    the reconstruction against max |g|, so large valid elements pass while
    non-special and singular ones do not.
    """
    G = _as_matrix(g)
    if G.shape != (algebra.d, algebra.d):
        raise ValueError("dimension mismatch in iwasawa_decompose")
    det = special_determinant(algebra, G)
    hadamard = float(np.prod(np.linalg.norm(extract_complex(G) if algebra.is_complex else G, axis=0)))
    if abs(det - 1.0) > TOL_DECOMP + 8 * algebra.d * np.finfo(float).eps * hadamard:
        raise DecompositionError(f"input is not special (det = {det})")
    if algebra.is_complex:
        Z = extract_complex(G)
        q, r = np.linalg.qr(Z)
        dg = np.diagonal(r)
        if np.min(np.abs(dg)) < 1e-12:
            raise DecompositionError("singular input")
        u = dg / np.abs(dg)
        q = q * u[None, :]
        r = np.conj(u)[:, None] * r
        avec = np.abs(np.diagonal(r)).real
        kmat = embed_complex(q)
        amat = embed_complex(np.diag(avec).astype(complex))
        nmat = embed_complex(r / avec[:, None])
    else:
        q, r = np.linalg.qr(G)
        dg = np.diagonal(r)
        if np.min(np.abs(dg)) < 1e-12:
            raise DecompositionError("singular input")
        s = np.sign(dg)
        q = q * s[None, :]
        r = s[:, None] * r
        avec = np.diagonal(r)
        kmat = q
        amat = np.diag(avec)
        nmat = r / avec[:, None]
    resid = float(np.max(np.abs(kmat @ amat @ nmat - G)))
    if resid > TOL_DECOMP * max(1.0, float(np.max(np.abs(G)))):
        raise DecompositionError(f"Iwasawa reconstruction residual {resid:.3e}")
    return (
        GroupElement(kmat, "in_K"),
        GroupElement(amat, "in_A"),
        GroupElement(nmat, "in_N"),
    )


def kp_decompose(
    algebra: MatrixLieAlgebra, g, p_filtration_coords: np.ndarray
) -> tuple[GroupElement, GroupElement]:
    """g = k p with p in the parabolic fixing the given filtration.

    The P-membership of the second factor is verified directly: Ad(p) must
    preserve the span of the supplied filtration basis, up to a leak judged
    against the size of the transported coordinates.
    """
    k, a, n = iwasawa_decompose(algebra, g)
    p = a.matrix @ n.matrix
    F = np.asarray(p_filtration_coords, dtype=float)
    Q, _ = np.linalg.qr(F.T)
    y = algebra.coords(p @ algebra.from_coords(F) @ np.linalg.inv(p))
    worst = float(np.max(np.abs(y - y @ (Q @ Q.T))))
    if worst > TOL_DECOMP * max(1.0, float(np.max(np.abs(y)))):
        raise DecompositionError(f"KP factor leaves the parabolic filtration ({worst:.3e})")
    return k, GroupElement(p, "general")


def exp_element(algebra: MatrixLieAlgebra, X: np.ndarray, tag: str = "general") -> GroupElement:
    return GroupElement(scipy.linalg.expm(np.asarray(X, dtype=float)), tag)


def random_element(algebra: MatrixLieAlgebra, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return algebra.from_coords(scale * rng.standard_normal(algebra.dim))


def random_in_K(algebra: MatrixLieAlgebra, rng: np.random.Generator) -> GroupElement:
    n = algebra.n
    if algebra.is_complex:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(z)
        dg = np.diagonal(r)
        q = q * (dg / np.abs(dg))[None, :]
        det = np.linalg.det(q)
        q = q * np.exp(-1j * np.angle(det) / n)
        return GroupElement(embed_complex(q), "in_K")
    m = rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diagonal(r))[None, :]
    if np.linalg.det(q) < 0:
        q = q.copy()
        q[:, [0, 1]] = q[:, [1, 0]]
    return GroupElement(q, "in_K")
