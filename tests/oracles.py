"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the production code paths: coordinates
are extracted by least squares against the flattened basis, the Killing form
is assembled from those brute-force ad matrices, and the sl trace-form
multiple is used only as a cross-check.
"""

import functools
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np


def lstsq_coords(algebra, X):
    A = algebra.basis.reshape(algebra.dim, -1).T
    sol, *_ = np.linalg.lstsq(A, np.asarray(X, float).ravel(), rcond=None)
    return sol


def ad_matrices_bruteforce(algebra):
    """ad(b_i) columns from matrix commutators and least-squares expansion."""
    dim = algebra.dim
    ads = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(dim):
            br = algebra.basis[i] @ algebra.basis[j] - algebra.basis[j] @ algebra.basis[i]
            ads[i][:, j] = lstsq_coords(algebra, br)
    return ads


def killing_matrix_oracle(algebra):
    ads = ad_matrices_bruteforce(algebra)
    return np.einsum("iab,jba->ij", ads, ads)


def trace_form_multiple(algebra, X, Y):
    """The closed sl formula 2n tr(XY); also valid on the realified embedding,
    where tr of the 2n x 2n real matrices is 2 Re tr_C."""
    return 2 * algebra.n * float(np.trace(np.asarray(X) @ np.asarray(Y)))


def structure_constants_pairwise(algebra):
    """Structure constants from one matrix bracket per basis pair i < j, with
    c[j, i] = -c[i, j]; the reference layout for the batched assembly."""
    dim = algebra.dim
    c = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            co = algebra.coords(algebra.bracket(algebra.basis[i], algebra.basis[j]))
            c[i, j] = co
            c[j, i] = -co
    return c


def symmetrized_power_vanishes_bruteforce(adn, q):
    """Whether (ad U)^q = 0 on n(c) identically in U, by brute force.

    The q-th power is a homogeneous polynomial in the coordinates of U; it
    vanishes identically iff, for every multiset of q generator indices, the
    products of the generator matrices summed over all distinct orderings of
    the multiset vanish.  The orderings are walked one index at a time, and an
    ordering is cut where its prefix product is exactly zero, since then so
    is every product that extends it.  Prefix products are shared between
    multisets.
    """
    n = adn.shape[0]

    @functools.lru_cache(maxsize=None)
    def product(seq):
        M = adn[seq[0]] if len(seq) == 1 else product(seq[:-1]) @ adn[seq[-1]]
        return M if M.any() else None

    def orderings_sum(prefix, remaining):
        if not remaining:
            return product(prefix)
        acc = np.zeros((n, n))
        for idx in sorted(remaining):
            if product(prefix + (idx,)) is None:
                continue
            rest = Counter(remaining)
            rest[idx] -= 1
            acc = acc + orderings_sum(prefix + (idx,), +rest)
        return acc

    for combo in combinations_with_replacement(range(n), q):
        if np.max(np.abs(orderings_sum((), Counter(combo)))) > 1e-8:
            return False
    return True


def dense_jacobi_residual(c):
    """max |Jacobi sum| over all (i, j, k, l) from the dense dim^4 tensor."""
    j1 = np.einsum("ijm,mkl->ijkl", c, c)
    return float(np.max(np.abs(j1 + j1.transpose(1, 2, 0, 3) + j1.transpose(2, 0, 1, 3))))


def projector_onto(coords_rows):
    """Orthogonal projector onto the row span."""
    Q, _ = np.linalg.qr(np.asarray(coords_rows, float).T)
    return Q @ Q.T


def outside_span(coords_rows, v):
    P = projector_onto(coords_rows)
    return float(np.max(np.abs(v - P @ v)))
