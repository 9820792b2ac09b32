"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the production code paths: coordinates
are extracted by least squares against the flattened basis, the Killing form
is assembled from those brute-force ad matrices, and the sl trace-form
multiple is used only as a cross-check.
"""

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


def projector_onto(coords_rows):
    """Orthogonal projector onto the row span."""
    Q, _ = np.linalg.qr(np.asarray(coords_rows, float).T)
    return Q @ Q.T


def outside_span(coords_rows, v):
    P = projector_onto(coords_rows)
    return float(np.max(np.abs(v - P @ v)))
