"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the production code paths: coordinates
are extracted by least squares against the flattened basis, the Killing form
is assembled from those brute-force ad matrices, and the sl trace-form
multiple is used only as a cross-check.
"""

import functools
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial

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


def kk_gram_dense(algebra, w_coords, Xc, Yc=None):
    """B(w, [X_i, Y_j]) for stacks of coordinate rows by the dim^3 contraction with the structure
    constants: Xc . M_w . Yc^T with M_w[a, b] = sum_k c_abk (K w)_k; Yc defaults to Xc.  Leading axes of
    w_coords batch over points and broadcast against those of Xc / Yc."""
    Kw = algebra.killing_matrix @ np.asarray(w_coords)[..., None]
    M_w = (algebra.structure @ Kw[..., None, :, :])[..., 0]
    return Xc @ M_w @ np.swapaxes(Xc if Yc is None else Yc, -1, -2)


def ad_coord_einsum(algebra, x):
    """Matrix of ad(X) on coordinates from the structure constants, X given by coordinates x
    (over leading batch axes): A[k, j] = sum_i x_i c_ijk."""
    return np.einsum("...i,ijk->...kj", x, algebra.structure)


def killing_matrix_einsum(algebra):
    """tr(ad_i ad_j) by the dim^4 einsum over the library's structure constants, ad_i[a, b] = c[i, b, a]."""
    return np.einsum("iba,jab->ij", algebra.structure, algebra.structure)


def positive_system_float(rs):
    """Roots positive on diag(n-1, n-3, ..., 1-n), evaluated in floats on its real diagonal, a
    vanishing root judged against TOL_EIGEN; the reference for the integer rule of positive_system."""
    from lieorb.liecore import TOL_EIGEN, extract_complex

    algebra = rs.algebra
    H = algebra.element_from_entries([algebra.n - 1 - 2 * k for k in range(algebra.n)])
    dg = np.diagonal(extract_complex(H) if algebra.is_complex else H).real
    scale = max(1.0, float(np.max(np.abs(dg))))
    values = [float(np.asarray(r.weights, float) @ dg) for r in rs.roots]
    assert min(abs(v) for v in values) > TOL_EIGEN * scale, "a root vanishes on the regular element"
    return [r for r, v in zip(rs.roots, values) if v > 0]


def reachable_buffers(obj):
    """The distinct base ndarrays reachable from obj through attributes, lists, tuples and dicts."""
    found = {}

    def walk(x):
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            found[id(x)] = x
        elif isinstance(x, (list, tuple, dict)):
            for item in x.values() if isinstance(x, dict) else x:
                walk(item)
        elif hasattr(x, "__dict__"):
            walk(vars(x))

    walk(obj)
    return list(found.values())


def trace_form_multiple(algebra, X, Y):
    """The closed sl formula 2n tr(XY); also valid on the realified embedding,
    where tr of the 2n x 2n real matrices is 2 Re tr_C."""
    return 2 * algebra.n * float(np.trace(np.asarray(X) @ np.asarray(Y)))


def killing(algebra, X, Y):
    """B(X, Y) through the library's coordinates and Killing matrix."""
    return float(algebra.coords(X) @ algebra.killing_matrix @ algebra.coords(Y))


def inner(algebra, X, Y):
    """The positive definite inner product -B(X, theta Y)."""
    return -killing(algebra, X, algebra.theta(Y))


def dual_element(algebra, eta):
    """Element X with B(X, .) = eta, eta given in dual coordinates."""
    x = np.linalg.solve(algebra.killing_matrix, np.asarray(eta, dtype=float))
    return algebra.from_coords(x)


def re_dual_gap(algebra, c_entries):
    """||c - 2 X_{Re eta}|| for eta = B_C(c, .) on a realified algebra.

    Vanishes identically: B_R(2 X_{Re eta}, Y) = 2 Re B_C(c, Y) = B_R(c, Y).
    """
    from lieorb.liecore import complex_trace_form

    c = algebra.element_from_entries(c_entries)
    re_eta = complex_trace_form(algebra, c, algebra.basis).real
    return float(np.max(np.abs(c - 2.0 * dual_element(algebra, re_eta))))


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


def nonzeros_of(c):
    """The nonzero entries (i, j, k, value) of a dense tensor, sorted in C order of (i, j, k)."""
    i, j, k = np.nonzero(c)
    return i, j, k, c[i, j, k]


def dense_jacobi_residual(c):
    """max |Jacobi sum| over all (i, j, k, l) from the dense dim^4 tensor."""
    j1 = np.einsum("ijm,mkl->ijkl", c, c)
    return float(np.max(np.abs(j1 + j1.transpose(1, 2, 0, 3) + j1.transpose(2, 0, 1, 3))))


@dataclass(frozen=True, eq=False)
class Covector:
    """A functional on g vanishing on P(c), stored through its dual V in n(c).

    The pairing is eta_V(X) = -B(V, X); V -> eta_V identifies n(c) with
    (g / P(c))*.
    """

    V: np.ndarray

    def value_on(self, data, X):
        algebra = data.algebra
        Vm = data.n_matrix_of(self.V)
        return -float(algebra.coords(Vm) @ algebra.killing_matrix @ algebra.coords(X))


def p_filtration_coords(data):
    """Basis of P(c) = z(c) + n(c) as coordinate vectors."""
    return np.eye(data.algebra.dim)[list(data.z_indices) + list(data.b_indices)]


def covector_annihilation_gap(data, V):
    """max |eta_V| over a basis of P(c); zero since B pairs n only with theta-n."""
    eta = Covector(np.asarray(V, dtype=float))
    worst = 0.0
    for x in p_filtration_coords(data):
        worst = max(worst, abs(eta.value_on(data, data.algebra.from_coords(x))))
    return worst


# -- the fiber field by its defining series, without truncation ----------------
#
# h_V(U) = [I + R(ad U)]^{-1} T^{-1} e^{-ad U} V with R(t) = (1 - e^{-t})/t - 1
# formed as a matrix series and inverted by its finite Neumann series; products
# of polynomials keep every degree.  The library evaluates the same field
# through x / (e^x - 1) on truncated series, so these are a second route.


def _pad(P, deg):
    if P.shape[0] >= deg + 1:
        return P
    pad = np.zeros((deg + 1 - P.shape[0],) + P.shape[1:])
    return np.concatenate([P, pad], axis=0)


def _padd(A, B):
    deg = max(A.shape[0], B.shape[0]) - 1
    return _pad(A, deg) + _pad(B, deg)


def _pm_pv(Ap, vp):
    """(matrix polynomial) @ (vector polynomial), every degree kept."""
    out = np.zeros((Ap.shape[0] + vp.shape[0] - 1, vp.shape[1]))
    for a in range(Ap.shape[0]):
        for b in range(vp.shape[0]):
            out[a + b] += Ap[a] @ vp[b]
    return out


def _pm_pm(Ap, Bp):
    out = np.zeros((Ap.shape[0] + Bp.shape[0] - 1,) + Ap.shape[1:])
    for a in range(Ap.shape[0]):
        for b in range(Bp.shape[0]):
            out[a + b] += Ap[a] @ Bp[b]
    return out


def hv_field(data, V, U):
    """The pulled-back fiber field at U for covector eta_V: the library's series kernel at degree 0."""
    from lieorb.flows import _hv_series

    return _hv_series(data, np.asarray(V, dtype=float), np.asarray(U, dtype=float)[None], 0)[0]


def ode_residual(data, V, fp):
    """max |h_V(U) - U'| over every coefficient and point of the flow polynomial fp, the kernel cut nowhere."""
    from lieorb.flows import _hv_series, _poly_deriv

    E = _hv_series(data, np.asarray(V, dtype=float), fp.coeffs, 2 * data.N0 * fp.degree)
    D = _poly_deriv(fp.coeffs)
    E[: D.shape[0]] -= D
    return float(np.max(np.abs(E)))


def hv_vec_reference(data, V, U):
    """h_V(U) for plain coordinate vectors; broadcasts over leading axes."""
    N0 = data.N0
    A = np.einsum("...i,ikj->...kj", U, data.adn)
    W = np.broadcast_arrays(np.asarray(V, dtype=float), U)[0].astype(float).copy()
    term = W.copy()
    for m in range(1, N0 + 1):
        term = -np.einsum("...kj,...j->...k", A, term) / m
        W = W + term
    W = W / data.grades
    negA = -A
    power = negA.copy()
    R = power / factorial(2)
    for m in range(2, N0 + 1):
        power = np.einsum("...ij,...jk->...ik", power, negA)
        R = R + power / factorial(m + 1)
    x = W.copy()
    term = W.copy()
    for m in range(1, N0 + 1):
        term = -np.einsum("...kj,...j->...k", R, term)
        x = x + term
    return x


def hv_poly_reference(data, V, Up):
    """h_V(U(t)) as a polynomial of full degree, U(t) given by its coefficient rows."""
    N0 = data.N0
    A = np.einsum("mi,ikj->mkj", Up, data.adn)
    Vp = V[None, :]
    W = Vp.copy()
    term = Vp.copy()
    for m in range(1, N0 + 1):
        term = -_pm_pv(A, term) / m
        W = _padd(W, term)
    W = W / data.grades[None, :]
    negA = -A
    power = negA.copy()
    R = power / factorial(2)
    for m in range(2, N0 + 1):
        power = _pm_pm(power, negA)
        R = _padd(R, power / factorial(m + 1))
    x = W.copy()
    term = W.copy()
    for m in range(1, N0 + 1):
        term = -_pm_pv(R, term)
        x = _padd(x, term)
    return x


def flow_exact_reference(data, V, U0):
    """Coefficients of the flow of h_V from U0 by Picard sweeps on untruncated
    products, cut to p + 3 coefficients (p levels of grade) after each sweep
    and trimmed at 1e-12 (1 + max|V| + max|U0|)."""
    p = len(data.levels)
    scale = 1.0 + float(np.max(np.abs(V))) + float(np.max(np.abs(U0)))
    U = U0[None, :].copy()
    for _ in range(p + 3):
        E = hv_poly_reference(data, V, U)
        Un = np.zeros((E.shape[0] + 1, E.shape[1]))
        Un[0] = U0
        Un[1:] = E / np.arange(1, E.shape[0] + 1)[:, None]
        Un = Un[: p + 3]
        gap = float(np.max(np.abs(_padd(Un, -U))))
        U = Un
        if gap <= 1e-13 * scale:
            break
    deg = U.shape[0] - 1
    while deg > 0 and np.max(np.abs(U[deg])) <= 1e-12 * scale:
        deg -= 1
    return U[: deg + 1]


def flow_rk4_reference(data, V, U0, t, step=1e-3):
    """Classical RK4 along hv_vec_reference up to time t, over leading axes of V / U0.

    The result is cross-checked against a run with twice the step
    (Richardson), halving the step up to three times before giving up.
    """
    V = np.asarray(V, dtype=float)
    U0 = np.broadcast_arrays(np.asarray(U0, dtype=float), V)[0]

    def integrate(num_steps):
        h = t / num_steps
        U = U0.copy()
        for _ in range(num_steps):
            k1 = hv_vec_reference(data, V, U)
            k2 = hv_vec_reference(data, V, U + 0.5 * h * k1)
            k3 = hv_vec_reference(data, V, U + 0.5 * h * k2)
            k4 = hv_vec_reference(data, V, U + h * k3)
            U = U + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return U

    steps = max(2, int(np.ceil(abs(t) / step)))
    for _ in range(4):
        fine = integrate(steps)
        gap = float(np.max(np.abs(fine - integrate(max(1, steps // 2)))))
        if gap < 1e-9 * (1.0 + float(np.max(np.abs(fine)))):
            return fine
        steps *= 2
    raise AssertionError(f"RK4 reference did not settle at t = {t:g}: Richardson gap {gap:.3e}")


def nilpotent_exp_loop(M):
    """Finite exponential series of a nilpotent stack, started from an unbatched identity."""
    d = M.shape[-1]
    out = np.eye(d)
    term = np.eye(d)
    for k in range(1, d + 1):
        term = term @ M / k
        if np.max(np.abs(term)) == 0.0:
            break
        out = out + term
    return out


def structure_bracket(algebra, x, y):
    """Bracket on coordinates via the structure constants."""
    return np.einsum("ijk,i,j->k", algebra.structure, x, y)


def omega_rank(algebra, data, pt):
    """Numerical rank of Omega on a basis of g/z(w) at the orbit point."""
    from lieorb.kkform import _omega_svals

    svals = _omega_svals(data, pt)
    return int(np.sum(svals > 1e-8 * max(1.0, svals[0])))


def span_residual(algebra, X):
    """How far X is from the algebra (max-abs of the discarded part), per element of a batch."""
    return np.max(np.abs(X - algebra.from_coords(algebra.coords(X))), axis=(-2, -1))


def strict_n_coords(data, X, strict):
    """data.n_coords_of(X), refusing an element whose part outside n(c) (in the other basis
    coordinates or off the algebra) exceeds strict max(1, max|v|) of its own n(c) coordinates v."""
    from lieorb.liecore import raise_first

    full = data.algebra.coords(X)
    v = full[..., list(data.b_indices)]
    rest = full.copy()
    rest[..., list(data.b_indices)] = 0.0
    outside = np.maximum(np.max(np.abs(rest), axis=-1), span_residual(data.algebra, X))
    bound = strict * np.maximum(1.0, np.max(np.abs(v), axis=-1))
    raise_first(outside > bound, lambda i: f"element has a component outside n(c) ({outside[i]:.2e})", ValueError)
    return v


def equivalence_gap(data, pt, m):
    """phi agreement of the two representatives (k m, Ad(m)^-1 V) and (k, V) of one cotangent point."""
    from lieorb.symplecto import CotangentPoint, phi_lambda

    m = np.asarray(m, dtype=float)
    gap0 = float(np.max(np.abs(m @ data.c @ np.linalg.inv(m) - data.c)))
    assert gap0 < 1e-9 and np.max(np.abs(m.T @ m - np.eye(len(m)))) < 1e-9, "m must fix c and lie in K"
    V2 = strict_n_coords(data, np.linalg.inv(m) @ data.n_matrix_of(pt.V) @ m, 1e-8)
    a = phi_lambda(data, CotangentPoint(pt.k, pt.V), validate=False)
    b = phi_lambda(data, CotangentPoint(pt.k @ m, V2), validate=False)
    return float(np.max(np.abs(a.w - b.w)))


def grade_projection(data, X, mode, index):
    """Project an n(c) element onto R V_index, or the <=/> index tail.

    Indices are 0-based positions in the ordered eigenbasis.
    """
    from lieorb.liecore import TOL_STRUCT, ConfigurationError

    v = strict_n_coords(data, X, TOL_STRUCT)
    j = np.arange(data.n_dim)
    masks = {"j": j == index, "le": j <= index, "gt": j > index}
    if mode not in masks:
        raise ConfigurationError(f"unknown projection mode {mode!r}")
    return data.n_matrix_of(np.where(masks[mode], v, 0.0))


def projector_onto(coords_rows):
    """Orthogonal projector onto the row span."""
    Q, _ = np.linalg.qr(np.asarray(coords_rows, float).T)
    return Q @ Q.T


def outside_span(coords_rows, v):
    P = projector_onto(coords_rows)
    return float(np.max(np.abs(v - P @ v)))


# -- loop forms of the batched structure helpers ------------------------------


def independent_rows_reference(vectors, tol=1e-9):
    """liecore.independent_rows as modified Gram-Schmidt, one kept vector at a time."""
    kept = []
    ortho = []
    for i, v in enumerate(vectors):
        w = v.astype(float).copy()
        for u in ortho:
            w -= (u @ w) * u
        nrm = np.linalg.norm(w)
        if nrm > tol * max(1.0, np.linalg.norm(v)):
            kept.append(i)
            ortho.append(w / nrm)
    return vectors[kept]


def integer_weights_reference(algebra, X):
    """Diagonal-entry weights of one root vector X, one matrix bracket [D_l, X] per l."""
    from lieorb.liecore import TOL_DECOMP, InconsistencyError, embed_complex

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


def integer_weights_dense(algebra, X):
    """rootspace._integer_weights on the dense (len(X), n, d, d) stack of the brackets [D_l, X]."""
    from lieorb.liecore import TOL_DECOMP, InconsistencyError, embed_complex

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


def root_vector_residual_dense(algebra, a_basis, alpha):
    """max over the a-basis elements H and all entries of |[H, X_b] - alpha[b](H) X_b|, per basis
    index b, as one dense (rank, dim, d, d) bracket stack."""
    X = algebra.basis
    Hs = a_basis[:, None]
    C = Hs @ X
    C -= X @ Hs
    C -= alpha.T[:, :, None, None] * X
    return np.max(np.abs(C), axis=(0, 2, 3))


def theta_rows_isin(algebra, indices, sign):
    """liecore.theta_rows with its theta-stability test as np.isin."""
    idx = np.asarray(indices, dtype=int)
    perm, s = algebra.theta_perm, algebra.theta_sign
    assert np.all(np.isin(perm[idx], idx))
    keep = idx[(perm[idx] > idx) | ((perm[idx] == idx) & (s[idx] == sign))]
    rows = np.zeros((len(keep), algebra.dim))
    rows[np.arange(len(keep)), keep] = 1.0
    rows[np.arange(len(keep)), perm[keep]] += sign * s[keep]
    return rows


def orthonormalize_gram_schmidt(algebra, mats):
    """Gram-Schmidt for <.,.> in the given deterministic order: one u G v per pair with the dense
    inner matrix, refusing a norm below 1e-12 (the form rootspace._orthonormalize replaced)."""
    from lieorb.liecore import InconsistencyError

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


def restricted_roots_dense(algebra, a_elements):
    """The root layer on dense stacks: the weight table, the roots as (functional, weights,
    members) grouped by np.unique over weight rows and sorted by functional, g_0 and m, with the
    dense bracket certificate asserted."""
    from lieorb.liecore import TOL_DECOMP, extract_complex
    from lieorb.rootspace import _orthonormalize

    a_coords, a_basis = _orthonormalize(algebra, np.asarray(a_elements, dtype=float))
    W = integer_weights_dense(algebra, algebra.basis)
    in_root = W.any(axis=1)
    root_idx = np.flatnonzero(in_root)
    weights, owner = np.unique(W[root_idx], axis=0, return_inverse=True)
    Z = extract_complex(a_basis) if algebra.is_complex else a_basis
    functionals = weights.astype(float) @ np.diagonal(Z, axis1=-2, axis2=-1).real.copy().T
    alpha = np.zeros((algebra.dim, len(a_basis)))
    alpha[root_idx] = functionals[owner]
    assert np.all(root_vector_residual_dense(algebra, a_basis, alpha) <= TOL_DECOMP)
    roots = [(f, w, root_idx[owner == k]) for k, (f, w) in enumerate(zip(functionals, weights))]
    roots.sort(key=lambda r: tuple(r[0]))
    zero_indices = np.flatnonzero(~in_root)
    return W, roots, a_coords, zero_indices, theta_rows_isin(algebra, zero_indices, 1)


def restricted_roots_eigen_reference(algebra, a_elements):
    """Joint eigenspaces of ad(a) by sequential symmetric eigendecomposition with cluster refinement.

    ad(H) is self-adjoint for <.,.>, so in the orthonormal coordinates y = L^T x
    (G = L L^T) diagonalize ad(H_1), then ad(H_2) restricted to each eigencluster,
    and so on.  Each cluster must be spanned by basis vectors; returns, per cluster,
    the basis indices spanning it and its eigenvalue on each orthonormal a-basis element.
    """
    from lieorb.liecore import TOL_DECOMP, TOL_EIGEN, InconsistencyError
    from lieorb.rootspace import _orthonormalize

    a_coords, _ = _orthonormalize(algebra, np.asarray(a_elements, dtype=float))
    G = (algebra.inner_matrix + algebra.inner_matrix.T) / 2
    L = np.linalg.cholesky(G)
    L_inv_T = np.linalg.inv(L.T)
    clusters = [(np.eye(algebra.dim), [])]
    for H in a_coords:
        S = L.T @ ad_coord_einsum(algebra, H) @ L_inv_T
        if np.max(np.abs(S - S.T)) > TOL_DECOMP:
            raise InconsistencyError("ad(H) is not symmetric for the inner product")
        S = (S + S.T) / 2
        refined = []
        for Q, vals in clusters:
            w, vecs = np.linalg.eigh(Q.T @ S @ Q)
            gaps = np.diff(w)
            if np.any((gaps > TOL_EIGEN) & (gaps < 100 * TOL_EIGEN)):
                raise InconsistencyError("eigenvalue cluster ambiguous at tolerance")
            edges = [0, *(np.flatnonzero(gaps > TOL_EIGEN) + 1).tolist(), len(w)]
            for start, stop in zip(edges[:-1], edges[1:]):
                refined.append((Q @ vecs[:, start:stop], vals + [float(np.mean(w[start:stop]))]))
        clusters = refined
    # the basis vectors in each cluster: residual of every unit basis vector against its projector
    y_units = L.T / np.linalg.norm(L.T, axis=0)
    out = []
    for Q, vals in clusters:
        members = np.flatnonzero(np.linalg.norm(y_units - Q @ (Q.T @ y_units), axis=0) < TOL_DECOMP)
        if len(members) != Q.shape[1]:
            raise InconsistencyError("joint eigenspace is not spanned by basis vectors")
        out.append((members, np.array(vals)))
    return out


def negative_of(rs, root):
    """The root with weights -root.weights, by a scan of the root list."""
    target = tuple(-root.weights)
    for r in rs.roots:
        if tuple(r.weights) == target:
            return r
    raise AssertionError("root system is not symmetric")


def hyperbolic_data_per_root(algebra, rs, c_entries):
    """parabolic.hyperbolic_data built root by root from rs.roots, with dense n(c)^3 masks.

    Each root's alpha(c) decides its members: z(c) on a wall, n(c) above it,
    with the chamber refused where a root of positive_system is negative; the
    V_j are sorted by (grade, basis index).  The bracket refusals read the
    filled adn block against weight codes broadcast over all (i, k, j).
    """
    import math
    from fractions import Fraction

    from lieorb.liecore import ConfigurationError, InconsistencyError
    from lieorb.parabolic import HyperbolicData, _to_fraction, nilpotency_index
    from lieorb.rootspace import positive_system, weight_code

    if algebra.spec != rs.algebra.spec:
        raise ConfigurationError(f"hyperbolic_data: algebra {algebra.spec} is not the root system's {rs.algebra.spec}")
    entries = tuple(_to_fraction(e) for e in c_entries)
    if len(entries) != algebra.n:
        raise ConfigurationError(f"expected {algebra.n} diagonal entries")
    if all(e == 0 for e in entries):
        raise ConfigurationError("chamber element must be nonzero")
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
    z_idx = rs.zero_indices.tolist()
    graded = []
    for root, a in zip(rs.roots, alpha):
        members = root.members.tolist()
        if a == 0:
            z_idx.extend(members)
        elif a > 0:
            graded.extend((Fraction(a, den), b, root.weights) for b in members)
    z_idx.sort()
    graded.sort(key=lambda t: (t[0], t[1]))
    b_indices = tuple(b for (_, b, _) in graded)
    grades_exact = tuple(nu for (nu, _, _) in graded)
    W = np.array([w for (_, _, w) in graded], dtype=np.int64)
    n_dim = len(b_indices)
    chamber = tuple(str(e) for e in entries)
    if 2 * n_dim != algebra.dim - len(z_idx):
        raise InconsistencyError(f"n(c) does not have half the dimension of g/z(c) at c = {chamber}")

    distinct = sorted(set(entries))
    sel = np.array(b_indices, dtype=int)
    pos = np.full(algebra.dim, -1)
    pos[sel] = np.arange(n_dim)
    i, j, k, v = algebra.nonzeros
    inside = (pos[i] >= 0) & (pos[j] >= 0)
    if np.any(pos[k[inside]] < 0):
        raise InconsistencyError(f"bracket of n(c) escapes n(c) at c = {chamber}")
    adn = np.where(sel[:, None, None] > sel[None, None, :], -0.0, np.zeros((n_dim, n_dim, n_dim)))
    adn[pos[i[inside]], pos[k[inside]], pos[j[inside]]] = v[inside]
    code = weight_code(W)
    if np.any((adn != 0) & (code[None, :, None] != code[:, None, None] + code[None, None, :])):
        raise InconsistencyError(f"bracket violates the root-weight grading at c = {chamber}")

    data = HyperbolicData(
        algebra=algebra,
        c_entries=entries,
        c=c,
        z_indices=tuple(z_idx),
        b_indices=b_indices,
        n_basis=algebra.basis[list(b_indices)],
        grades=np.array([float(nu) for nu in grades_exact]),
        grades_exact=grades_exact,
        levels=tuple((float(nu), grades_exact.count(nu)) for nu in sorted(set(grades_exact))),
        block_grades=W @ np.array([distinct.index(e) for e in entries]),
    )
    data.adn = adn
    data.N0 = nilpotency_index(data)
    return data


# -- scalar evaluations of the cotangent model, for hand-computed values -------


def root_value_on(algebra, root, H):
    """alpha(H) for a diagonal H, from the root's integer weights."""
    from lieorb.liecore import extract_complex

    dg = np.diagonal(extract_complex(H) if algebra.is_complex else H).real
    return float(np.asarray(root.weights, dtype=float) @ dg[: len(root.weights)])


@dataclass(frozen=True, eq=False)
class CotangentTangent:
    """Tangent of the curve t -> (k exp(t Y), V + t delta)."""

    Y: np.ndarray      # direction in k
    delta: np.ndarray  # n(c)-coordinates


def tautological_form(data, pt, W):
    """eta(d(base) W) = -B(V, Y); vertical directions are annihilated."""
    algebra = data.algebra
    Vm = data.n_matrix_of(pt.V)
    return -float(algebra.coords(Vm) @ algebra.killing_matrix @ algebra.coords(W.Y))


def liouville_gram(data, pt, Ys, deltas):
    """sigma(W_i, W_j) for the tangents W_i = (Ys[i], deltas[i]) of the (k, V) chart.

    With D and Y the coordinate rows of the fiber and base parts,
    sigma = D K Y^T - Y K D^T - B(V, [Y_i, Y_j]).  Leading axes of pt.V batch over points.
    """
    from lieorb.kkform import kk_gram

    algebra = data.algebra
    DKY = algebra.coords(data.n_matrix_of(deltas)) @ algebra.killing_matrix @ algebra.coords(Ys).T
    return DKY - DKY.T - kk_gram(algebra, algebra.coords(data.n_matrix_of(pt.V)), Ys)


def liouville_eval(data, pt, W1, W2):
    """Liouville form in the (k, V) chart: the one-pair case of liouville_gram."""
    return float(liouville_gram(data, pt, np.stack([W1.Y, W2.Y]), np.stack([W1.delta, W2.delta]))[0, 1])


# -- per-call forms of the chart-frame checks ----------------------------------
# Each call rebuilds the parts that depend on the chamber alone; the checks,
# which keep those parts per data, must match these bit for bit.


def chart_sigma_per_call(data, pt, Ys):
    """sigma on the chart frame, horizontal (Ys[i], 0) then vertical (0, e_b): the base-fiber pairing
    B(V_b, Y_j), read against the matrices of B(., Y_j), and -B(V, [Y_i, Y_j]) between horizontals."""
    from lieorb.kkform import form_matrix, kk_gram

    algebra, n = data.algebra, data.n_dim
    d2 = algebra.d * algebra.d
    duals = form_matrix(algebra, algebra.coords(Ys)).reshape(n, d2)
    P = data.n_basis.reshape(n, d2) @ duals.T
    sigma = np.zeros(np.shape(pt.V)[:-1] + (2 * n, 2 * n))
    sigma[..., n:, :n], sigma[..., :n, n:] = P, -P.T
    sigma[..., :n, :n] = -kk_gram(algebra, algebra.coords(data.n_matrix_of(pt.V)), Ys)
    return sigma


def linear_chart_per_call(data, V):
    """linear_chart's n, each block grade's mask and denominators built in the call."""
    Vm = data.n_matrix_of(np.asarray(V, dtype=float))
    c = np.diagonal(data.c)
    n = np.eye(data.algebra.d) + np.zeros(Vm.shape)
    for b in range(1, int(data.block_grades.max()) + 1):
        mask = np.any(data.n_basis[data.block_grades == b] != 0, axis=0)
        n = n + np.where(mask, Vm @ n / np.where(mask, c[:, None] - c, 1.0), 0.0)
    return n


def pullback_per_call(data, pt):
    """pullback_residual's residual and its horizontal FD factors exp(+-STEP Y_i), built in the call."""
    from lieorb.flows import exp_H
    from lieorb.kkform import kk_gram, orbit_point, upper_max
    from lieorb.liecore import expm
    from lieorb.symplecto import STEP, horizontal_basis

    algebra = data.algebra
    Ys = horizontal_basis(data)
    nV = exp_H(data, pt.V).matrix
    pt0 = orbit_point(algebra, data.c, pt.k @ nV, validate=False)
    k, nV = pt.k[..., None, :, :], nV[..., None, :, :]
    n_inv = np.linalg.inv(nV)
    fiber_reps = data.n_matrix_of(data.n_coords_of(n_inv @ data.n_basis @ nV) / data.grades)
    X = np.concatenate([k @ Ys @ k.mT, k @ nV @ fiber_reps @ n_inv @ k.mT], axis=-3)
    residual = upper_max(kk_gram(algebra, pt0.w_coords, X) - chart_sigma_per_call(data, pt, Ys))
    return residual, expm(STEP * np.array([1.0, -1.0])[:, None, None, None] * Ys)


def liouville_fd_gap_per_call(data, pt):
    """liouville_fd_gap with its exp(+-h Y_i), the matrices of B(., Y_j) and sigma built in the call."""
    from lieorb.kkform import form_matrix, upper_max
    from lieorb.liecore import expm
    from lieorb.symplecto import STEP, horizontal_basis

    algebra = data.algebra
    n, d2 = data.n_dim, algebra.d * algebra.d
    Ys = horizontal_basis(data)
    s = STEP * np.array([1.0, -1.0])
    E = expm(s[:, None, None, None] * Ys)  # exp(+-h Y_i); E[::-1] holds exp(-+h Y_i), their inverses
    duals = form_matrix(algebra, algebra.coords(Ys)).reshape(n, d2)

    def tau_of(Z):  # -B(Z, Y_j) over the last axis j
        return -(Z.reshape(Z.shape[:-2] + (d2,)) @ duals.T)

    V = data.n_matrix_of(pt.V)[..., None, None, :, :]
    fiber = data.n_matrix_of(pt.V[..., None, None, :] + s[:, None, None] * np.eye(n))
    tau = np.zeros(np.shape(pt.V)[:-1] + (2, 2 * n, 2 * n))  # [..., +-, direction, component]
    # B(V, Ad(E)^-1 Y_j) = B(Ad(E) V, Y_j): Ad(exp(+-h Y_i)) V where j < i
    tau[..., :n, :n] = np.where(np.tri(n, k=-1, dtype=bool), tau_of(E @ V @ E[::-1]), tau_of(V))
    tau[..., n:, :n] = tau_of(fiber)
    dtau = (tau[..., 0, :, :] - tau[..., 1, :, :]) / (2 * STEP)
    return upper_max(chart_sigma_per_call(data, pt, Ys) + (dtau - np.swapaxes(dtau, -1, -2)))


# -- single-point forms of the batched verify checks ---------------------------


def kp_decompose_single(algebra, g, p_filtration_coords):
    """The single-point KP decomposition, with its Iwasawa step in separate
    real and complex branches; returns the K factor and the parabolic factor."""
    from lieorb.liecore import TOL_DECOMP, DecompositionError, embed_complex, extract_complex

    G = np.asarray(g, dtype=float)
    Z = extract_complex(G) if algebra.is_complex else G
    det = complex(np.linalg.det(Z))
    hadamard = float(np.prod(np.linalg.norm(Z, axis=0)))
    if abs(det - 1.0) > TOL_DECOMP + 8 * algebra.d * np.finfo(float).eps * hadamard:
        raise DecompositionError(f"input is not special (det = {det})")
    q, r = np.linalg.qr(Z)
    dg = np.diagonal(r)
    if np.min(np.abs(dg)) < 1e-12:
        raise DecompositionError("singular input")
    if algebra.is_complex:
        u = dg / np.abs(dg)
        q = q * u[None, :]
        r = np.conj(u)[:, None] * r
        avec = np.abs(np.diagonal(r)).real
        kmat = embed_complex(q)
        amat = embed_complex(np.diag(avec).astype(complex))
        nmat = embed_complex(r / avec[:, None])
    else:
        s = np.sign(dg)
        q = q * s[None, :]
        r = s[:, None] * r
        avec = np.diagonal(r)
        kmat, amat, nmat = q, np.diag(avec), r / avec[:, None]
    resid = float(np.max(np.abs(kmat @ amat @ nmat - G)))
    if resid > TOL_DECOMP * max(1.0, float(np.max(np.abs(G)))):
        raise DecompositionError(f"Iwasawa reconstruction residual {resid:.3e}")
    p = amat @ nmat
    F = np.asarray(p_filtration_coords, dtype=float)
    Q, _ = np.linalg.qr(F.T)
    y = algebra.coords(p @ algebra.from_coords(F) @ np.linalg.inv(p))
    worst = float(np.max(np.abs(y - y @ (Q @ Q.T))))
    if worst > TOL_DECOMP * max(1.0, float(np.max(np.abs(y)))):
        raise DecompositionError(f"KP factor leaves the parabolic filtration ({worst:.3e})")
    return kmat, p


def check_flow_loop(data, V, U0):
    """The flow check one point at a time: the oracle gap at t = 1 and t = -2,
    the degree histogram (each point counted once per time), and the chart
    round trip over the first 25 points."""
    from lieorb.flows import exp_H, flow_exact, flow_numeric, invert_exp_H

    gap, hist = 0.0, {}
    exact = [flow_exact(data, V[i], U0[i]) for i in range(len(V))]
    for t in (1.0, -2.0):
        num = flow_numeric(data, V, U0, t)
        for i, fp in enumerate(exact):
            gap = max(gap, float(np.max(np.abs(fp.eval(t) - num[i]))))
            hist[str(fp.degree)] = hist.get(str(fp.degree), 0) + 1
    roundtrip = max(float(np.max(np.abs(invert_exp_H(data, exp_H(data, v)) - v))) for v in V[:25])
    return gap, dict(sorted(hist.items())), roundtrip


def linear_chart_exact(data, V):
    """n = I + N with (c - V) N - N c = V on Fraction object arrays: back
    substitution over the eigenvalue levels in increasing grade, exact for the
    rational n(c) coordinates V.  Returns n with the exact matrices c and V."""
    from fractions import Fraction

    c = list(data.c_entries) * (2 if data.algebra.is_complex else 1)  # the realified c is diag(c, c)
    d = len(c)
    basis = np.vectorize(Fraction, otypes=[object])(data.n_basis)  # integer entries: exact
    Vm = np.tensordot(np.array(V, dtype=object), basis, axes=1)
    N = np.full((d, d), Fraction(0), dtype=object)
    for nu in sorted(set(data.grades_exact)):
        VN = Vm + Vm.dot(N)
        level = [g == nu for g in data.grades_exact]
        for i, j in zip(*np.nonzero(np.any(data.n_basis[level] != 0, axis=0))):
            N[i, j] = VN[i, j] / (c[i] - c[j])
    return N + np.eye(d, dtype=int).astype(object), np.diag(np.array(c, dtype=object)), Vm


def theta_dense(algebra):
    """theta as a dense dim x dim matrix: column k holds the coordinates of theta(b_k) = -b_k^T."""
    return algebra.coords(algebra.theta(algebra.basis)).T


def j_layout(algebra):
    """(perm, sign) with J b_k = sign_k b_perm(k), written out from the layout of coords rather than
    read off the matrix J: i takes the real basis vector of each complex coordinate to its
    imaginary one, and that to minus the real one."""
    r, perm, sign = algebra.n - 1, np.arange(algebra.dim), np.ones(algebra.dim)
    perm[:r] += r
    perm[r : 2 * r] -= r
    perm[2 * r :: 2] += 1
    perm[2 * r + 1 :: 2] -= 1
    sign[r : 2 * r] = sign[2 * r + 1 :: 2] = -1
    return perm, sign


def inner_matrix_dense(algebra):
    """-B(b_i, theta b_k) as the dense product -K Th."""
    return -algebra.killing_matrix @ theta_dense(algebra)


def nbar_coords_dense(algebra, b_indices):
    """The rows theta(V_j) as columns of the dense theta (+ 0.0 clears its signed zeros)."""
    return theta_dense(algebra)[:, list(b_indices)].T + 0.0


def theta_pairing_dense(rs):
    """max |theta(X_i)| off the basis vectors of weight -weight_i, over the root vectors X_i, on the dense theta."""
    from lieorb.rootspace import weight_code

    weight = weight_code(rs.weights)
    ri = np.flatnonzero(weight)
    theta = theta_dense(rs.algebra)[:, ri]
    return float(np.max(np.abs(np.where(weight[:, None] != -weight[ri], theta, 0.0)), initial=0.0))


def k_from_roots_dense(rs, split):
    """rootspace.k_from_roots_check with the rows e_b + theta(e_b) read off the dense theta."""
    from lieorb.rootspace import positive_system

    Th = theta_dense(rs.algebra)
    members = np.concatenate([root.members for root in positive_system(rs)])
    A = np.concatenate([rs.m_coords, np.eye(rs.algebra.dim)[members] + Th[:, members].T]).T
    Qa, _ = np.linalg.qr(A)
    Qk, _ = np.linalg.qr(split.k_coords.T)
    return float(np.linalg.norm(Qa @ Qa.T - Qk @ Qk.T, ord=2))


def theta_automorphism_einsum(c, Th):
    """max |theta [b_i, b_j] - [theta b_i, theta b_j]| from the dense dim^3 contraction."""
    return float(np.max(np.abs(c @ Th.T - np.einsum("pi,qj,pqk->ijk", Th, Th, c, optimize=True))))


def complex_linearity_einsum(c, Jm):
    """max |[J b_i, b_j] - J [b_i, b_j]| from the dense dim^3 contraction, J given by its matrix."""
    return float(np.max(np.abs(np.einsum("pi,pjk->ijk", Jm, c) - c @ Jm.T)))


def complex_bilinear_part(f, Jm):
    """The C-bilinear part (F - J F(J., .) - J F(., J.) - F(J., J.)) / 4 of a real bilinear map F,
    given as f[i, j, k] on the basis, with J given by its matrix."""
    t1 = np.einsum("pi,pjm,km->ijk", Jm, f, Jm)
    t2 = np.einsum("qj,iqm,km->ijk", Jm, f, Jm)
    t3 = np.einsum("pi,qj,pqk->ijk", Jm, Jm, f)
    return (f - t1 - t2 - t3) / 4


# -- per-sample draws of the verify checks ------------------------------------
# Each draws from rng in the order and amounts the batched check must match.


def random_in_K_single(algebra, rng):
    """One Haar-random element of K, with separate real and complex branches."""
    from lieorb.liecore import embed_complex

    n = algebra.n
    if algebra.is_complex:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(z)
        dg = np.diagonal(r)
        q = q * (dg / np.abs(dg))[None, :]
        det = np.linalg.det(q)
        q = q * np.exp(-1j * np.angle(det) / n)
        return embed_complex(q)
    m = rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diagonal(r))[None, :]
    if np.linalg.det(q) < 0:
        q = q.copy()
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def sample_points_loop(data, rng, count):
    """count cotangent points (k, 0.8 V), each drawn k first, one point at a time; returns (k, V)."""
    k, V = zip(*((random_in_K_single(data.algebra, rng), 0.8 * rng.standard_normal(data.n_dim)) for _ in range(count)))
    return np.stack(k), np.stack(V)


def check_kk_loop(algebra, c, rng, samples, data=None):
    """The sampled values of the kk check one sample at a time, and the
    fiber isotropy over the base fiber and three moved ones when data is given."""
    from lieorb.kkform import closedness_check, fiber_isotropy_check, kk_eval, orbit_point
    from lieorb.liecore import expm, random_element

    anti = inv = closed = 0.0
    for _ in range(samples):
        g = expm(random_element(algebra, rng, 0.4))
        pt = orbit_point(algebra, c, g, validate=False)
        X, Y, Z = (random_element(algebra, rng) for _ in range(3))
        anti = max(anti, abs(kk_eval(algebra, pt, X, Y) + kk_eval(algebra, pt, Y, X)))
        anti = max(anti, abs(kk_eval(algebra, pt, X, X)))
        closed = max(closed, closedness_check(algebra, pt, X, Y, Z))
        h = expm(random_element(algebra, rng, 0.4))
        pt2 = orbit_point(algebra, c, h @ g, validate=False)
        h_inv = np.linalg.inv(h)
        inv = max(
            inv,
            abs(kk_eval(algebra, pt2, h @ X @ h_inv, h @ Y @ h_inv) - kk_eval(algebra, pt, X, Y)),
        )
    out = {"antisymmetry": anti, "invariance": inv, "closedness": closed}
    if data is not None:
        iso = fiber_isotropy_check(data)
        for _ in range(3):
            iso = max(iso, fiber_isotropy_check(data, expm(random_element(algebra, rng, 0.4))))
        out["fiber_isotropy"] = iso
    return out


def section_lagrangian_loop(data, rng, samples):
    """max |Omega| on k-directions pushed to zero-section points, one sample at a time."""
    from lieorb.kkform import kk_gram, orbit_point, upper_max
    from lieorb.liecore import cartan_split

    algebra = data.algebra
    split = cartan_split(algebra)
    worst = 0.0
    for _ in range(samples):
        k = random_in_K_single(algebra, rng)
        pt = orbit_point(algebra, data.c, k, validate=False)
        dirs = k @ split.k_basis @ k.T
        worst = max(worst, upper_max(kk_gram(algebra, pt.w_coords, dirs)))
    return worst


def re_omega_scale_loop(algebra, c, rng):
    """The arnold scale check |Re Omega_C - Omega / 2| over 10 samples, one at a time."""
    from lieorb.kkform import kk_eval, orbit_point
    from lieorb.liecore import complex_trace_form, expm, random_element

    scale_gap = 0.0
    pt = orbit_point(algebra, c, expm(random_element(algebra, rng, 0.3)), validate=False)
    for _ in range(10):
        X, Y = random_element(algebra, rng), random_element(algebra, rng)
        om = kk_eval(algebra, pt, X, Y)
        om_c = complex_trace_form(algebra, pt.w, algebra.bracket(X, Y))
        scale_gap = max(scale_gap, abs(om_c.real - om / 2.0))
    return scale_gap


def flow_numeric_stepwise(data, V, U0, t):
    """The collocation witness at one time as six sequential steps: the whole
    step, then the two half steps, each solving its own stages with its own
    field evaluations; the step-by-step route flow_numeric batches."""
    from lieorb import flows

    V = np.asarray(V, dtype=float)
    U0 = np.broadcast_arrays(np.asarray(U0, dtype=float), V)[0]
    if t == 0.0:
        return U0.copy()
    B = int(data.block_grades.max())
    A, b = flows._gauss_legendre(B + 1)

    def step(U, h):
        Y = np.broadcast_to(U, (len(b),) + U.shape)
        for _ in range(B + 3):
            F = flows._hv_series(data, V, Y[None], 0)[0]
            Yn = U + h * np.tensordot(A, F, axes=1)
            gap, tol, Y = float(np.max(np.abs(Yn - Y))), 1e-13 * (1.0 + float(np.max(np.abs(Yn)))), Yn
            if gap <= tol:
                return U + h * np.tensordot(b, F, axes=1)
        raise AssertionError("the stages did not settle")

    coarse, fine = step(U0, t), step(step(U0, t / 2), t / 2)
    assert float(np.max(np.abs(fine - coarse))) < 1e-9 * (1.0 + float(np.max(np.abs(fine))))
    return fine


def commute_four_flows(data, V, W):
    """commute_residual by four exact flows over the whole batch: each of V and
    W from 0, and each from the other's end point."""
    from lieorb.flows import flow_exact

    V, W = np.broadcast_arrays(np.asarray(V, float), np.asarray(W, float))
    zero = np.zeros(V.shape)
    a = flow_exact(data, V, flow_exact(data, W, zero).eval(1.0)).eval(1.0)
    b = flow_exact(data, W, flow_exact(data, V, zero).eval(1.0)).eval(1.0)
    return float(np.max(np.linalg.norm(a - b, axis=-1), initial=0.0))
