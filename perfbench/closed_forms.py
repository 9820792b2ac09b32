"""Closed forms and independent properties that the benchmark checks outputs against.

Nothing here calls lieorb: the expected values follow from the block structure
of the chamber element c = diag(c_1, ..., c_n) alone.  Let s be the number of
distinct entries of c, m_a their multiplicities and f = 1 over R, 2 over C.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with its closed form."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def field_factor(field: str) -> int:
    return 2 if field == "C" else 1


def blocks(entries) -> list[tuple[Fraction, int]]:
    """Distinct entries in non-increasing order with their multiplicities m_a."""
    counts = Counter(Fraction(e) for e in entries)
    return sorted(counts.items(), reverse=True)


def parabolic_forms(entries, field: str) -> dict:
    """dim n(c), dim z(c), N0 and the eigenvalue ladder of ad(c) on n(c)."""
    f = field_factor(field)
    bl = blocks(entries)
    levels: Counter = Counter()
    for a, (ca, ma) in enumerate(bl):
        for cb, mb in bl[a + 1 :]:
            levels[ca - cb] += f * ma * mb
    return {
        "dim_n": sum(levels.values()),
        "dim_z": f * (sum(m * m for _, m in bl) - 1),
        "N0": max(1, len(bl) - 2),
        "levels": sorted(levels.items()),
    }


def root_forms(n: int, field: str) -> dict:
    """The restricted roots e_i - e_j of sl(n), each of multiplicity f."""
    roots = Counter()
    for i in range(n):
        for j in range(n):
            if i != j:
                w = [0] * n
                w[i], w[j] = 1, -1
                roots[tuple(w)] = field_factor(field)
    return {"dim": field_factor(field) * (n * n - 1), "roots": roots}


def complex_part(M: np.ndarray) -> np.ndarray:
    """Z from the real embedding [[Re Z, -Im Z], [Im Z, Re Z]] (checked)."""
    n = M.shape[-1] // 2
    A, B, C, D = M[..., :n, :n], M[..., :n, n:], M[..., n:, :n], M[..., n:, n:]
    scale = 1.0 + float(np.max(np.abs(M)))
    require(
        float(np.max(np.abs(A - D))) <= 1e-12 * scale and float(np.max(np.abs(B + C))) <= 1e-12 * scale,
        "matrix is not the real embedding of a complex matrix",
    )
    return A + 1j * C


def embed(Z: np.ndarray) -> np.ndarray:
    return np.block([[Z.real, -Z.imag], [Z.imag, Z.real]])


def killing_oracle(basis: np.ndarray, n: int, field: str) -> np.ndarray:
    """2n tr(XY) on a basis of sl(n, R); 4n Re tr(Z_X Z_Y) on realified sl(n, C)."""
    if field == "C":
        Z = complex_part(basis)
        return 4 * n * np.einsum("iab,jba->ij", Z, Z).real
    return 2 * n * np.einsum("iab,jba->ij", basis, basis)


def exactness_rule(entries) -> tuple[bool, bool]:
    """(Re Omega exact, Im Omega exact) on the orbit of diag(entries) in sl(n, C).

    Re Omega is exact iff every difference c_a - c_b is real, Im Omega iff
    every difference is purely imaginary.
    """
    vals = [complex(e) for e in entries]
    diffs = [a - b for a in vals for b in vals]
    return all(d.imag == 0 for d in diffs), all(d.real == 0 for d in diffs)


def block_index(entries) -> np.ndarray:
    """Block number of each diagonal position (entries non-increasing)."""
    order = [c for c, _ in blocks(entries)]
    return np.array([order.index(Fraction(e)) for e in entries])


def random_special_unitary(rng: np.random.Generator, n: int, field: str) -> np.ndarray:
    """A Haar-like element of SO(n), or of SU(n) in the real embedding."""
    if field == "C":
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]
        q = q * np.exp(-1j * np.angle(np.linalg.det(q)) / n)
        return embed(q)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))[None, :]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
