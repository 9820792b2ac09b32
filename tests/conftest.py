import numpy as np
import pytest

from lieorb.liecore import AlgebraSpec, build_algebra, cartan_split
from lieorb.parabolic import hyperbolic_data
from lieorb.rootspace import maximal_abelian, restricted_roots

ALGEBRA_SPECS = {
    "sl2r": AlgebraSpec("sl", 2, "R"),
    "sl3r": AlgebraSpec("sl", 3, "R"),
    "sl4r": AlgebraSpec("sl", 4, "R"),
    "sl2c": AlgebraSpec("sl", 2, "C"),
    "sl3c": AlgebraSpec("sl", 3, "C"),
}

# larger algebras for the liecore certificates and byte-identity tests only
LARGER_SPECS = {
    "sl5r": AlgebraSpec("sl", 5, "R"),
    "sl8r": AlgebraSpec("sl", 8, "R"),
    "sl4c": AlgebraSpec("sl", 4, "C"),
    "sl6c": AlgebraSpec("sl", 6, "C"),
}

# the desk-scale verification grid: (algebra key, chamber entries)
DATA_GRID = [
    ("sl2r", (1, -1)),
    ("sl3r", (1, 0, -1)),
    ("sl3r", (1, 1, -2)),
    ("sl4r", (3, 1, -1, -3)),
    ("sl4r", (1, 1, -1, -1)),
    ("sl2c", (1, -1)),
    ("sl3c", (1, 0, -1)),
]


class Workspace:
    """Session-wide cache of built algebras and derived structures."""

    def __init__(self):
        self._algebras = {}
        self._splits = {}
        self._systems = {}
        self._datas = {}

    def algebra(self, key):
        if key not in self._algebras:
            self._algebras[key] = build_algebra({**ALGEBRA_SPECS, **LARGER_SPECS}[key])
        return self._algebras[key]

    def split(self, key):
        if key not in self._splits:
            self._splits[key] = cartan_split(self.algebra(key))
        return self._splits[key]

    def rs(self, key):
        if key not in self._systems:
            alg = self.algebra(key)
            self._systems[key] = restricted_roots(alg, maximal_abelian(alg, self.split(key)))
        return self._systems[key]

    def data(self, key, entries):
        ck = (key, tuple(entries))
        if ck not in self._datas:
            self._datas[ck] = hyperbolic_data(self.algebra(key), self.rs(key), entries)
        return self._datas[ck]


def cold_data(field, n, entries):
    """Hyperbolic data built cold, for algebras outside ALGEBRA_SPECS."""
    alg = build_algebra(AlgebraSpec("sl", n, field))
    return hyperbolic_data(alg, restricted_roots(alg, maximal_abelian(alg, cartan_split(alg))), entries)


@pytest.fixture(scope="session")
def ws():
    return Workspace()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
