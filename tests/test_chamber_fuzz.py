"""Pipeline properties on randomly drawn rational chamber elements.

The fixed grid in conftest pins the canonical cases; this sweep guards the
machinery on arbitrary eigenvalue ladders (wall cases, fractional entries,
many distinct levels).
"""

import zlib
from fractions import Fraction

import numpy as np
import pytest

from lieorb.flows import exp_H, flow_exact, invert_exp_H
from lieorb.kkform import fiber_isotropy_check
from lieorb.parabolic import chamber_sort, hyperbolic_data
from oracles import symmetrized_power_vanishes_bruteforce


def _random_chamber(rng, n):
    while True:
        nums = rng.integers(-6, 7, size=n)
        dens = rng.integers(1, 5, size=n)
        entries = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
        total = sum(entries)
        entries = [e - total / n for e in entries]
        if any(entries):
            return chamber_sort(entries)


@pytest.mark.parametrize("key", ["sl3r", "sl4r", "sl3c"])
def test_random_chambers(ws, key):
    # crc32 rather than hash(): str hashes are salted per process
    rng = np.random.default_rng(zlib.crc32(key.encode()))
    alg = ws.algebra(key)
    rs = ws.rs(key)
    for _ in range(8):
        entries = _random_chamber(rng, alg.n)
        chamber = f"{key} c = ({', '.join(map(str, entries))})"
        data = hyperbolic_data(alg, rs, entries)
        assert 2 * data.n_dim == alg.dim - len(data.z_indices), chamber
        assert 1 <= data.N0 <= int(max(data.grades_exact) / min(data.grades_exact)), chamber
        assert symmetrized_power_vanishes_bruteforce(data.adn, data.N0 + 1), chamber
        assert data.N0 < 2 or not symmetrized_power_vanishes_bruteforce(data.adn, data.N0), chamber
        assert fiber_isotropy_check(data) < 1e-10, chamber
        for _ in range(2):
            V = rng.standard_normal(data.n_dim)
            fp = flow_exact(data, V, rng.standard_normal(data.n_dim))
            assert fp.degree <= int(data.block_grades.max()), chamber
            back = invert_exp_H(data, exp_H(data, V))
            assert np.max(np.abs(back - V)) < 1e-9, chamber
