"""Distances in the narrowest unsigned dtype, checked at the uint8/uint16 switch.

`apsp` returns D in np.min_scalar_type(diameter).  path:256 (diameter 255)
is the widest uint8 matrix and path:257 (diameter 256) the narrowest uint16
one, both from scipy's Dijkstra; gnp:40,1/5 comes from the bit-parallel BFS.
Every consumer must give on D what it gives on the same matrix in int64.
"""

from fractions import Fraction

import numpy as np
import pytest

from graphcurv import (
    DistanceMatrix,
    apsp,
    eccentricities,
    game_value,
    gnp,
    measure_battery,
    parse_generator_spec,
    path,
    row_sums,
    solve_curvature,
    solve_curvature_float,
    verify_minimax,
)
from graphcurv import metric

CASES = {
    "path:256": (lambda: path(256), "_dijkstra", np.uint8),
    "path:257": (lambda: path(257), "_dijkstra", np.uint16),
    "gnp:40,1/5": (lambda: gnp(40, Fraction(1, 5), 1)[0], "_bitbfs", np.uint8),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def pair(request):
    """(D as apsp returns it, the same matrix in int64), with the branch checked."""
    make, branch, dtype = CASES[request.param]
    g = make()
    calls = []
    kernel = getattr(metric, branch)
    mp = pytest.MonkeyPatch()
    mp.setattr(metric, branch, lambda g: calls.append(branch) or kernel(g))
    try:
        D = apsp(g)
    finally:
        mp.undo()
    assert calls == [branch]
    assert D.entries.dtype == dtype
    return D, DistanceMatrix(D.n, D.entries.astype(np.int64))


def test_dtype_is_chosen_by_the_diameter():
    for spec in ("path:1", "path:2", "path:65", "path:66", "path:256", "path:257", "cycle:300",
                 "star:40", "grid:10,12", "hypercube:6"):
        D = apsp(parse_generator_spec(spec))
        assert D.entries.dtype == np.min_scalar_type(int(D.entries.max())), spec
        assert D.entries.dtype.kind == "u", spec


def test_row_sums_and_eccentricities(pair):
    D, wide = pair
    sums = row_sums(D)
    assert sums.dtype == np.int64 and np.array_equal(sums, row_sums(wide))
    ecc, radius, diameter = eccentricities(D)
    ecc_wide, *rd = eccentricities(wide)
    assert ecc.dtype == np.int64 and np.array_equal(ecc, ecc_wide)
    assert [radius, diameter] == rd


def test_exact_solve(pair):
    D, wide = pair
    assert solve_curvature(D) == solve_curvature(wide)


def test_float_solve_bit_for_bit(pair):
    D, wide = pair
    got, expected = solve_curvature_float(D), solve_curvature_float(wide)
    assert got.w.tobytes() == expected.w.tobytes()
    assert (got.residual_inf, got.condition_hint) == (expected.residual_inf, expected.condition_hint)


def test_game(pair):
    # on path:256 the payoffs D + 1 reach 256, past uint8
    D, wide = pair
    assert game_value(D) == game_value(wide)
    sol = solve_curvature(wide)
    assert game_value(D, sol) == game_value(wide, sol)


def test_verify_minimax(pair):
    D, wide = pair
    sol = solve_curvature(wide)
    battery = measure_battery(D.n, samples=5, seed=1)
    assert verify_minimax(D, sol, battery) == verify_minimax(wide, sol, battery)
