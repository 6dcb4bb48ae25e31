from fractions import Fraction

import numpy as np
import pytest

from graphcurv import (
    DistanceMatrix,
    SolveStatus,
    apsp,
    complete,
    curvature_bound,
    cycle,
    game_value,
    game_vs_curvature,
    gnp,
    hypercube,
    measure_uniform,
    parse_generator_spec,
    path,
    solve_curvature,
    star,
    transitive_oracle,
    transport_vector,
    verify_minimax,
)
from graphcurv import game
from oracles import game_value_float


class TestFixtures:
    def test_complete4(self):
        sol = game_value(apsp(complete(4)))
        assert sol.value == Fraction(3, 4)
        assert sol.maximin_strategy == measure_uniform(4)

    def test_cycle4(self):
        sol = game_value(apsp(cycle(4)))
        assert sol.value == 1

    def test_star4(self):
        sol = game_value(apsp(star(4)))
        assert sol.value == 1
        # any optimal strategy is accepted, but it must certify the value
        assert transport_vector(apsp(star(4)), sol.maximin_strategy).A == 1

    def test_single_vertex(self):
        sol = game_value(apsp(complete(1)))
        assert sol.value == 0


class TestCertificates:
    @pytest.mark.parametrize("g", [path(5), cycle(6), star(7), complete(6), hypercube(3)])
    def test_certificates_close_exactly(self, g):
        D = apsp(g)
        sol = game_value(D)
        low = min(
            sum(Fraction(int(D.entries[u, v])) * sol.maximin_strategy.p[v] for v in range(g.n))
            for u in range(g.n)
        )
        high = max(
            sum(Fraction(int(D.entries[v, u])) * sol.minimax_strategy.p[v] for v in range(g.n))
            for u in range(g.n)
        )
        assert low == sol.value == high

    def test_symmetry_under_transpose(self):
        for g in [path(6), star(5), gnp(9, Fraction(1, 2), 4)[0]]:
            D = apsp(g)
            Dt = DistanceMatrix(n=g.n, entries=D.entries.T.copy())
            assert game_value(D).value == game_value(Dt).value


class TestFloatCrossCheck:
    def test_agrees_with_scipy_lp(self):
        graphs = [path(6), cycle(7), star(8), complete(5)]
        graphs += [gnp(8 + s, Fraction(1, 2), s)[0] for s in range(4)]
        for g in graphs:
            exact = game_value(apsp(g)).value
            approx = game_value_float(apsp(g).entries)
            assert abs(float(exact) - approx) < 1e-8, g


class TestCurvatureComparison:
    def test_path3_equal(self):
        rec = game_vs_curvature(apsp(path(3)))
        assert rec.value == rec.K == 1 and rec.equal

    def test_star4_not_equal(self):
        rec = game_vs_curvature(apsp(star(4)))
        assert rec.value == 1 and rec.K == Fraction(3, 4) and not rec.equal
        assert rec.value > rec.K

    def test_hypercube3_value_matches_oracle_K(self):
        # D(Q3) is singular, so the unique-solution comparison does not apply;
        # the game value still equals the canonical K = rowsum/n
        D = apsp(hypercube(3))
        assert solve_curvature(D).status is SolveStatus.UNDERDETERMINED
        assert game_value(D).value == transitive_oracle(D) == Fraction(3, 2)
        with pytest.raises(ValueError):
            game_vs_curvature(D)

    def test_equivalence_on_nonneg_families(self):
        graphs = [path(n) for n in range(2, 11)]
        graphs += [cycle(n) for n in (3, 5, 7, 9)]
        graphs += [complete(n) for n in range(2, 9)]
        graphs += [hypercube(1)]
        for g in graphs:
            D = apsp(g)
            sol = solve_curvature(D)
            assert sol.status is SolveStatus.UNIQUE and sol.nonneg, g
            rec = game_vs_curvature(D, sol)
            assert rec.equal, g

    def test_equivalence_on_nonneg_gnp(self):
        # deterministic seed scan for 50 connected gnp graphs with nonneg w
        found = 0
        seed = 0
        while found < 50 and seed < 1000:
            g, _ = gnp(5 + seed % 4, Fraction(3, 4), seed)
            seed += 1
            D = apsp(g)
            sol = solve_curvature(D)
            if sol.status is not SolveStatus.UNIQUE or not sol.nonneg:
                continue
            found += 1
            assert game_vs_curvature(D, sol).equal, (g, seed)
        assert found == 50

    def test_witness_link_on_stars(self):
        # when value > K the maximin strategy is itself a lower-bound witness
        for n in range(4, 8):
            D = apsp(star(n))
            sol = solve_curvature(D)
            gsol = game_value(D)
            K = curvature_bound(sol, n)
            assert gsol.value > K
            assert transport_vector(D, gsol.maximin_strategy).A == gsol.value > K
            report = verify_minimax(D, sol, [("maximin", gsol.maximin_strategy)])
            assert report.lower_failures == 1


def bland_only(D, monkeypatch):
    """game_value with the float basis finder switched off: the exact Bland path."""
    with monkeypatch.context() as m:
        m.setattr(game, "_float_basis", lambda M: None)
        return game_value(D)


class TestCertifiedBasisAgainstBland:
    """The certified float basis against the exact simplex it short-cuts."""

    REPORT_SMALL_FAMILIES = ["hypercube:5", "cycle:39", "grid:5,8", "star:40", "path:40",
                             "cycle:40", "complete:40"]

    @pytest.mark.parametrize("spec", REPORT_SMALL_FAMILIES
                             + [f"gnp:{n},1/4" for n in (20, 22, 24, 26)])
    def test_report_families(self, spec, monkeypatch):
        D = apsp(parse_generator_spec(spec, seed=1))
        assert game_value(D) == bland_only(D, monkeypatch)

    def test_gnp_seeds(self, monkeypatch):
        for seed in range(100):
            g, _ = gnp(4 + seed % 13, Fraction(1, 2 + seed % 3), seed)
            D = apsp(g)
            assert game_value(D) == bland_only(D, monkeypatch), seed


class TestForcedFallback:
    """Any basis the exact checks reject hands over to the Bland simplex."""

    @pytest.mark.parametrize("basis", [
        lambda n: None,                        # pivot cap reached
        lambda n: list(range(n, 2 * n)),       # the slack basis: feasible, not optimal
        lambda n: [0] + list(range(n + 1, 2 * n)),  # y_0 basic: min(D P) = 0 < max(D^T Q)
        lambda n: list(range(n)),              # all y columns: D + 1 is singular on Q3
    ])
    def test_fallback_returns_bland_answer(self, basis, monkeypatch):
        D = apsp(hypercube(3))
        expected = bland_only(D, monkeypatch)
        calls = []
        simplex = game._simplex_bland

        def counted(M):
            calls.append(len(M))
            return simplex(M)

        monkeypatch.setattr(game, "_float_basis", lambda M: basis(len(M)))
        monkeypatch.setattr(game, "_simplex_bland", counted)
        assert game_value(D) == expected
        assert calls == [8]

    def test_singular_basis_is_detected(self):
        D = apsp(hypercube(3))
        M = [[x + 1 for x in row] for row in D.row_lists()]
        assert game._basis_pair(M, list(range(8))) is None

    def test_pivot_cap(self, monkeypatch):
        M = [[x + 1 for x in row] for row in apsp(path(6)).row_lists()]
        assert game._float_basis(M) is not None
        monkeypatch.setattr(game, "FLOAT_PIVOT_CAP", 1)
        assert game._float_basis(M) is None


def test_comparison_reuses_given_game_solution(monkeypatch):
    D = apsp(star(5))
    gsol = game_value(D)
    monkeypatch.setattr(game, "game_value", lambda D: pytest.fail("game solved twice"))
    rec = game_vs_curvature(D, solve_curvature(D), gsol)
    assert rec.value == gsol.value
