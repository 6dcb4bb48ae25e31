import dataclasses
import functools
import re
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from graphcurv import (
    DistanceMatrix,
    Graph,
    HardVerificationError,
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
    search_lower_violation,
    solve_curvature,
    star,
    transitive_oracle,
    transport_vector,
    verify_minimax,
)
from graphcurv import curvature, game, rationals, verifier
import oracles
from oracles import (bareiss_solve, basis_pair_fraction, certified_fraction, game_value_float,
                     simplex_basis_full, simplex_bland_fraction)
from test_curvature import small_primes_first


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

    def test_forged_value_below_K_is_hard_error(self):
        # n = w^T D Q <= ||w||_1 max_u (D Q)_u, so K <= value whatever the signs of w
        for g in (star(5), path(3)):
            D = apsp(g)
            sol = solve_curvature(D)
            forged = dataclasses.replace(game_value(D), value=sol.bound_K - Fraction(1, 7))
            for check in (game_vs_curvature, search_lower_violation):
                with pytest.raises(HardVerificationError, match=r"< K = .*K <= B\(Q\)"):
                    check(D, sol, forged)

    def test_forged_value_above_K_for_nonneg_w_is_hard_error(self):
        D = apsp(path(3))
        sol = solve_curvature(D)
        assert sol.status is SolveStatus.UNIQUE and sol.nonneg
        forged = dataclasses.replace(game_value(D), value=sol.bound_K + 1)
        for check in (game_vs_curvature, search_lower_violation):
            with pytest.raises(HardVerificationError, match="lower-bound witness"):
                check(D, sol, forged)

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


def is_exact(M):
    """Whether a `_simplex_basis` call is the exact run, on Fractions."""
    return M.dtype == object


def fraction_rows(M):
    return [[Fraction(x) for x in row] for row in M.tolist()]


def integer_pair(y, duals):
    """Fraction lists y and duals as `game._basis_pair`'s (y, den), (pi, pi_den).

    Each denominator is the lcm of the entries' own, as the lift gives it.
    """
    pair = []
    for v in (y, duals):
        den = lcm(*(x.denominator for x in v))
        pair.append(([x.numerator * (den // x.denominator) for x in v], den))
    return tuple(pair)


def bland_only(D):
    """The reference exact Bland simplex's answer, certified."""
    return game._certified(D, *integer_pair(*simplex_bland_fraction(fraction_rows(D.entries + 1))))


@functools.cache
def bland_spec(spec, seed):
    """`bland_only` of a generator spec, solved once per test run."""
    return bland_only(apsp(parse_generator_spec(spec, seed=seed)))


def exact_only(D, monkeypatch):
    """game_value with both float runs switched off: the exact Bland run."""
    simplex = game._simplex_basis
    with monkeypatch.context() as m:
        m.setattr(game, "_simplex_basis",
                  lambda M, steepest: simplex(M, steepest) if is_exact(M) else None)
        return game_value(D)


def bland_float_only(D, monkeypatch):
    """game_value with the steepest-edge run switched off: the float Bland basis, certified."""
    simplex = game._simplex_basis
    with monkeypatch.context() as m:
        m.setattr(game, "_simplex_basis", lambda M, steepest: None if steepest else simplex(M, False))
        return game_value(D)


def spy_runs(monkeypatch):
    """Record (steepest, basis found) for every float run game_value makes."""
    runs = []
    simplex = game._simplex_basis

    def spy(M, steepest):
        basis = simplex(M, steepest)
        if not is_exact(M):
            runs.append((steepest, basis is not None))
        return basis

    monkeypatch.setattr(game, "_simplex_basis", spy)
    return runs


def raw_candidate_basis(M, monkeypatch):
    """The steepest-edge run's final basis with its nondegeneracy screen switched off."""
    with monkeypatch.context() as m:
        m.setattr(game, "_nondegenerate", lambda *args: True)
        return game._simplex_basis(M, True)


def tight_sets(D, sol):
    """{j : (D P)_j = value} and {i : (D Q)_i = value} for the maximin P and minimax Q."""
    low = transport_vector(D, sol.maximin_strategy).dp
    high = transport_vector(D, sol.minimax_strategy).dp
    return ({j for j, x in enumerate(low) if x == sol.value},
            {i for i, x in enumerate(high) if x == sol.value})


# gnp(n, 1/(n // 10), seed) draws of 40-160 vertices
AT_SCALE = [(40 + seed * 120 // 49, seed) for seed in range(50)]


class TestCertifiedBasisAgainstBland:
    """The certified float basis against the exact simplex it short-cuts."""

    REPORT_SMALL_FAMILIES = ["hypercube:5", "cycle:39", "grid:5,8", "star:40", "path:40",
                             "cycle:40", "complete:40"]

    @pytest.mark.parametrize("spec", REPORT_SMALL_FAMILIES
                             + [f"gnp:{n},1/4" for n in (20, 22, 24, 26)])
    def test_report_families(self, spec):
        D = apsp(parse_generator_spec(spec, seed=1))
        assert game_value(D) == bland_spec(spec, 1)

    def test_gnp_seeds(self):
        for seed in range(100):
            g, _ = gnp(4 + seed % 13, Fraction(1, 2 + seed % 3), seed)
            D = apsp(g)
            assert game_value(D) == bland_only(D), seed


class TestUniqueOptimum:
    """A steepest-edge basis is kept only when its optimum is certified unique."""

    # the raw steepest-edge basis is optimal here, but its strategies are not Bland's
    DEGENERATE = ["path:60", "grid:8,10", "grid:5,8", "hypercube:6"]

    @pytest.mark.parametrize("spec", DEGENERATE)
    def test_optimal_but_not_unique_basis_is_rejected(self, spec, monkeypatch):
        D = apsp(parse_generator_spec(spec, seed=0))
        M = D.entries + 1
        expected = bland_only(D)
        raw = raw_candidate_basis(M, monkeypatch)
        pair = game._basis_pair(M, raw)
        assert game._certified(D, *pair) != expected  # optimal, yet a different answer
        with pytest.raises(HardVerificationError, match="not unique"):
            game._certified(D, *pair, raw)
        assert game_value(D) == expected

    @pytest.mark.parametrize("spec", DEGENERATE)
    def test_float_screen_rejects_degenerate_tableau(self, spec):
        M = apsp(parse_generator_spec(spec, seed=0)).entries + 1
        assert game._simplex_basis(M, True) is None
        assert game._simplex_basis(M, False) is not None

    # the raw steepest-edge basis has tight sets equal to its basis sets; only
    # zero basic entries, in Q, in P or in both, show that its optimum is not unique
    @pytest.mark.parametrize("n,seed,short", [(6, 405, ("minimax",)), (14, 1167, ("maximin",)),
                                              (6, 1068, ("minimax", "maximin"))],
                             ids=["Q", "P", "both"])
    def test_support_smaller_than_basis_is_rejected(self, n, seed, short, monkeypatch):
        D = apsp(gnp(n, Fraction(1, 2), seed)[0])
        M = D.entries + 1
        raw = raw_candidate_basis(M, monkeypatch)
        pair = game._basis_pair(M, raw)
        sol = game._certified(D, *pair)
        cols = {j for j in raw if j < n}
        rows = set(range(n)) - {j - n for j in raw if j >= n}
        assert tight_sets(D, sol) == (cols, rows)
        supports = (set(sol.minimax_strategy.support()), set(sol.maximin_strategy.support()))
        assert (supports[0] < cols, supports[1] < rows) == ("minimax" in short, "maximin" in short)
        assert sol != bland_only(D)
        with pytest.raises(HardVerificationError, match="not unique"):
            game._certified(D, *pair, raw)

    def test_bland_basis_of_a_non_unique_optimum_is_rejected(self):
        # no basis passes when the optimum is not unique, Bland's own included
        D = apsp(path(60))
        M = D.entries + 1
        basis = game._simplex_basis(M, False)
        pair = game._basis_pair(M, basis)
        game._certified(D, *pair)
        with pytest.raises(HardVerificationError, match="not unique"):
            game._certified(D, *pair, basis)

    # verify-mid's two gnp instances at benchmark seed 1
    @pytest.mark.parametrize("spec,seed", [("gnp:60,1/6", 1669037940),
                                           ("gnp:120,1/12", 1943460723)])
    def test_dantzig_answer_accepted(self, spec, seed, monkeypatch):
        D = apsp(parse_generator_spec(spec, seed=seed))
        expected = bland_float_only(D, monkeypatch)
        runs = spy_runs(monkeypatch)
        assert game_value(D) == expected
        assert runs == [(True, True)]

    def test_gnp_at_scale(self, monkeypatch):
        accepted = 0
        for n, seed in AT_SCALE:
            D = apsp(gnp(n, Fraction(1, n // 10), seed)[0])
            with monkeypatch.context() as m:
                runs = spy_runs(m)
                sol = game_value(D)
            accepted += runs == [(True, True)]
            M = D.entries + 1
            basis = game._simplex_basis(M, False)
            if basis is None:
                # Bland's float run hits FLOAT_PIVOT_CAP (n = 147, seed 44), and the
                # exact simplex behind it takes minutes; a unique optimum is its answer
                assert runs == [(True, True)], (n, seed)
                continue
            assert sol == game._certified(D, *game._basis_pair(M, basis)), (n, seed)
        assert accepted >= 25

    def test_capped_dantzig_run_hands_over_to_bland(self, monkeypatch):
        D = apsp(cycle(39))
        expected = bland_only(D)
        simplex = game._simplex_basis
        runs = []

        def capped(M, steepest):
            if is_exact(M):
                pytest.fail("exact simplex ran")
            with monkeypatch.context() as m:
                if steepest:
                    m.setattr(game, "FLOAT_PIVOT_CAP", 1)
                basis = simplex(M, steepest)
            runs.append((steepest, basis is not None))
            return basis

        monkeypatch.setattr(game, "_simplex_basis", capped)
        assert game_value(D) == expected
        assert runs == [(True, False), (False, True)]


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
        expected = bland_only(D)
        calls = []
        simplex = game._simplex_basis

        def counted(M, steepest):
            if not is_exact(M):
                return basis(len(M))
            calls.append(len(M))
            return simplex(M, steepest)

        monkeypatch.setattr(game, "_simplex_basis", counted)
        assert game_value(D) == expected
        assert calls == [8]

    def test_singular_basis_is_detected(self):
        M = apsp(hypercube(3)).entries + 1
        assert game._basis_pair(M, list(range(8))) is None

    @staticmethod
    def cycle39_basis():
        M = apsp(cycle(39)).entries + 1
        return M, game._simplex_basis(M, True)

    def test_basis_pair_moves_to_the_next_prime(self, monkeypatch):
        # det of cycle:39's full-support basis is 419, so it is singular mod 419
        M, basis = self.cycle39_basis()
        expected = game._basis_pair(M, basis)
        assert bareiss_solve((M[:39, :39]).tolist(), [0] * 39)[2] == 419
        primes = []
        eliminate = curvature._eliminate_mod

        def spy(A, p):
            primes.append(p)
            return eliminate(A, p)

        monkeypatch.setattr(curvature, "_eliminate_mod", spy)
        small_primes_first(monkeypatch, (419,))
        assert game._basis_pair(M, basis) == expected
        assert primes == [419, curvature.LIFT_PRIME]

    def test_basis_pair_lift_cap_raises(self, monkeypatch):
        M, basis = self.cycle39_basis()
        monkeypatch.setattr(curvature, "_reconstruct", lambda u, m: None)
        with pytest.raises(HardVerificationError, match="cap"):
            game._basis_pair(M, basis)

    def test_pivot_cap(self, monkeypatch):
        M = apsp(cycle(7)).entries + 1
        for steepest in (True, False):
            assert game._simplex_basis(M, steepest) is not None
        monkeypatch.setattr(game, "FLOAT_PIVOT_CAP", 1)
        for steepest in (True, False):
            assert game._simplex_basis(M, steepest) is None


class TestExactRun:
    """The simplex loop on Fractions against the list-of-Fractions Bland simplex."""

    GOLDEN = [("star:6", 0), ("path:7", 0), ("cycle:8", 0), ("hypercube:3", 0),
              ("grid:3,4", 0), ("gnp:12,1/3", 5)]
    REPORT_SMALL = [(spec, 1) for spec in TestCertifiedBasisAgainstBland.REPORT_SMALL_FAMILIES
                    + [f"gnp:{n},1/4" for n in (20, 22, 24, 26)]]

    @pytest.mark.parametrize("spec,seed", GOLDEN + REPORT_SMALL)
    def test_matches_oracle(self, spec, seed, monkeypatch):
        D = apsp(parse_generator_spec(spec, seed=seed))
        assert exact_only(D, monkeypatch) == bland_spec(spec, seed)

    def test_gnp_seeds(self, monkeypatch):
        for seed in range(100):
            D = apsp(gnp(4 + seed % 13, Fraction(1, 2 + seed % 3), seed)[0])
            assert exact_only(D, monkeypatch) == bland_only(D), seed

    def test_no_tolerance(self):
        # the least ratios of column 0 are 1e-12 and 5e-13: a float tolerance of
        # 1e-9 would tie them and pivot on row 0, the infeasible choice
        big = 10**12
        M = np.array([[big, 2 * big, 1], [2 * big, big, 1], [1, 1, big]], dtype=np.int64)
        fractions = fraction_rows(M)
        basis = game._simplex_basis(np.array(fractions, dtype=object), False)
        assert game._basis_pair(M, basis) == integer_pair(*simplex_bland_fraction(fractions))

    @pytest.mark.parametrize("spec,seed", [("hypercube:3", 0), ("gnp:12,1/3", 5), ("cycle:9", 0)])
    def test_pivot_cap_leaves_the_exact_run_alone(self, spec, seed, monkeypatch):
        D = apsp(parse_generator_spec(spec, seed=seed))
        simplex = game._simplex_basis
        runs = []

        def spy(M, steepest):
            basis = simplex(M, steepest)
            runs.append((is_exact(M), basis is not None))
            return basis

        monkeypatch.setattr(game, "FLOAT_PIVOT_CAP", 1)
        monkeypatch.setattr(game, "_simplex_basis", spy)
        assert game_value(D) == bland_spec(spec, seed)
        assert runs == [(False, False), (False, False), (True, True)]

    @pytest.mark.parametrize("basis,message", [
        (lambda n: None, "unbounded LP"),
        (lambda n: list(range(n)), "singular basis"),  # D + 1 is singular on Q3
        (lambda n: [0] + list(range(n + 1, 2 * n)), "do not close"),
    ], ids=["no leaving row", "singular", "certificate"])
    def test_exact_failure_raises(self, basis, message, monkeypatch):
        D = apsp(hypercube(3))
        calls = []

        def fake(M, steepest):
            calls.append(is_exact(M))
            return basis(len(M)) if is_exact(M) else None

        monkeypatch.setattr(game, "_simplex_basis", fake)
        with pytest.raises(HardVerificationError, match=message):
            game_value(D)
        assert calls == [False, False, True]


class TestCondensedTableau:
    """The simplex loop on the condensed tableau against the full-width loop it replaced."""

    VERIFY_MID_FAMILIES = ["path:60", "star:60", "grid:8,10"]
    # the families do not depend on the seed; the benchmark's gnp draws at seeds 1-3
    SPECS = ([(spec, 1) for spec in TestCertifiedBasisAgainstBland.REPORT_SMALL_FAMILIES
              + VERIFY_MID_FAMILIES]
             + [(f"gnp:{n},1/4", seed) for n in (20, 22, 24, 26) for seed in (1, 2, 3)]
             + [(spec, seed) for spec in ("gnp:60,1/6", "gnp:120,1/12") for seed in (1, 2, 3)])
    # Bland's run on Fractions takes 5 s on grid:8,10 and longer on the gnp draws
    EXACT_TOO_SLOW = {"grid:8,10", "gnp:60,1/6", "gnp:120,1/12"}

    @pytest.mark.parametrize("spec,seed", SPECS)
    def test_bland_runs_match_full_tableau(self, spec, seed):
        M = apsp(parse_generator_spec(spec, seed=seed)).entries + 1
        assert game._simplex_basis(M, False) == simplex_basis_full(M, False)
        if spec not in self.EXACT_TOO_SLOW:
            F = np.array(fraction_rows(M))
            assert game._simplex_basis(F, False) == simplex_basis_full(F, False)

    def test_gnp_seeds(self):
        for seed in range(100):
            M = apsp(gnp(4 + seed % 13, Fraction(1, 2 + seed % 3), seed)[0]).entries + 1
            for payoffs in (M, np.array(fraction_rows(M))):
                assert game._simplex_basis(payoffs, False) == simplex_basis_full(payoffs, False), seed

    def test_candidate_matches_certified_dantzig_basis(self):
        # wherever Dantzig's basis on the full tableau is certified unique, steepest
        # edge ends on the same basis
        accepted = 0
        for n, seed in AT_SCALE:
            D = apsp(gnp(n, Fraction(1, n // 10), seed)[0])
            M = D.entries + 1
            basis = simplex_basis_full(M, True)
            pair = None if basis is None else game._basis_pair(M, basis)
            if pair is None:
                continue
            try:
                game._certified(D, *pair, basis)
            except HardVerificationError:
                continue
            accepted += 1
            assert sorted(game._simplex_basis(M, True)) == sorted(basis), (n, seed)
        assert accepted >= 40  # 43 of the 50

    # Dantzig's rule on the full tableau takes 453, 93, 773 and 244 pivots here,
    # steepest edge 41, 40, 328 and 127
    @pytest.mark.parametrize("spec,seed,cap", [("gnp:120,1/12", 1943460723, 60),
                                               ("gnp:60,1/6", 1669037940, 60),
                                               ("gnp:200,1/8", 2, 400),
                                               ("gnp:100,1/5", 44, 200)])
    def test_candidate_within_pivot_budget(self, spec, seed, cap, monkeypatch):
        M = apsp(parse_generator_spec(spec, seed=seed)).entries + 1
        monkeypatch.setattr(game, "FLOAT_PIVOT_CAP", cap)
        monkeypatch.setattr(oracles, "FLOAT_PIVOT_CAP", cap)
        assert simplex_basis_full(M, True) is None
        assert game._simplex_basis(M, True) is not None


class TestBasisPair:
    """The basis and its transpose lifted on one elimination mod p."""

    SPECS = ["gnp:20,1/4", "gnp:22,1/4", "gnp:24,1/4", "gnp:26,1/4", "hypercube:5", "cycle:39",
             "grid:5,8", "star:40", "path:40", "cycle:40", "complete:40", "cycle:201"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_two_inverses(self, spec):
        # y = den B^-1 1 and pi = pi_den B^-T 1 for the basis block B = M[R, Y], zero
        # elsewhere and in lowest terms, by one Python-int product each
        M = apsp(parse_generator_spec(spec, seed=1)).entries + 1
        n = len(M)
        bases = [game._simplex_basis(M, steepest) for steepest in (True, False)]
        bases = [b for b in bases if b is not None]
        assert bases
        for basis in bases:
            (y, den), (pi, pi_den) = game._basis_pair(M, basis)
            cols = [j for j in basis if j < n]
            rows = sorted(set(range(n)) - {j - n for j in basis if j >= n})
            B = M[np.ix_(rows, cols)].astype(object)
            assert (B @ np.array([y[j] for j in cols], dtype=object) == den).all()
            assert (B.T @ np.array([pi[i] for i in rows], dtype=object) == pi_den).all()
            assert not any(y[j] for j in set(range(n)) - set(cols))
            assert not any(pi[i] for i in set(range(n)) - set(rows))
            assert den > 0 and pi_den > 0 and gcd(den, *y) == 1 == gcd(pi_den, *pi)

    @pytest.mark.parametrize("spec,size", [("cycle:39", 39), ("gnp:120,1/12", 18)])
    def test_one_inverse(self, spec, size, monkeypatch):
        # cycle:39's full-support basis is symmetric, gnp:120,1/12's is not
        M = apsp(parse_generator_spec(spec, seed=1)).entries + 1
        basis = game._simplex_basis(M, True)
        calls = []
        eliminate = curvature._eliminate_mod

        def counted(A, p):
            calls.append(len(A))
            return eliminate(A, p)

        monkeypatch.setattr(curvature, "_eliminate_mod", counted)
        assert game._basis_pair(M, basis) is not None
        assert calls == [size]


def certify_or_message(certify, D, pair, basis):
    """The solution `certify` returns for the pair, or the message of its refusal."""
    try:
        return certify(D, *pair, basis)
    except HardVerificationError as e:
        return str(e)


def matches_fraction_oracle(D, basis):
    """Whether `basis` passes the uniqueness check, after asserting that the oracles agree.

    The integer pair must be the Fraction pair, and `_certified` must give the same
    solution or refusal as `certified_fraction`, without and with the uniqueness check.
    """
    M = D.entries + 1
    pair, fractions = game._basis_pair(M, basis), basis_pair_fraction(M, basis)
    if fractions is None:
        assert pair is None
        return None
    assert pair == integer_pair(*fractions)
    answers = [certify_or_message(game._certified, D, pair, b) for b in (None, basis)]
    assert answers == [certify_or_message(certified_fraction, D, fractions, b)
                       for b in (None, basis)]
    return isinstance(answers[1], game.GameSolution)


class TestIntegerPair:
    """The pair as integer numerators against the Fraction pair and certificate it replaced."""

    @pytest.mark.parametrize("spec,seed", TestCondensedTableau.SPECS + [("cycle:201", 1)])
    def test_benchmark_specs(self, spec, seed, monkeypatch):
        D = apsp(parse_generator_spec(spec, seed=seed))
        M = D.entries + 1
        bases = [raw_candidate_basis(M, monkeypatch), game._simplex_basis(M, False)]
        bases = [b for b in bases if b is not None]
        assert bases
        for basis in bases:
            matches_fraction_oracle(D, basis)

    def test_at_scale(self, monkeypatch):
        decisions = []
        for n, seed in AT_SCALE:
            D = apsp(gnp(n, Fraction(1, n // 10), seed)[0])
            decisions.append(matches_fraction_oracle(D, raw_candidate_basis(D.entries + 1,
                                                                             monkeypatch)))
        assert decisions.count(True) >= 25 and decisions.count(False) >= 1

    def test_sums_close_only_without_denominators(self):
        # both numerators sum to 2, but 2/3 != 2/2
        with pytest.raises(HardVerificationError, match="non-closing"):
            game._certified(apsp(path(2)), ([1, 1], 3), ([1, 1], 2))

    @pytest.mark.parametrize("primal,dual", [(([2, -1], 3), ([1, 0], 3)),
                                             (([1, 0], 3), ([-1, 2], 3))], ids=["y", "pi"])
    def test_negative_entry(self, primal, dual):
        with pytest.raises(HardVerificationError, match="negative entry"):
            game._certified(apsp(path(2)), primal, dual)

    # path:2's game has value 1/2, P = Q = (1/2, 1/2) and y = pi = (1/3, 1/3)
    @pytest.mark.parametrize("primal,dual,message", [
        (([1, 1], 3), ([2, 0], 3), "min(D P) = 0, value = 1/2, max(D^T Q) = 1/2"),
        (([2, 0], 3), ([1, 1], 3), "min(D P) = 1/2, value = 1/2, max(D^T Q) = 1"),
    ], ids=["maximin", "minimax"])
    def test_certificate_off_by_one(self, primal, dual, message):
        D = apsp(path(2))
        assert game._certified(D, ([1, 1], 3), ([1, 1], 3)).value == Fraction(1, 2)
        with pytest.raises(HardVerificationError, match=re.escape(message)):
            game._certified(D, primal, dual)

    def test_wrong_tight_set(self):
        # on path:3, P = Q = (1/2, 0, 1/2) is optimal with D P = D Q = 1, so vertex 1 is
        # tight though the basis leaves y_1 out: Q = (a, 1 - 2a, a) is optimal for a <= 1/2
        D = apsp(path(3))
        pair = ([1, 0, 1], 4), ([1, 0, 1], 4)
        assert game._certified(D, *pair).value == 1
        with pytest.raises(HardVerificationError, match="not unique"):
            game._certified(D, *pair, [0, 2, 4])

    def test_unique_optimum_with_two_supports(self):
        # gnp(6, 1/2, seed 38): supp(P) = {0, 4, 5} and supp(Q) = {1, 4, 5}, so reading
        # each tight set off the other strategy's column would reject this unique optimum
        D = apsp(Graph(6, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (4, 5)]))
        sol = game._certified(D, ([0, 5, 0, 0, 1, 1], 18), ([3, 0, 0, 0, 2, 2], 18),
                              [5, 7, 8, 9, 1, 4])
        assert sol.value == Fraction(11, 7)
        assert sol.maximin_strategy.q == (3, 0, 0, 0, 2, 2)
        assert sol.minimax_strategy.q == (0, 5, 0, 0, 1, 1)
        assert sol == bland_only(D)

    @pytest.mark.parametrize("spec,seed", [("hypercube:3", 0), ("cycle:9", 0), ("gnp:12,1/3", 5)])
    def test_python_int_product(self, spec, seed, monkeypatch):
        D = apsp(parse_generator_spec(spec, seed=seed))
        expected = game_value(D)
        dtypes = []
        kernel = verifier.exact_matmul

        def spy(A, columns, bound, A_float=None):
            N = kernel(A, columns, bound, A_float)
            dtypes.append(N.dtype)
            return N

        monkeypatch.setattr(verifier, "exact_matmul", spy)
        monkeypatch.setattr(rationals, "FLOAT_EXACT_MAX", 1)
        monkeypatch.setattr(rationals, "INT64_MAX", 1)
        assert game_value(D) == expected
        assert dtypes and set(dtypes) == {np.dtype(object)}


def no_simplex(monkeypatch):
    """Make every simplex run fail the test: the game must be answered without one."""
    monkeypatch.setattr(game, "_simplex_basis",
                        lambda M, steepest: pytest.fail("the simplex ran"))


class TestPositiveCurvature:
    """A unique w > 0 is certified as the game's optimal pair before any simplex runs."""

    # every family instance with a unique, positive w
    POSITIVE = {"odd cycles": [f"cycle:{n}" for n in range(3, 102, 2)],
                "complete": [f"complete:{n}" for n in range(2, 101)],
                "two vertices": ["path:2", "star:2", "hypercube:1"]}

    @pytest.mark.parametrize("family", POSITIVE)
    def test_solves_without_the_simplex(self, family, monkeypatch):
        for spec in self.POSITIVE[family]:
            D = apsp(parse_generator_spec(spec))
            sol = solve_curvature(D)
            assert sol.status is SolveStatus.UNIQUE and sol.min_entry > 0, spec
            expected = game_value(D)
            with monkeypatch.context() as m:
                no_simplex(m)
                assert game_value(D, sol) == expected, spec
                assert game_vs_curvature(D, sol).value == expected.value == sol.bound_K, spec

    @pytest.mark.parametrize("spec", ["cycle:39", "complete:40"])
    def test_lower_violation_search_runs_no_simplex(self, spec, monkeypatch):
        # w > 0: value = K, and the game comes from the solution passed in
        D = apsp(parse_generator_spec(spec))
        sol = solve_curvature(D)
        no_simplex(monkeypatch)
        assert game.search_lower_violation(D, sol) is None

    @staticmethod
    def forged(sol, num, den):
        l1 = Fraction(sum(map(abs, num)), den)
        return dataclasses.replace(sol, num=tuple(num), den=den, l1_norm=l1, bound_K=sol.n / l1,
                                   min_entry=Fraction(min(num), den))

    @pytest.mark.parametrize("forge", [
        lambda num, den: ([7 * num[0] + den, *(7 * x for x in num[1:])], 7 * den),  # w[0] + 1/7
        lambda num, den: ([2 * x for x in num], den),  # D w = 2 n 1
        lambda num, den: (num, 3 * den),               # D w = n/3 1
    ], ids=["perturbed", "doubled", "third"])
    @pytest.mark.parametrize("spec", ["cycle:39", "complete:40", "cycle:5"])
    def test_forged_curvature_falls_through(self, spec, forge, monkeypatch):
        D = apsp(parse_generator_spec(spec))
        sol = solve_curvature(D)
        forged = self.forged(sol, *forge(list(sol.num), sol.den))
        assert forged.min_entry > 0 and forged.w != sol.w
        expected = game_value(D)
        runs = spy_runs(monkeypatch)
        assert game_value(D, forged) == expected
        assert runs

    @pytest.mark.parametrize("spec", ["cycle:40", "path:40", "star:40"],
                             ids=["underdetermined", "zeros", "signed"])
    def test_other_curvature_never_takes_the_shortcut(self, spec, monkeypatch):
        D = apsp(parse_generator_spec(spec))
        sol = solve_curvature(D)
        assert sol.status is not SolveStatus.UNIQUE or sol.min_entry <= 0
        expected = game_value(D)
        runs = spy_runs(monkeypatch)
        assert game_value(D, sol) == expected
        assert runs


def test_comparison_reuses_given_game_solution(monkeypatch):
    D = apsp(star(5))
    gsol = game_value(D)
    monkeypatch.setattr(game, "game_value", lambda D: pytest.fail("game solved twice"))
    rec = game_vs_curvature(D, solve_curvature(D), gsol)
    assert rec.value == gsol.value
