import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from graphcurv import (
    HardVerificationError,
    InconsistentSystemError,
    NumericallySingularError,
    SolveStatus,
    apsp,
    complete,
    curvature_bound,
    cycle,
    gnp,
    grid,
    hypercube,
    parse_generator_spec,
    path,
    solve_curvature,
    solve_curvature_float,
    star,
    transitive_oracle,
)
from graphcurv import curvature
from graphcurv.curvature import bareiss_solve, dixon_solve
from oracles import (
    solve_curvature_float_copied,
    solve_curvature_fraction,
    solve_system_fraction,
    solve_system_fraction_lstsq,
)


def solved(g):
    D = apsp(g)
    return D, solve_curvature(D)


class TestHandFixtures:
    def test_path3(self):
        D, sol = solved(path(3))
        assert sol.status is SolveStatus.UNIQUE
        assert sol.w == (Fraction(3, 2), Fraction(0), Fraction(3, 2))
        assert sol.l1_norm == 3
        assert sol.bound_K == 1
        assert sol.nonneg

    def test_path4(self):
        D, sol = solved(path(4))
        assert sol.w == (Fraction(4, 3), Fraction(0), Fraction(0), Fraction(4, 3))
        assert sol.bound_K == Fraction(3, 2)

    def test_complete4(self):
        D, sol = solved(complete(4))
        assert sol.status is SolveStatus.UNIQUE
        assert sol.w == (Fraction(4, 3),) * 4

    def test_star4_signed(self):
        D, sol = solved(star(4))
        assert sol.status is SolveStatus.UNIQUE
        assert sol.w == (Fraction(-4, 3), Fraction(4, 3), Fraction(4, 3), Fraction(4, 3))
        assert sol.l1_norm == Fraction(16, 3)
        assert sol.bound_K == Fraction(3, 4)
        assert sol.min_entry == Fraction(-4, 3)
        assert not sol.nonneg

    def test_fixtures_against_cramer(self):
        for g in [path(3), path(4), complete(4), star(4), star(6)]:
            D = apsp(g)
            expect = solve_system_fraction_lstsq(D.entries, g.n)
            assert expect is not None
            assert solve_curvature(D).w == tuple(expect)

    def test_complete_family_closed_form(self):
        for n in range(2, 13):
            _, sol = solved(complete(n))
            assert sol.w == (Fraction(n, n - 1),) * n
            assert sol.bound_K == Fraction(n - 1, n)

    def test_star_family_negative_center(self):
        for n in range(4, 11):
            _, sol = solved(star(n))
            assert sol.min_entry < 0
            assert not sol.nonneg


class TestStatusClassification:
    def test_single_vertex_inconsistent(self):
        # D = [[0]] cannot satisfy D w = 1
        _, sol = solved(complete(1))
        assert sol.status is SolveStatus.INCONSISTENT
        assert sol.w is None and sol.bound_K is None
        with pytest.raises(InconsistentSystemError):
            curvature_bound(sol, 1)

    def test_even_cycles_underdetermined(self):
        for n, nullity in [(4, 1), (6, 2), (8, 3)]:
            _, sol = solved(cycle(n))
            assert sol.status is SolveStatus.UNDERDETERMINED
            assert sol.nullity == nullity
            assert any("not canonical" in w for w in sol.warnings)

    def test_odd_cycles_unique(self):
        for n in (3, 5, 7, 9):
            _, sol = solved(cycle(n))
            assert sol.status is SolveStatus.UNIQUE

    def test_underdetermined_particular_solution_still_solves(self):
        D, sol = solved(hypercube(3))
        assert sol.status is SolveStatus.UNDERDETERMINED
        rows = D.entries.tolist()
        for row in rows:
            assert sum(Fraction(d) * w for d, w in zip(row, sol.w)) == 8


class TestExactResidual:
    def test_zero_residual_over_families(self):
        graphs = [path(n) for n in range(2, 13)]
        graphs += [cycle(n) for n in range(3, 13)]
        graphs += [star(n) for n in range(2, 13)]
        graphs += [complete(n) for n in range(2, 13)]
        graphs += [hypercube(d) for d in range(1, 5)]
        graphs += [gnp(8 + s % 9, Fraction(1, 2), s)[0] for s in range(10)]
        for g in graphs:
            D, sol = apsp(g), None
            sol = solve_curvature(D)
            assert sol.status is not SolveStatus.INCONSISTENT, g
            for row in D.entries.tolist():
                assert sum(Fraction(d) * w for d, w in zip(row, sol.w)) == g.n


class TestTransitiveOracle:
    def test_examples(self):
        assert transitive_oracle(apsp(cycle(4))) == 1
        assert transitive_oracle(apsp(hypercube(3))) == Fraction(3, 2)
        assert transitive_oracle(apsp(path(3))) is None

    def test_oracle_agreement_on_unique_or_nonneg(self):
        # the zeroed particular solution of a singular system can be signed
        # with a larger l1 norm (hypercube d >= 3), so agreement is asserted
        # exactly where a canonical comparison makes sense
        for g in [cycle(3), cycle(4), cycle(6), cycle(7), complete(5), complete(9),
                  hypercube(1), hypercube(2)]:
            D = apsp(g)
            sol = solve_curvature(D)
            oracle = transitive_oracle(D)
            assert oracle is not None
            assert sol.status is SolveStatus.UNIQUE or sol.nonneg
            assert curvature_bound(sol, g.n) == oracle

    def test_hypercube3_particular_solution_disagrees(self):
        D = apsp(hypercube(3))
        sol = solve_curvature(D)
        assert not sol.nonneg
        assert curvature_bound(sol, 8) != transitive_oracle(D)


class TestFloatSolver:
    def test_path3(self):
        fs = solve_curvature_float(apsp(path(3)))
        assert np.abs(fs.w - np.array([1.5, 0.0, 1.5])).max() <= 1e-12

    def test_complete4(self):
        fs = solve_curvature_float(apsp(complete(4)))
        assert np.abs(fs.w - 4 / 3).max() <= 1e-12

    def test_residual_reported(self):
        fs = solve_curvature_float(apsp(star(8)))
        assert 0 <= fs.residual_inf < 1e-10
        assert 0 < fs.condition_hint <= 1

    def test_condition_hint_unchanged(self):
        # D >= 0, so A.max() is the max |A| the hint was defined with
        for g in [path(2), path(9), star(8), cycle(11), complete(6), gnp(30, Fraction(1, 3), 4)[0]]:
            D = apsp(g)
            A = D.entries.astype(np.float64)
            lu, _ = scipy.linalg.lu_factor(A)
            old = float(np.abs(np.diagonal(lu)).min() / np.abs(A).max())
            assert solve_curvature_float(D).condition_hint == old, g

    @pytest.mark.parametrize("spec", ["path:9", "cycle:11", "complete:6", "gnp:30,1/3", "path:300",
                                      "cycle:301", "star:513", "gnp:600,1/60", "hypercube:4"])
    def test_matches_copied_reference(self, spec):
        # the in-place factorization and the blocked residual change no bit
        D = apsp(parse_generator_spec(spec, seed=3))
        expected = solve_curvature_float_copied(D)
        if expected is None:
            with pytest.raises(NumericallySingularError):
                solve_curvature_float(D)
            return
        fs = solve_curvature_float(D)
        assert fs.w.tobytes() == expected.w.tobytes()
        assert (fs.residual_inf, fs.condition_hint) == (expected.residual_inf,
                                                        expected.condition_hint)

    def test_one_float_matrix(self):
        solve_curvature_float(apsp(path(3)))  # the lazy scipy import is not measured
        D = apsp(gnp(800, Fraction(1, 80), 1)[0])
        tracemalloc.start()
        try:
            solve_curvature_float(D)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * D.n ** 2  # the copy LU made of a C-order matrix took 2x

    def test_singular_matrix_refused(self):
        # hypercube distance matrices have rank d+1 << 2^d
        with pytest.raises(NumericallySingularError):
            solve_curvature_float(apsp(hypercube(3)))

    def test_float_matches_exact_on_unique_instances(self):
        graphs = [path(n) for n in (2, 5, 10, 33, 64)]
        graphs += [cycle(n) for n in (3, 5, 17, 63)]
        graphs += [star(n) for n in (4, 20, 64)]
        graphs += [complete(n) for n in (2, 8, 40)]
        graphs += [gnp(30, Fraction(1, 3), s)[0] for s in range(5)]
        for g in graphs:
            D = apsp(g)
            sol = solve_curvature(D)
            if sol.status is not SolveStatus.UNIQUE:
                continue
            fs = solve_curvature_float(D)
            exact = np.array([float(x) for x in sol.w])
            assert np.abs(fs.w - exact).max() <= 1e-9, g


class TestBareissAgainstFractionOracle:
    """The fraction-free solver against the Fraction elimination it replaced."""

    @staticmethod
    def assert_agrees(g):
        D = apsp(g)
        sol = solve_curvature(D)
        assert (sol.status, sol.nullity, sol.w) == solve_curvature_fraction(D), g

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 16),
           p=st.sampled_from([Fraction(1, 5), Fraction(1, 3), Fraction(3, 4)]),
           seed=st.integers(0, 10**6))
    def test_random_gnp(self, n, p, seed):
        self.assert_agrees(gnp(n, p, seed)[0])

    @pytest.mark.parametrize(
        "g",
        [cycle(n) for n in (4, 6, 8, 10, 12, 16)]
        + [hypercube(d) for d in range(1, 6)]
        + [grid(a, b) for a, b in [(2, 2), (2, 5), (3, 3), (3, 4), (4, 6), (5, 6)]],
    )
    def test_underdetermined_families(self, g):
        self.assert_agrees(g)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda rows: st.tuples(
        st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5),
                 min_size=rows, max_size=rows),
        st.lists(st.integers(-3, 3), min_size=rows, max_size=rows),
        st.integers(1, 5))))
    def test_kernel_on_integer_systems(self, system):
        # A is made low-rank by repeating a combination of its own rows, so
        # skipped pivot columns and inconsistent right-hand sides both occur
        A, b, k = system
        A = A + [[k * x + y for x, y in zip(A[0], A[-1])]]
        b = b + [k * b[0] + b[-1] + (k % 2)]
        piv_cols, num, den = bareiss_solve(A, b)
        ranks = [np.linalg.matrix_rank(np.array(A)[:, :c]) if c else 0 for c in range(6)]
        assert piv_cols == [c for c in range(5) if ranks[c + 1] > ranks[c]]
        consistent = np.linalg.matrix_rank(np.column_stack([A, b])) == ranks[5]
        assert (num is not None) == consistent
        if consistent:
            assert den > 0
            assert all(num[c] == 0 for c in range(5) if c not in piv_cols)
            assert all(sum(a * x for a, x in zip(row, num)) == den * bi for row, bi in zip(A, b))


class TestDixonLifting:
    """The p-adic lifting kernel against the Fraction oracle, and its fallbacks."""

    @staticmethod
    def spy_bareiss(monkeypatch):
        calls = []

        def spy(A, b):
            calls.append(len(A))
            return bareiss_solve(A, b)

        monkeypatch.setattr(curvature, "bareiss_solve", spy)
        return calls

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(17, 48),
           p=st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]),
           seed=st.integers(0, 10**6))
    def test_solve_curvature_matches_oracle_on_gnp(self, n, p, seed):
        D = apsp(gnp(n, p, seed)[0])
        sol = solve_curvature(D)
        assert (sol.status, sol.nullity, sol.w) == solve_curvature_fraction(D)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.integers(-50, 50), min_size=n, max_size=n))))
    def test_kernel_on_integer_systems(self, system):
        A, b = system
        status, _, x = solve_system_fraction(A, b)
        lifted = dixon_solve(np.array(A, dtype=np.int64), b)
        if status is not SolveStatus.UNIQUE:
            assert lifted is None  # a singular A is singular mod p
            return
        _, _, det = bareiss_solve(A, [0] * len(A))
        if lifted is None:
            assert det % curvature.LIFT_PRIME == 0
            return
        num, den = lifted
        assert den > 0
        assert tuple(Fraction(v, den) for v in num) == x

    @pytest.mark.parametrize("g", [gnp(120, Fraction(1, 12), 1)[0], gnp(60, Fraction(1, 6), 3)[0],
                                   path(60), star(40), cycle(41)])
    def test_kernel_matches_bareiss_at_larger_n(self, g):
        D = apsp(g)
        n = g.n
        num, den = dixon_solve(D.entries, [n] * n)
        piv_cols, b_num, b_den = bareiss_solve(D.entries.tolist(), [n] * n)
        assert len(piv_cols) == n
        assert [Fraction(x, den) for x in num] == [Fraction(x, b_den) for x in b_num]

    def test_early_candidate_is_certified_before_it_is_returned(self):
        # w = beta / a needs about 72 bits of p-adic digits; two steps give
        # only 50, yet reconstruction already finds a (wrong) small fraction
        a, beta = 2**36 + 1, 2**36 - 17
        p = curvature.LIFT_PRIME
        early = curvature._reconstruct([beta * pow(a, -1, p * p) % (p * p)], p * p)
        assert early is not None and Fraction(early[0][0], early[1]) != Fraction(beta, a)
        assert dixon_solve(np.array([[a]], dtype=np.int64), [beta]) == ([beta], a)

    def test_uncertified_candidates_fall_back_to_bareiss(self, monkeypatch):
        D, expected = apsp(path(3)), solve_curvature_fraction(apsp(path(3)))
        monkeypatch.setattr(curvature, "_reconstruct", lambda u, m: ([3, 1, 3], 2))
        assert dixon_solve(D.entries, [3] * 3) is None
        calls = self.spy_bareiss(monkeypatch)
        sol = solve_curvature(D)
        assert calls == [3]
        assert (sol.status, sol.nullity, sol.w) == expected

    def test_singular_mod_p_falls_back(self, monkeypatch):
        # det D(path:3) = 4, so D has no inverse mod 2
        D = apsp(path(3))
        monkeypatch.setattr(curvature, "LIFT_PRIME", 2)
        assert dixon_solve(D.entries, [3] * 3) is None
        calls = self.spy_bareiss(monkeypatch)
        sol = solve_curvature(D)
        assert calls == [3]
        assert sol.status is SolveStatus.UNIQUE
        assert sol.w == (Fraction(3, 2), Fraction(0), Fraction(3, 2))

    def test_step_cap_falls_back(self, monkeypatch):
        D = apsp(gnp(40, Fraction(1, 5), 1)[0])
        expected = solve_curvature_fraction(D)
        monkeypatch.setattr(curvature, "_lift_steps", lambda n, a, beta, p: 1)
        assert dixon_solve(D.entries, [40] * 40) is None
        calls = self.spy_bareiss(monkeypatch)
        sol = solve_curvature(D)
        assert calls == [40]
        assert (sol.status, sol.nullity, sol.w) == expected

    def test_size_guard_falls_back(self, monkeypatch):
        D = apsp(star(5))
        expected = solve_curvature_fraction(D)
        monkeypatch.setattr(curvature, "LIFT_MAX_N", 4)
        assert dixon_solve(D.entries, [5] * 5) is None
        calls = self.spy_bareiss(monkeypatch)
        sol = solve_curvature(D)
        assert calls == [5]
        assert (sol.status, sol.nullity, sol.w) == expected
        monkeypatch.setattr(curvature, "LIFT_MAX_N", 5)
        assert dixon_solve(D.entries, [5] * 5) is not None

    def test_int64_guard(self):
        # beyond the guard an int64 residual could overflow, so nothing is lifted
        A = np.array([[2**40]], dtype=np.int64)
        assert dixon_solve(A, [1]) is None
        assert dixon_solve(A // 2**10, [1]) == ([1], 2**30)

    def test_bareiss_answer_is_checked(self, monkeypatch):
        monkeypatch.setattr(curvature, "LIFT_MAX_N", 0)
        monkeypatch.setattr(curvature, "bareiss_solve", lambda A, b: ([0, 1, 2], [3, 1, 3], 2))
        with pytest.raises(HardVerificationError, match="D num = n den 1"):
            solve_curvature(apsp(path(3)))

    def test_singular_and_inconsistent_systems_use_bareiss(self, monkeypatch):
        calls = self.spy_bareiss(monkeypatch)
        for g, status in [(cycle(6), SolveStatus.UNDERDETERMINED), (grid(3, 4), SolveStatus.UNDERDETERMINED),
                          (complete(1), SolveStatus.INCONSISTENT)]:
            assert dixon_solve(apsp(g).entries, [g.n] * g.n) is None
            assert solve_curvature(apsp(g)).status is status
        assert calls == [6, 12, 1]
        calls.clear()
        solve_curvature(apsp(cycle(7)))
        assert calls == []
