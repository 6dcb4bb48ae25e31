import itertools
import tracemalloc
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

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
from graphcurv.curvature import _PANEL, LIFT_PRIME, _eliminate_mod, dixon_lift, solve_exact
from graphcurv.rationals import FLOAT_EXACT_MAX, INT64_MAX
from oracles import (
    bareiss_solve,
    eliminate_mod_int64,
    solve_curvature_float_copied,
    solve_curvature_fraction,
    solve_system_fraction,
    solve_system_fraction_lstsq,
)


# the panel kernel's whole exactness argument: every GEMM has inner dimension
# at most _PANEL over residues in [0, p), plus one residue
assert _PANEL * (LIFT_PRIME - 1) ** 2 + LIFT_PRIME < FLOAT_EXACT_MAX


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

    def test_bound_rejects_another_n(self):
        # K of path(3) is 1; with n = 4 it would read 4/3
        _, sol = solved(path(3))
        assert curvature_bound(sol, 3) == 1
        with pytest.raises(ValueError, match="n = 4 does not match"):
            curvature_bound(sol, 4)

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

    COPIED_CASES = [(spec, 3) for spec in ("path:9", "cycle:11", "complete:6", "gnp:30,1/3",
                                           "path:300", "cycle:301", "star:513", "gnp:600,1/60",
                                           "hypercube:4")]
    # with two BLAS threads the residual's maximum here depends on its row blocks
    COPIED_CASES.append(("gnp:513,1/51", 1))

    @pytest.mark.parametrize("spec,seed", COPIED_CASES, ids=[spec for spec, _ in COPIED_CASES])
    def test_matches_copied_reference(self, spec, seed):
        # the in-place factorization changes no bit
        D = apsp(parse_generator_spec(spec, seed=seed))
        expected = solve_curvature_float_copied(D)
        if expected is None:
            with pytest.raises(NumericallySingularError):
                solve_curvature_float(D)
            return
        fs = solve_curvature_float(D)
        assert fs.w.tobytes() == expected.w.tobytes()
        assert (fs.residual_inf, fs.condition_hint) == (expected.residual_inf,
                                                        expected.condition_hint)

    @pytest.mark.parametrize("spec", ["gnp:513,1/51", "path:1500"])
    def test_residual_from_256_row_blocks(self, spec):
        # the row blocks of the residual are part of the output: with two BLAS
        # threads, 56-row blocks give 3.047e-11 on gnp:513,1/51 against 3.115e-11
        D = apsp(parse_generator_spec(spec, seed=1))
        fs = solve_curvature_float(D)
        rows = [D.entries[r:r + 256].astype(np.float64) @ fs.w - D.n for r in range(0, D.n, 256)]
        assert fs.residual_inf == float(np.abs(np.concatenate(rows)).max())

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
    """The exact solve against the Fraction elimination that preceded it, and
    the modular kernel against the fraction-free elimination it replaced."""

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

    # A is made low-rank by repeating a combination of its own rows, so
    # skipped pivot columns and inconsistent right-hand sides both occur
    LOW_RANK_SYSTEMS = st.integers(1, 6).flatmap(lambda rows: st.tuples(
        st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5),
                 min_size=rows, max_size=rows),
        st.lists(st.integers(-3, 3), min_size=rows, max_size=rows),
        st.integers(1, 5)))

    @staticmethod
    def assert_matches_bareiss(system):
        A, b, k = system
        A = A + [[k * x + y for x, y in zip(A[0], A[-1])]]
        b = b + [k * b[0] + b[-1] + (k % 2)]
        piv_cols, num, den = solve_exact(np.array(A, dtype=np.int64), b)
        b_piv, b_num, b_den = bareiss_solve(A, b)
        assert piv_cols == b_piv
        assert (num is None) == (b_num is None)
        ranks = [np.linalg.matrix_rank(np.array(A)[:, :c]) if c else 0 for c in range(6)]
        assert piv_cols == [c for c in range(5) if ranks[c + 1] > ranks[c]]
        consistent = np.linalg.matrix_rank(np.column_stack([A, b])) == ranks[5]
        assert (num is not None) == consistent
        if consistent:
            assert den > 0
            assert [Fraction(x, den) for x in num] == [Fraction(x, b_den) for x in b_num]
            assert all(num[c] == 0 for c in range(5) if c not in piv_cols)
            assert all(sum(a * x for a, x in zip(row, num)) == den * bi for row, bi in zip(A, b))

    @settings(max_examples=80, deadline=None)
    @given(LOW_RANK_SYSTEMS)
    def test_kernel_on_integer_systems(self, system):
        self.assert_matches_bareiss(system)

    @settings(max_examples=150, deadline=None)
    @given(LOW_RANK_SYSTEMS)
    def test_kernel_on_integer_systems_small_primes_first(self, system):
        # mod 2, 3, 5 and 7 many of these systems lose rank, so the certificate
        # has to reject the rank profile and move on
        with pytest.MonkeyPatch.context() as m:
            small_primes_first(m)
            self.assert_matches_bareiss(system)


def small_primes_first(monkeypatch, first=(2, 3, 5, 7)):
    """Make the exact solve try the primes `first` before LIFT_PRIME."""
    primes = curvature._primes

    def patched():
        yield from first
        yield from primes()

    monkeypatch.setattr(curvature, "_primes", patched)


class TestCertifiedRankProfile:
    """What a prime that loses rank gets wrong, and the checks that catch it."""

    # (A, b, a prime that loses rank, Bareiss's pivot columns and w)
    UNLUCKY = [
        # mod 2 column 0 vanishes, so column 1 is the pivot; the null vector of
        # column 0 then has weight on column 1, right of it
        ([[-4, -3, 12, -5, -2, 8]], [-10], 2, [0], [Fraction(5, 2), 0, 0, 0, 0, 0]),
        # mod 2 the rows agree: column 1 = column 0 holds on row 0 only
        ([[1, 1], [1, 3]], [2, 4], 2, [0, 1], [1, 1]),
        # mod 3 rank 1; over Q rank 2, and b is in the range
        ([[1, 2], [2, 1], [3, 3]], [3, 3, 6], 3, [0, 1], [1, 1]),
    ]

    @pytest.mark.parametrize("A,b,p,pivots,w", UNLUCKY)
    def test_unlucky_prime_is_rejected(self, A, b, p, pivots, w, monkeypatch):
        A = np.array(A, dtype=np.int64)
        assert _eliminate_mod(A, p)[1] != pivots
        primes = []
        eliminate = curvature._eliminate_mod

        def spy(A, q):
            primes.append(q)
            return eliminate(A, q)

        monkeypatch.setattr(curvature, "_eliminate_mod", spy)
        small_primes_first(monkeypatch, (p,))
        piv, num, den = solve_exact(A, b)
        assert (piv, [Fraction(x, den) for x in num]) == (pivots, w)
        assert primes == [p, curvature.LIFT_PRIME]

    def test_primes_descend_against_a_sieve(self, monkeypatch):
        def descending_primes(lo, hi):
            """The primes in [lo, hi], largest first, by a sieve of Eratosthenes on that window."""
            composite = np.zeros(hi - lo + 1, dtype=bool)
            for d in range(2, isqrt(hi) + 1):
                composite[max(d * d, -(-lo // d) * d) - lo::d] = True
            return [q for q in range(hi, max(lo, 2) - 1, -1) if not composite[q - lo]]

        top = curvature.LIFT_PRIME
        # LIFT_PRIME is the largest prime below the power of two above it
        expected = descending_primes(top - 2000, 2**top.bit_length())
        assert expected[0] == top
        assert list(itertools.islice(curvature._primes(), len(expected))) == expected
        # every prime is found, down to 2
        monkeypatch.setattr(curvature, "LIFT_PRIME", 9973)
        assert list(curvature._primes()) == descending_primes(0, 9973)


def _rank_profile_mod(A: np.ndarray, p: int) -> list[int]:
    """The column rank profile of A modulo the prime p, by row reduction on Python ints."""
    R = [[int(x) % p for x in row] for row in A.tolist()]
    profile = []
    for c in range(len(R[0])):
        rank = len(profile)
        i = next((i for i in range(rank, len(R)) if R[i][c]), None)
        if i is None:
            continue
        R[rank], R[i] = R[i], R[rank]
        inv = pow(R[rank][c], p - 2, p)
        R[rank] = [x * inv % p for x in R[rank]]
        for j in range(len(R)):
            if j != rank and R[j][c]:
                f = R[j][c]
                R[j] = [(x - f * y) % p for x, y in zip(R[j], R[rank])]
        profile.append(c)
    return profile


def assert_inverts_block(A, p, rows, cols, C):
    """C A[rows, cols] = I mod p, and cols is the column rank profile of A mod p."""
    block = A[np.ix_(rows, cols)].astype(object)
    assert np.array_equal(C.astype(object) @ block % p, np.eye(len(cols), dtype=int))
    assert cols == _rank_profile_mod(A, p)


class TestEliminateMod:
    """The Gauss-Jordan kernel against the inverse it computes and the kernel before the panels."""

    # in int64, the dtype the exact solve hands the kernel
    MATRICES = [apsp(g).entries.astype(np.int64)
                for g in (path(3), cycle(7), gnp(40, Fraction(1, 5), 1)[0], star(9), complete(5))]

    @pytest.mark.parametrize("A", MATRICES)
    def test_full_rank_matches_inverse_mod(self, A):
        p = curvature.LIFT_PRIME
        rows, cols, C = _eliminate_mod(A, p)
        assert rows == cols == list(range(len(A)))
        assert np.array_equal(A.astype(object) @ C.astype(object) % p, np.eye(len(A), dtype=int))

    @pytest.mark.parametrize("spec", ["cycle:40", "grid:5,8", "hypercube:7"])
    @pytest.mark.parametrize("part", ["all", "top rows", "left columns"])
    def test_matches_outer_product_kernel(self, spec, part):
        # singular D and its half-row (wide) and half-column (tall) slices
        A = apsp(parse_generator_spec(spec)).entries.astype(np.int64)
        half = len(A) // 2
        A = {"all": A, "top rows": A[:half], "left columns": A[:, :half]}[part]
        p = curvature.LIFT_PRIME
        rows, cols, C = _eliminate_mod(A, p)
        expected = eliminate_mod_int64(A, p)
        assert (rows, cols) == expected[:2] and np.array_equal(C, expected[2])
        if part == "all":
            assert len(cols) < len(A)  # D is singular, so columns are skipped
        assert_inverts_block(A, p, rows, cols, C)

    def test_python_ints_match_int64(self):
        A = self.MATRICES[2]
        rows, cols, C = _eliminate_mod(A.astype(object), 101)
        assert C.dtype == np.int64
        expected = _eliminate_mod(A, 101)
        assert (rows, cols) == expected[:2] and np.array_equal(C, expected[2])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda m: st.integers(1, 7).flatmap(lambda k: st.lists(
        st.lists(st.integers(-9, 9), min_size=k, max_size=k), min_size=m, max_size=m))),
        st.sampled_from([2, 3, 7, curvature.LIFT_PRIME]))
    def test_rank_deficient_blocks_are_inverted(self, A, p):
        A = np.array(A, dtype=np.int64)
        rows, cols, C = _eliminate_mod(A, p)
        assert rows == sorted(set(rows))
        assert_inverts_block(A, p, rows, cols, C)


def _panel_cases():
    """Matrices that put the panel kernel's boundaries in play, by name, as functions of p."""
    b = _PANEL
    # full rank mod LIFT_PRIME; in int64, as the exact solve hands it to the kernel
    D = apsp(gnp(3 * b, Fraction(1, 10), 11)[0]).entries.astype(np.int64)

    def zero_block(p):
        # the first panel finds its pivots only below row b + 5, so its swaps move
        # rows whose later columns the following panels read
        A = D[:, :2 * b + 1].copy()
        A[:b + 5, :b] = 0
        return A

    def zero_panel(p):
        A = D[:, :3 * b].copy()
        A[:, b:2 * b] = 0  # the second panel has no pivot
        return A

    cases = {f"tall k={k}": (lambda p, k=k: D[:, :k]) for k in (b - 1, b, b + 1, 2 * b, 2 * b + 1)}
    cases["wide k=b-1"] = lambda p: D[:b // 2, :b - 1]  # rank m within the only panel
    cases.update({f"wide k={k}": (lambda p, k=k: D[:2 * b - 1, :k]) for k in (2 * b, 2 * b + 1, 3 * b)})
    cases.update({
        # rank m = 3b/2 is reached in the middle of the second panel
        "rank m mid-panel": lambda p: D[:b + b // 2, :2 * b + 1],
        "zero leading block": zero_block,
        "zero panel": zero_panel,
        "all p-1": lambda p: np.full((2 * b + 1, 2 * b + 1), p - 1, dtype=np.int64),
        # p - 1 off the diagonal and 0 on it: -(J - I), which has full rank mod most p
        "p-1 off the diagonal": lambda p: (p - 1) * (1 - np.eye(2 * b + 1, dtype=np.int64)),
    })
    return cases


PANEL_CASES = _panel_cases()


class TestPanelKernel:
    """`_eliminate_mod` in column panels against the int64 kernel it replaced."""

    @staticmethod
    def assert_matches(A, p):
        rows, cols, C = _eliminate_mod(A, p)
        expected = eliminate_mod_int64(A, p)
        assert (rows, cols) == expected[:2]
        assert C.dtype == np.int64 and np.array_equal(C, expected[2])
        # residues below p: a sum of at most 2 _PANEL + 1 products below p^2 fits int64
        block = (A[np.ix_(rows, cols)] % p).astype(np.int64)
        assert np.array_equal(C @ block % p, np.eye(len(cols), dtype=np.int64))
        return rows, cols

    @pytest.mark.parametrize("p", [2, 3, 7, LIFT_PRIME])
    @pytest.mark.parametrize("case", sorted(PANEL_CASES))
    def test_matches_int64_kernel(self, case, p):
        A = PANEL_CASES[case](p)
        rows, cols = self.assert_matches(A, p)
        if case == "rank m mid-panel" and p == LIFT_PRIME:
            assert len(rows) == len(A) and _PANEL < cols[-1] < 2 * _PANEL
        if case == "zero panel":
            assert not any(_PANEL <= c < 2 * _PANEL for c in cols)

    @pytest.mark.parametrize("p", [7, LIFT_PRIME])
    def test_object_entries_beyond_int64(self, p):
        # reduced mod p first, then the same kernel; C comes back in int64
        D = apsp(gnp(_PANEL + 1, Fraction(1, 4), 2)[0]).entries
        A = D.astype(object) * 2**64 + D
        assert abs(A).max() >= 2**63
        self.assert_matches(A, p)

    @pytest.mark.parametrize("p", [7, 65521, 1048571, LIFT_PRIME])
    def test_reduce_near_multiples_of_p(self, p):
        # x = q p + r up to 2^53: the rounded quotient misses by one for many such x
        # at p = 1048571, the second prime `_primes` yields, and 65521
        q = np.random.default_rng(p).integers(0, (FLOAT_EXACT_MAX - p) // p, 20000)
        x = (q[:, None] * p + np.array([0, 1, p - 2, p - 1])).ravel()
        X = x.astype(np.float64)
        curvature._reduce(X, p)
        assert np.array_equal(X, x % p)

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 2 * _PANEL + 1), k=st.integers(1, 2 * _PANEL + 1),
           p=st.sampled_from([2, 3, 7, LIFT_PRIME]), spread=st.integers(1, 3),
           zero_rows=st.tuples(st.integers(0, 2 * _PANEL), st.integers(0, _PANEL + 5)),
           zero_cols=st.tuples(st.integers(0, 2 * _PANEL), st.integers(0, _PANEL + 5)),
           as_object=st.sampled_from([False] * 7 + [True]), seed=st.integers(0, 2**32 - 1))
    def test_matches_int64_kernel_on_drawn_shapes(self, m, k, p, spread, zero_rows, zero_cols,
                                                   as_object, seed):
        # tall, square and wide shapes across the panel boundary; small entries and
        # zero blocks leave rank deficits and panels without a pivot
        A = np.random.default_rng(seed).integers(-spread, spread + 1, (m, k))
        A[zero_rows[0]:sum(zero_rows)] = 0
        A[:, zero_cols[0]:sum(zero_cols)] = 0
        if as_object:  # now and then a matrix beyond int64, reduced mod p first
            A = A.astype(object) * 2**64 + A
        self.assert_matches(A, p)


@st.composite
def tall_systems(draw):
    """A full-column-rank m x r system, its rows shuffled, and k right-hand sides.

    The rows below the first r are integer combinations of them, so each
    column is consistent unless it is drawn with an error e on one of those
    rows, now and then e p^2, which every division passes for two steps.
    """
    r, below, k = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    ints = lambda lo, hi, size: st.lists(st.integers(lo, hi), min_size=size, max_size=size)
    top = np.array(draw(st.lists(ints(-30, 30, r), min_size=r, max_size=r)), dtype=np.int64)
    T = np.array(draw(st.lists(ints(-3, 3, r), min_size=below, max_size=below)), dtype=np.int64)
    B_top = np.array(draw(st.lists(ints(-30, 30, k), min_size=r, max_size=r)), dtype=np.int64)
    A = np.vstack([top, T.reshape(below, r) @ top])
    B = np.vstack([B_top, T.reshape(below, r) @ B_top])
    for j in range(k):
        if below and draw(st.booleans()):
            e = draw(st.sampled_from([-2, -1, 1, 3])) * (LIFT_PRIME**2 if draw(st.booleans()) else 1)
            B[r + draw(st.integers(0, below - 1)), j] += e
    order = draw(st.permutations(range(r + below)))
    A, B = A[order], B[order]
    if draw(st.integers(0, 4)) == 0:  # now and then on Python ints, which the lift also takes
        A, B = A.astype(object), B.astype(object)
    return A, B


class TestDixonLifting:
    """The p-adic lifting kernel against the Fraction oracle, and its certificates."""

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
        status, nullity, x = solve_system_fraction(A, b)
        piv, num, den = solve_exact(np.array(A, dtype=np.int64), b)
        assert len(A) - len(piv) == nullity
        assert (num is None) == (status is SolveStatus.INCONSISTENT)
        if num is not None:
            assert den > 0
            assert tuple(Fraction(v, den) for v in num) == x

    @pytest.mark.parametrize("g", [gnp(120, Fraction(1, 12), 1)[0], gnp(60, Fraction(1, 6), 3)[0],
                                   path(60), star(40), cycle(41)])
    def test_kernel_matches_bareiss_at_larger_n(self, g):
        D = apsp(g)
        n = g.n
        piv, num, den = solve_exact(D.entries, [n] * n)
        piv_cols, b_num, b_den = bareiss_solve(D.entries.tolist(), [n] * n)
        assert piv == piv_cols == list(range(n))
        assert [Fraction(x, den) for x in num] == [Fraction(x, b_den) for x in b_num]

    def test_early_candidate_is_certified_before_it_is_returned(self):
        # w = beta / a needs about 60 bits of p-adic digits; two steps give
        # only 40, yet reconstruction already finds a (wrong) small fraction
        a, beta = 2**30 + 1, 2**30 - 1
        p = curvature.LIFT_PRIME
        early = curvature._reconstruct([beta * pow(a, -1, p * p) % (p * p)], p * p)
        assert early is not None and Fraction(early[0][0], early[1]) != Fraction(beta, a)
        assert solve_exact(np.array([[a]], dtype=np.int64), [beta]) == ([0], [beta], a)

    @pytest.mark.parametrize("k,a", [(3, 718), (5, 72492), (6, 728533), (9, 739488091)])
    def test_cap_is_the_first_step_past_twice_hadamard_squared(self, k, a, monkeypatch):
        # a x = a - 1 mod 101: H^2 = a^2 + (a - 1)^2 < 101^k < 2 a^2, so k steps
        # pass H^2 yet reconstruct no denominator as large as a; only the cap
        # k + 1, the first step past 2 H^2, certifies x = (a - 1) / a
        p = 101
        assert a * a + (a - 1) ** 2 < p ** k < 2 * a * a
        A, B = np.array([[a]]), np.array([[a - 1]])
        C = np.array([[pow(a, -1, p)]])
        assert curvature._lift_steps(1, a, a - 1, p) == k + 1
        assert dixon_lift(A, C, B, p) == [([a - 1], a)]
        monkeypatch.setattr(curvature, "_lift_steps", lambda *args: k)
        with pytest.raises(HardVerificationError, match=f"cap of {k} steps"):
            dixon_lift(A, C, B, p)

    @staticmethod
    def spy_moduli(monkeypatch):
        moduli = []
        reconstruct = curvature._reconstruct

        def spy(u, m):
            moduli.append(m)
            return reconstruct(u, m)

        monkeypatch.setattr(curvature, "_reconstruct", spy)
        return moduli

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n), min_size=2, max_size=5),
        st.integers(0, 4), st.integers(0, 3))))
    def test_one_pass_lift_matches_column_lifts(self, system):
        A, columns, zero, scaled = system
        n, k = len(A), len(columns)
        # one zero column, and another scaled by 2^30 so that it needs more digits
        zero %= k
        columns[zero] = [0] * n
        big = (zero + 1 + scaled % (k - 1)) % k
        columns[big] = [x * 2**30 for x in columns[big]]
        A = np.array(A, dtype=np.int64)
        B = np.array(columns, dtype=np.int64).T
        p = LIFT_PRIME
        _, cols, C = _eliminate_mod(A, p)
        assume(len(cols) == n)  # nonsingular mod p, so over Q too, and C = A^-1 mod p
        sols = dixon_lift(A, C, B, p)
        assert sols == [dixon_lift(A, C, B[:, [j]], p)[0] for j in range(k)]
        for j, (num, den) in enumerate(sols):
            status, _, x = solve_system_fraction(A.tolist(), B[:, j].tolist())
            assert status is SolveStatus.UNIQUE
            assert tuple(Fraction(v, den) for v in num) == x
        assert sols[zero] == ([0] * n, 1)

    def test_columns_are_returned_together(self, monkeypatch):
        # the zero column is certified after two steps, beta / a only after
        # four: its two-step candidate is wrong, so nothing is returned then
        a, beta = 2**30 + 1, 2**30 - 1
        p = LIFT_PRIME
        moduli = self.spy_moduli(monkeypatch)
        A = np.array([[a]], dtype=np.int64)
        sols = dixon_lift(A, np.array([[pow(a, -1, p)]], dtype=np.int64), np.array([[0, beta]]), p)
        assert sols == [([0], 1), ([beta], a)]
        assert moduli == [p**2, p**2, p**4, p**4]

    @settings(max_examples=120, deadline=None)
    @given(tall_systems())
    def test_tall_lift_matches_oracle(self, system):
        A, B = system
        (m, r), p = A.shape, LIFT_PRIME
        rows, cols, C = _eliminate_mod(A, p)
        assume(len(cols) == r)  # full column rank mod p, so over Q too
        other = sorted(set(range(m)) - set(rows))
        sols = dixon_lift(A[rows + other], C, B[rows + other], p)
        padded = np.hstack([A, np.zeros((m, m - r), dtype=A.dtype)]).tolist()  # square, for the oracle
        for j, sol in enumerate(sols):
            status, _, x = solve_system_fraction(padded, B[:, j].tolist())
            assert (sol is None) == (status is SolveStatus.INCONSISTENT)
            if sol is not None:
                assert sol[1] > 0 and tuple(Fraction(v, sol[1]) for v in sol[0]) == x[:r]

    def test_rank_zero_and_boundary_systems(self, monkeypatch):
        p = LIFT_PRIME
        moduli = self.spy_moduli(monkeypatch)
        # rank 0: one step runs, and the residual p divides once, then not
        assert solve_exact(np.array([[0]], dtype=np.int64), [0]) == ([], [0], 1)
        assert solve_exact(np.array([[0]], dtype=np.int64), [p]) == ([], None, 1)
        assert moduli == [p, p, p**2]
        # x = 0 fits the pivot row, and the row below differs by exactly p^2:
        # after two exact divisions the bound 1 * 0 + p^2 * 1 < p^2 fails, and
        # the third division is inexact
        moduli.clear()
        assert solve_exact(np.array([[1], [1]], dtype=np.int64), [0, p**2]) == ([0], None, 1)
        assert moduli == [p**2]

    def test_uncertified_candidates_raise(self, monkeypatch):
        monkeypatch.setattr(curvature, "_reconstruct", lambda u, m: ([3, 1, 3], 2))
        with pytest.raises(HardVerificationError, match="cap"):
            solve_curvature(apsp(path(3)))

    def test_wrong_elimination_is_refused(self, monkeypatch):
        # an inverse that is off in one entry leaves a pivot row's residual
        # indivisible by p at the first step
        eliminate = curvature._eliminate_mod

        def corrupt(A, p):
            rows, cols, C = eliminate(A, p)
            C = C.copy()
            C[0, 0] = (C[0, 0] + 1) % p
            return rows, cols, C

        monkeypatch.setattr(curvature, "_eliminate_mod", corrupt)
        with pytest.raises(HardVerificationError, match="pivot row is not divisible by p"):
            solve_curvature(apsp(path(3)))

    def test_singular_mod_p_falls_back(self, monkeypatch):
        # det D(path:3) = 4, so D has no inverse mod 2 and the next prime solves it
        D = apsp(path(3))
        assert len(_eliminate_mod(D.entries, 2)[1]) == 2
        small_primes_first(monkeypatch, (2,))
        sol = solve_curvature(D)
        assert sol.status is SolveStatus.UNIQUE
        assert sol.w == (Fraction(3, 2), Fraction(0), Fraction(3, 2))

    def test_step_cap_raises(self, monkeypatch):
        D = apsp(gnp(40, Fraction(1, 5), 1)[0])
        monkeypatch.setattr(curvature, "_lift_steps", lambda n, a, beta, p: 1)
        with pytest.raises(HardVerificationError, match="cap of 1 steps"):
            solve_curvature(D)

    @staticmethod
    def spy_dtypes(monkeypatch):
        dtypes = []
        eliminate = curvature._eliminate_mod

        def spy(A, p):
            dtypes.append(A.dtype)
            return eliminate(A, p)

        monkeypatch.setattr(curvature, "_eliminate_mod", spy)
        return dtypes

    @staticmethod
    def spy_tiers(monkeypatch):
        # the tier of each of the lift's products, as `exact_matmul` picks it
        tiers = []
        matmul = curvature.exact_matmul

        def spy(A, columns, bound, A_float=None):
            assert columns.dtype == np.int64  # the residues and X are never Python ints
            obj = bound > INT64_MAX or A.dtype == object
            tiers.append("object" if obj else "float64" if bound <= FLOAT_EXACT_MAX else "int64")
            return matmul(A, columns, bound, A_float)

        monkeypatch.setattr(curvature, "exact_matmul", spy)
        return tiers

    def test_int64_guard(self, monkeypatch):
        # r a p + beta sets each A X product's tier; C (R mod p) stays on float64
        tiers = self.spy_tiers(monkeypatch)
        A = np.array([[2**42]], dtype=np.int64)
        assert solve_exact(A, [1]) == ([0], [1], 2**42)
        assert set(tiers[1::2]) == {"int64"}
        tiers.clear()
        assert solve_exact(A // 2**10, [1]) == ([0], [1], 2**32)
        assert set(tiers) == {"float64"}
        # rank deficient: the free column of 2^43 joins the lift's right-hand side
        tiers.clear()
        assert solve_exact(np.array([[2**42, 2**43], [1, 2]], dtype=np.int64), [2**42, 1]) == (
            [0], [1, 0], 1)
        assert set(tiers[::2]) == {"float64"} and set(tiers[1::2]) == {"int64"}

    @staticmethod
    def minus_a_below(a, target):
        """The largest b <= target with b = -a mod LIFT_PRIME: the lift's first X is p - 1."""
        return target - (target + a) % LIFT_PRIME

    @pytest.mark.parametrize("case", ["a (p-1) just below 2^63", "a p just below 2^63",
                                      "b = -a mod p^2"])
    def test_residual_past_int64_takes_python_ints(self, case, monkeypatch):
        # a x = b where A X fits int64 and R - A X does not.  The bound r a (p-1)
        # misses the first, r a p the second and r a (p-1) + beta the third: there
        # X = p - 1 twice, so R reaches 8 p - a and R - A X = -p (a - 8)
        p = LIFT_PRIME
        if case == "b = -a mod p^2":
            a = 2**63 // p + 21
            b = -a + 8 * p**2
        else:
            a = INT64_MAX // (p - 1 if case.startswith("a (p-1)") else p)
            b = self.minus_a_below(a, -2**62)
        tiers = self.spy_tiers(monkeypatch)
        x = Fraction(b, a)
        assert solve_exact(np.array([[a]], dtype=np.int64), [b]) == (
            [0], [x.numerator], x.denominator)
        assert tiers[:2] == ["float64", "object"]

    def test_right_hand_side_past_int64(self):
        assert solve_exact(np.array([[3]], dtype=np.int64), [2**70]) == ([0], [2**70], 3)

    def test_singular_and_inconsistent_systems_are_certified(self, monkeypatch):
        dtypes = self.spy_dtypes(monkeypatch)
        for g, status in [(cycle(6), SolveStatus.UNDERDETERMINED), (grid(3, 4), SolveStatus.UNDERDETERMINED),
                          (complete(1), SolveStatus.INCONSISTENT), (cycle(7), SolveStatus.UNIQUE)]:
            assert solve_curvature(apsp(g)).status is status
        assert len(dtypes) == 4  # one elimination each: LIFT_PRIME certified every rank profile
