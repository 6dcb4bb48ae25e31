import dataclasses
import re
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from graphcurv import (
    Battery,
    HardVerificationError,
    InconsistentSystemError,
    Measure,
    SolveStatus,
    apsp,
    complete,
    curvature_bound,
    cycle,
    eccentricities,
    game_value,
    gnp,
    hypercube,
    identity_check,
    measure_battery,
    measure_delta,
    measure_uniform,
    measure_uniform_on,
    path,
    row_sums,
    sample_measures,
    search_lower_violation,
    solve_curvature,
    star,
    transport_vector,
    verify_minimax,
)
from graphcurv import game, verifier
from graphcurv.rationals import FLOAT_EXACT_MAX, INT64_MAX
from oracles import (
    measure_battery_fraction,
    measure_battery_measures,
    transport_vector_rowsum,
    verify_minimax_per_measure,
)


def solved(g):
    D = apsp(g)
    return D, solve_curvature(D)


def small_families():
    graphs = [path(n) for n in range(2, 9)]
    graphs += [cycle(n) for n in range(3, 9)]
    graphs += [star(n) for n in range(2, 9)]
    graphs += [complete(n) for n in range(2, 9)]
    graphs += [hypercube(d) for d in (1, 2, 3)]
    graphs += [gnp(6 + s % 6, Fraction(1, 2), s)[0] for s in range(8)]
    return graphs


class TestTransport:
    def test_path3_delta(self):
        tb = transport_vector(apsp(path(3)), measure_delta(3, 0))
        assert tb.dp == (0, 1, 2)
        assert (tb.A, tb.B, tb.argmin, tb.argmax) == (0, 2, 0, 2)

    def test_path3_uniform(self):
        tb = transport_vector(apsp(path(3)), measure_uniform(3))
        assert tb.dp == (1, Fraction(2, 3), 1)
        assert (tb.A, tb.B) == (Fraction(2, 3), 1)

    def test_star4_leaf_uniform(self):
        tb = transport_vector(apsp(star(4)), measure_uniform_on(4, {1, 2, 3}))
        assert tb.dp == (1, Fraction(4, 3), Fraction(4, 3), Fraction(4, 3))
        assert (tb.A, tb.B) == (1, Fraction(4, 3))

    def test_argmin_ties_take_lowest_index(self):
        tb = transport_vector(apsp(cycle(4)), measure_uniform(4))
        assert tb.dp == (1, 1, 1, 1)
        assert tb.argmin == 0 and tb.argmax == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^dimension mismatch: measure on 4 vertices, "
                                             r"matrix is 3x3$"):
            transport_vector(apsp(path(3)), measure_uniform(4))

    def test_matches_row_sums_over_battery(self):
        graphs = small_families() + [gnp(30, Fraction(1, 5), 2)[0], path(40)]
        for g in graphs:
            D = apsp(g)
            for _, mu in measure_battery(g.n, samples=20, seed=5):
                tb = transport_vector(D, mu)
                dp = transport_vector_rowsum(D, mu)
                assert tb.dp == dp, g
                assert (tb.A, tb.B) == (min(dp), max(dp))
                assert (tb.argmin, tb.argmax) == (dp.index(tb.A), dp.index(tb.B))

    def test_denominators_beyond_int64(self):
        # a common denominator above 2^63 takes the Python-int product
        D = apsp(path(6))
        tiny = Fraction(1, 2 ** 70 + 1)
        mu = Measure([tiny, Fraction(1, 3), Fraction(0), 1 - tiny - Fraction(1, 3) - Fraction(1, 7),
                      Fraction(1, 7), Fraction(0)])
        tb = transport_vector(D, mu)
        assert tb.dp == transport_vector_rowsum(D, mu)
        assert max(x.denominator for x in tb.dp) > 2 ** 63


class TestIdentity:
    def test_path3_uniform(self):
        D, sol = solved(path(3))
        assert identity_check(sol.w, D, measure_uniform(3)) == 3

    def test_star4_signed_w(self):
        D, sol = solved(star(4))
        assert identity_check(sol.w, D, measure_uniform_on(4, {1, 2, 3})) == 4

    def test_identity_over_families_and_measures(self):
        for g in small_families():
            D, sol = solved(g)
            if sol.status is SolveStatus.INCONSISTENT:
                continue
            measures = [measure_delta(g.n, v) for v in range(g.n)]
            measures.append(measure_uniform(g.n))
            measures += sample_measures(g.n, 10, 17)
            for mu in measures:
                assert identity_check(sol.w, D, mu) == g.n, g


class TestVerifyMinimax:
    def test_path3_uniform_upper_tight(self):
        D, sol = solved(path(3))
        report = verify_minimax(D, sol, [measure_uniform(3)])
        rec = report.records[0]
        assert rec.lower_holds and rec.upper_holds
        assert rec.A == Fraction(2, 3) and rec.B == 1 == rec.K
        assert rec.upper_tight and not rec.lower_tight

    def test_star4_lower_failure_recorded(self):
        D, sol = solved(star(4))
        report = verify_minimax(D, sol, [("leaf-uniform", measure_uniform_on(4, {1, 2, 3}))])
        rec = report.records[0]
        assert not rec.lower_holds and rec.upper_holds
        assert report.lower_failures == 1
        assert "leaf-uniform" in report.findings[0]

    def test_complete4_both_tight(self):
        D, sol = solved(complete(4))
        report = verify_minimax(D, sol, [measure_uniform(4)])
        rec = report.records[0]
        assert rec.A == rec.B == rec.K == Fraction(3, 4)
        assert rec.lower_tight and rec.upper_tight

    def test_inconsistent_refused(self):
        D, sol = solved(complete(1))
        with pytest.raises(InconsistentSystemError):
            verify_minimax(D, sol, [measure_uniform(1)])

    def test_forged_nonneg_flag_is_hard_error(self):
        # star(4) has a real lower-bound failure; forging nonneg=True must
        # turn the recorded finding into a hard error
        D, sol = solved(star(4))
        forged = dataclasses.replace(sol, nonneg=True)
        with pytest.raises(HardVerificationError, match="lower bound failed"):
            verify_minimax(D, forged, [measure_uniform_on(4, {1, 2, 3})])

    def test_forged_w_breaks_upper_bound(self):
        # shrinking ||w||_1 inflates K beyond B for some measure
        D, sol = solved(path(3))
        forged = dataclasses.replace(sol, l1_norm=Fraction(1, 10))
        with pytest.raises(HardVerificationError, match="upper bound failed"):
            verify_minimax(D, forged, [measure_uniform(3)])

    def test_hard_error_messages_from_a_later_block(self):
        D, sol = solved(star(4))
        forged = dataclasses.replace(sol, nonneg=True)
        message = "lower bound failed for uniform_on:1,2 although min w >= 0: A = 1 > K = 3/4"
        with pytest.raises(HardVerificationError, match=f"^{re.escape(message)}$"):
            verify_minimax(D, forged, measure_battery(4, samples=2, seed=0))
        # B = 2, 2, 3/2 in the first block of three; uniform (B = 1) opens the second
        D, sol = solved(path(3))
        forged = dataclasses.replace(sol, l1_norm=Fraction(5, 2))
        battery = [("delta:0", measure_delta(3, 0)), ("delta:2", measure_delta(3, 2)),
                   ("uniform_on:0,1", measure_uniform_on(3, (0, 1))),
                   ("uniform", measure_uniform(3))]
        message = ("upper bound failed for uniform: K = 6/5 > B = 1; "
                   "this contradicts the identity <w, DP> = n")
        with pytest.raises(HardVerificationError, match=f"^{re.escape(message)}$"):
            verify_minimax(D, forged, battery)

    def test_blocked_matches_per_measure(self):
        graphs = small_families()
        graphs += [gnp(4 + seed % 13, Fraction(1, 2 + seed % 3), seed)[0] for seed in range(100)]
        for g in graphs:
            D, sol = solved(g)
            if sol.status is SolveStatus.INCONSISTENT:
                continue
            battery = measure_battery(g.n, samples=g.n, seed=2)
            assert len(battery) > g.n  # at least two blocks
            assert verify_minimax(D, sol, battery) == verify_minimax_per_measure(D, sol, battery), g

    def test_python_int_block_among_int64_blocks(self):
        D, sol = solved(path(6))
        tiny = Fraction(1, 2 ** 70 + 1)
        wide = Measure([tiny, Fraction(1, 3), 0, 1 - tiny - Fraction(1, 3) - Fraction(1, 7),
                        Fraction(1, 7), 0])
        assert wide.den > 2 ** 62 and int(D.entries.max()) * wide.den > INT64_MAX
        battery = [(f"sample:{i}", mu) for i, mu in enumerate(sample_measures(6, 14, 3))]
        battery.insert(8, ("wide", wide))
        report = verify_minimax(D, sol, battery)
        assert report == verify_minimax_per_measure(D, sol, battery)
        for (_, mu), rec in zip(battery, report.records):
            dp = transport_vector_rowsum(D, mu)
            assert (rec.A, rec.B) == (min(dp), max(dp))

    def test_dimension_checked_before_any_product(self, monkeypatch):
        D, sol = solved(path(3))
        forged = dataclasses.replace(sol, l1_norm=Fraction(1, 10))  # every measure fails B
        battery = list(measure_battery(3, samples=5, seed=0)) + [("wrong", measure_uniform(4))]
        monkeypatch.setattr(verifier, "_transport_block",
                            lambda *args: pytest.fail("product before the dimension check"))
        with pytest.raises(ValueError, match="dimension mismatch: measure on 4 vertices"):
            verify_minimax(D, forged, battery)
        with pytest.raises(ValueError, match="dimension mismatch: measure on 4 vertices"):
            verify_minimax(D, forged, measure_battery(4, samples=5, seed=0))

    def test_mixed_labelled_and_bare_measures(self):
        for g in small_families()[::3] + [star(9), gnp(20, Fraction(1, 4), 3)[0]]:
            D, sol = solved(g)
            if sol.status is SolveStatus.INCONSISTENT:
                continue
            measures = [mu if i % 3 else (label, mu)
                        for i, (label, mu) in enumerate(measure_battery(g.n, samples=g.n, seed=4))]
            labelled = [m if isinstance(m, tuple) else (f"measure:{i}", m)
                        for i, m in enumerate(measures)]
            report = verify_minimax(D, sol, measures)
            assert report == verify_minimax_per_measure(D, sol, labelled), g
            assert report.labels[1] == "measure:1" and report.labels[3] == labelled[3][0]

    def test_bounds_match_row_sums(self):
        graphs = small_families() + [gnp(40, Fraction(1, 5), 1)[0], path(30)]
        for g in graphs:
            D, sol = solved(g)
            if sol.status is SolveStatus.INCONSISTENT:
                continue
            battery = measure_battery_measures(g.n, samples=2 * g.n, seed=6)
            report = verify_minimax(D, sol, battery)
            expected = [(min(dp), max(dp))
                        for dp in (transport_vector_rowsum(D, mu) for _, mu in battery)]
            assert [(r.A, r.B) for r in report.records] == expected, g

    # one column per block, and 2000 bytes: n columns up to n = 15, then
    # blocks of 2000 // (8 n) columns
    @pytest.mark.parametrize("block_bytes", [1, 2000])
    def test_bounds_match_row_sums_in_narrow_blocks(self, monkeypatch, block_bytes):
        monkeypatch.setattr(verifier, "_BLOCK_BYTES", block_bytes)
        self.test_bounds_match_row_sums()

    @pytest.mark.parametrize("extra", [0, 1])
    def test_float_product_guard_at_2_pow_53(self, extra):
        # max(D) = 2 on path:3, so den = 2^52 is the largest den of a float64
        # block; at 2^52 + 1 the entry 2 q_0 + q_1 = 2^53 + 1 has no float64
        # and the block takes int64.  Only the float64 tier reads D_float, so
        # a zero D_float gives a zero N exactly when that tier ran.
        D, sol = solved(path(3))
        den = FLOAT_EXACT_MAX // 2 + extra
        mu = Measure.from_weights([den - 1, 1, 0])
        assert mu.den == den
        battery = verifier._as_battery(D, [("edge", mu)])
        N = verifier._transport_block(D, battery.num, battery.den)
        zero = verifier._transport_block(D, battery.num, battery.den, np.zeros((3, 3)))
        assert N.dtype == np.int64 and (not zero.any()) == (not extra)
        dp = transport_vector_rowsum(D, mu)
        assert [Fraction(x, den) for x in N[:, 0].tolist()] == list(dp)
        assert transport_vector(D, mu).dp == dp
        measures = [("edge", mu), ("uniform", measure_uniform(3))]
        assert verify_minimax(D, sol, measures) == verify_minimax_per_measure(D, sol, measures)

    def test_int64_blocks_between_2_pow_53_and_2_pow_63(self, monkeypatch):
        # dens of about 2^57 and 2^60, and max(D) = 4 on gnp(20, 1/4, seed 3):
        # max(D) den lies in (2^53, 2^63], so their block takes the int64 product
        g = gnp(20, Fraction(1, 4), 3)[0]
        D, sol = solved(g)
        wide = [("wide:0", Measure.from_weights([2 ** 57 - 19] + [1] * 19)),
                ("wide:1", Measure.from_weights([(i * 2 ** 52) + 3 for i in range(1, 21)]))]
        battery = measure_battery_measures(20, samples=30, seed=4)
        battery[25:25] = wide  # the third of six blocks of 10 measures
        tiers = []
        kernel = verifier.exact_matmul

        def spy(A, columns, bound, A_float=None):
            N = kernel(A, columns, bound, A_float)
            tiers.append((FLOAT_EXACT_MAX < bound <= INT64_MAX, N.dtype))
            return N

        monkeypatch.setattr(verifier, "exact_matmul", spy)
        monkeypatch.setattr(verifier, "_BLOCK_BYTES", 8 * 20 * 10)
        report = verify_minimax(D, sol, battery)
        assert tiers == [(False, np.int64), (False, np.int64), (True, np.int64),
                          (False, np.int64), (False, np.int64), (False, np.int64)]
        monkeypatch.undo()
        assert report == verify_minimax_per_measure(D, sol, battery)
        for (_, mu), rec in zip(battery, report.records):
            dp = transport_vector_rowsum(D, mu)
            assert (rec.A, rec.B) == (min(dp), max(dp))

    def test_block_products_below_two_copies_of_D(self):
        # n = 300 takes blocks of 109 columns: float D, then one float Q and
        # one float N block at a time, about 1.7 x 8 n^2 bytes above the inputs
        g = gnp(300, Fraction(1, 30), 1)[0]
        D, sol = solved(g)
        battery = measure_battery(g.n, samples=100, seed=1)
        tracemalloc.start()
        try:
            report = verify_minimax(D, sol, battery)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * g.n ** 2
        # against one unblocked product on Python ints
        N = D.entries.astype(object) @ battery.num.T.astype(object)
        expected = [(Fraction(lo, d), Fraction(hi, d))
                    for lo, hi, d in zip(N.min(axis=0), N.max(axis=0), battery.den.tolist())]
        assert [(r.A, r.B) for r in report.records] == expected

    def test_hard_errors_match_per_measure(self):
        # forged inputs against the per-measure oracle: the same first failing
        # measure and the same message, from whichever block it falls in
        cases = 0
        for g in small_families() + [star(9), star(12), path(15)]:
            D, sol = solved(g)
            if sol.status is SolveStatus.INCONSISTENT:
                continue
            battery = measure_battery(g.n, samples=g.n, seed=8)
            for forged in (dataclasses.replace(sol, nonneg=True),
                           dataclasses.replace(sol, l1_norm=sol.l1_norm / 2)):
                try:
                    expected = verify_minimax_per_measure(D, forged, list(battery))
                except HardVerificationError as e:
                    with pytest.raises(HardVerificationError) as got:
                        verify_minimax(D, forged, battery)
                    assert str(got.value) == str(e), g
                    cases += 1
                else:
                    assert verify_minimax(D, forged, battery) == expected, g
        assert cases > 30

    def test_sandwich_nonneg_over_battery(self):
        for g in small_families():
            D, sol = solved(g)
            if sol.status is SolveStatus.INCONSISTENT or not sol.nonneg:
                continue
            report = verify_minimax(D, sol, measure_battery(g.n, samples=25, seed=3))
            assert report.lower_failures == 0 and report.upper_failures == 0

    def test_upper_bound_signed_over_battery(self):
        for n in range(4, 11):
            D, sol = solved(star(n))
            assert not sol.nonneg
            # raises on any upper failure; lower failures are findings
            verify_minimax(D, sol, measure_battery(n, samples=25, seed=3))


class TestSearchLowerViolation:
    def test_star4_witness(self):
        D, sol = solved(star(4))
        witness = search_lower_violation(D, sol)
        assert witness is not None
        K = curvature_bound(sol, 4)
        assert transport_vector(D, witness).A > K
        # the leaf-uniform measure from the hand fixture is also a witness
        leaf = measure_uniform_on(4, {1, 2, 3})
        assert transport_vector(D, leaf).A == 1 > K == Fraction(3, 4)

    def test_path3_empty(self):
        D, sol = solved(path(3))
        assert search_lower_violation(D, sol) is None

    def test_complete_family_empty(self):
        for n in range(2, 9):
            D, sol = solved(complete(n))
            assert search_lower_violation(D, sol) is None

    def test_deterministic(self):
        D, sol = solved(star(6))
        assert search_lower_violation(D, sol) == search_lower_violation(D, sol)

    def test_witness_exactly_when_value_exceeds_K(self):
        graphs = small_families()
        graphs += [gnp(4 + seed % 13, Fraction(1, 2 + seed % 3), seed)[0] for seed in range(100)]
        witnesses = 0
        for g in graphs:
            D, sol = solved(g)
            if sol.status is SolveStatus.INCONSISTENT:
                continue
            value = game_value(D).value
            K = curvature_bound(sol, g.n)
            if sol.nonneg:
                assert value <= K, g
                assert search_lower_violation(D, sol) is None, g
                continue
            witness = search_lower_violation(D, sol)
            assert (witness is not None) == (value > K), g
            if witness is not None:
                witnesses += 1
                assert transport_vector(D, witness).A == value > K, g
            else:
                battery = measure_battery(g.n, samples=10, seed=1)
                assert verify_minimax(D, sol, battery).lower_failures == 0, g
        assert witnesses > 0

    def test_given_game_is_not_solved_again(self, monkeypatch):
        D, sol = solved(star(5))
        gsol = game_value(D)
        monkeypatch.setattr(game, "game_value", lambda D: pytest.fail("game solved twice"))
        assert search_lower_violation(D, sol, gsol) == gsol.maximin_strategy

    def test_forged_nonneg_flag_is_hard_error(self):
        D, sol = solved(star(4))
        forged = dataclasses.replace(sol, nonneg=True)
        with pytest.raises(HardVerificationError, match="lower-bound witness"):
            search_lower_violation(D, forged)

    def test_inconsistent_refused(self):
        D, sol = solved(complete(1))
        with pytest.raises(InconsistentSystemError):
            search_lower_violation(D, sol)


class TestBoundConsequences:
    def test_K_at_most_radius(self):
        for g in small_families():
            D, sol = solved(g)
            if sol.status is SolveStatus.INCONSISTENT:
                continue
            _, radius, _ = eccentricities(D)
            assert curvature_bound(sol, g.n) <= radius, g

    def test_uniform_measure_consequences(self):
        for g in small_families():
            D, sol = solved(g)
            if sol.status is SolveStatus.INCONSISTENT:
                continue
            K = curvature_bound(sol, g.n)
            sums = row_sums(D)
            assert K <= Fraction(int(sums.max()), g.n), g
            if sol.nonneg:
                assert Fraction(int(sums.min()), g.n) <= K, g


class TestBattery:
    def test_composition_and_order(self):
        battery = measure_battery(3, samples=2, seed=0)
        names = [name for name, _ in battery]
        assert names[:4] == ["delta:0", "delta:1", "delta:2", "uniform"]
        assert names[4:7] == ["uniform_on:0,1", "uniform_on:0,2", "uniform_on:1,2"]
        assert names[7:] == ["sample:0", "sample:1"]

    def test_deterministic(self):
        assert measure_battery(5, 10, 4) == measure_battery(5, 10, 4)
        assert measure_battery(5, 10, 4) != measure_battery(5, 10, 5)

    @pytest.mark.parametrize("samples", [0, 1, 300])
    @pytest.mark.parametrize("n", range(1, 14))
    def test_rows_match_fraction_oracle(self, n, samples):
        # pair-uniform measures stop after n = BATTERY_PAIR_LIMIT = 12
        battery = measure_battery(n, samples=samples, seed=3)
        rows = [(label, tuple(Fraction(x, d) for x in q))
                for label, q, d in zip(battery.labels, battery.num.tolist(), battery.den.tolist())]
        assert rows == measure_battery_fraction(n, samples, seed=3)
        assert battery.num.dtype == battery.den.dtype == np.int64
        assert all(gcd(d, *q) == 1 for q, d in zip(battery.num.tolist(), battery.den.tolist()))
        assert list(battery) == measure_battery_measures(n, samples, seed=3)

    def test_sequence_of_labelled_measures(self):
        battery = measure_battery(4, samples=3, seed=2)
        listed = measure_battery_measures(4, samples=3, seed=2)
        assert len(battery) == len(listed) == 4 + 1 + 6 + 3
        assert battery[0] == listed[0] and battery[-1] == listed[-1]
        assert battery[2:9:3] == listed[2:9:3] and isinstance(battery[2:9:3], Battery)
        assert battery == listed and battery == Battery(battery.labels, battery.num * 5)
        assert listed[5] in battery and battery.index(listed[5]) == 5
        with pytest.raises(TypeError):
            hash(battery)

    @pytest.mark.parametrize("weights,error", [
        ([[1, -1]], "non-negative"), ([[1, 1], [0, 0]], "must not all be zero"),
        (np.zeros((1, 0), dtype=np.int64), "at least one entry"),
    ])
    def test_rejects_bad_weights(self, weights, error):
        weights = np.array(weights, dtype=np.int64)
        with pytest.raises(ValueError, match=error):
            Battery([f"m{i}" for i in range(len(weights))], weights)
        with pytest.raises(ValueError, match="labels"):
            Battery(["a", "b", "c"], np.ones((2, 2), dtype=np.int64))

    @pytest.mark.parametrize("n,samples", [(n, 25) for n in sorted({g.n for g in small_families()})]
                             + [(60, 300), (120, 300)])
    def test_matches_fraction_oracle(self, n, samples):
        battery = measure_battery(n, samples=samples, seed=7)
        expected = measure_battery_fraction(n, samples, seed=7)
        assert [(name, mu.p) for name, mu in battery] == expected
        assert all(mu == Measure(p) for (_, mu), (_, p) in zip(battery, expected))
