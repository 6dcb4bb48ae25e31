"""Mutation check: each mutant of src/graphcurv must make its target tests fail.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # a subset, by name

A mutant replaces one exact snippet of one file under src/graphcurv/ and
names the pytest node ids that must kill it (DeMillo, Lipton & Sayward,
"Hints on test data selection", 1978).  Each mutant runs in its own
temporary copy of the checkout, without .git, .hypothesis/ or caches, with
PYTHONPATH pointing at the copy's src/, so the checkout is never written.
Pytest runs the targets with a fixed hypothesis seed and stops at the first
failure.

A mutant is killed when pytest exits 1 and survives when it exits 0.  Any
other exit (a collection error, a usage error, a time-out), or a snippet
that does not occur exactly once, is an error that names the mutant as
stale.  The unmutated targets run once first and must pass.  The script
prints a table of mutant, targets, verdict and seconds, and exits non-zero
unless every mutant is killed.  It uses only the standard library and
pytest, which does not collect it.

Left out on purpose, because each changes no output:
  - `game._nondegenerate` forced true.  `_unique_optimum` rejects every
    degenerate steepest-edge basis exactly, so the answers stay the same;
    the screen only saves the exact solve of a basis that would be
    rejected.  It is load-bearing for time: the 27 simplex games of the
    benchmark's report-small at seeds 1-3 took 26-46 ms without it against
    20-36 ms with it (three rounds, best of 15 alternating passes each,
    2 vCPUs, one BLAS thread).
  - `metric._bitbfs` with a cumulative frontier (the `unseen` mask already
    drops every bit set before), and with gathers of two slots per run (the
    OR of the same rows in another grouping).
  - `graphs.hypercube` without its `x & bit == 0` filter: the reverse
    orientations it then passes are folded back by the constructor's
    deduplication.
  - `curvature.dixon_lift`'s cast of the residues R[:r] mod p to int64
    before the product with C.  Without it, residues of a Python-int R
    make that product run on Python ints: slower, with the same X.
`__init__.py` only re-exports names: dropping one breaks test collection,
which counts as an error here, not as a kill, so no mutant is listed for it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600  # seconds per pytest run
# left out of each copy: version control, caches, and what runs leave behind
IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__",
                                "*.egg-info", "build", "out")


class Mutant(NamedTuple):
    name: str
    path: str  # under src/graphcurv/
    old: str  # must occur exactly once
    new: str
    targets: tuple[str, ...]  # pytest node ids under tests/


CURV = "tests/test_curvature.py::"
GAME = "tests/test_game.py::"
VERIF = "tests/test_verifier.py::"
MEAS = "tests/test_measures.py::"
METRIC = "tests/test_metric.py::"
CLI = "tests/test_cli.py::"
GRAPHS = "tests/test_graphs.py::"

MUTANTS = [
    # curvature: the lift
    Mutant("lift-no-pivot-raise", "curvature.py",
           "if rem[:r].any():", "if False:",
           (CURV + "TestDixonLifting::test_wrong_elimination_is_refused",)),
    Mutant("lift-no-dead-flag", "curvature.py",
           "dead |= (rem[r:] != 0).any(axis=0)", "pass",
           (CURV + "TestStatusClassification::test_single_vertex_inconsistent",)),
    Mutant("fits-le-for-lt", "curvature.py",
           "beta * den < pk and", "beta * den <= pk and",
           (CURV + "TestDixonLifting::test_rank_zero_and_boundary_systems",)),
    Mutant("fits-no-congruence", "curvature.py",
           "< pk and all(\n        (den * x - y) % pk == 0 for x, y in zip(u, num))", "< pk",
           (CURV + "TestDixonLifting::test_uncertified_candidates_raise",)),
    Mutant("lift-cap-hadamard-squared", "curvature.py",
           "while pk <= 2 * h2:", "while pk <= h2:",
           (CURV + "TestDixonLifting::test_cap_is_the_first_step_past_twice_hadamard_squared",)),
    Mutant("lift-cap-on-r", "curvature.py",
           "_lift_steps(r + (m > r), a, beta, p)", "_lift_steps(r, a, beta, p)",
           (CURV + "TestDixonLifting::test_rank_zero_and_boundary_systems",)),
    Mutant("lift-bound-no-beta", "curvature.py",
           "r * max(a, 1) * p + beta", "r * max(a, 1) * p",
           (CURV + "TestDixonLifting::test_residual_past_int64_takes_python_ints",)),
    Mutant("lift-bound-p-minus-1", "curvature.py",
           "r * max(a, 1) * p + beta", "r * max(a, 1) * (p - 1) + beta",
           (CURV + "TestDixonLifting::test_residual_past_int64_takes_python_ints",)),
    Mutant("rhs-forced-int64", "curvature.py",
           "dtype=object if max(map(abs, b), default=0) > INT64_MAX else np.int64)",
           "dtype=np.int64)",
           (CURV + "TestDixonLifting::test_right_hand_side_past_int64",)),
    Mutant("reconstruct-no-sign-fix", "curvature.py",
           "            if t1 < 0:\n                r1, t1 = -r1, -t1\n", "",
           (CURV + "TestHandFixtures::test_star4_signed",)),
    # curvature: the elimination and the rank profile
    Mutant("eliminate-no-minus-identity", "curvature.py",
           "= (Z[:, r0:r].diagonal() + (p - 1)) % p", "= Z[:, r0:r].diagonal()",
           (CURV + "TestEliminateMod::test_matches_outer_product_kernel",)),
    Mutant("eliminate-perm-not-swapped", "curvature.py",
           "perm[r], perm[i] = perm[i], perm[r]", "pass",
           (CURV + "TestEliminateMod::test_full_rank_matches_inverse_mod",)),
    Mutant("reduce-no-correction", "curvature.py",
           "    X[X < 0] += p\n    X[X >= p] -= p\n", "",
           (CURV + "TestPanelKernel::test_reduce_near_multiples_of_p",)),
    Mutant("rank-profile-unchecked", "curvature.py",
           "if any(not z or any(x for c, x in zip(cols, z[0]) if c > j) "
           "for j, z in zip(free, nulls)):", "if False:",
           (CURV + "TestCertifiedRankProfile::test_unlucky_prime_is_rejected",)),
    # curvature: the transposed lift
    Mutant("basis-pair-untransposed-inverse", "curvature.py",
           "np.ascontiguousarray(self.C.T)", "np.ascontiguousarray(self.C)",
           (CURV + "TestExactSystem::test_transpose_matches_fraction_oracle",
            GAME + "TestBasisPair::test_one_inverse")),
    Mutant("transpose-no-full-rank-check", "curvature.py",
           "if self.A.shape != (len(self.cols),) * 2:", "if False:",
           (CURV + "TestExactSystem::test_transpose_refuses_without_an_inverse",)),
    # curvature: the float path
    Mutant("float-lu-on-c-order", "curvature.py",
           "lu = D.entries.astype(np.float64).T", "lu = D.entries.astype(np.float64)",
           (CURV + "TestFloatSolver::test_one_float_matrix",)),
    # game
    Mutant("unique-optimum-always", "game.py",
           "return (set(sol.minimax_strategy.support()) == cols",
           "return True or (set(sol.minimax_strategy.support()) == cols",
           (GAME + "TestUniqueOptimum::test_optimal_but_not_unique_basis_is_rejected",)),
    Mutant("closing-without-denominators", "game.py",
           "sum(pi) * den != total * pi_den", "sum(pi) != total",
           (GAME + "TestIntegerPair::test_sums_close_only_without_denominators",)),
    Mutant("relation-no-below-raise", "game.py",
           "    if value < K:\n", "    if False:\n",
           (GAME + "TestCurvatureComparison::test_forged_value_below_K_is_hard_error",)),
    Mutant("payoffs-in-uint8", "game.py",
           "M = np.add(D.entries, 1, dtype=np.int64)", "M = D.entries + 1",
           (CLI + "test_output_matches_golden[game-path:256-0]",)),
    Mutant("shortcut-no-fall-through", "game.py",
           "        except HardVerificationError:\n            pass",
           "        except ZeroDivisionError:\n            pass",
           (GAME + "TestPositiveCurvature::test_forged_curvature_falls_through",)),
    Mutant("bland-ties-to-highest-index", "game.py",
           "tied[basis[tied].argmin()]", "tied[basis[tied].argmax()]",
           (GAME + "TestCondensedTableau::test_bland_runs_match_full_tableau",)),
    Mutant("certificate-columns-crossed", "game.py",
           "[maximin.q, minimax.q]", "[minimax.q, maximin.q]",
           (GAME + "TestIntegerPair::test_unique_optimum_with_two_supports",)),
    Mutant("certificate-dens-crossed", "game.py",
           "Fraction(int(low.min()), maximin.den), Fraction(int(high.max()), minimax.den)",
           "Fraction(int(low.min()), minimax.den), Fraction(int(high.max()), maximin.den)",
           (CLI + "test_output_matches_golden[game-path:7-0]",)),
    # rationals
    Mutant("float-tier-one-past-2^53", "rationals.py",
           "if bound > FLOAT_EXACT_MAX:", "if bound > FLOAT_EXACT_MAX + 1:",
           ("tests/test_rationals.py::test_exact_matmul_tiers",)),
    # verifier
    Mutant("lower-failures-always-hard", "verifier.py",
           "hard = ~upper | (~lower & sol.nonneg)", "hard = ~upper | ~lower",
           (VERIF + "TestVerifyMinimax::test_star4_lower_failure_recorded",)),
    Mutant("block-bound-from-first-den", "verifier.py",
           "* int(np.max(den)), D_float)", "* int(den[0]), D_float)",
           (VERIF + "TestVerifyMinimax::test_int64_blocks_between_2_pow_53_and_2_pow_63",)),
    Mutant("transport-no-dimension-check", "verifier.py",
           "    if P.n != D.n:\n        raise ValueError(_mismatch(P.n, D.n))\n", "",
           (VERIF + "TestTransport::test_dimension_mismatch",)),
    Mutant("bounds-from-rows", "verifier.py",
           "lo.append(N.min(axis=0))", "lo.append(N.min(axis=1))",
           (VERIF + "TestVerifyMinimax::test_blocked_matches_per_measure",)),
    # measures
    Mutant("sample-prefix-off-by-one", "measures.py",
           "offsets = counter_offsets(seed, count)",
           "offsets = counter_offsets(seed, count + 1)[1:]",
           (MEAS + "TestSampling::test_matches_fraction_oracle",)),
    Mutant("measure-not-reduced", "measures.py",
           "return w // g[:, None], den // g", "return w // g[:, None], den",
           (MEAS + "TestFromWeights::test_equal_to_rational_construction",)),
    Mutant("battery-not-reduced", "measures.py",
           "g = np.gcd(np.gcd.reduce(w, axis=1), den)", "g = np.ones_like(den)",
           (VERIF + "TestBattery::test_sequence_of_labelled_measures",)),
    Mutant("battery-row-sum-wraps", "measures.py",
           "fits = not w.size or", "fits = True or",
           (MEAS + "TestKernel::test_wide_row_sum_does_not_wrap",
            MEAS + "TestKernel::test_constructors_agree_with_fraction_oracle")),
    Mutant("measure-takes-any-entry", "measures.py",
           "if not all(isinstance(x, (int, Fraction)) for x in p):", "if False:",
           (MEAS + "TestConstruction::test_rejects_floats_strings_and_decimals",)),
    Mutant("kernel-allows-negative", "measures.py",
           "if w.size and w.min() < 0:", "if False:",
           (MEAS + "TestKernel::test_bad_rows_raise_one_error_in_order",)),
    # seeding
    Mutant("mix64-wrong-shift", "seeding.py",
           "np.right_shift(z, np.uint64(27), out=t)", "np.right_shift(z, np.uint64(26), out=t)",
           (MEAS + "TestCounterValues::test_bit_identical_to_scalar",)),
    Mutant("scalar-mix64-wrong-shift", "seeding.py",
           "x = (x ^ (x >> 30))", "x = (x ^ (x >> 29))",
           (MEAS + "TestCounterValues::test_bit_identical_to_scalar",)),
    # metric
    Mutant("bitbfs-wrong-plane-shift", "metric.py",
           "bits <<= k", "bits <<= min(k, 1)",
           (METRIC + "TestBranches::test_families_against_floyd_warshall",)),
    Mutant("bitbfs-depth-bound-exclusive", "metric.py",
           "depth <= BITBFS_MAX_DEPTH", "depth < BITBFS_MAX_DEPTH",
           (METRIC + "TestBranches::test_branch_choice[path:65-_bitbfs]",)),
    Mutant("dijkstra-dtype-below-diameter", "metric.py",
           "np.min_scalar_type(int(D.max()))", "np.min_scalar_type(int(D.max()) - 1)",
           (CLI + "test_output_matches_golden[curvature-path:257-0]",)),
    Mutant("chain-own-columns-no-min", "metric.py",
           "np.minimum(own, d.view(w), out=own)", "own",
           (METRIC + "TestChainKernel::test_named_graphs[spider]",)),
    Mutant("chain-far-end-off-by-one", "metric.py",
           "(np.repeat(lens + 1, lens) - offset)", "(np.repeat(lens + 1, lens) - offset - 1)",
           (METRIC + "TestChainKernel::test_named_graphs[theta]",)),
    Mutant("chain-no-stand-in-anchor", "metric.py",
           "        is_anchor[0] = True", "        pass",
           (METRIC + "TestChainKernel::test_named_graphs[cycle]",)),
    # graphs
    Mutant("gnp-column-off-by-one", "graphs.py",
           "j = kept - offsets[i] + i + 1", "j = kept - offsets[i] + i + 2",
           (GRAPHS + "TestGnp::test_matches_triu_reference",)),
    Mutant("csr-one-orientation", "graphs.py",
           "np.concatenate((e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]))",
           "e[:, 0] * n + e[:, 1]",
           (GRAPHS + "TestCsrConstructor::test_pair_lists_match_set_constructor",)),
    Mutant("csr-no-dedup", "graphs.py",
           "keys = keys[np.diff(keys, prepend=-1) != 0]", "pass",
           (GRAPHS + "TestCsrConstructor::test_parser_matches_set_constructor",)),
    Mutant("grid-no-vertical-edges", "graphs.py",
           "np.concatenate((horizontal, vertical))", "horizontal",
           (GRAPHS + "TestCsrConstructor::test_generators_match_set_constructor",)),
    Mutant("first-error-last", "graphs.py",
           "e[bad[0]]", "e[bad[-1]]",
           (GRAPHS + "TestCsrConstructor::test_parser_matches_set_constructor",)),
    Mutant("spec-zero-denominator-uncaught", "graphs.py",
           "except (ValueError, ZeroDivisionError):", "except ValueError:",
           (CLI + "TestExitCodes::test_bad_generator_parameters",)),
    # errors
    Mutant("disconnected-pair-reversed", "errors.py",
           "self.unreachable_pair = (u, v)", "self.unreachable_pair = (v, u)",
           (METRIC + "TestDisconnectedPair::test_fixed_graphs",)),
    # cli
    Mutant("memory-error-not-mapped", "cli.py",
           "    except MemoryError as e:", "    except ZeroDivisionError as e:",
           (CLI + "TestExitCodes::test_allocation_past_memory[gen path:1000000000]",)),
    Mutant("closed-stdout-traceback", "cli.py",
           "    except BrokenPipeError:", "    except ZeroDivisionError:",
           (CLI + "TestExitCodes::test_closed_stdout_exits_1_without_traceback",)),
    Mutant("hard-verification-not-mapped", "cli.py",
           "    except HardVerificationError as e:", "    except ZeroDivisionError as e:",
           (CLI + "TestExitCodes::test_hard_verification_failure",)),
    Mutant("grid-skips-rows", "cli.py",
           "for start in range(0, len(entries), rows):",
           "for start in range(0, len(entries), rows + 1):",
           (CLI + "TestDistKernel::test_blocks",)),
    Mutant("json-repr-for-nan", "cli.py",
           "return _NONFINITE.get(text, text)", "return text",
           (CLI + "TestJsonWriter::test_edge_cases",)),
    Mutant("records-percent-unescaped", "cli.py",
           '_quote(k).replace("%", "%%")', "_quote(k)",
           (CLI + "TestJsonWriter::test_tables",)),
    Mutant("ratio-floats-divided-past-2^53", "cli.py",
           "if top <= FLOAT_EXACT_MAX:", "if True:",
           (CLI + "TestRatioColumns::test_negative_numerator_beyond_float_is_exact",)),
]


def pytest_run(copy: Path, targets) -> int | None:
    """pytest's exit code on the targets in the copy, or None after TIMEOUT seconds."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(copy / "src"),
                                                         os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *targets]
    try:
        return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def run(mutant: Mutant, work: Path) -> str:
    """The verdict on one mutant, from a fresh copy of the checkout under work."""
    copy = work / mutant.name
    shutil.copytree(ROOT, copy, ignore=IGNORE)
    try:
        path = copy / "src" / "graphcurv" / mutant.path
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"error: stale, its snippet occurs {text.count(mutant.old)} times"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        code = pytest_run(copy, mutant.targets)
    finally:
        shutil.rmtree(copy)
    if code == 1:
        return "killed"
    if code == 0:
        return "SURVIVED"
    return f"error: stale, pytest {'timed out' if code is None else f'exited {code}'}"


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[name] for name in names] if names else MUTANTS
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="graphcurv-mutants-") as tmp:
        work = Path(tmp)
        baseline = work / "unmutated"
        shutil.copytree(ROOT, baseline, ignore=IGNORE)
        targets = sorted({t for m in chosen for t in m.targets})
        code = pytest_run(baseline, targets)
        shutil.rmtree(baseline)
        if code != 0:
            print(f"the unmutated targets do not pass (pytest exit {code})", file=sys.stderr)
            return 1
        print(f"{len(targets)} unmutated targets pass ({time.perf_counter() - start:.0f} s)")
        width = max(len(m.name) for m in chosen)
        verdicts = []
        for m in chosen:
            t0 = time.perf_counter()
            verdict = run(m, work)
            verdicts.append(verdict)
            shown = ", ".join(t.split("::", 1)[1] for t in m.targets)
            print(f"{m.name:<{width}}  {verdict:<8}  {time.perf_counter() - t0:5.1f} s  {shown}",
                  flush=True)
    killed = verdicts.count("killed")
    print(f"{killed} of {len(chosen)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
