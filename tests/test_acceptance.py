"""Acceptance suite: one test per criterion, each printing a PASS line.

Instance set shared by most criteria: paths, stars, completes on 2..12
vertices, cycles on 3..12, hypercubes of dimension 1..4, and 50 seeded
connected gnp graphs with n <= 16.  All exact assertions are zero-tolerance
rational comparisons; float assertions carry their stated tolerances.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from graphcurv import (
    SolveStatus,
    apsp,
    cli,
    complete,
    curvature_bound,
    cycle,
    game_value,
    game_vs_curvature,
    gnp,
    hypercube,
    identity_check,
    measure_delta,
    measure_uniform,
    measure_uniform_on,
    path,
    sample_measures,
    search_lower_violation,
    solve_curvature,
    solve_curvature_float,
    star,
    transitive_oracle,
    transport_vector,
)

BATTERY_SEED = 0
BATTERY_SAMPLES = 100


def _instances():
    graphs = []
    for n in range(2, 13):
        graphs.append((f"path({n})", path(n)))
        graphs.append((f"star({n})", star(n)))
        graphs.append((f"complete({n})", complete(n)))
        if n >= 3:
            graphs.append((f"cycle({n})", cycle(n)))
    for d in range(1, 5):
        graphs.append((f"hypercube({d})", hypercube(d)))
    for s in range(50):
        n = 6 + s % 11  # n in 6..16
        g, _ = gnp(n, Fraction(1, 2), s)
        graphs.append((f"gnp({n},1/2,seed={s})", g))
    return [(name, g, apsp(g)) for name, g in graphs]


@pytest.fixture(scope="module")
def instances():
    return [(name, g, D, solve_curvature(D)) for name, g, D in _instances()]


def _battery(n):
    measures = [measure_delta(n, v) for v in range(n)]
    measures.append(measure_uniform(n))
    measures.extend(sample_measures(n, BATTERY_SAMPLES, BATTERY_SEED))
    return measures


@pytest.fixture(scope="module")
def transports(instances):
    # dp vectors shared by criteria 2 and 3
    out = []
    for name, g, D, sol in instances:
        if sol.status is SolveStatus.INCONSISTENT:
            continue
        out.append((name, g, D, sol, [transport_vector(D, mu) for mu in _battery(g.n)]))
    return out


def _report(ok, line):
    print(("PASS" if ok else "FAIL") + f"  {line}")
    assert ok, line


def test_criterion_1_exact_system_check(instances):
    failures = []
    for name, g, D, sol in instances:
        if sol.status is SolveStatus.INCONSISTENT:
            failures.append(f"{name}: inconsistent system")
            continue
        for row in D.entries.tolist():
            if sum(Fraction(d) * w for d, w in zip(row, sol.w)) != g.n:
                failures.append(f"{name}: nonzero residual")
                break
    _report(not failures, f"criterion 1: exact D w = n 1 on {len(instances)} instances "
            f"{failures or ''}")


def test_criterion_2_proof_chain_identity(instances):
    checked = 0
    failures = []
    for name, g, D, sol in instances:
        if sol.status is SolveStatus.INCONSISTENT:
            continue
        for i, mu in enumerate(_battery(g.n)):
            if identity_check(sol.w, D, mu) != g.n:
                failures.append(f"{name} measure {i}")
            checked += 1
    _report(not failures, f"criterion 2: <w, D P> = n exactly on {checked} "
            f"(graph, measure) pairs {failures or ''}")


def test_criterion_3_sandwich_nonneg(transports):
    checked = 0
    failures = []
    for name, g, D, sol, tbs in transports:
        if not sol.nonneg:
            continue
        K = curvature_bound(sol, g.n)
        for tb in tbs:
            if not (tb.A <= K <= tb.B):
                failures.append(f"{name}: A={tb.A}, K={K}, B={tb.B}")
            checked += 1
    _report(not failures, f"criterion 3: A <= K <= B exactly on {checked} "
            f"non-negatively-curved (graph, measure) pairs {failures or ''}")


def test_criterion_4_upper_bound_beyond_nonneg():
    failures = []
    for n in range(4, 11):
        D = apsp(star(n))
        sol = solve_curvature(D)
        if sol.nonneg or sol.min_entry >= 0:
            failures.append(f"star({n}): expected a negative entry in w")
            continue
        K = curvature_bound(sol, n)
        for mu in _battery(n):
            if not K <= transport_vector(D, mu).B:
                failures.append(f"star({n}): upper bound failed")
                break
        witness = search_lower_violation(D, sol)
        if witness is None or not transport_vector(D, witness).A > K:
            failures.append(f"star({n}): no lower-bound witness found")
    # hand fixture: on star(4) the leaf-uniform measure violates the lower bound
    D4 = apsp(star(4))
    K4 = curvature_bound(solve_curvature(D4), 4)
    leaf = measure_uniform_on(4, {1, 2, 3})
    if not (transport_vector(D4, leaf).A == 1 > K4 == Fraction(3, 4)):
        failures.append("star(4): leaf-uniform fixture mismatch")
    _report(not failures, f"criterion 4: signed-curvature upper bound and witnesses on "
            f"star(4..10) {failures or ''}")


def test_criterion_5_von_neumann_equivalence(instances):
    failures = []
    equal_checked = 0
    for name, g, D, sol in instances:
        gsol = game_value(D)  # raises if its certificates do not close
        if sol.status is SolveStatus.INCONSISTENT or not sol.nonneg:
            continue
        if sol.status is SolveStatus.UNIQUE:
            if not game_vs_curvature(D, sol).equal:
                failures.append(f"{name}: value != K")
        elif gsol.value != curvature_bound(sol, g.n):
            failures.append(f"{name}: value != K (underdetermined)")
        equal_checked += 1
    star4 = game_value(apsp(star(4)))
    if not (star4.value == 1 > Fraction(3, 4)):
        failures.append("star(4): expected value 1 > K = 3/4")
    _report(not failures, f"criterion 5: game value = K on {equal_checked} "
            f"non-negatively-curved instances, certificates exact on all "
            f"{len(instances)} {failures or ''}")


def test_criterion_6_closed_form_pins():
    failures = []
    if curvature_bound(solve_curvature(apsp(path(3))), 3) != 1:
        failures.append("K(path(3)) != 1")
    if curvature_bound(solve_curvature(apsp(path(4))), 4) != Fraction(3, 2):
        failures.append("K(path(4)) != 3/2")
    for n in range(2, 13):
        if curvature_bound(solve_curvature(apsp(complete(n))), n) != Fraction(n - 1, n):
            failures.append(f"K(complete({n})) != {n - 1}/{n}")
    for n in range(3, 13):
        D = apsp(cycle(n))
        S = int(D.entries[0].sum())
        if transitive_oracle(D) != Fraction(S, n):
            failures.append(f"K(cycle({n})) oracle != rowsum/n")
        if n % 2 == 0 and transitive_oracle(D) != Fraction(n, 4):
            failures.append(f"K(cycle({n})) != n/4")
    if transitive_oracle(apsp(hypercube(3))) != Fraction(3, 2):
        failures.append("K(hypercube(3)) != 3/2")
    _report(not failures, f"criterion 6: closed-form curvature pins {failures or ''}")


def test_criterion_7_float_path(instances):
    failures = []
    extra = [("path(64)", path(64)), ("cycle(63)", cycle(63)),
             ("star(64)", star(64)), ("complete(40)", complete(40))]
    pool = [(name, g, D, sol) for name, g, D, sol in instances]
    pool += [(name, g, apsp(g), solve_curvature(apsp(g))) for name, g in extra]
    for name, g, D, sol in pool:
        if sol.status is not SolveStatus.UNIQUE:
            continue
        fs = solve_curvature_float(D)
        gap = np.abs(fs.w - np.array([float(x) for x in sol.w])).max()
        if gap > 1e-9:
            failures.append(f"{name}: float gap {gap:.2e}")
    t0 = time.time()
    g, _ = gnp(2000, Fraction(1, 100), 0)
    D = apsp(g)
    solve_curvature_float(D)
    elapsed = time.time() - t0
    if elapsed >= 60:
        failures.append(f"gnp(2000) pipeline took {elapsed:.1f}s")
    _report(not failures, f"criterion 7: float/exact within 1e-9, gnp(2000) apsp+solve in "
            f"{elapsed:.1f}s {failures or ''}")


def test_criterion_8_determinism(capsys):
    configs = [
        ["verify", "--input", "path:8", "--seed", "11", "--samples", "100"],
        ["verify", "--input", "star:6", "--seed", "11", "--samples", "100"],
        ["verify", "--input", "gnp:12,1/2", "--seed", "11", "--samples", "100"],
        ["report", "--input", "gnp:10,1/2", "--seed", "4", "--samples", "50"],
    ]
    failures = []
    for argv in configs:
        outs = []
        for _ in range(2):
            code = cli.main(argv)
            outs.append(capsys.readouterr().out)
            if code != 0:
                failures.append(f"{argv}: exit {code}")
        if outs[0] != outs[1]:
            failures.append(f"{argv}: outputs differ")
        if argv[0] == "verify":
            doc = json.loads(outs[0])
            if doc["summary"]["measures_checked"] < 100:
                failures.append(f"{argv}: battery too small")
    with capsys.disabled():
        print()
    _report(not failures, f"criterion 8: byte-identical reports across reruns {failures or ''}")
