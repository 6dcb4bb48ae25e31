"""Stars: negative curvature and failure of the lower bound.

The star's center has negative curvature, so min_i w_i >= 0 fails and the
lower bound A <= K is no longer guaranteed.  The upper bound K <= B
survives for every measure.  An explicit witness measure with A > K comes
from the matrix game on D: A(P) never exceeds the game value and the maximin
strategy attains it, so a witness exists exactly when value > K, and the
maximin strategy is a witness with the largest A.  On star(4) the uniform
measure on all three leaves is another witness.
"""

from graphcurv import (
    apsp,
    measure_uniform_on,
    search_lower_violation,
    solve_curvature,
    star,
    transport_vector,
    verify_minimax,
    measure_battery,
)
from graphcurv.rationals import rational_str

for n in range(4, 9):
    g = star(n)
    D = apsp(g)
    sol = solve_curvature(D)
    print(f"star({n}): w = {[rational_str(x) for x in sol.w]}")
    print(f"  K = {rational_str(sol.bound_K)}, min entry = {rational_str(sol.min_entry)}")

    report = verify_minimax(D, sol, measure_battery(n, samples=100, seed=0))
    print(f"  battery: {report.lower_failures}/{report.measures_checked} lower failures, "
          f"upper bound never fails")

    witness = search_lower_violation(D, sol)
    tb = transport_vector(D, witness)
    print(f"  witness P = {[rational_str(x) for x in witness.p]} "
          f"with A = {rational_str(tb.A)} = game value > K")
    print()

# the hand fixture: leaf-uniform on star(4) gives A = 1 > K = 3/4
D = apsp(star(4))
leaf = measure_uniform_on(4, {1, 2, 3})
print("star(4), leaf-uniform:", "A =", rational_str(transport_vector(D, leaf).A),
      "> K =", rational_str(solve_curvature(D).bound_K))
