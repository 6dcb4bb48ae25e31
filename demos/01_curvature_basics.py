"""Curvature vectors from the distance matrix.

For a connected graph on n vertices with distance matrix D, any vector w
with D w = n 1 assigns each vertex a curvature value.  This walks through
the exact pipeline on a few small graphs: distances, the solved w, its l1
norm, and the bound K = n / ||w||_1.
"""

from graphcurv import apsp, complete, cycle, hypercube, path, solve_curvature, star
from graphcurv.rationals import rational_str

for name, g in [
    ("path(3)", path(3)),
    ("path(4)", path(4)),
    ("complete(4)", complete(4)),
    ("cycle(5)", cycle(5)),
    ("star(4)", star(4)),
    ("hypercube(2)", hypercube(2)),
]:
    D = apsp(g)
    print(f"== {name}  (n = {g.n}, m = {g.m})")
    for row in D.entries.tolist():
        print("   ", row)
    sol = solve_curvature(D)
    print("  status:", sol.status.value)
    print("  w     :", [rational_str(x) for x in sol.w])
    print("  ||w||1:", rational_str(sol.l1_norm), " K =", rational_str(sol.bound_K))
    print("  non-negatively curved:", sol.nonneg)
    for warning in sol.warnings:
        print("  warning:", warning)
    print()

# the path endpoints carry all the curvature; the star's center is negative;
# vertex-transitive graphs spread it evenly
