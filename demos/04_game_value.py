"""The zero-sum game on D and its link to curvature.

Treat D as the payoff matrix of a zero-sum game: one player mixes over
vertices with a measure P and collects the worst-case expected distance
min_u (D P)_u.  The game value (a float simplex finds the optimal basis,
which is then solved and certified exactly) equals K = n / ||w||_1
whenever w is non-negative.  On stars the value stays strictly above K,
and the optimal maximin strategy doubles as a lower-bound witness.
"""

from graphcurv import (
    apsp,
    complete,
    cycle,
    game_value,
    game_vs_curvature,
    hypercube,
    path,
    solve_curvature,
    star,
    transitive_oracle,
    transport_vector,
)
from graphcurv.rationals import rational_str

for name, g in [("path(3)", path(3)), ("cycle(5)", cycle(5)), ("complete(4)", complete(4))]:
    D = apsp(g)
    rec = game_vs_curvature(D)
    print(f"{name}: value = {rational_str(rec.value)}, K = {rational_str(rec.K)}, "
          f"equal = {rec.equal}")

# vertex-transitive but singular D: compare against the row-sum oracle instead
D = apsp(hypercube(3))
print(f"hypercube(3): value = {rational_str(game_value(D).value)}, "
      f"oracle K = {rational_str(transitive_oracle(D))}")

print()
for n in (4, 6, 8):
    g = star(n)
    D = apsp(g)
    sol = solve_curvature(D)
    gsol = game_value(D)
    A = transport_vector(D, gsol.maximin_strategy).A
    print(f"star({n}): value = {rational_str(gsol.value)} > K = {rational_str(sol.bound_K)}")
    print(f"  maximin strategy {[rational_str(x) for x in gsol.maximin_strategy.p]}")
    print(f"  is a lower-bound witness: A = {rational_str(A)} = value")
