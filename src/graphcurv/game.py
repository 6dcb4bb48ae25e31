"""Exact value and optimal strategies of the zero-sum game with payoff D.

One player mixes over vertices with a measure P and collects the worst-case
expected distance min_u (D P)_u; the opponent mixes over rows.  The game is
solved by the classic LP reduction to a simplex tableau.  D has a zero
diagonal, so every payoff is shifted by +1 before the reduction (making
the value strictly positive, as the reduction requires) and the shift is
subtracted again at the end.

A(P) = min_u (D P)_u never exceeds the value and the maximin strategy attains
it, so that strategy is a lower-bound witness (A > K) exactly when value > K
(`search_lower_violation`).

The solve is exact at close to float cost, in the manner of QSopt_ex
(Applegate, Cook, Dash and Espinoza 2007):
  0. given `solve_curvature(D)` with a unique w = num / den > 0, its num and
     den give y = pi = num / (n den + sum(num)), a primal/dual pair on all n
     y columns as M num = (n den + sum(num)) 1 for M = D + 1 1^T; when it
     passes the checks of step 2, uniqueness included, no simplex runs;
  1. a float64 simplex priced by steepest edge (Goldfarb and Reid 1977),
     which needs 10-60x fewer pivots than Bland's rule on gnp games, yields
     its final basis when that tableau looks nondegenerate;
  2. the basis is solved exactly (graphcurv.curvature._certified_solve,
     the kernel of solve_exact) and its transpose by the same certified
     system (`ExactSystem.transpose`), one elimination for both, and the
     pair must pass the optimality certificates below and an exact
     uniqueness check (`_unique_optimum`): a unique optimum is the one
     Bland's rule reaches too, so the answer does not depend on the rule;
  3. otherwise the same loop on the same condensed tableau, Bland's rule,
     runs in float64 and its final basis is solved and certified the same
     way, without the uniqueness check;
  4. if that fails too (pivot cap, singular basis, rejected certificate),
     the same loop, Bland's rule, runs on Fractions: slow, but it always
     terminates, and its basis is solved and certified like the others.
Either way, both certificates are re-verified before a solution is
returned:
    min_u (D . maximin)_u  =  value  =  max_u (D^T . minimax)_u
exactly, or the solver refuses.  The pair stays integer numerators over a
denominator from the lift to the strategies, and both certificates come
from one product D [p | q], through the sandwich's transport kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curvature import (
    CurvatureSolution,
    SolveStatus,
    _certified_solve,
    curvature_bound,
    solve_curvature,
)
from .errors import HardVerificationError
from .measures import Measure
from .metric import DistanceMatrix
from .verifier import _transport_block

FLOAT_TOL = 1e-9  # float tableau entries this close to zero count as zero
FLOAT_PIVOT_CAP = 20_000  # gnp:160,1/16 seed 1: 5,581 Bland pivots, 94 steepest edge


@dataclass(frozen=True)
class GameSolution:
    value: Fraction
    maximin_strategy: Measure  # P attaining max_P min_u (D P)_u
    minimax_strategy: Measure  # Q attaining min_Q max_u (D^T Q)_u


@dataclass(frozen=True)
class GameCurvatureComparison:
    value: Fraction
    K: Fraction
    equal: bool
    nonneg: bool


def game_value(D: DistanceMatrix, curvature: CurvatureSolution | None = None) -> GameSolution:
    """Solve the matrix game on D exactly and verify both certificates.

    `curvature`, when given, must be `solve_curvature(D)`'s result.  Its
    UNIQUE status is what makes M = D + 1 1^T nonsingular, as the uniqueness
    argument needs: det M = det D (1 + ||w||_1 / n).  When also every entry
    of w is positive, w is certified as the game's only optimal pair before
    any simplex runs (step 0 of the module docstring).
    """
    n = D.n
    if n < 1:
        raise ValueError("game needs at least one vertex")
    if (curvature is not None and curvature.status is SolveStatus.UNIQUE
            and curvature.min_entry > 0):
        num = list(curvature.num)  # M num = (n den + sum(num)) 1
        pair = (num, n * curvature.den + sum(num))
        try:
            return _certified(D, pair, pair, list(range(n)))
        except HardVerificationError:
            pass  # not this D's positive w: solve the game as if none were given
    M = np.add(D.entries, 1, dtype=np.int64)  # shifted payoffs, all >= 1; no uint8 wrap at 255

    # float steepest edge, float Bland, exact Bland: a failed float run hands
    # over to the next one, and the exact run's failure is the solver's
    for steepest, exact in ((True, False), (False, False), (False, True)):
        payoffs = np.array([[Fraction(x) for x in row] for row in M.tolist()]) if exact else M
        try:
            basis = _simplex_basis(payoffs, steepest)
            if basis is None:  # or a float run's pivot cap
                raise HardVerificationError(
                    "unbounded LP in game reduction; payoff shift is broken")
            pair = _basis_pair(M, basis)
            if pair is None:
                raise HardVerificationError("simplex ended on a singular basis")
            # a steepest-edge basis stands in for Bland's only when its optimum is unique
            return _certified(D, *pair, basis if steepest else None)
        except HardVerificationError:
            if exact:
                raise


def _certified(D: DistanceMatrix, primal: tuple[list[int], int], dual: tuple[list[int], int],
               basis: list[int] | None = None) -> GameSolution:
    """The game solution read off a pair (y, den), (pi, pi_den) of `_basis_pair`.

    Raises HardVerificationError unless the pair closes (sum(y) / den =
    sum(pi) / pi_den > 0, by cross-multiplication), has no negative entry,
    and both certificates hold exactly: min_u (D P)_u = value =
    max_u (D^T Q)_u, both columns from one `verifier._transport_block`
    product D [p | q].  When the pair's `basis` is given, it also raises
    unless the optimum is unique (`_unique_optimum`).
    """
    (y, den), (pi, pi_den) = primal, dual
    total = sum(y)
    if total <= 0 or sum(pi) * den != total * pi_den:
        raise HardVerificationError("simplex returned a non-closing primal/dual pair")
    if min(y) < 0 or min(pi) < 0:
        raise HardVerificationError("simplex returned a primal/dual pair with a negative entry")
    # pi solves min sum x, M^T x >= 1: the column player's (maximin) side
    maximin, minimax = Measure.from_weights(pi), Measure.from_weights(y)
    value = Fraction(den, total) - 1

    N = _transport_block(D, [maximin.q, minimax.q], [maximin.den, minimax.den])
    low, high = N[:, 0], N[:, 1]  # numerators of D P and D Q (= D^T Q) over P.den and Q.den
    A, B = Fraction(int(low.min()), maximin.den), Fraction(int(high.max()), minimax.den)
    if A != value or B != value:
        raise HardVerificationError(f"game certificates do not close: min(D P) = {A}, "
                                    f"value = {value}, max(D^T Q) = {B}")
    sol = GameSolution(value=value, maximin_strategy=maximin, minimax_strategy=minimax)
    if basis is not None and not _unique_optimum(basis, sol, low, high):
        raise HardVerificationError("the basis is optimal but its optimum is not unique")
    return sol


def _unique_optimum(basis: list[int], sol: GameSolution, low: np.ndarray, high: np.ndarray) -> bool:
    """Whether the certified solution of `basis` is the game's only optimal pair.

    `low` and `high` are the numerators of D P and D Q over P.den and Q.den,
    for P = maximin, Q = minimax; the certificates showed that their min and
    max are the value.  Let Y be the basic y columns and R the rows without
    a basic slack; M[R, Y] is square and nonsingular.  If
    supp(Q) = Y = {j : (D P)_j = value} and supp(P) = R = {i : (D Q)_i = value},
    complementary slackness against P confines every optimal Q' to Y with
    (D Q')_R = value, so M[R, Y] Q'_Y = (value + 1) 1; against Q, every
    optimal P' lives on R with M[R, Y]^T P'_R = (value + 1) 1.  So both
    strategies are unique (Mangasarian 1979), and every optimal basis,
    Bland's included, gives this solution.
    """
    n = len(low)
    cols = {j for j in basis if j < n}
    rows = set(range(n)) - {j - n for j in basis if j >= n}
    return (set(sol.minimax_strategy.support()) == cols == set(np.flatnonzero(low == low.min()))
            and set(sol.maximin_strategy.support()) == rows
            == set(np.flatnonzero(high == high.max())))


def game_vs_curvature(
    D: DistanceMatrix,
    sol: CurvatureSolution | None = None,
    game: GameSolution | None = None,
) -> GameCurvatureComparison:
    """Compare the game value with K = n/||w||_1.

    `sol` and `game` are solved from D when not given.

    K <= value for every w, and when w is non-negative the minimax sandwich
    forces value = K exactly; anything else is a hard error (`_check_relation`).
    For signed w, value > K is the expected reading of a lower-bound failure,
    and value = K or not is reported, not asserted.
    """
    if sol is None:
        sol = solve_curvature(D)
    if sol.status is not SolveStatus.UNIQUE:
        raise ValueError(f"comparison needs a unique curvature solution, got {sol.status.value}")
    K = curvature_bound(sol, D.n)
    value = (game if game is not None else game_value(D, sol)).value
    _check_relation(value, K, sol.nonneg)
    return GameCurvatureComparison(value=value, K=K, equal=value == K, nonneg=sol.nonneg)


def search_lower_violation(
    D: DistanceMatrix,
    sol: CurvatureSolution,
    game: GameSolution | None = None,
) -> Measure | None:
    """A measure P with A(P) > K = n/||w||_1, or None when there is none.

    The witness is the game's maximin strategy, whose A equals the value
    (`game_value` certifies that), so it exists exactly when value > K.
    `game` is solved as game_value(D, sol) when not given.  value < K, and
    for non-negative w a witness, are hard errors (`_check_relation`).
    """
    K = curvature_bound(sol, D.n)
    if game is None:
        game = game_value(D, sol)
    _check_relation(game.value, K, sol.nonneg)
    return game.maximin_strategy if game.value > K else None


def _check_relation(value: Fraction, K: Fraction, nonneg: bool) -> None:
    """Raise HardVerificationError unless K <= value, with equality when w >= 0.

    For every solution w and measure Q, n = w^T D Q <= ||w||_1 max_u (D Q)_u,
    so K <= B(Q), which is the value at the minimax strategy; when w >= 0,
    A(P) <= K for every P, the maximin strategy's A included.
    """
    if value < K:
        raise HardVerificationError(
            f"game value {value} < K = {K}: the minimax strategy breaks K <= B(Q); "
            "solver or verifier is wrong")
    if nonneg and value > K:
        raise HardVerificationError(
            f"game value {value} > K = {K} although min w >= 0: the maximin strategy "
            "is a lower-bound witness; solver or verifier is wrong")


def _simplex_basis(M: np.ndarray, steepest: bool) -> list[int] | None:
    """Final basis of the primal simplex on: max sum(y) s.t. M y <= 1, y >= 0.

    M > 0 entrywise, so the slack basis is feasible and the feasible set
    bounded.  The variables are y_0..y_{n-1} and the slacks n..2n-1.  The
    tableau is condensed (Tucker's form): n rows over the nonbasic columns
    and the right-hand side b, and a reduced-cost row below them.  When x_e
    enters and x_l leaves, column e becomes x_l's column, so a pivot is one
    rank-1 update of the (n + 1) x (n + 1) array.

    Bland's run enters the lowest-indexed variable with a positive reduced
    cost and breaks ties in the ratio test by the lowest basis index.  The
    steepest-edge run (Goldfarb and Reid 1977) enters the largest
    c_j^2 / (1 + |T[:n, j]|^2) among positive reduced costs c_j, the exact
    edge norms read off the tableau, and breaks ratio ties by the largest
    pivot entry; with index ties it stalls on dense games.  It needs far
    fewer pivots than Dantzig's largest-reduced-cost rule: 41 against 453 on
    gnp:120,1/12 (seed 1943460723).

    M's dtype sets the arithmetic.  A numeric M runs in float64: reduced
    costs and pivot column entries within FLOAT_TOL of zero count as zero,
    ratios within FLOAT_TOL (relative above 1) of the least one tie, and the
    run gives up with None after FLOAT_PIVOT_CAP pivots.  An object array of
    Fractions runs exactly, with tolerance 0 and no cap: Bland's rule
    terminates (Bland 1977).  Either run returns None when no row can leave.
    A steepest-edge run also returns None unless its final tableau looks
    nondegenerate (`_nondegenerate`), as a unique optimum needs.  Nothing
    here is trusted: the caller solves the basis exactly and certifies it.
    """
    n = len(M)
    exact = M.dtype == object
    tol = 0 if exact else FLOAT_TOL
    # int 0 and 1 beside M's Fractions: the first pivot divides by a Fraction,
    # after which every exact entry is one, so no int / int makes a float
    T = np.ones((n + 1, n + 1), dtype=object if exact else np.float64)
    T[:n, :n] = M
    T[n, n] = 0  # minus the objective, which no rule reads
    constraints, b, cost = T[:n], T[:n, n], T[n, :n]
    nonbasic = np.arange(n)  # the variable in each column
    basis = np.arange(n, 2 * n)  # the variable in each row
    for _ in itertools.count() if exact else range(FLOAT_PIVOT_CAP):
        if steepest:
            gain = cost * (cost > tol)
            edges = np.einsum("ij,ij->j", constraints, constraints)[:n]  # contiguous, b included
            edges += 1
            enter = (gain * gain / edges).argmax()
            if gain[enter] == 0:
                return basis.tolist() if _nondegenerate(b, cost) else None
        else:
            entering = (cost > tol).nonzero()[0]
            if entering.size == 0:
                return basis.tolist()
            enter = entering[nonbasic[entering].argmin()]
        column = T[:n, enter]
        rows = (column > tol).nonzero()[0]
        if rows.size == 0:
            return None
        ratios = b[rows] / column[rows]
        best = ratios.min()
        tied = rows[ratios <= best + tol * max(1, best)]
        leave = tied[column[tied].argmax()] if steepest else tied[basis[tied].argmin()]
        pivot = T[leave, enter]
        row = T[leave] / pivot
        row[enter] = 1 / pivot  # x_l's unit column, divided by the pivot
        f = T[:, enter].copy()
        f[leave] = 0
        T[:, enter] = 0
        T[leave] = row
        T -= f[:, None] * row
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]
    return None


def _nondegenerate(b: np.ndarray, cost: np.ndarray) -> bool:
    """Float screen of an optimal tableau: basic values b and reduced costs clear of zero."""
    return bool((b > FLOAT_TOL).all() and (cost < -FLOAT_TOL).all())


def _basis_pair(
    M: np.ndarray, basis: list[int]
) -> tuple[tuple[list[int], int], tuple[list[int], int]] | None:
    """Exact primal y and duals pi of a basis of `_simplex_basis`'s tableau.

    They solve B z = 1 and B^T pi = c_B.  A basic slack s has z on its own
    row and pi_s = 0, so both reduce to the square system on the basic y
    columns Y and the rows R without a basic slack: M[R, Y] y_Y = 1 and
    M[R, Y]^T pi_R = 1.  The first is solved exactly (`_certified_solve`),
    and the second by the `transpose` of the system it returns, so one
    elimination serves both.  Returns (y, den), (pi, pi_den): length-n
    Python-int numerators, zero off the basis, each over its denominator;
    or None when the system is singular.
    """
    n = len(M)
    cols = [j for j in basis if j < n]
    slack_rows = {j - n for j in basis if j >= n}
    rows = [i for i in range(n) if i not in slack_rows]
    system = _certified_solve(M[np.ix_(rows, cols)], [1] * len(rows))
    if len(system.cols) < len(rows):
        return None
    pi, pi_den = system.transpose([1] * len(rows))
    y, duals = [0] * n, [0] * n
    for j, zj in zip(cols, system.num):
        y[j] = zj
    for i, pj in zip(rows, pi):
        duals[i] = pj
    return (y, system.den), (duals, pi_den)
