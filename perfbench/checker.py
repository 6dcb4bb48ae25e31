"""Independent checks of graphcurv's outputs.

Nothing here calls graphcurv.  The checker builds each input graph from its
generator spec with its own code, computes the distance matrix with its own
breadth-first search, and checks every claim of an output with exact integer
or rational arithmetic:

* JSON output validates against the package's report schema;
* ``D w = n 1`` holds in integers, ``K ||w||_1 = n``, and the reported norm,
  minimum and sign agree with ``w``;
* no upper-bound failure, and no lower-bound failure when ``w >= 0``; the
  records of delta and uniform measures have the ``A`` and ``B`` that ``D``
  gives; a reported witness has ``A > K``;
* the game certificates ``min(D P) = value = max(D^T Q)`` hold, and
  ``value = K`` when ``w`` is non-negative and unique;
* the float residual recomputed from ``D`` is small and matches the report;
* a ``dist`` CSV equals ``D``.

A non-zero exit code is a failure: every workload input is connected and its
curvature system is consistent.  For exit 4 the checker says why the system
is consistent when the row sums of ``D`` are all equal, since then the
constant vector solves it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np

FLOAT_RESIDUAL_TOL = 1e-6  # times n, the right-hand side's size
FLOAT_K_RTOL = 1e-8
FLOAT_K_MAX_COND = 1e8

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


# ---------------------------------------------------------------------------
# graphs and distances


def _mix64(x: int) -> int:
    x &= _MASK
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK
    return x ^ (x >> 31)


def _coins(seed: int, retry: int, count: int) -> np.ndarray:
    """SplitMix64 values for the counter tuples (seed, retry, c), c < count."""
    x = _mix64(_mix64(seed) + _GOLDEN + retry)
    z = np.arange(count, dtype=np.uint64) + np.uint64((x + _GOLDEN) & _MASK)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _gnp_edges(n: int, p: Fraction, seed: int) -> np.ndarray:
    """The documented gnp draw: pair c of the upper triangle (row-major) is an
    edge iff coin(seed, retry, c) * den < num * 2^64; redraw with the next
    retry until connected."""
    if p == 1:
        return np.argwhere(np.triu(np.ones((n, n), bool), k=1))
    threshold = np.uint64(-(-(p.numerator << 64) // p.denominator))
    iu, ju = np.triu_indices(n, k=1)
    for retry in range(1000):
        mask = _coins(seed, retry, len(iu)) < threshold
        edges = np.stack([iu[mask], ju[mask]], axis=1)
        if _connected(n, edges):
            return edges
    raise ValueError(f"gnp({n}, {p}, {seed}) has no connected draw")


def _connected(n: int, edges: np.ndarray) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parts = n
    for u, v in edges.tolist():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            parts -= 1
    return parts == 1


def graph_edges(spec: str, seed: int) -> tuple[int, np.ndarray]:
    """(n, edge array) for a generator spec such as "grid:5,8" or "gnp:40,1/5"."""
    family, _, rest = spec.partition(":")
    params = [Fraction(t) for t in rest.split(",")]
    a = int(params[0])
    if family == "path":
        return a, np.array([(i, i + 1) for i in range(a - 1)]).reshape(-1, 2)
    if family == "cycle":
        return a, np.array([(i, (i + 1) % a) for i in range(a)])
    if family == "complete":
        return a, np.argwhere(np.triu(np.ones((a, a), bool), k=1))
    if family == "star":
        return a, np.array([(0, i) for i in range(1, a)])
    if family == "hypercube":
        n = 1 << a
        return n, np.array([(x, x | 1 << b) for x in range(n) for b in range(a) if not x >> b & 1])
    if family == "grid":
        rows, cols = a, int(params[1])
        edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
        edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
        return rows * cols, np.array(edges)
    if family == "gnp":
        return a, _gnp_edges(a, params[1], seed)
    raise ValueError(f"unknown family in spec {spec!r}")


def bfs_distances(n: int, edges: np.ndarray) -> np.ndarray:
    """All-pairs BFS distances as an int64 matrix.

    All sources advance together, one level per step: row v of `reached`
    holds, as a bitset, the sources whose search has reached v.
    """
    D = np.zeros((n, n), dtype=np.int64)
    if n == 1:
        return D
    edges = np.asarray(edges, dtype=np.int64)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(dst, kind="stable")
    nbr = src[order]
    degree = np.bincount(dst, minlength=n)
    if not degree.all():
        raise ValueError("graph is disconnected")
    starts = np.concatenate([[0], np.cumsum(degree)[:-1]])
    words = (n + 63) // 64
    ids = np.arange(n)
    reached = np.zeros((n, words), dtype=np.uint64)
    reached[ids, ids // 64] = np.left_shift(np.uint64(1), (ids % 64).astype(np.uint64))
    frontier = reached.copy()
    D.fill(-1)
    D[ids, ids] = 0
    level = 0
    while True:
        level += 1
        new = np.bitwise_or.reduceat(frontier[nbr], starts, axis=0) & ~reached
        rows, cols = np.nonzero(new)
        if rows.size == 0:
            break
        reached |= new
        bits = np.unpackbits(new[rows, cols].astype("<u8").view(np.uint8).reshape(-1, 8),
                             axis=1, bitorder="little")
        k, b = np.nonzero(bits)
        D[rows[k], cols[k] * 64 + b] = level
        frontier = new
    if (D < 0).any():
        raise ValueError("graph is disconnected")
    return D


class Reference:
    """The checker's own view of one input: n, m and the distance matrix."""

    def __init__(self, spec: str, seed: int):
        self.n, edges = graph_edges(spec, seed)
        self.m = len(edges)
        self.D = bfs_distances(self.n, edges)
        self._rows: list[list[int]] | None = None

    @property
    def rows(self) -> list[list[int]]:
        if self._rows is None:
            self._rows = self.D.tolist()
        return self._rows

    def equal_row_sums(self) -> int | None:
        sums = self.D.sum(axis=1)
        return int(sums[0]) if (sums == sums[0]).all() else None


# ---------------------------------------------------------------------------
# exact helpers


def _scaled(vec: list[Fraction]) -> tuple[list[int], int]:
    """Integers q and common denominator L with vec = q / L."""
    L = lcm(*(x.denominator for x in vec))
    return [x.numerator * (L // x.denominator) for x in vec], L


def _transport(rows: list[list[int]], P: list[Fraction]) -> list[Fraction]:
    """D P exactly."""
    q, L = _scaled(P)
    return [Fraction(sum(d * x for d, x in zip(row, q) if x), L) for row in rows]


def _measure_problems(P: list[Fraction], n: int, what: str) -> list[str]:
    if len(P) != n:
        return [f"{what} has {len(P)} entries, expected {n}"]
    if any(x < 0 for x in P) or sum(P) != 1:
        return [f"{what} is not a probability vector"]
    return []


def schema_validator(schema_path: Path):
    """A validator for the package's JSON report schema."""
    import jsonschema

    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema)


# ---------------------------------------------------------------------------
# per-output checks


def check_output(kind: str, spec: str, exit_code, stdout: str, ref: Reference,
                 validator) -> list[str]:
    """Problems found in one invocation's result; empty when it is correct."""
    if exit_code != 0:
        why = f"exit code {exit_code}, expected 0"
        S = ref.equal_row_sums()
        if S:
            why += (f"; the system is consistent: every row of D sums to {S}, "
                    f"so w = ({ref.n}/{S}) 1 solves it")
        return [why]
    if kind == "dist-csv":
        return _check_dist_csv(stdout, ref)
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as e:
        return [f"stdout is not JSON: {e}"]
    problems = [f"schema: {e.message[:200]}" for e in validator.iter_errors(doc)]
    if problems:
        return problems
    if doc["input"] != spec or doc["n"] != ref.n or doc["m"] != ref.m:
        return [f"envelope {doc['input']!r} n={doc['n']} m={doc['m']} does not match "
                f"{spec!r} n={ref.n} m={ref.m}"]
    if kind == "curvature-float":
        return _check_float(doc, ref)
    if kind == "verify":
        return _check_verification(doc, ref, K=None, nonneg=None)
    if kind == "report":
        return _check_report(doc, ref)
    raise ValueError(f"unknown instance kind {kind!r}")


def _check_dist_csv(stdout: str, ref: Reference) -> list[str]:
    lines = stdout.splitlines()
    if len(lines) != ref.n:
        return [f"dist CSV has {len(lines)} rows, expected {ref.n}"]
    try:
        got = np.array(",".join(lines).split(","), dtype=np.int64)
    except ValueError:
        return ["dist CSV has a non-integer entry"]
    if got.size != ref.n * ref.n:
        return [f"dist CSV has {got.size} entries, expected {ref.n * ref.n}"]
    bad = np.argwhere(got.reshape(ref.n, ref.n) != ref.D)
    if bad.size:
        i, j = bad[0]
        return [f"distance ({i}, {j}) is {got[i * ref.n + j]}, BFS gives {ref.D[i, j]}"]
    return []


def _check_float(doc: dict, ref: Reference) -> list[str]:
    w = np.array(doc["w_float"], dtype=np.float64)
    if w.shape != (ref.n,):
        return [f"w_float has {w.size} entries, expected {ref.n}"]
    residual = float(np.abs(ref.D.astype(np.float64) @ w - ref.n).max())
    tol = FLOAT_RESIDUAL_TOL * ref.n
    problems = []
    if not residual <= tol:
        problems.append(f"float residual {residual:.3e} from BFS distances exceeds {tol:.1e}")
    if not abs(residual - doc["residual_inf"]) <= tol:
        problems.append(f"reported residual {doc['residual_inf']:.3e}, recomputed {residual:.3e}")
    return problems


def _float_K(ref: Reference) -> float | None:
    """n / ||w||_1 from a float solve, or None when D is not well conditioned."""
    A = ref.D.astype(np.float64)
    if np.linalg.cond(A) > FLOAT_K_MAX_COND:
        return None
    w = np.linalg.solve(A, np.full(ref.n, float(ref.n)))
    return ref.n / float(np.abs(w).sum())


def _check_report(doc: dict, ref: Reference) -> list[str]:
    c = doc["curvature"]
    problems = _check_curvature(c, ref)
    if problems:
        return problems
    K = Fraction(c["bound_K"])
    problems += _check_verification(doc["verification"], ref, K=K, nonneg=c["nonneg"])
    problems += _check_game(doc["game"], ref, K=K, nonneg=c["nonneg"], unique=c["status"] == "unique")
    dist = doc["distance"]
    sums = ref.D.sum(axis=1)
    ecc = ref.D.max(axis=1)
    if (dist["radius"], dist["diameter"], dist["row_sum_min"], dist["row_sum_max"]) != (
            int(ecc.min()), int(ecc.max()), int(sums.min()), int(sums.max())):
        problems.append(f"distance summary {dist} does not match BFS distances")
    return problems


def _check_curvature(c: dict, ref: Reference) -> list[str]:
    n = ref.n
    if c["status"] not in ("unique", "underdetermined"):
        return [f"curvature status {c['status']!r} for a consistent system"]
    if (c["status"] == "unique") != (c["nullity"] == 0):
        return [f"status {c['status']} with nullity {c['nullity']}"]
    w = [Fraction(s) for s in c["w"]]
    if len(w) != n:
        return [f"w has {len(w)} entries, expected {n}"]
    q, L = _scaled(w)
    for i, row in enumerate(ref.rows):
        if sum(d * x for d, x in zip(row, q)) != n * L:
            return [f"row {i} of D w is not n: D w = n 1 fails"]
    l1 = sum(abs(x) for x in w)
    K = Fraction(c["bound_K"]) if c["bound_K"] is not None else None
    problems = []
    if K is None or K * l1 != n:
        problems.append(f"K * ||w||_1 = {None if K is None else K * l1}, expected {n}")
    if Fraction(c["l1_norm"]) != l1:
        problems.append(f"l1_norm {c['l1_norm']} but ||w||_1 = {l1}")
    if Fraction(c["min_entry"]) != min(w) or c["nonneg"] != (min(w) >= 0):
        problems.append("min_entry or nonneg does not match w")
    return problems


def _check_verification(v: dict, ref: Reference, K: Fraction | None, nonneg: bool | None) -> list[str]:
    n, rows = ref.n, ref.rows
    problems = []
    if v["K"] is None:
        return ["verification has no K"]
    vK = Fraction(v["K"])
    if K is not None and vK != K:
        problems.append(f"verification K {vK} differs from curvature K {K}")
    if nonneg is not None and v["nonneg"] != nonneg:
        problems.append("verification nonneg differs from the curvature block")
    if K is None:
        fK = _float_K(ref)
        if fK is not None and abs(float(vK) - fK) > FLOAT_K_RTOL * fK:
            problems.append(f"K = {float(vK)!r}, a float solve of D w = n 1 gives {fK!r}")
    K, nonneg = vK, v["nonneg"]
    s = v["summary"]
    records = v["records"]
    if s["measures_checked"] != len(records):
        problems.append(f"measures_checked {s['measures_checked']} but {len(records)} records")
    if s["upper_failures"] != 0:
        problems.append(f"{s['upper_failures']} upper-bound failures")
    lower_failures = 0
    sums = ref.D.sum(axis=1)
    for r in records:
        A, B = Fraction(r["A"]), Fraction(r["B"])
        if not (K <= B and r["upper_holds"]):
            problems.append(f"{r['measure']}: upper bound K <= B fails")
        if r["lower_holds"] != (A <= K):
            problems.append(f"{r['measure']}: lower_holds is {r['lower_holds']} but A = {A}, K = {K}")
        lower_failures += not (A <= K)
        label = r["measure"]
        if label.startswith("delta:"):
            col = int(label[6:])
            expect = (Fraction(0), Fraction(int(ref.D[:, col].max())))
        elif label == "uniform":
            expect = (Fraction(int(sums.min()), n), Fraction(int(sums.max()), n))
        else:
            continue
        if (A, B) != expect:
            problems.append(f"{label}: (A, B) = ({A}, {B}), BFS distances give {expect}")
    if s["lower_failures"] != lower_failures:
        problems.append(f"lower_failures {s['lower_failures']} but {lower_failures} records fail")
    if nonneg and lower_failures:
        problems.append(f"{lower_failures} lower-bound failures although w >= 0")
    wit = v["lower_violation_witness"]
    if wit is not None:
        P = [Fraction(x) for x in wit]
        bad = _measure_problems(P, n, "witness")
        if bad:
            problems += bad
        elif not min(_transport(rows, P)) > K:
            problems.append("witness does not satisfy A > K")
        if nonneg:
            problems.append("a lower-bound witness although w >= 0")
    return problems[:20]


def _check_game(g: dict, ref: Reference, K: Fraction, nonneg: bool, unique: bool) -> list[str]:
    n, rows = ref.n, ref.rows
    value = Fraction(g["value"])
    P = [Fraction(x) for x in g["maximin_strategy"]]
    Q = [Fraction(x) for x in g["minimax_strategy"]]
    problems = _measure_problems(P, n, "maximin strategy") + _measure_problems(Q, n, "minimax strategy")
    if problems:
        return problems
    low = min(_transport(rows, P))
    high = max(_transport(rows, Q))  # D is symmetric, so D^T Q = D Q
    if not low == value == high:
        problems.append(f"game certificates fail: min(D P) = {low}, value = {value}, max(D^T Q) = {high}")
    cmp_doc = g["curvature_comparison"]
    if unique:
        if cmp_doc is None:
            problems.append("no curvature comparison for a unique w")
        elif (Fraction(cmp_doc["K"]), Fraction(cmp_doc["value"]), cmp_doc["equal"]) != (K, value, value == K):
            problems.append(f"curvature comparison {cmp_doc} does not match K = {K}, value = {value}")
        if nonneg and value != K:
            problems.append(f"w >= 0 and unique, but game value {value} != K = {K}")
    elif cmp_doc is not None:
        problems.append("curvature comparison present for a non-unique w")
    return problems
