"""Command-line interface.

Subcommands: gen, dist, curvature, verify, game, report.  Graph input is
either a file in the edge-list format or a generator spec like "path:5" or
"gnp:20,1/4".  Exact rationals serialize as "p/q" strings with a sibling
float field.  Output is byte-identical for identical configurations.

`dist` prints the distance matrix as JSON (the default; the layout of
json.dumps with indent=2), as CSV with one matrix row per line, or as a table
of right-aligned columns.  All three go through one kernel, `_write_grid`,
which turns each block of rows into text from a per-value table of
cell-width words plus one constant tail per row, so no format builds the
n^2 Python ints of the matrix.

Every exact vector (w, both strategies, the witness and the verify records)
goes out from its integer numerators and denominator through one writer,
`_ratio_columns`, with no `Fraction` or `MeasureRecord` per entry.

Every JSON document is in the layout of json.dumps with indent=2, byte for
byte, written by `_write_json` with one write (`dist`'s rows go through
`_write_grid` in blocks).  The stdlib uses its C encoder only without
indent, so `_json_text` encodes a list one column at a time with C-level
maps instead: the list itself when it holds scalars.  Records that share
their keys (the verify records) come as one `_Records` table, a column per
key, each encoded at once and joined by one %-template per record.

Exit codes: 0 ok, 2 input error, 3 disconnected graph, 4 inconsistent
curvature system, 5 hard verification failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Sequence

import numpy as np

from . import __version__
from .curvature import (
    CurvatureSolution,
    SolveStatus,
    solve_curvature,
    solve_curvature_float,
    transitive_oracle,
)
from .errors import (
    DisconnectedGraphError,
    GraphInputError,
    HardVerificationError,
    InconsistentSystemError,
    NumericallySingularError,
)
from .game import GameSolution, game_value, game_vs_curvature, search_lower_violation
from .graphs import Graph, parse_edge_list, parse_generator_spec, serialize
from .metric import DistanceMatrix, apsp, eccentricities, row_sums
from .rationals import FLOAT_EXACT_MAX, INT64_MAX, rational_str
from .verifier import measure_battery, verify_minimax

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DISCONNECTED = 3
EXIT_INCONSISTENT = 4
EXIT_VERIFICATION = 5


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "samples", 0) < 0:
        parser.error(f"argument --samples: must be >= 0, got {args.samples}")
    try:
        return args.func(args)
    except GraphInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as e:  # numpy's message names the array it could not allocate
        print(f"error: out of memory: {e}" if str(e) else "error: out of memory", file=sys.stderr)
        return EXIT_INPUT
    except DisconnectedGraphError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except (InconsistentSystemError, NumericallySingularError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except HardVerificationError as e:
        print(f"hard verification failure: {e}", file=sys.stderr)
        return EXIT_VERIFICATION


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcurv",
        description="Curvature vectors of finite graphs via the distance matrix",
    )
    parser.add_argument("--version", action="version", version=f"graphcurv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, fn, formats=("json", "csv", "table")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True,
                       help="graph file path or generator spec like 'path:5' or 'gnp:20,1/4'")
        p.add_argument("--seed", type=int, default=0, help="seed for generators and sampling")
        if formats:
            p.add_argument("--format", choices=formats, default="json")
        p.set_defaults(func=fn)
        return p

    add("gen", "generate a graph and print its edge list", _cmd_gen, formats=None)
    add("dist", "print the all-pairs distance matrix", _cmd_dist)
    pc = add("curvature", "solve D w = n 1 and report the curvature bound", _cmd_curvature)
    mode = pc.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="mode", action="store_const", const="exact")
    mode.add_argument("--float", dest="mode", action="store_const", const="float")
    pc.set_defaults(mode="exact")
    pv = add("verify", "check the minimax sandwich over a measure battery", _cmd_verify,
             formats=("json", "table"))
    pv.add_argument("--samples", type=int, default=100, help="random measures in the battery")
    add("game", "solve the zero-sum game on D and compare with K", _cmd_game,
        formats=("json", "table"))
    pr = add("report", "full pipeline: dist, curvature, verify, game", _cmd_report,
             formats=("json", "table"))
    pr.add_argument("--samples", type=int, default=100, help="random measures in the battery")
    return parser


def _load_graph(args) -> Graph:
    src = args.input
    if ":" in src:
        return parse_generator_spec(src, seed=args.seed)
    if not os.path.exists(src):
        raise GraphInputError(f"no such file: {src}")
    try:
        with open(src, encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    except (OSError, UnicodeDecodeError) as e:  # a directory, no permission, not UTF-8
        raise GraphInputError(f"cannot read {src}: {e}") from None


# ---------------------------------------------------------------------------
# output in the chosen format


def _emit(doc: dict, fmt: str, table_renderer) -> int:
    if fmt == "json":
        _write_json(doc)
    else:
        table_renderer(doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# JSON in the layout of json.dumps(doc, indent=2)


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_LITERALS = {None: "null", True: "true", False: "false"}


@dataclass(frozen=True)
class _Records:
    """Records with the same str keys, one column per key; written as a list of dicts.

    % in a key is escaped as %% in the template that joins each record's fields.
    """

    keys: tuple[str, ...]
    columns: tuple[Sequence, ...]


def _write_json(doc) -> None:
    sys.stdout.write(_json_text(doc) + "\n")


def _json_text(o, ind: str = "\n") -> str:
    """json.dumps(o, indent=2), for o at the indentation ind (a newline, then spaces)."""
    if isinstance(o, str):
        return _quote(o)
    if o is None or o is True or o is False:
        return _LITERALS[o]
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return _NONFINITE.get(text, text)
    inner = ind + "  "
    if isinstance(o, _Records):
        if not o.columns[0]:
            return "[]"
        field = inner + "  "
        template = "{" + field + ("," + field).join(
            _quote(k).replace("%", "%%") + ": %s" for k in o.keys) + inner + "}"
        items = map(template.__mod__, zip(*(_json_column(c, field) for c in o.columns)))
        return "[" + inner + ("," + inner).join(items) + ind + "]"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return "[" + inner + ("," + inner).join(_json_column(o, inner)) + ind + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        return "{" + inner + ("," + inner).join(
            _quote(_key_text(k)) + ": " + _json_text(v, inner) for k, v in o.items()) + ind + "}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key_text(k) -> str:
    """A dict key as the str json writes for it: a scalar key as its JSON text."""
    if isinstance(k, str):
        return k
    if isinstance(k, (int, float)) or k is None:
        return _json_text(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _json_column(values, ind: str) -> list[str]:
    """The text of each value at indentation ind.

    Values that all share one scalar type take one C-level map.
    """
    types = set(map(type, values))
    if types == {str}:
        return list(map(_quote, values))
    if types == {int}:
        return list(map(int.__repr__, values))
    if types == {float}:
        texts = list(map(float.__repr__, values))
        if _NONFINITE.keys().isdisjoint(texts):
            return texts
        return list(map(_NONFINITE.get, texts, texts))
    if types <= {bool, type(None)}:
        return list(map(_LITERALS.__getitem__, values))
    return [_json_text(v, ind) for v in values]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    g = _load_graph(args)
    sys.stdout.write(serialize(g))
    return EXIT_OK


def _cmd_dist(args) -> int:
    g = _load_graph(args)
    E = apsp(g).entries
    values = range(int(E.max()) + 1)
    if args.format == "csv":
        _write_grid(E, [str(v) for v in values], ",", "\n")
    elif args.format == "table":
        _write_grid(E, [str(v).rjust(len(str(values[-1]))) for v in values], " ", "\n")
    else:
        # the indent=2 layout with doc["distances"] last, spliced in row by row
        head = _json_text({"command": "dist", "input": args.input, "n": g.n, "m": g.m})
        sys.stdout.write(head[:-2] + ',\n  "distances": [\n    [\n')
        cells = [f"      {v}" for v in values]
        _write_grid(E[:-1], cells, ",\n", "\n    ],\n    [\n")
        _write_grid(E[-1:], cells, ",\n", "\n    ]\n  ]\n}\n")
    return EXIT_OK


# bytes of fixed-width words gathered per block of rows in _write_grid; on
# gnp:1500,1/150 blocks of 64 KiB to 1 MiB ran as fast as each other and
# 4 MiB ran slower, so a small block costs no time and bounds the temporaries
_BLOCK_BYTES = 1 << 18


def _write_grid(entries: np.ndarray, cells: list[str], sep: str, end: str) -> None:
    """Write each row of a non-negative int matrix as its cells joined by sep, then end.

    cells[v] is the ASCII text of value v.  A block of rows gathers
    cells[v] + sep (the row's last cell without sep) as NUL-padded bytes
    words of one width, each row followed by the constant end; one mask
    drops the padding, and the block goes out as one str.
    """
    width = max(map(len, cells)) + len(sep)
    words = np.array([c + sep for c in cells], dtype=f"S{width}")
    last_words = np.array(cells, dtype=f"S{width}")
    n = entries.shape[1]
    rows = max(1, _BLOCK_BYTES // (n * width))
    buf = np.empty((min(rows, len(entries)), n * width + len(end)), dtype=np.uint8)
    buf[:, n * width:] = np.frombuffer(end.encode("ascii"), dtype=np.uint8)
    for start in range(0, len(entries), rows):
        block = entries[start:start + rows]
        chars = buf[:len(block)]
        grid = chars[:, :n * width].view(f"S{width}")
        grid[:] = words[block]
        grid[:, -1] = last_words[block[:, -1]]
        sys.stdout.write(str(chars[chars != 0].data, "ascii"))


def _curvature_doc(D: DistanceMatrix, sol: CurvatureSolution) -> dict:
    doc = {
        "status": sol.status.value,
        "nullity": sol.nullity,
        "warnings": list(sol.warnings),
    }
    if sol.status is not SolveStatus.INCONSISTENT:
        doc["w"], doc["w_float"] = _ratio_columns(sol.num, sol.den)
        doc.update({
            "l1_norm": rational_str(sol.l1_norm),
            "l1_norm_float": float(sol.l1_norm),
            "bound_K": rational_str(sol.bound_K),
            "bound_K_float": float(sol.bound_K),
            "min_entry": rational_str(sol.min_entry),
            "min_entry_float": float(sol.min_entry),
            "nonneg": sol.nonneg,
        })
    oracle = transitive_oracle(D)
    doc["transitive_oracle_K"] = None if oracle is None else rational_str(oracle)
    return doc


def _cmd_curvature(args) -> int:
    g = _load_graph(args)
    D = apsp(g)
    if args.mode == "float":
        fsol = solve_curvature_float(D)
        if args.format == "csv":
            print("vertex,w_float")
            for i, x in enumerate(fsol.w.tolist()):
                print(f"{i},{x!r}")
            return EXIT_OK
        doc = {
            "command": "curvature", "input": args.input, "n": g.n, "m": g.m, "mode": "float",
            "w_float": fsol.w.tolist(),
            "residual_inf": fsol.residual_inf,
            "condition_hint": fsol.condition_hint,
        }
        return _emit(doc, args.format, _render_curvature_table)
    sol = solve_curvature(D)
    if sol.status is SolveStatus.INCONSISTENT:
        raise InconsistentSystemError(f"D w = n 1 has no solution for this graph (n={g.n})")
    if args.format == "csv":
        print("vertex,w,w_float")
        for i, (s, f) in enumerate(zip(*_ratio_columns(sol.num, sol.den))):
            print(f"{i},{s},{f!r}")
        return EXIT_OK
    doc = {"command": "curvature", "input": args.input, "n": g.n, "m": g.m, "mode": "exact"}
    doc.update(_curvature_doc(D, sol))
    return _emit(doc, args.format, _render_curvature_table)


def _render_curvature_table(doc: dict) -> None:
    print(f"n = {doc['n']}, m = {doc['m']}")
    if doc.get("mode") == "float":
        for i, x in enumerate(doc["w_float"]):
            print(f"  w[{i}] = {x!r}")
        print(f"residual_inf = {doc['residual_inf']!r}")
        return
    print(f"status = {doc['status']}")
    for i, (s, f) in enumerate(zip(doc["w"], doc["w_float"])):
        print(f"  w[{i}] = {s} ({f})")
    print(f"l1_norm = {doc['l1_norm']}, K = {doc['bound_K']}, nonneg = {doc['nonneg']}")
    for warning in doc["warnings"]:
        print(f"warning: {warning}")


def _verification_doc(D: DistanceMatrix, sol: CurvatureSolution, samples: int, seed: int,
                      gsol: GameSolution | None = None) -> dict:
    battery = measure_battery(D.n, samples=samples, seed=seed)
    report = verify_minimax(D, sol, battery)
    witness = None
    if not sol.nonneg:
        found = search_lower_violation(D, sol, gsol)
        if found is not None:
            witness = _ratio_columns(found.q, found.den)[0]
    flags = (report.lower_holds, report.upper_holds, report.lower_tight, report.upper_tight)
    return {
        "seed": seed,
        "samples": samples,
        "K": rational_str(report.K),
        "K_float": float(report.K),
        "nonneg": report.nonneg,
        "summary": {
            "measures_checked": report.measures_checked,
            "lower_failures": report.lower_failures,
            "upper_failures": report.upper_failures,
        },
        "lower_violation_witness": witness,
        "findings": list(report.findings),
        "records": _Records(
            ("measure", "A", "A_float", "B", "B_float",
             "lower_holds", "upper_holds", "lower_tight", "upper_tight"),
            (report.labels, *_ratio_columns(report.A_num, report.A_den),
             *_ratio_columns(report.B_num, report.B_den), *(f.tolist() for f in flags))),
    }


def _ratio_columns(num, den) -> tuple[list[str], list[float]]:
    """The "p/q" text and the float of each num[i] / den (or den[i]), in lowest terms.

    Reduced on int64 (Python ints past INT64_MAX) and divided in float64 when
    every |num|, den <= FLOAT_EXACT_MAX, else as ints: both round correctly.
    """
    num, den = (x if isinstance(x, np.ndarray) else np.array(x, dtype=object) for x in (num, den))
    top = max(-int(num.min(initial=0)), int(num.max(initial=0)), int(den.max()))
    p, q = (x.astype(np.int64 if top <= INT64_MAX else object) for x in (num, den))
    g = np.gcd(p, q)
    p, q = p // g, q // g
    nums, dens = p.tolist(), q.tolist()
    text = [f"{a}/{b}" for a, b in zip(nums, dens)]
    if top <= FLOAT_EXACT_MAX:
        return text, (p.astype(np.float64) / q.astype(np.float64)).tolist()
    return text, [a / b for a, b in zip(nums, dens)]


def _cmd_verify(args) -> int:
    g = _load_graph(args)
    D = apsp(g)
    sol = solve_curvature(D)
    if sol.status is SolveStatus.INCONSISTENT:
        raise InconsistentSystemError(f"D w = n 1 has no solution for this graph (n={g.n})")
    doc = {"command": "verify", "input": args.input, "n": g.n, "m": g.m}
    doc.update(_verification_doc(D, sol, args.samples, args.seed))
    return _emit(doc, args.format, _render_verify_table)


def _render_verify_table(doc: dict) -> None:
    s = doc["summary"]
    print(f"n = {doc['n']}, K = {doc['K']}, nonneg = {doc['nonneg']}")
    print(f"measures checked: {s['measures_checked']}, "
          f"lower failures: {s['lower_failures']}, upper failures: {s['upper_failures']}")
    for finding in doc["findings"]:
        print(f"finding: {finding}")
    if doc["lower_violation_witness"]:
        print(f"lower-bound witness: {doc['lower_violation_witness']}")


def _game_doc(D: DistanceMatrix, sol: CurvatureSolution, gsol: GameSolution) -> dict:
    doc = {
        "value": rational_str(gsol.value),
        "value_float": float(gsol.value),
        "maximin_strategy": _ratio_columns(gsol.maximin_strategy.q, gsol.maximin_strategy.den)[0],
        "minimax_strategy": _ratio_columns(gsol.minimax_strategy.q, gsol.minimax_strategy.den)[0],
        # min(D P) - value and max(D^T Q) - value: game_value returns only
        # after both certificates close exactly, so both residues are zero
        "certificate_residues": {"maximin": "0/1", "minimax": "0/1"},
    }
    comparison = None
    if sol.status is SolveStatus.UNIQUE:
        cmp_rec = game_vs_curvature(D, sol, gsol)
        comparison = {
            "K": rational_str(cmp_rec.K),
            "K_float": float(cmp_rec.K),
            "value": rational_str(cmp_rec.value),
            "equal": cmp_rec.equal,
            "nonneg": cmp_rec.nonneg,
        }
    doc["curvature_comparison"] = comparison
    return doc


def _cmd_game(args) -> int:
    g = _load_graph(args)
    D = apsp(g)
    sol = solve_curvature(D)
    doc = {"command": "game", "input": args.input, "n": g.n, "m": g.m}
    doc.update(_game_doc(D, sol, game_value(D, sol)))
    return _emit(doc, args.format, _render_game_table)


def _render_game_table(doc: dict) -> None:
    print(f"n = {doc['n']}, game value = {doc['value']} ({doc['value_float']})")
    print(f"maximin strategy: {doc['maximin_strategy']}")
    print(f"minimax strategy: {doc['minimax_strategy']}")
    if doc["curvature_comparison"]:
        c = doc["curvature_comparison"]
        print(f"K = {c['K']}, equal to value: {c['equal']}")


def _cmd_report(args) -> int:
    g = _load_graph(args)
    D = apsp(g)
    sol = solve_curvature(D)
    ecc, radius, diameter = eccentricities(D)
    sums = row_sums(D)
    doc = {
        "command": "report",
        "input": args.input,
        "n": g.n,
        "m": g.m,
        "distance": {
            "radius": radius,
            "diameter": diameter,
            "row_sum_min": int(sums.min()),
            "row_sum_max": int(sums.max()),
        },
        "curvature": _curvature_doc(D, sol),
    }
    if sol.status is SolveStatus.INCONSISTENT:
        doc["verification"] = None
        doc["game"] = None
        _emit(doc, args.format, _render_report_table)
        raise InconsistentSystemError(f"D w = n 1 has no solution for this graph (n={g.n})")
    gsol = game_value(D, sol)
    doc["verification"] = _verification_doc(D, sol, args.samples, args.seed, gsol)
    doc["game"] = _game_doc(D, sol, gsol)
    return _emit(doc, args.format, _render_report_table)


def _render_report_table(doc: dict) -> None:
    print(f"graph: {doc['input']} (n = {doc['n']}, m = {doc['m']})")
    print(f"radius = {doc['distance']['radius']}, diameter = {doc['distance']['diameter']}")
    c = doc["curvature"]
    print(f"curvature status = {c['status']}, K = {c.get('bound_K')}, nonneg = {c.get('nonneg')}")
    if doc["verification"] is not None:
        _render_verify_table(doc["verification"] | {"n": doc["n"]})
    if doc["game"] is not None:
        _render_game_table(doc["game"] | {"n": doc["n"]})


if __name__ == "__main__":
    sys.exit(main())
