"""Self-tests of the benchmark: the checker rejects wrong outputs, the
tracer accounts for its spans, and workload inputs are a pure function of
the seed.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import graphcurv.cli as cli  # noqa: E402
from graphcurv.graphs import parse_generator_spec  # noqa: E402

from checker import Reference, bfs_distances, check_output, graph_edges, schema_validator  # noqa: E402
from tracing import SELF_TIME_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, command_line, instances  # noqa: E402

SCHEMA = HERE.parent / "src" / "graphcurv" / "schemas" / "report.schema.json"


@pytest.fixture(scope="module")
def validator():
    return schema_validator(SCHEMA)


def run_cli(kind: str, spec: str, seed: int = 3) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(command_line(kind, spec, seed)))
    return code, out.getvalue()


def problems_of(kind: str, spec: str, code: int, stdout: str, validator, seed: int = 3) -> list[str]:
    return check_output(kind, spec, code, stdout, Reference(spec, seed), validator)


def rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@pytest.mark.parametrize("kind, spec", [
    ("report", "cycle:5"),        # unique, non-negative w
    ("report", "star:6"),         # signed w with a witness
    ("report", "cycle:6"),        # underdetermined
    ("report", "gnp:12,1/3"),
    ("verify", "path:8"),
    ("verify", "gnp:14,1/3"),
    ("curvature-float", "path:10"),
    ("dist-csv", "grid:3,4"),
])
def test_checker_accepts_program_outputs(kind, spec, validator):
    code, stdout = run_cli(kind, spec)
    assert problems_of(kind, spec, code, stdout, validator) == []


def test_checker_rejects_corrupted_w_entry(validator):
    code, stdout = run_cli("report", "cycle:5")
    doc = json.loads(stdout)
    doc["curvature"]["w"][2] = rat(Fraction(doc["curvature"]["w"][2]) + Fraction(1, 3))
    problems = problems_of("report", "cycle:5", code, json.dumps(doc), validator)
    assert any("D w = n 1 fails" in p for p in problems)


def test_checker_rejects_wrong_game_value(validator):
    code, stdout = run_cli("report", "star:6")
    doc = json.loads(stdout)
    doc["game"]["value"] = rat(Fraction(doc["game"]["value"]) + Fraction(1, 7))
    problems = problems_of("report", "star:6", code, json.dumps(doc), validator)
    assert any("game certificates fail" in p for p in problems)


def test_checker_rejects_wrong_distance(validator):
    code, stdout = run_cli("dist-csv", "grid:3,4")
    rows = [line.split(",") for line in stdout.splitlines()]
    rows[1][7] = str(int(rows[1][7]) + 1)
    corrupted = "".join(",".join(r) + "\n" for r in rows)
    problems = problems_of("dist-csv", "grid:3,4", code, corrupted, validator)
    assert problems == ["distance (1, 7) is 4, BFS gives 3"]


def test_checker_rejects_float_exit_4_on_consistent_system(validator):
    # what `curvature --float` prints for cycle:6: nothing on stdout, exit 4
    problems = problems_of("curvature-float", "cycle:6", 4, "", validator)
    assert len(problems) == 1 and "the system is consistent" in problems[0]


def test_checker_rejects_wrong_float_residual(validator):
    code, stdout = run_cli("curvature-float", "path:10")
    doc = json.loads(stdout)
    doc["w_float"][0] += 1e-3
    problems = problems_of("curvature-float", "path:10", code, json.dumps(doc), validator)
    assert any("float residual" in p for p in problems)


@pytest.mark.parametrize("spec", ["path:7", "cycle:9", "cycle:10", "hypercube:4", "grid:3,5", "star:5",
                                  "complete:6", "gnp:30,1/6", "gnp:150,1/40"])
def test_own_graphs_and_bfs_match_the_program(spec):
    n, edges = graph_edges(spec, 11)
    g = parse_generator_spec(spec, seed=11)
    assert n == g.n and sorted(map(tuple, np.sort(edges, axis=1).tolist())) == list(g.edges())
    D = bfs_distances(n, edges)
    i, j = np.indices((n, n))
    if spec.startswith("path"):
        assert (D == abs(i - j)).all()
    if spec.startswith("cycle"):
        assert (D == np.minimum(abs(i - j), n - abs(i - j))).all()
    if spec.startswith("hypercube"):
        assert (D == np.vectorize(lambda x: bin(x).count("1"))(i ^ j)).all()
    assert (D == D.T).all() and (np.diagonal(D) == 0).all()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(workload):
    assert instances(workload, 7) == instances(workload, 7)
    a, b = instances(workload, 7), instances(workload, 8)
    assert [x.spec for x in a] == [x.spec for x in b]
    assert all(x.seed != y.seed for x, y in zip(a, b))
    gnp = [(x, y) for x, y in zip(a, b) if x.spec.startswith("gnp")]
    assert gnp
    for x, y in gnp:
        assert not np.array_equal(graph_edges(x.spec, x.seed)[1], graph_edges(y.spec, y.seed)[1])


def test_tracer_self_times_add_up_and_patches_are_undone():
    import graphcurv.game
    import graphcurv.verifier

    originals = (cli.apsp, graphcurv.verifier.transport_vector, graphcurv.game.game_value)
    tracer = Tracer()
    root = tracer.wrap("cli.main", cli.main)
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert root(list(command_line("report", "cycle:5", 1))) == 0
    assert (cli.apsp, graphcurv.verifier.transport_vector, graphcurv.game.game_value) == originals
    m = tracer.layer_metrics()
    root_span = tracer.spans[0]
    assert root_span[0] == "cli.main" and root_span[3] == -1
    total = sum(m[name] for name in SELF_TIME_METRICS)
    assert total == pytest.approx(root_span[2] - root_span[1], rel=1e-9, abs=1e-9)
    assert m["curvature.exact_calls"] == 1 and m["metric.apsp_calls"] == 1
    assert m["game.solve_calls"] >= 1 and m["verifier.transport_calls"] >= 116
    assert tracer.counts["metric.dense_bytes"] == 16 * 25


def test_tracer_counts_calls_made_inside_the_package():
    import graphcurv.game
    from graphcurv.metric import apsp

    D = apsp(parse_generator_spec("cycle:7"))
    tracer = Tracer()
    with tracer.installed():
        graphcurv.game.game_vs_curvature(D)
    assert [span[0] for span in tracer.spans] == ["game.solve"]


def test_benchmark_json_matches_the_metrics_run_prints():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
