import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphcurv
from graphcurv import (HardVerificationError, apsp, cli, game, parse_edge_list, parse_generator_spec,
                       path, serialize, solve_curvature_float, star)
from oracles import dist_text_per_int, json_indent2
from test_metric import family_graphs_up_to


@pytest.fixture(scope="module")
def schema():
    text = resources.files("graphcurv").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, schema, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    return doc


def src_env() -> dict:
    """The environment with the imported graphcurv's source tree first on PYTHONPATH."""
    src = Path(graphcurv.__file__).resolve().parent.parent
    path_entries = filter(None, [str(src), os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path_entries))


class TestGen:
    def test_gen_path(self, capsys):
        code, out, _ = run(capsys, "gen", "--input", "path:3")
        assert code == 0
        assert out == "3 2\n0 1\n1 2\n"

    def test_gen_roundtrips(self, capsys):
        code, out, _ = run(capsys, "gen", "--input", "gnp:10,1/3", "--seed", "5")
        assert code == 0
        assert parse_edge_list(out).n == 10


class TestDist:
    def test_json(self, capsys, schema):
        doc = run_json(capsys, schema, "dist", "--input", "path:3", "--format", "json")
        assert doc["distances"] == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "dist", "--input", "path:3", "--format", "csv")
        assert code == 0
        assert out == "0,1,2\n1,0,1\n2,1,0\n"

    def test_file_input(self, capsys, tmp_path, schema):
        f = tmp_path / "g.edges"
        f.write_text(serialize(star(4)))
        doc = run_json(capsys, schema, "dist", "--input", str(f))
        assert doc["n"] == 4


DIST_FORMATS = ("csv", "table", "json")


def assert_dist_matches_oracle(capsys, source, g, seed=0):
    """`dist` in every format against the per-int formatter, byte for byte."""
    D = apsp(g)
    head = {"command": "dist", "input": source, "n": g.n, "m": g.m}
    for fmt in DIST_FORMATS:
        code, out, err = run(capsys, "dist", "--input", source, "--seed", str(seed), "--format", fmt)
        assert (code, err) == (0, "")
        assert out == dist_text_per_int(D, fmt, head), (source, seed, fmt)


class RecordingStream:
    """A stdout that keeps only the length of each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return len(text)


class TestDistKernel:
    """`_write_grid` against the per-int formatter it replaced."""

    def test_families(self, capsys, tmp_path):
        for i, g in enumerate(family_graphs_up_to(32)):
            f = tmp_path / f"g{i}.edges"
            f.write_text(serialize(g))
            assert_dist_matches_oracle(capsys, str(f), g)

    # the largest distance just below and at 10, 100 and 1000
    @pytest.mark.parametrize("spec", ["path:1", "path:10", "path:11", "path:101", "path:102",
                                      "path:1002"])
    def test_digit_widths(self, capsys, spec):
        assert_dist_matches_oracle(capsys, spec, parse_generator_spec(spec))

    def test_gnp_draws(self, capsys):
        for seed in range(30):
            spec = f"gnp:{2 + seed % 37},1/{2 + seed % 4}"
            assert_dist_matches_oracle(capsys, spec, parse_generator_spec(spec, seed=seed), seed)

    @pytest.mark.parametrize("rows", [1, 5])
    def test_blocks(self, capsys, monkeypatch, rows):
        # path:12's csv words are 3 bytes ("11,"), so a block of 36·rows bytes
        # holds that many rows: one per block, or 5 + 5 + 2
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 36 * rows)
        stream = RecordingStream()
        with contextlib.redirect_stdout(stream):
            assert cli.main(["dist", "--input", "path:12", "--format", "csv"]) == 0
        assert len(stream.writes) == -(-12 // rows)
        assert sum(stream.writes) == len(dist_text_per_int(apsp(path(12)), "csv"))
        assert_dist_matches_oracle(capsys, "path:12", path(12))

    @pytest.mark.parametrize("rows", [1, 4])
    def test_json_blocks_hold_cell_width_words(self, capsys, monkeypatch, rows):
        # path:12's inner json words are 10 bytes ("      11,\n"); the row's
        # closing text is written once per row, not padded into every word
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 120 * rows)
        stream = RecordingStream()
        with contextlib.redirect_stdout(stream):
            assert cli.main(["dist", "--input", "path:12", "--format", "json"]) == 0
        assert len(stream.writes) == 1 + -(-11 // rows) + 1  # head, 11 rows, the last row
        assert_dist_matches_oracle(capsys, "path:12", path(12))

    def test_csv_memory(self, monkeypatch):
        g = parse_generator_spec("gnp:1500,1/150")
        D = apsp(g)
        monkeypatch.setattr(cli, "_load_graph", lambda args: g)
        monkeypatch.setattr(cli, "apsp", lambda graph: D)
        stream = RecordingStream()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(stream):
                assert cli.main(["dist", "--input", "gnp:1500,1/150", "--format", "csv"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(stream.writes) == len(dist_text_per_int(D, "csv"))
        # D.entries.tolist() alone took 8·n² bytes
        assert peak < 2 * g.n ** 2


# spec -> tests/data/dist_<spec>.{csv,txt,json}, written by the per-int formatter
DIST_GOLDEN_SPECS = ["path:12", "grid:3,4", "star:6"]


@pytest.mark.parametrize("spec", DIST_GOLDEN_SPECS)
@pytest.mark.parametrize("fmt,ext", [("csv", "csv"), ("table", "txt"), ("json", "json")])
def test_dist_matches_golden(spec, fmt, ext):
    name = f"dist_{spec.replace(':', '_').replace(',', '_')}.{ext}"
    expected = (Path(__file__).parent / "data" / name).read_bytes()
    result = subprocess.run([sys.executable, "-m", "graphcurv.cli", "dist", "--input", spec,
                             "--format", fmt], env=src_env(), capture_output=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == expected


def test_dist_of_shuffled_lollipop_matches_golden(capsys):
    # a stick of 150 edges and a cycle of 150 vertices on it, labels permuted by
    # numpy's default_rng(300): deep, so its chains of degree-2 vertices run through
    # labels in no order; the CSV was written while scipy searched from every vertex
    data = Path(__file__).parent / "data"
    expected = (data / "dist_lollipop_300_shuffled.csv").read_text(encoding="utf-8")
    assert run(capsys, "dist", "--input", str(data / "lollipop_300_shuffled.edges"),
               "--format", "csv") == (0, expected, "")


# spec -> tests/data/gen_<spec>.txt, written by the set-based Graph constructor
GEN_GOLDEN_SPECS = ["grid:3,4", "hypercube:3"]


@pytest.mark.parametrize("spec", GEN_GOLDEN_SPECS)
def test_gen_matches_golden(spec):
    name = f"gen_{spec.replace(':', '_').replace(',', '_')}.txt"
    expected = (Path(__file__).parent / "data" / name).read_bytes()
    result = subprocess.run([sys.executable, "-m", "graphcurv.cli", "gen", "--input", spec],
                            env=src_env(), capture_output=True, timeout=120)
    assert (result.returncode, result.stderr, result.stdout) == (0, b"", expected)


class TestCurvature:
    def test_exact_star4(self, capsys, schema):
        doc = run_json(capsys, schema, "curvature", "--input", "star:4")
        assert doc["status"] == "unique"
        assert doc["bound_K"] == "3/4"
        assert doc["nonneg"] is False
        assert doc["w"] == ["-4/3", "4/3", "4/3", "4/3"]

    def test_float_mode(self, capsys, schema):
        doc = run_json(capsys, schema, "curvature", "--input", "path:3", "--float")
        assert doc["mode"] == "float"
        assert abs(doc["w_float"][0] - 1.5) < 1e-12
        assert doc["residual_inf"] < 1e-10

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "curvature", "--input", "path:3", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "vertex,w,w_float"
        assert lines[1] == "0,3/2,1.5"

    def test_underdetermined_warning_surfaces(self, capsys, schema):
        doc = run_json(capsys, schema, "curvature", "--input", "cycle:4")
        assert doc["status"] == "underdetermined"
        assert any("not canonical" in w for w in doc["warnings"])
        assert doc["transitive_oracle_K"] == "1/1"


class TestVerify:
    def test_path3(self, capsys, schema):
        doc = run_json(capsys, schema, "verify", "--input", "path:3", "--samples", "20")
        assert doc["K"] == "1/1"
        assert doc["summary"]["lower_failures"] == 0
        assert doc["summary"]["upper_failures"] == 0

    def test_star4_witness(self, capsys, schema):
        doc = run_json(capsys, schema, "verify", "--input", "star:4", "--samples", "20")
        assert doc["nonneg"] is False
        assert doc["summary"]["lower_failures"] > 0
        assert doc["lower_violation_witness"] is not None

    def test_byte_identical_reruns(self, capsys):
        args = ("verify", "--input", "gnp:8,1/2", "--seed", "7", "--samples", "50")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_zero_samples(self, capsys, schema):
        doc = run_json(capsys, schema, "verify", "--input", "path:4", "--samples", "0")
        assert doc["samples"] == 0
        assert doc["summary"]["measures_checked"] == 4 + 1 + 6

    def test_records_from_ratios_beyond_float(self, monkeypatch):
        # a numerator and denominator above 2^53 take the exact fallback per record
        D = apsp(path(6))
        sol = graphcurv.solve_curvature(D)
        tiny = Fraction(1, 2 ** 70 + 1)
        wide = graphcurv.Measure([tiny, Fraction(1, 3), 0, 1 - tiny - Fraction(1, 3) - Fraction(1, 7),
                                  Fraction(1, 7), 0])
        battery = list(graphcurv.measure_battery(6, samples=3, seed=1)) + [("wide", wide)]
        monkeypatch.setattr(cli, "measure_battery", lambda n, samples, seed: battery)
        doc = cli._verification_doc(D, sol, 3, 1)
        report = graphcurv.verify_minimax(D, sol, battery)
        assert max(report.records[-1].A.denominator, report.records[-1].B.numerator) > 2 ** 53
        records = dict(zip(doc["records"].keys, doc["records"].columns))
        assert list(zip(*(records[k] for k in ("measure", "A", "A_float", "B", "B_float")))) == [
            (r.descriptor, f"{r.A.numerator}/{r.A.denominator}", float(r.A),
             f"{r.B.numerator}/{r.B.denominator}", float(r.B)) for r in report.records]

    @pytest.mark.parametrize("num,den", [(1, 3), (2 ** 53, 2 ** 53 - 1), (2 ** 53 - 1, 3),
                                         (2 ** 53 + 1, 2 ** 53 + 2), (3, 2 ** 60 + 7),
                                         (2 ** 80 + 1, 3 ** 40)])
    def test_ratio_floats_equal_fraction_floats(self, num, den):
        columns = cli._ratio_columns(np.array([num, 0], dtype=object), np.array([den, 1], dtype=object))
        assert columns == ([f"{num}/{den}", "0/1"], [float(Fraction(num, den)), 0.0])


# numerators and denominators at the edges of _ratio_columns' tiers: float64
# up to 2^53, int64 up to 2^63 - 1, Python ints beyond
EDGE_NUMS = [0, 1, -1, 6, -6, *(s * x for x in (2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 63,
                                                2 ** 64 + 3, 3 ** 50) for s in (1, -1))]
EDGE_DENS = [1, 3, 4, 2 ** 53 + 1, 2 ** 70]


def fraction_columns(nums, dens) -> tuple[list[str], list[float]]:
    ratios = [Fraction(p, q) for p, q in zip(nums, dens)]
    return [graphcurv.rational_str(x) for x in ratios], [float(x) for x in ratios]


class TestRatioColumns:
    @pytest.mark.parametrize("den", EDGE_DENS)
    def test_edges_over_one_den(self, den):
        expected = fraction_columns(EDGE_NUMS, [den] * len(EDGE_NUMS))
        assert cli._ratio_columns(EDGE_NUMS, den) == expected
        assert cli._ratio_columns(tuple(EDGE_NUMS), den) == expected

    def test_edges_over_a_den_per_entry(self):
        nums, dens = zip(*itertools.product(EDGE_NUMS, EDGE_DENS))
        expected = fraction_columns(nums, dens)
        assert cli._ratio_columns(np.array(nums, dtype=object), np.array(dens, dtype=object)) == expected
        small = [(p, q) for p, q in zip(nums, dens) if max(abs(p), q) < 2 ** 63]
        nums, dens = (np.array(c, dtype=np.int64) for c in zip(*small))
        assert cli._ratio_columns(nums, dens) == fraction_columns(nums.tolist(), dens.tolist())

    def test_unreduced_pairs_print_in_lowest_terms(self):
        assert cli._ratio_columns([6, -6, 0, 4], 4) == (["3/2", "-3/2", "0/1", "1/1"],
                                                         [1.5, -1.5, 0.0, 1.0])
        assert cli._ratio_columns(np.array([6, 10]), np.array([4, 15])) == (["3/2", "2/3"], [1.5, 2 / 3])

    def test_negative_numerator_beyond_float_is_exact(self):
        # float64 rounds -(2^53 + 1) to -2^53, and a float64 division by 7 then
        # misses the correctly rounded quotient by 1/4
        num = -(2 ** 53 + 1)
        assert float(num) / 7 != float(Fraction(num, 7))
        assert cli._ratio_columns([num], 7) == ([f"{num}/7"], [float(Fraction(num, 7))])

    @given(st.lists(st.integers(-2 ** 54, 2 ** 54) | st.integers(-2 ** 80, 2 ** 80), min_size=1,
                    max_size=6),
           st.integers(1, 2 ** 54) | st.integers(1, 2 ** 80))
    def test_one_den_matches_fractions(self, nums, den):
        assert cli._ratio_columns(nums, den) == fraction_columns(nums, [den] * len(nums))

    @given(st.lists(st.tuples(st.integers(-2 ** 54, 2 ** 54) | st.integers(-2 ** 80, 2 ** 80),
                              st.integers(1, 2 ** 54) | st.integers(1, 2 ** 80)),
                    min_size=1, max_size=6))
    def test_den_per_entry_matches_fractions(self, pairs):
        nums, dens = zip(*pairs)
        columns = cli._ratio_columns(np.array(nums, dtype=object), np.array(dens, dtype=object))
        assert columns == fraction_columns(nums, dens)


# spec -> tests/data/verify_<spec>_seed1.json with --samples 300, the output of
# the implementation that verified one Measure object and record at a time
VERIFY_GOLDEN_SPECS = ["star:60", "gnp:60,1/6"]


@pytest.mark.parametrize("spec", VERIFY_GOLDEN_SPECS)
def test_verify_matches_golden(spec):
    name = f"verify_{spec.replace(':', '_').replace(',', '_').replace('/', '-')}_seed1.json"
    expected = (Path(__file__).parent / "data" / name).read_bytes()
    result = subprocess.run([sys.executable, "-m", "graphcurv.cli", "verify", "--input", spec,
                             "--samples", "300", "--seed", "1"],
                            env=src_env(), capture_output=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == expected


class TestGame:
    def test_star4(self, capsys, schema):
        doc = run_json(capsys, schema, "game", "--input", "star:4")
        assert doc["value"] == "1/1"
        assert doc["certificate_residues"] == {"maximin": "0/1", "minimax": "0/1"}
        assert doc["curvature_comparison"]["K"] == "3/4"
        assert doc["curvature_comparison"]["equal"] is False

    def test_underdetermined_has_no_comparison(self, capsys, schema):
        doc = run_json(capsys, schema, "game", "--input", "cycle:4")
        assert doc["value"] == "1/1"
        assert doc["curvature_comparison"] is None


class TestReport:
    def test_path3(self, capsys, schema):
        doc = run_json(capsys, schema, "report", "--input", "path:3")
        assert doc["curvature"]["bound_K"] == "1/1"
        assert doc["curvature"]["nonneg"] is True
        assert doc["verification"]["summary"]["lower_failures"] == 0
        assert doc["game"]["curvature_comparison"]["equal"] is True

    def test_star4(self, capsys, schema):
        doc = run_json(capsys, schema, "report", "--input", "star:4")
        assert doc["curvature"]["nonneg"] is False
        assert doc["verification"]["lower_violation_witness"] is not None
        assert doc["game"]["value"] == "1/1"
        assert doc["game"]["curvature_comparison"]["K"] == "3/4"

    def test_byte_identical_reruns(self, capsys):
        args = ("report", "--input", "gnp:7,2/3", "--seed", "3", "--samples", "25")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_table_format_renders(self, capsys):
        code, out, _ = run(capsys, "report", "--input", "star:4", "--format", "table")
        assert code == 0
        assert "K = 3/4" in out

    @pytest.mark.parametrize("spec,seed", [
        ("star:6", 0), ("hypercube:3", 0), ("grid:3,4", 0), ("cycle:8", 0), ("path:7", 0),
        ("gnp:12,1/3", 5), ("gnp:10,1/2", 1), ("gnp:14,1/4", 2),
    ])
    def test_witness_is_maximin_strategy(self, capsys, schema, spec, seed):
        doc = run_json(capsys, schema, "report", "--input", spec, "--seed", str(seed),
                       "--samples", "5")
        witness = doc["verification"]["lower_violation_witness"]
        if doc["curvature"]["nonneg"]:
            assert witness is None
            return
        value, K = Fraction(doc["game"]["value"]), Fraction(doc["curvature"]["bound_K"])
        assert (witness is not None) == (value > K)
        if witness is not None:
            assert witness == doc["game"]["maximin_strategy"]


def run_in_2_gib(argv) -> tuple[int, str, str]:
    """The CLI's exit code, stdout and stderr in a child with 2 GiB of address space."""
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    result = subprocess.run([sys.executable, "-m", "graphcurv.cli", *argv],
                            env=dict(src_env(), OPENBLAS_NUM_THREADS="1"),
                            preexec_fn=limit_address_space, capture_output=True, text=True,
                            timeout=120)
    return result.returncode, result.stdout, result.stderr


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "dist", "--input", "/nonexistent/g.edges")
        assert code == 2 and "no such file" in err

    def test_bad_spec(self, capsys):
        code, _, _ = run(capsys, "dist", "--input", "blah:3")
        assert code == 2

    @pytest.mark.parametrize("spec,message", [
        ("path:5/2", "path sizes must be integers, got 5/2"),
        ("hypercube:3/2", "hypercube sizes must be integers, got 3/2"),
        ("gnp:10/3,1/2", "gnp sizes must be integers, got 10/3"),
        ("grid:3,7/2", "grid sizes must be integers, got 7/2"),
        ("gnp:3,1/2,7", "wrong parameter count for gnp"),
        ("gnp:3", "wrong parameter count for gnp"),
        ("grid:3", "wrong parameter count for grid"),
        ("path:3,4", "wrong parameter count for path"),
        ("gnp:5,1/0", "bad parameter '1/0' in generator spec 'gnp:5,1/0'"),
        ("path:1/0", "bad parameter '1/0' in generator spec 'path:1/0'"),
    ])
    def test_bad_generator_parameters(self, capsys, spec, message):
        code, out, err = run(capsys, "gen", "--input", spec)
        assert (code, out) == (2, "") and err.startswith(f"error: {message}")

    def test_directory_input(self, capsys, tmp_path):
        code, out, err = run(capsys, "gen", "--input", str(tmp_path))
        assert (code, out) == (2, "") and err.startswith(f"error: cannot read {tmp_path}: ")

    def test_input_not_utf8(self, capsys, tmp_path):
        f = tmp_path / "g.edges"
        f.write_bytes(b"\xff3 2\n0 1\n1 2\n")
        code, out, err = run(capsys, "dist", "--input", str(f))
        assert (code, out) == (2, "") and err.startswith(f"error: cannot read {f}: ")

    @pytest.mark.parametrize("n", [2 ** 32, 10 ** 21])
    def test_vertex_count_past_int64_keys(self, capsys, tmp_path, n):
        f = tmp_path / "g.edges"
        f.write_text(f"{n} 1\n0 1\n")
        code, out, err = run(capsys, "gen", "--input", str(f))
        assert (code, out, err) == (2, "", f"error: vertex count {n} is too large: n * n must fit int64\n")

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
    def test_vertex_count_past_memory(self, tmp_path):
        # 3 10^9 vertices pass the int64 test, but indptr alone takes 24 GB, so
        # that allocation must fail in a child with 2 GiB of address space
        f = tmp_path / "g.edges"
        f.write_text("3000000000 1\n0 1\n")
        assert run_in_2_gib(["gen", "--input", str(f)]) == (
            2, "", "error: vertex count 3000000000 is too large to hold in memory\n")

    @pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
    @pytest.mark.parametrize("command", [
        "gen path:1000000000",  # the generators' edge arrays
        "gen star:3000000000",
        "report complete:200000",
        "dist grid:100000,100000",
        "dist path:200000 --format csv",  # Dijkstra's n x n distances
    ])
    def test_allocation_past_memory(self, command):
        name, spec, *rest = command.split()
        code, out, err = run_in_2_gib([name, "--input", spec, *rest])
        assert (code, out) == (2, "") and err.startswith("error: out of memory")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_disconnected(self, capsys, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("4 2\n0 1\n2 3\n")
        code, _, err = run(capsys, "dist", "--input", str(f))
        assert code == 3 and "disconnected" in err

    def test_inconsistent_system(self, capsys):
        code, _, err = run(capsys, "curvature", "--input", "complete:1")
        assert code == 4 and "no solution" in err

    def test_inconsistent_verify(self, capsys):
        code, _, _ = run(capsys, "verify", "--input", "complete:1")
        assert code == 4

    def test_zero_vertices(self, capsys, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("0 0\n")
        code, out, err = run(capsys, "gen", "--input", str(f))
        assert (code, out, err) == (2, "", "error: vertex count must be positive, got 0\n")

    @pytest.mark.parametrize("command", ["curvature", "verify", "game", "report"])
    def test_hard_verification_failure(self, capsys, monkeypatch, command):
        def forged(D):
            raise HardVerificationError("forged")

        monkeypatch.setattr(cli, "solve_curvature", forged)
        code, out, err = run(capsys, command, "--input", "path:3")
        assert (code, out, err) == (5, "", "hard verification failure: forged\n")

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_negative_samples(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--input", "path:4", "--samples", "-3"])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "game", "report"])
    def test_csv_format_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--input", "path:4", "--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err


# one process runs these through main() on its one parser, twice over; among
# them an exit through parser.error and one through argparse's own choices
PARSER_REUSE_COMMANDS = [
    ["report", "--input", "cycle:8", "--format", "table"],
    ["verify", "--input", "path:4", "--samples", "-3"],
    ["curvature", "--input", "star:5", "--format", "csv"],
    ["verify", "--input", "gnp:12,1/3", "--seed", "5", "--samples", "7", "--format", "table"],
    ["game", "--input", "path:4", "--format", "csv"],
    ["dist", "--input", "grid:3,4"],
    ["report", "--input", "complete:1"],
    ["curvature", "--input", "star:5", "--float"],
]


def run_in_process(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def run_fresh(argv):
    result = subprocess.run([sys.executable, "-m", "graphcurv.cli", *argv], env=src_env(),
                            capture_output=True, text=True, timeout=120)
    return result.returncode, result.stdout, result.stderr


def test_one_parser_per_process_matches_fresh_runs(capsys):
    assert cli._build_parser() is cli._build_parser()
    seen = [run_in_process(capsys, argv) for argv in PARSER_REUSE_COMMANDS * 2]
    assert seen == [run_fresh(argv) for argv in PARSER_REUSE_COMMANDS] * 2


# (command, spec, seed) -> tests/data/<command>_<spec>_seed<seed>.json, the
# JSON output of the Fraction-elimination and Bland-simplex implementation,
# except lower_violation_witness in the hypercube:3 and gnp:12,1/3 reports,
# which is the game's maximin strategy
GOLDEN_CASES = [
    (command, spec, seed)
    for spec, seed in [("star:6", 0), ("path:7", 0), ("cycle:8", 0), ("hypercube:3", 0),
                       ("grid:3,4", 0), ("gnp:12,1/3", 5)]
    for command in ("report", "game")
] + [
    # exact curvature, written by json.dumps(doc, indent=2): signed, underdetermined, gnp
    ("curvature", spec, seed) for spec, seed in [("star:5", 0), ("cycle:6", 0), ("gnp:12,1/3", 5)]
] + [
    # the benchmark's underdetermined instances, written before the modular
    # rank-profile solve replaced fraction-free elimination
    ("curvature", spec, 0) for spec in ("hypercube:5", "grid:5,8", "cycle:40", "grid:8,10")
] + [
    # games written before the candidate run priced by steepest edge: full support
    # (cycle:39, complete:40), degenerate and answered by Bland's run (path:40), and
    # the benchmark's verify-mid draws
    ("game", spec, seed) for spec, seed in [("cycle:39", 0), ("complete:40", 0), ("path:40", 0),
                                            ("gnp:60,1/6", 1669037940),
                                            ("gnp:120,1/12", 1943460723)]
] + [
    # reports with a unique w > 0, written before its game was certified from w
    ("report", spec, 0) for spec in ("cycle:39", "complete:40")
] + [
    # exact solves over several column panels, written before the elimination
    # mod p ran in panels: unique and signed (verify-mid's largest draw), and
    # nullity 99 twice
    ("curvature", spec, seed) for spec, seed in [("gnp:120,1/12", 1943460723), ("cycle:200", 0),
                                                 ("grid:10,12", 0)]
] + [
    # written while distances were int64: at the uint8/uint16 switch of apsp's
    # dtype, a game whose payoffs D + 1 reach 256 and a solve on uint16 distances
    ("game", "path:256", 0), ("curvature", "path:257", 0),
]


@pytest.mark.parametrize("command,spec,seed", GOLDEN_CASES)
def test_output_matches_golden(capsys, command, spec, seed):
    name = f"{command}_{spec.replace(':', '_').replace(',', '_').replace('/', '-')}_seed{seed}.json"
    expected = (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")
    code, out, err = run(capsys, command, "--input", spec, "--seed", str(seed), "--format", "json")
    assert code == 0, err
    assert out == expected


# spec, seed -> tests/data/curvature_<spec>_seed<seed>.{csv,txt}, written before w
# was carried as integer numerators: signed and small, and past 2^53
CURVATURE_TEXT_GOLDENS = [("star:5", 0), ("gnp:120,1/12", 1943460723)]


@pytest.mark.parametrize("spec,seed", CURVATURE_TEXT_GOLDENS)
@pytest.mark.parametrize("fmt,ext", [("csv", "csv"), ("table", "txt")])
def test_curvature_text_matches_golden(capsys, spec, seed, fmt, ext):
    name = f"curvature_{spec.replace(':', '_').replace(',', '_').replace('/', '-')}_seed{seed}.{ext}"
    expected = (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")
    assert run(capsys, "curvature", "--input", spec, "--seed", str(seed),
               "--format", fmt) == (0, expected, "")


def test_curvature_table_warnings_match_golden(capsys):
    # cycle:6 is underdetermined (nullity 2), so its table ends in a warning line
    expected = (Path(__file__).parent / "data" / "curvature_cycle_6_seed0.txt").read_text()
    assert "\nwarning: " in expected
    assert run(capsys, "curvature", "--input", "cycle:6", "--format", "table") == (0, expected, "")


@pytest.mark.parametrize("spec", ["star:5", "cycle:7", "gnp:30,1/5"])
def test_float_text_formats(capsys, spec):
    # float bits depend on the BLAS build and thread count, so both formats are
    # checked against the float solve in this process, not against a file
    g = parse_generator_spec(spec, seed=0)
    fsol = solve_curvature_float(apsp(g))
    w = fsol.w.tolist()
    csv = ["vertex,w_float"] + [f"{i},{x!r}" for i, x in enumerate(w)]
    table = ([f"n = {g.n}, m = {g.m}"] + [f"  w[{i}] = {x!r}" for i, x in enumerate(w)]
             + [f"residual_inf = {fsol.residual_inf!r}"])
    for fmt, lines in (("csv", csv), ("table", table)):
        code, out, err = run(capsys, "curvature", "--input", spec, "--float", "--format", fmt)
        assert (code, err) == (0, "")
        assert out.splitlines() == lines and out.endswith("\n")


@pytest.mark.parametrize("command", ["report", "game"])
@pytest.mark.parametrize("spec", ["cycle:39", "complete:40"])
def test_positive_curvature_game_runs_no_simplex(capsys, monkeypatch, command, spec):
    # w > 0: the game is certified from the curvature solution the command holds
    name = f"{command}_{spec.replace(':', '_')}_seed0.json"
    expected = (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")
    monkeypatch.setattr(game, "_simplex_basis", lambda M, steepest: pytest.fail("simplex ran"))
    assert run(capsys, command, "--input", spec, "--format", "json") == (0, expected, "")


def test_inconsistent_report_prints_then_exits_4(capsys):
    # tests/data/report_complete_1_seed0.json was written by json.dumps(doc, indent=2)
    # the table has the graph, distance and curvature lines and no verification or game
    expected = {
        "json": (Path(__file__).parent / "data" / "report_complete_1_seed0.json").read_text(),
        "table": "graph: complete:1 (n = 1, m = 0)\nradius = 0, diameter = 0\n"
                 "curvature status = inconsistent, K = None, nonneg = None\n",
    }
    for fmt in ("json", "table"):
        code, out, err = run(capsys, "report", "--input", "complete:1", "--format", fmt)
        assert (code, out) == (4, expected[fmt])
        assert err == "error: D w = n 1 has no solution for this graph (n=1)\n"


def run_probe(probe: str) -> str:
    result = subprocess.run([sys.executable, "-c", probe], env=src_env(), capture_output=True,
                            text=True, timeout=120, check=True)
    return result.stdout.strip()


def test_cli_import_does_not_load_scipy_optimize():
    probe = ("import sys, graphcurv.cli; print('scipy.optimize' in sys.modules, "
             "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_probe(probe) == "False []"


SCIPY_BLOCKED = """
import contextlib, io, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked: " + name)

sys.meta_path.insert(0, BlockScipy())
from graphcurv.cli import main

codes = []
for spec in ("path:60", "cycle:40", "grid:8,10", "gnp:120,1/12"):
    for command in ("report", "verify"):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main([command, "--input", spec, "--seed", "1", "--format", "json"]))
print(codes)
"""


def test_report_and_verify_run_without_scipy():
    assert run_probe(SCIPY_BLOCKED) == str([0] * 8)


# --- the JSON writer against json.dumps(doc, indent=2) ---------------------

SPECIAL_CHARS = '%s"\\\x00\n\x1f\x7f\u00e9\u2028\U0001F600'
TEXT = st.text(st.one_of(st.characters(), st.sampled_from(SPECIAL_CHARS)), max_size=6)
INTS = st.one_of(st.integers(), st.sampled_from([2 ** 64, 2 ** 64 + 1, -(2 ** 70), 10 ** 30]))
FLOATS = st.one_of(st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0,
                                                 5e-324, 1e16, 1e-7]))
SCALARS = st.one_of(TEXT, INTS, FLOATS, st.sampled_from([None, True, False]))
KEYS = st.one_of(TEXT, st.sampled_from(["%", "%s", "%%", "a%sb", "%(x)s", '"', "\\"]))
ANY_KEYS = st.one_of(KEYS, st.integers(), st.floats(), st.sampled_from([None, True, False]))
# one strategy per column: a scalar type, a mix of them, a nested dict or a list
COLUMN_KINDS = [TEXT, INTS, FLOATS, st.booleans(), st.none(), SCALARS,
                st.one_of(st.booleans(), st.integers()), st.one_of(st.integers(), st.floats()),
                st.dictionaries(KEYS, SCALARS, max_size=2), st.lists(SCALARS, max_size=2)]


@st.composite
def records(draw):
    """A list of dicts sharing their keys, some out of order, missing a key or with an extra one."""
    fields = draw(st.lists(KEYS, min_size=1, max_size=4, unique=True))
    kinds = [draw(st.sampled_from(COLUMN_KINDS)) for _ in fields]
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = {k: draw(kind) for k, kind in zip(fields, kinds)}
        change = draw(st.sampled_from(["none"] * 4 + ["shuffle", "drop", "add"]))
        if change == "shuffle":
            row = {k: row[k] for k in draw(st.permutations(fields))}
        elif change == "drop":
            row.pop(draw(st.sampled_from(fields)))
        elif change == "add":
            row[draw(KEYS)] = draw(SCALARS)
        rows.append(row)
    return rows


@st.composite
def tables(draw):
    """A `cli._Records` table of 0-6 rows and the list of dicts it stands for."""
    keys = tuple(draw(st.lists(KEYS, min_size=1, max_size=4, unique=True)))
    size = draw(st.integers(0, 6))
    columns = tuple(draw(st.lists(draw(st.sampled_from(COLUMN_KINDS)), min_size=size, max_size=size))
                    for _ in keys)
    return cli._Records(keys, columns), [dict(zip(keys, row)) for row in zip(*columns)]


COLUMNS = st.sampled_from(COLUMN_KINDS[:8]).flatmap(lambda kind: st.lists(kind, min_size=1,
                                                                           max_size=6))
DOCUMENTS = st.recursive(
    st.one_of(SCALARS, COLUMNS, records()),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=3).map(tuple),
                               st.dictionaries(ANY_KEYS, children, max_size=4)),
    max_leaves=12)


def write_json(doc) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_json(doc)
    return out.getvalue()


NAN, INF = float("nan"), float("inf")
EDGE_DOCUMENTS = [
    {}, [], [{}], [[]], [{}, {}], {"a": {}, "b": []}, "", 0, -0.0, None,
    "caf\u00e9 \x00\x1f\x7f \"q\" \\ \u2028 \U0001F600",
    [NAN, INF, -INF, -0.0, 5e-324, 1e16, 2.0 ** 64], [2 ** 64, -(2 ** 64) - 1, 10 ** 40],
    [True, False, None], [True, 1, 0, False], [1, 1.0, 2, 2.5], [1, "1", None, [1], {"1": 1}],
    {"%": "%s", "%s": "%", "%%": "%%s", "%(a)s": "%d"},
    [{"%": 1, "%s": "%s"}, {"%": 2, "%s": "%d"}],
    [{"a": 1, "b": 2}, {"b": 3, "a": 4}], [{"a": 1, "b": 2}, {"a": 3}],
    [{"a": 1}, {"a": 2, "b": 3}],
    [{"a": 1, "b": {"c": [1, 2], "d": {}}}, {"a": 2, "b": {"c": [], "d": {"e": None}}}],
    [{"x": True, "y": 1}, {"x": 1, "y": True}], [{"v": 1}, {"v": 1.5}, {"v": NAN}],
    [{"f": NAN}, {"f": -INF}, {"f": INF}, {"f": -0.0}],
    [{1: "a"}, {1: "b"}], [{1: "a"}, {True: "b"}], [{1.0: "a"}, {1: "b"}],
    {1: 1, 2.5: 2, NAN: 3, True: 4, None: 5, -INF: 6},
    ("t", (1, 2), [(), {"k": (None,)}]),
]


class TestJsonWriter:
    """`cli._write_json` against the stdlib's indent=2 encoder it replaced."""

    @pytest.mark.parametrize("doc", EDGE_DOCUMENTS,
                             ids=[f"doc{i}" for i in range(len(EDGE_DOCUMENTS))])
    def test_edge_cases(self, doc):
        assert write_json(doc) == json_indent2(doc)

    @settings(max_examples=400, deadline=None)
    @given(DOCUMENTS)
    def test_documents(self, doc):
        assert write_json(doc) == json_indent2(doc)

    @settings(max_examples=200, deadline=None)
    @given(records())
    def test_records(self, doc):
        assert write_json(doc) == json_indent2(doc)

    @settings(max_examples=200, deadline=None)
    @given(tables(), st.sampled_from(["top", "in a dict", "in a list"]))
    def test_tables(self, drawn, where):
        table, rows = drawn
        wrap = {"top": lambda x: x, "in a dict": lambda x: {"v": 1, "t": x},
                "in a list": lambda x: [[x], 2]}[where]
        assert write_json(wrap(table)) == json_indent2(wrap(rows))

    @pytest.mark.parametrize("doc", [
        set(), object(), b"x", 1j, {"a": {1, 2}}, [1, 2, object()], [{"a": 1, "b": 2j}],
        [{"a": 1}, {"a": b"x"}], {(1, 2): 3}, [{(1,): 1}], {"a": [{"b": frozenset()}]},
    ], ids=lambda doc: type(doc).__name__)
    def test_rejects_what_json_rejects(self, doc):
        with pytest.raises(TypeError):
            json_indent2(doc)
        with pytest.raises(TypeError):
            cli._write_json(doc)

    def test_verify_is_one_write(self):
        stream = RecordingStream()
        with contextlib.redirect_stdout(stream):
            assert cli.main(["verify", "--input", "star:12", "--samples", "30"]) == 0
        assert len(stream.writes) == 1
