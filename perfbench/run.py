#!/usr/bin/env python3
"""graphcurv benchmark: one workload, one process, one invocation at a time.

    python3 perfbench/run.py --workload report-small --seed 1 --seconds 35 --trace 0

The benchmark imports graphcurv from ``src/`` of the checkout it lives in and
calls ``graphcurv.cli.main(argv)`` in process for each instance of the
workload (see workloads.py), sequentially from a single client: a closed loop
with one invocation in flight.  One pass runs the whole batch; passes repeat
until ``--seconds`` is used up, with at least MIN_PASSES passes.  Each
invocation's stdout is captured and hashed per pass, and the first pass's
outputs are checked by checker.py, which shares no code with graphcurv.

How times are taken.  The 2-vCPU virtual machine this was tuned on shares its
host: the same code runs up to 1.8x slower in phases that last from a fraction
of a second to longer than a whole run.  Two measures make the reported times
steadier (see NOTES.md):

* each instance's time is its least time over the passes;
* a fixed pure-Python loop that shares no code with graphcurv,
  ``calibrate()``, runs before every invocation and CALIBRATIONS_PER_PASS
  times before every pass, and every reported time is scaled by
  REFERENCE_CALIBRATION_S over this run's least calibration time.  A reported
  second is thus a second at the speed the reference machine has in its fast
  phases.  Taking the least of many samples spread over the run keeps out
  samples slowed by what the program or the set-up timing just did (say,
  freeing 200 MB).

The unscaled times, the speed factor and the median and quartiles of the pass
times are printed too.

``--trace 0`` reports the end-to-end metrics:

    wall_s         time for the whole batch, tracing off: the sum over
                   instances of each one's least time
    latency_max_s  least time of the workload's largest (last) instance
    peak_rss_mb    peak resident memory of this process after the passes
    setup_s        a fresh interpreter importing graphcurv.cli, plus building
                   the workload's inputs from the seed; the least of
                   SETUP_SAMPLES_PER_PASS samples before every pass and
                   SETUP_EXTRA_SAMPLES more
    ok_ratio       invocations that exited 0 and passed every check, over all
                   invocations (1 - fail_ratio; a ratio that is never 0)

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of tracing.py, taken from the fastest traced pass, the
wall times of the fastest traced and untraced passes, and their difference,
the tracing overhead.  Its spans are written to
``perfbench/out/trace-<workload>-seed<seed>.json`` when the run ends.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  An invocation fails when its exit
code is not 0 or a check of its output fails; ``correct`` is false when an
invocation that exited 0 printed a wrong output, or when any output, exit
code or exact count differs between passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from checker import Reference, check_output, schema_validator
from workloads import WORKLOADS, command_line, instances

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = SRC / "graphcurv" / "schemas" / "report.schema.json"
OUT = HERE / "out"

MIN_PASSES = 3
MIN_TRACE_PASSES = 2        # one untraced, one traced
SETUP_SAMPLES_PER_PASS = 1  # fresh-interpreter imports before every pass
SETUP_EXTRA_SAMPLES = 4     # and before the first one
INVOCATION_TIMEOUT_S = 45   # keeps one run under 180 s even if an input hangs
CALIBRATIONS_PER_PASS = 10
# least time of calibrate() on the reference machine: a 2-vCPU Intel Xeon
# virtual machine at 2.1 GHz, Python 3.11.7
REFERENCE_CALIBRATION_S = 0.0040

# counts that must repeat exactly between traced passes of one run
EXACT_COUNTS = (
    "game.solve_calls", "verifier.transport_calls", "measures.battery_size",
    "curvature.w_bits_max", "metric.dense_bytes", "curvature.exact_calls",
    "verifier.witness_calls", "verifier.witness_found", "metric.apsp_calls",
    "graphs.load_calls", "curvature.float_singular", "cli.output_bytes",
)

END_TO_END_UNITS = {
    "wall_s": "s", "latency_max_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "game.solve_s": "s", "game.solve_calls": "count",
    "curvature.exact_s": "s", "curvature.exact_calls": "count", "curvature.w_bits_max": "bits",
    "verifier.transport_s": "s", "verifier.transport_calls": "count", "verifier.verify_s": "s",
    "measures.battery_s": "s", "measures.battery_size": "count",
    "verifier.witness_s": "s", "verifier.witness_calls": "count", "verifier.witness_found": "count",
    "metric.apsp_s": "s", "metric.apsp_calls": "count", "metric.dense_bytes": "bytes",
    "curvature.float_s": "s", "curvature.float_singular": "count",
    "curvature.float_residual_max": "abs",
    "graphs.load_s": "s", "graphs.load_calls": "count",
    "cli.self_s": "s", "cli.output_bytes": "bytes",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
}


def calibrate() -> float:
    """Seconds for a fixed loop of exact rational arithmetic."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 2000):
        s += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


class InvocationTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise InvocationTimeout(f"invocation exceeded {INVOCATION_TIMEOUT_S} s")


def invoke(main, argv) -> tuple[object, str, float]:
    """Run one command line in process: (exit code or error text, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, INVOCATION_TIMEOUT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = main(list(argv))
            except Exception as e:  # a crash is a failed invocation, not a failed run
                code = f"{type(e).__name__}: {e}"
            seconds = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), seconds


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.seconds: list[float] = []
        self.codes: list[object] = []
        self.digests: list[str] = []
        self.outputs: list[str] = []
        self.layers: dict[str, float] = {}

    @property
    def wall(self) -> float:
        return sum(self.seconds)


def run_pass(main, insts, keep_outputs: bool, skip: set[int], calibrations: list[float],
             traced: bool = False, tracer=None, tag: str = "") -> Pass:
    p = Pass(traced)
    for i, inst in enumerate(insts):
        if i in skip:
            code, stdout, seconds = "skipped: timed out in an earlier pass", "", 0.0
        else:
            calibrations.append(calibrate())
            if tracer is not None:
                tracer.instance = f"{tag}:{i}"
            code, stdout, seconds = invoke(main, inst.argv)
            if isinstance(code, str) and code.startswith("InvocationTimeout"):
                skip.add(i)
        p.seconds.append(seconds)
        p.codes.append(code)
        p.digests.append(hashlib.sha256(stdout.encode()).hexdigest())
        if keep_outputs:
            p.outputs.append(stdout)
    return p


class SetupTimer:
    """Times a fresh interpreter importing graphcurv.cli, plus building the
    workload's inputs from the seed.  Samples are taken between passes, so
    that they spread over the whole run like the pass times."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import graphcurv.cli"], env=self.env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        instances(self.workload, self.seed)
        self.samples.append(time.perf_counter() - t0)


def best_seconds(passes: list[Pass]) -> list[float]:
    """Each instance's least time over the passes."""
    return [min(ts) for ts in zip(*(p.seconds for p in passes))]


def quartiles(values: list[float]) -> tuple[float, float, float, int]:
    """(q1, median, q3, sample count)."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3, len(values)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = SetupTimer(workload, seed)
    for _ in range(SETUP_EXTRA_SAMPLES):
        setup.sample()

    sys.path.insert(0, str(SRC))
    import graphcurv.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"graphcurv was imported from {cli.__file__}, not from {SRC}")

    insts = instances(workload, seed)
    # warm up every command once on a tiny graph, so lazy imports are not timed
    for kind in sorted({i.kind for i in insts}):
        invoke(cli.main, command_line(kind, "path:4", 0))

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()

    passes: list[Pass] = []
    skip: set[int] = set()
    calibrations: list[float] = []
    min_passes = MIN_TRACE_PASSES if trace else MIN_PASSES
    t_start = time.perf_counter()
    while True:
        for _ in range(SETUP_SAMPLES_PER_PASS):
            setup.sample()
        gc.collect()
        calibrations.extend(calibrate() for _ in range(CALIBRATIONS_PER_PASS))
        if trace and len(passes) % 2 == 1:
            first_span = len(tracer.spans)
            tracer.counts.clear()
            with tracer.installed():
                p = run_pass(tracer.wrap("cli.main", cli.main), insts, False, skip, calibrations,
                             traced=True, tracer=tracer, tag=str(len(passes)))
            p.layers = tracer.layer_metrics(first_span)
            p.layers.update(tracer.counts)
        else:
            p = run_pass(cli.main, insts, not passes, skip, calibrations)
        passes.append(p)
        elapsed = time.perf_counter() - t_start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = REFERENCE_CALIBRATION_S / min(calibrations)

    # check outputs once, against the checker's own references
    validator = schema_validator(SCHEMA)
    first = passes[0]
    attempted = len(passes) * len(insts)
    failed = 0
    wrong_output = False
    notes = []
    for i, inst in enumerate(insts):
        codes = {str(p.codes[i]) for p in passes}
        digests = {p.digests[i] for p in passes}
        if len(codes) > 1 or len(digests) > 1:
            wrong_output = True
            failed += len(passes)
            notes.append(f"{inst.label}: exit code or stdout differs between passes")
            continue
        try:
            problems = check_output(inst.kind, inst.spec, first.codes[i], first.outputs[i],
                                    Reference(inst.spec, inst.seed), validator)
        except Exception as e:  # output the checks did not foresee, e.g. "1/0"
            problems = [f"checker failed on this output: {e!r}"]
        if problems:
            failed += len(passes)
            wrong_output |= first.codes[i] == 0
            notes.extend(f"{inst.label}: {msg}" for msg in problems[:5])

    untraced = [p for p in passes if not p.traced]
    if trace:
        traced = [p for p in passes if p.traced]
        output_bytes = sum(len(o.encode()) for o in first.outputs)
        for p in traced:
            p.layers["cli.output_bytes"] = output_bytes
        for name in EXACT_COUNTS:
            values = {p.layers.get(name, 0) for p in traced}
            if len(values) > 1:
                wrong_output = True
                notes.append(f"count {name} differs between traced passes: {sorted(values)}")
        # the layers of the fastest traced pass, so that they add up to its wall time
        fastest = min(traced, key=lambda p: p.wall)
        raw = {name: fastest.layers.get(name, 0)
               for name in PER_LAYER_UNITS if not name.startswith("trace.")}
        untraced_wall = min(p.wall for p in untraced)
        raw.update({
            "trace.wall_s": fastest.wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": fastest.wall - untraced_wall,
            "trace.accounted_share": sum(raw[m] for m in raw if m.endswith("_s")) / fastest.wall,
        })
        units = PER_LAYER_UNITS
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(json.dumps({
            "workload": workload, "seed": seed,
            "instances": [i.label for i in insts],
            "span_fields": ["name", "start", "end", "parent", "instance"],
            "spans": tracer.spans,
            "speed": speed,
            "passes": [{"traced": p.traced, "seconds": p.seconds, "layers": p.layers} for p in passes],
        }), encoding="utf-8")
        notes.append(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        best = best_seconds(untraced)
        raw = {
            "wall_s": sum(best),
            "latency_max_s": best[-1],
            "peak_rss_mb": peak_rss_mb,
            "setup_s": min(setup.samples),
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    metrics = {name: raw[name] * speed if units[name] == "s" else raw[name] for name in units}

    return {
        "workload": workload, "seed": seed, "passes": len(passes), "instances": len(insts),
        "speed": speed, "calibrations": len(calibrations), "raw": raw, "notes": notes,
        "fail_ratio": failed / attempted,
        "spread": {
            "pass wall_s": quartiles([p.wall for p in untraced]),
            "pass latency_max_s": quartiles([p.seconds[-1] for p in untraced]),
            "setup_s sample": quartiles(setup.samples),
        },
        "result": {
            "correct": not wrong_output,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def print_report(r: dict) -> None:
    res = r["result"]
    print(f"workload {r['workload']}  seed {r['seed']}  passes {r['passes']}  "
          f"instances {r['instances']}  (one client, one invocation at a time)")
    print(f"  speed factor {r['speed']:.4f} = reference calibration / least of "
          f"{r['calibrations']} calibrations")
    print(f"  {'metric':30s} {'reported':>14s}       {'unscaled':>14s}")
    for name, m in res["metrics"].items():
        print(f"  {name:30s} {m['value']:>14.6g} {m['unit']:5s} {r['raw'][name]:>14.6g}")
    print(f"  {'fail_ratio':30s} {r['fail_ratio']:>14.6g} ratio "
          f"({res['failed']} of {res['attempted']} invocations)")
    for name, (q1, q2, q3, count) in r["spread"].items():
        print(f"  unscaled {name}: median {q2:.4g} s, q1 {q1:.4g}, q3 {q3:.4g} over {count}")
    for note in r["notes"]:
        print(f"  note: {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graphcurv" / "__init__.py").is_file():
        print(f"error: no graphcurv sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    r = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(r)
    print(json.dumps(r["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
