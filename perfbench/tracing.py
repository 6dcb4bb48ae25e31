"""Spans around graphcurv's layers, recorded from outside the package.

`Tracer.installed()` replaces the public functions of each layer at the
module attributes where their callers look them up (`graphcurv.cli`,
`graphcurv.verifier`, `graphcurv.game`), and puts the originals back on
exit.  Every call then records a span: name, start, end, parent span and
instance id.  Spans stay in memory until the run writes them out.

A span's self time is its duration minus the durations of its child spans.
Each span name below belongs to one per-layer time metric, so the self times
of one invocation add up to its root span, `cli.main`.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict

from graphcurv.errors import NumericallySingularError

# (module, attribute, span name).  `verifier.transport_vector`,
# `verifier.sample_measures` and `game.game_value` are wrapped at their own
# modules too, so calls from search_lower_violation, cli._game_doc,
# measure_battery and game_vs_curvature are counted.
PATCH_POINTS = (
    ("graphcurv.cli", "parse_generator_spec", "graphs.load"),
    ("graphcurv.cli", "apsp", "metric.apsp"),
    ("graphcurv.cli", "solve_curvature", "curvature.exact"),
    ("graphcurv.cli", "solve_curvature_float", "curvature.float"),
    ("graphcurv.cli", "measure_battery", "measures.battery"),
    ("graphcurv.verifier", "sample_measures", "measures.sample"),
    ("graphcurv.cli", "verify_minimax", "verifier.verify"),
    ("graphcurv.verifier", "transport_vector", "verifier.transport"),
    ("graphcurv.cli", "search_lower_violation", "verifier.witness"),
    ("graphcurv.cli", "game_value", "game.solve"),
    ("graphcurv.game", "game_value", "game.solve"),
)

# per-layer time metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "cli.self_s": ("cli.main",),
    "graphs.load_s": ("graphs.load",),
    "metric.apsp_s": ("metric.apsp",),
    "curvature.exact_s": ("curvature.exact",),
    "curvature.float_s": ("curvature.float",),
    "measures.battery_s": ("measures.battery", "measures.sample"),
    "verifier.verify_s": ("verifier.verify",),
    "verifier.transport_s": ("verifier.transport",),
    "verifier.witness_s": ("verifier.witness",),
    "game.solve_s": ("game.solve",),
}

CALL_METRICS = {
    "graphs.load_calls": "graphs.load",
    "metric.apsp_calls": "metric.apsp",
    "curvature.exact_calls": "curvature.exact",
    "verifier.transport_calls": "verifier.transport",
    "verifier.witness_calls": "verifier.witness",
    "game.solve_calls": "game.solve",
}


def _w_bits(sol) -> int:
    if sol.w is None:
        return 0
    return max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in sol.w)


class Tracer:
    """Span and counter recorder for one benchmark run."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, instance id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.instance = ""
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        on_result = _ON_RESULT.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            stack.append(len(spans))
            spans.append(span)
            try:
                span[1] = time.perf_counter()
                result = fn(*args, **kwargs)
            except NumericallySingularError:
                self.counts["curvature.float_singular"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer entry point for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in PATCH_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self, first_span: int = 0) -> dict[str, float]:
        """Self times, call counts and counters of spans[first_span:]."""
        spans = self.spans[first_span:]
        child_time: defaultdict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(spans, start=first_span):
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
        out = {metric: sum(self_time[n] for n in names)
               for metric, names in SELF_TIME_METRICS.items()}
        out.update({metric: calls[name] for metric, name in CALL_METRICS.items()})
        return out


def _on_apsp(counts, D):
    counts["metric.dense_bytes"] += 16 * D.n * D.n  # int64 result + float64 BFS matrix


def _on_exact(counts, sol):
    counts["curvature.w_bits_max"] = max(counts["curvature.w_bits_max"], _w_bits(sol))


def _on_float(counts, fsol):
    counts["curvature.float_residual_max"] = max(counts["curvature.float_residual_max"],
                                                 fsol.residual_inf)


def _on_battery(counts, battery):
    counts["measures.battery_size"] += len(battery)


def _on_witness(counts, found):
    counts["verifier.witness_found"] += found is not None


_ON_RESULT = {
    "metric.apsp": _on_apsp,
    "curvature.exact": _on_exact,
    "curvature.float": _on_float,
    "measures.battery": _on_battery,
    "verifier.witness": _on_witness,
}
