"""Benchmark workloads: each a pure function of the workload seed.

A workload is a batch of `graphcurv` command lines run one after the other.
Every instance gets its own `--seed`, drawn from a generator seeded by the
workload name and the benchmark seed; for `gnp:` specs that seed picks the
random graph, for `report` and `verify` it also picks the sampled measures.
Instances are listed by size, and the last one is the workload's largest
instance, timed on its own as `latency_max_s`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (subcommand, generator spec).  Sizes are chosen so that one pass of each
# workload takes a few seconds on a 2-core machine.
_REPORT_SMALL = (
    # gnp draws of 20-26 vertices: the game time of a single gnp draw varies
    # about 2.5x between seeds at n = 40, so the draws stay small and several,
    # and the fixed families carry most of the time.
    ("report", "gnp:20,1/4"),
    ("report", "gnp:22,1/4"),
    ("report", "gnp:24,1/4"),
    ("report", "gnp:26,1/4"),
    ("report", "hypercube:5"),   # underdetermined (n = 32)
    ("report", "cycle:39"),      # odd cycle: unique, non-negative w
    ("report", "grid:5,8"),      # underdetermined
    ("report", "star:40"),       # signed w: witness search
    ("report", "path:40"),
    ("report", "cycle:40"),      # even cycle: underdetermined
    ("report", "complete:40"),   # the largest instance
)

_VERIFY_MID = (
    ("verify", "path:60"),
    ("verify", "star:60"),
    ("verify", "gnp:60,1/6"),
    ("verify", "grid:8,10"),
    ("verify", "gnp:120,1/12"),  # the largest instance: exact solve dominates
)

_FLOAT_LARGE = (
    ("curvature-float", "gnp:1000,1/100"),
    ("curvature-float", "cycle:1000"),     # consistent, yet exits 4 as singular
    ("curvature-float", "hypercube:10"),   # consistent, yet exits 4 as singular
    ("curvature-float", "path:1500"),
    ("dist-csv", "gnp:1500,1/150"),
    ("curvature-float", "gnp:2000,1/200"),  # the largest instance
)

WORKLOADS: dict[str, tuple[tuple[str, str], ...]] = {
    "report-small": _REPORT_SMALL,
    "verify-mid": _VERIFY_MID,
    "float-large": _FLOAT_LARGE,
}

VERIFY_SAMPLES = 300


@dataclass(frozen=True)
class Instance:
    kind: str          # "report", "verify", "curvature-float" or "dist-csv"
    spec: str          # generator spec passed as --input
    seed: int          # passed as --seed
    argv: tuple[str, ...]

    @property
    def label(self) -> str:
        return f"{self.kind} {self.spec} seed={self.seed}"


def command_line(kind: str, spec: str, seed: int) -> tuple[str, ...]:
    common = ("--input", spec, "--seed", str(seed))
    if kind == "report":
        return ("report", *common, "--format", "json")
    if kind == "verify":
        return ("verify", *common, "--samples", str(VERIFY_SAMPLES), "--format", "json")
    if kind == "curvature-float":
        return ("curvature", *common, "--float", "--format", "json")
    if kind == "dist-csv":
        return ("dist", *common, "--format", "csv")
    raise ValueError(f"unknown instance kind {kind!r}")


def instances(workload: str, seed: int) -> list[Instance]:
    """The workload's command lines for this benchmark seed."""
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for kind, spec in WORKLOADS[workload]:
        s = rng.randrange(1 << 31)
        out.append(Instance(kind=kind, spec=spec, seed=s, argv=command_line(kind, spec, s)))
    return out
