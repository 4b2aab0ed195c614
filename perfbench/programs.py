"""The benchmark's four workloads and the seeded programs they run.

A workload is a set of programs plus the VM configuration they run
under.  ``--seed`` picks the programs' data, never their code shape:

- the six mini-Java programs keep their source text except for the one
  data-seed literal each contains (``new Lcg(...)``, or the seed
  argument of ``javacx``'s ``new SourceGen(...)``), which is rewritten;
- the generated programs are ``repro.check.genprog.generate`` for a
  run of consecutive generator seeds that starts at the benchmark seed.
  Nearby seeds share most programs, as the mini-Java seeds share all
  code: the workload's mix of program shapes stays put while its
  members change.

The default seed leaves every literal as written, so its programs are
exactly the ``small`` workloads of ``repro workload``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.check import genprog
from repro.jvm.threaded import DEFAULT_MAX_INSTRUCTIONS
from repro.lang import compile_source
from repro.workloads.registry import workload_source

DEFAULT_SEED = 0
MINI_JAVA = ("compressx", "javacx", "raytracex", "mpegaudiox", "sootx",
             "scimarkx")
SIZE = "small"
SHORT_PROGRAMS = 300
# Generator seeds a benchmark seed may draw from, left-out programs
# included.
GENPROG_WINDOW = 1000
SNAPSHOT_EVERY = 1000
# A generated program runs ~8k instructions on average.  The generator
# can still emit one that runs for hundreds of millions; such a program
# is not part of the workload (see select_programs in oracle.py).
GENPROG_MAX_INSTRUCTIONS = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: tuple       # VM keyword overrides, as (field, value) pairs
    mini_java: bool     # the six mini-Java programs, else genprog
    observed: bool = False
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS


WORKLOADS = {w.name: w for w in (
    Workload(
        "hot-compiled",
        "generated trace bodies, their interpreted final block, linked "
        "transfers and compile installs carry the run; set-up is small",
        (("optimize_traces", True),), mini_java=True),
    Workload(
        "paper-plain",
        "the paper's default config: the block interpreter and the "
        "profiling statement carry the run and the optimizer is off",
        (), mini_java=True),
    Workload(
        "short-programs",
        "hundreds of short generated programs, each mostly warm-up: "
        "building, profiler ramp, trace construction and compiles",
        (("optimize_traces", True),), mini_java=False,
        max_instructions=GENPROG_MAX_INSTRUCTIONS),
    Workload(
        "observed",
        "hot-compiled with full observability on: the only workload "
        "where the obs bus, JSONL stream and snapshots do work",
        (("optimize_traces", True),), mini_java=True, observed=True),
)}


@dataclass(frozen=True)
class ProgramInput:
    """One program of a workload, before it is built.

    Exactly one of `source` (mini-Java text) and `spec` (a genprog
    ProgramSpec) is set.  Building it is part of the measured set-up.
    """

    pid: str
    source: str | None = None
    spec: genprog.ProgramSpec | None = None

    @property
    def build_layer(self) -> str:
        return "lang.compile" if self.source is not None else "jvm.build"

    def build(self):
        if self.source is not None:
            return compile_source(self.source)
        return genprog.build_program(self.spec)


# The data-seed literal: ``new Lcg(<int>)`` or the trailing int argument
# of ``new SourceGen(<capacity>, <int>)``.  ``new Lcg(seed)`` inside
# SourceGen has no literal and does not match.
_SEED_LITERAL = re.compile(r"(new (?:Lcg|SourceGen)\((?:[^()]*, )?)(\d+)\)")
_INT_MAX = 2**31 - 1


def reseed_source(source: str, seed: int) -> str:
    """Rewrite the single data-seed literal of `source` for `seed`."""
    matches = _SEED_LITERAL.findall(source)
    if len(matches) != 1:
        raise ValueError(
            f"expected one data-seed literal, found {len(matches)}")

    def mix(match: re.Match) -> str:
        literal = int(match.group(2))
        return f"{match.group(1)}{(literal + seed * 7919) % _INT_MAX})"

    return _SEED_LITERAL.sub(mix, source)


def program_inputs(workload: Workload, seed: int,
                   exclude=frozenset()) -> list[ProgramInput]:
    """The workload's programs for `seed`.

    Generated programs are the first SHORT_PROGRAMS generator seeds
    from `seed` on whose program id is not in `exclude`.
    """
    if workload.mini_java:
        return [ProgramInput(name, source=reseed_source(
                    workload_source(name, SIZE), seed))
                for name in MINI_JAVA]
    pids = (f"genprog:{seed + i}" for i in range(GENPROG_WINDOW))
    chosen = [pid for pid in pids if pid not in exclude][:SHORT_PROGRAMS]
    return [ProgramInput(pid, spec=genprog.generate(int(pid[8:])))
            for pid in chosen]
