"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hot-compiled --seed 0 --seconds 20 --trace 0

Each pass runs in a fresh ``worker.py`` process; passes repeat until
``--seconds`` have gone by (at least four untraced passes, or one
untraced/traced pair with ``--trace 1``).  Every program run is checked
against the switch interpreter's reference (``oracle.py``), computed
before timing starts.  Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

- ``--trace 0``: the end-to-end metrics, medians over passes (for a
  timing, per program), with timings scaled to a nominal host speed
  (see worker.py);
- ``--trace 1``: the per-layer metrics of the traced passes, plus the
  tracing overhead (traced minus untraced ``run_s``).  A traced pass
  must reproduce the untraced pass's ``RunStats`` exactly.

NOTES.md lists every metric, the workloads and why each was chosen.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkout

HERE = Path(__file__).resolve().parent
# A paper-plain pass takes 6-8 s: a 20 s run often stopped after three
# passes, and its run_s then spread the widest of all the workloads.
MIN_PASSES = 4
# A run must end within 180 s: stop starting passes past MAX_MEASURE_S,
# and give up on a pass that takes several times the longest one here
# (a traced paper-plain pass, about 12 s).
MAX_MEASURE_S = 100
PASS_TIMEOUT_S = 60

# (name, unit, better)
END_TO_END = (
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("coverage", "ratio", "higher"),
    ("completion_rate", "ratio", "higher"),
    ("dispatches_per_kinstr", "1/kinstr", "lower"),
    ("correct_frac", "ratio", "higher"),
)


class BenchError(RuntimeError):
    pass


# ----------------------------------------------------------------------
def worker_pass(workload: str, seed: int, exclude=(), trace: bool = False,
                spans: Path | None = None) -> dict:
    """One pass in a fresh interpreter process."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--exclude", ",".join(exclude)]
    if trace:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=checkout.ROOT, capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_pass(result: dict, references: dict) -> int:
    """Failed program runs in `result`: outcome, value, output or
    instruction count differ from the reference."""
    import oracle
    failed = 0
    for record in result["programs"]:
        bad = oracle.mismatches(references[record["pid"]], record)
        if bad:
            failed += 1
            print(f"MISMATCH {record['pid']}: {', '.join(bad)}",
                  file=sys.stderr)
    return failed


def _sum(result: dict, field: str) -> int:
    return sum(record["stats"][field] for record in result["programs"]
               if "stats" in record)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_seconds(result: dict, *fields: str, scaled: bool = True) -> float:
    """Sum of the timing `fields` over a pass's programs, scaled to the
    nominal host speed measured during the pass (see worker.py)."""
    seconds = sum(record[field] for record in result["programs"]
                  for field in fields)
    return seconds * result["speed"] if scaled else seconds


def median_seconds(passes: list[dict], *fields: str) -> float:
    """Sum over programs of each program's median, across `passes`, of
    its timing `fields`, scaled to the nominal host speed of its pass.

    Host slow-downs come in bursts of seconds, shorter than a pass;
    taking the median per program drops a burst that hit one program
    of a pass instead of keeping or dropping the whole pass.
    """
    per_program = zip(*([sum(record[field] for field in fields)
                         * result["speed"]
                         for record in result["programs"]]
                        for result in passes))
    return sum(statistics.median(times) for times in per_program)


def end_to_end(passes: list[dict], attempted: int, failed: int) -> dict:
    """The end-to-end metrics: timings per median_seconds, the rest
    medians over passes."""
    def median(per_pass) -> float:
        return statistics.median(per_pass(p) for p in passes)

    return {
        "run_s": median_seconds(passes, "run_s"),
        "setup_s": median_seconds(passes, "build_s", "init_s"),
        "peak_rss_mb": median(lambda p: p["peak_rss_mb"]),
        "coverage": median(lambda p: _ratio(
            _sum(p, "instr_in_completed"), _sum(p, "instr_total"))),
        "completion_rate": median(lambda p: _ratio(
            _sum(p, "trace_completions"), _sum(p, "trace_entries"))),
        "dispatches_per_kinstr": median(lambda p: 1000 * _ratio(
            _sum(p, "block_dispatches") + _sum(p, "trace_dispatches"),
            _sum(p, "instr_total"))),
        "correct_frac": 1 - _ratio(failed, attempted),
    }


# ----------------------------------------------------------------------
# Per-layer metrics.  Span metrics come from layers.SPANS; the rest are
# counts the run leaves in RunStats and on the layers.
def _layer_sum(result: dict, field: str) -> int:
    return sum(record["layer"][field] for record in result["programs"]
               if "layer" in record)


def _span_metrics():
    from layers import LOOP, SPANS
    for span in SPANS:
        if span != LOOP:
            yield f"{span}.calls", "count", "lower"
        yield f"{span}.self_s", "s", "lower"


PER_LAYER_COUNTS = (
    ("jvm.tail_per_body", "ratio", "lower"),
    ("core.bcg.nodes", "count", "lower"),
    ("core.profiler.signals", "count", "lower"),
    ("core.profiler.decays", "count", "lower"),
    ("core.trace_cache.traces_constructed", "count", "lower"),
    ("core.trace_cache.traces_invalidated", "count", "lower"),
    ("core.trace_cache.anchors_replaced", "count", "lower"),
    ("core.trace_cache.entered_frac", "ratio", "higher"),
    ("core.controller.block_dispatches", "count", "lower"),
    ("core.controller.trace_dispatches", "count", "lower"),
    ("core.links.links_installed", "count", "higher"),
    ("core.links.linked_transfers", "count", "higher"),
    ("core.links.transfer_frac", "ratio", "higher"),
    ("opt.codecache.compile_s", "s", "lower"),
    ("opt.codecache.source_bytes", "B", "lower"),
    ("opt.codecache.hits", "count", "higher"),
    ("opt.codecache.misses", "count", "lower"),
    ("opt.codecache.shared_hits", "count", "higher"),
    ("opt.codecache.uncompilable", "count", "lower"),
    ("opt.codegen.side_exit_frac", "ratio", "lower"),
    ("opt.codegen.body_calls_per_install", "ratio", "higher"),
    ("obs.events_emitted", "count", "lower"),
    ("trace.traced_run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_specs() -> list[tuple]:
    return list(_span_metrics()) + list(PER_LAYER_COUNTS)


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics: span self times are medians over the traced
    passes; counts are exact and taken from the first traced pass."""
    from layers import EXECUTE_BLOCK, LOOP, SPANS
    first = traced[0]
    spans = {name: [p["spans"][name] for p in traced] for name in SPANS}
    metrics = {}
    for name in SPANS:
        if name != LOOP:
            metrics[f"{name}.calls"] = spans[name][0]["calls"]
        metrics[f"{name}.self_s"] = statistics.median(
            s["self_s"] for s in spans[name])
    calls = {name: spans[name][0]["calls"] for name in SPANS}
    run_traced = median_seconds(traced, "run_s")
    run_untraced = median_seconds(untraced, "run_s")
    trace_dispatches = _sum(first, "trace_dispatches")
    metrics.update({
        "jvm.tail_per_body": _ratio(calls[f"{EXECUTE_BLOCK}.tail"],
                                    calls["opt.codegen.body"]),
        "core.bcg.nodes": _sum(first, "bcg_nodes"),
        "core.profiler.signals": _sum(first, "signals"),
        "core.profiler.decays": _sum(first, "decays"),
        "core.trace_cache.traces_constructed":
            _sum(first, "traces_constructed"),
        "core.trace_cache.traces_invalidated":
            _sum(first, "traces_invalidated"),
        "core.trace_cache.anchors_replaced":
            _sum(first, "anchors_replaced"),
        "core.trace_cache.entered_frac": _ratio(
            _layer_sum(first, "traces_entered"),
            _layer_sum(first, "traces_total")),
        "core.controller.block_dispatches": _sum(first, "block_dispatches"),
        "core.controller.trace_dispatches": trace_dispatches,
        "core.links.links_installed": _sum(first, "links_installed"),
        "core.links.linked_transfers": _sum(first, "linked_transfers"),
        "core.links.transfer_frac": _ratio(
            _sum(first, "linked_transfers"), trace_dispatches),
        "opt.codecache.compile_s": statistics.median(
            sum(r.get("compile_s", 0.0) for r in p["programs"])
            for p in traced),
        "opt.codecache.source_bytes": _sum(first, "codegen_source_bytes"),
        "opt.codecache.hits": _sum(first, "codegen_cache_hits"),
        "opt.codecache.misses": _sum(first, "codegen_cache_misses"),
        "opt.codecache.shared_hits": _layer_sum(first, "shared_hits"),
        "opt.codecache.uncompilable": _sum(first, "codegen_uncompilable"),
        "opt.codegen.side_exit_frac": _ratio(
            _sum(first, "codegen_side_exits"), calls["opt.codegen.body"]),
        "opt.codegen.body_calls_per_install": _ratio(
            calls["opt.codegen.body"], calls["opt.codecache.install"]),
        "obs.events_emitted": _sum(first, "events_emitted"),
        "trace.traced_run_s": run_traced,
        "trace.untraced_run_s": run_untraced,
        "trace.overhead_s": run_traced - run_untraced,
    })
    return metrics


def trace_mismatches(untraced: dict, traced: dict) -> list[str]:
    """Ways in which tracing changed behaviour or the spans miscount.

    The traced pass must reproduce every program's RunStats, and the
    span counts must equal the dispatch counts RunStats reports.
    """
    from layers import EXECUTE_BLOCK
    problems = [f"{a['pid']}: RunStats differ under tracing"
                for a, b in zip(untraced["programs"], traced["programs"])
                if a.get("stats") != b.get("stats")]
    spans = traced["spans"]
    expected = {
        f"{EXECUTE_BLOCK}.block": _sum(traced, "block_dispatches"),
        "core.controller.dispatch_trace":
            _sum(traced, "trace_dispatches")
            - _sum(traced, "linked_transfers"),
        "core.profiler.advance_link": _sum(traced, "linked_transfers"),
    }
    problems += [f"{span}: {spans[span]['calls']} calls, RunStats say "
                 f"{count}" for span, count in expected.items()
                 if spans[span]["calls"] != count]
    return problems


# ----------------------------------------------------------------------
def _describe(name: str, values: list[float], unit: str) -> str:
    if len(values) == 1:
        return f"{name:24s} {values[0]:.6g} {unit}"
    return (f"{name:24s} median {statistics.median(values):.6g} {unit} "
            f"(min {min(values):.6g}, max {max(values):.6g}, "
            f"n={len(values)} passes)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        checkout.use_checkout_sources()
    except checkout.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import oracle
    import programs
    workload = programs.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(programs.WORKLOADS)}", file=sys.stderr)
        return 2

    # References: before any timing, from the switch interpreter.
    started = time.perf_counter()
    refs = oracle.References.load(checkout.out_dir())
    inputs, references, exclude = oracle.select_programs(
        workload, args.seed, refs)
    refs.save_cache()
    print(f"workload {workload.name} seed {args.seed}: "
          f"{len(inputs)} programs, {refs.computed} references computed "
          f"in {time.perf_counter() - started:.1f} s", flush=True)
    if exclude:
        print(f"left out (reference runs past "
              f"{workload.max_instructions} instructions): "
              f"{', '.join(exclude)}")

    untraced, traced = [], []
    spans_path = checkout.out_dir() / \
        f"spans-{workload.name}-seed{args.seed}.jsonl"
    started = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - started
            enough = (len(traced) >= 1 if args.trace
                      else len(untraced) >= MIN_PASSES)
            if enough and (elapsed >= args.seconds
                           or elapsed >= MAX_MEASURE_S):
                break
            untraced.append(worker_pass(workload.name, args.seed,
                                        exclude))
            if args.trace:
                traced.append(worker_pass(workload.name, args.seed,
                                          exclude, trace=True,
                                          spans=spans_path))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = untraced + traced
    attempted = sum(len(p["programs"]) for p in runs)
    failed = sum(check_pass(p, references) for p in runs)
    problems = []
    for plain, with_spans in zip(untraced, traced):
        problems += trace_mismatches(plain, with_spans)
    for problem in problems:
        print(f"TRACE MISMATCH {problem}", file=sys.stderr)

    if args.trace:
        specs = per_layer_specs()
        metrics = per_layer(untraced, traced)
        print(f"{len(traced)} traced + {len(untraced)} untraced passes; "
              f"rare spans in {spans_path}")
    else:
        specs = END_TO_END
        metrics = end_to_end(untraced, attempted, failed)
        per_pass = {
            "run_s": [pass_seconds(p, "run_s") for p in untraced],
            "run_s (wall)": [pass_seconds(p, "run_s", scaled=False)
                             for p in untraced],
            "setup_s": [pass_seconds(p, "build_s", "init_s")
                        for p in untraced],
            "setup_s (wall)": [
                pass_seconds(p, "build_s", "init_s", scaled=False)
                for p in untraced],
            "host speed": [p["speed"] for p in untraced],
        }
        for name, values in per_pass.items():
            unit = "x nominal" if name == "host speed" else "s"
            print(_describe(name, values, unit))
        print(_describe("fail_frac", [_ratio(failed, attempted)], "ratio"))
    for name, unit, better in specs:
        print(f"{name:44s} {metrics[name]:>14.6g} {unit:8s} "
              f"({better} is better)")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
