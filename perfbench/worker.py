"""One benchmark pass, run in a fresh interpreter process.

A pass builds, constructs and runs every program of one workload, one
program at a time, and prints one JSON line: per-program timings,
observed outcome and ``RunStats``, the process's peak resident set,
and (with ``--trace``) the per-layer span summary.  ``run.py`` starts
one process per pass so that the process-wide compile memo
(``CodeCache._shared_code``) starts empty in every pass, as it does in
a user's process.

    python3 perfbench/worker.py --workload hot-compiled --seed 0 [--trace]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
import traceback

import checkout

if __name__ == "__main__":
    checkout.use_checkout_sources()

import oracle
import programs
from layers import LOOP, LayerTracer
from repro.api import VM
from repro.jvm.errors import VMError
from repro.obs import Observability

# RunStats fields that are timings, not deterministic counts.
_TIMING_FIELDS = ("runtime_seconds", "codegen_compile_seconds")

# Host-speed calibration.  The host's speed drifts by tens of percent
# within seconds (other tenants share its cores), so every pass also
# times a fixed pure-Python kernel, independent of repro's code,
# between its programs.  The pass's timings are scaled by
# NOMINAL_KERNEL_S over the mean kernel sample: they read as seconds on
# a host where one kernel call takes NOMINAL_KERNEL_S, about the
# typical speed of a 2.1 GHz Xeon vCPU.
NOMINAL_KERNEL_S = 0.020
KERNEL_ITERATIONS = 32_000
# Kernel samples per pass, spread evenly over its programs (a pass of
# fewer programs samples before each one), plus one at its end.
CALIBRATION_SAMPLES = 12


def _kernel(n: int) -> int:
    stack, table, acc = [], {}, 1
    for i in range(n):
        stack.append(i ^ acc)
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        table[acc & 1023] = stack.pop() + (acc >> 16)
        if acc & 3 == 0:
            stack.append(len(table))
    return acc + len(stack)


def kernel_seconds() -> float:
    started = time.perf_counter()
    _kernel(KERNEL_ITERATIONS)
    return time.perf_counter() - started


def _run(run) -> tuple[dict, object]:
    """Run one program; returns (observation, RunStats or None)."""
    try:
        result = run()
    except VMError as exc:
        return {"outcome": oracle.outcome_of(exc)}, None
    except Exception as exc:   # a VM defect: count it, keep measuring
        traceback.print_exc(file=sys.stderr)
        return {"outcome": oracle.outcome_of(exc)}, None
    stats = result.stats
    return oracle.observation(result.value, result.output,
                              stats.instr_total), stats


def _layer_counts(vm) -> dict:
    """Counts the run leaves on the VM's layers beyond RunStats."""
    optimizer = vm.controller.optimizer
    codecache = optimizer.codecache if optimizer is not None else None
    traces = vm.cache.traces.values()
    return {
        "traces_total": len(traces),
        "traces_entered": sum(1 for trace in traces if trace.entries),
        "shared_hits": codecache.stats.shared_hits if codecache else 0,
    }


def run_pass(workload: programs.Workload, inputs, tracer=None) -> dict:
    """Build, construct and run every program in `inputs` once."""
    clock = time.perf_counter
    config = dict(workload.config,
                  max_instructions=workload.max_instructions)
    events_path = checkout.out_dir() / f"events-{os.getpid()}.jsonl"
    records = []
    stride = max(1, len(inputs) // CALIBRATION_SAMPLES)
    samples = []
    for index, item in enumerate(inputs):
        if index % stride == 0:
            samples.append(kernel_seconds())
        started = clock()
        if tracer is None:
            program = item.build()
        else:
            tracer.program = item.pid
            program = tracer.call(item.build_layer, item.build)
        built = clock()
        obs = None
        if workload.observed:
            obs = Observability(events_path=events_path,
                                snapshot_every=programs.SNAPSHOT_EVERY)
        if tracer is None:
            vm = VM(program, obs=obs, **config)
        else:
            vm = tracer.call("api.vm_init", VM, program, **config,
                             obs=obs)
        constructed = clock()
        if tracer is None:
            observed, stats = _run(vm.run)
            finished = clock()
        else:
            with tracer.instrument(vm):
                observed, stats = _run(
                    lambda: tracer.call(LOOP, vm.run))
                finished = clock()
        vm.close()
        record = {"pid": item.pid, "build_s": built - started,
                  "init_s": constructed - built,
                  "run_s": finished - constructed, **observed}
        if stats is not None:
            counts = dataclasses.asdict(stats)
            for name in _TIMING_FIELDS:
                counts.pop(name)
            record["stats"] = counts
            record["compile_s"] = stats.codegen_compile_seconds
            record["layer"] = _layer_counts(vm)
        records.append(record)
    samples.append(kernel_seconds())
    events_path.unlink(missing_ok=True)
    result = {"programs": records, "kernel_s": samples,
              "speed": NOMINAL_KERNEL_S / statistics.mean(samples),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        result["spans"] = tracer.summary()
    return result


def write_rare_spans(tracer: LayerTracer, path) -> None:
    with open(path, "w") as handle:
        for program, name, start, seconds, self_s in tracer.rare:
            handle.write(json.dumps(
                {"program": program, "span": name, "start": start,
                 "seconds": seconds, "self_s": self_s}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(programs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the kept rare spans here")
    parser.add_argument("--exclude", default="",
                        help="comma-separated program ids to leave out")
    args = parser.parse_args(argv)
    workload = programs.WORKLOADS[args.workload]
    inputs = programs.program_inputs(
        workload, args.seed, frozenset(filter(None,
                                              args.exclude.split(","))))
    tracer = LayerTracer() if args.trace else None
    result = run_pass(workload, inputs, tracer)
    if tracer is not None and args.spans:
        write_rare_spans(tracer, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
