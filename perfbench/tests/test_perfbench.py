"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

They check that the benchmark measures what it claims: deterministic
metrics repeat at one seed, tracing changes nothing the VM does, the
oracle catches a wrong reference, each run starts with an empty
compile memo, and the seed changes data but not code shape.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checkout  # noqa: E402

checkout.use_checkout_sources()

import oracle  # noqa: E402
import programs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from layers import LayerTracer  # noqa: E402
from repro.core import controller as controller_module  # noqa: E402
from repro.jvm import threaded  # noqa: E402
from repro.obs.bus import EventBus  # noqa: E402
from repro.opt import codegen, executor  # noqa: E402

DETERMINISTIC = ("coverage", "completion_rate", "dispatches_per_kinstr",
                 "correct_frac")


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=checkout.ROOT,
                          capture_output=True, text=True, timeout=300)


def _mixed_inputs(genprogs: int = 8) -> list:
    """One linking-heavy mini-Java program plus a few generated ones."""
    mini = programs.program_inputs(programs.WORKLOADS["hot-compiled"], 0)
    gen = programs.program_inputs(programs.WORKLOADS["short-programs"], 0)
    return [item for item in mini if item.pid == "mpegaudiox"] \
        + gen[:genprogs]


def test_two_runs_at_one_seed_agree_on_deterministic_metrics():
    results = []
    for _ in range(2):
        proc = _cli("perfbench/run.py", "--workload", "short-programs",
                    "--seed", "5", "--seconds", "0", "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    first, second = results
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", ["observed", "paper-plain"])
def test_traced_counts_equal_untraced_runstats(workload):
    config = programs.WORKLOADS[workload]
    inputs = _mixed_inputs()
    untraced = worker.run_pass(config, inputs)
    traced = worker.run_pass(config, inputs, LayerTracer())
    assert run.trace_mismatches(untraced, traced) == []
    spans = traced["spans"]
    if workload == "observed":
        assert spans["opt.codegen.body"]["calls"] > 0
        assert spans["jvm.threaded.execute_block.tail"]["calls"] > 0
        assert spans["core.links.record"]["calls"] > 0
        assert spans["obs.bus.emit"]["calls"] == \
            run._sum(traced, "events_emitted")
        assert spans["obs.take_snapshot"]["calls"] > 0
    else:
        assert spans["jvm.threaded.execute_block.trace"]["calls"] > 0
        assert spans["opt.optimizer.get"]["calls"] == 0
    # Instrumentation is undone once each run ends.
    assert controller_module.execute_block is threaded.execute_block
    assert executor.execute_block is threaded.execute_block
    assert codegen.HELPERS["execute_block"] is threaded.execute_block
    assert EventBus.emit.__qualname__ == "EventBus.emit"


def test_corrupted_reference_entry_is_caught_and_counted():
    workload = programs.WORKLOADS["short-programs"]
    inputs = programs.program_inputs(workload, programs.DEFAULT_SEED)[:6]
    refs = oracle.References.load(None)
    corrupt = refs.committed[inputs[1].pid]
    corrupt["value"] = corrupt["value"] + 1
    refs.committed[inputs[4].pid]["instr"] += 3
    references = refs.lookup_all(inputs, workload.max_instructions)
    assert refs.computed == 0       # committed entries were used
    result = worker.run_pass(workload, inputs)
    assert run.check_pass(result, references) == 2
    metrics = run.end_to_end([result], attempted=6, failed=2)
    assert metrics["correct_frac"] == pytest.approx(4 / 6)


def test_reference_is_recomputed_when_the_program_changes():
    workload = programs.WORKLOADS["short-programs"]
    item = programs.program_inputs(workload, programs.DEFAULT_SEED)[0]
    refs = oracle.References.load(None)
    refs.committed[item.pid]["key"] = "stale"
    entry = refs.lookup_all([item], workload.max_instructions)[item.pid]
    assert refs.computed == 1
    assert entry["outcome"] == "return"
    assert oracle.mismatches(entry, worker.run_pass(
        workload, [item])["programs"][0]) == []


def test_computed_references_match_and_leave_no_process_behind():
    workload = programs.WORKLOADS["short-programs"]
    items = programs.program_inputs(workload, programs.DEFAULT_SEED)[:3]
    computed = oracle.compute_references(items, workload.max_instructions)
    assert computed == [oracle.reference_of(item.build(),
                                            workload.max_instructions)
                        for item in items]
    with pytest.raises(ChildProcessError):     # no child, live or exited
        os.waitpid(-1, os.WNOHANG)


def test_fresh_run_starts_with_an_empty_compile_memo():
    proc = _cli("perfbench/worker.py", "--workload", "hot-compiled",
                "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    records = json.loads(proc.stdout.splitlines()[-1])["programs"]
    assert records[0]["layer"]["shared_hits"] == 0
    assert records[0]["stats"]["codegen_cache_misses"] > 0
    # In one process, a second VM adopts the shapes the first compiled.
    item = _mixed_inputs(genprogs=0)
    workload = programs.WORKLOADS["hot-compiled"]
    again = worker.run_pass(workload, item + item)["programs"]
    assert again[1]["layer"]["shared_hits"] > 0


def test_seed_changes_one_data_literal_and_no_code_shape():
    workload = programs.WORKLOADS["hot-compiled"]
    default = programs.program_inputs(workload, programs.DEFAULT_SEED)
    seeded = programs.program_inputs(workload, 7)
    for base, other in zip(default, seeded):
        assert base.source == programs.reseed_source(base.source, 0)
        changed = [(a, b) for a, b in zip(base.source.splitlines(),
                                          other.source.splitlines())
                   if a != b]
        assert len(changed) == 1, base.pid
    gen = programs.WORKLOADS["short-programs"]
    pids0 = [i.pid for i in programs.program_inputs(gen, 0)]
    pids1 = [i.pid for i in programs.program_inputs(gen, 1)]
    assert len(pids0) == len(pids1) == programs.SHORT_PROGRAMS
    assert pids1 == pids0[1:] + [f"genprog:{programs.SHORT_PROGRAMS}"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot-compiled",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no repro sources" in proc.stderr


def test_benchmark_json_lists_exactly_the_metrics_run_prints():
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(programs.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == run.per_layer_specs()
