"""Optimized-trace execution: full differential equivalence, and the
block loop that runs traces not yet compiled."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TraceCacheConfig, run_traced
from repro.core.trace import Trace
from repro.jvm import StepLimitExceeded, ThreadedInterpreter
from repro.core import TraceController
from repro.jvm.threaded import Machine, execute_block
from repro.lang import compile_source
from repro.opt import CompiledTrace, TraceOptimizer, run_compiled
from repro.workloads import WORKLOAD_NAMES, load_workload
from tests.conftest import int_main
from tests.test_integration import _branchy_program

AGGRESSIVE = dict(start_state_delay=4, decay_period=16)


def both_runs(program):
    ref = ThreadedInterpreter(program).run()
    plain = run_traced(program, TraceCacheConfig(**AGGRESSIVE))
    opt = run_traced(program, TraceCacheConfig(optimize_traces=True,
                                               **AGGRESSIVE))
    return ref, plain, opt


class TestEquivalence:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workloads(self, name):
        program = load_workload(name, "tiny")
        ref = ThreadedInterpreter(program).run()
        opt = run_traced(program, TraceCacheConfig(optimize_traces=True))
        assert opt.value == ref.result, name
        assert opt.output == ref.output, name
        assert opt.stats.instr_total == ref.instr_count, name

    def test_loop_with_exceptions(self):
        program = compile_source("""
            class Main {
                static int main() {
                    int total = 0;
                    for (int i = 0; i < 4000; i = i + 1) {
                        try {
                            if (i % 89 == 0) { throw new Exception(); }
                            total = total + 1;
                        } catch (Exception e) { total = total + 50; }
                    }
                    return total;
                }
            }
        """)
        ref, plain, opt = both_runs(program)
        assert opt.value == ref.result
        assert opt.stats.instr_total == ref.instr_count

    def test_polymorphic_guard_failures(self):
        # alternating receivers force virtual-call guard failures
        program = compile_source("""
            class A { int f() { return 1; } }
            class B extends A { int f() { return 2; } }
            class Main {
                static int main() {
                    A[] objs = new A[3];
                    objs[0] = new A();
                    objs[1] = new B();
                    objs[2] = new A();
                    int s = 0;
                    for (int i = 0; i < 5000; i = i + 1) {
                        s = (s + objs[i % 3].f()) & 65535;
                    }
                    return s;
                }
            }
        """)
        ref, plain, opt = both_runs(program)
        assert opt.value == ref.result
        assert opt.stats.instr_total == ref.instr_count
        # same coverage accounting as the unoptimized trace dispatch
        assert abs(opt.stats.coverage - plain.stats.coverage) < 0.15

    def test_step_limit_respected(self):
        program = compile_source(int_main(
            "int i = 0; while (true) { i = i + 1; } return i;"))
        controller = TraceController(
            program, TraceCacheConfig(optimize_traces=True, **AGGRESSIVE),
            max_instructions=30_000)
        with pytest.raises(StepLimitExceeded):
            controller.run()

    @given(st.tuples(st.integers(1, 50), st.integers(1, 50),
                     st.integers(1, 50)),
           st.integers(min_value=50, max_value=300),
           st.integers(min_value=2, max_value=7))
    @settings(max_examples=15, deadline=None)
    def test_generated_programs(self, seeds, loops, mod):
        program = compile_source(_branchy_program(seeds, loops, mod))
        ref = ThreadedInterpreter(program).run()
        opt = run_traced(program, TraceCacheConfig(
            optimize_traces=True, **AGGRESSIVE))
        assert opt.value == ref.result
        assert opt.stats.instr_total == ref.instr_count


class TestOptimizerStats:
    def test_savings_reported(self):
        program = compile_source(int_main(
            "int s = 0;"
            "for (int i = 0; i < 3000; i = i + 1) { s = (s + i) & 255; }"
            "return s;"))
        opt = run_traced(program,
                         TraceCacheConfig(optimize_traces=True,
                                          **AGGRESSIVE))
        assert opt.stats.traces_compiled >= 1
        assert opt.stats.opt_static_savings >= 1   # goto + iinc fusion
        assert opt.stats.opt_dynamic_savings > 0

    def test_disabled_by_default(self, counting_program):
        result = run_traced(counting_program)
        assert result.stats.traces_compiled == 0
        assert result.stats.opt_dynamic_savings == 0

    def test_compilation_cached(self):
        program = compile_source(int_main(
            "int s = 0;"
            "for (int i = 0; i < 2000; i = i + 1) { s = s + 1; }"
            "return s;"))
        result = run_traced(program, TraceCacheConfig(**AGGRESSIVE))
        optimizer = TraceOptimizer()
        traces = list(result.cache.traces.values())
        if not traces:
            pytest.skip("no traces built")
        first = optimizer.get(traces[0])
        second = optimizer.get(traces[0])
        assert first is second
        assert optimizer.stats.traces_compiled == 1

    def test_passes_can_be_disabled(self):
        program = compile_source(int_main(
            "int s = 0;"
            "for (int i = 0; i < 2000; i = i + 1) { s = s + 1; }"
            "return s;"))
        result = run_traced(program, TraceCacheConfig(**AGGRESSIVE))
        traces = list(result.cache.traces.values())
        if not traces:
            pytest.skip("no traces built")
        bare = TraceOptimizer(enable_passes=False).get(traces[0])
        tuned = TraceOptimizer(enable_passes=True).get(traces[0])
        assert bare is not None and tuned is not None
        assert tuned.optimized_instr_count <= bare.optimized_instr_count


RARE_BRANCH = int_main(
    "int s = 0;"
    "for (int i = 0; i < 40; i = i + 1) {"
    "  if (i == 20) { s = s + 7; } else { s = s + 1; }"
    "}"
    "return s;")


def dynamic_path(program):
    """Every block a fresh run of `program` executes, in order."""
    program.reset_statics()
    machine = Machine(program)
    path = []
    block = machine.start()
    while block is not None:
        path.append(block)
        block = execute_block(machine, block)
    return path


def machine_at(program, path, index):
    """A fresh machine that has run ``path[:index]``."""
    program.reset_statics()
    machine = Machine(program)
    block = machine.start()
    for _ in range(index):
        block = execute_block(machine, block)
    assert block is path[index]
    return machine


def record(blocks):
    return CompiledTrace(trace=Trace(tuple(blocks), (), 1.0, serial=0))


def length(blocks):
    return sum(b.length for b in blocks)


class TestRunCompiled:
    """The block loop that runs an optimized trace with no generated
    function: its return value and the record's counters."""

    @pytest.fixture(scope="class")
    def program(self):
        return compile_source(RARE_BRANCH)

    @pytest.fixture(scope="class")
    def path(self, program):
        return dynamic_path(program)

    def test_full_run(self, program, path):
        blocks = path[5:11]
        compiled = record(blocks)
        machine = machine_at(program, path, 5)
        before = machine.instr_count
        assert run_compiled(machine, compiled) == (6, path[11], True)
        assert machine.instr_count - before == length(blocks)
        assert (compiled.executions, compiled.guard_failures) == (1, 0)

    def test_off_trace_successor(self, program, path):
        # A trace of an early iteration, entered on the rare iteration.
        start = 5
        entry, off = next(
            (m, j) for m in range(start + 1, len(path))
            if path[m] is path[start]
            for j in range(1, 8)
            if path[m + j] is not path[start + j])
        compiled = record(path[start:start + 8])
        machine = machine_at(program, path, entry)
        before = machine.instr_count
        assert run_compiled(machine, compiled) == (off, path[entry + off],
                                                   False)
        assert machine.instr_count - before == \
            length(path[entry:entry + off])
        assert (compiled.executions, compiled.guard_failures) == (1, 1)

    def test_program_end_is_not_a_guard_failure(self, program, path):
        compiled = record([path[-2], path[-1], path[0]])
        machine = machine_at(program, path, len(path) - 2)
        assert run_compiled(machine, compiled) == (2, None, False)
        assert (compiled.executions, compiled.guard_failures) == (1, 0)
        assert machine.result == ThreadedInterpreter(program).run().result

    def test_default_threshold_compiles_on_third_dispatch(self, program,
                                                          path):
        threshold = TraceCacheConfig().compile_threshold
        assert threshold == 2
        result = run_traced(program, TraceCacheConfig(**AGGRESSIVE))
        trace = result.cache.hottest(1)[0]
        optimizer = TraceOptimizer(compile_threshold=threshold)
        compiled = optimizer.get(trace)
        entries = [i for i, block in enumerate(path)
                   if block is trace.blocks[0]]
        for dispatch, index in enumerate(entries[:2], start=1):
            assert optimizer.backend_fn(compiled) is None, dispatch
            run_compiled(machine_at(program, path, index), compiled)
        assert compiled.executions == 2
        fn = optimizer.backend_fn(compiled)
        assert fn is not None and compiled.py_fn is fn
        assert optimizer.codecache.stats.traces_compiled == 1
