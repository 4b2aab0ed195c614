"""Unit tests for the template-compilation backend (codegen + cache)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core import TraceCacheConfig, TraceController
from repro.core.trace import Trace
from repro.jvm import (StepLimitExceeded, SwitchInterpreter,
                       ThreadedInterpreter)
from repro.jvm.basicblock import (KIND_COND, KIND_FALL, KIND_GOTO,
                                  KIND_INVOKE, KIND_RETURN, KIND_SWITCH,
                                  KIND_THROW)
from repro.jvm.bytecode import Op
from repro.jvm.intrinsics import NativeMethod
from repro.jvm.threaded import execute_block
from repro.lang import compile_source
from repro.opt import CodeCache, TraceOptimizer, lower, run_compiled
from repro.opt.ir import CompiledTrace, TraceInstr
from repro.workloads import WORKLOAD_NAMES, load_workload
from tests.conftest import int_main
from tests.opt.test_optimized_execution import (dynamic_path, length,
                                                machine_at)

AGGRESSIVE = dict(start_state_delay=4, decay_period=16)


def run_py(source: str, compile_threshold: int = 1):
    controller = TraceController(
        compile_source(source),
        TraceCacheConfig(optimize_traces=True,
                         compile_threshold=compile_threshold,
                         **AGGRESSIVE))
    return controller, controller.run()


TWIN_LOOPS = """
    class Main {
        static int loopA(int n) {
            int s = 0;
            for (int i = 0; i < n; i = i + 1) { s = (s + i) & 4095; }
            return s;
        }
        static int loopB(int n) {
            int s = 0;
            for (int i = 0; i < n; i = i + 1) { s = (s + i) & 4095; }
            return s;
        }
        static int main() { return loopA(3000) + loopB(3000); }
    }
"""


class TestCodeCacheSharing:
    def test_identical_shapes_share_code_objects(self):
        controller, result = run_py(TWIN_LOOPS)
        stats = result.stats
        # Two structurally identical hot loops: at least one compile
        # must be served from the cache instead of compile()d again.
        assert stats.codegen_traces_compiled >= 2
        assert stats.codegen_cache_hits >= 1
        assert stats.codegen_cache_misses >= 1
        codecache = controller.optimizer.codecache
        assert stats.codegen_cache_misses == len(codecache)

    def test_lowering_is_deterministic(self):
        a, _ = run_py(TWIN_LOOPS)
        b, _ = run_py(TWIN_LOOPS)
        assert (set(a.optimizer.codecache._code)
                == set(b.optimizer.codecache._code))

    def test_shapes_are_shared_across_cache_instances(self):
        # The process-wide memo: a second VM compiling the same trace
        # shapes adopts the code objects the first VM paid for, so it
        # spends no time inside compile() — the warm-start property
        # fresh-VM benchmark reps and fleet workers rely on.
        a, ra = run_py(TWIN_LOOPS)
        b, rb = run_py(TWIN_LOOPS)
        sb = b.optimizer.codecache.stats
        assert sb.shared_hits == sb.cache_misses > 0
        assert sb.compile_seconds == 0.0
        # Per-instance accounting is unchanged by the memo.
        assert sb.cache_misses == len(b.optimizer.codecache)
        assert sb.source_bytes > 0
        assert ra.value == rb.value

    def test_distinct_constants_are_distinct_shapes(self):
        # Literal operands are part of the source text, so loops that
        # differ only in a mask constant must not share code objects.
        controller, _ = run_py("""
            class Main {
                static int loopA(int n) {
                    int s = 0;
                    for (int i = 0; i < n; i = i + 1) {
                        s = (s + i) & 4095;
                    }
                    return s;
                }
                static int loopB(int n) {
                    int s = 0;
                    for (int i = 0; i < n; i = i + 1) {
                        s = (s + i) & 2047;
                    }
                    return s;
                }
                static int main() { return loopA(3000) + loopB(3000); }
            }
        """)
        sources = list(controller.optimizer.codecache._code)
        assert any("2047" in src for src in sources)
        assert any("4095" in src for src in sources)


class TestSideExits:
    def test_guard_exits_counted_per_guard(self):
        controller, result = run_py("""
            class A { int f(int x) { return x + 1; } }
            class B extends A { int f(int x) { return x * 2; } }
            class Main {
                static int main() {
                    A[] objs = new A[3];
                    objs[0] = new A();
                    objs[1] = new B();
                    objs[2] = new A();
                    int s = 0;
                    for (int i = 0; i < 5000; i = i + 1) {
                        s = (s + objs[i % 3].f(i)) & 65535;
                    }
                    return s;
                }
            }
        """)
        assert result.stats.codegen_side_exits > 0
        exits = [c.side_exit_counts
                 for c in controller.optimizer.compiled.values()
                 if c.side_exit_counts]
        assert any(sum(counts) > 0 for counts in exits)
        # The stat is exactly the sum over installed functions.
        assert result.stats.codegen_side_exits == \
            sum(sum(counts) for counts in exits)


class TestLazyCompilation:
    def test_cold_traces_never_pay_codegen(self):
        _, result = run_py(int_main(
            "int s = 0;"
            "for (int i = 0; i < 3000; i = i + 1) { s = (s + i) & 255; }"
            "return s;"), compile_threshold=10 ** 9)
        assert result.stats.traces_compiled > 0         # IR forms exist
        assert result.stats.codegen_traces_compiled == 0

    def test_hot_traces_compile(self):
        _, result = run_py(int_main(
            "int s = 0;"
            "for (int i = 0; i < 3000; i = i + 1) { s = (s + i) & 255; }"
            "return s;"), compile_threshold=2)
        assert result.stats.codegen_traces_compiled > 0
        assert result.stats.codegen_source_bytes > 0


class TestInvalidation:
    def test_sink_wired_to_optimizer(self):
        controller, _ = run_py(TWIN_LOOPS)
        assert controller.cache.invalidation_sink == \
            controller.optimizer.invalidate

    def test_invalidate_drops_generated_code(self):
        controller, _ = run_py(TWIN_LOOPS)
        optimizer = controller.optimizer
        trace, compiled = next(
            (t, optimizer.compiled[id(t)])
            for t in controller.cache.traces.values()
            if id(t) in optimizer.compiled
            and optimizer.compiled[id(t)].py_fn is not None)
        optimizer.invalidate(trace)
        assert id(trace) not in optimizer.compiled
        assert compiled.py_fn is None


class TestUncompilable:
    def _bogus_trace(self):
        return CompiledTrace(
            trace=SimpleNamespace(blocks=(None, None)),
            instrs=[TraceInstr("no-such-kind")],
            final_block=None,
            original_instr_count=2,
            block_weight_prefix=[0, 1])

    def test_lower_declines_unknown_kinds(self):
        assert lower(self._bogus_trace()) is None

    def test_install_marks_and_counts(self):
        cache = CodeCache()
        compiled = self._bogus_trace()
        assert cache.install(compiled) is None
        assert compiled.py_uncompilable
        assert cache.stats.traces_uncompilable == 1

    def test_backend_fn_falls_back_forever(self):
        optimizer = TraceOptimizer(compile_threshold=1)
        compiled = self._bogus_trace()
        compiled.executions = 10
        assert optimizer.backend_fn(compiled) is None
        assert optimizer.backend_fn(compiled) is None   # cached decline
        assert optimizer.codecache.stats.traces_uncompilable == 1


class TestWrapElision:
    def test_masked_addition_drops_wrap_int(self):
        controller, result = run_py(int_main(
            "int s = 0;"
            "for (int i = 0; i < 3000; i = i + 1) {"
            "  s = ((s & 255) + (i & 255)) & 1023;"
            "}"
            "return s;"))
        ref = ThreadedInterpreter(
            compile_source(int_main(
                "int s = 0;"
                "for (int i = 0; i < 3000; i = i + 1) {"
                "  s = ((s & 255) + (i & 255)) & 1023;"
                "}"
                "return s;"))).run()
        assert result.value == ref.result
        sources = list(controller.optimizer.codecache._code)
        # Interval analysis proves (x & 255) + (y & 255) <= 510 fits a
        # Java int, so the hot-loop source carries the raw addition.
        assert any("& 255) + (" in src and "wrap_int((" not in src
                   for src in sources)


# One program whose run ends blocks in every final-block kind codegen
# lowers: both conditional arms, goto, fallthrough, both switch arms,
# static/special/virtual/native calls, void and value returns (and the
# entry frame's return), and throws caught in the same frame and in a
# caller.
ALL_FINAL_KINDS = """
    class Box {
        int v;
        Box(int v) { this.v = v; }
        int get() { return v; }
    }
    class Main {
        static int total;
        static void bump(int x) { total = (total + x) & 65535; }
        static int twice(int x) { return x + x; }
        static void boom(int i) { if (i % 7 == 0) { throw new Exception(); } }
        static int main() {
            int s = 0;
            for (int i = 0; i < 60; i = i + 1) {
                if (i % 3 == 0) { s = s + 1; } else { s = s + 2; }
                switch (i % 5) {
                    case 0: s = s + 3; break;
                    case 1: s = s + 4; break;
                    case 2: s = s + 5; break;
                    default: s = s - 1;
                }
                Box b = new Box(i);
                s = (s + b.get() + twice(i)) & 65535;
                bump(s);
                s = s + Sys.abs(0 - i);
                Sys.print(s);
                try { throw new Exception(); } catch (Exception e) { s = s + 1; }
                try { boom(i); } catch (Exception e) { s = s + 2; }
            }
            return s + total;
        }
    }
"""


def _term(block):
    return block.method.code[block.end - 1]


def _invokes(op):
    return lambda b, n: (b.kind == KIND_INVOKE and _term(b).op is op
                         and type(_term(b).a) is not NativeMethod)


# Final-block kind -> predicate on (block, the successor it picked).
FINAL_KINDS = {
    "cond-taken": lambda b, n: b.kind == KIND_COND and n is b.succ_target,
    "cond-not-taken": lambda b, n: b.kind == KIND_COND and n is b.succ_fall,
    "goto": lambda b, n: b.kind == KIND_GOTO,
    "fall": lambda b, n: b.kind == KIND_FALL,
    "switch-in-range": lambda b, n: (b.kind == KIND_SWITCH
                                     and n is not b.switch_default),
    "switch-default": lambda b, n: (b.kind == KIND_SWITCH
                                    and n is b.switch_default),
    "invokestatic": _invokes(Op.INVOKESTATIC),
    "invokespecial": _invokes(Op.INVOKESPECIAL),
    "invokevirtual": _invokes(Op.INVOKEVIRTUAL),
    "native": lambda b, n: (b.kind == KIND_INVOKE
                            and type(_term(b).a) is NativeMethod),
    "void-return": lambda b, n: _term(b).op is Op.RETURN,
    "value-return": lambda b, n: (_term(b).op is Op.IRETURN
                                  and n is not None),
    "program-end": lambda b, n: b.kind == KIND_RETURN and n is None,
    "throw-same-frame": lambda b, n: (b.kind == KIND_THROW
                                      and n.method is b.method),
    "throw-to-caller": lambda b, n: (b.kind == KIND_THROW
                                     and n.method is not b.method),
}


def _outcome(program, machine):
    return (machine.result, machine.output, machine.instr_count,
            program.statics_snapshot())


class TestFinalBlock:
    """The last trace block is lowered into the generated function:
    no guard, and the successor it picks is returned directly."""

    @pytest.fixture(scope="class")
    def program(self):
        return compile_source(ALL_FINAL_KINDS)

    @pytest.fixture(scope="class")
    def path(self, program):
        return dynamic_path(program) + [None]

    @pytest.fixture(scope="class")
    def reference(self, program):
        return _outcome(program, SwitchInterpreter(program).run())

    @staticmethod
    def _window(path, kind):
        """A 3-block trace of `path` whose final block is `kind`."""
        end = next(j for j in range(2, len(path) - 1)
                   if FINAL_KINDS[kind](path[j], path[j + 1]))
        return end - 2, path[end - 2:end + 1]

    @staticmethod
    def _install(blocks):
        compiled = TraceOptimizer().get(
            Trace(tuple(blocks), (), 1.0, serial=0))
        source = lower(compiled).source
        return compiled, source, CodeCache().install(compiled)

    @pytest.mark.parametrize("kind", sorted(FINAL_KINDS))
    def test_kind_matches_interpreter(self, kind, program, path,
                                      reference):
        start, blocks = self._window(path, kind)
        compiled, source, fn = self._install(blocks)
        assert "execute_block" not in source
        machine = machine_at(program, path, start)
        frame = machine.frames[-1]
        successor = path[start + 3]
        assert fn(machine, frame, frame.stack, frame.locals) == \
            (3, successor, True)
        assert compiled.guard_failures == 0
        block = successor
        while block is not None:
            block = execute_block(machine, block)
        assert _outcome(program, machine) == reference

    def test_step_limit_inside_final_block(self, program, path):
        # Any 3-block window whose final block is longer than one
        # instruction; the limit sits just before that block.
        start, blocks = next(
            (j, path[j:j + 3]) for j in range(len(path) - 3)
            if path[j + 2].length > 1)
        _, _, fn = self._install(blocks)
        trace = Trace(tuple(blocks), (), 1.0, serial=0)

        def generated(machine):
            frame = machine.frames[-1]
            fn(machine, frame, frame.stack, frame.locals)

        def cold(machine):
            run_compiled(machine, CompiledTrace(trace=trace))

        counts = []
        for run in (generated, cold):
            machine = machine_at(program, path, start)
            limit = machine.instr_count + length(blocks[:2])
            machine.max_instructions = limit
            with pytest.raises(StepLimitExceeded):
                run(machine)
            counts.append(machine.instr_count)
        assert counts == [limit + blocks[2].length] * 2

    def test_whole_run_matches_interpreter(self, program, reference):
        controller, result = run_py(ALL_FINAL_KINDS)
        assert _outcome(controller.program, result.machine) == reference
        sources = list(controller.optimizer.codecache._code)
        assert sources
        assert not any("execute_block" in src for src in sources)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_no_interpreted_tail_on_workloads(self, name):
        controller = TraceController(
            load_workload(name, "tiny"),
            TraceCacheConfig(optimize_traces=True))
        result = controller.run()
        assert result.stats.codegen_uncompilable == 0
        compiled = list(controller.optimizer.compiled.values())
        assert compiled
        for record in compiled:
            assert "execute_block" not in lower(record).source
