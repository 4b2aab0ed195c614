"""Outside-in per-layer tracing of one VM run.

:class:`LayerTracer` wraps the public functions each layer exposes to
the layer above it, after the VM is constructed and before it runs, so
no file under ``src/`` carries tracing code.  Every wrapper records a
span: calls, total time, and the time its child spans covered, so a
layer's self time is its total minus its children.

The per-dispatch spans (the block interpreter, the profiling
statement, generated trace bodies, ...) are aggregated in memory as
those three numbers.  The rare ones (program building, VM
construction, trace construction, compile installs, link installs and
snapshots) are also kept one by one and written out at the end.

Where each wrapper goes follows from how the dispatch loop binds its
callees:

- the loop binds ``repro.core.controller.execute_block``,
  ``profiler.advance`` and ``controller._dispatch_trace`` once at
  entry, so those are replaced before ``run()``;
- generated trace bodies bind ``repro.opt.codegen.HELPERS
  ["execute_block"]`` when ``CodeCache.install`` runs, and the bodies
  themselves are the functions ``install`` returns, so the install
  wrapper wraps its result;
- ``execute_block`` is split by call site (its parent span): the
  controller loop (``block``), an uncompiled trace (``trace``), the
  final block of a generated body (``tail``) and the final block of the
  IR executor (``ir_tail``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.core import controller as controller_module
from repro.obs.bus import EventBus
from repro.opt import codegen as codegen_module
from repro.opt import executor as executor_module

LOOP = "core.controller.loop"
EXECUTE_BLOCK = "jvm.threaded.execute_block"
EXECUTE_BLOCK_SITES = {
    LOOP: "block",
    "core.controller.dispatch_trace": "trace",
    "opt.codegen.body": "tail",
    "opt.executor.run_compiled": "ir_tail",
}

# Every span name the tracer can report, so a metric exists (as zero)
# even on workloads where the layer does no work.
SPANS = (
    "lang.compile", "jvm.build", "api.vm_init", LOOP,
    *(f"{EXECUTE_BLOCK}.{site}" for site in EXECUTE_BLOCK_SITES.values()),
    "core.profiler.advance", "core.profiler.advance_link",
    "core.profiler.resync", "core.trace_cache.on_signal",
    "core.controller.dispatch_trace", "core.links.record",
    "opt.optimizer.get", "opt.codecache.install", "opt.codegen.body",
    "opt.executor.run_compiled", "obs.bus.emit", "obs.take_snapshot",
)


class LayerTracer:
    """Span aggregation for one benchmark pass (any number of VMs)."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        # span name -> [calls, total seconds, child seconds]
        self.totals: dict[str, list] = {name: [0, 0.0, 0.0]
                                        for name in SPANS}
        # Rare spans kept individually: (program, name, start, seconds,
        # self seconds).
        self.rare: list[tuple] = []
        self.program = None
        # Open spans, innermost last: [name, child seconds].  The
        # bottom frame absorbs time spent outside any traced call.
        self._stack: list[list] = [["<outside>", 0.0]]

    def wrap(self, name: str, fn, rare: bool = False, keep=None):
        """`fn` recording a `name` span per call.

        With `rare`, every span is also kept individually; `keep`, if
        given, is called after each call and decides that instead.
        """
        cell = self.totals[name]
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            before = keep() if keep is not None else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += frame[1]
                stack[-1][1] += elapsed
                if rare or (keep is not None and keep() != before):
                    self.rare.append((self.program, name, start, elapsed,
                                      elapsed - frame[1]))
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Call `fn` once inside a kept `name` span."""
        return self.wrap(name, fn, rare=True)(*args, **kwargs)

    def _execute_block(self, fn):
        cells = {parent: self.totals[f"{EXECUTE_BLOCK}.{site}"]
                 for parent, site in EXECUTE_BLOCK_SITES.items()}
        stack = self._stack
        clock = self.clock

        def traced(machine, block):
            # execute_block calls no traced function: no frame needed.
            parent = stack[-1]
            start = clock()
            try:
                return fn(machine, block)
            finally:
                elapsed = clock() - start
                cell = cells[parent[0]]
                cell[0] += 1
                cell[1] += elapsed
                parent[1] += elapsed
        return traced

    # ------------------------------------------------------------------
    @contextmanager
    def instrument(self, vm):
        """Wrap `vm`'s layers for the duration of the block.

        Instance attributes are replaced on this VM's own objects;
        module and class attributes are restored on exit.
        """
        ctl = vm.controller
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        block_fn = self._execute_block(controller_module.execute_block)
        patch(controller_module, "execute_block", block_fn)
        patch(executor_module, "execute_block", block_fn)
        helpers = codegen_module.HELPERS
        saved_helper = helpers["execute_block"]
        helpers["execute_block"] = block_fn

        profiler = ctl.profiler
        profiler.advance = self.wrap("core.profiler.advance",
                                     profiler.advance)
        profiler.advance_link = self.wrap("core.profiler.advance_link",
                                          profiler.advance_link)
        profiler.resync = self.wrap("core.profiler.resync",
                                    profiler.resync)
        profiler.signal_sink = self.wrap("core.trace_cache.on_signal",
                                         profiler.signal_sink, rare=True)
        ctl._dispatch_trace = self.wrap("core.controller.dispatch_trace",
                                        ctl._dispatch_trace)
        linker = ctl._linker
        if linker is not None:
            linker.record = self.wrap(
                "core.links.record", linker.record,
                keep=lambda: linker.stats.links_installed)
        optimizer = ctl.optimizer
        if optimizer is not None:
            optimizer.get = self.wrap("opt.optimizer.get", optimizer.get)
            ctl._run_compiled = self.wrap("opt.executor.run_compiled",
                                          ctl._run_compiled)
            codecache = optimizer.codecache
            if codecache is not None:
                codecache.install = self._install(codecache.install)
        if vm.obs is not None:
            vm.obs.take_snapshot = self.wrap("obs.take_snapshot",
                                             vm.obs.take_snapshot,
                                             rare=True)
            patch(EventBus, "emit", self.wrap("obs.bus.emit",
                                              EventBus.emit))
        try:
            yield
        finally:
            helpers["execute_block"] = saved_helper
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def _install(self, install):
        traced_install = self.wrap("opt.codecache.install", install,
                                   rare=True)

        def install_and_wrap(compiled):
            fn = traced_install(compiled)
            if fn is not None:
                fn = compiled.py_fn = self.wrap("opt.codegen.body", fn)
            return fn
        return install_and_wrap

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """``{span: {"calls", "total_s", "self_s"}}`` over the pass."""
        return {name: {"calls": calls, "total_s": total,
                       "self_s": total - child}
                for name, (calls, total, child) in self.totals.items()}
