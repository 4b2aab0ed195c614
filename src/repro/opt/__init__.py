"""Trace optimization (the paper's future-work step, implemented).

Flattens cached traces to a guarded linear IR, runs peephole passes
(goto elimination, constant folding, IINC fusion, push/pop removal)
and, once a trace is hot, template-compiles the result into a
specialized Python function (:mod:`codegen` + :mod:`codecache`) with
block-exact semantics and accounting.  Until then — or when codegen
declines it — the trace runs block by block (:func:`run_compiled`).
"""

from .codecache import CodeCache, CodegenStats
from .codegen import LoweredTrace, lower
from .executor import run_compiled
from .flatten import FlattenError, flatten
from .ir import CompiledTrace, TraceInstr
from .optimizer import OptimizerStats, TraceOptimizer
from .passes import (drop_push_pop, fold_constants, forward_store_load,
                     fuse_iinc, optimize)

__all__ = ["run_compiled", "FlattenError", "flatten", "CompiledTrace",
           "TraceInstr", "OptimizerStats", "TraceOptimizer",
           "CodeCache", "CodegenStats", "LoweredTrace", "lower",
           "drop_push_pop", "fold_constants", "forward_store_load",
           "fuse_iinc", "optimize"]
