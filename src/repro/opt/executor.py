"""Block-by-block execution of an optimized trace that has no
generated function yet.

A trace below ``compile_threshold`` (or one codegen declines) runs its
original blocks through the threaded interpreter: a trace's meaning is
its blocks' semantics, so no second executor for the guarded IR is
needed.  The optimizer record's counters are kept as the generated code
keeps them, so hotness (``executions``) and dynamic savings
(``executions - guard_failures``) do not depend on which path ran.

Returns ``(blocks_executed, successor_block, completed)`` with the same
meaning as the controller's plain trace dispatch.
"""

from __future__ import annotations

from ..jvm.threaded import execute_block
from .ir import CompiledTrace


def run_compiled(machine, compiled: CompiledTrace):
    """Run `compiled.trace` block by block; see module docs.

    Leaving the trace for an off-trace successor counts one guard
    failure; leaving because the program ended does not.
    """
    compiled.executions += 1
    blocks = compiled.trace.blocks
    count = len(blocks)
    executed = 0
    current = blocks[0]
    while True:
        nxt = execute_block(machine, current)
        executed += 1
        if executed == count:
            return executed, nxt, True
        if nxt is None:
            return executed, None, False
        if nxt is not blocks[executed]:
            compiled.guard_failures += 1
            return executed, nxt, False
        current = nxt
