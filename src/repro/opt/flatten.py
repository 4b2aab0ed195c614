"""Trace flattening: block sequence -> guarded linear IR.

The last trace block needs no guard (its successor is unconstrained —
the trace is complete either way), so the flattened stream covers
``trace.blocks[:-1]``, each internal terminator rewritten as described
in :mod:`repro.opt.ir`.  The last block is kept as
``CompiledTrace.final_block``; codegen lowers it unguarded, and the
optimizer's savings count only the flattened blocks.
"""

from __future__ import annotations

from ..jvm.basicblock import (KIND_COND, KIND_FALL, KIND_GOTO,
                              KIND_INVOKE, KIND_RETURN, KIND_SWITCH,
                              KIND_THROW)
from ..jvm.bytecode import Op
from ..jvm.intrinsics import NativeMethod
from .ir import (CompiledTrace, FlattenError, K_CALL, K_GUARD_COND,
                 K_GUARD_SWITCH, K_NATIVE, K_RET, K_SIMPLE, K_THROW,
                 K_VCALL, TraceInstr)


class _Emitter:
    """Accumulates IR instructions, carrying the weight of eliminated
    originals (gotos, folded ops) onto the next emitted instruction."""

    def __init__(self) -> None:
        self.instrs: list[TraceInstr] = []
        self.pending_weight = 0

    def emit(self, instr: TraceInstr) -> TraceInstr:
        instr.weight += self.pending_weight
        self.pending_weight = 0
        self.instrs.append(instr)
        return instr

    def skip(self, weight: int = 1) -> None:
        self.pending_weight += weight


def flatten(trace) -> CompiledTrace:
    """Flatten `trace` into a CompiledTrace (raises FlattenError when a
    static successor contradicts the trace — a constructor bug guard)."""
    blocks = trace.blocks
    if len(blocks) < 2:
        raise FlattenError("trace too short to flatten")
    emitter = _Emitter()
    original = 0

    for ordinal, block in enumerate(blocks[:-1]):
        expected = blocks[ordinal + 1]
        code = block.method.code
        original += block.length

        body_end = block.end if block.kind == KIND_FALL else block.end - 1
        for index in range(block.start, body_end):
            emitter.emit(TraceInstr(
                K_SIMPLE, op=code[index].op, a=code[index].a,
                b=code[index].b, ordinal=ordinal, origin_index=index))

        if block.kind == KIND_FALL:
            if block.succ_fall is not expected:
                raise FlattenError(
                    f"fall successor {block.succ_fall} != {expected}")
            continue

        term = code[block.end - 1]
        term_index = block.end - 1
        kind = block.kind

        if kind == KIND_GOTO:
            if block.succ_target is not expected:
                raise FlattenError("goto target mismatch")
            emitter.skip()   # the goto disappears entirely
        elif kind == KIND_COND:
            if block.succ_target is expected:
                expect_taken = True
            elif block.succ_fall is expected:
                expect_taken = False
            else:
                raise FlattenError("conditional successor mismatch")
            emitter.emit(TraceInstr(
                K_GUARD_COND, op=term.op, ordinal=ordinal,
                origin_index=term_index, expect_taken=expect_taken,
                taken_block=block.succ_target,
                fall_block=block.succ_fall))
        elif kind == KIND_SWITCH:
            emitter.emit(TraceInstr(
                K_GUARD_SWITCH, op=term.op, a=term.a, ordinal=ordinal,
                origin_index=term_index, switch_block=block,
                expected=expected))
        elif kind == KIND_INVOKE:
            _flatten_invoke(emitter, block, term, term_index, ordinal,
                            expected)
        elif kind == KIND_RETURN:
            emitter.emit(TraceInstr(
                K_RET, op=term.op, ordinal=ordinal,
                origin_index=term_index, expected=expected))
        elif kind == KIND_THROW:
            emitter.emit(TraceInstr(
                K_THROW, op=term.op, ordinal=ordinal,
                origin_index=term_index, expected=expected))
        else:
            raise FlattenError(f"unknown block kind {kind}")

    prefix = [0]
    for block in blocks[:-1]:
        prefix.append(prefix[-1] + block.length)
    compiled = CompiledTrace(
        trace=trace,
        instrs=emitter.instrs,
        final_block=blocks[-1],
        tail_weight=emitter.pending_weight,
        original_instr_count=original,
        block_weight_prefix=prefix,
    )
    return compiled


def _flatten_invoke(emitter, block, term, term_index, ordinal,
                    expected) -> None:
    op = term.op
    if op is Op.INVOKESTATIC:
        target = term.a
        if type(target) is NativeMethod:
            # Natives stay inline; control continues in this frame.
            if block.continuation is not expected:
                raise FlattenError("native continuation mismatch")
            emitter.emit(TraceInstr(
                K_NATIVE, op=op, a=target, b=term.b, ordinal=ordinal,
                origin_index=term_index))
            return
        if target.entry_block is not expected:
            raise FlattenError("static call entry mismatch")
        emitter.emit(TraceInstr(
            K_CALL, op=op, a=target, b=term.b, ordinal=ordinal,
            origin_index=term_index, continuation=block.continuation))
        return
    if op is Op.INVOKESPECIAL:
        target = term.a
        if target.entry_block is not expected:
            raise FlattenError("special call entry mismatch")
        emitter.emit(TraceInstr(
            K_CALL, op=op, a=target, b=term.b, ordinal=ordinal,
            origin_index=term_index, continuation=block.continuation))
        return
    # Virtual: the callee depends on the receiver — guard it.
    emitter.emit(TraceInstr(
        K_VCALL, op=op, a=term.a, b=term.b, ordinal=ordinal,
        origin_index=term_index, continuation=block.continuation,
        expected=expected))
