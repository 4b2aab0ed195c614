"""The trace cache (Section 4.2 of the paper).

Responds to profiler signals by reconstructing exactly the traces a
changed branch can affect: invalidate traces through the node, find the
affected entry points, rebuild along maximum-likelihood paths, dedup
against the hash table, and re-link anchors.  Finally the summaries of
every examined node are refreshed so the reconstruction itself cannot
trigger a cascade of further signals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .completion import cut_by_threshold
from .config import TraceCacheConfig
from .constructor import (build_node_sequences, find_entry_points,
                          max_likelihood_walk)
from .profiler import Profiler
from .trace import Trace


@dataclass(slots=True)
class TraceCacheStats:
    signals_handled: int = 0
    traces_constructed: int = 0
    traces_linked: int = 0          # hash-table hits (dedup reuse)
    anchors_set: int = 0
    anchors_replaced: int = 0       # stability: anchor had another trace
    traces_invalidated: int = 0
    superblocks_grown: int = 0      # k-iteration promotions of hot loops
    superblocks_demoted: int = 0    # promotions undone (bet lost)
    nodes_examined: int = 0
    entry_points_found: int = 0
    traces_per_signal: list[int] = field(default_factory=list)


class TraceCache:
    """Hash-table of traces keyed by block-id sequence, with anchor
    links into the branch correlation graph."""

    def __init__(self, config: TraceCacheConfig,
                 profiler: Profiler, bus=None) -> None:
        self.config = config
        self.profiler = profiler
        self.bus = bus              # repro.obs EventBus, or None
        self.traces: dict[tuple, Trace] = {}
        # node key -> set of anchor node keys whose trace contains it.
        self.node_to_anchors: dict[tuple, set[tuple]] = {}
        # Called with each Trace this cache unlinks, so downstream
        # compilation layers (IR optimizer, codegen) can drop
        # their compiled forms of it.
        self.invalidation_sink = None
        # The trace-to-trace linker (repro.core.links), when linking is
        # enabled; the cache severs a trace's links whenever it unlinks
        # or replaces the trace.
        self.linker = None
        self.stats = TraceCacheStats()
        self._serial = 0

    def __len__(self) -> int:
        return len(self.traces)

    # ------------------------------------------------------------------
    def on_signal(self, node, old_summary, new_summary) -> None:
        """Profiler signal entry point: rebuild what the change affects."""
        stats = self.stats
        stats.signals_handled += 1
        constructed_before = stats.traces_constructed
        self._invalidate_through(node)

        bcg = self.profiler.bcg
        entries = find_entry_points(bcg, node, self.config)
        stats.entry_points_found += len(entries)
        bus = self.bus
        examined: dict[tuple, object] = {}
        for entry in entries:
            if bus is not None:
                bus.emit("constructor.walk_started", entry=entry.key,
                         signal_node=node.key)
            path, loop_start = max_likelihood_walk(entry, self.config)
            for n in path:
                examined[n.key] = n
            for sequence in build_node_sequences(path, loop_start,
                                                 self.config):
                self._cut_and_install(sequence)

        # Cascade prevention: everything examined is now up to date.
        for n in examined.values():
            self.profiler.refresh_summary(n)
        stats.nodes_examined += len(examined)
        stats.traces_per_signal.append(
            stats.traces_constructed - constructed_before)

    # ------------------------------------------------------------------
    def _cut_and_install(self, sequence) -> None:
        chunks = cut_by_threshold(sequence, self.config.threshold,
                                  self.config.max_trace_blocks)
        bus = self.bus
        for chunk, probability in chunks:
            if len(chunk) >= self.config.min_trace_blocks:
                if bus is not None:
                    bus.emit("constructor.walk_cut",
                             blocks=[n.dst for n in chunk],
                             probability=round(probability, 6))
                self._install(chunk, probability)
            elif bus is not None:
                bus.emit("constructor.walk_aborted",
                         blocks=[n.dst for n in chunk],
                         reason="below_min_blocks")

    def _install(self, chunk, probability: float) -> Trace:
        stats = self.stats
        bus = self.bus
        key = tuple(n.dst for n in chunk)
        trace = self.traces.get(key)
        if trace is None:
            self._serial += 1
            trace = Trace(
                blocks=tuple(n.dst_block for n in chunk),
                node_keys=tuple(n.key for n in chunk),
                expected_completion=probability,
                serial=self._serial,
            )
            self.traces[key] = trace
            stats.traces_constructed += 1
            if bus is not None:
                bus.emit("cache.trace_created", serial=trace.serial,
                         blocks=list(key),
                         expected_completion=round(probability, 6))
        else:
            stats.traces_linked += 1
            if bus is not None:
                bus.emit("cache.trace_linked", serial=trace.serial,
                         blocks=list(key))

        anchor = chunk[0]
        if anchor.trace is not trace:
            if anchor.trace is not None:
                stats.anchors_replaced += 1
                # The replaced trace loses its dispatch site; any links
                # routing into or out of it are stale policy now.
                if self.linker is not None:
                    self.linker.sever(anchor.trace)
            anchor.trace = trace
            stats.anchors_set += 1
        for n in chunk:
            self.node_to_anchors.setdefault(n.key, set()).add(anchor.key)
        return trace

    def _invalidate_through(self, node) -> None:
        """Unlink every anchored trace that contains `node`."""
        anchors = self.node_to_anchors.pop(node.key, None)
        if not anchors:
            return
        bcg = self.profiler.bcg
        bus = self.bus
        unlinked = []
        for anchor_key in anchors:
            anchor = bcg.nodes.get(anchor_key)
            if anchor is not None and anchor.trace is not None:
                unlinked.append(anchor.trace)
                anchor.trace = None
                self.stats.traces_invalidated += 1
                if bus is not None:
                    bus.emit("cache.trace_invalidated",
                             serial=unlinked[-1].serial,
                             anchor=anchor_key, cause=node.key)
        if self.linker is not None:
            for trace in unlinked:
                self.linker.sever(trace)
        if self.invalidation_sink is not None:
            for trace in unlinked:
                self.invalidation_sink(trace)

    # ------------------------------------------------------------------
    # Multi-iteration superblocks (Ball–Larus path correlation across
    # loop back edges): a trace whose completion re-enters its own
    # anchor is regrown as k back-to-back copies so k iterations run as
    # one straight-line unit in generated code.
    SUPERBLOCK_BLOCK_CAP = 512      # hard bound on superblock length
    # Demotion policy: once a superblock has this many entries, a
    # completion rate below DEMOTE_FACTOR of its expectation hands the
    # anchor back to the base trace (the k-iteration bet lost — e.g. a
    # value pattern whose period does not divide k).
    SUPERBLOCK_PROBATION_ENTRIES = 16
    SUPERBLOCK_DEMOTE_FACTOR = 0.5

    def _superblock_failed(self, sb: Trace) -> bool:
        return (sb.entries >= self.SUPERBLOCK_PROBATION_ENTRIES
                and sb.completion_rate < sb.expected_completion
                * self.SUPERBLOCK_DEMOTE_FACTOR)

    def grow_superblock(self, base: Trace):
        """Promote looping `base` to a k-iteration superblock.

        Returns the superblock Trace now holding base's anchor, or
        ``None`` when growth is declined (k would be < 2, or the base
        is no longer anchored).  The base trace stays in the dedup
        table; only its anchor moves.
        """
        config = self.config
        k = min(config.superblock_iters,
                self.SUPERBLOCK_BLOCK_CAP // len(base.blocks))
        if k < 2:
            return None
        anchor = self.profiler.bcg.nodes.get(base.node_keys[0])
        if anchor is None or anchor.trace is not base:
            return None
        stats = self.stats
        key = base.key * k
        sb = self.traces.get(key)
        if sb is not None and self._superblock_failed(sb):
            # This growth was already tried and demoted; don't
            # oscillate — the caller self-links the base instead.
            return None
        if sb is None:
            # Node keys per copy: the first copy keeps the base keys;
            # every later copy enters through the loop back edge.
            back_key = (base.blocks[-1].bid, base.blocks[0].bid)
            node_keys = list(base.node_keys)
            extra = (back_key,) + base.node_keys[1:]
            for _ in range(k - 1):
                node_keys.extend(extra)
            self._serial += 1
            sb = Trace(
                blocks=base.blocks * k,
                node_keys=tuple(node_keys),
                expected_completion=base.expected_completion ** k,
                serial=self._serial,
                iterations=k,
            )
            self.traces[key] = sb
            stats.superblocks_grown += 1
            if self.bus is not None:
                self.bus.emit("trace.superblock_grown", serial=sb.serial,
                              base=base.serial, iterations=k,
                              blocks=list(key))
        else:
            stats.traces_linked += 1
        stats.anchors_replaced += 1
        anchor.trace = sb
        stats.anchors_set += 1
        for node_key in sb.node_keys:
            self.node_to_anchors.setdefault(node_key, set()).add(
                anchor.key)
        # The base lost its dispatch site: links through it are stale.
        if self.linker is not None:
            self.linker.sever(base)
        return sb

    def demote_superblock(self, sb: Trace) -> bool:
        """Hand a failing superblock's anchor back to its base trace.

        Called by the controller when a superblock keeps missing its
        expected completion (:meth:`_superblock_failed`); idempotent,
        returns True when the anchor actually moved.
        """
        if not self._superblock_failed(sb):
            return False
        anchor = self.profiler.bcg.nodes.get(sb.node_keys[0])
        if anchor is None or anchor.trace is not sb:
            return False
        base = self.traces.get(
            sb.key[:len(sb.key) // sb.iterations])
        anchor.trace = base     # None when the base itself was dropped
        stats = self.stats
        stats.superblocks_demoted += 1
        stats.anchors_replaced += 1
        if base is not None:
            stats.anchors_set += 1
        if self.linker is not None:
            self.linker.sever(sb)
        if self.bus is not None:
            self.bus.emit(
                "trace.superblock_demoted", serial=sb.serial,
                entries=sb.entries,
                completion_rate=round(sb.completion_rate, 6),
                expected=round(sb.expected_completion, 6))
        return True

    # ------------------------------------------------------------------
    # Introspection helpers used by examples and experiments.
    def hottest(self, count: int = 10) -> list[Trace]:
        """Traces sorted by entry count, most-entered first."""
        return sorted(self.traces.values(),
                      key=lambda t: t.entries, reverse=True)[:count]

    def static_average_length(self) -> float:
        """Mean block count over all constructed traces."""
        if not self.traces:
            return 0.0
        return sum(len(t) for t in self.traces.values()) / len(self.traces)

    def anchored_traces(self) -> int:
        """Number of nodes currently linking to a trace."""
        return sum(1 for n in self.profiler.bcg.nodes.values()
                   if n.trace is not None)
