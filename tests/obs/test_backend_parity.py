"""The structural event stream does not depend on how traces run.

Profiling, trace construction, and cache mutations are driven by block
dispatch — whether an installed trace runs as generated code or block
by block must not change what the profiler sees.  Codegen events
(``codegen.*``) are the only permitted differences.
"""

from __future__ import annotations

import pytest

from repro import VM, Observability
from repro.check.differential import DIFF_PROFILES
from repro.lang import compile_source

SOURCE = """
class Main {
    static int step(int x) {
        if ((x & 7) < 3) { return x + 2; }
        return x + 1;
    }
    static int main() {
        int total = 0;
        for (int outer = 0; outer < 120; outer = outer + 1) {
            for (int i = 0; i < 50; i = i + 1) {
                total = (total + step(i)) & 1048575;
            }
        }
        return total;
    }
}
"""

STRUCTURAL = ("profiler", "cache", "constructor")


#: A compile threshold no trace reaches: every trace stays cold.
NEVER = DIFF_PROFILES["cold"].compile_threshold


def observed_run(compile_threshold):
    obs = Observability()
    vm = VM(compile_source(SOURCE), obs=obs, start_state_delay=16,
            optimize_traces=True, compile_threshold=compile_threshold)
    result = vm.run()
    structural = [(e.kind, e.data) for e in obs.events
                  if e.category in STRUCTURAL]
    kinds = {e.kind for e in obs.events}
    return result, structural, kinds


@pytest.fixture(scope="module")
def runs():
    return {"cold": observed_run(NEVER), "py": observed_run(2)}


class TestBackendParity:
    def test_results_identical(self, runs):
        cold_result, py_result = runs["cold"][0], runs["py"][0]
        assert cold_result.value == py_result.value
        assert cold_result.stats.total_dispatches \
            == py_result.stats.total_dispatches
        assert cold_result.stats.codegen_traces_compiled == 0
        assert py_result.stats.codegen_traces_compiled > 0

    def test_structural_event_streams_identical(self, runs):
        cold_events, py_events = runs["cold"][1], runs["py"][1]
        assert cold_events        # the workload must actually trace
        assert cold_events == py_events

    def test_codegen_events_only_on_py_backend(self, runs):
        cold_kinds, py_kinds = runs["cold"][2], runs["py"][2]
        # linked_transfer is emitted by the dispatch trampoline, which
        # runs either way; every other codegen.* kind needs generated
        # code.
        assert not {k for k in cold_kinds if k.startswith("codegen.")
                    and k != "codegen.linked_transfer"}
        assert "codegen.compile" in py_kinds
