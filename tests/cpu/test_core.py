"""Tests for the MLP-limited core model.

The system's request loop keeps a core's commit and completion inline;
these tests pin their rules on the reference core's methods
(``tests/mc/reference_controller.py``), which
``tests/mc/test_request_loop.py`` holds the loop to.
"""

import pytest

from repro.cpu.core import Core
from repro.cpu.trace import TraceEntry, cyclic, take

from tests.mc.reference_controller import ReferenceCore


def entries(n, compute_ps=1000, instructions=10, bank=0, row=0):
    return [TraceEntry(compute_ps=compute_ps, instructions=instructions,
                       subchannel=0, bank=bank, row=row)
            for _ in range(n)]


class TestCore:
    def test_rejects_zero_mlp(self):
        with pytest.raises(ValueError):
            Core(0, iter([]), mlp=0)

    def test_issue_paced_by_compute(self):
        core = ReferenceCore(0, iter(entries(3, compute_ps=500)), mlp=8)
        t1, _ = core.pop_request()
        core.complete(t1 + 100)
        t2, _ = core.pop_request()
        assert t1 == 500
        assert t2 == 1000

    def test_blocks_on_oldest_when_mlp_full(self):
        core = ReferenceCore(0, iter(entries(3, compute_ps=10)), mlp=2)
        t1, _ = core.pop_request()
        core.complete(5000)
        t2, _ = core.pop_request()
        core.complete(9000)
        # Third issue must wait for the first completion (t=5000).
        t3, _ = core.pop_request()
        assert t3 == 5000

    def test_trace_exhaustion(self):
        core = ReferenceCore(0, iter(entries(1)), mlp=2)
        core.pop_request()
        core.complete(100)
        assert core.peek_issue_time() is None
        with pytest.raises(StopIteration):
            core.pop_request()

    def test_instruction_accounting(self):
        core = ReferenceCore(0, iter(entries(3, instructions=7)), mlp=8)
        for _ in range(3):
            t, _ = core.pop_request()
            core.complete(t + 10)
        assert core.retired_instructions == 21
        assert core.misses_issued == 3

    def test_ipc(self):
        core = ReferenceCore(
            0, iter(entries(4, compute_ps=250, instructions=4)), mlp=8)
        for _ in range(4):
            t, _ = core.pop_request()
            core.complete(t + 10)
        # 16 instructions over 4000 ps at 250 ps/cycle = 16 cycles.
        assert core.ipc(4000, 250.0) == pytest.approx(1.0)

    def test_peek_is_idempotent(self):
        core = Core(0, iter(entries(2, compute_ps=100)), mlp=2)
        assert core.peek_issue_time() == core.peek_issue_time() == 100


class TestTraceHelpers:
    def test_cyclic_repeats(self):
        trace = cyclic(entries(2))
        assert len(take(trace, 5)) == 5

    def test_cyclic_rejects_empty(self):
        with pytest.raises(ValueError):
            cyclic([])

    def test_take_short_trace(self):
        assert len(take(iter(entries(2)), 10)) == 2
