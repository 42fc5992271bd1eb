"""Chunked trace delivery: ChunkSource, chunk_entries, Core integration."""

from __future__ import annotations


import pytest

from repro.cpu.trace import ChunkSource, TraceEntry, chunk_entries, take
from repro.workloads.mixed import MixedWorkload
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.specs import workload_by_name

from tests.mc.reference_controller import ReferenceCore


def _entries(n):
    return [TraceEntry(compute_ps=1000 + i, instructions=10,
                       subchannel=i % 2, bank=i % 4, row=i)
            for i in range(n)]


def test_entry_tuple_round_trip():
    entry = TraceEntry(1000, 10, 1, 3, 77)
    tup = (entry.compute_ps, entry.instructions, entry.subchannel,
           entry.bank, entry.row)
    assert TraceEntry(*tup) == entry


def test_chunk_entries_preserves_order_and_content():
    entries = _entries(600)
    source = chunk_entries(iter(entries), size=256)
    seen = []
    while True:
        chunk = source.next_chunk()
        if chunk is None:
            break
        assert 0 < len(chunk) <= 256
        seen.extend(chunk)
    assert [TraceEntry(*t) for t in seen] == entries


def test_chunk_source_iterates_as_entries():
    entries = _entries(10)
    source = chunk_entries(iter(entries), size=4)
    assert list(source) == entries


def test_core_consumes_plain_iterator_and_chunk_source_identically():
    entries = _entries(50)
    core_a = ReferenceCore(0, iter(entries), mlp=4)
    core_b = ReferenceCore(0, chunk_entries(iter(entries), size=8), mlp=4)
    for _ in range(len(entries)):
        issue_a, entry_a = core_a.pop_request()
        issue_b, entry_b = core_b.pop_request()
        assert (issue_a, entry_a) == (issue_b, entry_b)
        core_a.complete(issue_a + 50_000)
        core_b.complete(issue_b + 50_000)
    assert core_a.peek_issue_time() is None
    assert core_b.peek_issue_time() is None
    with pytest.raises(StopIteration):
        core_a.pop_request()
    with pytest.raises(StopIteration):
        core_b.pop_request()


def test_core_pop_tuple_matches_pop_request():
    entries = _entries(6)
    core = ReferenceCore(0, iter(entries), mlp=2)
    issue, tup = core.pop_tuple()
    assert TraceEntry(*tup) == entries[0]
    assert issue == entries[0].compute_ps


def test_synthetic_chunks_match_entry_trace():
    """The chunked generator must replay the exact RNG sequence."""
    spec = workload_by_name("mcf")
    workload = SyntheticWorkload(spec, seed=3)
    from_chunks = []
    for chunk in workload.trace_chunks(core_id=1):
        from_chunks.extend(TraceEntry(*t) for t in chunk)
        if len(from_chunks) >= 1000:
            break
    regenerated = take(
        SyntheticWorkload(spec, seed=3).trace(core_id=1), 1000)
    assert from_chunks[:1000] == regenerated


def test_synthetic_trace_factory_returns_chunk_sources():
    workload = SyntheticWorkload(workload_by_name("tc"), seed=0)
    source = workload.trace_factory()(0)
    assert isinstance(source, ChunkSource)
    chunk = source.next_chunk()
    assert chunk and len(chunk) >= 256


def test_mixed_trace_factory_returns_chunk_sources():
    mix = MixedWorkload.paper_mix("mix_1", seed=0)
    source = mix.trace_factory()(2)
    assert isinstance(source, ChunkSource)
    first = source.next_chunk()[0]
    expected = next(iter(mix.trace(2)))
    assert TraceEntry(*first) == expected
