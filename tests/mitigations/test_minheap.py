"""The heap-indexed Mithril/TRR trackers against their scan references.

Every test drives the indexed tracker and its O(entries)-scan reference
(``reference_trackers.py``) through the same seeded stream of ACTs and
REF/RFM/ALERT slots, and after every step asserts the same table,
spills and mitigated rows.
"""

import itertools
import random

import pytest

from repro.mitigations.base import MitigationSlotSource
from repro.mitigations.minheap import MinCountHeap
from repro.mitigations.mithril import MithrilTracker
from repro.mitigations.trr import TrrTracker
from tests.mitigations.reference_trackers import (
    ScanMithrilTracker,
    ScanTrrTracker,
)

REF = MitigationSlotSource.REF
RFM = MitigationSlotSource.RFM
ALERT = MitigationSlotSource.ALERT

SIZES = (1, 2, 3, 5, 16, 64, 2048)


def mixed_stream(entries: int, seed: int, acts: int):
    """Seeded ACTs in phases -- feints, focused hammers, random rows --
    with REF slots (most), RFM and ALERT slots interleaved."""
    rng = random.Random(seed)
    span = 3 * entries + 8
    steps = []
    for phase in itertools.cycle(("hammer", "feint", "random")):
        if len(steps) >= acts:
            return steps
        if phase == "feint":
            rotation = entries + rng.randint(1, max(1, entries // 4))
            base = rng.randrange(span)
            rows = [base + i % rotation
                    for i in range(rng.randint(rotation, 2 * rotation))]
        elif phase == "hammer":
            aggressors = [rng.randrange(span)
                          for _ in range(rng.randint(1, 2))]
            rows = [aggressors[i % len(aggressors)]
                    for i in range(rng.randint(64, 400))]
        else:
            rows = [rng.randrange(span) for _ in range(rng.randint(10, 300))]
        for row in rows:
            steps.append(("act", row))
            roll = rng.random()
            if roll < 0.06:
                steps.append(("slot", REF))
            elif roll < 0.07:
                steps.append(("slot", RFM))
            elif roll < 0.08:
                steps.append(("slot", ALERT))


def assert_canonical(index: MinCountHeap, entries: int) -> None:
    """Every live row owns a heap entry filed at a key no larger than
    its count, and the heap stays within its ``2 * entries + 64``
    bound."""
    assert index._keyed.keys() == index.table.keys()
    filed = set(index._heap)
    for row, key in index._keyed.items():
        assert (key, row) in filed
        assert key <= index.table[row]
    assert len(index._heap) <= 2 * entries + 64


def run_lockstep(indexed, reference, steps) -> int:
    """Drive both trackers through ``steps``, comparing after each one;
    returns the number of rows mitigated."""
    mitigated = 0
    for step, (kind, arg) in enumerate(steps):
        if kind == "act":
            indexed.on_activate(arg, 0)
            reference.on_activate(arg, 0)
        else:
            got = indexed.on_mitigation_slot(0, arg)
            assert got == reference.on_mitigation_slot(0, arg), \
                f"step {step}: {arg}"
            mitigated += len(got)
        assert indexed._table == reference._table, f"step {step}"
        assert getattr(indexed, "spills", 0) == \
            getattr(reference, "spills", 0), f"step {step}"
        if step % 50 == 0:
            assert_canonical(indexed._index, indexed.entries)
    assert_canonical(indexed._index, indexed.entries)
    return mitigated


def _acts_for(entries: int) -> int:
    return max(3000, entries + 1500)


@pytest.mark.parametrize("entries", SIZES)
@pytest.mark.parametrize("refs_per_mitigation", (1, 3))
def test_mithril_matches_scan_reference(entries, refs_per_mitigation):
    steps = mixed_stream(entries, seed=entries * 7 + refs_per_mitigation,
                         acts=_acts_for(entries))
    indexed = MithrilTracker(entries, refs_per_mitigation)
    reference = ScanMithrilTracker(entries, refs_per_mitigation)
    assert run_lockstep(indexed, reference, steps) > 0
    assert indexed._last_mitigated == reference._last_mitigated
    assert reference.spills > 0


@pytest.mark.parametrize("entries", SIZES)
@pytest.mark.parametrize("threshold", (1, 32))
def test_trr_matches_scan_reference(entries, threshold):
    steps = mixed_stream(entries, seed=entries * 11 + threshold,
                         acts=_acts_for(entries))
    indexed = TrrTracker(entries, refs_per_mitigation=1,
                         mitigation_threshold=threshold)
    reference = ScanTrrTracker(entries, refs_per_mitigation=1,
                               mitigation_threshold=threshold)
    assert run_lockstep(indexed, reference, steps) > 0


@pytest.mark.parametrize("make", (
    lambda: MithrilTracker(entries=16, refs_per_mitigation=1),
    lambda: TrrTracker(entries=16, refs_per_mitigation=1,
                       mitigation_threshold=1),
), ids=("mithril", "trr"))
def test_focused_hammer_keeps_heap_bounded(make):
    # A full table of cold rows plus one hammered row mitigated every
    # REF: each mitigation orphans the row's old heap entry, and with
    # no evictions nothing ever pops them.  The rebuild bound must hold.
    tracker = make()
    for row in range(1, 16):
        tracker.on_activate(row, 0)
    for act in range(40_000):
        tracker.on_activate(0, 0)
        if act % 75 == 74:
            assert tracker.on_mitigation_slot(0, REF) == [0]
        assert len(tracker._index._heap) <= 2 * 16 + 64
    assert_canonical(tracker._index, 16)


def test_minimum_breaks_count_ties_by_lower_row():
    table = {}
    index = MinCountHeap(table, entries=4)
    for row in (9, 4, 7):
        index.insert(row, 2)
    table[4] += 1
    assert index.minimum() == (2, 7)
    assert index.evict_minimum(1, 5) == 7
    assert table == {9: 2, 4: 3, 1: 5}
    index.set_count(1, 0)
    index.remove(9)
    assert index.minimum() == (0, 1)
