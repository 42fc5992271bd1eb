"""Tests for MIRZA-Q: the tardiness-counting mitigation queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mirza_q import MirzaQueue


class TestConstruction:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            MirzaQueue(capacity=0)

    def test_rejects_zero_qth(self):
        with pytest.raises(ValueError):
            MirzaQueue(qth=0)


class TestInsertion:
    def test_insert_starts_at_count_one(self):
        q = MirzaQueue()
        assert q.insert(5)
        assert q.tardiness(5) == 1

    def test_no_duplicates(self):
        q = MirzaQueue()
        q.insert(5)
        q.insert(5)
        assert len(q) == 1
        assert q.tardiness(5) == 2  # re-selection counts as an ACT

    def test_full_queue_drops(self):
        q = MirzaQueue(capacity=2)
        q.insert(1)
        q.insert(2)
        assert not q.insert(3)
        assert q.dropped_insertions == 1
        assert 3 not in q

    def test_contains(self):
        q = MirzaQueue()
        q.insert(9)
        assert 9 in q
        assert 8 not in q


class TestTardiness:
    def test_on_activate_increments_queued(self):
        q = MirzaQueue()
        q.insert(5)
        assert q.on_activate(5)
        assert q.tardiness(5) == 2

    def test_on_activate_ignores_unqueued(self):
        q = MirzaQueue()
        assert not q.on_activate(5)
        assert q.tardiness(5) == 0

    def test_acts_bump_only_their_own_row(self):
        q = MirzaQueue()
        q.insert(1)
        q.insert(2)
        for _ in range(5):
            q.on_activate(2)
        assert (q.tardiness(1), q.tardiness(2)) == (1, 6)


class TestAlertCondition:
    def test_alert_when_full(self):
        q = MirzaQueue(capacity=2, qth=100)
        q.insert(1)
        assert not q.wants_alert()
        q.insert(2)
        assert q.wants_alert()

    def test_alert_when_tardiness_exceeds_qth(self):
        q = MirzaQueue(capacity=8, qth=3)
        q.insert(1)
        for _ in range(3):
            q.on_activate(1)  # count reaches 4 > 3
        assert q.wants_alert()

    def test_no_alert_at_exactly_qth(self):
        q = MirzaQueue(capacity=8, qth=3)
        q.insert(1)
        q.on_activate(1)
        q.on_activate(1)  # count == 3 == QTH
        assert not q.wants_alert()

    def test_empty_queue_never_alerts(self):
        assert not MirzaQueue().wants_alert()


class TestEviction:
    def test_pop_max_returns_highest_count(self):
        q = MirzaQueue()
        q.insert(1)
        q.insert(2)
        for _ in range(5):
            q.on_activate(2)
        assert q.pop_max() == 2
        assert 2 not in q
        assert q.evictions == 1

    def test_pop_max_empty_returns_none(self):
        assert MirzaQueue().pop_max() is None

    def test_pop_max_tie_break_deterministic(self):
        q = MirzaQueue()
        q.insert(7)
        q.insert(3)
        assert q.pop_max() == 3  # lowest row id on equal counts

    def test_alert_clears_after_eviction(self):
        q = MirzaQueue(capacity=2, qth=100)
        q.insert(1)
        q.insert(2)
        assert q.wants_alert()
        q.pop_max()
        assert not q.wants_alert()


class TestQueueInvariants:
    @given(st.lists(
        st.tuples(st.sampled_from(["insert", "act", "pop"]),
                  st.integers(0, 10)),
        min_size=1, max_size=200))
    @settings(max_examples=100)
    def test_never_exceeds_capacity(self, ops):
        q = MirzaQueue(capacity=4, qth=16)
        for op, row in ops:
            if op == "insert":
                q.insert(row)
            elif op == "act":
                q.on_activate(row)
            else:
                q.pop_max()
            assert len(q) <= 4

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=100))
    @settings(max_examples=100)
    def test_tardiness_counts_acts_since_insert(self, rows):
        q = MirzaQueue(capacity=8, qth=10 ** 6)
        q.insert(3)
        acts_to_3 = sum(1 for r in rows if r == 3)
        for r in rows:
            q.on_activate(r)
        assert q.tardiness(3) == 1 + acts_to_3
