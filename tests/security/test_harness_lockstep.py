"""The harness's run loop against its per-ACT reference.

:class:`SingleBankHarness` keeps its per-ACT state in locals for a
whole :meth:`~SingleBankHarness.run` and polls ALERT only for trackers
that can raise it.  Each test drives it and
:class:`~tests.security.reference_harness.ReferenceHarness` (the old
per-ACT body) with twin trackers through the same seeded stream, fed
in chunks through ``activate``, ``run`` over lists and generators, and
``flush_alert``, and compares their whole observable state after every
chunk: ACT/ALERT/mitigation counts, the REF and ALERT cadence, the
oracle's counts and maximum, the bank's open row and the refresh
pointer.
"""

import itertools
import random

import pytest

from repro.dram.mapping import SequentialR2SA, StridedR2SA
from repro.security.attacks import SingleBankHarness
from repro.security.fuzz import MITIGATIONS, fuzz_tracker
from tests.security.reference_harness import ReferenceHarness

TRACKERS = ("none", "trr-8", "para-8", "mithril-16", "prac-64", "mint-8",
            "mirza-500")
"""One per fuzz base name, with the headline knob shrunk so a short
stream spills, mitigates and ALERTs."""

ACTS_PER_REF = 16

MAPPINGS = {"sequential": SequentialR2SA, "strided": StridedR2SA}


def test_every_fuzz_mitigation_is_covered():
    assert sorted(name.partition("-")[0] for name in TRACKERS) \
        == sorted(MITIGATIONS)


def make_pair(name, mapping_kind, config):
    """The harness and its reference over twin trackers."""
    pair = []
    for cls in (SingleBankHarness, ReferenceHarness):
        mapping = MAPPINGS[mapping_kind](config.geometry)
        tracker = fuzz_tracker(name, 7, config, mapping)
        pair.append(cls(tracker, config, mapping=mapping,
                        acts_per_ref=ACTS_PER_REF))
    return pair


def state(harness):
    oracle = harness.bank.oracle
    return {
        "acts": harness.acts,
        "alerts": harness.alerts,
        "mitigations": harness.mitigations,
        "since_ref": harness._acts_since_ref,
        "since_alert": harness._acts_since_alert,
        "countdown": harness._alert_countdown,
        "counts": dict(oracle._counts),
        "max": (oracle.max_unmitigated, oracle.max_row),
        "open_row": harness.bank.open_row,
        "bank_acts": harness.bank.total_activations,
        "refptr": harness.refresh.refptr,
    }


def attack_stream(seed, rows_per_bank, acts):
    """Seeded ACTs in phases: hammers on one to three rows (ALERT
    bait), feints over a rotation, and uniform rows."""
    rng = random.Random(seed)
    out = []
    while len(out) < acts:
        phase = rng.choice(("hammer", "feint", "random"))
        base = rng.randrange(rows_per_bank - 64)
        if phase == "hammer":
            aggressors = [base + rng.randrange(8)
                          for _ in range(rng.randint(1, 3))]
            out += [aggressors[i % len(aggressors)]
                    for i in range(rng.randint(50, 2_000))]
        elif phase == "feint":
            rotation = rng.randint(8, 40)
            out += [base + i % rotation
                    for i in range(rng.randint(rotation, 8 * rotation))]
        else:
            out += [rng.randrange(rows_per_bank)
                    for _ in range(rng.randint(10, 200))]
    return out[:acts]


def drive(new, ref, rows, rng):
    """Feed ``rows`` to both harnesses in random chunks, comparing after
    each one; returns what the comparisons saw."""
    seen = {"pending": 0, "flushed": 0}
    position = 0
    while position < len(rows):
        chunk = rows[position:position + rng.choice((1, 1, 2, 5, 40, 300))]
        position += len(chunk)
        how = rng.random()
        if how < 0.3:
            for row in chunk:
                new.activate(row)
                ref.activate(row)
        elif how < 0.6:
            new.run(iter(chunk))
            ref.run(chunk)
        else:
            new.run(row for row in chunk)
            ref.run(chunk)
        assert state(new) == state(ref), f"after ACT {position}"
        pending = new._alert_countdown is not None
        seen["pending"] += pending
        if rng.random() < (0.5 if pending else 0.05):
            alerts = ref.alerts
            new.flush_alert()
            ref.flush_alert()
            seen["flushed"] += ref.alerts - alerts
            assert state(new) == state(ref), f"flush after ACT {position}"
    return seen


@pytest.mark.parametrize("mapping_kind", sorted(MAPPINGS))
@pytest.mark.parametrize("name", TRACKERS)
def test_run_matches_per_act_reference(name, mapping_kind, small_config):
    new, ref = make_pair(name, mapping_kind, small_config)
    rows = attack_stream(len(name), small_config.geometry.rows_per_bank,
                         12_000)
    seen = drive(new, ref, rows, random.Random(3))
    assert new.acts == 12_000
    assert new.mitigations > 0 or name == "none"
    if name.startswith(("prac", "mirza")):
        # The ALERT path: prologues pending across call boundaries, and
        # flushed ALERTs.
        assert new.alerts > 0
        assert seen["pending"] > 0
        assert seen["flushed"] > 0


@pytest.mark.parametrize("name", ("mithril-16", "prac-64", "mirza-500"))
def test_row_outside_the_bank_raises_at_the_same_act(name, small_config):
    rows_per_bank = small_config.geometry.rows_per_bank
    new, ref = make_pair(name, "strided", small_config)
    rows = attack_stream(11, rows_per_bank, 3_000)
    for bad in (rows_per_bank, -1):
        stream = rows[:1_234] + [bad] + rows[1_234:]
        errors = []
        for harness in (new, ref):
            with pytest.raises(ValueError) as error:
                harness.run(iter(stream))
            errors.append(str(error.value))
        assert errors[0] == errors[1]
        assert state(new) == state(ref)
        # The harness stays usable after the rejected row.
        new.run(iter(rows[:500]))
        ref.run(rows[:500])
        assert state(new) == state(ref)
    assert new.acts == 2 * (1_234 + 500)


def test_prologue_and_epilogue_one_act_at_a_time(small_config):
    # Two PRAC aggressors over threshold: each ALERT lands its prologue
    # ACTs first, and the next one waits for the epilogue ACT although
    # the tracker still wants it.
    new, ref = make_pair("prac-64", "sequential", small_config)
    epilogue = small_config.abo.epilogue_acts
    pending = held = 0
    for row in itertools.islice(itertools.cycle((5, 9)), 1_000):
        new.activate(row)
        ref.activate(row)
        assert state(new) == state(ref), f"after ACT {new.acts}"
        pending += new._alert_countdown is not None
        held += (new._alert_countdown is None
                 and new.tracker.wants_alert()
                 and new._acts_since_alert <= epilogue)
    assert new.alerts > 2
    assert pending > 0
    assert held > 0
