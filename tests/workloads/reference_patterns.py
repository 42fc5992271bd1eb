"""The randomized attack patterns written with the stdlib's draws.

``DecoyEvasion.rows`` and ``RefreshSyncBurst.rows`` draw each decoy's
``randrange(n)`` inline as ``getrandbits(n.bit_length())``, redrawn
while ``>= n``.  These are the same loops calling
``random.Random.randrange`` directly, the oracle ``test_patterns.py``
compares them to: if a Python release changes how ``randrange`` draws,
the streams part there before a fuzz outcome drifts.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from repro.workloads.patterns import (
    CompileContext,
    DecoyEvasion,
    RefreshSyncBurst,
)


def reference_decoy_rows(pattern: DecoyEvasion) -> Iterator[int]:
    """``pattern.rows(ctx)`` with ``rng.randrange`` per decoy."""
    rng = random.Random(pattern.seed)
    burst = pattern.burst if pattern.burst else pattern.table_entries + 4
    span = pattern.decoy_span if pattern.decoy_span \
        else 10 * pattern.table_entries
    decoy_base = pattern.target_row + 1000
    emitted = 0
    while emitted < pattern.acts:
        yield pattern.target_row
        emitted += 1
        for _ in range(min(burst, pattern.acts - emitted)):
            yield decoy_base + rng.randrange(span)
            emitted += 1


def reference_sync_burst_rows(pattern: RefreshSyncBurst,
                              ctx: CompileContext) -> Iterator[int]:
    """``pattern.rows(ctx)`` with ``rng.randrange`` per filler."""
    rng = random.Random(pattern.seed)
    filler = pattern.sync_acts if pattern.sync_acts \
        else max(0, ctx.acts_per_trefi - pattern.reads_per_trefi)
    decoy_base = max(pattern.aggressors) + 1000
    cycle = itertools.cycle(pattern.aggressors)
    emitted = 0
    while emitted < pattern.acts:
        for _ in range(min(pattern.reads_per_trefi,
                           pattern.acts - emitted)):
            yield next(cycle)
            emitted += 1
        for _ in range(min(filler, pattern.acts - emitted)):
            yield decoy_base + rng.randrange(4096)
            emitted += 1
