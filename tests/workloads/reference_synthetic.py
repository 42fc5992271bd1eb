"""The synthetic trace generator written with the stdlib's draws.

``SyntheticWorkload.trace_chunks`` draws each ``randrange(n)`` inline
as ``getrandbits(n.bit_length())`` with the stdlib's rejection loop, and
``uniform(0.7, 1.3)`` as ``0.7 + (1.3 - 0.7) * random()``.  This is the
same loop calling ``random.Random.randrange`` and ``uniform`` directly,
the oracle ``test_synthetic.py`` compares it to: if a Python release
changes how either draws, the two streams part and that test names the
cause before any golden cell drifts.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.cpu.trace import EntryTuple
from repro.workloads.synthetic import (
    _MIN_COMPUTE_PS,
    SyntheticWorkload,
    _derived_seed,
)


def reference_trace_chunks(workload: SyntheticWorkload, core_id: int,
                           chunk_size: int = 256
                           ) -> Iterator[List[EntryTuple]]:
    """``workload.trace_chunks(core_id, chunk_size)``, stdlib draws."""
    spec = workload.spec
    geometry = workload.config.geometry
    rng = random.Random(_derived_seed(workload.seed, 3, core_id, 0))
    placements = workload.placements
    num_subch = geometry.subchannels
    num_banks = geometry.banks_per_subchannel
    compute_burst = workload.compute_per_miss_ps * spec.miss_burst
    prev_key = None
    while True:
        chunk: List[EntryTuple] = []
        while len(chunk) < chunk_size:
            if (prev_key is not None
                    and rng.random() < workload.bank_stickiness):
                subchannel, bank = prev_key
            else:
                subchannel = rng.randrange(num_subch)
                bank = rng.randrange(num_banks)
            prev_key = (subchannel, bank)
            base, hot = placements[subchannel * num_banks + bank]
            if rng.random() < spec.hot_traffic_fraction:
                offset = hot[rng.randrange(len(hot))]
            else:
                offset = rng.randrange(workload.ws_rows)
            row = base + offset
            gap = max(_MIN_COMPUTE_PS,
                      int(compute_burst * rng.uniform(0.7, 1.3)))
            chunk.append((gap, spec.instructions_per_miss, subchannel,
                          bank, row))
            for _ in range(spec.miss_burst - 1):
                chunk.append((_MIN_COMPUTE_PS, spec.instructions_per_miss,
                              subchannel, bank, row))
        yield chunk
