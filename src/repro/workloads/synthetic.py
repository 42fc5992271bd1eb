"""Synthetic workload traces calibrated to Table IV.

The generator reproduces the four statistics the paper's results depend
on (see DESIGN.md):

- **rate**: row visits are paced so the total activations per bank per
  (scaled) refresh window match ``acts_per_subarray_mean * 128``;
- **row-buffer locality**: each row visit emits ``miss_burst``
  consecutive same-row misses, reproducing the MPKI/ACT-PKI ratio;
- **spatial locality**: each bank's working set is a *contiguous* block
  of logical rows (the clock-style paging of Section III-A allocates
  consecutive physical pages), which is what makes Sequential vs
  Strided row-to-subarray mapping behave so differently (Table VI);
- **spread (sigma)**: a fraction of visits target a fixed set of hot
  rows scattered through the working set, reproducing the published
  per-subarray standard deviation under strided mapping.

Pacing model: with a target inter-miss time ``tau`` per core, the core
is given ``compute = max(eps, tau - L/mlp)`` of work per miss and
``mlp = round(L / tau)`` outstanding misses, where ``L`` is the
estimated loaded DRAM latency; bandwidth-bound workloads are then
limited by memory (through the MLP cap) and lighter ones by compute,
just as in the real system.
"""

from __future__ import annotations

import functools
import random
from typing import Iterator, List, Tuple

from repro.cpu.trace import ChunkSource, EntryTuple, TraceEntry
from repro.params import DramGeometry, SimScale, SystemConfig, ns
from repro.workloads.specs import WorkloadSpec

_LOADED_LATENCY_PS = ns(80)
"""Estimated loaded DRAM round trip used for pacing calibration."""

_MIN_COMPUTE_PS = ns(0.25)

Placement = Tuple[int, Tuple[int, ...]]
"""One bank's working set: (base logical row, hot-row offsets)."""


def _derived_seed(seed: int, salt: int, subchannel: int, bank: int) -> int:
    """Stable per-structure RNG seed (independent of PYTHONHASHSEED)."""
    return seed * 1_000_003 + salt * 8_191 + subchannel * 131 + bank + 1


@functools.lru_cache(maxsize=4)
def _bank_placements(seed: int, geometry: DramGeometry, ws_rows: int,
                     hot_rows: int) -> Tuple[Placement, ...]:
    """Every bank's placement, indexed ``subchannel * banks + bank``.

    Each bank seeds two fresh RNGs, so the table is a pure function of
    its arguments; it is drawn once per process because every job (and
    every calibration probe) of a workload asks for the same one, and
    the RNG seeding costs more than a short job's other set-up.  Four
    entries cover the seeds a report uses (the run seed, plus seed 0
    for the counting tier) and bound what the process keeps: one table
    holds ~0.4 MB.  Immutable tuples, so sharing them is safe.
    """
    rows = geometry.rows_per_bank
    count = min(hot_rows, ws_rows)
    table = []
    for subchannel in range(geometry.subchannels):
        for bank in range(geometry.banks_per_subchannel):
            base = random.Random(_derived_seed(seed, 1, subchannel, bank)
                                 ).randrange(0, rows - ws_rows)
            hot = random.Random(_derived_seed(seed, 2, subchannel, bank)
                                ).sample(range(ws_rows), count)
            table.append((base, tuple(hot)))
    return tuple(table)


class SyntheticWorkload:
    """Trace factory for one Table IV workload."""

    def __init__(self, spec: WorkloadSpec,
                 config: SystemConfig = SystemConfig(),
                 scale: SimScale = SimScale(),
                 ws_rows: int = 4096,
                 hot_rows: int = 184,
                 bank_stickiness: float = 0.5,
                 seed: int = 0) -> None:
        self.spec = spec
        self.config = config
        self.scale = scale
        self.ws_rows = ws_rows
        self.hot_rows = hot_rows
        self.bank_stickiness = bank_stickiness
        self.seed = seed
        geometry = config.geometry
        window = scale.scaled_trefw(config.timings)
        acts_per_bank = scale.scale_count(spec.acts_per_bank_per_window)
        total_misses = (acts_per_bank * geometry.total_banks
                        * spec.miss_burst)
        misses_per_core = max(1.0, total_misses / config.num_cores)
        self.target_inter_miss_ps = max(1, int(window / misses_per_core))
        # Latency-hiding MLP: enough outstanding misses to sustain the
        # target rate against the loaded DRAM latency, bounded by what
        # the ROB can hold (one miss per `instructions_per_miss`
        # entries, MSHR-capped at 16).  Memory-intensive workloads get a
        # small MLP and stay latency-sensitive, which is what exposes
        # PRAC's timing inflation just as on real cores.
        rob_mlp = min(16, max(
            1, config.rob_entries // spec.instructions_per_miss))
        rate_mlp = max(1, round(
            _LOADED_LATENCY_PS / self.target_inter_miss_ps))
        self.mlp = min(rob_mlp, rate_mlp) if rate_mlp > 1 else 1
        self.mlp = max(1, self.mlp)
        self.compute_per_miss_ps = max(
            _MIN_COMPUTE_PS,
            self.target_inter_miss_ps - _LOADED_LATENCY_PS // self.mlp)

    # ------------------------------------------------------------------
    # Per-bank row placement
    # ------------------------------------------------------------------
    @property
    def placements(self) -> Tuple[Placement, ...]:
        """This workload's :func:`_bank_placements` table."""
        return _bank_placements(self.seed, self.config.geometry,
                                self.ws_rows, self.hot_rows)

    # ------------------------------------------------------------------
    # Trace generation
    # ------------------------------------------------------------------
    def trace_chunks(self, core_id: int,
                     chunk_size: int = 256) -> Iterator[List[EntryTuple]]:
        """Infinite miss trace for one core, in chunks of entry tuples.

        The RNG call sequence is identical to the historical
        entry-at-a-time generator -- chunking only groups the output --
        so traces are reproducible across both consumption styles.
        Each ``randrange(n)`` is drawn inline the way
        ``random.Random`` draws it -- ``getrandbits(n.bit_length())``,
        redrawn while ``>= n`` -- and ``uniform(0.7, 1.3)`` as
        ``0.7 + (1.3 - 0.7) * random()``, which skips two Python-level
        calls per draw and yields the same stream
        (``tests/workloads/reference_synthetic.py`` is the stdlib form).
        """
        spec = self.spec
        geometry = self.config.geometry
        rng = random.Random(_derived_seed(self.seed, 3, core_id, 0))
        rnd = rng.random
        getrandbits = rng.getrandbits
        hot_fraction = spec.hot_traffic_fraction
        stickiness = self.bank_stickiness
        burst = spec.miss_burst
        instructions = spec.instructions_per_miss
        placements = self.placements
        num_subch = geometry.subchannels
        num_banks = geometry.banks_per_subchannel
        compute = self.compute_per_miss_ps
        ws_rows = self.ws_rows
        compute_burst = compute * burst
        hot_count = min(self.hot_rows, ws_rows)  # every bank's len(hot)
        if not ws_rows or (hot_fraction > 0 and not hot_count):
            # What randrange(0) raises; the inline loop would spin.
            raise ValueError("empty range for randrange()")
        subch_bits = num_subch.bit_length()
        bank_bits = num_banks.bit_length()
        hot_bits = hot_count.bit_length()
        ws_bits = ws_rows.bit_length()
        jitter_span = 1.3 - 0.7
        prev_key = None
        while True:
            chunk: List[EntryTuple] = []
            append = chunk.append
            while len(chunk) < chunk_size:
                # Bank choice: with probability `bank_stickiness` the
                # next visit returns to the previous bank with a
                # *different* row, modelling page-conflict locality --
                # consecutive requests contending for one bank's row
                # buffer.  These visits pay tRP + tRCD (and PRAC's
                # inflated tRP/tRC), which is where PRAC's slowdown
                # comes from on real machines.
                if prev_key is not None and rnd() < stickiness:
                    subchannel, bank = prev_key
                else:
                    subchannel = getrandbits(subch_bits)
                    while subchannel >= num_subch:
                        subchannel = getrandbits(subch_bits)
                    bank = getrandbits(bank_bits)
                    while bank >= num_banks:
                        bank = getrandbits(bank_bits)
                prev_key = (subchannel, bank)
                base, hot = placements[subchannel * num_banks + bank]
                if rnd() < hot_fraction:
                    offset = getrandbits(hot_bits)
                    while offset >= hot_count:
                        offset = getrandbits(hot_bits)
                    offset = hot[offset]
                else:
                    offset = getrandbits(ws_bits)
                    while offset >= ws_rows:
                        offset = getrandbits(ws_bits)
                row = base + offset
                # The visit's whole compute budget precedes its first
                # line; the budget is per-miss, so scale by the burst.
                jitter = 0.7 + jitter_span * rnd()
                gap = int(compute_burst * jitter)
                if gap < _MIN_COMPUTE_PS:
                    gap = _MIN_COMPUTE_PS
                append((gap, instructions, subchannel, bank, row))
                # Later lines of the same row visit are back-to-back:
                # they arrive within tRAS and hit the open row, which
                # is what makes ACT-PKI lower than MPKI.
                for _ in range(burst - 1):
                    append((_MIN_COMPUTE_PS, instructions,
                            subchannel, bank, row))
            yield chunk

    def trace(self, core_id: int) -> Iterator[TraceEntry]:
        """Infinite miss trace for one core (rate-mode copy)."""
        for chunk in self.trace_chunks(core_id):
            for tup in chunk:
                yield TraceEntry(*tup)

    def chunk_source(self, core_id: int) -> ChunkSource:
        """The chunked trace wrapped for :class:`repro.cpu.core.Core`."""
        return ChunkSource(self.trace_chunks(core_id))
