"""Timing, geometry, and system parameters for the MIRZA reproduction.

All times are integer **picoseconds** (``PS_PER_NS`` = 1000).  Using integers
end-to-end keeps the event-driven simulator exactly reproducible and immune
to float drift over multi-millisecond windows.

The default values come straight from Table I and Table III of the paper
(DDR5 specs for 6000AN parts), plus the ABO protocol constants of Figure 4:

======== ================================== ======== =========
Name     Meaning                            DDR5     PRAC mode
======== ================================== ======== =========
tRCD     time for performing an ACT         14 ns    14 ns
tRP      time to precharge an open row      14 ns    36 ns
tRAS     activate-to-precharge              32 ns    16 ns
tRC      successive ACTs to the same bank   46 ns    52 ns
tREFW    refresh window                     32 ms    --
tREFI    time between REF commands          3900 ns  --
tRFC     execution time of a REF            410 ns   --
======== ================================== ======== =========
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

PS_PER_NS = 1000
"""Picoseconds per nanosecond; the simulator's base clock unit is 1 ps."""

NS = PS_PER_NS
US = 1000 * NS
MS = 1000 * US


def ns(value: float) -> int:
    """Convert a nanosecond quantity to integer picoseconds."""
    return round(value * PS_PER_NS)


@dataclass(frozen=True)
class DramTimings:
    """DDR5 timing parameters in picoseconds (Table I of the paper)."""

    tRCD: int = ns(14)
    tRP: int = ns(14)
    tRAS: int = ns(32)
    tRC: int = ns(46)
    tREFW: int = 32 * MS
    tREFI: int = ns(3900)
    tRFC: int = ns(410)
    tFAW: int = ns(13.333)
    tCAS: int = ns(14)
    tBURST: int = ns(3)
    """Data-bus occupancy per 64B request (Section IX uses 3 ns/request)."""

    tRFM: int = ns(195)
    """Execution time of a same-bank RFM command (JESD79-5 RFMsb)."""

    @property
    def refs_per_trefw(self) -> int:
        """Number of REF commands issued in one refresh window (8192)."""
        return self.tREFW // self.tREFI

    @property
    def row_miss_latency(self) -> int:
        """Precharge + activate + CAS latency for a row-buffer conflict."""
        return self.tRP + self.tRCD + self.tCAS

    @property
    def row_hit_latency(self) -> int:
        """CAS latency when the requested row is already open."""
        return self.tCAS

    def with_prac(self) -> "DramTimings":
        """Return the PRAC-mode timing set (Table I, last column).

        PRAC inflates ``tRP`` (14 ns -> 36 ns) and ``tRC`` (46 ns -> 52 ns)
        to make room for the per-row counter read-modify-write, and shrinks
        ``tRAS`` (32 ns -> 16 ns).
        """
        return dataclasses.replace(self, tRP=ns(36), tRAS=ns(16), tRC=ns(52))


@dataclass(frozen=True)
class AboTimings:
    """ALERT-Back-Off protocol constants (Figure 4 / Table III)."""

    prologue: int = ns(180)
    """Time the MC may keep operating normally after ALERT asserts."""

    stall: int = ns(350)
    """Channel-wide stall during which the DRAM performs mitigation."""

    acts_during_prologue: int = 3
    """Maximum ACTs an attacker can land on one bank during the prologue."""

    epilogue_acts: int = 1
    """Mandatory ACTs before another ALERT can be asserted."""

    rfms_per_alert: int = 1
    """RFM commands the controller issues per ALERT (JEDEC allows
    1/2/4; the paper's MIRZA uses 1 -- Section V-E)."""

    @property
    def latency(self) -> int:
        """End-to-end ALERT latency (530 ns with a single RFM)."""
        return self.prologue + self.total_stall

    @property
    def total_stall(self) -> int:
        """Stall time of one ALERT: one stall period per RFM issued."""
        return self.stall * self.rfms_per_alert

    @property
    def acts_between_alerts(self) -> int:
        """Up to 4 ACTs can hit one bank between consecutive ALERTs."""
        return self.acts_during_prologue + self.epilogue_acts


@dataclass(frozen=True)
class DramGeometry:
    """Bank/row organisation of the evaluated 32 GB DDR5 system (Table III)."""

    banks_per_subchannel: int = 32
    subchannels: int = 2
    ranks: int = 1
    rows_per_bank: int = 128 * 1024
    row_bytes: int = 4096
    rows_per_subarray: int = 1024
    rows_per_ref: int = 16
    """Rows refreshed by one REF command (128K rows / 8192 REFs)."""

    @property
    def subarrays_per_bank(self) -> int:
        return self.rows_per_bank // self.rows_per_subarray

    @property
    def refs_per_subarray(self) -> int:
        """REF commands needed to sweep one subarray (64 for the default)."""
        return self.rows_per_subarray // self.rows_per_ref

    @property
    def total_banks(self) -> int:
        return self.banks_per_subchannel * self.subchannels * self.ranks

    @property
    def capacity_bytes(self) -> int:
        return self.total_banks * self.rows_per_bank * self.row_bytes


@dataclass(frozen=True)
class MitigationCosts:
    """Time/energy cost constants for victim refreshes."""

    mitigation_time: int = ns(280)
    """Time to mitigate one aggressor row (bounded refresh, JESD79-4B)."""

    victims_per_mitigation: int = 4
    """Rows refreshed per aggressor (blast radius 2 on each side)."""


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration bundling timings, geometry, and core counts.

    ``num_cores`` / ``rob_entries`` / ``issue_width`` follow Table III
    (8 cores, 4 GHz, 4-wide, 392-entry ROB, 16 MB shared LLC).
    """

    timings: DramTimings = DramTimings()
    abo: AboTimings = AboTimings()
    geometry: DramGeometry = DramGeometry()
    costs: MitigationCosts = MitigationCosts()
    num_cores: int = 8
    core_freq_ghz: float = 4.0
    issue_width: int = 4
    rob_entries: int = 392
    llc_bytes: int = 16 * 1024 * 1024
    llc_ways: int = 16
    line_bytes: int = 64

    def with_prac_timings(self) -> "SystemConfig":
        """System configuration with PRAC-mode DRAM timings."""
        return dataclasses.replace(self, timings=self.timings.with_prac())

    @property
    def core_cycle_ps(self) -> float:
        """Core clock period in picoseconds."""
        return PS_PER_NS / self.core_freq_ghz


@dataclass(frozen=True)
class SimScale:
    """Joint scaling of the observation window and window-relative knobs.

    ``time_scale = S`` shrinks the simulated refresh window to ``tREFW / S``.
    Quantities defined *per window* (per-region activation targets, the
    filtering threshold FTH) must shrink by the same factor so that the
    count-to-threshold ratios the paper's results depend on are preserved.
    ``S = 1`` reproduces the paper's full 32 ms configuration.
    """

    time_scale: int = 1

    def __post_init__(self) -> None:
        if self.time_scale < 1:
            raise ValueError(
                f"SimScale time_scale must be >= 1, got {self.time_scale}")

    def scaled_trefw(self, timings: DramTimings) -> int:
        """Length of the scaled observation window in picoseconds."""
        return timings.tREFW // self.time_scale

    def scaled_refs_per_window(self, timings: DramTimings) -> int:
        """REF commands falling inside one scaled window."""
        return max(1, timings.refs_per_trefw // self.time_scale)

    def scale_threshold(self, threshold: int) -> int:
        """Scale a per-window count threshold (e.g. FTH) down by S."""
        return max(1, threshold // self.time_scale)

    def scale_count(self, count: float) -> float:
        """Scale a per-window expected count (e.g. ACTs/subarray) down."""
        return count / self.time_scale


def max_acts_per_bank_per_trefw(timings: DramTimings = DramTimings()) -> int:
    """Worst-case ACTs one bank can absorb in a tREFW (~621K, Section IV-C).

    A single bank is limited by ``tRC``; REF commands steal
    ``refs * tRFC`` of the window.
    """
    ref_time = timings.refs_per_trefw * timings.tRFC
    return (timings.tREFW - ref_time) // timings.tRC


def max_acts_per_channel_per_trefw(
    timings: DramTimings = DramTimings(),
) -> int:
    """Channel-wide ACT ceiling imposed by tFAW (~8.8M, footnote 2)."""
    ref_time = timings.refs_per_trefw * timings.tRFC
    usable = timings.tREFW - ref_time
    return int(usable * 4 // timings.tFAW)
