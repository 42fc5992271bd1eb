"""Workload descriptors: the paper's Table IV, verbatim.

Each :class:`WorkloadSpec` records the published characteristics of one
evaluated workload.  The synthetic generator
(:mod:`repro.workloads.synthetic`) derives its parameters from these
numbers:

- ``miss_burst``: consecutive same-row misses per row visit,
  ``round(MPKI / ACT-PKI)`` -- the row-buffer locality implied by the
  two rates;
- the pacing (target inter-miss time per core) follows from the ACT
  budget per refresh window, ``mean * subarrays * banks``;
- the per-subarray spread (sigma) is reproduced with a hot-row overlay
  (see ``hot_traffic_fraction``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class WorkloadSpec:
    """One row of Table IV."""

    name: str
    suite: str
    l3_mpki: float
    act_pki: float
    bus_util_pct: float
    acts_per_subarray_mean: float
    acts_per_subarray_std: float

    @property
    def miss_burst(self) -> int:
        """Consecutive same-row misses per row visit (>= 1)."""
        return max(1, round(self.l3_mpki / self.act_pki))

    @property
    def instructions_per_miss(self) -> int:
        """Average instruction gap between LLC misses (from MPKI)."""
        return max(1, round(1000.0 / self.l3_mpki))

    @property
    def hot_traffic_fraction(self) -> float:
        """Fraction of row visits aimed at the hot-row set.

        Chosen so the per-subarray std under strided mapping matches the
        published sigma: a hot set of ``H`` rows scattered uniformly over
        the working set makes the relative per-subarray std approximately
        ``f * sqrt(num_subarrays / H)``.
        """
        ratio = self.acts_per_subarray_std / self.acts_per_subarray_mean
        return min(0.85, max(0.1, 1.2 * ratio))

    @property
    def acts_per_bank_per_window(self) -> float:
        """Total ACT budget per bank per tREFW implied by the mean."""
        return self.acts_per_subarray_mean * 128.0


def _gap(name: str, mpki: float, act_pki: float, util: float,
         mean: float, std: float) -> WorkloadSpec:
    return WorkloadSpec(name, "gap", mpki, act_pki, util, mean, std)


def _spec(name: str, mpki: float, act_pki: float, util: float,
          mean: float, std: float) -> WorkloadSpec:
    return WorkloadSpec(name, "spec2017", mpki, act_pki, util, mean, std)


def _mix(name: str, mpki: float, act_pki: float, util: float,
         mean: float, std: float) -> WorkloadSpec:
    return WorkloadSpec(name, "mix", mpki, act_pki, util, mean, std)


GAP_WORKLOADS: List[WorkloadSpec] = [
    _gap("bc", 58.8, 29.7, 82.0, 572, 191),
    _gap("bfs", 30.9, 16.1, 80.6, 642, 278),
    _gap("cc", 57.9, 51.5, 77.7, 1037, 542),
    _gap("pr", 57.7, 29.5, 83.1, 620, 204),
    _gap("sssp", 27.2, 13.0, 79.9, 518, 149),
    _gap("tc", 87.8, 40.7, 85.5, 558, 118),
]

SPEC_WORKLOADS: List[WorkloadSpec] = [
    _spec("blender", 1.1, 0.7, 16.0, 84, 46),
    _spec("bwaves", 41.6, 15.5, 77.8, 680, 224),
    _spec("cactuBSSN", 3.5, 3.3, 44.6, 395, 242),
    _spec("cam4", 3.7, 2.9, 42.1, 267, 204),
    _spec("fotonik3d", 26.6, 34.1, 62.3, 1469, 388),
    _spec("lbm", 27.7, 39.5, 64.4, 1413, 343),
    _spec("mcf", 19.0, 12.6, 76.9, 1056, 465),
    _spec("omnetpp", 9.2, 11.4, 54.3, 1015, 445),
    _spec("parest", 26.5, 12.8, 84.6, 965, 440),
    _spec("roms", 7.8, 5.1, 58.5, 551, 279),
    _spec("xalancbmk", 1.6, 2.3, 26.1, 281, 169),
    _spec("xz", 5.2, 8.3, 48.1, 914, 523),
]

MIX_WORKLOADS: List[WorkloadSpec] = [
    _mix("mix_1", 18.6, 17.0, 72.7, 1085, 397),
    _mix("mix_2", 22.6, 18.6, 68.4, 956, 304),
    _mix("mix_3", 15.1, 18.6, 62.3, 1006, 375),
    _mix("mix_4", 10.0, 19.1, 57.7, 1074, 373),
    _mix("mix_5", 12.3, 23.4, 52.4, 1182, 370),
    _mix("mix_6", 13.6, 18.7, 62.9, 1008, 340),
]

ALL_WORKLOADS: List[WorkloadSpec] = (
    GAP_WORKLOADS + SPEC_WORKLOADS + MIX_WORKLOADS)

_BY_NAME: Dict[str, WorkloadSpec] = {w.name: w for w in ALL_WORKLOADS}


def workload_by_name(name: str) -> WorkloadSpec:
    """Look up a workload descriptor by its Table IV name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown workload {name!r}; known: {known}") \
            from None
