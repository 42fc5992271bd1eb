"""repro: a full reproduction of MIRZA (HPCA 2026).

MIRZA -- *Mitigating Rowhammer with Randomization and ALERT* -- is the
first low-cost **reactive** in-DRAM Rowhammer mitigation: it combines
MINT's single-entry randomized tracking with coarse-grained filtering
(the Region Count Table) and obtains mitigation time reactively through
the DDR5 ALERT-Back-Off protocol instead of proactively through REF/RFM.

Public API highlights
---------------------
- :class:`repro.core.MirzaConfig` / :class:`repro.core.MirzaTracker` --
  the mechanism itself and its provisioning (Table VII).
- :mod:`repro.mitigations` -- the baselines: PRAC+ABO, proactive MINT,
  Mithril, TRR, PARA.
- :mod:`repro.sim` -- run (workload x mitigation) simulations and
  measure slowdown, ALERT rate, and refresh-power overhead.  The
  :class:`repro.SimSession` object owns result caching and parallel
  fan-out; :func:`repro.setup_by_name` names the paper's setups;
  :func:`repro.simulate` is the uncached kernel underneath.
- :mod:`repro.security` -- analytic safe-TRH models, the attack
  verification harness, and area/storage accounting.
- :mod:`repro.workloads` -- Table IV workload generators and attack
  kernels.
- :mod:`repro.experiments` -- one module per table/figure of the paper.

Quickstart
----------
>>> from repro import MirzaConfig
>>> cfg = MirzaConfig.paper_config(trhd=1000)
>>> cfg.fth, cfg.mint_window, cfg.num_regions
(1500, 12, 128)
>>> cfg.storage_bytes_per_bank
196.0
"""

from repro.core import (
    MintSampler,
    MirzaConfig,
    MirzaQueue,
    MirzaTracker,
    RegionCountTable,
    ResetPolicy,
)
from repro.params import (
    AboTimings,
    DramGeometry,
    DramTimings,
    MitigationCosts,
    SimScale,
    SystemConfig,
)
from repro.sim import (
    SimJob,
    SimSession,
    available_setups,
    setup_by_name,
    simulate,
    using_session,
)
from repro.workloads import (
    ALL_WORKLOADS,
    WorkloadSource,
    WorkloadSpec,
    workload_by_name,
)

__version__ = "1.2.0"

__all__ = [
    "ALL_WORKLOADS",
    "AboTimings",
    "DramGeometry",
    "DramTimings",
    "MintSampler",
    "MirzaConfig",
    "MirzaQueue",
    "MirzaTracker",
    "MitigationCosts",
    "RegionCountTable",
    "ResetPolicy",
    "SimJob",
    "SimScale",
    "SimSession",
    "SystemConfig",
    "WorkloadSource",
    "WorkloadSpec",
    "available_setups",
    "setup_by_name",
    "simulate",
    "using_session",
    "workload_by_name",
    "__version__",
]
