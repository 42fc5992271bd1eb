"""MIRZA's safe-TRH accounting: the four phases of Section VI.

A row's unmitigated activations accrue through four phases before it is
guaranteed to be mitigated (Figure 9):

=======  ==========================================================
Phase    Unmitigated ACTs
=======  ==========================================================
A (RCT)  up to FTH before the region counter saturates
B (MINT) up to the tolerated threshold of MINT's random sampling
C (Q)    up to QTH while buffered in MIRZA-Q
D (ABO)  up to ``2 * acts_between_alerts - 1`` extra ACTs because
         ALERT is not instantaneous (the ``Q+7`` of Figure 10)
=======  ==========================================================

Single-sided, the bound is ``FTH + MINT_TRHS + QTH + ABO_acts``.  This
module models the double-sided case the paper's configurations target:
each aggressor only accounts for half of the region counter's budget,
so ``TRHD_safe > FTH/2 + MINT_TRHD + QTH + ABO_acts``.

``solve_fth`` inverts the double-sided bound to provision the largest
safe filtering threshold for a target TRHD -- this is how the Table VII
configurations are derived.
"""

from __future__ import annotations

from repro.params import AboTimings
from repro.security.mint_model import (
    MINT_FAILURE_EXPONENT,
    mint_tolerated_trhd,
)


def abo_extra_acts(abo: AboTimings = AboTimings()) -> int:
    """Phase-D bound: extra ACTs accrued because ALERT takes time.

    Highest-tardiness-first eviction means an entry can sit through at
    most two full ALERT gaps after crossing QTH before it becomes the
    maximum and is mitigated; each gap admits
    ``acts_during_prologue + epilogue_acts`` activations, minus one
    because the triggering activation is already counted.  For the
    default protocol (3 prologue + 1 epilogue) this is the ``Q+7`` worst
    case of Figure 10.
    """
    return 2 * abo.acts_between_alerts - 1


def mirza_safe_trhd(fth: int, mint_window: int, qth: int,
                    abo: AboTimings = AboTimings(),
                    fail_exponent: float = MINT_FAILURE_EXPONENT) -> int:
    """Smallest double-sided threshold MIRZA safely tolerates."""
    return (fth // 2 + mint_tolerated_trhd(mint_window, fail_exponent)
            + qth + abo_extra_acts(abo) + 1)


def solve_fth(trhd_target: int, mint_window: int, qth: int = 16,
              abo: AboTimings = AboTimings(),
              fail_exponent: float = MINT_FAILURE_EXPONENT) -> int:
    """Largest FTH keeping MIRZA safe at ``trhd_target`` (Table VII).

    Inverts ``TRHD > FTH/2 + MINT_TRHD + QTH + ABO_acts``.  Raises
    ``ValueError`` when even FTH = 0 cannot meet the target (the MINT
    window is too large for the threshold).
    """
    budget = (trhd_target - 1 - mint_tolerated_trhd(mint_window,
                                                    fail_exponent)
              - qth - abo_extra_acts(abo))
    if budget < 0:
        raise ValueError(
            f"MINT-{mint_window} cannot meet TRHD={trhd_target} even "
            f"without filtering")
    return 2 * budget
