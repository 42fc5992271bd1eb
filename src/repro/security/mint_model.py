"""Analytic tolerated-threshold model for MINT's random sampling.

MINT selects exactly one of every ``W`` activations uniformly at random.
An attacker hammering a target row ``d`` times per window escapes
selection in that window with probability ``1 - d/W``; over ``m``
windows the row accrues ``d * m`` unmitigated activations with escape
probability ``(1 - d/W) ** m``.  Requiring the attack's success
probability to stay below ``2 ** -k`` bounds the unmitigated activations
at::

    N(W, d) = d * k * ln(2) / -ln(1 - d/W)

which is maximised at ``d = 1`` (slower hammering escapes longer), giving

    N(W) = k * ln(2) / -ln(1 - 1/W)  ~=  0.693 * k * (W - 0.5)

``k`` is the failure exponent: the attack succeeds with probability at
most ``2**-k`` per bank per refresh window.  We calibrate ``k = 28.5``
against the MINT paper's published security model, which reproduces its
anchor point (window 75 -> TRHD 1.5K, Section II-E) and the MINT-W to
FTH pairings of the paper's Table VII to within ~2%.

For a *double-sided* attack the victim is disturbed by two aggressors;
mitigating either one refreshes the victim, so per window of combined
budget the escape probability is squared while the disturbance doubles
-- the algebra cancels and the tolerated *double-sided* threshold equals
``N(W)``.  A single-sided attack must deliver the same charge from one
neighbour, which empirically needs twice the activations, hence
``TRHS = 2 * TRHD`` (Section VI-C: "target TRHS would be 2x higher").
"""

from __future__ import annotations

import math

MINT_FAILURE_EXPONENT = 28.5
"""Calibrated failure exponent: attack success probability <= 2**-k."""


def mint_unmitigated_bound(window: int,
                           fail_exponent: float = MINT_FAILURE_EXPONENT,
                           acts_per_window: int = 1) -> float:
    """Max unmitigated ACTs an attacker sustains against MINT-``window``.

    ``acts_per_window`` is the attacker's per-window rate ``d``; the
    adversarial optimum is ``d = 1``.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not 1 <= acts_per_window <= window:
        raise ValueError("acts_per_window must be in [1, window]")
    if window == 1:
        return float(acts_per_window)
    escape = 1.0 - acts_per_window / window
    return acts_per_window * fail_exponent * math.log(2) / -math.log(escape)


def mint_tolerated_trhd(window: int,
                        fail_exponent: float = MINT_FAILURE_EXPONENT
                        ) -> int:
    """Double-sided Rowhammer threshold MINT-``window`` can tolerate."""
    return math.floor(mint_unmitigated_bound(window, fail_exponent))


def mint_window_for_trhd(trhd: int,
                         fail_exponent: float = MINT_FAILURE_EXPONENT
                         ) -> int:
    """Largest window whose tolerated TRHD is still <= ``trhd``.

    This is the provisioning direction: given a device threshold, pick
    the largest (cheapest) window that remains safe.
    """
    if trhd < 1:
        raise ValueError("trhd must be >= 1")
    if mint_tolerated_trhd(1, fail_exponent) > trhd:
        raise ValueError(f"no MINT window tolerates TRHD={trhd}")
    lo, hi = 1, 2
    while mint_tolerated_trhd(hi, fail_exponent) <= trhd:
        hi *= 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mint_tolerated_trhd(mid, fail_exponent) <= trhd:
            lo = mid
        else:
            hi = mid - 1
    return lo
