"""Named mitigation-setup registry.

Maps stable names ("mirza-1000", "prac-500", ...) to setup factories so
CLIs, config files, and sweep scripts can refer to the paper's
configurations without importing constructor functions:

>>> from repro.sim import setup_by_name, available_setups
>>> setup_by_name("mirza-1000").mapping
'strided'
>>> "mint-rfm-500" in available_setups()
True

Factories take the :class:`~repro.params.SimScale` the run will use, so
setups with per-window thresholds (MIRZA's FTH) scale consistently with
the simulation window.  Downstream code can extend the namespace with
:func:`register_setup`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.params import SimScale
from repro.sim.runner import (
    MINT_RFM_WINDOWS,
    MitigationSetup,
    baseline_setup,
    mint_rfm_setup,
    mirza_setup,
    mist_setup,
    naive_mirza_setup,
    prac_setup,
)

SetupFactory = Callable[[SimScale], MitigationSetup]
"""A registered factory: ``scale -> MitigationSetup``."""

_REGISTRY: Dict[str, SetupFactory] = {}


def register_setup(name: str, factory: SetupFactory,
                   replace: bool = False) -> None:
    """Register ``factory`` under ``name``.

    Refuses to shadow an existing name unless ``replace=True``, so
    typos in extension code fail loudly instead of silently redefining
    a paper configuration.
    """
    if not replace and name in _REGISTRY:
        raise ValueError(f"setup {name!r} is already registered; "
                         f"pass replace=True to override")
    _REGISTRY[name] = factory


def available_setups() -> List[str]:
    """Registered setup names, in registration order."""
    return list(_REGISTRY)


def setup_by_name(name: str,
                  scale: Optional[SimScale] = None) -> MitigationSetup:
    """Instantiate the registered mitigation setup called ``name``.

    ``scale`` feeds factories whose setups carry per-window thresholds
    (e.g. MIRZA's FTH); scale-independent setups ignore it.  A bare
    family name (``"mirza"``, ``"prac"``, ...) is shorthand for its
    TRHD-1000 configuration.  Raises ``KeyError`` listing the known
    names when ``name`` is unknown.
    """
    key = name
    if key not in _REGISTRY and f"{key}-1000" in _REGISTRY:
        key = f"{key}-1000"
    try:
        factory = _REGISTRY[key]
    except KeyError:
        known = ", ".join(available_setups())
        raise KeyError(
            f"unknown setup {name!r}; known: {known}") from None
    return factory(scale if scale is not None else SimScale())


register_setup("baseline", lambda scale: baseline_setup())
for _trhd in (500, 1000, 2000):
    register_setup(f"prac-{_trhd}",
                   lambda scale, trhd=_trhd: prac_setup(trhd))
    register_setup(f"mint-rfm-{_trhd}",
                   lambda scale, trhd=_trhd: mint_rfm_setup(trhd))
    register_setup(
        f"naive-mirza-{_trhd}",
        lambda scale, trhd=_trhd: naive_mirza_setup(
            MINT_RFM_WINDOWS[trhd]))
    register_setup(f"mist-{_trhd}",
                   lambda scale, trhd=_trhd: mist_setup(trhd))
    register_setup(f"mirza-{_trhd}",
                   lambda scale, trhd=_trhd: mirza_setup(trhd, scale))
del _trhd
