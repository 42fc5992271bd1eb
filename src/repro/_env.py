"""Defensive parsing for the ``REPRO_*`` environment knobs.

Environment variables are typed by the user, not the library, so a
malformed value (``REPRO_JOBS=many``, ``REPRO_FAULT_RATE=lots``) must
not surface as a bare ``ValueError`` deep inside a sweep.  Every parser
here warns once per (variable, value) and falls back to the caller's
default instead.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, Optional, Set, Tuple

_WARNED: Set[Tuple[str, str]] = set()


def _warn_once(var: str, raw: str, default: object) -> None:
    key = (var, raw)
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(f"ignoring malformed {var}={raw!r}; "
                  f"using default {default!r}", stacklevel=3)


def env_int(var: str, default: int, minimum: Optional[int] = None,
            aliases: Optional[Dict[str, int]] = None) -> int:
    """``int(os.environ[var])`` with a warn-and-default fallback.

    ``aliases`` maps non-numeric spellings to values (``{"auto": ...}``
    for ``REPRO_JOBS``); ``minimum`` clamps the parsed result.
    """
    raw = os.environ.get(var)
    if raw is None or raw == "":
        return default
    lowered = raw.strip().lower()
    if aliases and lowered in aliases:
        value = aliases[lowered]
    else:
        try:
            value = int(raw)
        except ValueError:
            _warn_once(var, raw, default)
            return default
    if minimum is not None and value < minimum:
        value = minimum
    return value


def env_choice(var: str, default: str, choices: Tuple[str, ...]) -> str:
    """``os.environ[var]`` restricted to ``choices``, warn-and-default.

    Matching is case-insensitive after stripping whitespace, mirroring
    the alias handling of :func:`env_int`; an unrecognised spelling
    (``REPRO_KERNEL_BACKEND=bogus``) warns once and falls back to
    ``default`` instead of raising mid-sweep.
    """
    raw = os.environ.get(var)
    if raw is None or raw == "":
        return default
    value = raw.strip().lower()
    if value in choices:
        return value
    _warn_once(var, raw, default)
    return default


def env_float(var: str, default: float,
              minimum: Optional[float] = None) -> float:
    """``float(os.environ[var])`` with a warn-and-default fallback."""
    raw = os.environ.get(var)
    if raw is None or raw == "":
        return default
    try:
        value = float(raw)
    except ValueError:
        _warn_once(var, raw, default)
        return default
    if minimum is not None and value < minimum:
        value = minimum
    return value
