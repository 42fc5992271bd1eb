"""Live batch progress: a single self-updating terminal line.

:class:`ProgressLine` is the callback ``python -m repro run/report
--progress`` installs on the session (see
:attr:`repro.sim.session.SimSession.progress`).  The session invokes it
once per completed cell with a :class:`ProgressUpdate`; on a TTY the
renderer redraws one ``\\r`` status line (throttled), on a plain pipe
(CI logs) it prints a fresh line at most every few seconds so the log
stays readable.  ``close()`` finishes the line -- callers must invoke
it before printing anything else to the same stream.
"""

from __future__ import annotations

import dataclasses
import sys
from time import perf_counter
from typing import IO, Optional


@dataclasses.dataclass(frozen=True)
class ProgressUpdate:
    """One batch-progress observation (cells, not raw jobs)."""

    done: int
    total: int
    cache_hits: int
    retried: int
    failed: int
    elapsed_s: float
    last: str = ""
    """Label of the cell that just finished (see ``job_label``)."""

    @property
    def hit_rate(self) -> float:
        """Fraction of finished cells served from cache."""
        return self.cache_hits / self.done if self.done else 0.0

    @property
    def eta_s(self) -> Optional[float]:
        """Projected seconds remaining (None before any completion)."""
        if self.done == 0 or self.total <= self.done:
            return None if self.done == 0 else 0.0
        return self.elapsed_s / self.done * (self.total - self.done)


def _format(update: ProgressUpdate) -> str:
    pct = 100.0 * update.done / update.total if update.total else 100.0
    parts = [f"[{update.done}/{update.total}] {pct:3.0f}%",
             f"hits {100.0 * update.hit_rate:.0f}%"]
    if update.retried:
        parts.append(f"retries {update.retried}")
    if update.failed:
        parts.append(f"failed {update.failed}")
    eta = update.eta_s
    if eta is not None and update.done < update.total:
        parts.append(f"ETA {eta:.0f}s")
    if update.last:
        parts.append(update.last)
    return " | ".join(parts)


class ProgressLine:
    """Render :class:`ProgressUpdate` callbacks as one status line."""

    def __init__(self, stream: Optional[IO[str]] = None,
                 interactive: Optional[bool] = None,
                 min_interval_s: float = 0.1) -> None:
        self.stream = stream if stream is not None else sys.stderr
        if interactive is None:
            interactive = bool(getattr(self.stream, "isatty",
                                       lambda: False)())
        self.interactive = interactive
        # Non-interactive streams (CI logs) get a line every few
        # seconds instead of a redraw every completion.
        self.min_interval_s = (min_interval_s if interactive
                               else max(min_interval_s, 2.0))
        self._last_render = 0.0
        self._dirty = False
        self._open = False

    def __call__(self, update: ProgressUpdate) -> None:
        now = perf_counter()
        final = update.done >= update.total
        if not final and now - self._last_render < self.min_interval_s:
            self._dirty = True
            return
        self._last_render = now
        self._dirty = False
        text = _format(update)
        if self.interactive:
            self.stream.write("\r\x1b[K" + text)
            self._open = True
        else:
            self.stream.write(text + "\n")
        self.stream.flush()

    def close(self) -> None:
        """Finish the in-place line so later output starts clean."""
        if self.interactive and self._open:
            self.stream.write("\n")
            self.stream.flush()
        self._open = False
