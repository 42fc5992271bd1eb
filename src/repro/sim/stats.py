"""Small statistics and table-formatting helpers for experiments."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (0.0 for an empty input)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def std(values: Iterable[float]) -> float:
    """Population standard deviation."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def percentile(values: Iterable[float], p: float) -> float:
    """The ``p``-th percentile (linear interpolation, ``p`` in [0, 100]).

    Documented semantics: ``numpy.percentile``'s default ("linear")
    method; returns 0.0 for an empty input.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    frac = rank - lower
    if frac == 0.0 or lower + 1 >= len(ordered):
        return ordered[lower]
    return ordered[lower] * (1.0 - frac) + ordered[lower + 1] * frac


def histogram(values: Iterable[float], bins: int = 10
              ) -> Tuple[List[int], List[float]]:
    """Equal-width histogram: ``(counts, edges)``.

    ``edges`` has ``bins + 1`` entries spanning [min, max]; a value on
    an interior edge lands in the higher bin (the last bin is closed on
    both sides), matching ``numpy.histogram``.  Empty input yields all
    zero counts over [0, 1]; constant input yields one occupied bin
    over ``[c, c + 1]``.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    values = list(values)
    if not values:
        return [0] * bins, [i / bins for i in range(bins + 1)]
    low, high = min(values), max(values)
    if low == high:
        high = low + 1.0
    width = (high - low) / bins
    edges = [low + i * width for i in range(bins + 1)]
    edges[-1] = high
    counts = [0] * bins
    for value in values:
        index = int((value - low) / width)
        if index >= bins:
            index = bins - 1
        counts[index] += 1
    return counts, edges


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render an ASCII table in the style of the paper's tables."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            text = f"{cell:,.0f}"
        elif abs(cell) >= 10:
            text = f"{cell:.1f}"
        else:
            text = f"{cell:.3f}"
        # A value that rounds to zero at the chosen precision must not
        # surface as "-0.000" (or "-0"): normalise it to plain "0".
        if float(text.replace(",", "")) == 0:
            return "0"
        return text
    return str(cell)
