"""Human-readable rendering of a metrics snapshot.

:func:`render_metrics_report` turns the JSON-able snapshot produced by
:meth:`repro.obs.metrics.MetricsRegistry.snapshot` (or merged across a
session by :func:`repro.obs.metrics.merge_snapshots`) into the table
``python -m repro run WORKLOAD --setup S --metrics`` prints: scalar
counters and gauges first, then bucketed histograms, then per-bank
distributions (ACT and REF counts summarised as min/p50/p99/max plus
an ASCII histogram across banks).

Imports of :mod:`repro.sim.stats` happen inside the function: the
``repro.sim`` package pulls in the simulation runner, which imports
the (instrumented) hot modules, which import :mod:`repro.obs` -- a
module-level import here would close that cycle.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs.metrics import split_key

_BAR_WIDTH = 24


def _bar(count: int, peak: int) -> str:
    if peak <= 0:
        return ""
    return "#" * max(1 if count else 0,
                     round(_BAR_WIDTH * count / peak))


def _group_labeled(snapshot: Dict[str, Dict]
                   ) -> Dict[str, List[Tuple[Dict[str, int], Dict]]]:
    """Labeled counters grouped by base name."""
    groups: Dict[str, List[Tuple[Dict[str, int], Dict]]] = {}
    for key, data in snapshot.items():
        name, labels = split_key(key)
        if labels and data["type"] == "counter":
            groups.setdefault(name, []).append((labels, data))
    return groups


def render_metrics_report(snapshot: Dict[str, Dict]) -> str:
    """The ``run --setup S --metrics`` table for one (possibly merged)
    snapshot."""
    from repro.sim.stats import format_table, histogram, percentile

    if not snapshot:
        return ("no metrics collected (set REPRO_METRICS=1 or pass "
                "--metrics)")
    sections: List[str] = []

    scalar_rows = []
    for key, data in sorted(snapshot.items()):
        _, labels = split_key(key)
        if labels:
            continue
        if data["type"] == "counter":
            scalar_rows.append([key, data["value"]])
        elif data["type"] == "gauge":
            scalar_rows.append(
                [key, f"{data['value']} (max {data['max']})"])
    if scalar_rows:
        sections.append(format_table(
            ["metric", "value"], scalar_rows, title="counters"))

    hist_rows = []
    for key, data in sorted(snapshot.items()):
        if data["type"] != "histogram":
            continue
        counts = data["counts"]
        bounds = data["bounds"]
        count = data["count"]
        mean = data["sum"] / count if count else 0.0
        # Quantiles from the buckets: upper bound of the covering one.
        quantiles = []
        for q in (0.50, 0.99):
            running, answer = 0, bounds[-1]
            for bound, c in zip(bounds, counts):
                running += c
                if running >= q * count and count:
                    answer = bound
                    break
            quantiles.append(answer)
        hist_rows.append([key, count, mean, quantiles[0], quantiles[1],
                          counts[-1]])
    if hist_rows:
        sections.append(format_table(
            ["histogram", "count", "mean", "p50", "p99", "overflow"],
            hist_rows, title="histograms"))

    for name, entries in sorted(_group_labeled(snapshot).items()):
        values = [float(data["value"])
                  for _, data in sorted(
                      entries, key=lambda e: sorted(e[0].items()))]
        rows = [[
            "all banks", len(values), sum(values),
            min(values), percentile(values, 50.0),
            percentile(values, 99.0), max(values),
        ]]
        sections.append(format_table(
            ["lanes", "banks", "total", "min", "p50", "p99", "max"],
            rows, title=f"{name} (per-bank distribution)"))
        counts, edges = histogram(values, bins=8)
        peak = max(counts) if counts else 0
        lines = []
        for i, count in enumerate(counts):
            lines.append(f"  [{edges[i]:>10.0f}, {edges[i + 1]:>10.0f}]"
                         f" {count:>6}  {_bar(count, peak)}")
        sections.append("\n".join(lines))

    return "\n\n".join(sections)
