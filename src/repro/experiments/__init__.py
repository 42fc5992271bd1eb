"""One module per table/figure of the paper's evaluation.

Every module is a declarative :class:`~repro.experiments.framework.
Experiment` registration plus a thin ``run(...)`` compatibility wrapper
returning the structured results and a ``main()`` that prints the
paper-style table with the published numbers alongside the reproduced
ones.  The report generator plans every registered declaration as
one deduplicated session batch and flags each exhibit's point checks
and shape claims; the tests call the ``run`` functions;
EXPERIMENTS.md records the paper-vs-measured comparison.

Experiment scope knobs (environment variables, also accepted as
arguments):

- ``REPRO_TIME_SCALE``: the :class:`repro.params.SimScale` divisor
  (default 512 for quick runs; 1 reproduces the paper's full 32 ms
  windows).
- ``REPRO_WORKLOADS``: comma-separated workload names or ``all``
  (default: a 6-workload representative subset).
"""

from repro.experiments import (  # noqa: F401
    extras,
    fig1,
    fig3,
    fig6,
    fig11,
    fig13,
    framework,
    fuzz,
    intervm,
    table1,
    table2,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
    table10,
    table11,
    table12,
    table13,
    tracecal,
)

__all__ = [
    "extras", "framework", "fuzz", "intervm", "tracecal",
    "fig1", "fig3", "fig6", "fig11", "fig13",
    "table1", "table2", "table4", "table5", "table6", "table7",
    "table8", "table9", "table10", "table11", "table12", "table13",
]
