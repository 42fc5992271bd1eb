"""One module per table/figure of the paper's evaluation.

Every module registers one declarative :class:`~repro.experiments.
framework.Experiment`: its cell grid, a pure reducer to the module's
structured Result, a renderer that prints the paper-style table with
the published numbers alongside the reproduced ones, and the paper's
point checks and shape claims.  The framework planner is the one way
to run them:

- ``python -m repro run fig11 table6`` plans the named exhibits as one
  deduplicated session batch and prints each table followed by its
  check and claim flags;
- ``python -m repro report`` does the same for every exhibit and
  writes markdown;
- library code and the tests call
  ``framework.run_experiment(name, Context.make(...))``, passing
  ``scale=`` for the timed window divisor and ``cgf=`` for the
  counting one.

EXPERIMENTS.md records the paper-vs-measured comparison.

Experiment scope knobs (environment variables; a ``Context`` field or
the matching CLI flag overrides each):

- ``REPRO_TIME_SCALE``: the :class:`repro.params.SimScale` divisor
  (default 512 for quick runs; 1 reproduces the paper's full 32 ms
  windows).
- ``REPRO_CGF_SCALE``: the divisor for activation-counting cells
  (default 16).
- ``REPRO_WORKLOADS``: comma-separated workload names or ``all``
  (default: a 6-workload representative subset).
- ``REPRO_SEED``: the base RNG seed (default 0).
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
