"""The pinned smoke report: one digest over every exhibit's rendering.

At a fixed seed and scale the report is byte-identical apart from its
wall-clock readings, which ``reportbench.outputs.report_digest`` masks.
This test renders every exhibit at the smoke scales on 2 workers and
compares that digest with a committed constant, so a refactor that
changes any reported byte fails here.  A change meant to alter the
report updates ``DIGEST`` and says so.
"""

import os

from reportbench.outputs import report_digest

from repro.report import generate_markdown
from repro.sim.session import SimSession

# Table II's 1-per-REF Mithril cell reads 90 (it read 91 while Mithril
# reset a mitigated entry to the lowest occupied count with entries
# still free); every other byte is unchanged.
DIGEST = "53c8cf970f2dc2b19a7dd8c29313b7e8d960e4c6ebf9c2193b1218056742f1b0"
KNOBS = {"REPRO_TIME_SCALE": "8192", "REPRO_CGF_SCALE": "2048",
         "REPRO_SEED": "0"}


def test_smoke_report_digest_is_pinned(monkeypatch):
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    for key, value in KNOBS.items():
        monkeypatch.setenv(key, value)
    report = generate_markdown(
        progress=False, session=SimSession(disk_cache=False, max_workers=2))
    assert report_digest(report) == DIGEST
