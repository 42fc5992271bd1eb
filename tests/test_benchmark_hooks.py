"""The report-level benchmark's hooks still find what they wrap.

``reportbench/instrument.py`` wraps ``repro`` functions and methods by
name (``DramDevice.apply_activations``, ``EventBackend.run``, ...), so
renaming or deleting one breaks the traced benchmark run.  This runs
the full installation in a fresh interpreter, then one simulation, and
requires that the kernel run was counted where the benchmark counts it.
The two kernel lookups the benchmark reads must keep naming the one
kernel.
"""

import os
import subprocess
import sys

import pytest

from repro.sim import backend

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
from reportbench.instrument import Instrumentation
from repro.params import SimScale
from repro.sim.runner import baseline_setup, simulate

instrumentation = Instrumentation(full=True)
instrumentation.install()
simulate("tc", baseline_setup(), SimScale(8192))
counts = instrumentation.summary()["counts"]
assert counts["kernel.runs"] == 1, counts
assert counts["calibration.probes"] > 0, counts
"""


def test_reportbench_instrumentation_installs():
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, ROOT]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_kernel_lookups_name_the_one_kernel():
    assert backend.available_backends() == ["event"]
    assert backend.backend_by_name("event") is backend.KERNEL
    assert isinstance(backend.KERNEL, backend.EventBackend)


def test_unknown_kernel_name_lists_the_known_one():
    with pytest.raises(KeyError, match="known: event"):
        backend.backend_by_name("array")
