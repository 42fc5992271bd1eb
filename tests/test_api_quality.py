"""API quality gates: importability, docstrings, determinism."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

PACKAGES = [
    "repro", "repro.core", "repro.dram", "repro.mc", "repro.cpu",
    "repro.cache", "repro.mitigations", "repro.security",
    "repro.workloads", "repro.sim", "repro.experiments",
]


def walk_modules():
    seen = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        seen.append(package)
        for info in pkgutil.iter_modules(package.__path__ if hasattr(
                package, "__path__") else []):
            seen.append(importlib.import_module(
                f"{package_name}.{info.name}"))
    return seen


class TestImportability:
    def test_every_module_imports(self):
        modules = walk_modules()
        assert len(modules) > 40

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackage_all_resolves(self):
        for package_name in PACKAGES[1:]:
            package = importlib.import_module(package_name)
            for name in getattr(package, "__all__", []):
                assert getattr(package, name) is not None, \
                    f"{package_name}.{name}"


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        for module in walk_modules():
            assert module.__doc__, module.__name__

    def test_public_classes_and_functions_documented(self):
        undocumented = []
        for module in walk_modules():
            if not module.__name__.startswith("repro"):
                continue
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        undocumented.append(
                            f"{module.__name__}.{name}")
        assert undocumented == []

    def test_public_methods_documented(self):
        undocumented = []
        for module in walk_modules():
            for name, obj in vars(module).items():
                if not inspect.isclass(obj) or name.startswith("_"):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(member) and \
                            not inspect.getdoc(member):
                        undocumented.append(
                            f"{module.__name__}.{name}.{attr}")
        assert undocumented == []


class TestCuratedSurface:
    def test_sim_api_exported_at_top_level(self):
        for name in ("simulate", "SimSession", "WorkloadSource",
                     "workload_by_name", "ALL_WORKLOADS"):
            assert name in repro.__all__, name
            assert getattr(repro, name) is not None

    def test_sim_surface_has_one_kernel(self):
        """No simulate entry point takes a backend choice, and no
        backend name is exported."""
        sim = importlib.import_module("repro.sim")
        runner = importlib.import_module("repro.sim.runner")
        for name in ("simulate", "SimSession"):
            assert name in sim.__all__, name
        exported = sim.__all__ + repro.__all__
        assert [n for n in exported if "backend" in n.lower()] == []
        for entry in (runner.simulate, runner.simulate_source,
                      runner.simulate_trace, runner.simulate_tenants):
            assert "backend" not in inspect.signature(entry).parameters

    def test_one_way_to_run_an_exhibit(self, capsys):
        """The planner is the only way to run an exhibit: no experiment
        module has a ``run``/``main`` or a ``__main__`` guard, the
        report exposes no single-exhibit runner, and the CLI's
        ``run``/``list`` take no experiment flags."""
        from repro.__main__ import main as cli_main
        package = importlib.import_module("repro.experiments")
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(
                f"repro.experiments.{info.name}")
            for name in ("run", "main"):
                assert not hasattr(module, name), \
                    f"{module.__name__}.{name}"
            assert '__name__ == "__main__"' \
                not in inspect.getsource(module), module.__name__
        report = importlib.import_module("repro.report")
        assert {name for name, obj in vars(report).items()
                if inspect.isfunction(obj) and not name.startswith("_")
                and obj.__module__ == report.__name__} == {
            "generate_markdown", "write_report"}
        old = "experiment"  # the deleted planner flag's spelling
        for argv in (["run", "tc", f"--{old}", "table6"],
                     ["list", f"--{old}s"]):
            assert cli_main(argv) == 2
            assert f"unrecognized arguments: --{old}" \
                in capsys.readouterr().err

    def test_one_way_through_the_session(self):
        """Batch settings live on the session, as the one policy
        spelling; the session keeps one ledger (``last_batch``), one
        in-process loop and one dedup; and no wrapper runs jobs beside
        it."""
        from repro.sim import registry, runner, session
        from repro.sim.session import FailurePolicy, SimSession
        for method in (SimSession.run_many, SimSession.slowdowns):
            assert list(inspect.signature(method).parameters) \
                == ["self", "jobs"], method.__name__
        assert not hasattr(SimSession(disk_cache=False), "stats")
        with pytest.raises(TypeError):
            SimSession(failure_policy="keep_going")
        assert not hasattr(FailurePolicy, "coerce")
        for name in ("run_workload", "run_baseline", "slowdown_for"):
            assert not hasattr(runner, name), name
        for name in ("_execute", "_run_untokened", "_Tally"):
            assert not hasattr(session, name), name
        for name in ("_run_untokened", "slowdown"):
            assert not hasattr(SimSession, name), name
        assert not hasattr(registry, "setups_from_names")

    def test_workload_sources_satisfy_the_seam(self):
        from repro.params import SimScale, SystemConfig
        from repro.workloads import (
            SyntheticWorkload,
            TraceFileWorkload,
            WorkloadSource,
            workload_by_name,
        )
        synthetic = SyntheticWorkload(workload_by_name("tc"),
                                      SystemConfig(), SimScale(2048))
        assert isinstance(synthetic, WorkloadSource)
        assert isinstance(TraceFileWorkload([]), WorkloadSource)

    def test_stats_helpers_live_only_in_sim_stats(self):
        sim = importlib.import_module("repro.sim")
        stats = importlib.import_module("repro.sim.stats")
        for name in ("format_table", "geometric_mean", "mean"):
            assert not hasattr(sim, name), name
            assert callable(getattr(stats, name))

    def test_deprecated_names_not_in_curated_all(self):
        sim = importlib.import_module("repro.sim")
        for name in ("format_table", "geometric_mean", "mean"):
            assert name not in sim.__all__


class TestDependencies:
    def test_numpy_is_never_imported(self):
        """The package, the report and the kernel are pure Python:
        importing them and running a simulation must not load numpy."""
        script = (
            "import sys\n"
            "import repro, repro.experiments, repro.report\n"
            "from repro.params import SimScale\n"
            "from repro.sim.runner import mirza_setup, simulate\n"
            "scale = SimScale(8192)\n"
            "simulate('tc', mirza_setup(1000, scale), scale)\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestDeterminism:
    def test_mirza_tracker_runs_are_bit_identical(self):
        import random

        from repro.core.config import MirzaConfig
        from repro.core.mirza import MirzaTracker
        from repro.dram.mapping import StridedR2SA
        from repro.params import DramGeometry

        def run():
            geometry = DramGeometry()
            tracker = MirzaTracker(MirzaConfig.paper_config(1000),
                                   geometry, StridedR2SA(geometry),
                                   random.Random(99))
            for i in range(5000):
                tracker.on_activate((i * 769) % 4096, i)
            return (tracker.rct.escaped_acts, tracker.mint.selected,
                    sorted(tracker.queue._entries.items()))
        assert run() == run()
