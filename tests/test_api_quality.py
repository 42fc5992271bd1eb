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
    "repro.mitigations", "repro.security", "repro.workloads",
    "repro.sim", "repro.experiments",
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
        execution loop (serial, pooled, pool fallback and untokened
        jobs alike) and one dedup; and no wrapper runs jobs beside
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
        for name in ("_run_serial", "_run_pass", "_complete_pass"):
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
        for name in ("format_table", "mean"):
            assert not hasattr(sim, name), name
            assert callable(getattr(stats, name))

    def test_deprecated_names_not_in_curated_all(self):
        sim = importlib.import_module("repro.sim")
        for name in ("format_table", "mean"):
            assert name not in sim.__all__

    REMOVED_MODULES = ("repro.cache", "repro.cache.llc",
                       "repro.mitigations.blockhammer",
                       "repro.mitigations.qprac", "repro.dram.commands",
                       "repro._profile", "repro.mitigations.hydra",
                       "repro.mitigations.pride",
                       "repro.mitigations.protrr")
    REMOVED_NAMES = {
        "repro.dram.mapping": ("AddressMapping", "DecodedAddress"),
        "repro.energy": ("EnergyBreakdown", "energy_of_run"),
        "repro.mitigations": ("BlockHammerThrottle",
                              "CountingBloomFilter", "QpracTracker",
                              "HydraTracker", "PrideTracker",
                              "ProTrrTracker"),
        "repro.dram": ("AddressMapping", "DecodedAddress", "DramCommand"),
        "repro.security.lifetime": ("required_exponent",),
        "repro.security.mint_model": ("mint_tolerated_trhs",),
        "repro.security.mirza_model": ("mirza_safe_trhs",),
        "repro.security": ("escape_curve", "mint_tolerated_trhs",
                           "mirza_safe_trhs", "required_exponent"),
        "repro.workloads.specs": ("average_characteristics",),
        "repro.workloads.tracefile": ("trace_from_string",),
        "repro.workloads": ("IterableWorkloadSource",
                            "benign_striped_trace", "trace_from_string",
                            "worst_case_single_bank_stream"),
        "repro.params": ("max_acts_per_channel_per_trefw",),
        "repro.sim.stats": ("geometric_mean",),
        "repro.sim.profile": ("enabled_by_env", "maybe_profile_from_env",
                              "active", "install", "perf_counter"),
        "repro.obs.profile": ("enabled_by_env", "maybe_profile_from_env",
                              "active", "install", "profiling"),
        "repro.obs.metrics": ("active", "install", "requested",
                              "enabled_by_env", "collecting"),
        "repro.obs.trace": ("active", "install", "requested",
                            "enabled_by_env", "limit_from_env",
                            "tracing"),
        "repro.obs.spans": ("limit_from_env", "active", "install",
                            "requested", "enabled_by_env", "recording"),
        "repro.obs": ("metrics_requested", "trace_requested",
                      "spans_requested"),
        "repro.sim.session": ("_observability_satisfied",),
        "repro.experiments.common": ("_MAPPINGS",),
        "repro.security.fuzz": ("escape_curve", "_mapping_for"),
    }

    def test_one_place_decides_observability(self):
        """``repro.obs`` installs, requests, ships and folds every sink
        from one table; each sink module keeps its class and its
        ``_ACTIVE`` slot, and the session no sink of its own."""
        from repro import obs
        from repro.obs import metrics, profile, spans, trace
        from repro.sim.session import SimSession
        assert {name: sink.slot for name, sink in obs.SINKS.items()} \
            == {"metrics": metrics, "trace": trace, "spans": spans,
                "profile": profile}
        for sink in obs.SINKS.values():
            assert sink.slot._ACTIVE is None
        assert issubclass(trace.TraceBuffer, trace.Ring)
        assert issubclass(spans.SpanRecorder, trace.Ring)
        assert not hasattr(SimSession, "_absorb_observability")
        for name in ("metrics_snapshot", "trace_events", "spans_list"):
            assert not hasattr(obs.Collection, name), name

    def test_one_place_prices_tracker_storage(self):
        """``repro.security.area`` alone prices tracker SRAM: no tracker
        carries a storage method, and Mithril no longer takes the counter
        width only that method read."""
        from repro.mitigations import BankTracker, MithrilTracker
        for name in ("storage_bits", "storage_bytes"):
            assert not hasattr(BankTracker, name), name
        with pytest.raises(TypeError):
            MithrilTracker(bits_per_counter=11)

    def test_one_footprint_path_and_one_mint_window(self):
        """Tenant footprints come from ``scenario_footprints`` alone (it
        reads a permuted bank without a row table), and MINT keeps its
        window on its sampler only."""
        from repro.mitigations import MintTracker
        from repro.workloads.tenants import TenantWorkload
        assert not hasattr(TenantWorkload, "footprints")
        tracker = MintTracker(12)
        assert not hasattr(tracker, "window")
        assert tracker.sampler.window == 12

    def test_one_attack_vocabulary_and_one_source_seam(self):
        """Attacks are pattern specs only (no generator module beside
        them), every workload source serves cores through
        ``chunk_source`` alone, and an address space is identity or
        seeded permutation."""
        import dataclasses
        from repro import workloads
        from repro.dram.mapping import AddressSpaceSpec, \
            make_address_space
        from repro.workloads.mixed import MixedWorkload
        with pytest.raises(ImportError):
            importlib.import_module("repro.workloads.attacks")
        assert [name for name in workloads.__all__
                if name.endswith("_attack_stream")
                or name in ("trr_evasion_pattern",
                            "performance_attack_trace")] == []
        for cls in (workloads.SyntheticWorkload, MixedWorkload,
                    workloads.TraceFileWorkload, workloads.TenantWorkload,
                    workloads.AttackWorkload, workloads.WorkloadSource):
            assert "chunk_source" in vars(cls), cls.__name__
            assert not hasattr(cls, "trace_factory"), cls.__name__
        assert [f.name for f in dataclasses.fields(AddressSpaceSpec)] \
            == ["kind", "seed"]
        with pytest.raises(ValueError, match="strided"):
            make_address_space(AddressSpaceSpec(kind="strided"))

    @pytest.mark.parametrize("module", REMOVED_MODULES)
    def test_removed_modules_stay_gone(self, module):
        with pytest.raises(ImportError):
            importlib.import_module(module)

    @pytest.mark.parametrize("module,name", [
        pytest.param(module, name, id=f"{module}.{name}")
        for module, names in sorted(REMOVED_NAMES.items())
        for name in names])
    def test_removed_names_stay_gone(self, module, name):
        mod = importlib.import_module(module)
        assert not hasattr(mod, name)
        assert name not in getattr(mod, "__all__", ())

    @pytest.mark.parametrize("verb", ["stats", "trace"])
    def test_folded_verbs_are_unknown_exhibits(self, verb, capsys):
        """``stats`` and ``trace`` are ``run --setup S`` with
        ``--metrics`` or ``--trace-out``; as bare words they are exhibit
        names that do not exist."""
        from repro.__main__ import main as cli_main
        assert cli_main([verb]) == 2
        assert f"unknown exhibit '{verb}'" in capsys.readouterr().err

    def test_trace_convert_keeps_its_dispatch(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main
        fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                               "tc.dramsim3")
        out = tmp_path / "tc.trace"
        assert cli_main(["trace", "convert", fixture, str(out),
                         "--workload", "tc", "--instructions", "11"]) == 0
        assert "wrote 1600 entries" in capsys.readouterr().out
        assert "# workload: tc" in out.read_text()


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
