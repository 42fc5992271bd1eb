"""Smoke tests: the shipped examples stay runnable.

Every example is compile-checked, and every ``from repro... import
name`` in it must resolve (``py_compile`` never resolves an import), so
a refactor that breaks an example's syntax or imports fails the suite
immediately.  The fast examples, `compare_mitigations` at a deep
scale, and the README's quickstart block also execute end to end.
"""

import ast
import importlib
import pathlib
import py_compile
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
README = EXAMPLES.parent / "README.md"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES.glob("*.py"))
FAST_EXAMPLES = ["provisioning_sweep.py", "quickstart.py",
                 "rowhammer_playground.py", "security_audit.py"]


def repro_imports(path):
    """``(module, name)`` for each ``from repro... import name`` in a
    source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "repro"
            for alias in node.names]


def unresolved(imports):
    """The ``module.name`` of each import that is neither an attribute
    nor a submodule of its module."""
    missing = []
    for module_name, name in imports:
        if hasattr(importlib.import_module(module_name), name):
            continue
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ImportError:
            missing.append(f"{module_name}.{name}")
    return missing


class TestExamplesExist:
    def test_at_least_three_examples(self):
        assert len(ALL_EXAMPLES) >= 3
        assert "quickstart.py" in ALL_EXAMPLES

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_example_compiles(self, name):
        py_compile.compile(str(EXAMPLES / name), doraise=True)

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_example_imports_resolve(self, name):
        imports = repro_imports(EXAMPLES / name)
        assert imports, name  # every example uses the library
        assert unresolved(imports) == []

    def test_import_check_catches_a_missing_name(self):
        # ``repro`` does not import its ``energy`` submodule itself.
        assert unresolved([("repro.sim.runner", "simulate"),
                           ("repro", "energy"),
                           ("repro.sim.runner", "no_such_name")]) \
            == ["repro.sim.runner.no_such_name"]

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_example_has_module_docstring(self, name):
        source = (EXAMPLES / name).read_text()
        assert source.lstrip().startswith('"""'), name


class TestFastExamplesRun:
    @pytest.mark.parametrize("name", FAST_EXAMPLES)
    def test_runs_to_completion(self, name, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", [name])
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
        out = capsys.readouterr().out
        assert len(out) > 100  # produced a real report

    def test_compare_mitigations_at_a_deep_scale(self, capsys,
                                                 monkeypatch):
        name = "compare_mitigations.py"
        monkeypatch.setattr(sys, "argv", [name, "tc", "8192"])
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
        out = capsys.readouterr().out
        assert "Baseline: " in out
        for setup in ("prac-1000", "mint-rfm-1000", "mirza-1000"):
            assert f"\n{setup} " in out, setup


class TestReadme:
    def test_quickstart_block_runs(self, capsys):
        """README's first ``python`` block runs as written and prints
        the values its comment shows."""
        text = README.read_text()
        start = text.index("```python\n") + len("```python\n")
        block = text[start:text.index("```", start)]
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
        printed = capsys.readouterr().out.splitlines()
        assert printed and f"# {printed[0]}" in block.splitlines()
