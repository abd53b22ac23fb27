"""API hygiene: every public name is exported cleanly and documented."""

import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGES = [
    "repro", "repro.isa", "repro.asm", "repro.pe", "repro.network",
    "repro.core", "repro.assoc", "repro.asclang", "repro.opt",
    "repro.baselines", "repro.fpga", "repro.programs", "repro.bench",
    "repro.util", "repro.faults", "repro.serve", "repro.obs",
]


@pytest.mark.parametrize("package", PACKAGES)
class TestPublicSurface:
    def test_has_all_and_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__, f"{package} missing a module docstring"
        assert hasattr(module, "__all__"), f"{package} missing __all__"
        assert module.__all__, f"{package}.__all__ is empty"

    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} dangling"

    def test_no_private_exports(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            if name == "__version__":     # conventional dunder export
                continue
            assert not name.startswith("_"), f"{package}.{name}"

    def test_classes_and_functions_documented(self, package):
        module = importlib.import_module(package)
        undocumented = []
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(name)
        assert not undocumented, (
            f"{package}: missing docstrings on {undocumented}")


def test_import_repro_leaves_the_serve_stack_unloaded():
    """``import repro``, and so ``repro run``, ``asm`` and ``lint``, does
    not pay for ``repro.serve``: the commands that use it load it."""
    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print(sorted("
         "m for m in sys.modules if m.startswith('repro.serve')))"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert child.returncode == 0, child.stderr[-2000:]
    assert child.stdout.strip() == "[]"


def test_snapshot_import_leaves_the_serve_runtime_unloaded():
    """``repro run --json`` imports ``repro.serve.snapshot``: the
    package's re-exports are lazy, so the batch runner, cache, chaos,
    dispatch, pool and resilience modules stay unloaded."""
    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", "import sys, repro.serve.snapshot; print("
         "sorted(m for m in sys.modules if m.startswith('repro.serve')))"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert child.returncode == 0, child.stderr[-2000:]
    assert child.stdout.strip() == "['repro.serve', 'repro.serve.snapshot']"


class TestVersioning:
    def test_version_matches_pyproject(self):
        import pathlib
        import repro

        pyproject = (pathlib.Path(repro.__file__).resolve()
                     .parents[2] / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject


class TestInstructionStr:
    def test_str_uses_disassembler_syntax(self):
        from repro.isa import Instruction

        text = str(Instruction("padd", rd=1, rs=2, rt=3, mf=4))
        assert text == "padd p1, p2, p3 [f4]"
