"""Names that code outside src/ reads from esrc's modules.

The benchmark's probe wraps esrc functions by module attribute, and a hook
that no longer resolves shows only as a "not traced" note in a traced
benchmark run.  README's Python examples import from the submodules.  Both
are checked here, so that deleting or moving a name they use fails a test.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBE = ROOT / "perfbench" / "probe.py"
README = ROOT / "README.md"


def load_probe(monkeypatch):
    """perfbench/probe.py as a module, without writing its bytecode cache."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def test_every_probe_hook_resolves(monkeypatch):
    probe = load_probe(monkeypatch)
    hooks = [(module, attr) for _, module, attr in probe.TRACE_POINTS]
    hooks.append(probe.TRANSFORM_FACTORY[1:])
    hooks += [("esrc.cli", attr) for attr in probe.COMPUTE_ENTRY_POINTS]
    missing = [
        f"{module}.{attr}"
        for module, attr in hooks
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_importing_the_cli_loads_every_module_the_probe_hooks(monkeypatch):
    # the probe installs its tracer on the modules in sys.modules right after
    # `import esrc.cli`, so one imported later would run untraced
    probe = load_probe(monkeypatch)
    modules = sorted({module for _, module, _ in probe.TRACE_POINTS} | {probe.TRANSFORM_FACTORY[1]})
    code = f"import sys, esrc.cli; print([m for m in {modules!r} if m not in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def readme_imports():
    """(module, name) of every `from esrc... import name` in README's python blocks."""
    found = []
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "esrc":
                found += [(node.module, alias.name) for alias in node.names]
    return found


def test_readme_imports_resolve():
    imports = readme_imports()
    assert imports, "README has no `from esrc... import` in a python block"
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
