"""Names that code outside src/ reads from esrc's modules.

The benchmark's probe wraps esrc functions by module attribute, and a hook
that no longer resolves shows only as a "not traced" note in a traced
benchmark run.  README's Python examples import from the submodules.  Both
are checked here, so that deleting or moving a name they use fails a test,
and README's Python examples are run and its configuration example parsed,
so that an API change that leaves them stale fails one too.
"""

import ast
import importlib
import importlib.util
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

from esrc.runner import parse_config

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


def readme_blocks():
    """The code of every python block in README."""
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def readme_imports():
    """(module, name) of every `from esrc... import name` in README's python blocks."""
    found = []
    for block in readme_blocks():
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


def test_readme_python_blocks_run():
    # a child process, with BLAS pinned as the CLI pins it; about 1 s
    blocks = readme_blocks()
    assert blocks, "README has no python block"
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    for block in blocks:
        done = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


def test_readme_config_example_gives_its_documented_plan():
    (doc,) = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    plan = parse_config(doc)
    points = [(point["snr_db"], point["m"]) for point in plan.points()]
    assert points == list(itertools.product((0.0, 5.0, 10.0, 15.0, 20.0), (0.7, 2.5)))
    base = plan.base
    assert (base.n_t, base.n_r, base.side, base.rho, base.l_band) == (8, 8, "transmit", 0.3, 7)
    assert (base.trials, base.seed) == (100_000, 42)
