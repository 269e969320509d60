"""Public names: every `__all__` entry of every newmanlab module resolves, and so
does every attribute the benchmark's tracer patches.  Every module-level import
is read, and importing the CLI leaves the process pool unloaded and loads no
third-party module but numpy."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import newmanlab
import newmanlab.cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(newmanlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"newmanlab.{name}")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_every_module_import_is_read(name):
    tree = ast.parse((Path(newmanlab.__file__).parent / f"{name}.py").read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    assert [alias for alias in imported if alias not in read] == []


def run_probe(probe: str) -> tuple[int, str, str]:
    """Run `probe` in a fresh interpreter that imports this newmanlab."""
    src = str(Path(newmanlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def test_cli_import_does_not_load_the_process_pool():
    """Only a campaign on several workers needs multiprocessing."""
    probe = ("import sys, newmanlab.cli; "
             "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    assert run_probe(probe) == (0, "[]\n", "")


def test_imports_only_the_standard_library_and_numpy():
    """numpy is the only declared dependency, so importing the package and its
    CLI loads no other top-level module from outside the standard library."""
    probe = ("import sys; before = set(sys.modules); import newmanlab, newmanlab.cli; "
             "allowed = set(sys.stdlib_module_names) | {'numpy', 'newmanlab'}; "
             "print(sorted({m.split('.')[0] for m in set(sys.modules) - before} - allowed))")
    assert run_probe(probe) == (0, "[]\n", "")


def test_exported_names_are_defined_where_listed():
    """A class or function is listed only in the `__all__` of the module that
    defines it, so a moved name cannot linger in a second list."""
    from newmanlab import sparsify

    misplaced = []
    for name in MODULES:
        module = importlib.import_module(f"newmanlab.{name}")
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if (inspect.isclass(obj) or inspect.isroutine(obj)) and obj.__module__ != module.__name__:
                misplaced.append((module.__name__, attr, obj.__module__))
    assert misplaced == []
    assert newmanlab.TrialRecord is sparsify.TrialRecord
    assert newmanlab.verify_hypothesis is sparsify.verify_hypothesis


def test_benchmark_trace_points_resolve():
    """The benchmark's tracer patches these attributes; each must stay a callable."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = tracing._bindings(newmanlab)
    assert bindings
    for owner, attr, _, _ in bindings:
        assert callable(getattr(owner, attr, None)), (owner, attr)
    # The benchmark's correctness gate passes a precomputed square height
    # and reads the trial's mask bits.
    inspect.signature(newmanlab.sample).bind(None, None, 0, p_square_height=1)
    p = newmanlab.NewmanPolynomial.all_ones(16)
    bits = newmanlab.sample(p, newmanlab.SparsifyConfig(epsilon=0.3), 0,
                            p_square_height=17).mask.bits
    assert bits.dtype == np.uint8 and bits.shape == (17,) and not bits.flags.writeable
