"""Public names: every `__all__` entry of every newmanlab module resolves, and so
does every attribute the benchmark's tracer patches.  Every module-level import
is read, and importing the CLI leaves the process pool unloaded and loads no
third-party module but numpy.  Test-only code stays out of the library.  The
README's library quick tour runs and gives the values its comments claim."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
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


def test_test_only_code_stays_out_of_the_library():
    """The mask-enumeration oracle lives in the tests, and the uint8 block
    square in `search`, its one library caller; no other module imports it."""
    assert not hasattr(newmanlab, "expectation_oracle")
    assert not hasattr(newmanlab.sparsify, "expectation_oracle")
    assert not hasattr(newmanlab.poly, "_square_columns")
    importers = []
    for name in MODULES:
        tree = ast.parse((Path(newmanlab.__file__).parent / f"{name}.py").read_text(encoding="utf-8"))
        importers += [name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                      for alias in node.names if alias.name == "_square_columns"]
    assert importers == []


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


def test_readme_quick_tour_runs_as_documented():
    """Each top-level statement of the tour is run in turn, and the value of
    each bare expression is kept under its source text."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    source = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(source, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)

    def value(prefix: str):
        (found,) = [v for text, v in values.items() if text.startswith(prefix)]
        return found

    assert value("p_report.product") == Fraction(1024, 1025)
    assert value("nl.verify_hypothesis(") is True
    assert namespace["alpha"] == Fraction(1, 2)
    assert value("2 * alpha**2") == Fraction(513, 2)
    trial = namespace["trial"]
    assert type(trial) is newmanlab.TrialRecord
    assert type(trial.mask) is newmanlab.KeepMask
