import os
import subprocess
import sys
from pathlib import Path

import pytest

import keyfactors

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_is_the_object_its_submodule_defines():
    for name in keyfactors.__all__:
        value = getattr(keyfactors, name)
        assert value.__module__.startswith("keyfactors."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert value.__module__ == f"keyfactors.{keyfactors._EXPORTS[name]}", name


def test_dir_lists_every_public_name():
    assert set(keyfactors.__all__) <= set(dir(keyfactors))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        keyfactors.no_such_name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from keyfactors import *", namespace)
    for name in keyfactors.__all__:
        assert namespace[name] is getattr(keyfactors, name), name


def test_submodules_still_import_from_the_package():
    from keyfactors import emit

    assert emit is sys.modules["keyfactors.emit"]


def test_import_loads_no_submodule_until_a_name_is_used():
    probe = (
        "import sys, keyfactors\n"
        "before = [m for m in sys.modules if m.startswith('keyfactors.')]\n"
        "keyfactors.analyze\n"
        "print(before, 'keyfactors.analysis' in sys.modules, 'analyze' in vars(keyfactors))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[] True True\n"


def test_diagnostic_types_resolve_without_loading_the_chain_parser():
    # import-rapex reports its warnings as Diagnostics, and must not pay for the parser to do so.
    probe = (
        "import sys, keyfactors\n"
        "keyfactors.Diagnostic, keyfactors.Severity\n"
        "print(*sorted(m for m in sys.modules if m.startswith('keyfactors.')))\n"
        "from keyfactors import dsl\n"
        "print(dsl.Diagnostic is keyfactors.Diagnostic, dsl.Severity is keyfactors.Severity)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "keyfactors.model\nTrue True\n"


def test_every_benchmark_check_catches_an_altered_output():
    # bench/selftest.py runs each check on good outputs, then on each output altered, where it must fail.
    selftest = [sys.executable, str(ROOT / "bench" / "selftest.py")]
    result = subprocess.run(selftest, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1].endswith(" 0 failures")



def test_every_library_name_the_benchmark_reaches_resolves():
    # bench/ reaches into the library by name: its imports, the layer functions its traced
    # path wraps, and two methods that path calls. The test suite never runs the traced path,
    # so a renamed or removed name would otherwise fail only in a benchmark run.
    import ast
    import importlib
    import importlib.util

    from keyfactors.dsl import parse_document
    from keyfactors.matrix import build_matrix

    for path in sorted((ROOT / "bench").glob("*.py")):  # among them gen.py's matrix.brute_force_sums
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("keyfactors"):
                exec(ast.unparse(node), {})
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"keyfactors.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"keyfactors.{layer}.{name}"
    chain_set, _ = parse_document('alert: A1\ncase: burn\ncomponent "plug"\nharm "burn"\n')
    assert chain_set.chains == tuple(chain_set) and len(chain_set.chains) == 1
    assert build_matrix(chain_set).total() == 1
