"""Every exported name resolves: each module's ``__all__`` and every name
the package ``__init__`` imports from its modules. And the test
configuration's warning rule holds for every test."""

import ast
import importlib
import pkgutil
import warnings
from pathlib import Path

import pytest

import dpconformal

MODULES = sorted(m.name for m in pkgutil.iter_modules(dpconformal.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"dpconformal.{name}")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"dpconformal.{name}.__all__ names {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(dpconformal.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"dpconformal.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert hasattr(dpconformal, alias.asname or alias.name)


def test_a_runtime_warning_fails_the_test_that_raised_it():
    # pyproject.toml's filterwarnings line makes it an error in every test,
    # so the one pytest command checks the no-warning rule of the numerics.
    with pytest.raises(RuntimeWarning):
        warnings.warn("x", RuntimeWarning)
