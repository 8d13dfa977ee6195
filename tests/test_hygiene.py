"""Package hygiene: exported names resolve, no module imports a name it
never uses, and the property tests draw no literals from the library."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest
from hypothesis.internal.conjecture import providers

import sensefuse

PACKAGE_DIR = Path(sensefuse.__file__).parent
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(PACKAGE_DIR)]))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(f"sensefuse.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"sensefuse.{node.module}")
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                assert getattr(sensefuse, alias.asname or alias.name) is getattr(
                    module, alias.name)


def _unused_imports(source: str) -> list[str]:
    """Imported names never read.  ``import a.b`` counts as used when some
    attribute chain starts with ``a.b``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            chain.append(node.id)
            chain.reverse()
            used.update(".".join(chain[:i]) for i in range(1, len(chain) + 1))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    source = (PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8")
    assert _unused_imports(source) == []


def test_validate_is_called_only_in_model():
    # models check themselves when they are made, so no other module
    # re-checks one it is given
    callers = set()
    for name in MODULES:
        tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == "validate":
                    callers.add(name)
    assert callers == {"model"}


def test_property_examples_do_not_draw_library_literals():
    # tests/conftest.py switches off hypothesis's harvest of literals from
    # imported modules, so the tier-1 examples stay put when a literal in
    # sensefuse changes
    get_constants = getattr(providers, "_get_local_constants", None)
    assert get_constants is None or len(get_constants()) == 0
