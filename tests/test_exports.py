"""The package's public names: every export resolves, no module keeps memo
state of its own, and only the verifier runner builds a CheckReport."""

import ast
import importlib
import pathlib
import pkgutil

import uqsl2


def test_all_names_resolve():
    assert len(set(uqsl2.__all__)) == len(uqsl2.__all__)
    for name in uqsl2.__all__:
        assert hasattr(uqsl2, name), name


def test_star_import():
    namespace = {}
    exec("from uqsl2 import *", namespace)
    assert set(uqsl2.__all__) <= set(namespace)


def test_no_module_level_caches():
    for info in pkgutil.iter_modules(uqsl2.__path__):
        module = importlib.import_module(f"uqsl2.{info.name}")
        cached = [name for name in vars(module) if name.endswith("_CACHE")]
        assert not cached, (info.name, cached)


def _calls(tree: ast.AST) -> list[str]:
    """Dotted names of every call in a module, e.g. "CheckReport", "time.time"."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            parts = []
            func = node.func
            while isinstance(func, ast.Attribute):
                parts.append(func.attr)
                func = func.value
            if isinstance(func, ast.Name):
                parts.append(func.id)
                out.append(".".join(reversed(parts)))
    return out


def test_reports_come_from_the_runner():
    package = pathlib.Path(uqsl2.__file__).parent
    for path in sorted(package.glob("*.py")):
        calls = _calls(ast.parse(path.read_text(encoding="utf-8")))
        assert "time.time" not in calls, path.name
        if path.name != "report.py":
            assert not [c for c in calls if c.split(".")[-1] == "CheckReport"], path.name
