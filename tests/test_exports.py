"""The package's public names: every export resolves, and no module keeps
memo state of its own."""

import importlib
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
