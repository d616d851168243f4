"""The package's public names: every export resolves."""

import uqsl2


def test_all_names_resolve():
    assert len(set(uqsl2.__all__)) == len(uqsl2.__all__)
    for name in uqsl2.__all__:
        assert hasattr(uqsl2, name), name


def test_star_import():
    namespace = {}
    exec("from uqsl2 import *", namespace)
    assert set(uqsl2.__all__) <= set(namespace)
