import os
import pathlib

import pytest

import uqsl2
from uqsl2.qgroup import AlgebraContext
from uqsl2.quasihopf import QuasiHopfData


@pytest.fixture(scope="session")
def actx() -> AlgebraContext:
    """One algebra context at n = 4, shared across the whole run."""
    return AlgebraContext(4)


@pytest.fixture(scope="session")
def qh(actx) -> QuasiHopfData:
    """Quasi-Hopf structure data over the shared context."""
    return QuasiHopfData(actx)


@pytest.fixture(scope="session")
def child_env() -> dict[str, str]:
    """The environment for a `python -m uqsl2.cli` child process: this one,
    with PYTHONPATH led by the directory that holds the imported package,
    so the child runs the same code without an installed copy."""
    root = str(pathlib.Path(uqsl2.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([root, rest] if rest else [root])}
