"""No crowdflow module keeps mutable state at module level.

Scratch buffers belong to one run or one operator call, so that two runs
never share one.  A module-level numpy array, dict, list or set would be
state shared by every run in the process; tuples, other constants and
`functools.lru_cache`d functions are fine.  Dunder names (`__all__`,
`__builtins__`) are the interpreter's, not the package's.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import crowdflow

MUTABLE = (np.ndarray, dict, list, set)
MODULES = sorted(info.name for info in pkgutil.iter_modules(crowdflow.__path__))


def module_scratch(module) -> list[str]:
    """Names bound at module level to a mutable container."""
    return sorted(name for name, value in vars(module).items()
                  if not (name.startswith("__") and name.endswith("__"))
                  and isinstance(value, MUTABLE))


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_no_module_level_scratch(name):
    module = crowdflow if name == "__init__" else \
        importlib.import_module(f"crowdflow.{name}")
    assert module_scratch(module) == []


def test_checker_finds_mutable_bindings():
    class Fake:
        pass

    fake = Fake()
    fake.__dict__.update(BUFFER=np.zeros(3), CACHE={}, ROWS=[], SEEN=set(),
                         SHAPE=(2, 3), LIMIT=1e-6, NAME="x",
                         FROZEN=frozenset(), __all__=["BUFFER"])
    assert module_scratch(fake) == ["BUFFER", "CACHE", "ROWS", "SEEN"]
