"""numpy, loaded on first use.

Every fibertap module takes ``np`` from here. Until code reads one of its
attributes, ``np`` is an empty module registered as ``sys.modules["numpy"]``
by `importlib.util.LazyLoader`, so `--version`, `--help`, `print-config`
and `sensitivity`, which compute on no array, start without numpy's ~0.1 s
import. The first attribute read runs numpy's ``__init__`` in place; so
does any later ``import numpy``, since the import system reads the module's
``__spec__``. Where numpy is already imported, ``np`` is that module.
"""

import importlib.util
import sys


def _lazy_module(name):
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = sys.modules["numpy"] if "numpy" in sys.modules else _lazy_module("numpy")
