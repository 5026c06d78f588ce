"""Modules loaded on first use, and numpy as one of them.

`lazy_module` registers a module as ``sys.modules[name]`` by
`importlib.util.LazyLoader` without running it. The first read of one of
its attributes runs the module's code in place; so does any later
``import`` of it, since the import system reads the module's ``__spec__``.
The package loads its own submodules this way, and every fibertap module
takes ``np`` from here, so `--version`, `--help`, `print-config` and
`sensitivity`, which compute on no array, start without numpy's ~0.1 s
import.
"""

import importlib.util
import sys


def lazy_module(name):
    """The module `name`: the one already imported, or else a lazy one."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = lazy_module("numpy")
