"""numpy, executed on first attribute access.

The exact half of the package (gen, validate, section, equiv) never touches
a matrix, so the numeric modules import numpy from here as ``np`` and an
exact command finishes without loading it.  The module object is the one
in ``sys.modules``, so a later ``import numpy`` anywhere loads and returns
the same module.
"""

import importlib.util
import sys


def _lazy_import(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")
