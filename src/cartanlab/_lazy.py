"""Modules executed on first attribute access: numpy, the numeric half,
and the exact modules only some commands use.

The exact half of the package (gen, validate, section, equiv) never touches
a matrix.  The numeric modules import numpy from here as ``np``, and
``cli`` binds ``kernel_rep``, ``vn_oracle`` and ``spectral_bimodule``
through ``_lazy_import``, so an exact command finishes without loading
numpy or compiling and executing the numeric modules.  ``represent``
executes ``kernel_rep`` but prints the lambdas from their monomial form, so
it too finishes without executing numpy.  ``cli`` binds
``boolean_monoid`` and ``generators`` the same way, so only the commands
that use them execute them, and the package itself serves every export
through its own ``__getattr__``: ``import cartanlab`` executes none of its
modules.  Each module object is the one in ``sys.modules`` (and, for a
submodule, the attribute of its package), so a later ``import`` anywhere
loads and returns the same module.
A module that cannot be found (numpy, when it is not installed) is bound as
a stand-in whose first attribute access raises ModuleNotFoundError, so the
exact commands and ``represent`` still run and a command that needs numpy
(oracle, spectral, msd, mtr) stops at its first use.
"""

import importlib.util
import sys
import types


class _Missing(types.ModuleType):
    def __getattr__(self, attr):
        raise ModuleNotFoundError(f"No module named {self.__name__!r}", name=self.__name__)


def _lazy_import(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        return _Missing(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")
