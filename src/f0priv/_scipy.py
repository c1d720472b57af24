"""scipy's compiled routines, loaded without scipy's subpackages.

Importing ``scipy.linalg`` or ``scipy.optimize`` costs about 300 ms each,
nearly all of it in modules f0priv never calls. The pipeline calls five
compiled routines, so each one's extension file is loaded on its own and
no subpackage ``__init__`` runs.
"""

import importlib
import importlib.machinery
import importlib.util
import os
import sys
from functools import cache


@cache
def _scipy_extension(subpackage: str, stem: str):
    """The compiled module ``scipy.<subpackage>.<stem>``, as an import would give it.

    The module is registered under its full name, so a later import of the
    subpackage shares it. Where scipy has no such file, it is imported the
    usual way.
    """
    name = f"scipy.{subpackage}.{stem}"
    if name in sys.modules:
        return sys.modules[name]
    import scipy  # about 15 ms; its __init__ loads no subpackage

    folder = os.path.join(os.path.dirname(scipy.__file__), subpackage)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, stem + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
            return module
    return importlib.import_module(name)
