"""scipy's compiled inverse of the regularized incomplete beta function.

`ibeta_inv(a, b, y)` is the ``x`` with ``I_x(a, b) = y``, for floats. It is
the C function that the `betaincinv` ufunc's float64 loop calls, so the
exact bounds of `metrics.ci_proportion` equal scipy.stats' beta.ppf bit for
bit (tests/test_metrics.py). Only an exact bound imports this module, so
only it loads numpy and scipy, once per process.

It loads `scipy.special._ufuncs_cxx` alone: the `scipy` and `scipy.special`
package inits and the ufuncs' own module, `scipy.special._ufuncs`, would
cost about 20 ms and 5 MB more, and a full `scipy.special` 0.2 s more. Bare
stand-ins take the place of those two packages while `_ufuncs_cxx` loads,
and are removed again, so a later `import scipy.special` runs in full and
reuses the module. The CLI is single-threaded. In a threaded caller, the
first exact bound must not race another thread's first `import scipy`,
which could find a stand-in.
"""

import ctypes
import importlib.util
import sys

_MODULE = "scipy.special._ufuncs_cxx"


def _ufuncs_cxx():
    stand_ins = []
    try:
        for package in ("scipy", "scipy.special"):
            if package not in sys.modules:
                spec = importlib.util.find_spec(package)
                if spec is None:
                    raise ModuleNotFoundError(f"No module named {package!r}", name=package)
                sys.modules[package] = importlib.util.module_from_spec(spec)
                stand_ins.append(package)
        return importlib.import_module(_MODULE)
    finally:
        for package in stand_ins:
            del sys.modules[package]


def _export(module, name: str) -> int:
    """The address of the C function that `module` exports as `name`."""
    # Cython exports it as a `void *` variable; the capsule holds the
    # variable's address.
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    try:
        address = get_pointer(module.__pyx_capi__[name], b"void *")
    except (AttributeError, KeyError, ValueError) as err:
        raise ImportError(f"{_MODULE}: cannot read {name}: {err!r}", name=_MODULE) from None
    return ctypes.c_void_p.from_address(address).value


ibeta_inv = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double)(
    _export(_ufuncs_cxx(), "_export_ibeta_inv_double"))
