"""Opening the system's C libraries through ctypes: one rule for libcrypto,
libgmp and libsodium.

A library is opened by its soname, and only where that fails by the path
that ctypes.util.find_library names, since find_library runs ldconfig -p
(then gcc or ld) in a child process. On macOS the soname step is skipped:
dlopen there searches the working directory for a bare name, so a file of
that name where a voter runs a command would be loaded into the process
that holds the voter's secrets. Nothing here imports ctypes until a
library is asked for, so importing opens no file.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    import ctypes


def open_library(
    soname: str, name: str, calls: tuple[tuple[str, Any, list], ...]
) -> ctypes.CDLL | None:
    """The library at soname, or else the one find_library(name) finds, with
    each (function, restype, argtypes) of calls declared; None when it
    cannot be loaded or lacks one of them."""
    import ctypes
    import ctypes.util

    try:
        try:
            if sys.platform == "darwin":
                raise OSError("macOS: find_library only")
            lib = ctypes.CDLL(soname)
        except OSError:
            # find_library runs ldconfig -p in a child process, so it only
            # looks where the soname does not open.
            found = ctypes.util.find_library(name)
            if found is None:
                return None
            lib = ctypes.CDLL(found)
        for fname, restype, argtypes in calls:
            fn = getattr(lib, fname)
            fn.restype, fn.argtypes = restype, argtypes
    except (OSError, AttributeError):  # not loadable, or too old or not this library
        return None
    return lib
