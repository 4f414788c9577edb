"""Build and load the compiled simulator kernels, `_kernels.c`.

`library()` returns the kernels as a `ctypes` library, or None where they
cannot be had; `simulator.simulate` then runs its Python kernels. The
kernels write into numpy arrays that the caller allocates, the samples
too, and free all they allocate before they return. The first
call in a process reads the C source through the module's loader (which
serves a zip import too), hashes it with the builtin sha512 module of the
running Python (`_sha2` from 3.12 on, `_sha512` before; `hashlib`, which
loads OpenSSL, only where that is missing), which `random`, and so
`simulator`, has imported already, and looks for the library in a
per-user cache directory, `$XDG_CACHE_HOME/redundancy-ht`
(`~/.cache/redundancy-ht` when that is unset), or, only when that cannot
be used, `redundancy-ht-<uid>` under `tempfile.gettempdir()`, in a file
named by the sha512 of the C source. If it is not there, the source
is compiled with the system `cc` into a temporary file that then replaces
the library's path, so concurrent processes never load half a file.
Nothing is written to the source tree. A failed build leaves a
`<hash>.failed` marker beside it, and no later process runs the compiler
on the same source again. No flag or environment variable selects the
kernels: the compiled ones run wherever they build.
"""
from __future__ import annotations

import functools
import importlib
import os
import sys

_CC = "cc"  # the compiler command
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


@functools.cache
def library():
    """The compiled kernels with their argument types declared, or None."""
    # the module's loader reads the source beside it, from a zip archive too
    source = __loader__.get_data(os.path.join(os.path.dirname(__file__), "_kernels.c"))
    digest = _sha512(source)
    folder = _cache_dir()
    if folder is None:
        return None
    path = os.path.join(folder, f"{digest}.so")
    if not os.path.exists(path) and (os.path.exists(os.path.join(folder, f"{digest}.failed"))
                                     or not _build(source, folder, digest)):
        return None
    import ctypes

    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    # arrays, the outputs too, go in as the addresses of C-contiguous numpy
    # arrays of the C types (numpy.ctypeslib.ndpointer would add ~0.6 ms of
    # import a process)
    array = ctypes.c_void_p
    for kernel in (lib.rht_run_coc, lib.rht_run_cos):
        kernel.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.c_double, array, array, array,
                           array, array, ctypes.c_int, array, ctypes.c_int64, array, array,
                           array, ctypes.c_int64, array]
        kernel.restype = ctypes.c_int
    return lib


def _sha512(data):
    """The sha512 hex digest of `data`. Importing hashlib loads OpenSSL, ~3 ms
    a process, so the lean builtin module of the running version comes first,
    the one `random` imports for its seeds; a failed import would search all
    of sys.path first."""
    try:
        module = importlib.import_module("_sha2" if sys.version_info >= (3, 12) else "_sha512")
    except ImportError:
        import hashlib as module
    return module.sha512(data).hexdigest()


def _candidates(uid):
    """The cache directories in order of preference; the temporary one is
    worked out only when asked for, as `tempfile.gettempdir` writes a probe file."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    yield os.path.join(base, "redundancy-ht")
    import tempfile

    yield os.path.join(tempfile.gettempdir(), f"redundancy-ht-{uid}")


def _cache_dir():
    """The first cache directory that is this user's and writable, created if
    missing, or None."""
    uid = os.getuid() if hasattr(os, "getuid") else None
    for folder in _candidates(uid):
        if not os.path.isabs(folder):
            continue
        try:
            os.makedirs(folder, mode=0o700, exist_ok=True)
            owner = os.stat(folder).st_uid
        except OSError:
            continue
        if (uid is None or owner == uid) and os.access(folder, os.W_OK):
            return folder
    return None


def _build(source, folder, digest):
    """Compile `source` to `<digest>.so` in `folder`; on failure leave
    `<digest>.failed` there instead. Returns whether the library was built."""
    import subprocess
    import tempfile

    try:
        fd, tmp = tempfile.mkstemp(dir=folder, suffix=".so.tmp")
    except OSError:
        return False
    os.close(fd)
    try:
        built = subprocess.run([_CC, *_CFLAGS, "-x", "c", "-", "-o", tmp], input=source,
                               capture_output=True, timeout=300).returncode == 0
    except (OSError, subprocess.SubprocessError):
        built = False
    try:
        if built:
            os.replace(tmp, os.path.join(folder, f"{digest}.so"))
            return True
        os.remove(tmp)
        with open(os.path.join(folder, f"{digest}.failed"), "w"):
            pass
    except OSError:
        pass
    return False
