"""The compiled line kernel (``_tridiag.c``): build, cache and load.

``load()`` gives the library with every entry's ctypes signature set.  It
is built with ``cc`` for the host CPU on first use in a process (never on
import) into a per-user cache.  :mod:`adisplit.operators` runs its
factors, solves, stencils and Cayley loops on it, and
:mod:`adisplit.linsolve` CG's vector updates.  Where it cannot be built or
loaded, ``load()`` raises KernelUnavailableError with the reason; the
attempt is made once per process, and later calls raise the same reason.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import os
import re
import tempfile
import zlib
from pathlib import Path

# subprocess is imported inside the functions that use it, at the first
# kernel use, so that ``import adisplit`` does not load it.  The library's
# name takes zlib's checksums, not hashlib's digests: numpy has loaded zlib
# already, while hashlib loads OpenSSL, 3.4 MB of resident pages.

# The kernel's messages go out on the logger of the operators that use it
logger = logging.getLogger("adisplit.operators")

SOURCE = Path(__file__).with_name("_tridiag.c")
# -march=native vectorizes the sweeps as wide as the building CPU allows.
# Every loop of the kernel works element by element, with no reduction, so
# each element gets the same IEEE result at any vector width; and
# -ffp-contract=off keeps dpttrf's and dpttrs's rounding (no fused
# multiply-add).  The library may not run on another CPU, so its file name
# hashes the target the compiler resolves these flags to (``target``).
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC",
         "-pthread")
# Vector extensions the DEBUG line at load names where the target
# defines them
VECTOR_MACROS = ("__SSE2__", "__AVX__", "__AVX2__", "__AVX512F__",
                 "__ARM_NEON", "__ARM_FEATURE_SVE")
# Result and argument types of the entries: l long, i int, d double,
# p pointer, "" void
_C_TYPES = {"l": ctypes.c_long, "i": ctypes.c_int, "d": ctypes.c_double,
            "p": ctypes.c_void_p, "": None}
SIGNATURES = {
    "adisplit_solve_strided": ("i", "lppppi"),
    "adisplit_solve_contiguous": ("i", "lppppi"),
    "adisplit_factor": ("i", "llppp"),
    "adisplit_stencil": ("", "lidpppppppp"),
    "adisplit_cayley_loop": ("i", "lliipppppp"),
    "adisplit_add_weighted": ("", "lppp"),
    "adisplit_cg_step": ("", "ldpppp"),
    "adisplit_cg_direction": ("", "ldpp"),
}


class KernelUnavailableError(RuntimeError):
    """The compiled kernel could not be built or loaded: no ``cc``, a
    failed compile, or a library the process cannot load."""


def load():
    """The compiled line kernel, built on first use.

    Raises KernelUnavailableError, with the compiler's stderr or the
    OSError, where it cannot be built or loaded.
    """
    lib = _build_and_load()
    if isinstance(lib, str):
        raise KernelUnavailableError(
            f"the compiled tridiagonal kernel is unavailable: {lib}")
    return lib


@functools.cache
def _build_and_load():
    """``load``'s one attempt per process: the library, or why it could
    not be built or loaded, so a missing compiler is probed once."""
    import subprocess

    try:
        host = target()
        lib = ctypes.CDLL(str(build(host)))
    except (OSError, subprocess.CalledProcessError) as exc:
        return str(getattr(exc, "stderr", None) or exc).strip()
    if logger.isEnabledFor(logging.DEBUG):
        defined = set(re.findall(r"^#define (\w+) ", host, re.MULTILINE))
        units = [name.strip("_").lower() for name in VECTOR_MACROS
                 if name in defined]
        logger.debug("compiled tridiagonal kernel %s, vector units: %s",
                     lib._name, " ".join(units) or "none")
    for name, (restype, args) in SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = [_C_TYPES[c] for c in args]
        fn.restype = _C_TYPES[restype]
    return lib


def target() -> str:
    """The target ``cc`` resolves FLAGS to on this machine: the macros it
    predefines, which name the architecture, every instruction set
    extension -march=native enables and the compiler's version."""
    import subprocess

    return subprocess.run(
        ["cc", *FLAGS, "-E", "-dM", "-x", "c", os.devnull],
        check=True, capture_output=True, text=True).stdout


def library_path(host: str) -> Path:
    """Where the library built from SOURCE with FLAGS for ``host`` (as
    ``target`` gives it) lives in the per-user cache: a file named by the
    CRC-32 and Adler-32 checksums of the source, the flags and the target.
    CRC-32 detects every change confined to 32 consecutive bits, so a
    one-byte edit of the source or one changed macro always names another
    file."""
    key = "\n".join((*FLAGS, *sorted(host.splitlines()))).encode()
    data = SOURCE.read_bytes() + key
    tag = f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"
    base = os.environ.get("XDG_CACHE_HOME", "")
    cache = Path(base if os.path.isabs(base) else Path.home() / ".cache") / "adisplit"
    return cache / f"_tridiag-{tag}.so"


def build(host: str) -> Path:
    """Path of the kernel library for ``host`` in the per-user cache,
    compiling it if absent.

    It is compiled into a temporary file that is then renamed into place,
    so concurrent builds never load a partial library.
    """
    import subprocess

    path = library_path(host)
    if path.exists():
        return path
    path.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".so")
    os.close(fd)
    try:
        subprocess.run(["cc", *FLAGS, "-o", tmp, str(SOURCE)],
                       check=True, capture_output=True, text=True)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path
