"""On-demand compilation of the native kernel library.

The native provider has **no install-time or runtime dependency**: the
single C source next to this module is compiled at first use with
whatever system compiler exists, loaded through :mod:`ctypes`, and
cached as a shared object keyed by the source + flag digest (so editing
the C file or the flag set invalidates stale artifacts, while repeated
processes — pool workers included — reuse one build).

Flag policy (load-bearing for the bitwise-parity contract; see the
header comment of ``_kernels.c``):

* ``-O3`` for auto-vectorization of the distance/sqrt loops;
* ``-ffp-contract=off`` so ``dx*dx + dy*dy`` is never fused into an FMA
  (NumPy rounds each written operation once; a fused multiply-add
  rounds differently);
* ``-fno-math-errno`` (sqrt stays correctly rounded; dropping errno
  unlocks vectorized sqrt);
* never ``-ffast-math`` — the kernels rely on IEEE NaN/inf comparison
  semantics and division by zero.

Environment knobs::

    REPRO_KERNEL_CC     compiler executable (default: $CC, cc, gcc,
                        clang — first found on PATH).  Point it at a
                        nonexistent path to simulate a compiler-less
                        host (the CI numpy leg does exactly that).
    REPRO_KERNEL_CACHE  cache directory for compiled objects (default:
                        ~/.cache/repro-kernels, falling back to a
                        per-user tmp directory).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Dict, List, Optional

__all__ = ["BuildError", "build_library", "compile_info", "find_compiler"]

#: Environment override for the compiler executable.
CC_ENV = "REPRO_KERNEL_CC"
#: Environment override for the shared-object cache directory.
CACHE_ENV = "REPRO_KERNEL_CACHE"

_CFLAGS = ["-O3", "-fPIC", "-shared", "-fno-math-errno",
           "-ffp-contract=off"]

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "_kernels.c")


class BuildError(RuntimeError):
    """The native kernel library could not be built on this host."""


def find_compiler() -> Optional[str]:
    """The C compiler to use, or ``None`` when the host has none.

    Honors :data:`CC_ENV` first (an explicit-but-missing override means
    *no compiler* — the documented way to simulate compiler-less hosts),
    then ``$CC``, then the conventional names on ``PATH``.
    """
    override = os.environ.get(CC_ENV, "").strip()
    if override:
        found = shutil.which(override)
        return found  # None when the override names nothing runnable
    for candidate in (os.environ.get("CC", "").strip(), "cc", "gcc",
                      "clang"):
        if not candidate:
            continue
        found = shutil.which(candidate)
        if found:
            return found
    return None


def _cache_dir() -> str:
    override = os.environ.get(CACHE_ENV, "").strip()
    if override:
        return override
    home = os.path.expanduser("~")
    if home and home != "~" and os.path.isdir(home):
        return os.path.join(home, ".cache", "repro-kernels")
    return os.path.join(tempfile.gettempdir(),
                        f"repro-kernels-{os.getuid()}")


def _digest(cc: str) -> str:
    with open(_SOURCE, "rb") as handle:
        source = handle.read()
    key = source + b"\0" + " ".join(_CFLAGS).encode() \
        + b"\0" + os.path.basename(cc).encode()
    return hashlib.sha256(key).hexdigest()[:16]


def library_path(cc: Optional[str] = None) -> Optional[str]:
    """Where the compiled object for the current source/flags lives."""
    cc = cc or find_compiler()
    return None if cc is None else _library_path(cc)


def _library_path(cc: str) -> str:
    return os.path.join(_cache_dir(), f"repro_kernels_{_digest(cc)}.so")


def build_library() -> str:
    """Compile (or reuse) the native library; returns the ``.so`` path.

    Raises :class:`BuildError` when no compiler exists or compilation
    fails; the provider lookup then serves NumPy.
    """
    cc = find_compiler()
    if cc is None:
        raise BuildError(
            "no C compiler found (set $CC or REPRO_KERNEL_CC, or install "
            "cc/gcc/clang); the numpy kernel provider remains available")
    out = _library_path(cc)
    if os.path.exists(out):
        return out
    cache = os.path.dirname(out)
    try:
        os.makedirs(cache, exist_ok=True)
    except OSError as exc:
        raise BuildError(f"cannot create kernel cache {cache!r}: {exc}")
    # Compile to a private temp name, then atomically publish: racing
    # processes (pool workers resolving their own provider) each build
    # and the last rename wins with identical bytes.
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    cmd = [cc, *_CFLAGS, "-o", tmp, _SOURCE]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
    except (OSError, subprocess.SubprocessError) as exc:
        _unlink(tmp)
        raise BuildError(f"kernel compile failed to run ({cc}): {exc}")
    if proc.returncode != 0:
        _unlink(tmp)
        detail = (proc.stderr or proc.stdout or "").strip()
        raise BuildError(
            f"kernel compile failed (exit {proc.returncode}): "
            f"{detail[:500]}")
    os.replace(tmp, out)
    return out


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def compile_info() -> Dict[str, object]:
    """Introspection for ``python -m repro kernels``."""
    cc = find_compiler()
    info: Dict[str, object] = {
        "compiler": cc,
        "cflags": list(_CFLAGS),
        "source": _SOURCE,
        "cache_dir": _cache_dir(),
    }
    path = library_path(cc) if cc else None
    info["library"] = path
    info["cached"] = bool(path and os.path.exists(path))
    return info


def cflags() -> List[str]:
    """The compile flag set (exposed for the docs/CLI)."""
    return list(_CFLAGS)
