"""Compiled step loop of `chain.run`: build on first use, cache, check, load.

`chain_kernel.c` is compiled with the system C compiler (`cc`) and linked
against numpy's `libnpyrandom.a`, so each step draws with the routines
`Generator.binomial` and `Generator.poisson` use, on the Generator's own
bit generator: the random stream and every output stay the same.  The
library is cached per user in `$XDG_CACHE_HOME/hypercollapse` (default
`~/.cache/hypercollapse`), keyed by the numpy version, the platform and a
hash of the source.  `load()` returns None, and `chain.run` keeps its
Python loop, when there is no compiler, the build fails, the cache
directory is not private to this user, or the loaded library does not
reproduce the Python loop draw for draw on a fixed chain.  The reason is
logged to the `hypercollapse.chain_kernel` logger.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import stat
import subprocess
import sysconfig
import tempfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "chain_kernel.c")
_NPYRANDOM = os.path.join(os.path.dirname(os.path.abspath(np.random.__file__)), "lib")
_BUILD_TIMEOUT_S = 120
# Generator.poisson rejects a mean above numpy's POISSON_LAM_MAX, defined so
_LAM_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)
_FAILURES = {
    1: (ValueError, "lam < 0 or lam is NaN"),
    2: (ValueError, "lam value too large"),
    3: (OverflowError, "chain counts exceed the int64 range"),
}

log = logging.getLogger(__name__)


class _SelfCheckError(RuntimeError):
    """The compiled loop drew differently from the Python loop."""


@dataclass(frozen=True)
class Kernel:
    """A loaded library; `steps` is a drop-in for `chain._steps`."""

    path: str
    _fn: ctypes._CFuncPtr = field(repr=False, compare=False)

    def steps(self, n: int, rates: np.ndarray, rng: np.random.Generator,
              patches: int, debris: int, record_trajectory: bool):
        """Step to absorption; `rates` must be C-contiguous float64, len >= n."""
        counts = (ctypes.c_int64 * 3)(0, patches, debris)
        trajectory = np.empty((n + 1, 3), dtype=np.int64) if record_trajectory else None
        bitgen = rng.bit_generator
        with bitgen.lock:
            status = self._fn(n, rates.ctypes.data, bitgen.ctypes.bit_generator, counts,
                              None if trajectory is None else trajectory.ctypes.data,
                              _LAM_MAX)
        if status:
            error, message = _FAILURES[status]
            raise error(message)
        removed, _, debris = counts
        return removed, debris, None if trajectory is None else trajectory[:removed + 1]


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "hypercollapse")


def _check_private(path: str, is_kind) -> None:
    """Refuse what this user does not own or others can write, and symlinks."""
    info = os.lstat(path)
    if not is_kind(info.st_mode) or info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise PermissionError(f"{path} is not private to this user")


def _build(target: str) -> None:
    """Compile chain_kernel.c into the shared library `target`."""
    subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", target, _SOURCE,
                    "-L" + _NPYRANDOM, "-lnpyrandom", "-lm"],
                   check=True, capture_output=True, text=True, timeout=_BUILD_TIMEOUT_S)


def _library() -> str:
    """Path of the cached library, built first if the cache lacks it."""
    with open(_SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read())
    key.update(f"{np.__version__} {sysconfig.get_platform()}".encode())
    directory = _cache_dir()
    os.makedirs(directory, mode=0o700, exist_ok=True)
    _check_private(directory, stat.S_ISDIR)
    path = os.path.join(directory, f"chain_kernel-{np.__version__}-{key.hexdigest()[:16]}.so")
    if not os.path.exists(path):
        # concurrent builders each write their own file; the rename is atomic
        fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
        os.close(fd)
        try:
            _build(tmp)
            os.chmod(tmp, 0o700)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    _check_private(path, stat.S_ISREG)
    return path


def _self_check(kernel: Kernel) -> None:
    """Run a fixed chain through the kernel and through the Python loop.

    Many patches on few vertices take numpy's BTPE binomial branch, few
    take its inversion branch, the last step its p = 1 case; the means
    cross 10, where numpy's Poisson sampler switches method.
    """
    from .chain import _steps

    n = 24
    rates = np.linspace(0.2, 2.0, n)
    for patches in (3, 2000):
        got_rng, want_rng = (np.random.Generator(np.random.PCG64(20_011)) for _ in "ab")
        got = kernel.steps(n, rates, got_rng, patches, 0, True)
        want = _steps(n, rates, want_rng, patches, 0, True)
        if (got[:2] != want[:2] or not np.array_equal(got[2], want[2])
                or got_rng.bit_generator.state != want_rng.bit_generator.state):
            raise _SelfCheckError(f"{kernel.path} drew differently from the Python "
                                 f"loop from {patches} patches")


@functools.cache
def load() -> Optional[Kernel]:
    """The compiled step loop, or None when `chain.run` uses the Python loop."""
    if os.name != "posix":
        log.info("no compiled chain kernel on %s; using the Python loop", os.name)
        return None
    try:
        path = _library()
        lib = ctypes.CDLL(path)
        fn = lib.chain_steps
        fn.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                       ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p, ctypes.c_double]
        fn.restype = ctypes.c_int
        kernel = Kernel(path, fn)
        _self_check(kernel)
    except subprocess.CalledProcessError as exc:
        log.info("chain kernel build failed, using the Python loop:\n%s", exc.stderr)
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        log.info("no chain kernel, using the Python loop: %s", exc)
        return None
    except _SelfCheckError as exc:
        log.warning("%s; using the Python loop", exc)
        return None
    log.info("chain kernel loaded from %s", path)
    return kernel
