"""The compiled random loops: build on first use, cache, check, load.

`chain_kernel.c` holds the step loop of `chain.run` and the patch loop of
`hypergraph.collapse_all`, which `hypergraph.identifiable_set` runs with a
fixed pick and no generator.  It is compiled with the system C compiler
(`cc`) and linked against numpy's `libnpyrandom.a`, so each loop draws
with the routines `Generator.binomial`, `Generator.poisson` and
`Generator.integers` use, on the Generator's own bit generator: the random
stream and every output stay the same.  The library is cached per user in
`$XDG_CACHE_HOME/hypercollapse` (default `~/.cache/hypercollapse`), keyed
by the numpy version, the platform and a hash of the source; a build
deletes the libraries that other sources built for the same numpy.  `load()`
returns None, and every caller keeps its Python loop, when there is no
compiler, the build fails, the cache directory is not private to this
user, or the loaded library does not reproduce the Python loops draw for
draw on a fixed chain and a fixed hypergraph.  The reason is logged to the
`hypercollapse.chain_kernel` logger.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import logging
import os
import stat
import subprocess
import sysconfig
import tempfile
from array import array
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
    4: (MemoryError, "no memory for the collapse"),
    5: (ValueError, "edge sizes do not match the vertex ids, or an id is out of range"),
}

# a private prototype, so that no other user of ctypes.pythonapi is affected
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))

log = logging.getLogger(__name__)


class _SelfCheckError(RuntimeError):
    """A compiled loop drew differently from its Python loop."""


def _raise(status: int) -> None:
    error, message = _FAILURES[status]
    raise error(message)


def _bitgen(bit_generator: np.random.BitGenerator) -> int:
    """Address of the bit generator's bitgen_t: its `ctypes.bit_generator`,
    without the function pointers that attribute builds on first use."""
    return _capsule_pointer(bit_generator.capsule, b"BitGenerator")


@dataclass(frozen=True)
class Kernel:
    """A loaded library; `steps` is a drop-in for `chain._steps`, and
    `collapse` for `hypergraph._collapse_steps`."""

    path: str
    _steps: ctypes._CFuncPtr = field(repr=False, compare=False)
    _collapse: ctypes._CFuncPtr = field(repr=False, compare=False)

    def steps(self, n: int, rates: np.ndarray, rng: np.random.Generator,
              patches: int, debris: int, record_trajectory: bool):
        """Step to absorption; `rates` must be C-contiguous float64, len >= n."""
        counts = (ctypes.c_int64 * 3)(0, patches, debris)
        trajectory = np.empty((n + 1, 3), dtype=np.int64) if record_trajectory else None
        bitgen = rng.bit_generator
        with bitgen.lock:
            status = self._steps(n, rates.ctypes.data, _bitgen(bitgen), counts,
                                 None if trajectory is None else trajectory.ctypes.data,
                                 _LAM_MAX)
        if status:
            _raise(status)
        removed, _, debris = counts
        return removed, debris, None if trajectory is None else trajectory[:removed + 1]

    def collapse(self, n: int, sizes: array, ids: array,
                 rng: Optional[np.random.Generator], record_trajectory: bool):
        """Collapse to no patches; `sizes` and `ids` are int64 arrays ("q").
        With `rng` None each step takes the last bag entry and draws nothing."""
        if sizes.typecode != "q" or ids.typecode != "q":
            raise TypeError("sizes and ids must be arrays of typecode 'q'")
        identified = array("q", bytes(8 * n))
        trajectory = np.empty((n + 1, 3), dtype=np.int64) if record_trajectory else None
        bitgen = None if rng is None else rng.bit_generator
        with contextlib.nullcontext() if bitgen is None else bitgen.lock:
            removed = self._collapse(n, len(sizes), sizes.buffer_info()[0],
                                     len(ids), ids.buffer_info()[0],
                                     None if bitgen is None else _bitgen(bitgen),
                                     identified.buffer_info()[0],
                                     None if trajectory is None else trajectory.ctypes.data)
        if removed < 0:
            _raise(-removed)
        return (identified[:removed].tolist(),
                None if trajectory is None else trajectory[:removed + 1])


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
        _remove_stale(path)
    _check_private(path, stat.S_ISREG)
    return path


def _remove_stale(path: str) -> None:
    """Delete the libraries that other sources built for this numpy: this
    user's regular files named like `path` with another hash.  Symlinks and
    other users' files stay; a file that a concurrent builder removed or
    replaced first is left to it."""
    directory, keep = os.path.split(path)
    prefix = f"chain_kernel-{np.__version__}-"
    with os.scandir(directory) as entries:
        stale = [e for e in entries if e.name != keep and e.name.startswith(prefix)
                 and e.name.endswith(".so")]
    for entry in stale:
        try:
            info = entry.stat(follow_symlinks=False)
            if stat.S_ISREG(info.st_mode) and info.st_uid == os.getuid():
                os.unlink(entry.path)
        except OSError:
            pass


def _self_check(kernel: Kernel) -> None:
    """Run a fixed chain and a fixed collapse through the kernel and
    through the Python loops.

    Many patches on few vertices take numpy's BTPE binomial branch, few
    take its inversion branch, the last step its p = 1 case; the means
    cross 10, where numpy's Poisson sampler switches method.  The collapse
    leaves stale entries in its bag, and its bag falls to one entry, where
    `Generator.integers(1)` draws nothing.  The same collapse runs once
    more with the fixed pick of `identifiable_set`.
    """
    from .chain import _steps
    from .hypergraph import _collapse_steps

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
    # three patches on vertex 0 leave two stale entries; 6 and 7 stay
    edges = [(), (0,), (0,), (0,), (1,), (0, 2), (2, 3), (4, 5), (6, 7), (1, 3, 4), (5, 6, 7)]
    sizes = array("q", map(len, edges))
    ids = array("q", [v for e in edges for v in e])
    got_rng, want_rng = (np.random.Generator(np.random.PCG64(20_011)) for _ in "ab")
    got = kernel.collapse(8, sizes, ids, got_rng, True)
    want = _collapse_steps(8, sizes, ids, want_rng, True)
    if (got[0] != want[0] or not np.array_equal(got[1], want[1])
            or got_rng.bit_generator.state != want_rng.bit_generator.state):
        raise _SelfCheckError(f"{kernel.path} collapsed differently from the Python loop")
    # the fixed pick (no generator) removes 1, 0, 2, 3, 4, 5, then meets two stale entries
    if kernel.collapse(8, sizes, ids, None, False)[0] != _collapse_steps(8, sizes, ids,
                                                                         None, False)[0]:
        raise _SelfCheckError(f"{kernel.path} collapsed differently from the Python loop "
                              f"with the fixed pick")


@functools.cache
def load() -> Optional[Kernel]:
    """The compiled loops, or None when `chain.run`, `collapse_all` and
    `identifiable_set` use their Python loops."""
    if os.name != "posix":
        log.info("no compiled chain kernel on %s; using the Python loops", os.name)
        return None
    try:
        path = _library()
        lib = ctypes.CDLL(path)
        steps, collapse = lib.chain_steps, lib.collapse_steps
        steps.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
                          ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p, ctypes.c_double]
        collapse.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                             ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
        steps.restype = ctypes.c_int
        collapse.restype = ctypes.c_int64
        kernel = Kernel(path, steps, collapse)
        _self_check(kernel)
    except subprocess.CalledProcessError as exc:
        log.info("chain kernel build failed, using the Python loops:\n%s", exc.stderr)
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        log.info("no chain kernel, using the Python loops: %s", exc)
        return None
    except _SelfCheckError as exc:
        log.warning("%s; using the Python loops", exc)
        return None
    log.info("chain kernel loaded from %s", path)
    return kernel
