"""The compiled random loops: build on first use, cache, check, load.

`chain_kernel.c` holds the reduced chain, run for a whole batch of
replicas of one vertex count in one call: it draws each replica's initial
counts, steps it to absorption and takes its distance from the fluid
path.  `chain.run` is a batch of one; `montecarlo` runs its replica
batches through it.  The file also holds the patch loop of
`hypergraph.collapse_all` and, with a fixed pick, `identifiable_set`, on a
`Hypergraph`'s two int64 edge arrays.  It is compiled with the system C compiler
(`cc`) and linked against numpy's `libnpyrandom.a`, so each loop draws
with the routines `Generator.binomial`, `Generator.poisson` and
`Generator.integers` use, on the Generator's own bit generator: the random
stream and every output stay the same.  The library is cached per user in
`$XDG_CACHE_HOME/hypercollapse` (default `~/.cache/hypercollapse`), keyed
by the numpy version, the platform and a hash of the source; a build
deletes the libraries that other sources built for the same numpy, and
only a build imports `subprocess`.  `load()` returns None, and every
caller keeps its Python loop, when there is no compiler, the build fails,
the cache directory is not private to this user, or the loaded library
does not reproduce the Python loops draw for draw on fixed replica batches
and a fixed hypergraph.  The reason is logged to the
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
import sysconfig
import tempfile
from dataclasses import dataclass, field
from typing import Optional, Sequence

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


class _CompileError(RuntimeError):
    """The compiler failed or timed out."""


def _raise(status: int) -> None:
    error, message = _FAILURES[status]
    raise error(message)


def _bitgen(bit_generator: np.random.BitGenerator) -> int:
    """Address of the bit generator's bitgen_t: its `ctypes.bit_generator`,
    without the function pointers that attribute builds on first use."""
    return _capsule_pointer(bit_generator.capsule, b"BitGenerator")


@dataclass(frozen=True)
class Kernel:
    """A loaded library; `run` is a drop-in for `chain._steps`, `batch` runs
    many replicas in one call, and `collapse` is a drop-in for
    `hypergraph._collapse_steps`."""

    path: str
    _batch: ctypes._CFuncPtr = field(repr=False, compare=False)
    _collapse: ctypes._CFuncPtr = field(repr=False, compare=False)

    def batch(self, n: int, rates: np.ndarray,
              bit_generators: Sequence[np.random.BitGenerator],
              mean_patches: float, mean_debris: float,
              fluid: Optional[np.ndarray] = None,
              trajectory: Optional[np.ndarray] = None):
        """One replica of `chain._steps` per bit generator, in order, in one
        call: (counts, deviations).  counts is an int64 array of rows
        (removed, debris); deviations holds each replica's largest distance
        in patches or debris from `fluid`, the fluid path at t = k/n in row
        k = 0..n, or is None without `fluid`.  `rates` is the rate table,
        C-contiguous float64 of length >= n.  `trajectory`, for a batch of
        one, is an (n + 1, 3) int64 array that receives the rows.  The
        caller holds the generators' locks or owns them alone."""
        m = len(bit_generators)
        if (rates.dtype != np.float64 or rates.ndim != 1 or len(rates) < n
                or not rates.flags.c_contiguous):
            raise ValueError("rates must be a C-contiguous float64 array of at least n values")
        if trajectory is not None and (m != 1 or trajectory.shape != (n + 1, 3)
                                       or trajectory.dtype != np.int64
                                       or not trajectory.flags.c_contiguous):
            raise ValueError("a trajectory needs a batch of one and an (n + 1, 3) int64 array")
        if fluid is not None:
            fluid = np.ascontiguousarray(fluid, dtype=np.float64)
            if fluid.shape != (n + 1, 3):
                raise ValueError(f"fluid must have shape {(n + 1, 3)}, got {fluid.shape}")
        counts = np.empty((m, 2), dtype=np.int64)
        deviations = None if fluid is None else np.empty(m)
        status = self._batch(n, rates.ctypes.data, _LAM_MAX, m,
                             (ctypes.c_void_p * m)(*map(_bitgen, bit_generators)),
                             mean_patches, mean_debris,
                             None if fluid is None else fluid.ctypes.data,
                             counts.ctypes.data,
                             None if deviations is None else deviations.ctypes.data,
                             None if trajectory is None else trajectory.ctypes.data)
        if status:
            _raise(status)
        return counts, deviations

    def run(self, n: int, rates: np.ndarray, rng: np.random.Generator,
            mean_patches: float, mean_debris: float, record_trajectory: bool):
        """A batch of one on `rng`, under its bit generator's lock:
        (removed, debris, trajectory) as `chain._steps` gives them."""
        trajectory = np.empty((n + 1, 3), dtype=np.int64) if record_trajectory else None
        bitgen = rng.bit_generator
        with bitgen.lock:
            counts, _ = self.batch(n, rates, [bitgen], mean_patches, mean_debris,
                                   trajectory=trajectory)
        removed, debris = counts[0].tolist()
        return removed, debris, None if trajectory is None else trajectory[:removed + 1]

    def collapse(self, n: int, sizes: np.ndarray, ids: np.ndarray,
                 rng: Optional[np.random.Generator], record_trajectory: bool):
        """`hypergraph._collapse_steps` on a `Hypergraph`'s C-contiguous int64 arrays."""
        if not all(isinstance(a, np.ndarray) and a.dtype == np.int64 and a.ndim == 1
                   and a.flags.c_contiguous for a in (sizes, ids)):
            raise TypeError("sizes and ids must be C-contiguous one-dimensional int64 arrays")
        # ctypes passes bytes and its arrays by address, cheaper than `ndarray.ctypes`
        identified = (ctypes.c_int64 * n)()
        trajectory = np.empty((n + 1, 3), dtype=np.int64) if record_trajectory else None
        bitgen = None if rng is None else rng.bit_generator
        with contextlib.nullcontext() if bitgen is None else bitgen.lock:
            removed = self._collapse(n, len(sizes), sizes.tobytes(), len(ids), ids.tobytes(),
                                     None if bitgen is None else _bitgen(bitgen), identified,
                                     None if trajectory is None else trajectory.ctypes.data)
        if removed < 0:
            _raise(-removed)
        return identified[:removed], None if trajectory is None else trajectory[:removed + 1]


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
    import subprocess

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
        import subprocess

        # concurrent builders each write their own file; the rename is atomic
        fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
        os.close(fd)
        try:
            _build(tmp)
            os.chmod(tmp, 0o700)
            os.replace(tmp, path)
        except subprocess.CalledProcessError as exc:
            raise _CompileError(exc.stderr) from exc
        except subprocess.SubprocessError as exc:
            raise _CompileError(str(exc)) from exc
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
    """Run fixed replica batches and a fixed collapse through the kernel
    and through the Python loops.

    Two batches of two replicas on 24 vertices: many patches (a mean of
    2000) take numpy's BTPE binomial branch, few (a mean of 3) its
    inversion branch, the last step its p = 1 case; the means cross 10,
    where numpy's Poisson sampler switches method.  Each batch runs with
    and without a fluid table, and its first replica once more through
    `run`, with its trajectory.  The collapse leaves stale entries in its
    bag, and its bag falls to one entry, where `Generator.integers(1)`
    draws nothing.  The same collapse runs once more with the fixed pick
    of `identifiable_set`.
    """
    from .chain import _deviation, _steps
    from .hypergraph import _collapse_steps, _flat

    n = 24
    rates = np.linspace(0.2, 2.0, n)
    fluid = np.linspace(0.0, 60.0, 3 * (n + 1)).reshape(n + 1, 3)
    for means in ((3.0, 0.5), (2000.0, 0.5)):
        wants = [np.random.Generator(np.random.PCG64(20_011 + r)) for r in range(2)]
        want = [_steps(n, rates, rng, *means, True) for rng in wants]
        for table in (None, fluid):
            gots = [np.random.PCG64(20_011 + r) for r in range(2)]
            counts, deviations = kernel.batch(n, rates, gots, *means, table)
            if (counts.tolist() != [[removed, debris] for removed, debris, _ in want]
                    or (table is not None and deviations.tolist()
                        != [_deviation(n, trajectory, table) for *_, trajectory in want])
                    or [g.state for g in gots] != [w.bit_generator.state for w in wants]):
                raise _SelfCheckError(f"{kernel.path} drew differently from the Python "
                                     f"loop in a batch with a mean of {means[0]} patches")
        got_rng = np.random.Generator(np.random.PCG64(20_011))
        got = kernel.run(n, rates, got_rng, *means, True)
        if (got[:2] != want[0][:2] or not np.array_equal(got[2], want[0][2])
                or got_rng.bit_generator.state != wants[0].bit_generator.state):
            raise _SelfCheckError(f"{kernel.path} drew differently from the Python "
                                 f"loop in a run with a mean of {means[0]} patches")
    # three patches on vertex 0 leave two stale entries; 6 and 7 stay
    edges = [(), (0,), (0,), (0,), (1,), (0, 2), (2, 3), (4, 5), (6, 7), (1, 3, 4), (5, 6, 7)]
    sizes, ids = _flat(edges)
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
        batch, collapse = lib.chain_batch, lib.collapse_steps
        batch.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_double, ctypes.c_int64,
                          ctypes.c_void_p, ctypes.c_double, ctypes.c_double, ctypes.c_void_p,
                          ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
        collapse.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                             ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
        batch.restype = ctypes.c_int
        collapse.restype = ctypes.c_int64
        kernel = Kernel(path, batch, collapse)
        _self_check(kernel)
    except _CompileError as exc:
        log.info("chain kernel build failed, using the Python loops:\n%s", exc)
        return None
    except OSError as exc:
        log.info("no chain kernel, using the Python loops: %s", exc)
        return None
    except _SelfCheckError as exc:
        log.warning("%s; using the Python loops", exc)
        return None
    log.info("chain kernel loaded from %s", path)
    return kernel
