"""The compiled random loops: build on first use, cache, check, load.

`chain_kernel.c` holds the reduced chain, run for a whole batch of
replicas of one vertex count in one call: it draws each replica's initial
counts, steps it to absorption and takes its distance from the fluid path.
A batch is one replica on one bit generator, under its lock, as
`chain.run` makes it, or one replica per seed: from a (2, m) uint64 array
of 128-bit seeds, low words then high words, the C code seeds each
replica's PCG64 on its stack as `np.random.PCG64(seed)` does, with no
Python object per replica and no lock, as `montecarlo` runs its replica
batches.  The file holds two loops more, three in all: the uniform
subsets of one edge size that `hypergraph.sample_poisson` draws, and the
patch loop of `hypergraph.collapse_all` and, with a fixed pick,
`identifiable_set`, on a `Hypergraph`'s two int64 edge arrays.  It is
compiled with the system C compiler (`cc`) and linked against numpy's
`libnpyrandom.a`, so each loop draws with the routines
`Generator.binomial`, `Generator.poisson` and `Generator.integers` use, on
the Generator's own bit generator or the PCG64 it seeded: the random
stream and every output stay the same.  The library is cached per user in
`$XDG_CACHE_HOME/hypercollapse` (default `~/.cache/hypercollapse`) as
`chain_kernel-<key>.so`, the key a hash of the source, the numpy version
and the platform; every build stays under its key (about 65 KB each on
x86-64 Linux), the directory may be emptied at any time, and only a build
imports `subprocess`.  `load()` returns None when there is no compiler,
the build fails, the cache directory is not private to this user, or the
library does not reproduce the Python loops draw for draw on fixed replica
batches, on a bit generator and from seeds, fixed subsets and a fixed
hypergraph, and logs why to the `hypercollapse.chain_kernel` logger.
Every caller takes its loops from `loops()`: the kernel, else `PYTHON_LOOPS`.
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
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import chain, hypergraph

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "chain_kernel.c")
_NPYRANDOM = os.path.join(os.path.dirname(os.path.abspath(np.random.__file__)), "lib")
_BUILD_TIMEOUT_S = 120
_FAILURES = {
    1: (ValueError, "lam < 0 or lam is NaN"),
    2: (ValueError, "lam value too large"),
    3: (OverflowError, "chain counts exceed the int64 range"),
    4: (MemoryError, "no memory for the collapse or the subsets"),
    5: (ValueError, "edge sizes do not match the vertex ids, or an id is out of range"),
    6: (ValueError, hypergraph._NO_SUBSETS),
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
    """A loaded library; `batch` is a drop-in for `chain._batch`, `subsets`
    for `hypergraph._uniform_subsets` and `collapse` for
    `hypergraph._collapse_steps`."""

    path: str
    _batch: ctypes._CFuncPtr = field(repr=False, compare=False)
    _subsets: ctypes._CFuncPtr = field(repr=False, compare=False)
    _collapse: ctypes._CFuncPtr = field(repr=False, compare=False)

    def batch(self, n: int, rates: np.ndarray,
              bit_generator: Optional[np.random.BitGenerator],
              mean_patches: float, mean_debris: float,
              fluid: Optional[np.ndarray] = None, record_trajectory: bool = False,
              *, seeds: Optional[np.ndarray] = None):
        """`chain._batch` in one call, with the same draws: a batch of one
        under the bit generator's lock, or, with `seeds` in its place, one
        replica per seed on a PCG64 that the compiled loop seeds as
        `np.random.PCG64` does, with no Python object per replica and no lock."""
        m, seeds, fluid = chain._batch_arguments(n, rates, bit_generator, seeds, fluid,
                                                 record_trajectory)
        counts = np.empty((m, 2), dtype=np.int64)
        deviations = None if fluid is None else np.empty(m)
        trajectory = np.empty((n + 1, 3), dtype=np.int64) if record_trajectory else None
        with contextlib.nullcontext() if bit_generator is None else bit_generator.lock:
            status = self._batch(n, rates.ctypes.data, m,
                                 None if bit_generator is None else _bitgen(bit_generator),
                                 None if seeds is None else seeds.ctypes.data,
                                 mean_patches, mean_debris,
                                 None if fluid is None else fluid.ctypes.data,
                                 counts.ctypes.data,
                                 None if deviations is None else deviations.ctypes.data,
                                 None if trajectory is None else trajectory.ctypes.data)
        if status:
            _raise(status)
        # a copy, so that a short run does not keep the n + 1 rows alive
        return (counts, deviations,
                None if trajectory is None else trajectory[:counts[0, 0] + 1].copy())

    def subsets(self, n: int, size: int, count: int, bit_generator: np.random.BitGenerator):
        """`hypergraph._uniform_subsets` in one call, with the same draws,
        under the bit generator's lock."""
        # ctypes passes its arrays by address, cheaper than `ndarray.ctypes`; the C
        # loop refuses a negative count or size before it writes to the array
        out = (ctypes.c_int64 * max(count * size, 0))()
        with bit_generator.lock:
            status = self._subsets(n, size, count, _bitgen(bit_generator), out)
        if status:
            _raise(status)
        return np.frombuffer(out, np.int64)

    def collapse(self, n: int, sizes: np.ndarray, ids: np.ndarray,
                 bit_generator: Optional[np.random.BitGenerator], record_trajectory: bool):
        """`hypergraph._collapse_steps` on a `Hypergraph`'s C-contiguous int64
        arrays, under the bit generator's lock."""
        if not all(isinstance(a, np.ndarray) and a.dtype == np.int64 and a.ndim == 1
                   and a.flags.c_contiguous for a in (sizes, ids)):
            raise TypeError("sizes and ids must be C-contiguous one-dimensional int64 arrays")
        # ctypes passes bytes and its arrays by address, cheaper than `ndarray.ctypes`
        identified = (ctypes.c_int64 * n)()
        trajectory = np.empty((n + 1, 3), dtype=np.int64) if record_trajectory else None
        with contextlib.nullcontext() if bit_generator is None else bit_generator.lock:
            removed = self._collapse(n, len(sizes), sizes.tobytes(), len(ids), ids.tobytes(),
                                     None if bit_generator is None else _bitgen(bit_generator),
                                     identified,
                                     None if trajectory is None else trajectory.ctypes.data)
        if removed < 0:
            _raise(-removed)
        # a copy, so that a short collapse does not keep the n + 1 rows alive
        return (identified[:removed],
                None if trajectory is None else trajectory[:removed + 1].copy())


# `Kernel`'s methods on the reference loops, looked up at each call
PYTHON_LOOPS = SimpleNamespace(
    batch=lambda *args, **kwargs: chain._batch(*args, **kwargs),
    subsets=lambda *args: hypergraph._uniform_subsets(*args),
    collapse=lambda *args: hypergraph._collapse_steps(*args))


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
    path = os.path.join(directory, f"chain_kernel-{key.hexdigest()[:16]}.so")
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
    _check_private(path, stat.S_ISREG)
    return path


def _self_check(kernel: Kernel) -> None:
    """Run fixed replica batches, fixed subsets and a fixed collapse
    through the kernel and through the Python loops.

    Batches on 24 vertices: many patches (a mean of 2000) take numpy's
    BTPE binomial branch, few (a mean of 3) its inversion branch, the last
    step its p = 1 case; the means cross 10, where numpy's Poisson sampler
    switches method.  `Kernel.batch` and `chain._batch` run each mean on
    the same arguments: five replicas from seeds of 1, 2, 3 and 4 32-bit
    words, which `Kernel.batch` seeds in C and `chain._batch` with
    `np.random.PCG64`, without and with a fluid table, and a batch of one
    on a PCG64 with its trajectory, as `chain.run` makes it.
    The subsets take numpy's three bounded draws: 3 of 5 ids, with many
    repeats, on 32-bit Lemire draws; 2 of 2**32 ids on raw 32-bit draws;
    2 of 2**40 + 3 on 64-bit Lemire draws.
    The collapse leaves stale entries in its bag, and its bag falls to one
    entry, where `Generator.integers(1)` draws nothing.  The same collapse
    runs once more with the fixed pick of `identifiable_set`.
    """
    n = 24
    rates = np.linspace(0.2, 2.0, n)
    fluid = np.linspace(0.0, 60.0, 3 * (n + 1)).reshape(n + 1, 3)
    seeds = [0, 2**32 - 1, 2**64, 2**96 + 5, 2**128 - 1]
    words = np.array([[s & (2**64 - 1) for s in seeds], [s >> 64 for s in seeds]],
                     dtype=np.uint64)
    for means in ((3.0, 0.5), (2000.0, 0.5)):
        for seed_words, table in ((words, None), (words, fluid), (None, None)):
            outcomes = []
            for batch in (kernel.batch, PYTHON_LOOPS.batch):
                bit_generator = np.random.PCG64(20_011) if seed_words is None else None
                results = batch(n, rates, bit_generator, *means, table, seed_words is None,
                                seeds=seed_words)
                # np.asarray(None).tolist() is None
                outcomes.append([np.asarray(a).tolist() for a in results]
                                + [None if bit_generator is None else bit_generator.state])
            if outcomes[0] != outcomes[1]:
                raise _SelfCheckError(
                    f"{kernel.path} drew differently from the Python loop in a batch with a "
                    f"mean of {means[0]} patches{'' if seed_words is None else ' from seeds'}")
    got_bitgen, want_bitgen = np.random.PCG64(20_011), np.random.PCG64(20_011)
    for n_ids, size, count in ((5, 3, 40), (2**32, 2, 3), (2**40 + 3, 2, 3)):
        if (kernel.subsets(n_ids, size, count, got_bitgen).tolist()
                != PYTHON_LOOPS.subsets(n_ids, size, count, want_bitgen).tolist()):
            raise _SelfCheckError(f"{kernel.path} drew {count} subsets of {size} of {n_ids} "
                                  f"ids differently from the Python loop")
    if got_bitgen.state != want_bitgen.state:
        raise _SelfCheckError(f"{kernel.path} left the bit generator elsewhere than the "
                              f"Python loop after the subsets")
    # three patches on vertex 0 leave two stale entries; 6 and 7 stay
    edges = [(), (0,), (0,), (0,), (1,), (0, 2), (2, 3), (4, 5), (6, 7), (1, 3, 4), (5, 6, 7)]
    sizes, ids = hypergraph._flat(8, edges)
    got_bitgen, want_bitgen = np.random.PCG64(20_011), np.random.PCG64(20_011)
    got = kernel.collapse(8, sizes, ids, got_bitgen, True)
    want = PYTHON_LOOPS.collapse(8, sizes, ids, want_bitgen, True)
    if (got[0] != want[0] or not np.array_equal(got[1], want[1])
            or got_bitgen.state != want_bitgen.state):
        raise _SelfCheckError(f"{kernel.path} collapsed differently from the Python loop")
    # the fixed pick (no generator) removes 1, 0, 2, 3, 4, 5, then meets two stale entries
    if (kernel.collapse(8, sizes, ids, None, False)[0]
            != PYTHON_LOOPS.collapse(8, sizes, ids, None, False)[0]):
        raise _SelfCheckError(f"{kernel.path} collapsed differently from the Python loop "
                              f"with the fixed pick")


@functools.cache
def load() -> Optional[Kernel]:
    """The compiled loops, or None, when `loops()` gives `PYTHON_LOOPS`."""
    if os.name != "posix":
        log.info("no compiled chain kernel on %s; using the Python loops", os.name)
        return None
    try:
        path = _library()
        lib = ctypes.CDLL(path)
        batch, subsets, collapse = lib.chain_batch, lib.uniform_subsets, lib.collapse_steps
        batch.argtypes = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                          ctypes.c_void_p, ctypes.c_double, ctypes.c_double, ctypes.c_void_p,
                          ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
        subsets.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
                            ctypes.c_void_p]
        collapse.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                             ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
        batch.restype = subsets.restype = ctypes.c_int
        collapse.restype = ctypes.c_int64
        kernel = Kernel(path, batch, subsets, collapse)
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


def loops():
    """The kernel when it loads, else `PYTHON_LOOPS`: the same draws and results."""
    kernel = load()
    return PYTHON_LOOPS if kernel is None else kernel
