"""Reduced collapse chain: patch and debris counts after each removal.

One step of the randomized collapse removes the vertex under a uniformly
chosen patch.  Conditional on the current counts, each of the other
patches sits on that same vertex with chance 1/(remaining vertices), so
the number of shared patches is Binomial, and the 2-edges at the removed
vertex (which turn into new patches) are Poisson with the exact
per-subset rate of the thinned model.  Those two draws reproduce the
patch/debris law of the full engine exactly, which is what makes this
chain a valid fast surrogate; the equivalence is pinned by a
total-variation test against `hypergraph.collapse_all`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .series import BetaSeries, bit_generator_of, whole


def edge_rate_curve(n_vertices: int, size: int, series: BetaSeries) -> np.ndarray:
    """Per-subset Poisson rate of size-`size` edges after n = 0..N-1 collapses.

    A surviving size-`size` edge is any original size-(size+i) edge whose
    other i vertices were all removed; summing those contributions gives

        N * sum_i b_{size+i} * C(n, i) / C(N, i + size)

    computed from N / C(N, size) by running products of ratios (no
    factorial overflow) and exact for polynomial series.  For i beyond a
    given n the running product hits an exact zero factor, so the
    truncation is automatic.
    """
    N, j = whole("n_vertices", n_vertices), whole("size", size)
    if N < 1:
        raise ValueError("need at least one vertex")
    if j < 0 or j > N:
        raise ValueError(f"size must be in [0, n_vertices], got {j}")
    n_arr = np.arange(N, dtype=float)
    if series.degree < j:
        return np.zeros(N)
    r = np.full(N, N / math.comb(N, j))
    total = series.coeff(j) * r
    imax = min(series.degree - j, N - j)
    for i in range(1, imax + 1):
        r = r * ((n_arr - i + 1) / i) * ((i + j) / (N - i - j + 1))
        total = total + series.coeff(j + i) * r
    return total


@dataclass
class ChainRun:
    """Absorption summary: removed vertices (the identifiable count in law)
    and final debris (initial debris included)."""

    removed: int
    debris: int
    trajectory: Optional[np.ndarray] = None  # rows (removed, patches, debris)


def _steps(n: int, rates: np.ndarray, rng: np.random.Generator, mean_patches: float,
           mean_debris: float, record_trajectory: bool):
    """Draw patches ~ Poisson(mean_patches), then debris ~ Poisson(mean_debris),
    and step to absorption: (removed, debris, trajectory).

    The reference loop.  `chain_kernel.c` runs the same replica with the
    same draws; tests and the kernel's load-time check compare the two.
    """
    patches = int(rng.poisson(mean_patches))
    debris = int(rng.poisson(mean_debris))
    rates = rates.tolist()
    trajectory = [(0, patches, debris)] if record_trajectory else None
    removed = 0
    binomial = rng.binomial
    poisson = rng.poisson
    while patches > 0 and removed < n:
        shared = int(binomial(patches - 1, 1.0 / (n - removed)))
        new_patches = int(poisson((n - removed - 1) * rates[removed]))
        patches = patches - 1 - shared + new_patches
        debris = debris + 1 + shared
        removed += 1
        if record_trajectory:
            trajectory.append((removed, patches, debris))
    traj_arr = np.asarray(trajectory, dtype=np.int64) if record_trajectory else None
    return removed, debris, traj_arr


def _deviation(n: int, trajectory: np.ndarray, fluid: np.ndarray) -> float:
    """Largest distance in patches or debris of a trajectory on n vertices
    from the fluid path `fluid` at t = k/n, row k of each at removed = k.

    The reference of the deviations that `chain_kernel.c` takes.
    """
    return float(np.abs(trajectory[:, 1:] / n - fluid[:len(trajectory), 1:]).max())


def _seeds(words: np.ndarray) -> list[int]:
    """The 128-bit seeds of a (2, m) uint64 array of low and high words."""
    low, high = words.tolist()
    return [(h << 64) | l for l, h in zip(low, high)]


def _batch_arguments(n: int, rates: np.ndarray,
                     bit_generator: Optional[np.random.BitGenerator],
                     seeds: Optional[np.ndarray], fluid: Optional[np.ndarray],
                     record_trajectory: bool):
    """Check a batch's arguments: (replica count, `seeds` as C-contiguous
    uint64 or None, `fluid` as C-contiguous float64 or None)."""
    if (bit_generator is None) == (seeds is None):
        raise TypeError("a batch takes a bit_generator or seeds, not both or neither")
    if seeds is not None:
        if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64
                and seeds.ndim == 2 and len(seeds) == 2):
            raise ValueError("seeds must be a (2, m) uint64 array: low words, then high words")
        seeds = np.ascontiguousarray(seeds)
    m = 1 if seeds is None else seeds.shape[1]
    if (rates.dtype != np.float64 or rates.ndim != 1 or len(rates) < n
            or not rates.flags.c_contiguous):
        raise ValueError("rates must be a C-contiguous float64 array of at least n values")
    if record_trajectory and m != 1:
        raise ValueError("a trajectory needs a batch of one")
    if fluid is not None:
        fluid = np.ascontiguousarray(fluid, dtype=np.float64)
        if fluid.shape != (n + 1, 3):
            raise ValueError(f"fluid must have shape {(n + 1, 3)}, got {fluid.shape}")
    return m, seeds, fluid


def _batch(n: int, rates: np.ndarray, bit_generator: Optional[np.random.BitGenerator],
           mean_patches: float, mean_debris: float,
           fluid: Optional[np.ndarray] = None, record_trajectory: bool = False,
           *, seeds: Optional[np.ndarray] = None):
    """The Python reference of `chain_kernel.Kernel.batch`, with the same
    arguments, results and errors: one `_steps` replica on `bit_generator`,
    or, in its place (None), one per seed of `seeds`, a (2, m) uint64 array
    of 128-bit seeds, the low words, then the high words: replica r then
    draws from `np.random.PCG64(seeds[1, r] << 64 | seeds[0, r])`.  Returns
    (counts, deviations, trajectory): int64 rows (removed, debris); each
    replica's `_deviation` from `fluid`, the fluid path at t = k/n in row
    k = 0..n, or None without `fluid`; and, with `record_trajectory`, which
    needs a batch of one, its int64 rows (removed, patches, debris) before
    the first step and after each, else None."""
    m, seeds, fluid = _batch_arguments(n, rates, bit_generator, seeds, fluid,
                                       record_trajectory)
    counts = np.empty((m, 2), dtype=np.int64)
    deviations = None if fluid is None else np.empty(m)
    for r, source in enumerate([bit_generator] if seeds is None
                               else map(np.random.PCG64, _seeds(seeds))):
        removed, debris, rows = _steps(n, rates, np.random.Generator(source),
                                       mean_patches, mean_debris,
                                       fluid is not None or record_trajectory)
        counts[r] = removed, debris
        if fluid is not None:
            deviations[r] = _deviation(n, rows, fluid)
    return counts, deviations, rows if record_trajectory else None


def run(n_vertices: int, series: BetaSeries, rng: np.random.Generator,
        record_trajectory: bool = False,
        rate_table: Optional[np.ndarray] = None) -> ChainRun:
    """Run to absorption from Poisson initial counts.

    Starts with patches ~ Poisson(N*b1) and debris ~ Poisson(N*b0), steps
    until no patches remain.  Absorption happens by removed = N at the
    latest: with one vertex left every remaining patch sits on it.  The run
    is a batch of one on `rng.bit_generator`: in the compiled loop of
    `chain_kernel` when it loads, else in `_batch`, with the same draws and
    results.  `rng` must be a `numpy.random.Generator` (TypeError
    otherwise); a subclass draws as the base class.
    """
    from . import chain_kernel

    bit_generator = bit_generator_of(rng)
    N = whole("n_vertices", n_vertices)
    if N < 1:
        raise ValueError("need at least one vertex")
    if rate_table is None:
        # one vertex has no 2-subsets: no 2-edges, rate 0
        rate_table = edge_rate_curve(N, 2, series) if N > 1 else np.zeros(1)
    rates = np.ascontiguousarray(rate_table, dtype=np.float64)
    kernel = chain_kernel.load()
    counts, _, trajectory = (_batch if kernel is None else kernel.batch)(
        N, rates, bit_generator, N * series.coeff(1), N * series.coeff(0),
        record_trajectory=record_trajectory)
    removed, debris = counts[0].tolist()
    return ChainRun(removed, debris, trajectory)
