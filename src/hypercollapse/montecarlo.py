"""Replica orchestration with reproducible per-replica random streams.

Every replica draws from its own PCG64 generator seeded by a fixed
integer-mixing function of (master_seed, n_vertices, replica), so results
are independent of scheduling and identical for any number of worker
threads.  A replica batch passes the seeds, not generators, to the loops
of `chain_kernel.loops()`: each seeds replica r's PCG64 from the same
128-bit seed, with the stream of `np.random.PCG64(seed)`, and the compiled
loop runs the whole batch in one call, with no bit generator lock and
outside the interpreter lock.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from operator import index
from typing import Optional

import numpy as np

from .chain import _seeds, edge_rate_curve
from .fluid import path_grid
from .series import (BetaSeries, DegenerateModelError, T_CAP, real, resolve_model,
                     whole)

_MASK64 = (1 << 64) - 1
# the salts of the low and high words' mixing chains, as a column
_SALTS = np.array([[0x243F6A8885A308D3], [0x13198A2E03707344]], dtype=np.uint64)
_GAMMA, _M1, _M2, _S30, _S27, _S31 = np.array(
    [0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 30, 27, 31],
    dtype=np.uint64)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, a fixed 64-bit bijection with good avalanche,
    on uint64 arrays: arrays wrap mod 2**64, where uint64 scalars warn."""
    x = x + _GAMMA
    x ^= x >> _S30
    x *= _M1
    x ^= x >> _S27
    x *= _M2
    x ^= x >> _S31
    return x


def _words(component) -> np.ndarray:
    """A key component mod 2**64 as a uint64 array: one element for an
    integer, one per entry for a sequence of integers."""
    if isinstance(component, Iterable):
        return np.array([index(k) & _MASK64 for k in component], dtype=np.uint64)
    return np.array([index(component) & _MASK64], dtype=np.uint64)


def _seed_words(master_seed: int, *key) -> np.ndarray:
    """`derive_seeds` as a (2, m) uint64 array: the seeds' low words, then
    their high words."""
    state = _mix64(_words(index(master_seed)) ^ _SALTS)
    for column in map(_words, key):
        state = _mix64(state ^ _mix64(column + _SALTS))
    return state


def derive_seeds(master_seed: int, *key) -> list[int]:
    """`derive_seed` for many key paths at once.

    Each component of `key` is an integer, shared by every path, or a
    sequence of integers, one per path; sequences have one length, or one
    entry.  `derive_seeds(s, n, range(k))` gives `[derive_seed(s, n, r) for
    r in range(k)]`.
    """
    return _seeds(_seed_words(master_seed, *key))


def derive_seed(master_seed: int, *key: int) -> int:
    """Derive a 128-bit stream seed from the master seed and an integer key path.

    Two SplitMix64 mixing chains with different salts supply the low and
    high words: with every number taken mod 2**64, the chain starts from
    mix(master_seed ^ salt) and takes in each key k as
    state = mix(state ^ mix(k + salt)).  The seed and keys must be integers
    (2.7 is a TypeError, not 2).  Distinct key paths give distinct seeds up
    to a ~2**-128 collision chance; a scan test checks a million derived
    seeds.
    """
    return derive_seeds(master_seed, *map(index, key))[0]


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator for the given (master_seed, *key) path."""
    return np.random.Generator(np.random.PCG64(derive_seed(master_seed, *key)))


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: the model, the vertex counts, and the replica budget."""

    series: BetaSeries
    n_values: tuple[int, ...]
    replicas: int
    master_seed: int
    delta: Optional[float] = None        # deviation threshold for dev_freq
    record_trajectory: bool = False      # enables sup-deviation; delta sets it
    workers: int = 1                     # threads running replica batches

    def __post_init__(self) -> None:
        if isinstance(self.n_values, str) or not isinstance(self.n_values, Iterable):
            raise ValueError("N_values must be a list of whole numbers, "
                             f"got {self.n_values!r}")
        object.__setattr__(self, "n_values",
                           tuple(whole("N_values", n) for n in self.n_values))
        for key in ("replicas", "master_seed", "workers"):
            object.__setattr__(self, key, whole(key, getattr(self, key)))
        if not isinstance(self.record_trajectory, bool):
            raise ValueError("record_trajectory must be true or false, "
                             f"got {self.record_trajectory!r}")
        if self.series.coeff(1) <= 0.0:
            raise DegenerateModelError(
                "b1 = 0: every replica absorbs immediately, nothing to sweep")
        if not self.n_values:
            raise ValueError("n_values must be non-empty")
        if any(n < 10 for n in self.n_values):
            raise ValueError("every n_vertices must be >= 10")
        if len(set(self.n_values)) != len(self.n_values):
            raise ValueError(f"n_values must be distinct, got {self.n_values}")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.delta is not None:
            delta = real("delta", self.delta)
            if not 0.0 < delta < math.inf:
                raise ValueError(f"delta must be positive and finite, got {delta}")
            object.__setattr__(self, "delta", delta)
            object.__setattr__(self, "record_trajectory", True)


@dataclass(frozen=True)
class ReplicaRecord:
    """One chain run; fraction fields are counts divided by n_vertices."""

    n_vertices: int
    replica: int
    seed: int
    v_star_frac: float
    debris_frac: float
    stop_step: int
    deviation: Optional[float] = None    # sup distance from the fluid path


@dataclass(frozen=True)
class AggregateRow:
    n_vertices: int
    mean_v: float
    var_v: float
    mean_debris: float
    dev_freq: Optional[float] = None


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list[ReplicaRecord]
    aggregates: list[AggregateRow]


def _replica_batch(series: BetaSeries, n_vertices: int, table: np.ndarray,
                   fluid: Optional[np.ndarray], lo: int, hi: int,
                   master_seed: int) -> list[ReplicaRecord]:
    """Run replicas lo..hi-1 for one vertex count on its rate table `table`.

    `fluid` is the vertex count's fluid path at t = k/N capped below 1, one
    row per k = 0..N, or None for no deviation.  The deviation is the
    largest distance in patches or debris from that path over the rows of
    the replica's trajectory; row k of a trajectory has removed = k, so it
    meets row k of the path.  The batch's seeds are derived at once, and
    the whole batch is one call on their words, with no bit generator and
    no trajectory, to the loops of `chain_kernel.loops()`.
    """
    from . import chain_kernel

    words = _seed_words(master_seed, n_vertices, range(lo, hi))
    seeds = _seeds(words)
    counts, deviations, _ = chain_kernel.loops().batch(
        n_vertices, table, None, n_vertices * series.coeff(1),
        n_vertices * series.coeff(0), fluid, seeds=words)
    runs = zip(*counts.T.tolist(),
               [None] * len(seeds) if deviations is None else deviations.tolist())
    return [ReplicaRecord(n_vertices=n_vertices, replica=replica, seed=seed,
                          v_star_frac=removed / n_vertices,
                          debris_frac=debris / n_vertices, stop_step=removed,
                          deviation=deviation)
            for replica, seed, (removed, debris, deviation)
            in zip(range(lo, hi), seeds, runs)]


def run_replicas(config: ExperimentConfig) -> ExperimentResult:
    """Run the whole sweep; record order is canonical (n_vertices, replica).

    Each N gets one rate table and, when trajectories are recorded, one
    fluid-path table of N+1 rows; the sweep is one ordered list of batches
    of about replicas / (4 * threads) replicas that share them, threads
    being the workers capped at the CPU count.  One thread runs them in the
    calling thread, more on a pool; records do not depend on the scheduling.
    """
    series = config.series
    tables = {n: (edge_rate_curve(n, 2, series),
                  path_grid(np.minimum(np.arange(n + 1) / n, T_CAP), series)
                  if config.record_trajectory else None)
              for n in config.n_values}
    threads = min(config.workers, os.cpu_count() or 1)
    chunk = math.ceil(config.replicas / (4 * threads))
    jobs = [(n, *tables[n], lo, min(lo + chunk, config.replicas))
            for n in config.n_values for lo in range(0, config.replicas, chunk)]
    batch = partial(_replica_batch, series, master_seed=config.master_seed)
    if threads == 1:
        batches = list(map(batch, *zip(*jobs)))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(batch, *zip(*jobs)))
    records = [r for part in batches for r in part]

    aggregates = []
    for n in config.n_values:
        group = [r for r in records if r.n_vertices == n]
        vs = np.array([r.v_star_frac for r in group])
        debris = np.array([r.debris_frac for r in group])
        dev_freq = None
        if config.delta is not None:
            dev_freq = float(np.mean([r.deviation > config.delta for r in group]))
        aggregates.append(AggregateRow(
            n_vertices=n,
            mean_v=float(vs.mean()),
            var_v=float(vs.var(ddof=1)) if len(group) > 1 else 0.0,
            mean_debris=float(debris.mean()),
            dev_freq=dev_freq,
        ))
    return ExperimentResult(config, records, aggregates)


def concentration_curve(config: ExperimentConfig, delta: float) -> list[tuple[int, float]]:
    """Fraction of replicas straying more than delta from the fluid path.

    The supremum runs over the recorded trajectory mapped to t = removed/N
    and stops at absorption.  Expected to decay with n_vertices.
    """
    result = run_replicas(replace(config, delta=delta))
    return [(row.n_vertices, row.dev_freq) for row in result.aggregates]


_CONFIG_KEYS = ("beta", "p", "alpha", "N_values", "replicas", "master_seed", "delta",
                "record_trajectory", "workers", "outputs")
# the CLI's sweep outputs, each with the file name it takes when absent
_OUTPUTS = {"results_csv": "results.csv", "aggregates_json": "aggregates.json"}
_NAME_MAX = 255  # bytes in a file name: NAME_MAX of Linux and the BSDs


def output_names(doc: dict) -> dict[str, str]:
    """The file names of a sweep document's `outputs`, defaults applied.

    A name must be a file name: not empty, `.` or `..`, with no NUL, at
    most `_NAME_MAX` bytes in the file-system encoding, and
    equal to its own `os.path.basename`; two outputs may not share one.  A
    null name, or a null `outputs`, counts as absent.
    """
    outputs = doc.get("outputs")
    outputs = {} if outputs is None else outputs
    if not isinstance(outputs, dict):
        raise ValueError(f"outputs must be a JSON object, got {outputs!r}")
    unknown = sorted(set(outputs) - set(_OUTPUTS))
    if unknown:
        raise ValueError(f"unknown outputs keys {unknown}; known: {list(_OUTPUTS)}")
    names = dict(_OUTPUTS)
    for key, name in outputs.items():
        if name is None:
            continue
        if (not isinstance(name, str) or name in ("", ".", "..") or "\0" in name
                or len(os.fsencode(name)) > _NAME_MAX or name != os.path.basename(name)):
            raise ValueError(f"outputs {key} must be a file name, got {name!r}")
        names[key] = name
    if len(set(names.values())) < len(names):
        raise ValueError(f"outputs must name different files, got {names}")
    return names


def config_from_json(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document.

    The model comes either from explicit coefficients ("beta": [b0, ...])
    or from the graph shorthand ("p" and "alpha").  Recognized keys:
    N_values, replicas, master_seed, delta, record_trajectory, workers,
    and the CLI's outputs, checked by `output_names`; any other key is an
    error.  The counts must be whole numbers: 1e5 is one, 2.5, true and "3"
    are not.  A key whose value is null counts as absent, in outputs too.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; known: {list(_CONFIG_KEYS)}")
    doc = {key: value for key, value in doc.items() if value is not None}
    series = resolve_model(doc.get("beta"), doc.get("p"), doc.get("alpha"))
    try:
        n_values, replicas, master_seed = (doc["N_values"], doc["replicas"],
                                           doc["master_seed"])
    except KeyError as missing:
        raise ValueError(f"config is missing required key {missing}") from None
    output_names(doc)
    return ExperimentConfig(
        series=series,
        n_values=n_values,
        replicas=replicas,
        master_seed=master_seed,
        delta=doc.get("delta"),
        record_trajectory=doc.get("record_trajectory", False),
        workers=doc.get("workers", 1),
    )
