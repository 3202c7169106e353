"""Replica orchestration with reproducible per-replica random streams.

Every replica draws from its own PCG64 generator seeded by a fixed
integer-mixing function of (master_seed, n_vertices, replica), so results
are independent of scheduling and identical for any number of worker
threads; the compiled step loop runs outside the interpreter lock.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from operator import index
from typing import Optional, Sequence

import numpy as np

from .chain import edge_rate_curve, run
from .fluid import path_grid
from .series import (BetaSeries, DegenerateModelError, T_CAP, real, resolve_model,
                     whole)

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a fixed 64-bit bijection with good avalanche."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix_chain(master_seed: int, key: Sequence[int], salt: int) -> int:
    state = _mix64((index(master_seed) ^ salt) & _MASK64)
    for k in key:
        state = _mix64(state ^ _mix64((index(k) + salt) & _MASK64))
    return state


def derive_seed(master_seed: int, *key: int) -> int:
    """Derive a 128-bit stream seed from the master seed and an integer key path.

    Two SplitMix64 mixing chains with different salts supply the low and
    high words.  The seed and keys must be integers (2.7 is a TypeError,
    not 2).  Distinct key paths give distinct seeds up to a ~2**-128
    collision chance; a scan test checks a million derived seeds.
    """
    lo = _mix_chain(master_seed, key, 0x243F6A8885A308D3)
    hi = _mix_chain(master_seed, key, 0x13198A2E03707344)
    return (hi << 64) | lo


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
    largest distance in patches or debris from that path over the recorded
    rows; row k of a trajectory has removed = k, so it meets row k of the
    path.
    """
    records = []
    for replica in range(lo, hi):
        seed = derive_seed(master_seed, n_vertices, replica)
        rng = np.random.Generator(np.random.PCG64(seed))
        result = run(n_vertices, series, rng,
                     record_trajectory=fluid is not None, rate_table=table)
        deviation = None
        if fluid is not None:
            traj = result.trajectory
            deviation = float(np.abs(traj[:, 1:] / n_vertices
                                     - fluid[:len(traj), 1:]).max())
        records.append(ReplicaRecord(
            n_vertices=n_vertices,
            replica=replica,
            seed=seed,
            v_star_frac=result.removed / n_vertices,
            debris_frac=result.debris / n_vertices,
            stop_step=result.removed,
            deviation=deviation,
        ))
    return records


def run_replicas(config: ExperimentConfig) -> ExperimentResult:
    """Run the whole sweep; record order is canonical (n_vertices, replica).

    Each N gets one rate table and, when trajectories are recorded, one
    fluid-path table of N+1 rows; the sweep is one ordered list of batches
    of about replicas / (4 * workers) replicas that share them.  One worker
    runs the batches in the calling thread, more run them on threads.
    """
    series = config.series
    tables = {n: (edge_rate_curve(n, 2, series),
                  path_grid(np.minimum(np.arange(n + 1) / n, T_CAP), series)
                  if config.record_trajectory else None)
              for n in config.n_values}
    chunk = max(1, math.ceil(config.replicas / (4 * config.workers)))
    jobs = [(n, *tables[n], lo, min(lo + chunk, config.replicas))
            for n in config.n_values for lo in range(0, config.replicas, chunk)]
    batch = partial(_replica_batch, series, master_seed=config.master_seed)
    if config.workers == 1:
        batches = list(map(batch, *zip(*jobs)))
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
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


def config_from_json(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document.

    The model comes either from explicit coefficients ("beta": [b0, ...])
    or from the graph shorthand ("p" and "alpha").  Recognized keys:
    N_values, replicas, master_seed, delta, record_trajectory, workers,
    and the CLI's outputs; any other key is an error.  The counts must be
    whole numbers: 1e5 is one, 2.5, true and "3" are not.  A key whose
    value is null counts as absent.
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
    if not isinstance(doc.get("outputs", {}), dict):
        raise ValueError(f"outputs must be a JSON object, got {doc['outputs']!r}")
    return ExperimentConfig(
        series=series,
        n_values=n_values,
        replicas=replicas,
        master_seed=master_seed,
        delta=doc.get("delta"),
        record_trajectory=doc.get("record_trajectory", False),
        workers=doc.get("workers", 1),
    )
