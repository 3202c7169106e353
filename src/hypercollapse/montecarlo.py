"""Replica orchestration with reproducible per-replica random streams.

Every replica draws from its own PCG64 generator seeded by a fixed
integer-mixing function of (master_seed, n_vertices, replica), so results
are independent of scheduling and identical whether replicas run
sequentially or across worker processes.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .chain import edge_rate_curve, run
from .errors import DegenerateModelError
from .fluid import path_grid
from .series import BetaSeries, T_CAP, resolve_model

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a fixed 64-bit bijection with good avalanche."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix_chain(master_seed: int, key: Sequence[int], salt: int) -> int:
    state = _mix64((int(master_seed) ^ salt) & _MASK64)
    for k in key:
        state = _mix64(state ^ _mix64((int(k) + salt) & _MASK64))
    return state


def derive_seed(master_seed: int, *key: int) -> int:
    """Derive a 128-bit stream seed from the master seed and an integer key path.

    Two SplitMix64 mixing chains with different salts supply the low and
    high words.  Distinct key paths give distinct seeds up to a ~2**-128
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
    workers: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
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
            if self.delta <= 0.0:
                raise ValueError("delta must be positive")
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


def _sup_deviation(trajectory: np.ndarray, n_vertices: int,
                   series: BetaSeries) -> float:
    """Largest distance of the rescaled trajectory from the fluid path.

    Rows are compared componentwise at t = removed/N, capped below 1; the
    first component matches by construction, so only patches and debris
    contribute.  The window is the recorded (pre-absorption) trajectory.
    """
    ts = np.minimum(trajectory[:, 0].astype(float) / n_vertices, T_CAP)
    xs = path_grid(ts, series)
    dev_patches = np.abs(trajectory[:, 1] / n_vertices - xs[:, 1])
    dev_debris = np.abs(trajectory[:, 2] / n_vertices - xs[:, 2])
    return float(max(dev_patches.max(), dev_debris.max()))


def _replica_batch(series: BetaSeries, n_vertices: int, lo: int, hi: int,
                   master_seed: int, want_deviation: bool) -> list[ReplicaRecord]:
    """Run replicas lo..hi-1 for one vertex count (worker entry point)."""
    table = edge_rate_curve(n_vertices, 2, series)
    records = []
    for replica in range(lo, hi):
        seed = derive_seed(master_seed, n_vertices, replica)
        rng = np.random.Generator(np.random.PCG64(seed))
        result = run(n_vertices, series, rng,
                     record_trajectory=want_deviation, rate_table=table)
        deviation = None
        if want_deviation:
            deviation = _sup_deviation(result.trajectory, n_vertices, series)
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

    The sweep is one ordered list of (n, lo, hi) replica batches: one batch
    per vertex count in process, or about four per worker across a pool.
    """
    chunk = config.replicas
    if config.workers > 1:
        chunk = max(1, math.ceil(config.replicas / (4 * config.workers)))
    jobs = [(n, lo, min(lo + chunk, config.replicas))
            for n in config.n_values for lo in range(0, config.replicas, chunk)]
    batch = partial(_replica_batch, config.series, master_seed=config.master_seed,
                    want_deviation=config.record_trajectory)
    if config.workers == 1:
        batches = list(map(batch, *zip(*jobs)))
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
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
    result = run_replicas(replace(config, delta=float(delta)))
    return [(row.n_vertices, row.dev_freq) for row in result.aggregates]


def config_from_json(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document.

    The model comes either from explicit coefficients ("beta": [b0, ...])
    or from the graph shorthand ("p" and "alpha").  Recognized keys:
    N_values, replicas, master_seed, delta, record_trajectory, workers.
    A key whose value is null counts as absent.
    """
    doc = {key: value for key, value in doc.items() if value is not None}
    series = resolve_model(doc.get("beta"), doc.get("p"), doc.get("alpha"))
    try:
        n_values = tuple(int(n) for n in doc["N_values"])
        replicas = int(doc["replicas"])
        master_seed = int(doc["master_seed"])
    except KeyError as missing:
        raise ValueError(f"config is missing required key {missing}") from None
    record_trajectory = doc.get("record_trajectory", False)
    if not isinstance(record_trajectory, bool):
        raise ValueError("record_trajectory must be true or false, "
                         f"got {record_trajectory!r}")
    return ExperimentConfig(
        series=series,
        n_values=n_values,
        replicas=replicas,
        master_seed=master_seed,
        delta=float(doc["delta"]) if "delta" in doc else None,
        record_trajectory=record_trajectory,
        workers=int(doc.get("workers", 1)),
    )
