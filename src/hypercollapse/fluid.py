"""Deterministic limit of the collapse and its Gaussian fluctuations.

State convention: x = (x1, x2, x3) = (fraction of vertices removed,
patches per vertex, debris per vertex).  The collapse follows the
closed-form path

    x_t = (t, (1 - t) f(t), b(t) - (1 - t) log(1 - t)),

whose velocity is the drift field of the one-step jump.  Note the third
drift component is 1 + x2/(1 - x1): every removal converts the selected
patch into one unit of debris (the constant 1) on top of the shared
patches it drags along.  The diffusion part is factored into three
columns whose outer products sum to the jump covariance.  The Gaussian
fluctuation around the path has closed-form covariances: the patch
fluctuation normalized by 1 - t is a Brownian motion run at the clock
sigma_sq(t), and `simulate_fluctuation` samples the limit exactly.  Each
closed form here is cross-checked in the tests against an independent
numerical oracle (the path's difference quotient, brute-force jump
moments, quadrature, an Euler integration of the fluctuation equation)
or against the chain itself.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .series import (BetaSeries, CriticalStructure, T_CAP, critical_structure,
                     deficiency, deficiency_grid, evaluate, evaluate_grid, real, whole)
from .series import _check_grid, _check_t as _check_unit_t, _horner

CURVE_COLUMNS = ("t", "x1", "x2", "x3", "f", "sigma_sq")
# share of the removal range, at its end, that `patch_overlap_average` covers
_OVERLAP_WINDOW = 0.1


def _check_t(t: float) -> float:
    return min(_check_unit_t(t), T_CAP)


def _as_state(x) -> tuple[float, float, float]:
    """(x1, x2, 1 - x1) of a state, which must have x1 < 1."""
    x1, x2, _ = (float(v) for v in x)
    if x1 >= 1.0:
        raise ValueError("drift and diffusion are singular at x1 >= 1")
    return x1, x2, 1.0 - x1


def drift(x, series: BetaSeries) -> np.ndarray:
    """Mean jump per removal at state x.

    Removals advance at unit rate; the patch count loses the selected
    patch and the shared ones and gains the 2-edge conversions; the debris
    count gains the selected patch (the constant 1) plus the shared ones.
    """
    x1, x2, remaining = _as_state(x)
    shared = x2 / remaining
    conversions = remaining * evaluate(series, x1, 2)
    return np.array([1.0, -1.0 - shared + conversions, 1.0 + shared])


def diffusion_factors(x, series: BetaSeries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three columns whose outer products sum to the jump covariance E(J x J).

    The first carries the shared-patch noise into (patches, debris) with
    opposite signs, the second the 2-edge conversion noise into patches,
    and the third is the drift itself (the clock randomization direction).
    """
    x1, x2, remaining = _as_state(x)
    if x2 < 0.0:
        raise ValueError("negative patch density")
    shared = math.sqrt(x2 / remaining)
    conversions = math.sqrt(remaining * evaluate(series, x1, 2))
    return (np.array([0.0, shared, -shared]), np.array([0.0, conversions, 0.0]),
            drift(x, series))


def path(t: float, series: BetaSeries) -> np.ndarray:
    """Closed-form collapse path at time t (fraction removed)."""
    t = _check_t(t)
    f = deficiency(series, t)
    log1mt = math.log1p(-t)
    return np.array([t,
                     (1.0 - t) * f,
                     evaluate(series, t, 0) - (1.0 - t) * log1mt])


def path_grid(ts, series: BetaSeries) -> np.ndarray:
    """Vectorized `path`; rows are states, capped at t <= 1 - 1e-9."""
    ts = np.minimum(_check_grid(ts), T_CAP)
    log1m = np.log1p(-ts)
    return np.column_stack([ts, (1.0 - ts) * (_horner(series, ts, 1) + log1m),
                            _horner(series, ts, 0) - (1.0 - ts) * log1m])


def sigma_sq(t: float, series: BetaSeries) -> float:
    """Clock of the normalized patch fluctuation: (f(t) + t) / (1 - t).

    Equals b1 at t = 0 and z/(1-z) wherever f vanishes, which is what puts
    the tangency decisions of `sample_limit_fraction` at Brownian times
    z/(1-z).
    """
    t = _check_t(t)
    return (deficiency(series, t) + t) / (1.0 - t)


def limit_fractions(series: BetaSeries,
                    critical: Optional[CriticalStructure] = None) -> tuple[float, float]:
    """Limiting identified-vertex and identified-edge fractions.

    Returns (z_star, b(z*) - (1 - z*) log(1 - z*)).  These are laws of
    large numbers only when zeta is empty; with tangency candidates
    present the limit is random and a warning is emitted (the returned
    values are then the no-early-stop branch).
    """
    if critical is None:
        critical = critical_structure(series)
    if critical.zeta:
        warnings.warn(
            "tangential zeros present: the limiting fractions are random; "
            "returning the no-early-stop branch",
            UserWarning, stacklevel=2)
    z = critical.z_star
    return z, float(path(min(z, T_CAP), series)[2])


def patch_overlap_average(series: BetaSeries) -> float:
    """Average deficiency over the last tenth of the removal range.

    The deficiency f(t) is the expected number of other patches sharing
    the vertex of the patch selected at time t, so this is the mean
    overlap during the final stretch of a supercritical collapse.
    Computed by quadrature on [0.9, 1), capped below 1.
    """
    # imported here: scipy.integrate is most of the package's import time
    from scipy.integrate import quad

    lo = 1.0 - _OVERLAP_WINDOW
    value, _ = quad(lambda t: deficiency(series, t), lo, T_CAP, limit=200)
    return value / _OVERLAP_WINDOW


@dataclass(frozen=True)
class FluctuationSample:
    """One draw of the limiting identified fraction."""

    value: float
    hit_tangency: bool


def sample_limit_fraction(critical: CriticalStructure,
                          rng: np.random.Generator) -> FluctuationSample:
    """Draw the limiting identified fraction of a model with tangencies.

    A standard Brownian motion is evaluated at the increasing times
    z/(1-z) for each tangency candidate z in ascending order; the first
    negative value stops the collapse at that z, otherwise it runs to
    z_star.  With no candidates the answer is z_star with probability 1.
    """
    w = 0.0
    s = 0.0
    for z in critical.zeta:
        s_next = z / (1.0 - z)
        w += math.sqrt(s_next - s) * rng.standard_normal()
        s = s_next
        if w < 0.0:
            return FluctuationSample(float(z), True)
    return FluctuationSample(float(critical.z_star), False)


def simulate_fluctuation(series: BetaSeries, t_end: float, n_steps: int,
                         rng: np.random.Generator, n_paths: int = 1,
                         critical: Optional[CriticalStructure] = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Exact draws of the Gaussian fluctuation limit on a uniform grid.

    The limit g = (g1, g2, g3) has g1 = 0.  M = g2/(1-t) and S = g2 + g3
    are driftless Gaussian processes with independent increments:

        Var M_t = sigma_sq(t),  Var S_t = b(t) + (1-t) b'(t),
        Cov(M_t, S_t) = b'(t),

    which at t = 0 is the initial law (0, Normal(0, b1), Normal(0, b0)).
    Only the shared-patch and conversion noise drive it; the clock noise
    of the third diffusion factor is absent from the discrete chain.  Each
    grid step draws its increment of (M, S) through a 2x2 Cholesky factor,
    so any n_steps >= 1 samples the limit without discretisation error.
    Returns (times, paths) with paths shaped (n_paths, n_steps + 1, 3), a
    transposed view of one buffer.
    """
    if critical is None:
        critical = critical_structure(series)
    t_end = real("t_end", t_end)
    if not 0.0 < t_end < min(critical.z_star, 1.0):
        raise ValueError("t_end must be in (0, z_star)")
    n_steps = whole("n_steps", n_steps)
    n_paths = whole("n_paths", n_paths)
    if n_steps < 1 or n_paths < 1:
        raise ValueError(f"n_steps and n_paths must be >= 1, got {n_steps} and {n_paths}")

    ts = np.linspace(0.0, t_end, n_steps + 1)
    slope = evaluate_grid(series, ts, 1)
    var_m = (slope + np.log1p(-ts) + ts) / (1.0 - ts)
    var_s = evaluate_grid(series, ts, 0) + (1.0 - ts) * slope
    d_m, d_s, d_c = (np.diff(v, prepend=0.0) for v in (var_m, var_s, slope))
    # tangency grazing within the tolerance can round these below zero
    l11 = np.sqrt(np.maximum(d_m, 0.0))
    l21 = np.divide(d_c, l11, out=np.zeros_like(d_c), where=l11 > 0.0)
    l22 = np.sqrt(np.maximum(d_s - l21 ** 2, 0.0))

    # planes 1 and 2 take the normals, then the increments of M and S, then
    # their running sums; plane 0 is scratch until it is zeroed
    out = np.empty((3, n_paths, n_steps + 1))
    m, s = out[1], out[2]
    rng.standard_normal(out=m)
    rng.standard_normal(out=s)
    s *= l22
    s += np.multiply(m, l21, out=out[0])
    m *= l11
    out[0] = 0.0
    np.cumsum(out, axis=2, out=out)
    m *= 1.0 - ts
    s -= m
    return ts, out.transpose(1, 2, 0)


@dataclass(frozen=True)
class FluidModel:
    """A series bundled with its critical structure and a plotting horizon."""

    series: BetaSeries
    critical: CriticalStructure
    t_max: float

    def __post_init__(self) -> None:
        if not 0.0 < self.t_max < 1.0:
            raise ValueError("t_max must be in (0, 1)")

    @classmethod
    def build(cls, series: BetaSeries, t_max: Optional[float] = None,
              tangency_tolerance: float = 1e-9) -> "FluidModel":
        crit = critical_structure(series, tangency_tolerance)
        if t_max is None:
            t_max = min(0.999, crit.z_star + 0.1)
        t_max = real("t_max", t_max)
        # cap a horizon in [T_CAP, 1); __post_init__ refuses one outside (0, 1)
        return cls(series, crit, min(t_max, T_CAP) if t_max < 1.0 else t_max)

    def curve(self, grid_points: int = 1001) -> np.ndarray:
        """Columns t, x1, x2, x3, f, sigma_sq on a uniform grid to t_max."""
        grid_points = whole("grid_points", grid_points)
        if grid_points < 2:
            raise ValueError("need at least two grid points")
        ts = np.linspace(0.0, self.t_max, grid_points)
        xs = path_grid(ts, self.series)
        fs = deficiency_grid(self.series, xs[:, 0])
        sig = (fs + xs[:, 0]) / (1.0 - xs[:, 0])
        return np.column_stack([xs[:, 0], xs, fs, sig])
