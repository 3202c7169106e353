"""Deterministic limit of the collapse and its Gaussian fluctuations.

State convention: x = (x1, x2, x3) = (fraction of vertices removed,
patches per vertex, debris per vertex).  The collapse follows the
closed-form path

    x_t = (t, (1 - t) f(t), b(t) - (1 - t) log(1 - t)),

whose velocity is the drift field of the one-step jump.  Note the third
drift component is 1 + x2/(1 - x1): every removal converts the selected
patch into one unit of debris (the constant 1) on top of the shared
patches it drags along.  The diffusion part is factored into three
columns whose outer products sum to the jump covariance, and the patch
fluctuation around the path, normalized by 1 - t, is a Brownian motion
run at the clock sigma_sq(t).  Each closed form here is cross-checked
against an independent numerical oracle in the tests (finite differences,
brute-force moments, quadrature).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .series import (BetaSeries, CriticalStructure, T_CAP, critical_structure,
                     deficiency, deficiency_grid, evaluate, evaluate_grid)
from .series import _check_grid, _check_t as _check_unit_t

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


def drift_jacobian(x, series: BetaSeries) -> np.ndarray:
    """Gradient of the drift field, in closed form."""
    x1, x2, remaining = _as_state(x)
    d21 = (-x2 / remaining ** 2 - evaluate(series, x1, 2)
           + remaining * evaluate(series, x1, 3))
    return np.array([
        [0.0, 0.0, 0.0],
        [d21, -1.0 / remaining, 0.0],
        [x2 / remaining ** 2, 1.0 / remaining, 0.0],
    ])


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
    fs = deficiency_grid(series, ts)
    log1m = np.log1p(-ts)
    vals = evaluate_grid(series, ts, 0)
    return np.column_stack([ts, (1.0 - ts) * fs, vals - (1.0 - ts) * log1m])


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
    """Euler integration of the linear fluctuation equation along the path.

    Starts from the exact initial law (0, Normal(0, b1), Normal(0, b0)),
    driven by the first two diffusion factors only; the third factor
    belongs to a clock randomization the discrete chain does not have.
    The first component stays exactly zero.  Returns (times, paths) with
    paths shaped (n_paths, n_steps + 1, 3); n_paths > 1 integrates
    independent replicas in one vectorized pass.
    """
    if critical is None:
        critical = critical_structure(series)
    t_end = float(t_end)
    if not 0.0 < t_end < min(critical.z_star, 1.0):
        raise ValueError("t_end must be in (0, z_star)")
    n_steps = int(n_steps)
    if n_steps < 1000 or n_steps < 100.0 * t_end / (1.0 - t_end):
        raise ValueError("n_steps too small for a stable integration "
                         "(need >= 1000 and >= 100*t_end/(1-t_end))")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")

    ts = np.linspace(0.0, t_end, n_steps + 1)
    dt = t_end / n_steps
    sqdt = math.sqrt(dt)
    g = np.zeros((n_paths, 3))
    g[:, 1] = rng.normal(0.0, math.sqrt(series.coeff(1)), n_paths)
    g[:, 2] = rng.normal(0.0, math.sqrt(series.coeff(0)), n_paths)
    out = np.empty((n_paths, n_steps + 1, 3))
    out[:, 0] = g
    for k in range(n_steps):
        t = float(ts[k])
        x = path(t, series)
        jac = drift_jacobian(x, series)
        # tangency grazing can put x2 at -1e-18; the noise scale is zero there
        v1, v2, _ = diffusion_factors((x[0], max(x[1], 0.0), x[2]), series)
        noise1 = rng.standard_normal(n_paths) * (v1[1] * sqdt)
        noise2 = rng.standard_normal(n_paths) * (v2[1] * sqdt)
        g = g + dt * (g @ jac.T)
        g[:, 1] += noise1 + noise2
        g[:, 2] -= noise1
        out[:, k + 1] = g
    return ts, out


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
        return cls(series, crit, min(float(t_max), T_CAP))

    def curve(self, grid_points: int = 1001) -> np.ndarray:
        """Columns t, x1, x2, x3, f, sigma_sq on a uniform grid to t_max."""
        if grid_points < 2:
            raise ValueError("need at least two grid points")
        ts = np.linspace(0.0, self.t_max, grid_points)
        xs = path_grid(ts, self.series)
        fs = deficiency_grid(self.series, xs[:, 0])
        sig = (fs + xs[:, 0]) / (1.0 - xs[:, 0])
        return np.column_stack([xs[:, 0], xs, fs, sig])
