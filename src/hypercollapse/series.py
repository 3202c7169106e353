"""Edge-density polynomial of the hypergraph model and its critical structure.

A model is a vector of non-negative coefficients (b0, b1, ..., bD): bj is
the expected number of size-j hyperedges per vertex.  All threshold
analysis runs through the deficiency function

    f(t) = b'(t) + log(1 - t),

the fluid-limit surplus of patches per remaining vertex once a fraction t
of the vertices has been collapsed.  Collapse is self-sustaining while
f > 0.  The threshold ``z_star`` is the first point where f turns strictly
negative (1 if it never does), and the tangential zeros of f before
``z_star`` (the ``zeta`` set) are the places where the collapse can die by
chance even though the mean flow survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketError, DegenerateModelError

# log(1 - t) blows up at 1; grids and evaluations are capped just below.
T_CAP = 1.0 - 1e-9
_SCAN_POINTS = 100_000   # threshold scan grid of `critical_structure`
_DIP_POINTS = 16384      # dip scan grid of `critical_alpha`
_REL_TOL = 1e-12         # relative bracket width at which bisections stop
_GOLDEN_XTOL = 1e-11     # bracket width at which golden-section search stops
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class BetaSeries:
    """Non-negative polynomial coefficients (b0, ..., bD) of the edge-density series."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        for c in coeffs:
            if not math.isfinite(c) or c < 0.0:
                raise ValueError(f"coefficients must be finite and non-negative, got {c}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, j: int) -> float:
        """Coefficient bj, zero beyond the stored degree."""
        return self.coeffs[j] if 0 <= j <= self.degree else 0.0


@dataclass(frozen=True)
class CriticalStructure:
    """Collapse threshold and the tangency candidates below it.

    ``zeta`` holds refined locations of interior minima of the deficiency
    whose value is within ``tangency_tolerance`` of zero.  Tangency is
    numerically ill-posed (f touches zero without crossing), so these are
    reported candidates, not certified zeros.  Construction requires
    0 < zeta[0] < ... < zeta[-1] < z_star <= 1 and a positive, finite
    tolerance.
    """

    z_star: float
    zeta: tuple[float, ...]
    tangency_tolerance: float

    def __post_init__(self) -> None:
        # every comparison with NaN is false, so NaN fails both checks
        points = (0.0, *self.zeta, self.z_star)
        if not (self.z_star <= 1.0 and all(a < b for a, b in zip(points, points[1:]))):
            raise ValueError("need 0 < zeta[0] < ... < zeta[-1] < z_star <= 1, "
                             f"got zeta={tuple(self.zeta)}, z_star={self.z_star}")
        if not 0.0 < self.tangency_tolerance < math.inf:
            raise ValueError("tangency_tolerance must be positive and finite, "
                             f"got {self.tangency_tolerance}")


def _check_t(t: float) -> float:
    t = float(t)
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must be in [0, 1), got {t}")
    return t


def _check_grid(ts) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    if ts.size and (ts.min() < 0.0 or ts.max() >= 1.0):
        raise ValueError("grid points must be in [0, 1)")
    return ts


def _horner(series: BetaSeries, t, order: int):
    """Order-th derivative of b at t, a float or an array, by Horner's rule."""
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be 0..3, got {order}")
    acc = 0.0 * t
    for j in range(series.degree, order - 1, -1):
        acc = acc * t + series.coeffs[j] * math.perm(j, order)
    return acc


def evaluate(series: BetaSeries, t: float, order: int = 0) -> float:
    """Evaluate the series or one of its first three derivatives at t in [0, 1)."""
    return _horner(series, _check_t(t), order)


def evaluate_grid(series: BetaSeries, ts: np.ndarray, order: int = 0) -> np.ndarray:
    """Vectorized `evaluate` on an array of points."""
    return _horner(series, _check_grid(ts), order)


def deficiency(series: BetaSeries, t: float) -> float:
    """f(t) = b'(t) + log(1 - t); f(0) equals b1 exactly."""
    t = _check_t(t)
    return _horner(series, t, 1) + math.log1p(-t)


def deficiency_grid(series: BetaSeries, ts: np.ndarray) -> np.ndarray:
    """Vectorized deficiency on an array of points."""
    ts = _check_grid(ts)
    return _horner(series, ts, 1) + np.log1p(-ts)


def _bisect_root(f: Callable[[float], float], a: float, b: float) -> float:
    """Refine a sign change with f(a) >= 0 > f(b) down to relative width 1e-12.

    Bisection and golden-section search are deliberately simple: the
    functions refined here are smooth and cheap, so robustness beats speed.
    """
    fa, fb = f(a), f(b)
    if not (fa >= 0.0 > fb):
        raise ValueError(f"not a (>=0, <0) bracket: f({a})={fa}, f({b})={fb}")
    while (b - a) > _REL_TOL * max(abs(b), _REL_TOL):
        mid = 0.5 * (a + b)
        if f(mid) < 0.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def _golden_min(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Golden-section minimization on [a, b]; returns (argmin, min value)."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > _GOLDEN_XTOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def critical_structure(series: BetaSeries,
                       tangency_tolerance: float = 1e-9) -> CriticalStructure:
    """Scan the deficiency for its threshold and tangency candidates.

    A uniform grid of 100 000 points on [0, 1 - 1e-9] locates the first
    sign change of f, refined by bisection to 1e-12 relative width;
    interior grid minima before the threshold are refined by golden-section
    search and kept when |f| at the minimum is within the tangency
    tolerance.  A refined minimum below -tolerance means the grid stepped
    over a crossing, in which case the threshold is moved there.
    """
    if tangency_tolerance <= 0.0:
        raise ValueError("tangency_tolerance must be positive")
    if series.coeff(1) <= 0.0:
        raise DegenerateModelError("b1 = 0: no patches at the start, nothing collapses")
    # b(1) and b'(1) bound every Horner partial sum of b and b' on [0, 1)
    top = _horner(series, 1.0, 0), _horner(series, 1.0, 1)
    if not all(map(math.isfinite, top)):
        raise ValueError(f"b(1) and b'(1) must be finite, got {top}")

    ts = np.linspace(0.0, T_CAP, _SCAN_POINTS)
    fs = deficiency_grid(series, ts)

    def f(t: float) -> float:
        return deficiency(series, t)

    z_star = 1.0
    negative = np.flatnonzero(fs < 0.0)
    if negative.size:
        k = int(negative[0])  # k >= 1 because f(0) = b1 > 0
        z_star = _bisect_root(f, float(ts[k - 1]), float(ts[k]))

    zeta: list[float] = []
    interior = np.flatnonzero((fs[1:-1] <= fs[:-2]) & (fs[1:-1] <= fs[2:])) + 1
    for i in interior:
        if ts[i] >= z_star:
            break
        t_min, f_min = _golden_min(f, float(ts[i - 1]), float(ts[i + 1]))
        if t_min >= z_star:
            continue
        if f_min < -tangency_tolerance:
            # crossing hidden between grid points: the threshold is earlier
            z_star = _bisect_root(f, float(ts[i - 1]), t_min)
            continue
        if abs(f_min) <= tangency_tolerance:
            if zeta and abs(t_min - zeta[-1]) < 1e-8:
                continue
            zeta.append(t_min)
    zeta = [z for z in zeta if z < z_star]
    return CriticalStructure(z_star=float(z_star), zeta=tuple(zeta),
                             tangency_tolerance=float(tangency_tolerance))


def _dip_minimum(series: BetaSeries) -> tuple[float, float]:
    """Location and value of the interior minimum of the deficiency."""
    ts = np.linspace(0.0, T_CAP, _DIP_POINTS)
    fs = deficiency_grid(series, ts)
    i = int(np.argmin(fs[1:-1])) + 1
    if not (fs[i] <= fs[i - 1] and fs[i] <= fs[i + 1]):
        raise BracketError("deficiency has no interior dip on [0, 1)")
    return _golden_min(lambda t: deficiency(series, t),
                       float(ts[i - 1]), float(ts[i + 1]))


def critical_alpha(family: Callable[[float], BetaSeries],
                   alpha_lo: float, alpha_hi: float,
                   tangency_tolerance: float = 1e-9) -> tuple[float, float]:
    """Bisect the family parameter to the tangency of the deficiency dip.

    `family` maps a parameter alpha to a BetaSeries whose deficiency
    increases pointwise with alpha.  The dip minimum must be negative at
    alpha_lo (subcritical) and positive at alpha_hi (supercritical);
    returns (alpha_c, dip location), the parameter where the dip touches
    zero and the tangency point itself.  Each dip is located on a grid of
    16384 points and refined by golden-section search; the bisection stops
    at relative width 1e-12.
    """
    lo, hi = float(alpha_lo), float(alpha_hi)
    if lo > hi:
        raise BracketError("alpha_lo must not exceed alpha_hi")
    t_lo, m_lo = _dip_minimum(family(lo))
    if lo == hi:
        if abs(m_lo) <= tangency_tolerance:
            return lo, t_lo
        raise BracketError("single parameter is not tangent within tolerance")
    _, m_hi = _dip_minimum(family(hi))
    if m_lo >= 0.0:
        raise BracketError(f"alpha_lo={lo} is not subcritical (dip minimum {m_lo} >= 0)")
    if m_hi <= 0.0:
        raise BracketError(f"alpha_hi={hi} is not supercritical (dip minimum {m_hi} <= 0)")
    while (hi - lo) > _REL_TOL * max(abs(hi), 1.0):
        mid = 0.5 * (lo + hi)
        _, m_mid = _dip_minimum(family(mid))
        if m_mid < 0.0:
            lo = mid
        else:
            hi = mid
    alpha_c = 0.5 * (lo + hi)
    t_c, _ = _dip_minimum(family(alpha_c))
    return alpha_c, t_c


def from_graph_params(p: float, alpha: float) -> BetaSeries:
    """Series of the open-vertex / open-edge random graph: (0, -log(1-p), alpha/2).

    Each vertex is open with probability p, each of the N*alpha/2 expected
    edges joins a uniform pair; open vertices are the initial patches.
    """
    p = float(p)
    alpha = float(alpha)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must be in [0, 1), got {p}")
    if alpha < 0.0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    return BetaSeries((0.0, -math.log1p(-p), alpha / 2.0))


def resolve_model(beta=None, p=None, alpha=None) -> BetaSeries:
    """Series from coefficients `beta` or from `p` and `alpha`; None is absent."""
    if beta is not None:
        if p is not None or alpha is not None:
            raise ValueError("give either beta or p and alpha, not both")
        return BetaSeries(tuple(beta))
    if p is None or alpha is None:
        raise ValueError("model required: beta, or both p and alpha")
    return from_graph_params(p, alpha)


def from_binomial_family(alpha: float, base: float = 0.1, slope: float = 0.9,
                         power: int = 7) -> BetaSeries:
    """Series with b(t) = alpha * (base + slope*t)**power, expanded to coefficients."""
    if alpha < 0.0 or base < 0.0 or slope < 0.0:
        raise ValueError("family parameters must be non-negative")
    if power < 1:
        raise ValueError("power must be a positive integer")
    return BetaSeries(tuple(
        alpha * math.comb(power, j) * base ** (power - j) * slope ** j
        for j in range(power + 1)
    ))
