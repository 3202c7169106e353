"""Independent oracles shared by the test modules.

Everything here is deliberately written from the raw definitions (direct
combinatorics, pmf enumeration and propagation, grid scans, quadrature) and
not from the package's own routines, so that agreement is evidence and not
tautology.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from hypercollapse import Hypergraph


def first_negative_root(fn_vec, lo=0.0, hi=0.999999, grid=400001, iters=200):
    """First sign change of fn on [lo, hi]: fine-grid scan plus plain bisection.

    `fn_vec` must accept numpy arrays.  Returns None when fn stays
    non-negative on the grid.
    """
    ts = np.linspace(lo, hi, grid)
    vs = fn_vec(ts)
    idx = np.flatnonzero(vs < 0.0)
    if idx.size == 0:
        return None
    a, b = float(ts[idx[0] - 1]), float(ts[idx[0]])
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if fn_vec(np.array([mid]))[0] < 0.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def poisson_pmf_table(mu: float) -> list[float]:
    """pmf values 0..K covering at least 1 - 1e-13 of the mass, padded so the
    truncated second moments are accurate as well."""
    p = math.exp(-mu)
    probs = [p]
    cum = p
    k = 0
    while cum < 1.0 - 1e-13 and k < 100_000:
        k += 1
        p *= mu / k
        probs.append(p)
        cum += p
    for _ in range(10):
        k += 1
        p *= mu / k
        probs.append(p)
    return probs


def jump_moment_matrix(mu_shared: float, mu_new: float) -> np.ndarray:
    """E(J x J) for the jump J = (1, -1 - W + U, 1 + W), by direct enumeration
    over independent W ~ Poisson(mu_shared) and U ~ Poisson(mu_new)."""
    pw = poisson_pmf_table(mu_shared)
    pu = poisson_pmf_table(mu_new)
    moment = np.zeros((3, 3))
    for w, prob_w in enumerate(pw):
        for u, prob_u in enumerate(pu):
            jump = np.array([1.0, -1.0 - w + u, 1.0 + w])
            moment += (prob_w * prob_u) * np.outer(jump, jump)
    return moment


def exact_edge_rate(n_vertices: int, removed: int, size: int, coeffs) -> float:
    """Per-subset edge rate by exact integer combinatorics (math.comb)."""
    total = 0.0
    for i in range(len(coeffs) - size):
        if i + size > n_vertices:
            break
        total += coeffs[size + i] * math.comb(removed, i) / math.comb(n_vertices, i + size)
    return n_vertices * total


_EPS = 1e-16          # upper-tail mass dropped from each pmf
_STOP_BELOW = 1e-13   # late-absorption bound at which propagation stops
_BLOCK = 32           # removals between checks of that bound


def _trim_upper_tail(pmf: np.ndarray) -> np.ndarray:
    """Drop the trailing entries whose summed mass is below _EPS."""
    tail = np.cumsum(pmf[::-1])
    return pmf[:max(1, len(pmf) - int(np.searchsorted(tail, _EPS)))]


def poisson_pmf_array(mu: float) -> np.ndarray:
    """Poisson(mu) pmf from 0 up, computed in log space, upper tail below
    _EPS dropped."""
    if mu == 0.0:
        return np.ones(1)
    ks = np.arange(1, int(mu + 12.0 * math.sqrt(mu)) + 41)
    logs = np.concatenate(([0.0], np.cumsum(np.log(mu / ks)))) - mu
    return _trim_upper_tail(np.exp(logs))


def _late_absorption_bound(alive: np.ndarray, mu_floor: float, p_top: float,
                           steps: int) -> float:
    """Upper bound on the chance that the alive patch pmf absorbs within
    `steps` more removals, given that every new-patch mean in that window
    is at least mu_floor > 1 and every thinning probability at most p_top.

    Below K = (mu_floor - 1) / (2 p_top) patches the drift is at least
    (mu_floor - 1)/2, and for the theta minimising
        g(theta) = theta + K p_top (e^theta - 1) + mu_floor (e^-theta - 1) < 0
    exp(-theta k) is a supermartingale there, since
    E exp(-theta (k' - k)) = e^theta E e^(theta S) E e^(-theta U) <= e^g.
    So a start at k <= K hits 0 before leaving [0, K] with chance at most
    exp(-theta k).  Each of the at most `steps` entries from above lands at
    K/2 or more, unless more than half of the k > K patches share the
    removed vertex (chance at most (4 p_top)^(K/2)), and from there hits 0
    before leaving with chance at most exp(-theta K / 2).
    """
    kstar = int((mu_floor - 1.0) / (2.0 * p_top))
    if kstar < 2 or 4.0 * p_top >= 1.0:
        return math.inf
    c = kstar * p_top
    theta = math.log((math.sqrt(1.0 + 4.0 * c * mu_floor) - 1.0) / (2.0 * c))
    ks = np.arange(min(len(alive), kstar + 1))
    start = float(np.dot(alive[:len(ks)], np.exp(-theta * ks)))
    per_entry = math.exp(-theta * kstar / 2.0) + (4.0 * p_top) ** (kstar / 2.0)
    return start + steps * per_entry


class AbsorptionLaw(NamedTuple):
    pmf: np.ndarray     # pmf[v] = P(chain absorbs after v removals), v <= horizon
    lost: float         # mass dropped by the truncations
    unresolved: float   # bound on absorption missing from pmf past the stop


def absorption_law(n_vertices: int, coeffs, horizon: int | None = None) -> AbsorptionLaw:
    """Law of the reduced chain's absorption count v on [0, horizon], by
    propagating the exact pmf of the patch count forward.

    After n removals a patch count k > 0 moves to k - 1 - S + U, with
    S ~ Binomial(k - 1, 1/(N - n)) other patches on the removed vertex and
    U ~ Poisson((N - n - 1) * rate2(n)) new patches, starting from
    k ~ Poisson(N b1); v is the first n with k = 0.  The only cuts are
    upper tails of the patch, shared and new-patch pmfs below _EPS; the
    mass they drop is returned as `lost`.  Propagation stops early once
    the chance of any further absorption up to the horizon is provably
    below _STOP_BELOW (`_late_absorption_bound`); that bound is returned
    as `unresolved`.  Every probability of an event on v <= horizon is
    thus exact to within lost + unresolved.
    """
    N = int(n_vertices)
    horizon = N if horizon is None else int(horizon)
    # rate2(m) is nondecreasing in m (non-negative coefficients), so on a
    # block [a, b) the new-patch mean (N - m - 1) rate2(m) is >= (N - b) rate2(a)
    block_floor = [(N - min(a + _BLOCK, horizon)) * exact_edge_rate(N, a, 2, coeffs)
                   for a in range(0, horizon, _BLOCK)]
    mu_floor = np.minimum.accumulate(block_floor[::-1])[::-1]   # over [a, horizon)
    p_top = 1.0 / (N - horizon + 1)
    pmf = np.zeros(horizon + 1)
    alive = poisson_pmf_array(N * coeffs[1]) if len(coeffs) > 1 else np.ones(1)
    pmf[0], alive[0] = alive[0], 0.0
    unresolved = 0.0
    n = 0
    while n < horizon and alive.sum() > 0.0:
        if n % _BLOCK == 0 and mu_floor[n // _BLOCK] > 1.0:
            bound = _late_absorption_bound(alive, mu_floor[n // _BLOCK], p_top,
                                           horizon - n)
            if bound < _STOP_BELOW:
                unresolved = bound
                break
        if N - n == 1:              # one vertex left: every patch is on it
            pmf[n + 1], alive = alive.sum(), np.zeros(1)
            break
        p = 1.0 / (N - n)
        trials = np.arange(len(alive) - 1)           # k - 1 for k = 1, 2, ...
        weights = (1.0 - p) ** trials
        thinned = np.zeros(len(trials))
        for s in range(len(trials)):
            thinned[:len(trials) - s] += (alive[1:] * weights)[s:]
            if s > p * len(trials) and weights.max() < _EPS:
                break
            weights = weights * (trials - s) / (s + 1) * (p / (1.0 - p))
        mu = (N - n - 1) * exact_edge_rate(N, n, 2, coeffs)
        alive = np.convolve(thinned, poisson_pmf_array(mu))
        n += 1
        pmf[n], alive[0] = alive[0], 0.0
        alive = _trim_upper_tail(alive)
    lost = abs(1.0 - pmf.sum() - alive.sum())
    return AbsorptionLaw(pmf, lost, unresolved)


def binomial_central_interval(trials: int, prob: float, alpha: float) -> tuple[int, int]:
    """Narrowest [lo, hi] with P(X < lo) <= alpha/2 and P(X > hi) <= alpha/2
    for X ~ Binomial(trials, prob), from the raw pmf."""
    pmf = np.array([math.comb(trials, x) * prob ** x * (1.0 - prob) ** (trials - x)
                    for x in range(trials + 1)])
    lo = int(np.sum(np.cumsum(pmf) <= alpha / 2))
    hi = trials - int(np.sum(np.cumsum(pmf[::-1]) <= alpha / 2))
    return lo, hi


def random_hypergraph(rng: np.random.Generator, max_vertices=10, max_edges=12) -> Hypergraph:
    """Small random instance with mixed edge sizes and multiplicities."""
    n = int(rng.integers(2, max_vertices + 1))
    h = Hypergraph(n)
    for _ in range(int(rng.integers(0, max_edges + 1))):
        size = int(rng.integers(0, min(4, n) + 1))
        edge = tuple(int(v) for v in rng.choice(n, size=size, replace=False))
        h.add_edge(edge, multiplicity=int(rng.integers(1, 3)))
    return h


def plain(state):
    """A bit generator state with its arrays as lists, comparable with ==."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


class OverriddenGenerator(np.random.Generator):
    """A Generator whose draw methods fail when called, to show that a loop
    draws as the base class does."""

    def integers(self, *args, **kwargs):
        raise AssertionError("an overridden draw method was called")

    binomial = poisson = integers


def per_edge_poisson_sample(n_vertices: int, coeffs, rng: np.random.Generator) -> Counter:
    """Poisson(beta) edge multiset, one edge and one vertex draw at a time.

    For each size j in order, Poisson(N*bj) edges, each of scalar
    `rng.integers(N)` draws until it holds j distinct ids: the stream
    `sample_poisson` must consume.  Returns a Counter of sorted tuples.
    """
    edges: Counter = Counter()
    for size, coeff in enumerate(coeffs):
        for _ in range(int(rng.poisson(n_vertices * coeff))):
            picked: set[int] = set()
            while len(picked) < size:
                picked.add(int(rng.integers(n_vertices)))
            edges[tuple(sorted(picked))] += 1
    return edges


def per_line_read(path: str) -> tuple[int, Counter]:
    """The hypergraph file format read one line at a time: (N, Counter of
    sorted edge tuples).

    The first line is a JSON object with a whole "N" in [1, 2**63 - 1]
    (N and its ids fit in int64); every other line is blank (`str.isspace`) or
    a JSON array of distinct integer ids in [0, N).  Text mode ends lines at
    LF, CRLF and CR.  Anything else raises ValueError beginning
    "{path}, line {k}: " for the first bad line k.
    """
    lineno = 1
    with open(path, encoding="utf-8") as fh:
        try:
            header = json.loads(fh.readline())
            n = header["N"] if isinstance(header, dict) and "N" in header else None
            if (type(n) not in (int, float) or not math.isfinite(n) or n % 1
                    or not 1 <= n <= 2**63 - 1):
                raise ValueError(f"bad header {header!r}")
            n = int(n)
            edges: Counter = Counter()
            for lineno, line in enumerate(fh, 2):
                if line.isspace():
                    continue
                edge = json.loads(line)
                if type(edge) is not list or any(type(v) is not int for v in edge):
                    raise ValueError(f"not an array of integers: {line!r}")
                if len(set(edge)) < len(edge) or any(not 0 <= v < n for v in edge):
                    raise ValueError(f"repeated or out-of-range id: {line!r}")
                edges[tuple(sorted(edge))] += 1
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
    return n, edges


def tv_distance(counts_a: Counter, total_a: int, counts_b: Counter, total_b: int) -> float:
    keys = set(counts_a) | set(counts_b)
    return 0.5 * sum(abs(counts_a[k] / total_a - counts_b[k] / total_b) for k in keys)


def central_difference(fn, t: float, h: float = 1e-5):
    """Componentwise central difference of a vector-valued function of t."""
    return (np.asarray(fn(t + h)) - np.asarray(fn(t - h))) / (2.0 * h)


def piecewise_quad(fn, a: float, b: float, pieces: int = 10) -> float:
    """Adaptive quadrature on `pieces` subintervals summed, for near
    machine-precision totals on smooth but steep integrands."""
    edges = np.linspace(a, b, pieces + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = quad(fn, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
        total += val
    return total


def euler_fluctuation(coeffs, t_end: float, n_steps: int, rng: np.random.Generator,
                      n_paths: int) -> np.ndarray:
    """Euler integration of the linear fluctuation equation; the (n_paths, 3)
    values at t_end.

    dg = J(x_t) g dt + v1 dW1 + v2 dW2 along the path
    x_t = (t, (1-t) f(t), b(t) - (1-t) log(1-t)) with f = b' + log(1-t),
    from g0 = (0, Normal(0, b1), Normal(0, b0)).  J is the Jacobian of the
    mean jump (1, -1 - x2/(1-x1) + (1-x1) b''(x1), 1 + x2/(1-x1)); v1 is the
    shared-patch noise (0, s, -s) with s^2 = x2/(1-x1) and v2 the 2-edge
    conversion noise (0, c, 0) with c^2 = (1-x1) b''(x1).  Everything comes
    from the raw coefficients.
    """
    b = np.polynomial.Polynomial(coeffs)
    db, d2b, d3b = b.deriv(1), b.deriv(2), b.deriv(3)
    dt = t_end / n_steps
    g = np.zeros((n_paths, 3))
    g[:, 1] = rng.normal(0.0, math.sqrt(db(0.0)), n_paths)
    g[:, 2] = rng.normal(0.0, math.sqrt(b(0.0)), n_paths)
    for k in range(n_steps):
        t = k * dt
        rem = 1.0 - t
        x2 = rem * (db(t) + math.log1p(-t))
        jac = np.array([
            [0.0, 0.0, 0.0],
            [-x2 / rem ** 2 - d2b(t) + rem * d3b(t), -1.0 / rem, 0.0],
            [x2 / rem ** 2, 1.0 / rem, 0.0],
        ])
        # tangency grazing can put x2 at -1e-18; the noise scale is zero there
        shared = rng.standard_normal(n_paths) * math.sqrt(max(x2, 0.0) / rem * dt)
        conversion = rng.standard_normal(n_paths) * math.sqrt(rem * d2b(t) * dt)
        g = g + dt * (g @ jac.T)
        g[:, 1] += shared + conversion
        g[:, 2] -= shared
    return g


def canonical_instances(n: int, edges) -> list[tuple[int, ...]]:
    """The edge instances of `edges` by the tuple definition: each edge the
    sorted tuple of its ids, which must be distinct integers in range(n),
    counted with multiplicity in a Counter and ordered by (len, tuple)."""
    counts: Counter = Counter()
    for edge in edges:
        ids = [int(v) for v in edge]
        if len(set(ids)) < len(ids) or not all(0 <= v < n for v in ids):
            raise ValueError(f"not an edge on {n} vertices: {edge!r}")
        counts[tuple(sorted(ids))] += 1
    return sorted(counts.elements(), key=lambda e: (len(e), e))


def edges_inside(h: Hypergraph, vertex_set: set[int]) -> int:
    """Number of non-empty edge instances entirely inside vertex_set."""
    return sum(m for e, m in h.edge_counts().items()
               if e and set(e).issubset(vertex_set))


def peeling_fixpoint(h: Hypergraph) -> set[int]:
    """Deterministic peeling fixpoint.

    Seed with every vertex under a patch; a vertex joins when some edge
    contains it with all other members already in the set.  Equals the set
    removed by any full collapse (multiplicities are irrelevant here).  A
    queue over a dict incidence, not the package's patch loop, which both
    `collapse_all` and `identifiable_set` run.
    """
    edges = [e for e in h.edge_counts() if e]
    remaining = [len(e) for e in edges]
    incidence: dict[int, list[int]] = {}
    for eid, edge in enumerate(edges):
        for v in edge:
            incidence.setdefault(v, []).append(eid)

    identified: set[int] = set()
    queue = [e[0] for e in edges if len(e) == 1]
    while queue:
        v = queue.pop()
        if v in identified:
            continue
        identified.add(v)
        for eid in incidence.get(v, ()):
            remaining[eid] -= 1
            if remaining[eid] == 1:
                for u in edges[eid]:
                    if u not in identified:
                        queue.append(u)
                        break
    return identified


_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64 finalizer on Python ints."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix_chain(master_seed: int, key, salt: int) -> int:
    state = _mix64((master_seed ^ salt) & _MASK64)
    for k in key:
        state = _mix64(state ^ _mix64((k + salt) & _MASK64))
    return state


def derive_seed_reference(master_seed: int, *key: int) -> int:
    """The 128-bit stream seed of (master_seed, *key), one integer at a time:
    two SplitMix64 chains with different salts give the low and high words."""
    lo = _mix_chain(master_seed, key, 0x243F6A8885A308D3)
    hi = _mix_chain(master_seed, key, 0x13198A2E03707344)
    return (hi << 64) | lo
