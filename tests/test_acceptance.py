"""Acceptance battery: every verification target at its stated tolerance.

Each test prints one `ACCEPTANCE <id> PASS/FAIL` line with the measured
numbers (visible with `pytest -s`, or in the failure output) and then
asserts.

Two targets (02 and 10b) probe near-critical simulations at N=1e5, where
the finite-size law differs from the N -> infinity limit by more than any
Monte Carlo tolerance.  They compare the simulation with the exact law of
the reduced chain at that same N, computed at test time by the
forward-propagation oracle in helpers.  Their docstrings carry the numbers.
"""

import math
from collections import Counter

import numpy as np
import pytest

from hypercollapse import (BetaSeries, ExperimentConfig, collapse_all,
                           concentration_curve, critical_alpha,
                           critical_structure, deficiency, diffusion_factors,
                           drift, edge_rate_curve, evaluate, evaluate_grid,
                           from_binomial_family, from_graph_params,
                           identifiable_set, patch_overlap_average, path,
                           remove_vertex, run, run_replicas,
                           sample_limit_fraction, sample_poisson, sigma_sq,
                           stream)
from hypercollapse.series import CriticalStructure
from helpers import (absorption_law, binomial_central_interval,
                     central_difference, edges_inside, first_negative_root,
                     jump_moment_matrix, peeling_fixpoint, piecewise_quad,
                     random_hypergraph, tv_distance)

EX1 = from_graph_params(0.1, 0.5)
EX2_SUB = from_binomial_family(1185.0)
EX2_SUPER = from_binomial_family(1200.0)
WORKERS = 2
ORACLE_ERROR = 1e-9     # bound on lost + unresolved mass of the exact law
ALPHA = 1e-3            # two-sided level of the binomial count checks


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion:>3} {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def exact_law(n_vertices: int, coeffs, horizon_frac: float):
    """v/N and the oracle's exact pmf of it on [0, horizon_frac], and the
    oracle's error bound."""
    law = absorption_law(n_vertices, coeffs, int(horizon_frac * n_vertices))
    return (np.arange(len(law.pmf)) / n_vertices, law.pmf,
            law.lost + law.unresolved)


@pytest.fixture(scope="module")
def ex1_oracle_z():
    # independent scan-plus-bisection root of alpha*t + log(1-t) = log(1-p)
    return first_negative_root(
        lambda ts: -np.log(0.9) + 0.5 * ts + np.log(1.0 - ts))


@pytest.fixture(scope="module")
def ex2_oracle_z():
    return first_negative_root(
        lambda ts: 6.3 * 1185.0 * (0.1 + 0.9 * ts) ** 6 + np.log(1.0 - ts))


@pytest.fixture(scope="module")
def tangent():
    alpha_c, zeta0 = critical_alpha(from_binomial_family, 1185.0, 1200.0)
    series = from_binomial_family(alpha_c)
    return alpha_c, zeta0, series, critical_structure(series)


@pytest.fixture(scope="module")
def small_instances():
    rng = np.random.default_rng(12321)
    return [random_hypergraph(rng, max_vertices=10, max_edges=12)
            for _ in range(100)]


def test_01_graph_model_limit_fractions(ex1_oracle_z):
    """Mean identified and debris fractions at N=1e5 against the analytic
    limits, 50 replicas, tolerance 0.01, limits from independent oracles."""
    z = ex1_oracle_z
    b1 = -math.log(0.9)
    edge_limit = (b1 * z + 0.25 * z * z) - (1.0 - z) * math.log(1.0 - z)
    cfg = ExperimentConfig(EX1, (100_000,), 50, master_seed=20260810,
                           workers=WORKERS)
    agg = run_replicas(cfg).aggregates[0]
    gap_v = abs(agg.mean_v - z)
    gap_e = abs(agg.mean_debris - edge_limit)
    report("1", gap_v < 0.01 and gap_e < 0.01,
           f"mean_v={agg.mean_v:.5f} vs z*={z:.5f} (gap {gap_v:.2e}); "
           f"mean_debris={agg.mean_debris:.5f} vs {edge_limit:.5f} (gap {gap_e:.2e})")


def test_02_steep_family_subcritical(ex2_oracle_z):
    """Threshold of the steep polynomial family at its subcritical parameter.

    The analytic part (z* near 0.02) is checked against an independent root.
    The limit says v/N -> z*, but the deficiency dip is shallow: its minimum
    is -1.862e-4 (at t = 0.0228), so at N=1e5 the absorbing barrier is
    sqrt(N)*|min f| = 0.39 patch standard deviations deep and a replica
    escapes the dip and collapses to ~1 with a large probability.  The
    exact escape probability P(v/N > 0.5) of the reduced chain, from the
    helpers oracle, is 0.2774 at N=1e4, 0.2422 at N=1e5, 0.1761 at N=3e5 and
    0.0751 at N=1e6, so the mean of v/N over all replicas at N=1e5 sits
    about 0.24 from z*.  The simulation part therefore checks the
    finite-N law instead of the limit of the mean: replicas absorbed in the
    dip (v/N <= 0.5) have a mean within 0.01 of z* (exactly 0.01853 against
    z* = 0.01954), the number of escapes among 50 replicas lies in the
    central 1 - 1e-3 binomial interval around the exact probability, and
    that probability falls from N=1e4 to N=1e5.
    """
    crit = critical_structure(EX2_SUB)
    analytic_ok = 0.015 <= crit.z_star <= 0.025 and abs(crit.z_star - ex2_oracle_z) < 1e-9
    cfg = ExperimentConfig(EX2_SUB, (100_000,), 50, master_seed=4711,
                           workers=WORKERS)
    result = run_replicas(cfg)
    vs = np.array([r.v_star_frac for r in result.records])
    gap = abs(vs[vs <= 0.5].mean() - crit.z_star)
    escaped = int(np.sum(vs > 0.5))
    exact, error = {}, 0.0
    for n_vertices in (10_000, 100_000):
        fracs, pmf, err = exact_law(n_vertices, EX2_SUB.coeffs, 0.5)
        exact[n_vertices] = 1.0 - pmf[fracs <= 0.5].sum()
        error = max(error, err)
    lo, hi = binomial_central_interval(len(vs), exact[100_000], ALPHA)
    ok = (analytic_ok and gap < 0.01 and lo <= escaped <= hi
          and exact[100_000] < exact[10_000] and error < ORACLE_ERROR)
    report("2", ok,
           f"z*={crit.z_star:.5f} (analytic in [0.015, 0.025]: {analytic_ok}); "
           f"sim dip mean_v gap={gap:.4f}; escapes {escaped}/{len(vs)} vs exact "
           f"P={exact[100_000]:.4f} (interval [{lo}, {hi}]; N=1e4: "
           f"{exact[10_000]:.4f}; oracle error {error:.1e})")


def test_03_supercritical_overlap_average():
    """Average patch overlap over the last tenth of a supercritical collapse:
    10 * integral of the deficiency over [0.9, 1], within 1% of 5792."""
    value = patch_overlap_average(EX2_SUPER)
    rel = abs(value - 5792.0) / 5792.0
    report("3", rel < 0.01, f"avg_patch_overlap={value:.1f} vs 5792 (rel {rel:.2e})")


def test_04_chain_equals_engine_in_law():
    """Total-variation distance between the joint (identified, debris) laws
    of the reduced chain and the full engine, N=6, 1e5 samples each, < 0.05."""
    series = BetaSeries((0.2, 0.3, 0.4))
    draws = 100_000
    n_vertices = 6
    chain_counts = Counter()
    rng = stream(1001)
    table = edge_rate_curve(n_vertices, 2, series)
    for _ in range(draws):
        res = run(n_vertices, series, rng, rate_table=table)
        chain_counts[(res.removed, res.debris)] += 1
    engine_counts = Counter()
    rng = stream(1002)
    for _ in range(draws):
        h = sample_poisson(n_vertices, series, rng)
        out = collapse_all(h, rng)
        engine_counts[(len(out.identified), out.stable.stats().debris)] += 1
    tv = tv_distance(chain_counts, draws, engine_counts, draws)
    report("4", tv < 0.05, f"TV distance = {tv:.4f} over {draws} samples each")


def test_05_order_independence(small_instances):
    """Identified set and stable hypergraph identical across 5 seeds on 100
    random instances, and equal to the peeling fixpoint of the helpers
    oracle, as `identifiable_set` is; exact."""
    checked = 0
    for h in small_instances:
        peeled = peeling_fixpoint(h)
        if identifiable_set(h) != peeled:
            report("5", False, f"identifiable_set differs from the peeling on {h!r}")
        outs = [collapse_all(h, np.random.default_rng(seed)) for seed in range(5)]
        for out in outs:
            ok = (set(out.identified) == peeled
                  and out.stable == outs[0].stable
                  and out.identifiable_edge_count == outs[0].identifiable_edge_count)
            if not ok:
                report("5", False, f"divergence on {h!r}")
        checked += 1
    report("5", checked == 100, f"{checked} instances x 5 seeds, all identical")


def test_06_conservation_and_debris_identity(small_instances):
    """Edge count conserved by every removal; debris created equals the number
    of edges inside the identified set; exact."""
    for h in small_instances:
        out = collapse_all(h, np.random.default_rng(9))
        total = h.stats().total
        g = h
        for v in out.identified:
            g = remove_vertex(g, v)
            if g.stats().total != total:
                report("6", False, f"conservation broken on {h!r}")
        inside = edges_inside(h, set(out.identified))
        if out.identifiable_edge_count != inside:
            report("6", False, f"debris identity broken on {h!r}")
        if out.stable.stats().debris != h.stats().debris + inside:
            report("6", False, f"final debris mismatch on {h!r}")
    report("6", True, f"{len(small_instances)} instances, conservation and "
                      f"debris identity exact")


def test_07_path_velocity_equals_drift():
    """Central finite difference of the closed-form path vs the drift field,
    1e3 grid points per model, sup residual < 1e-6."""
    worst = 0.0
    for series in (EX1, EX2_SUB):
        z = critical_structure(series).z_star
        hi = min(0.9, z) - 1e-4
        for t in np.linspace(1e-4, hi, 1000):
            fd = central_difference(lambda u: path(u, series), float(t))
            res = np.abs(fd - drift(path(float(t), series), series)).max()
            worst = max(worst, float(res))
    report("7", worst < 1e-6, f"sup |d path/dt - drift| = {worst:.2e}")


def test_08_diffusion_factorization():
    """Outer-product sum of the factor columns vs brute-force jump moments at
    100 random states, elementwise < 1e-8."""
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        x = np.array([0.9 * rng.random(), 2.0 * rng.random(), 2.0 * rng.random()])
        v1, v2, v3 = diffusion_factors(x, EX1)
        got = np.outer(v1, v1) + np.outer(v2, v2) + np.outer(v3, v3)
        want = jump_moment_matrix(x[1] / (1.0 - x[0]),
                                  (1.0 - x[0]) * evaluate(EX1, float(x[0]), 2))
        worst = max(worst, float(np.max(np.abs(got - want))))
    report("8", worst < 1e-8, f"sup elementwise gap = {worst:.2e} over 100 states")


def test_09_fluctuation_clock(tangent):
    """sigma_sq starts at b1 exactly, matches the quadrature of its running
    integral within 1e-8, and equals z/(1-z) at the tangency point."""
    exact_start = (sigma_sq(0.0, EX1) == EX1.coeffs[1]
                   and sigma_sq(0.0, EX2_SUB) == EX2_SUB.coeffs[1])

    def integrand(s):
        return ((deficiency(EX2_SUB, s) + (1 - s) * evaluate(EX2_SUB, s, 2))
                / (1 - s) ** 2)

    quad_gap = max(abs(sigma_sq(t, EX2_SUB)
                       - (EX2_SUB.coeffs[1] + piecewise_quad(integrand, 0.0, t)))
                   for t in (0.1, 0.3, 0.5, 0.7, 0.9))

    _, _, series, crit = tangent
    z = crit.zeta[0]
    tangency_gap = abs(sigma_sq(z, series) - z / (1.0 - z))
    report("9", exact_start and quad_gap < 1e-8 and tangency_gap <= crit.tangency_tolerance,
           f"start exact: {exact_start}; quadrature gap {quad_gap:.2e}; "
           f"clock at tangency gap {tangency_gap:.2e}")


def test_10a_single_tangency_half_half():
    """Limiting-fraction sampler at a single tangency: empirical mass within
    0.02 of 1/2 over 1e4 draws."""
    crit = CriticalStructure(z_star=0.9, zeta=(0.25,), tangency_tolerance=1e-9)
    rng = stream(31415)
    draws = 10_000
    hits = sum(sample_limit_fraction(crit, rng).hit_tangency for _ in range(draws))
    frac = hits / draws
    report("10a", abs(frac - 0.5) <= 0.02, f"P(stop at tangency) = {frac:.4f}")


def test_10b_half_half_at_tangent_parameter(tangent):
    """Early-absorption fraction at the tangent family parameter, N=1e5,
    400 replicas.

    In the limit the chain stops at the tangency with probability 1/2
    (criterion 10a).  At finite N the chain dwells for ~2000 steps with mean
    patch count within one standard deviation of the absorbing boundary,
    which biases absorption upward.  The exact early-absorption probability
    P(v/N < 0.511) of the reduced chain at alpha_c, from the helpers oracle,
    is 0.6787 at N=1e4, 0.6202 at N=1e5, 0.5997 at N=3e5 and 0.5813 at
    N=1e6; 1600 replicas at N=1e5 gave 0.622 +- 0.012.  The check is that
    the number of early absorptions among 400 replicas lies in the central
    1 - 1e-3 binomial interval around the exact value at N=1e5, and that
    the exact value approaches 1/2 from N=1e4 to N=1e5.
    """
    alpha_c, zeta0, series, crit = tangent
    threshold = 0.5 * (zeta0 + crit.z_star)
    cfg = ExperimentConfig(series, (100_000,), 400, master_seed=1,
                           workers=WORKERS)
    result = run_replicas(cfg)
    early = sum(r.v_star_frac < threshold for r in result.records)
    exact, error = {}, 0.0
    for n_vertices in (10_000, 100_000):
        fracs, pmf, err = exact_law(n_vertices, series.coeffs, threshold)
        exact[n_vertices] = pmf[fracs < threshold].sum()
        error = max(error, err)
    lo, hi = binomial_central_interval(len(result.records), exact[100_000], ALPHA)
    ok = (lo <= early <= hi and error < ORACLE_ERROR
          and abs(exact[100_000] - 0.5) < abs(exact[10_000] - 0.5))
    report("10b", ok,
           f"alpha_c={alpha_c:.4f} zeta0={zeta0:.5f}; early absorptions "
           f"{early}/{len(result.records)} = {early / len(result.records):.3f} vs exact "
           f"P={exact[100_000]:.4f} (interval [{lo}, {hi}]; N=1e4: "
           f"{exact[10_000]:.4f}; oracle error {error:.1e})")


def test_11_concentration_decay():
    """Fraction of replicas deviating more than 0.05 from the fluid path,
    N in (2000, 4000, 8000), 400 replicas each: nonincreasing in N."""
    cfg = ExperimentConfig(EX1, (2000, 4000, 8000), 400, master_seed=97,
                           workers=WORKERS)
    curve = concentration_curve(cfg, delta=0.05)
    freqs = [freq for _, freq in curve]
    ok = all(a >= b for a, b in zip(freqs, freqs[1:]))
    report("11", ok, f"deviation frequencies {freqs} at N={[n for n, _ in curve]}")


def test_12_rate_approximation_decay():
    """sup_{n <= 0.9 N} |N * rate2(N, n) - b''(n/N)| shrinks at least 5x from
    N=1e3 to N=1e5 for the steep family."""
    sups = {}
    for n_vertices in (1000, 100_000):
        curve = edge_rate_curve(n_vertices, 2, EX2_SUB)
        ns = np.arange(int(0.9 * n_vertices) + 1)
        target = evaluate_grid(EX2_SUB, ns / n_vertices, 2)
        sups[n_vertices] = float(np.max(np.abs(n_vertices * curve[ns] - target)))
    ratio = sups[1000] / sups[100_000]
    report("12", ratio >= 5.0,
           f"sup error {sups[1000]:.3e} (N=1e3) -> {sups[100_000]:.3e} (N=1e5), "
           f"ratio {ratio:.1f}x")
