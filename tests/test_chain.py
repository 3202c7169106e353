import math
from collections import Counter

import numpy as np
import pytest

from hypercollapse import (BetaSeries, collapse_all, edge_rate_curve,
                           from_binomial_family, from_graph_params, run,
                           sample_poisson)
from helpers import (absorption_law, exact_edge_rate, first_negative_root,
                     tv_distance)


EX1 = from_graph_params(0.1, 0.5)
EX2_SUB = from_binomial_family(1185.0)
SMALL = BetaSeries((0.2, 0.3, 0.4))


class TestEdgeRate:
    def test_single_term_at_start(self):
        series = BetaSeries((0.0, 0.0, 0.25))
        assert edge_rate_curve(100, 2, series)[0] == 100 * 0.25 / math.comb(100, 2)

    def test_no_coefficients_above_size(self):
        series = BetaSeries((0.0, 1.0, 0.0))
        assert not edge_rate_curve(100, 2, series).any()

    def test_matches_exact_combinatorics(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n_vertices = int(rng.integers(5, 41))
            removed = int(rng.integers(0, n_vertices))
            size = int(rng.integers(0, 5))
            degree = int(rng.integers(0, min(6, n_vertices) + 1))
            coeffs = tuple(float(c) for c in rng.random(degree + 1))
            got = edge_rate_curve(n_vertices, size, BetaSeries(coeffs))[removed]
            want = exact_edge_rate(n_vertices, removed, size, coeffs)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            edge_rate_curve(0, 2, SMALL)
        with pytest.raises(ValueError):
            edge_rate_curve(10, -1, SMALL)
        with pytest.raises(ValueError):
            edge_rate_curve(10, 11, SMALL)

    def test_rate_approximation_improves_with_scale(self):
        # N * rate at size 2 approaches b''(n/N); the sup error over the
        # first 90% of removals shrinks roughly like (log N)^2 / N
        sups = []
        for n_vertices in (1000, 10_000):
            curve = edge_rate_curve(n_vertices, 2, EX2_SUB)
            ns = np.arange(int(0.9 * n_vertices) + 1)
            from hypercollapse import evaluate_grid
            target = evaluate_grid(EX2_SUB, ns / n_vertices, 2)
            sups.append(np.max(np.abs(n_vertices * curve[ns] - target)))
        assert sups[1] < sups[0] / 3.0


def transitions(n_vertices: int, series: BetaSeries, seed: int, runs: int):
    """Consecutive trajectory rows (before, after) of seeded `run` calls."""
    rng = np.random.default_rng(seed)
    table = edge_rate_curve(n_vertices, 2, series)
    for _ in range(runs):
        traj = run(n_vertices, series, rng, record_trajectory=True,
                   rate_table=table).trajectory
        yield from zip(traj[:-1].tolist(), traj[1:].tolist())


class TestStep:
    """One removal of `run`, read off consecutive rows of its trajectory."""

    def test_single_patch_forces_debris_increment(self):
        seen = 0
        for (_, patches, debris), (_, _, debris_next) in transitions(12, SMALL, 1, 300):
            if patches == 1:
                assert debris_next == debris + 1
                seen += 1
        assert seen > 0

    def test_bookkeeping_identities(self):
        # debris grows by 1 + shared, and patches + debris grows by exactly
        # the number of new 2-edge conversions
        rng = np.random.default_rng(2)
        for _ in range(30):
            n_vertices = int(rng.integers(5, 60))
            seed = int(rng.integers(1 << 32))
            for before, after in transitions(n_vertices, SMALL, seed, 10):
                removed, patches, debris = before
                assert patches >= 1
                assert after[0] == removed + 1
                shared = after[2] - debris - 1
                assert 0 <= shared <= patches - 1
                assert (after[1] + after[2]) - (patches + debris) >= 0

    def test_mean_increment_matches_formula(self):
        # the patch increments minus their conditional means form a
        # martingale; its sum over every step stays within 4 sigma of zero
        n_vertices = 50
        rates = [exact_edge_rate(n_vertices, n, 2, SMALL.coeffs)
                 for n in range(n_vertices)]
        total = variance = 0.0
        steps = transitions(n_vertices, SMALL, 4, 4000)
        for (removed, patches, _), (_, patches_next, _) in steps:
            left = n_vertices - removed
            p = 1.0 / left
            total += (patches_next - patches) - (-1.0 - (patches - 1) * p
                                                 + (left - 1) * rates[removed])
            variance += (patches - 1) * p * (1 - p) + (left - 1) * rates[removed]
        assert variance > 1e4
        assert abs(total) <= 4.0 * math.sqrt(variance)

    def test_last_vertex_absorbs(self):
        # with one vertex left every other patch shares it and no 2-edges remain
        n_vertices = 10
        series = BetaSeries((0.0, 2.0, 3.0))
        last = [(before, after)
                for before, after in transitions(n_vertices, series, 5, 50)
                if after[0] == n_vertices]
        assert last
        for (_, patches, debris), (_, patches_next, debris_next) in last:
            assert patches_next == 0
            assert debris_next == debris + patches


class TestRun:
    def test_zero_series_absorbs_immediately(self):
        for seed in range(5):
            result = run(50, BetaSeries((0.0, 0.0)), np.random.default_rng(seed))
            assert (result.removed, result.debris) == (0, 0)

    def test_absorption_bounded_by_vertex_count(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            result = run(30, SMALL, rng, record_trajectory=True)
            assert result.removed <= 30
            assert result.trajectory[-1][1] == 0
            assert result.trajectory.shape == (result.removed + 1, 3)

    def test_matches_manual_step_loop(self):
        # draw by draw against a plain loop of the chain step
        for n_vertices, series in ((40, SMALL), (200, EX1), (60, EX2_SUB)):
            rates = edge_rate_curve(n_vertices, 2, series)
            for seed in range(5):
                recorded = run(n_vertices, series, np.random.default_rng(seed),
                               record_trajectory=True)
                rng = np.random.default_rng(seed)
                n = 0
                y = int(rng.poisson(n_vertices * series.coeffs[1]))
                z = int(rng.poisson(n_vertices * series.coeffs[0]))
                manual = [[n, y, z]]
                while y > 0 and n < n_vertices:
                    shared = int(rng.binomial(y - 1, 1.0 / (n_vertices - n)))
                    y += int(rng.poisson((n_vertices - n - 1) * rates[n])) - 1 - shared
                    z += 1 + shared
                    n += 1
                    manual.append([n, y, z])
                assert recorded.trajectory.tolist() == manual
                assert (recorded.removed, recorded.debris) == (n, z)

    def test_rate_table_argument_changes_nothing(self):
        table = edge_rate_curve(60, 2, EX1)
        a = run(60, EX1, np.random.default_rng(9), rate_table=table)
        b = run(60, EX1, np.random.default_rng(9))
        assert (a.removed, a.debris) == (b.removed, b.debris)

    def test_law_matches_full_engine(self):
        # joint (removed, debris) law vs the hypergraph engine at N=6;
        # the acceptance suite runs the full 10^5-sample version
        draws = 20_000
        n_vertices = 6
        chain_counts = Counter()
        rng = np.random.default_rng(77)
        for _ in range(draws):
            result = run(n_vertices, SMALL, rng)
            chain_counts[(result.removed, result.debris)] += 1
        engine_counts = Counter()
        rng = np.random.default_rng(78)
        for _ in range(draws):
            h = sample_poisson(n_vertices, SMALL, rng)
            out = collapse_all(h, rng)
            engine_counts[(len(out.identified), out.stable.stats().debris)] += 1
        assert tv_distance(chain_counts, draws, engine_counts, draws) < 0.08

    def test_law_matches_exact_propagation(self):
        # whole law of the absorption count against the forward-propagation
        # oracle that acceptance criteria 02 and 10b take as their reference
        n_vertices = 6
        law = absorption_law(n_vertices, SMALL.coeffs)
        assert law.lost < 1e-9 and law.unresolved == 0.0
        exact = Counter(dict(enumerate(law.pmf)))
        draws = 20_000
        rng = np.random.default_rng(79)
        sampled = Counter(run(n_vertices, SMALL, rng).removed for _ in range(draws))
        assert tv_distance(sampled, draws, exact, 1.0) < 0.02

    def test_mean_absorption_near_threshold(self):
        # moderate-size check of the law of large numbers for the
        # graph-parameter model, against the independent root oracle
        z_oracle = first_negative_root(
            lambda ts: -np.log(0.9) + 0.5 * ts + np.log(1.0 - ts))
        n_vertices = 20_000
        table = edge_rate_curve(n_vertices, 2, EX1)
        fractions = []
        for seed in range(10):
            result = run(n_vertices, EX1, np.random.default_rng(seed),
                         rate_table=table)
            fractions.append(result.removed / n_vertices)
        assert abs(np.mean(fractions) - z_oracle) < 0.01
