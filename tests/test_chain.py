import math
import os
import shutil
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from hypercollapse import (BetaSeries, ExperimentConfig, chain, chain_kernel,
                           collapse_all, critical_alpha, edge_rate_curve,
                           from_binomial_family, from_graph_params, hypergraph,
                           identifiable_set, run, run_replicas, sample_poisson)
from helpers import (OverriddenGenerator, absorption_law, exact_edge_rate,
                     first_negative_root, plain, tv_distance)


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

    @pytest.mark.parametrize("n_vertices, size, name", [
        (100.7, 2, "n_vertices"), ("50", 2, "n_vertices"), (True, 2, "n_vertices"),
        (100, 2.5, "size"), (100, True, "size")])
    def test_counts_must_be_whole(self, n_vertices, size, name):
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            edge_rate_curve(n_vertices, size, SMALL)

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

    def test_one_vertex(self):
        # one vertex has no 2-subsets: every patch sits on it, and one
        # removal turns them all into debris
        absorbed = 0
        for series in (EX1, SMALL, BetaSeries((0.5, 2.0, 1.0))):
            for seed in range(4):
                (got, got_state), (want, want_state) = both_paths(
                    1, series, lambda: np.random.default_rng(seed))
                _, patches, debris = want.trajectory[0]
                assert want.removed == (patches > 0)
                assert want.debris == debris + patches
                assert (got.removed, got.debris) == (want.removed, want.debris)
                assert np.array_equal(got.trajectory, want.trajectory)
                assert got_state == want_state
                absorbed += want.removed
        assert absorbed > 0

    def test_a_short_trajectory_owns_its_rows(self):
        # about one initial patch and no 2-edges on 1e5 vertices: the run
        # absorbs within a few steps, and its trajectory holds those rows only
        for result, _ in both_paths(100_000, BetaSeries((0.0, 1e-5)),
                                      lambda: np.random.default_rng(4)):
            assert 0 < result.removed < 10
            assert result.trajectory.base is None
            assert result.trajectory.shape == (result.removed + 1, 3)

    @pytest.mark.parametrize("n_vertices", [100.7, "50", True, math.nan])
    def test_vertex_count_must_be_whole(self, n_vertices):
        with pytest.raises(ValueError, match="n_vertices must be a whole number"):
            run(n_vertices, EX1, np.random.default_rng(0))

    def test_needs_a_vertex(self):
        with pytest.raises(ValueError, match="^need at least one vertex$"):
            run(0, EX1, np.random.default_rng(0))

    @pytest.mark.parametrize("rng", [None, np.random.RandomState(0)])
    def test_refuses_an_rng_that_is_not_a_generator(self, rng):
        with pytest.raises(TypeError, match="must be a numpy.random.Generator"):
            run(50, EX1, rng)

    def test_a_generator_subclass_draws_as_its_base_class(self):
        # on both loops: the subclass's own poisson and binomial are not called
        for load in (chain_kernel.load, lambda: None):
            got_rng = OverriddenGenerator(np.random.PCG64(8))
            want_rng = np.random.Generator(np.random.PCG64(8))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(chain_kernel, "load", load)
                got, want = (run(200, EX1, rng, record_trajectory=True)
                             for rng in (got_rng, want_rng))
            assert want.removed > 0
            assert np.array_equal(got.trajectory, want.trajectory)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

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


def family_at_critical():
    return from_binomial_family(critical_alpha(from_binomial_family, 1185.0, 1200.0)[0])


@pytest.fixture
def kernel():
    loaded = chain_kernel.load()
    if loaded is None:
        pytest.skip("the compiled chain kernel is unavailable here")
    return loaded


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """Call to point the kernel cache at an empty directory and forget the
    loaded kernel; the real one is loaded again after the test."""
    def reset():
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        chain_kernel.load.cache_clear()
        return tmp_path / "hypercollapse"

    yield reset
    chain_kernel.load.cache_clear()


def seed_words(seeds):
    """The (2, m) uint64 array of the seeds' low and high words that a
    seeded batch takes."""
    return np.array([[s & (2**64 - 1) for s in seeds], [s >> 64 for s in seeds]],
                    dtype=np.uint64)


def both_paths(n_vertices, series, make_rng, rate_table=None):
    """`run` with the compiled kernel, then with the Python loop; each result
    comes with the bit generator state it left (or the error it raised)."""
    outcomes = []
    for load in (chain_kernel.load, lambda: None):
        rng = make_rng()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chain_kernel, "load", load)
            try:
                result = run(n_vertices, series, rng, record_trajectory=True,
                             rate_table=rate_table)
            except (ValueError, OverflowError) as exc:
                result = exc
        outcomes.append((result, plain(rng.bit_generator.state)))
    return outcomes


class TestKernel:
    """The compiled step loop against the Python reference, draw for draw."""

    def test_matches_reference_draw_for_draw(self, kernel):
        models = [EX1, from_graph_params(0.1, 0.2), EX2_SUB, family_at_critical(),
                  BetaSeries((0.0, 0.01, 3.0)), BetaSeries((0.0, 2.0, 3.0))]
        empty_start = full_absorption = 0
        for series in models:
            for n_vertices, seeds in ((10, range(12)), (1000, range(4)),
                                      (100_000, range(2))):
                table = edge_rate_curve(n_vertices, 2, series)
                for seed in seeds:
                    (got, got_state), (want, want_state) = both_paths(
                        n_vertices, series, lambda: np.random.default_rng(seed), table)
                    assert (got.removed, got.debris) == (want.removed, want.debris)
                    assert got.trajectory.dtype == want.trajectory.dtype == np.int64
                    assert np.array_equal(got.trajectory, want.trajectory)
                    assert got_state == want_state
                    empty_start += want.trajectory[0, 1] == 0
                    full_absorption += want.removed == n_vertices
        assert empty_start > 0 and full_absorption > 0

    def test_other_bit_generator(self, kernel):
        (got, got_state), (want, want_state) = both_paths(
            1000, EX1, lambda: np.random.Generator(np.random.MT19937(11)))
        assert np.array_equal(got.trajectory, want.trajectory)
        assert got_state == want_state

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    def test_bad_poisson_mean_raises_on_both_paths(self, kernel, bad):
        table = edge_rate_curve(1000, 2, EX1)
        table[3] = bad
        (got, got_state), (want, want_state) = both_paths(
            1000, EX1, lambda: np.random.default_rng(5), table)
        assert type(got) is type(want) is ValueError
        assert str(got) == str(want) and str(want).startswith("lam ")
        assert got_state == want_state

    @pytest.mark.parametrize("seeded", [False, True], ids=["bit_generator", "seeds"])
    def test_poisson_mean_at_numpys_limit(self, kernel, seeded):
        # numpy's POISSON_LAM_MAX, as numpy derives it from the C long range
        limit = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)
        above = np.nextafter(limit, math.inf)
        with pytest.raises(ValueError, match="^lam value too large$"):
            np.random.Generator(np.random.PCG64(3)).poisson(above)
        # one vertex, no fresh patches: every patch ends as debris
        want = [[1, int(np.random.Generator(np.random.PCG64(3)).poisson(limit))]]
        rates = np.zeros(1)
        outcomes = []
        for batch in (kernel.batch, chain._batch):
            bit_generator = None if seeded else np.random.PCG64(3)
            seeds = seed_words([3]) if seeded else None
            counts = batch(1, rates, bit_generator, limit, 0.0, seeds=seeds)[0]
            state = None if seeded else bit_generator.state
            with pytest.raises(ValueError, match="^lam value too large$"):
                batch(1, rates, bit_generator, above, 0.0, seeds=seeds)
            # the rejected mean draws nothing
            assert seeded or bit_generator.state == state
            outcomes.append((counts.tolist(), state))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == want

    @pytest.mark.parametrize("bad", [1e300, math.nan, -1.0])
    def test_bad_debris_mean_raises_after_the_patches_draw(self, kernel, bad):
        # the patches are drawn before the debris mean is checked
        table = edge_rate_curve(100, 2, EX1)
        once = np.random.Generator(np.random.PCG64(7))
        once.poisson(25.0)
        outcomes = []
        for batch in (kernel.batch, chain._batch):
            bit_generator = np.random.PCG64(7)
            with pytest.raises(ValueError, match="^lam ") as raised:
                batch(100, table, bit_generator, 25.0, bad)
            outcomes.append((str(raised.value), bit_generator.state))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == once.bit_generator.state

    def test_counts_beyond_int64_raise_on_both_paths(self, kernel):
        (got, got_state), (want, want_state) = both_paths(
            10, EX1, lambda: np.random.default_rng(1), np.full(10, 1e18))
        assert type(got) is type(want) is OverflowError
        assert got_state == want_state

    def test_batch_matches_a_run_per_replica(self, kernel, monkeypatch):
        # the fluid table only needs n + 1 rows of finite values here; with
        # the kernel loaded `run` is a batch of one on it, so the runs take
        # the Python loop
        n, means = 300, (300 * EX1.coeff(1), 0.0)
        table = edge_rate_curve(n, 2, EX1)
        fluid = np.random.default_rng(4).uniform(0.0, 0.3, size=(n + 1, 3))
        monkeypatch.setattr(chain_kernel, "load", lambda: None)
        for path_table in (None, fluid):
            counts, deviations, trajectory = kernel.batch(n, table, None, *means, path_table,
                                                          seeds=seed_words(range(7)))
            assert trajectory is None
            for seed in range(7):
                rng = np.random.default_rng(seed)
                want = run(n, EX1, rng, record_trajectory=True, rate_table=table)
                assert counts[seed].tolist() == [want.removed, want.debris]
                if path_table is None:
                    assert deviations is None
                else:
                    assert deviations[seed] == chain._deviation(n, want.trajectory, fluid)
                # a batch of one on a bit generator leaves its state as the run does
                bit_generator = np.random.PCG64(seed)
                one = kernel.batch(n, table, bit_generator, *means, path_table, True)
                assert one[0].tolist() == [[want.removed, want.debris]]
                assert np.array_equal(one[2], want.trajectory)
                assert bit_generator.state == rng.bit_generator.state

    def test_batch_stops_at_the_first_failing_replica(self, kernel):
        # a step's Poisson mean is too large once a replica starts with a
        # patch; with a mean of 0.2 patches most replicas start without one
        series = BetaSeries((0.0, 0.05, 1e300))
        n = 10
        table = edge_rate_curve(n, 2, series)
        want = [np.random.default_rng(seed) for seed in range(12)]
        failed = None
        for r, rng in enumerate(want):
            try:
                chain._steps(n, table, rng, 0.2, 0.0, False)
            except ValueError as exc:
                failed = (r, str(exc))
                break
        assert failed is not None and 0 < failed[0] < 11
        for batch in (kernel.batch, chain._batch):
            with pytest.raises(ValueError, match="^lam value too large$"):
                batch(n, table, None, 0.2, 0.0, seeds=seed_words(range(12)))
            # the failing replica stops before the draw that fails
            bit_generator = np.random.PCG64(failed[0])
            with pytest.raises(ValueError, match="^lam value too large$"):
                batch(n, table, bit_generator, 0.2, 0.0)
            assert bit_generator.state == want[failed[0]].bit_generator.state

    def test_a_nan_in_the_fluid_table_gives_a_nan_deviation(self, kernel):
        n = 200
        table = edge_rate_curve(n, 2, EX1)
        fluid = np.zeros((n + 1, 3))
        fluid[30, 2] = math.nan
        counts, deviations, _ = kernel.batch(n, table, None, n * EX1.coeff(1), 0.0, fluid,
                                             seeds=seed_words(range(20)))
        reached = counts[:, 0] >= 30
        assert reached.any() and not reached.all()
        assert np.array_equal(np.isnan(deviations), reached)
        want = chain._batch(n, table, None, n * EX1.coeff(1), 0.0, fluid,
                            seeds=seed_words(range(20)))
        assert np.array_equal(counts, want[0])
        assert np.array_equal(deviations, want[1], equal_nan=True)

    def test_batch_refuses_tables_that_do_not_fit(self, kernel):
        table = edge_rate_curve(10, 2, EX1)
        for batch in (kernel.batch, chain._batch):
            with pytest.raises(ValueError, match="fluid must have shape"):
                batch(10, table, None, 1.0, 0.0, np.zeros((10, 3)), seeds=seed_words([1]))
            with pytest.raises(ValueError, match="batch of one"):
                batch(10, table, None, 1.0, 0.0, record_trajectory=True,
                      seeds=seed_words([1, 2]))
            with pytest.raises(ValueError, match="at least n values"):
                batch(10, table[:9], None, 1.0, 0.0, seeds=seed_words([1]))

    def test_batch_takes_bit_generators_or_seeds(self, kernel):
        table = edge_rate_curve(10, 2, EX1)
        words = seed_words([0])
        for batch in (kernel.batch, chain._batch):
            with pytest.raises(TypeError, match="a bit_generator or seeds"):
                batch(10, table, np.random.PCG64(1), 1.0, 0.0, seeds=words)
            with pytest.raises(TypeError, match="a bit_generator or seeds"):
                batch(10, table, None, 1.0, 0.0)
            for bad in (words.astype(np.int64), words[0], np.zeros((3, 1), dtype=np.uint64),
                        [[0], [0]]):
                with pytest.raises(ValueError, match=r"seeds must be a \(2, m\) uint64"):
                    batch(10, table, None, 1.0, 0.0, seeds=bad)

    def test_batch_holds_its_bit_generator_lock(self, kernel):
        n = 50
        table = edge_rate_curve(n, 2, EX1)
        bit_generator = np.random.PCG64(3)
        want = chain._batch(n, table, np.random.PCG64(3), n * EX1.coeff(1), 0.0)
        got = []
        with bit_generator.lock:
            thread = threading.Thread(target=lambda: got.append(kernel.batch(
                n, table, bit_generator, n * EX1.coeff(1), 0.0)), daemon=True)
            thread.start()
            thread.join(0.2)
            assert thread.is_alive() and not got
        thread.join(30)
        assert not thread.is_alive()
        assert np.array_equal(got[0][0], want[0])

    def test_bit_generator_address(self, kernel):
        for bit_generator in (np.random.PCG64(1), np.random.MT19937(1)):
            assert (chain_kernel._bitgen(bit_generator)
                    == bit_generator.ctypes.bit_generator.value)

    def test_collapse_refuses_edges_that_do_not_fit(self, kernel):
        rng = np.random.default_rng(0)
        state = plain(rng.bit_generator.state)
        for sizes, ids in (([1, 2], [0, 1]), ([1, -1], [0]), ([2], [0, 6]), ([2], [-1, 0])):
            with pytest.raises(ValueError, match="edge sizes do not match"):
                kernel.collapse(6, np.array(sizes, dtype=np.int64), np.array(ids, dtype=np.int64),
                                rng.bit_generator, False)
        one = np.array([1], dtype=np.int64)
        for sizes, ids in ((one.astype(np.int32), one), (one, [0]), (one, one.reshape(1, 1)),
                           (one, np.arange(4, dtype=np.int64)[::2])):
            with pytest.raises(TypeError, match="C-contiguous one-dimensional int64"):
                kernel.collapse(6, sizes, ids, rng.bit_generator, False)
        assert plain(rng.bit_generator.state) == state

    def test_collapse_that_draws_differently_is_refused(self, kernel, monkeypatch, caplog):
        reference = hypergraph._collapse_steps

        def drifted(n, sizes, ids, bit_generator, record_trajectory):
            np.random.Generator(bit_generator).integers(2)
            return reference(n, sizes, ids, bit_generator, record_trajectory)

        monkeypatch.setattr(hypergraph, "_collapse_steps", drifted)
        chain_kernel.load.cache_clear()
        try:
            with caplog.at_level("WARNING", logger="hypercollapse.chain_kernel"):
                assert chain_kernel.load() is None
        finally:
            chain_kernel.load.cache_clear()
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "collapsed differently from the Python loop" in caplog.text

    def test_batch_that_draws_differently_is_refused(self, kernel, monkeypatch, caplog):
        reference = chain._batch

        def drifted(n, rates, bit_generator, *args, **kwargs):
            if bit_generator is not None:
                np.random.Generator(bit_generator).integers(2)
            return reference(n, rates, bit_generator, *args, **kwargs)

        monkeypatch.setattr(chain, "_batch", drifted)
        chain_kernel.load.cache_clear()
        try:
            with caplog.at_level("WARNING", logger="hypercollapse.chain_kernel"):
                assert chain_kernel.load() is None
        finally:
            chain_kernel.load.cache_clear()
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "drew differently from the Python loop" in caplog.text

    def test_seeded_batch_that_draws_differently_is_refused(self, kernel, monkeypatch,
                                                             caplog):
        reference = chain._batch

        def drifted(*args, seeds=None, **kwargs):
            if seeds is not None:
                # the low words' last bit: PCG64(seed ^ 1) for each seed
                seeds = seeds.copy()
                seeds[0] ^= np.uint64(1)
            return reference(*args, seeds=seeds, **kwargs)

        monkeypatch.setattr(chain, "_batch", drifted)
        chain_kernel.load.cache_clear()
        try:
            with caplog.at_level("WARNING", logger="hypercollapse.chain_kernel"):
                assert chain_kernel.load() is None
        finally:
            chain_kernel.load.cache_clear()
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "drew differently from the Python loop" in caplog.text

    def test_kernel_in_use_where_a_compiler_is(self, monkeypatch):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on PATH")
        assert chain_kernel.load() is not None
        h = sample_poisson(60, EX1, np.random.default_rng(2))
        monkeypatch.setattr(chain, "_batch", None)
        monkeypatch.setattr(hypergraph, "_collapse_steps", None)
        monkeypatch.setattr(hypergraph, "_uniform_subsets", None)
        assert sample_poisson(60, EX1, np.random.default_rng(2)) == h
        assert run(200, EX1, np.random.default_rng(1)).removed > 0
        for workers in (1, 2):
            config = ExperimentConfig(EX1, (200, 300), 5, master_seed=4, delta=0.05,
                                      workers=workers)
            assert len(run_replicas(config).records) == 10
        assert collapse_all(h, np.random.default_rng(3)).identified
        assert identifiable_set(h)

    @pytest.mark.parametrize("load", [chain_kernel.load, lambda: None],
                             ids=["kernel", "python"])
    def test_every_entry_takes_its_loops_from_loops(self, load, monkeypatch):
        # each entry reaches its loop through chain_kernel.loops() alone, with
        # the outputs of the unwrapped loops
        monkeypatch.setattr(chain_kernel, "load", load)
        loops = chain_kernel.loops()
        assert loops is (chain_kernel.PYTHON_LOOPS if load() is None else load())
        h = sample_poisson(60, EX1, np.random.default_rng(2))
        config = ExperimentConfig(EX1, (200, 300), 5, master_seed=4, delta=0.05)

        def chain_run():
            result = run(200, EX1, np.random.default_rng(1), record_trajectory=True)
            return result.removed, result.debris, result.trajectory.tolist()

        def sweep(workers):
            result = run_replicas(replace(config, workers=workers))
            return result.records, result.aggregates

        def collapse():
            out = collapse_all(h, np.random.default_rng(3), record_trajectory=True)
            return (out.identified, out.stable.sizes.tolist(), out.stable.ids.tolist(),
                    out.identifiable_edge_count, out.trajectory.tolist())

        def sample():
            rng = np.random.default_rng(2)
            sampled = sample_poisson(60, EX1, rng)
            return sampled.sizes.tolist(), sampled.ids.tolist(), rng.bit_generator.state

        entries = [("batch", chain_run), ("batch", partial(sweep, 1)),
                   ("batch", partial(sweep, 2)), ("subsets", sample), ("collapse", collapse),
                   ("collapse", partial(identifiable_set, h))]
        want = [entry() for _, entry in entries]
        calls = []

        def recorded(kind):
            def call(*args, **kwargs):
                calls.append(kind)
                return getattr(loops, kind)(*args, **kwargs)
            return call

        monkeypatch.setattr(chain_kernel, "loops", lambda: SimpleNamespace(
            batch=recorded("batch"), subsets=recorded("subsets"),
            collapse=recorded("collapse")))
        for (kind, entry), expected in zip(entries, want):
            calls.clear()
            assert entry() == expected
            assert calls and set(calls) == {kind}

    def test_failed_build_falls_back_to_reference(self, kernel, fresh_loader, monkeypatch):
        want = run(1000, EX1, np.random.default_rng(3), record_trajectory=True)

        def fail(target):
            raise subprocess.CalledProcessError(1, ["cc"], stderr="no compiler")

        monkeypatch.setattr(chain_kernel, "_build", fail)
        cache = fresh_loader()
        got = run(1000, EX1, np.random.default_rng(3), record_trajectory=True)
        assert chain_kernel.load() is None
        assert (got.removed, got.debris) == (want.removed, want.debris)
        assert np.array_equal(got.trajectory, want.trajectory)
        assert os.listdir(cache) == []

    def test_alternating_sources_keep_both_libraries(self, kernel, fresh_loader, monkeypatch,
                                                     tmp_path):
        # two checkouts whose sources differ, loaded in turn from one cache,
        # build once each and leave each other's library alone
        real = chain_kernel._SOURCE
        edited = tmp_path / "chain_kernel.c"
        with open(real) as fh:
            edited.write_text(fh.read() + "/* another checkout */\n")
        build = chain_kernel._build
        builds = []

        def counted(target):
            builds.append(chain_kernel._SOURCE)
            build(target)

        monkeypatch.setattr(chain_kernel, "_build", counted)
        cache = fresh_loader()
        for source in (real, str(edited)) * 2:
            monkeypatch.setattr(chain_kernel, "_SOURCE", source)
            chain_kernel.load.cache_clear()
            assert chain_kernel.load() is not None
        assert builds == [real, str(edited)]
        assert len(os.listdir(cache)) == 2

    def test_refuses_a_cache_others_can_write(self, fresh_loader):
        shared = fresh_loader()
        shared.mkdir()
        shared.chmod(0o777)
        assert chain_kernel.load() is None

    def test_pool_threads_make_the_first_load(self, kernel, fresh_loader, monkeypatch):
        # both pool threads call load() before either has a kernel, and the
        # barrier holds them until both are building into one empty cache
        config = ExperimentConfig(EX1, (2000,), 4, master_seed=9, delta=0.05, workers=2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chain_kernel, "load", lambda: None)
            want = run_replicas(config)
        barrier = threading.Barrier(2, timeout=60)
        build = chain_kernel._build

        def build_together(target):
            barrier.wait()
            build(target)

        monkeypatch.setattr(chain_kernel, "_build", build_together)
        cache = fresh_loader()
        got = run_replicas(config)
        assert (got.records, got.aggregates) == (want.records, want.aggregates)
        assert chain_kernel.load() is not None
        built = os.listdir(cache)
        assert len(built) == 1 and built[0].endswith(".so")

    def test_a_cached_library_loads_without_subprocess(self, kernel):
        # only a build needs subprocess; the kernel fixture has built the library
        script = ("import sys\n"
                  "import hypercollapse.chain_kernel as chain_kernel\n"
                  "assert chain_kernel.load() is not None\n"
                  "print('subprocess' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        proc = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                              capture_output=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_concurrent_first_builds(self, kernel, tmp_path):
        # two processes race to build into one empty cache; importing the
        # package alone must load neither the kernel, nor scipy, nor a
        # process pool
        script = ("import sys, hypercollapse\n"
                  "assert 'hypercollapse.chain_kernel' not in sys.modules\n"
                  "assert 'scipy' not in sys.modules\n"
                  "assert 'multiprocessing' not in sys.modules\n"
                  "from hypercollapse import chain_kernel\n"
                  "print(chain_kernel.load() is not None)\n")
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
               "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        procs = [subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                                  stdout=subprocess.PIPE) for _ in range(2)]
        outputs = [proc.communicate(timeout=120)[0] for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0]
        assert outputs == ["True\n", "True\n"]
        built = os.listdir(tmp_path / "hypercollapse")
        assert len(built) == 1 and built[0].endswith(".so")
