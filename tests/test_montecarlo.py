import math
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from hypercollapse import (BetaSeries, BracketError, DegenerateModelError,
                           ExperimentConfig, chain, concentration_curve,
                           config_from_json, critical_alpha,
                           critical_structure, deficiency, derive_seed,
                           edge_rate_curve, from_binomial_family,
                           from_graph_params, montecarlo, path_grid, run,
                           run_replicas, stream)
from hypercollapse.montecarlo import derive_seeds
from hypercollapse.series import T_CAP
from helpers import derive_seed_reference, first_negative_root


EX1 = from_graph_params(0.1, 0.5)
SMALL = {"p": 0.1, "alpha": 0.5, "N_values": [200], "replicas": 3, "master_seed": 1}


def reference_deviation(series, n, seed):
    """Sup distance of one replica from the fluid path, on its own path grid."""
    traj = run(n, series, np.random.Generator(np.random.PCG64(seed)),
               record_trajectory=True).trajectory
    xs = path_grid(np.minimum(traj[:, 0].astype(float) / n, T_CAP), series)
    return float(max(np.abs(traj[:, 1] / n - xs[:, 1]).max(),
                     np.abs(traj[:, 2] / n - xs[:, 2]).max()))


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(12345, 100, 7) == derive_seed(12345, 100, 7)

    def test_sensitive_to_every_component(self):
        base = derive_seed(1, 2, 3)
        assert derive_seed(2, 2, 3) != base
        assert derive_seed(1, 3, 3) != base
        assert derive_seed(1, 2, 4) != base

    def test_is_128_bits(self):
        s = derive_seed(0, 0, 0)
        assert 0 <= s < (1 << 128)

    def test_collision_scan_over_a_million_paths(self):
        seen = set()
        for n in range(1000):
            seen.update(derive_seeds(987654321, n, range(1000)))
        assert len(seen) == 1_000_000

    def test_matches_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        wide = [0, 1, -1, 2**63, 2**64 - 1, 2**64, 2**64 + 5, -2**64, -2**64 - 3,
                2**100 + 7, -2**100]
        paths = [(int(rng.integers(-2**62, 2**62)),
                  *map(int, rng.integers(-2**62, 2**62, size=rng.integers(0, 4))))
                 for _ in range(600)]
        paths += [(master, *key) for master in wide for key in
                  [(), (7,), *((k, 3) for k in wide), *((3, k) for k in wide)]]
        paths += [(-12345, n, replica) for n in (10, 2**64 + 10) for replica in range(100)]
        assert len(paths) >= 1000
        for master_seed, *key in paths:
            assert derive_seed(master_seed, *key) == derive_seed_reference(master_seed, *key)
        for master_seed in (-5, 2**64 + 9):
            for n in (-1, 2000, 2**65):
                assert (derive_seeds(master_seed, n, range(-3, 50))
                        == [derive_seed_reference(master_seed, n, r) for r in range(-3, 50)])
        assert derive_seeds(1, np.array([5, -6]), 2, [2**64, 8]) == [
            derive_seed_reference(1, 5, 2, 2**64), derive_seed_reference(1, -6, 2, 8)]
        assert derive_seeds(1, 2, range(0)) == []

    def test_batch_keys_must_be_integers(self):
        for key in ([2, 2.5], ["2"], [np.float64(3)]):
            with pytest.raises(TypeError):
                derive_seeds(1, 5, key)
        with pytest.raises(TypeError):
            derive_seeds(1.0, 5, [2])

    @pytest.mark.parametrize("master_seed, key", [
        (1, (2.7,)), (1.0, (2,)), (1, ("2",)), (1, (2, np.float64(3)))])
    def test_seed_and_keys_must_be_integers(self, master_seed, key):
        # 2.7 must not alias key 2
        with pytest.raises(TypeError):
            derive_seed(master_seed, *key)

    def test_stream_reproducible(self):
        a = stream(5, 100, 0).standard_normal(4)
        b = stream(5, 100, 0).standard_normal(4)
        assert np.array_equal(a, b)
        c = stream(5, 100, 1).standard_normal(4)
        assert not np.array_equal(a, c)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(EX1, (5,), 10, 0)
        with pytest.raises(ValueError):
            ExperimentConfig(EX1, (100,), 0, 0)
        with pytest.raises(ValueError):
            ExperimentConfig(EX1, (100,), 10, 0, delta=-1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(EX1, (), 10, 0)
        with pytest.raises(ValueError, match="^workers must be >= 1$"):
            ExperimentConfig(EX1, (200,), 3, 0, workers=0)
        with pytest.raises(ValueError):
            ExperimentConfig(EX1, (1000, 1000), 3, 0)
        with pytest.raises(ValueError):
            ExperimentConfig(EX1, (100,), 10, 0, delta=math.nan)

    @pytest.mark.parametrize("key, value", [
        ("n_values", (200.7,)), ("n_values", (True,)), ("n_values", ("200",)),
        ("replicas", 2.9), ("master_seed", 1.5), ("workers", math.inf),
    ])
    def test_library_counts_must_be_whole(self, key, value):
        kwargs = {"series": EX1, "n_values": (200,), "replicas": 3, "master_seed": 0}
        kwargs[key] = value
        name = "N_values" if key == "n_values" else key
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            ExperimentConfig(**kwargs)

    def test_library_accepts_numpy_and_integral_counts(self):
        cfg = ExperimentConfig(EX1, (np.int64(200), 300.0), np.int64(3), np.uint8(7),
                               workers=2.0)
        assert cfg.n_values == (200, 300)
        assert (cfg.replicas, cfg.master_seed, cfg.workers) == (3, 7, 2)
        assert all(type(v) is int for v in (*cfg.n_values, cfg.replicas,
                                            cfg.master_seed, cfg.workers))

    def test_degenerate_model_rejected(self):
        # a sweep of an all-zero model absorbs instantly everywhere
        with pytest.raises(DegenerateModelError):
            ExperimentConfig(BetaSeries((0.0, 0.0)), (100,), 10, 0)
        with pytest.raises(DegenerateModelError):
            ExperimentConfig(BetaSeries((0.5,)), (100,), 10, 0)

    def test_from_json_with_beta(self):
        cfg = config_from_json({"beta": [0.0, 0.5], "N_values": [100, 200],
                                "replicas": 3, "master_seed": 9})
        assert cfg.series == BetaSeries((0.0, 0.5))
        assert cfg.n_values == (100, 200)

    def test_from_json_with_graph_params(self):
        cfg = config_from_json({"p": 0.1, "alpha": 0.5, "N_values": [50],
                                "replicas": 2, "master_seed": 1, "delta": 0.05,
                                "record_trajectory": True, "workers": 2})
        assert cfg.series == EX1
        assert cfg.delta == 0.05 and cfg.record_trajectory and cfg.workers == 2

    def test_from_json_delta_turns_on_trajectories(self):
        cfg = config_from_json({"p": 0.1, "alpha": 0.5, "N_values": [200],
                                "replicas": 3, "master_seed": 1, "delta": 0.05})
        assert cfg.record_trajectory
        dev_freq = run_replicas(cfg).aggregates[0].dev_freq
        assert dev_freq is not None and 0.0 <= dev_freq <= 1.0

    def test_from_json_model_rule(self):
        base = {"N_values": [50], "replicas": 2, "master_seed": 1}
        with pytest.raises(ValueError, match="not both"):
            config_from_json({**base, "beta": [0.0, 0.5], "p": 0.1, "alpha": 0.5})
        with pytest.raises(ValueError, match="model required"):
            config_from_json({**base, "p": 0.1})
        # a null value counts as absent
        cfg = config_from_json({**base, "beta": None, "p": 0.1, "alpha": 0.5,
                                "delta": None, "workers": None})
        assert cfg.series == EX1 and cfg.delta is None and cfg.workers == 1

    @pytest.mark.parametrize("flag", ["false", 0, None])
    def test_library_rejects_non_boolean_flag(self, flag):
        with pytest.raises(ValueError, match="record_trajectory must be true or false"):
            ExperimentConfig(EX1, (50,), 2, 1, record_trajectory=flag)

    def test_from_json_rejects_non_boolean_flag(self):
        doc = {"p": 0.1, "alpha": 0.5, "N_values": [50], "replicas": 2,
               "master_seed": 1, "record_trajectory": "false"}
        with pytest.raises(ValueError):
            config_from_json(doc)

    @pytest.mark.parametrize("doc, message", [
        ({**SMALL, "deltaa": 0.05}, r"unknown config keys \['deltaa'\]"),
        ({**SMALL, "outputs": ["res.csv"]}, "outputs must be a JSON object"),
        ([SMALL], "config must be a JSON object, got list"),
        ("config", "config must be a JSON object, got str"),
        ({**SMALL, "p": None, "alpha": None, "beta": ["0", "0.5"]},
         "each beta coefficient must be a number, got '0'"),
        ({**SMALL, "p": None, "alpha": None, "beta": [0.0, True]},
         "each beta coefficient must be a number, got True"),
        ({**SMALL, "p": None, "alpha": None, "beta": 5}, "beta must be a list of numbers"),
        ({**SMALL, "p": "0.1"}, "p must be a number, got '0.1'"),
        ({**SMALL, "alpha": [0.5]}, r"alpha must be a number, got \[0.5\]"),
        ({**SMALL, "delta": "0.05"}, "delta must be a number, got '0.05'"),
        ({**SMALL, "delta": math.nan}, "delta must be positive and finite, got nan"),
        ({**SMALL, "N_values": 200}, "N_values must be a list of whole numbers"),
        ({**SMALL, "N_values": "200"}, "N_values must be a list of whole numbers"),
        ({**SMALL, "outputs": {"result_csv": "mine.csv"}},
         r"unknown outputs keys \['result_csv'\]"),
        ({**SMALL, "outputs": {"results_csv": 5}}, "outputs results_csv must be a file name"),
        ({**SMALL, "outputs": {"results_csv": ""}},
         "outputs results_csv must be a file name, got ''"),
        ({**SMALL, "outputs": {"results_csv": "."}},
         r"outputs results_csv must be a file name, got '\.'"),
        ({**SMALL, "outputs": {"aggregates_json": ".."}},
         r"outputs aggregates_json must be a file name, got '\.\.'"),
        ({**SMALL, "outputs": {"results_csv": "sub/r.csv"}},
         "outputs results_csv must be a file name, got 'sub/r.csv'"),
        ({**SMALL, "outputs": {"results_csv": "/no/such/dir/r.csv"}},
         "outputs results_csv must be a file name, got '/no/such/dir/r.csv'"),
        ({**SMALL, "outputs": {"aggregates_json": "agg/"}},
         "outputs aggregates_json must be a file name, got 'agg/'"),
        ({**SMALL, "outputs": {"results_csv": "x", "aggregates_json": "x"}},
         "outputs must name different files"),
        ({**SMALL, "outputs": {"results_csv": "aggregates.json"}},
         "outputs must name different files"),
        ({**SMALL, "outputs": {"results_csv": "r\0.csv"}},
         r"outputs results_csv must be a file name, got 'r\\x00\.csv'"),
        # 256 bytes in UTF-8, one more than a file name holds, in 130 characters
        ({**SMALL, "outputs": {"results_csv": "\u00e9" * 126 + ".csv"}},
         "outputs results_csv must be a file name, got '\u00e9{126}\\.csv'"),
    ])
    def test_from_json_rejects_malformed_documents(self, doc, message):
        with pytest.raises(ValueError, match=message):
            config_from_json(doc)

    def test_from_json_accepts_integral_floats(self):
        cfg = config_from_json({"p": 0.1, "alpha": 0.5, "N_values": [1e5, 200.0],
                                "replicas": 3.0, "master_seed": 7.0, "workers": 2.0})
        assert cfg.n_values == (100_000, 200)
        assert (cfg.replicas, cfg.master_seed, cfg.workers) == (3, 7, 2)
        assert all(type(n) is int for n in cfg.n_values)

    @pytest.mark.parametrize("key", ["N_values", "replicas", "master_seed", "workers"])
    @pytest.mark.parametrize("bad", [2.9, True, "3", math.nan, math.inf])
    def test_from_json_rejects_non_whole_counts(self, key, bad):
        doc = {**SMALL, key: [bad] if key == "N_values" else bad}
        with pytest.raises(ValueError, match=f"{key} must be a whole number"):
            config_from_json(doc)

    def test_from_json_missing_keys(self):
        with pytest.raises(ValueError):
            config_from_json({"beta": [0.0, 0.5], "replicas": 2, "master_seed": 1})
        with pytest.raises(ValueError):
            config_from_json({"N_values": [50], "replicas": 2, "master_seed": 1})


class TestRunReplicas:
    def test_deterministic_records(self):
        cfg = ExperimentConfig(EX1, (200, 400), 5, master_seed=77)
        a = run_replicas(cfg)
        b = run_replicas(cfg)
        assert a.records == b.records
        assert a.aggregates == b.aggregates

    def test_canonical_ordering_and_seeds(self):
        cfg = ExperimentConfig(EX1, (400, 200), 3, master_seed=5)
        result = run_replicas(cfg)
        keys = [(r.n_vertices, r.replica) for r in result.records]
        assert keys == [(400, 0), (400, 1), (400, 2), (200, 0), (200, 1), (200, 2)]
        for r in result.records:
            assert r.seed == derive_seed(5, r.n_vertices, r.replica)
            assert 0.0 <= r.v_star_frac <= 1.0
            assert r.debris_frac >= 0.0
            assert r.stop_step == round(r.v_star_frac * r.n_vertices)

    def test_workers_do_not_change_results(self):
        results = [run_replicas(ExperimentConfig(EX1, (150, 250), 7, master_seed=3,
                                                 delta=0.02, workers=workers))
                   for workers in (1, 2, 3)]
        assert all(r.deviation is not None for r in results[0].records)
        for other in results[1:]:
            assert other.records == results[0].records
            assert other.aggregates == results[0].aggregates

    def test_the_pool_has_at_most_one_thread_per_cpu(self, monkeypatch):
        pools = []

        class InCallingThread:
            """A stand-in pool: it records its size and runs each job at once."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", InCallingThread)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # one CPU would make no pool
        config = ExperimentConfig(EX1, (150,), 5, master_seed=3, workers=10**5)
        got = run_replicas(config)
        assert pools == [min(10**5, os.cpu_count() or 1)]
        want = run_replicas(replace(config, workers=1))
        assert got.records == want.records

    def test_batches_are_sized_by_the_threads_not_the_workers(self, monkeypatch):
        # a thousand workers on two CPUs cut the sweep as two workers do
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        calls, batch = [], montecarlo._replica_batch

        def counted(*args, **kwargs):
            calls.append(args)
            return batch(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "_replica_batch", counted)
        runs = []
        for workers in (2, 1000):
            calls.clear()
            runs.append((run_replicas(ExperimentConfig(EX1, (150, 250), 20, master_seed=3,
                                                       delta=0.05, workers=workers)),
                         len(calls)))
        (two, two_calls), (many, many_calls) = runs
        assert many_calls == two_calls
        assert many.records == two.records

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_rate_table_per_vertex_count(self, monkeypatch, workers):
        built = Counter()

        def counted(n_vertices, size, series):
            built[n_vertices] += 1
            return edge_rate_curve(n_vertices, size, series)

        # `run` would build its own table if the batch passed none
        monkeypatch.setattr(montecarlo, "edge_rate_curve", counted)
        monkeypatch.setattr(chain, "edge_rate_curve", counted)
        run_replicas(ExperimentConfig(EX1, (150, 250, 350), 7, master_seed=3,
                                      workers=workers))
        assert built == {150: 1, 250: 1, 350: 1}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_path_table_per_vertex_count(self, monkeypatch, workers):
        built = Counter()

        def counted(ts, series):
            built[len(ts)] += 1
            return path_grid(ts, series)

        monkeypatch.setattr(montecarlo, "path_grid", counted)
        for delta, want in ((0.02, {151: 1, 251: 1, 351: 1}), (None, {})):
            built.clear()
            run_replicas(ExperimentConfig(EX1, (150, 250, 350), 7, master_seed=3,
                                          delta=delta, workers=workers))
            assert built == want

    def test_variance_shrinks_with_scale(self):
        cfg = ExperimentConfig(EX1, (1000, 10_000), 60, master_seed=11)
        rows = {a.n_vertices: a for a in run_replicas(cfg).aggregates}
        assert rows[10_000].var_v < rows[1000].var_v

    def test_mean_gap_shrinks_with_scale(self):
        # |mean - z_star| across three sizes; noise makes this probabilistic,
        # the fixed master seed makes the instantiation deterministic
        oracle = first_negative_root(
            lambda ts: -np.log(0.9) + 0.5 * ts + np.log(1.0 - ts))
        cfg = ExperimentConfig(EX1, (1000, 4000, 16_000), 60, master_seed=2)
        gaps = [abs(a.mean_v - oracle) for a in run_replicas(cfg).aggregates]
        assert gaps[0] >= gaps[1] >= gaps[2]


class TestConcentration:
    def test_huge_threshold_never_trips(self):
        cfg = ExperimentConfig(EX1, (200,), 20, master_seed=4)
        curve = concentration_curve(cfg, delta=10.0)
        assert curve == [(200, 0.0)]

    def test_deviation_recorded_per_replica(self):
        # (0, 2, 3) absorbs at removed = N, so the capped t = 1 row is compared;
        # three workers split the replicas into batches of one to three
        for series, n_values in [(EX1, (200,)), (BetaSeries((0.0, 2.0, 3.0)), (10, 37))]:
            for workers in (1, 3):
                cfg = ExperimentConfig(series, n_values, 10, master_seed=4,
                                       delta=0.05, workers=workers)
                result = run_replicas(cfg)
                for r in result.records:
                    assert r.deviation == reference_deviation(series, r.n_vertices, r.seed)
                assert all(row.dev_freq is not None for row in result.aggregates)
            if series != EX1:
                assert any(r.stop_step == r.n_vertices for r in result.records)

    def test_delta_validation(self):
        cfg = ExperimentConfig(EX1, (200,), 5, master_seed=4)
        with pytest.raises(ValueError):
            concentration_curve(cfg, delta=0.0)

    @pytest.mark.parametrize("delta", ["0.05", True])
    def test_delta_must_be_a_number(self, delta):
        # the config's rule, as for ExperimentConfig(delta="0.05")
        cfg = ExperimentConfig(EX1, (200,), 5, master_seed=4)
        with pytest.raises(ValueError, match="delta must be a number"):
            concentration_curve(cfg, delta)


class TestCriticalAlpha:
    def test_example_family_bracket(self):
        alpha_c, zeta0 = critical_alpha(from_binomial_family, 1185.0, 1200.0)
        assert 1185.0 < alpha_c < 1200.0
        assert 0.01 < zeta0 < 0.05
        series = from_binomial_family(alpha_c)
        # tangency: the dip minimum is numerically zero
        assert abs(deficiency(series, zeta0)) < 1e-10
        crit = critical_structure(series)
        assert crit.z_star == 1.0
        assert len(crit.zeta) == 1
        assert crit.zeta[0] == pytest.approx(zeta0, abs=1e-7)

    def test_degenerate_bracket_is_returned_when_tangent(self):
        alpha_c, zeta0 = critical_alpha(from_binomial_family, 1185.0, 1200.0)
        again, z_again = critical_alpha(from_binomial_family, alpha_c, alpha_c,
                                        tangency_tolerance=1e-6)
        assert again == alpha_c
        assert z_again == pytest.approx(zeta0, abs=1e-7)

    def test_degenerate_bracket_rejected_when_not_tangent(self):
        with pytest.raises(BracketError):
            critical_alpha(from_binomial_family, 1185.0, 1185.0)

    def test_small_parameter_stops_at_the_absolute_floor(self):
        # coefficients scaled by 1e4 put alpha_c near 0.119, where the
        # bisection's width floor of 1e-12 (not 1e-12 * alpha) applies
        def family(a):
            return BetaSeries(tuple(1e4 * c for c in from_binomial_family(a).coeffs))

        alpha_c, zeta0 = critical_alpha(family, 0.1185, 0.12)
        assert 0.1185 < alpha_c < 0.12
        assert abs(deficiency(family(alpha_c), zeta0)) <= 1e-9
        unscaled, _ = critical_alpha(from_binomial_family, 1185.0, 1200.0)
        assert alpha_c == pytest.approx(unscaled / 1e4, rel=1e-9)

    def test_bracket_errors(self):
        with pytest.raises(BracketError):
            critical_alpha(from_binomial_family, 1200.0, 1185.0)
        with pytest.raises(BracketError):
            # both subcritical
            critical_alpha(from_binomial_family, 1100.0, 1185.0)
        with pytest.raises(BracketError):
            # both supercritical
            critical_alpha(from_binomial_family, 1200.0, 1300.0)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_tolerance_checked_before_the_family(self, tol):
        calls = []

        def family(alpha):
            calls.append(alpha)
            return from_binomial_family(alpha)

        with pytest.raises(ValueError, match="tangency_tolerance must be positive"):
            critical_alpha(family, 1185.0, 1200.0, tangency_tolerance=tol)
        assert calls == []
