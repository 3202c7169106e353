import numpy as np
import pytest

from hypercollapse import (BetaSeries, BracketError, DegenerateModelError,
                           ExperimentConfig, concentration_curve,
                           config_from_json, critical_alpha,
                           critical_structure, deficiency, derive_seed,
                           from_binomial_family, from_graph_params,
                           run_replicas, stream)
from helpers import first_negative_root


EX1 = from_graph_params(0.1, 0.5)


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
            for replica in range(1000):
                seen.add(derive_seed(987654321, n, replica))
        assert len(seen) == 1_000_000

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
        with pytest.raises(ValueError):
            ExperimentConfig(EX1, (1000, 1000), 3, 0)

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

    def test_from_json_rejects_non_boolean_flag(self):
        doc = {"p": 0.1, "alpha": 0.5, "N_values": [50], "replicas": 2,
               "master_seed": 1, "record_trajectory": "false"}
        with pytest.raises(ValueError):
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
        cfg = ExperimentConfig(EX1, (200,), 10, master_seed=4,
                               record_trajectory=True, delta=0.05)
        result = run_replicas(cfg)
        for r in result.records:
            assert r.deviation is not None and np.isfinite(r.deviation)
        assert result.aggregates[0].dev_freq is not None

    def test_delta_validation(self):
        cfg = ExperimentConfig(EX1, (200,), 5, master_seed=4)
        with pytest.raises(ValueError):
            concentration_curve(cfg, delta=0.0)


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

    def test_bracket_errors(self):
        with pytest.raises(BracketError):
            critical_alpha(from_binomial_family, 1200.0, 1185.0)
        with pytest.raises(BracketError):
            # both subcritical
            critical_alpha(from_binomial_family, 1100.0, 1185.0)
        with pytest.raises(BracketError):
            # both supercritical
            critical_alpha(from_binomial_family, 1200.0, 1300.0)
