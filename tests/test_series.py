import math

import numpy as np
import pytest

from hypercollapse import (BetaSeries, CriticalStructure, DegenerateModelError,
                           critical_structure,
                           deficiency, deficiency_grid, evaluate, evaluate_grid,
                           from_binomial_family, from_graph_params)
from helpers import first_negative_root


EX1 = from_graph_params(0.1, 0.5)
EX2_SUB = from_binomial_family(1185.0)


class TestEvaluate:
    def test_zero_polynomial(self):
        assert evaluate(BetaSeries((0.0, 0.0, 0.0)), 0.5, 0) == 0.0

    def test_graph_params_first_derivative_at_zero(self):
        # b1 = -log(1 - p) with p = 0.1
        assert evaluate(EX1, 0.0, 1) == pytest.approx(0.10536051565782630, rel=1e-14)

    def test_binomial_family_value_at_zero(self):
        # b(0) = 1185 * 0.1**7
        assert evaluate(EX2_SUB, 0.0, 0) == pytest.approx(1.185e-4, rel=1e-12)

    def test_matches_naive_power_sum(self):
        series = BetaSeries((0.3, 0.1, 0.0, 0.7, 0.2))
        for t in (0.0, 0.25, 0.9):
            naive = sum(c * t ** j for j, c in enumerate(series.coeffs))
            assert evaluate(series, t, 0) == pytest.approx(naive, rel=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_derivative_orders_match_finite_differences(self, order):
        # central differences of the previous order, absolute 1e-6 at h=1e-5
        series = BetaSeries((0.2, 0.4, 0.15, 0.05, 0.1))
        h = 1e-5
        for t in np.linspace(2 * h, 0.9, 100):
            fd = (evaluate(series, t + h, order - 1)
                  - evaluate(series, t - h, order - 1)) / (2 * h)
            assert evaluate(series, t, order) == pytest.approx(fd, abs=1e-6)

    def test_derivatives_of_steep_series_match_relative(self):
        h = 1e-5
        for t in np.linspace(2 * h, 0.9, 50):
            for order in (1, 2, 3):
                fd = (evaluate(EX2_SUB, t + h, order - 1)
                      - evaluate(EX2_SUB, t - h, order - 1)) / (2 * h)
                val = evaluate(EX2_SUB, t, order)
                assert val == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            evaluate(EX1, 1.0, 0)
        with pytest.raises(ValueError):
            evaluate(EX1, -0.1, 0)
        with pytest.raises(ValueError):
            evaluate(EX1, 0.5, 4)

    def test_grid_matches_scalar(self):
        # the linear series has orders 2 and 3 above its degree: zeros on the grid
        ts = np.linspace(0.0, 0.99, 57)
        for series in (EX2_SUB, BetaSeries((0.3, 0.5))):
            for order in (0, 1, 2, 3):
                grid = evaluate_grid(series, ts, order)
                scalars = [evaluate(series, float(t), order) for t in ts]
                assert grid.shape == ts.shape and np.array_equal(grid, scalars)


class TestBetaSeries:
    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            BetaSeries((0.1, -0.2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BetaSeries(())

    def test_coeff_past_degree_is_zero(self):
        assert BetaSeries((0.5,)).coeff(3) == 0.0


class TestDeficiency:
    def test_zero_series_is_pure_log(self):
        assert deficiency(BetaSeries((0.0,)), 0.5) == pytest.approx(math.log(0.5), rel=1e-15)

    def test_value_at_zero_is_b1_exactly(self):
        assert deficiency(EX1, 0.0) == EX1.coeffs[1]

    def test_hand_evaluation_graph_params(self):
        # b1 + 2*0.25*0.1 + log(0.9) = 0.05 (the b1 and log terms cancel)
        assert deficiency(EX1, 0.1) == pytest.approx(0.05, abs=1e-12)

    def test_definitional_consistency(self):
        for t in np.linspace(0.0, 0.95, 40):
            manual = evaluate(EX2_SUB, float(t), 1) + (math.log(1.0 - t) if t else 0.0)
            assert deficiency(EX2_SUB, float(t)) == pytest.approx(manual, abs=1e-12)

    def test_grid_matches_scalar(self):
        ts = np.linspace(0.0, 0.99, 64)
        grid = deficiency_grid(EX1, ts)
        assert np.allclose(grid, [deficiency(EX1, float(t)) for t in ts],
                           rtol=1e-14, atol=1e-16)


class TestCriticalStructure:
    def test_patches_only_closed_form(self):
        # f = b1 + log(1-t) vanishes at 1 - exp(-b1)
        series = BetaSeries((0.0, math.log(2.0)))
        crit = critical_structure(series)
        assert crit.z_star == pytest.approx(0.5, abs=1e-11)
        assert crit.zeta == ()

    def test_patches_only_matches_poisson_occupancy(self):
        # the identified fraction of a patches-only model is the chance a
        # vertex carries at least one patch
        b1 = math.log(2.0)
        crit = critical_structure(BetaSeries((0.0, b1)))
        rng = np.random.default_rng(5)
        frac = np.mean(rng.poisson(b1, size=20000) >= 1)
        assert crit.z_star == pytest.approx(1.0 - math.exp(-b1), abs=1e-11)
        assert frac == pytest.approx(crit.z_star, abs=0.015)

    def test_binomial_family_subcritical(self):
        crit = critical_structure(EX2_SUB)
        assert 0.015 <= crit.z_star <= 0.025
        assert crit.zeta == ()

    def test_binomial_family_supercritical_runs_to_one(self):
        crit = critical_structure(from_binomial_family(1200.0))
        assert crit.z_star == 1.0
        assert crit.zeta == ()

    def test_degenerate_without_patches(self):
        with pytest.raises(DegenerateModelError):
            critical_structure(BetaSeries((0.0, 0.0, 0.3)))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            critical_structure(EX1, tangency_tolerance=0.0)

    @pytest.mark.parametrize("coeffs", [(0.0, 1.0, 1e308), (1.7e308, 1.0, 1e307)])
    def test_overflowing_series_rejected_before_the_scan(self, coeffs):
        # b'(1) = sum j*bj overflows in the first, b(1) = sum bj alone in the second
        with pytest.raises(ValueError, match="must be finite"):
            critical_structure(BetaSeries(coeffs))

    @pytest.mark.parametrize("z_star, zeta, tol", [
        (math.nan, (), 1e-9), (0.0, (), 1e-9), (1.5, (), 1e-9),
        (0.5, (0.5,), 1e-9), (0.9, (0.25, 0.25), 1e-9), (0.9, (0.95,), 1e-9),
        (0.9, (-0.5,), 1e-9), (0.9, (0.0,), 1e-9), (0.9, (math.nan,), 1e-9),
        (0.9, (0.25,), 0.0), (0.9, (0.25,), math.inf),
    ])
    def test_structure_invariants(self, z_star, zeta, tol):
        with pytest.raises(ValueError):
            CriticalStructure(z_star=z_star, zeta=zeta, tangency_tolerance=tol)

    def test_graph_params_against_independent_root(self):
        # z_star solves alpha*t + log(1-t) = log(1-p); scan + bisection oracle
        p, alpha = 0.1, 0.5
        oracle = first_negative_root(
            lambda ts: -np.log(1.0 - p) + alpha * ts + np.log(1.0 - ts))
        crit = critical_structure(from_graph_params(p, alpha))
        assert crit.z_star == pytest.approx(oracle, abs=1e-10)

    def test_threshold_is_a_sign_change(self):
        for series in (EX1, EX2_SUB):
            crit = critical_structure(series)
            assert crit.zeta == ()
            assert abs(deficiency(series, crit.z_star)) <= 1e-9
            assert deficiency(series, crit.z_star - 1e-6) > 0.0
            assert deficiency(series, crit.z_star + 1e-6) < 0.0

    def test_monotone_in_patch_coefficient(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            coeffs = [0.0, 0.05 + 0.4 * rng.random(), 0.3 * rng.random(),
                      0.3 * rng.random()]
            lo = critical_structure(BetaSeries(tuple(coeffs))).z_star
            coeffs[1] += 0.2
            hi = critical_structure(BetaSeries(tuple(coeffs))).z_star
            assert hi >= lo - 1e-12


class TestConstructors:
    def test_graph_params_trivial(self):
        assert from_graph_params(0.0, 0.0).coeffs == (0.0, 0.0, 0.0)

    def test_graph_params_values(self):
        series = from_graph_params(0.1, 0.5)
        assert series.coeffs[1] == pytest.approx(0.105361, abs=1e-6)
        assert series.coeffs[2] == 0.25

    def test_graph_params_validation(self):
        with pytest.raises(ValueError):
            from_graph_params(1.0, 0.5)
        with pytest.raises(ValueError):
            from_graph_params(0.5, -1.0)

    def test_binomial_family_expansion(self):
        series = from_binomial_family(2.0, base=0.5, slope=0.5, power=2)
        # 2*(0.5 + 0.5 t)^2 = 0.5 + t + 0.5 t^2
        assert series.coeffs == pytest.approx((0.5, 1.0, 0.5))

    def test_binomial_family_matches_direct_evaluation(self):
        series = from_binomial_family(1185.0)
        for t in (0.0, 0.02, 0.5, 0.9):
            assert evaluate(series, t, 0) == pytest.approx(
                1185.0 * (0.1 + 0.9 * t) ** 7, rel=1e-12)
