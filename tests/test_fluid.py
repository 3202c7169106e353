import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from hypercollapse import (BetaSeries, CriticalStructure, FluidModel,
                           critical_alpha, critical_structure,
                           deficiency, diffusion_factors, drift,
                           edge_rate_curve, evaluate, from_binomial_family,
                           from_graph_params, limit_fractions,
                           patch_overlap_average, path, path_grid, run,
                           sample_limit_fraction, sigma_sq,
                           simulate_fluctuation, stream)
from hypercollapse.series import T_CAP
from helpers import (central_difference, euler_fluctuation, jump_moment_matrix,
                     piecewise_quad)


EX1 = from_graph_params(0.1, 0.5)
EX2_SUB = from_binomial_family(1185.0)
ZERO = BetaSeries((0.0,))
PATCHES_ONLY = BetaSeries((0.0, math.log(2.0)))
CUBIC = BetaSeries((0.3, 0.8, 0.6, 0.4))
ALPHA = 1e-3            # two-sided level of each moment check, as in the acceptance battery
Z_ALPHA = norm.ppf(1.0 - ALPHA / 2.0)


def tangent_model():
    alpha_c, zeta0 = critical_alpha(from_binomial_family, 1185.0, 1200.0)
    series = from_binomial_family(alpha_c)
    return series, critical_structure(series), zeta0


class TestDrift:
    def test_initial_state(self):
        b = drift((0.0, EX1.coeffs[1], EX1.coeffs[0]), EX1)
        b1 = EX1.coeffs[1]
        assert b == pytest.approx([1.0, -1.0 - b1 + 2 * 0.25, 1.0 + b1])

    def test_zero_series_state(self):
        assert drift((0.5, 0.2, 0.0), ZERO) == pytest.approx([1.0, -1.4, 1.4])

    def test_singularity(self):
        for field in (drift, diffusion_factors):
            with pytest.raises(ValueError, match="singular"):
                field((1.0, 0.2, 0.0), EX1)

    def test_patch_drift_vanishes_at_tangency(self):
        series, _, zeta0 = tangent_model()
        b = drift(path(zeta0, series), series)
        assert abs(b[1]) < 1e-8


class TestDiffusionFactors:
    def test_no_patches_kills_first_column(self):
        v1, v2, v3 = diffusion_factors((0.3, 0.0, 0.5), EX1)
        assert np.all(v1 == 0.0)

    def test_zero_series_kills_second_column(self):
        v1, v2, v3 = diffusion_factors((0.3, 0.5, 0.5), ZERO)
        assert np.all(v2 == 0.0)

    def test_negative_patch_density_rejected(self):
        with pytest.raises(ValueError):
            diffusion_factors((0.3, -0.1, 0.5), EX1)

    def test_outer_products_match_jump_moments(self):
        # sigma sigma^T vs brute-force E(J x J); acceptance runs 100 states
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = np.array([0.9 * rng.random(), 2 * rng.random(), 2 * rng.random()])
            v1, v2, v3 = diffusion_factors(x, EX1)
            got = np.outer(v1, v1) + np.outer(v2, v2) + np.outer(v3, v3)
            mu_shared = x[1] / (1.0 - x[0])
            mu_new = (1.0 - x[0]) * evaluate(EX1, float(x[0]), 2)
            want = jump_moment_matrix(mu_shared, mu_new)
            assert np.max(np.abs(got - want)) < 1e-8


class TestPath:
    def test_initial_point(self):
        x = path(0.0, EX1)
        assert x[0] == 0.0
        assert x[1] == EX1.coeffs[1]
        assert x[2] == EX1.coeffs[0]

    def test_domain_and_cap(self):
        with pytest.raises(ValueError):
            path(1.0, EX1)
        x = path(1.0 - 1e-12, EX1)
        assert x[0] == 1.0 - 1e-9

    def test_subcritical_family_freezes_near_two_percent(self):
        crit = critical_structure(EX2_SUB)
        x = path(crit.z_star, EX2_SUB)
        assert abs(x[1]) < 1e-9
        assert 0.015 <= x[2] <= 0.025

    def test_velocity_equals_drift(self):
        # the acceptance suite runs the full 10^3-point version
        for series in (EX1, EX2_SUB):
            z = critical_structure(series).z_star
            hi = min(0.9, z)
            for t in np.linspace(1e-4, hi - 1e-4, 200):
                fd = central_difference(lambda u: path(u, series), float(t))
                residual = np.abs(fd - drift(path(float(t), series), series))
                assert residual.max() < 1e-6

    def test_grid_matches_scalar(self):
        ts = np.linspace(0.0, 0.95, 37)
        grid = path_grid(ts, EX2_SUB)
        scalars = np.array([path(float(t), EX2_SUB) for t in ts])
        assert np.allclose(grid, scalars, rtol=1e-14, atol=0.0)


class TestLimitFractions:
    def test_patches_only_closed_form(self):
        v_frac, edge_frac = limit_fractions(PATCHES_ONLY)
        assert v_frac == pytest.approx(0.5, abs=1e-10)
        assert edge_frac == pytest.approx(math.log(2.0), abs=1e-10)

    def test_tiny_patch_coefficient_vanishes(self):
        v_frac, edge_frac = limit_fractions(BetaSeries((0.0, 1e-9)))
        assert v_frac < 1e-6
        assert edge_frac < 1e-6

    def test_graph_params_match_root_equation(self):
        crit = critical_structure(EX1)
        v_frac, edge_frac = limit_fractions(EX1, crit)
        assert v_frac == crit.z_star
        z = crit.z_star
        want = evaluate(EX1, z, 0) - (1 - z) * math.log(1 - z)
        assert edge_frac == pytest.approx(want, rel=1e-12)

    def test_warns_on_tangency(self):
        crit = CriticalStructure(z_star=0.5, zeta=(0.2,), tangency_tolerance=1e-9)
        with pytest.warns(UserWarning):
            limit_fractions(PATCHES_ONLY, crit)


class TestSigmaSq:
    def test_starts_at_patch_coefficient(self):
        assert sigma_sq(0.0, EX1) == EX1.coeffs[1]
        assert sigma_sq(0.0, EX2_SUB) == EX2_SUB.coeffs[1]

    def test_quadrature_of_running_variance(self):
        # integral form: b1 + int_0^t (f(s) + (1-s) b''(s)) / (1-s)^2 ds
        def integrand(s):
            return ((deficiency(EX2_SUB, s) + (1 - s) * evaluate(EX2_SUB, s, 2))
                    / (1 - s) ** 2)

        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            integral = EX2_SUB.coeffs[1] + piecewise_quad(integrand, 0.0, t)
            assert abs(sigma_sq(t, EX2_SUB) - integral) < 1e-8

    def test_time_change_at_tangency(self):
        series, crit, _ = tangent_model()
        assert len(crit.zeta) == 1
        z = crit.zeta[0]
        assert abs(sigma_sq(z, series) - z / (1 - z)) <= crit.tangency_tolerance


class TestSampleLimitFraction:
    def test_empty_tangency_set(self):
        crit = CriticalStructure(z_star=0.4, zeta=(), tangency_tolerance=1e-9)
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = sample_limit_fraction(crit, rng)
            assert s.value == 0.4 and not s.hit_tangency

    def test_single_point_half_half(self):
        crit = CriticalStructure(z_star=0.9, zeta=(0.25,), tangency_tolerance=1e-9)
        rng = np.random.default_rng(1)
        draws = 4000
        hits = sum(sample_limit_fraction(crit, rng).hit_tangency
                   for _ in range(draws))
        assert abs(hits / draws - 0.5) < 0.03

    def test_two_point_chain_against_gaussian_orthant(self):
        z1, z2, z_star = 0.2, 0.4, 0.6
        t1, t2 = z1 / (1 - z1), z2 / (1 - z2)
        # P(stop at z2) = P(W(t1) > 0, W(t2) < 0)
        want, _ = quad(lambda w: norm.pdf(w, scale=math.sqrt(t1))
                       * norm.cdf(-w / math.sqrt(t2 - t1)), 0, np.inf)
        crit = CriticalStructure(z_star=z_star, zeta=(z1, z2),
                                 tangency_tolerance=1e-9)
        rng = np.random.default_rng(2)
        draws = 20_000
        values = [sample_limit_fraction(crit, rng).value for _ in range(draws)]
        frac_z1 = values.count(z1) / draws
        frac_z2 = values.count(z2) / draws
        assert abs(frac_z1 - 0.5) < 0.02
        assert abs(frac_z2 - want) < 0.02

    def test_unsorted_zeta_rejected(self):
        with pytest.raises(ValueError):
            CriticalStructure(z_star=0.9, zeta=(0.4, 0.2), tangency_tolerance=1e-9)


def limit_moments(series: BetaSeries, t: float) -> np.ndarray:
    """Closed-form (Var M, Var S, Cov(M, S)) of the Gaussian limit at t, for
    M = g2/(1-t) and S = g2 + g3."""
    slope = evaluate(series, t, 1)
    return np.array([sigma_sq(t, series), evaluate(series, t, 0) + (1 - t) * slope,
                     slope])


def sample_moments(g: np.ndarray, t: float) -> np.ndarray:
    """Sample (Var M, Var S, Cov(M, S)) of fluctuation rows g = (g1, g2, g3)."""
    c = np.cov(g[:, 1] / (1.0 - t), g[:, 1] + g[:, 2])
    return np.array([c[0, 0], c[1, 1], c[0, 1]])


def moment_sd(moments: np.ndarray, n: int) -> np.ndarray:
    """Standard deviations of the three sample moments of n Gaussian pairs
    with these moments: Var(s_ij) = (m_ij^2 + m_ii m_jj) / (n - 1)."""
    var_m, var_s, cov = moments
    return np.sqrt(np.array([2 * var_m ** 2, 2 * var_s ** 2, cov ** 2 + var_m * var_s])
                   / (n - 1))


class TestSimulateFluctuation:
    def test_first_component_stays_zero(self):
        ts, paths = simulate_fluctuation(PATCHES_ONLY, 0.3, 1000,
                                         np.random.default_rng(0), n_paths=16)
        assert np.all(paths[:, :, 0] == 0.0)
        assert paths.shape == (16, 1001, 3)
        assert ts[-1] == pytest.approx(0.3)

    def test_patch_variance_matches_clock(self):
        # var of the normalized patch fluctuation at t = 0.3 vs sigma_sq; the
        # sampler is exact, so one step reaches t = 0.3 without error
        ts, paths = simulate_fluctuation(PATCHES_ONLY, 0.3, 1,
                                         np.random.default_rng(3), n_paths=10_000)
        alpha = paths[:, -1, 1] / (1.0 - 0.3)
        want = sigma_sq(0.3, PATCHES_ONLY)
        assert abs(alpha.var() / want - 1.0) < 0.05

    def test_variance_grows_in_time(self):
        # analytic clock is nondecreasing before the threshold, and the
        # empirical variance follows it
        ts = np.linspace(0.0, 0.45, 200)
        clocks = np.array([sigma_sq(float(t), PATCHES_ONLY) for t in ts])
        assert np.all(np.diff(clocks) > 0.0)
        # grid columns 1-3 are t = 0.15, 0.3, 0.45
        _, paths = simulate_fluctuation(PATCHES_ONLY, 0.45, 3,
                                        np.random.default_rng(4), n_paths=10_000)
        variances = [paths[:, i, 1].var() / (1 - t) ** 2
                     for i, t in zip((1, 2, 3), (0.15, 0.3, 0.45))]
        assert variances[0] < variances[1] < variances[2]

    def test_one_step_matches_fine_grid(self):
        # an exact sampler has no discretisation error: 1 step and 1000
        # steps give the same terminal law; level ALPHA on each difference
        t, n = 0.25, 4000
        _, coarse = simulate_fluctuation(CUBIC, t, 1, np.random.default_rng(6), n_paths=n)
        _, fine = simulate_fluctuation(CUBIC, t, 1000, np.random.default_rng(7), n_paths=n)
        gap = np.abs(sample_moments(coarse[:, -1], t) - sample_moments(fine[:, -1], t))
        assert np.all(gap <= Z_ALPHA * math.sqrt(2.0) * moment_sd(limit_moments(CUBIC, t), n))

    def test_terminal_moments_match_euler_oracle(self):
        # exact sampler on 4 steps vs the Euler oracle on 500 (dt = 5e-4,
        # whose bias is below 0.1%), 40k paths each: each gap of Var M,
        # Var S and Cov(M, S) within the level-ALPHA two-sided interval
        # of a difference of two independent sample moments
        t, n = 0.25, 40_000
        _, paths = simulate_fluctuation(CUBIC, t, 4, np.random.default_rng(21), n_paths=n)
        oracle = euler_fluctuation(CUBIC.coeffs, t, 500, np.random.default_rng(22), n)
        gap = np.abs(sample_moments(paths[:, -1], t) - sample_moments(oracle, t))
        assert np.all(gap <= Z_ALPHA * math.sqrt(2.0) * moment_sd(limit_moments(CUBIC, t), n))

    @pytest.mark.parametrize("n_steps, n_paths", [
        (1000.7, 1), (0, 1), (-5, 1), (True, 1), ("10", 1),
        (10, True), (10, 2.5), (10, "3"), (10, 0), (10, math.nan)])
    def test_counts_must_be_whole_and_positive(self, n_steps, n_paths):
        with pytest.raises(ValueError):
            simulate_fluctuation(PATCHES_ONLY, 0.3, n_steps, np.random.default_rng(0),
                                 n_paths=n_paths)

    def test_horizon_must_precede_threshold(self):
        with pytest.raises(ValueError):
            simulate_fluctuation(PATCHES_ONLY, 0.6, 2000, np.random.default_rng(0))


def test_chain_fluctuations_match_gaussian_limit():
    """The chain's fluctuation at t = 0.1 against the Gaussian limit.

    EX1 at N = 1e5: replicas r < 3000 on stream(7, r), sharing one rate
    table.  Row k = 10_000 (t = 0.1) of each trajectory maps to
    g = (count - N path(t)) / sqrt(N), with M = g2/(1-t) and S = g2 + g3.
    Each sample moment (Var M, Var S, Cov(M, S)) must lie in the two-sided
    level-1e-3 interval m +- 3.29 sd around the limit's closed form m, where
    sd^2 = (m_ij^2 + m_ii m_jj) / 2999 is the variance of that sample moment
    over 3000 Gaussian pairs; the limit values are 0.1667, 0.1529 and
    0.1554, and the intervals are about +-8.5%, +-8.5% and +-8.6% of them.
    """
    n_vertices, k, replicas = 100_000, 10_000, 3000
    t = k / n_vertices
    table = edge_rate_curve(n_vertices, 2, EX1)

    def row(r: int) -> np.ndarray:
        return run(n_vertices, EX1, stream(7, r), record_trajectory=True,
                   rate_table=table).trajectory[k]

    # the compiled steps release the interpreter lock
    with ThreadPoolExecutor(2) as pool:
        rows = np.array(list(pool.map(row, range(replicas))))
    assert np.all(rows[:, 0] == k)
    g = (rows - n_vertices * path(t, EX1)) / math.sqrt(n_vertices)
    got, want = sample_moments(g, t), limit_moments(EX1, t)
    assert np.all(np.abs(got - want) <= Z_ALPHA * moment_sd(want, replicas)), (got, want)


class TestFluidModel:
    def test_default_horizon(self):
        model = FluidModel.build(EX1)
        assert model.t_max == pytest.approx(
            min(0.999, critical_structure(EX1).z_star + 0.1))

    def test_curve_columns(self):
        model = FluidModel.build(EX1)
        curve = model.curve(101)
        assert curve.shape == (101, 6)
        assert np.all(curve[:, 0] == curve[:, 1])
        t = curve[50, 0]
        assert curve[50, 4] == pytest.approx(deficiency(EX1, float(t)), rel=1e-12)
        assert curve[50, 5] == pytest.approx(sigma_sq(float(t), EX1), rel=1e-12)

    @pytest.mark.parametrize("t_max", [1.0, 2.0, 0.0, -0.5, math.nan])
    def test_horizon_outside_the_unit_interval_is_refused(self, t_max):
        with pytest.raises(ValueError, match=r"^t_max must be in \(0, 1\)$"):
            FluidModel.build(EX1, t_max=t_max)

    def test_horizon_near_one_is_capped(self):
        assert FluidModel.build(EX1, t_max=1.0 - 1e-12).t_max == T_CAP
        assert FluidModel.build(EX1, t_max=0.5).t_max == 0.5

    @pytest.mark.parametrize("grid_points", [1000.7, "5", True])
    def test_grid_points_must_be_whole(self, grid_points):
        with pytest.raises(ValueError, match="grid_points must be a whole number"):
            FluidModel.build(EX1).curve(grid_points)


@pytest.mark.parametrize("name, call", [
    ("t_max", lambda bad: FluidModel.build(EX1, t_max=bad)),
    ("t_end", lambda bad: simulate_fluctuation(EX1, bad, 3, np.random.default_rng(0))),
    ("alpha_lo", lambda bad: critical_alpha(from_binomial_family, bad, 1200.0)),
    ("alpha_hi", lambda bad: critical_alpha(from_binomial_family, 1185.0, bad)),
])
@pytest.mark.parametrize("bad", ["0.1", True, [0.1]])
def test_real_arguments_must_be_numbers(name, call, bad):
    with pytest.raises(ValueError, match=f"^{name} must be a number"):
        call(bad)


class TestPatchOverlapAverage:
    def test_supercritical_family_value(self):
        # closed-form cross-check: 10 * [1200 (1 - 0.91^7) + 0.1 log 0.1 - 0.1]
        want = 10.0 * (1200.0 * (1.0 - 0.91 ** 7) + 0.1 * math.log(0.1) - 0.1)
        got = patch_overlap_average(from_binomial_family(1200.0))
        assert got == pytest.approx(want, rel=1e-6)
