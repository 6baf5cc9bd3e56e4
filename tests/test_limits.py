"""Schedules, extrapolation, reports and study orchestration."""

from __future__ import annotations

import math

import numpy as np
import pytest

import anisomag as am


class TestSchedule:
    def test_defaults(self):
        assert am.default_schedule("s").values == (0.80, 0.88, 0.93, 0.96, 0.98, 0.99)
        assert am.default_schedule("delta").values == (0.1, 0.05, 0.02, 0.01, 0.005)
        assert am.default_schedule("n").values == (4, 8, 16, 32, 64)

    def test_t_values(self):
        np.testing.assert_allclose(am.Schedule("s", (0.8, 0.9, 0.95, 0.99)).t_values,
                                   [0.2, 0.1, 0.05, 0.01])
        np.testing.assert_allclose(am.Schedule("n", (2, 4, 8, 16)).t_values,
                                   [0.5, 0.25, 0.125, 0.0625])

    def test_validation(self):
        with pytest.raises(ValueError):
            am.Schedule("s", (0.8, 0.9, 0.95))  # too short
        with pytest.raises(ValueError):
            am.Schedule("s", (0.9, 0.8, 0.95, 0.99))  # not increasing
        with pytest.raises(ValueError):
            am.Schedule("delta", (0.1, 0.2, 0.05, 0.01))  # not decreasing
        with pytest.raises(ValueError):
            am.Schedule("n", (4, 8, 8, 16))
        with pytest.raises(ValueError):
            am.Schedule("weird", (1, 2, 3, 4))


class TestExtrapolate:
    def test_exact_linear_recovery(self):
        t = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
        v = 3.0 + 2.0 * t
        ex = am.extrapolate([(ti, vi, 1e-8) for ti, vi in zip(t, v)])
        assert ex.limit == pytest.approx(3.0, abs=1e-6)
        assert ex.rate == pytest.approx(1.0, abs=1e-3)
        assert ex.residual < 1e-6

    def test_constant_values(self):
        t = np.array([0.2, 0.1, 0.05, 0.025])
        ex = am.extrapolate([(ti, 7.5, 1e-8) for ti in t])
        assert ex.limit == pytest.approx(7.5, abs=1e-10)
        assert not ex.rate_determined
        assert ex.residual == pytest.approx(0.0, abs=1e-12)

    def test_zero_data_gives_zero_limit(self):
        # all-zero values and errors: the error floor must not underflow into
        # infinite weights (0 * inf = NaN)
        t = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
        ex = am.extrapolate([(ti, 0.0, 0.0) for ti in t])
        assert ex.limit == 0.0
        assert ex.fit_model == "constant"
        assert not ex.rate_determined
        for value in (ex.rate, ex.residual, ex.aitken, ex.limit_stderr):
            assert math.isfinite(value)
        assert 0.0 <= ex.limit_stderr < 1e-100

    def test_sqrt_rate_with_noise(self):
        rng = np.random.default_rng(0)
        t = np.array([0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625])
        v = 2.0 + 0.5 * np.sqrt(t) + rng.normal(0.0, 1e-6, len(t))
        ex = am.extrapolate([(ti, vi, 1e-6) for ti, vi in zip(t, v)])
        assert abs(ex.limit - 2.0) < 1e-4

    def test_aitken_on_geometric_sequence(self):
        # v = C + a q^k is accelerated exactly by the delta-squared formula
        t = np.array([0.1, 0.05, 0.025, 0.0125])
        v = 5.0 + 3.0 * t  # geometric in t with ratio 1/2
        ex = am.extrapolate([(ti, vi, 1e-9) for ti, vi in zip(t, v)])
        assert ex.aitken == pytest.approx(5.0, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            am.extrapolate([(0.1, 1.0, 0.0), (0.05, 1.0, 0.0), (0.025, 1.0, 0.0)])
        with pytest.raises(ValueError):
            am.extrapolate([(0.05, 1.0, 0.0), (0.1, 1.0, 0.0),
                            (0.025, 1.0, 0.0), (0.0125, 1.0, 0.0)])

    def test_noisy_flat_data_falls_back(self):
        rng = np.random.default_rng(3)
        t = np.array([0.1, 0.05, 0.02, 0.01, 0.005])
        v = 10.0 + rng.normal(0.0, 0.05, len(t))
        ex = am.extrapolate([(ti, vi, 0.05) for ti, vi in zip(t, v)])
        assert ex.fit_model in ("linear", "constant")
        assert abs(ex.limit - 10.0) < 0.2


class TestCompare:
    def test_exact_match_passes(self):
        ex = am.Extrapolation(5.0, 1.0, 0.0, 5.0, 0.0, True, "power")
        passed, _ = am.compare(ex, 5.0, 0.01)
        assert passed

    def test_two_percent_off_fails_at_one_percent(self):
        ex = am.Extrapolation(5.1, 1.0, 0.0, 5.1, 1e-12, True, "power")
        passed, _ = am.compare(ex, 5.0, 0.01)
        assert not passed

    def test_two_percent_off_passes_at_three_percent(self):
        ex = am.Extrapolation(5.1, 1.0, 0.0, 5.1, 1e-12, True, "power")
        passed, _ = am.compare(ex, 5.0, 0.03)
        assert passed

    def test_diagnostics_error_source(self):
        pts = [am.StudyPoint(0.1, 0.1, 5.2, 0.2, 5.2),
               am.StudyPoint(0.05, 0.05, 5.1, 0.1, 5.1)]
        ex = am.Extrapolation(5.0, 1.0, 0.0, 5.0, 0.01, True, "power")
        _, diag = am.compare(ex, 5.0, 0.02, pts)
        assert diag["dominant_error_source"] in ("quadrature", "schedule truncation")


class TestRunStudy:
    def test_zero_field_trivial_pass(self):
        u0 = am.zero_field(2)
        zero = am.zero_potential(2)
        ball = am.EuclideanBall(2)
        budget = am.IntegrationBudget(outer="tensor", resolution=16, sphere_nodes=16)
        for kind in ("gagliardo", "nguyen", "bbm"):
            rep = am.run_study(u0, zero, ball, 2.0, kind, budget=budget, seed=1,
                               tolerance=0.02, target_grid=am.GridSpec(resolution=16))
            assert rep.passed
            assert rep.extrapolation.limit == pytest.approx(0.0, abs=1e-12)
            assert rep.target == pytest.approx(0.0, abs=1e-12)

    def test_report_round_trip(self):
        u0 = am.zero_field(2)
        rep = am.run_study(u0, am.zero_potential(2), am.EuclideanBall(2), 2.0,
                           "gagliardo",
                           budget=am.IntegrationBudget(outer="tensor", resolution=16,
                                                       sphere_nodes=16),
                           seed=3, target_grid=am.GridSpec(resolution=16))
        text = rep.to_json()
        back = am.ConvergenceReport.from_json(text)
        assert back == rep
        assert back.to_json() == text

    def test_csv_and_plot_outputs(self, tmp_path):
        u0 = am.zero_field(2)
        rep = am.run_study(u0, am.zero_potential(2), am.EuclideanBall(2), 2.0,
                           "gagliardo",
                           budget=am.IntegrationBudget(outer="tensor", resolution=16,
                                                       sphere_nodes=16),
                           seed=3, target_grid=am.GridSpec(resolution=16))
        csv_path = tmp_path / "points.csv"
        rep.write_points_csv(csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "parameter,value,error"
        assert len(lines) == 1 + len(rep.points)
        dat_path = tmp_path / "plot.dat"
        rep.write_plot_dat(dat_path)
        assert len(dat_path.read_text().splitlines()) == len(rep.points)

    def test_indicator_needs_p1(self):
        ind = am.indicator(am.unit_square())
        with pytest.raises(ValueError):
            am.run_study(ind, am.zero_potential(2), am.EuclideanBall(2), 2.0, "bbm",
                         budget=am.IntegrationBudget(outer="tensor", resolution=16))

    def test_indicator_needs_tensor_outer(self):
        # the indicator pipelines integrate on midpoint grids; with a Monte
        # Carlo budget the study used to grow the unused sample count and
        # report a verdict from fixed-resolution grids
        budget = am.IntegrationBudget(outer="montecarlo", samples=64, resolution=32)
        with pytest.raises(ValueError, match="tensor"):
            am.run_study(am.indicator(am.unit_square()), am.zero_potential(2),
                         am.EuclideanBall(2), 1.0, "bbm", None, budget)

    def test_threads_do_not_change_results(self):
        u = am.gaussian(2)
        zero = am.zero_potential(2)
        ball = am.EuclideanBall(2)
        schedule = am.Schedule("s", (0.8, 0.88, 0.93, 0.96))
        budget = am.IntegrationBudget(outer="tensor", resolution=24, sphere_nodes=32)
        rep1 = am.run_study(u, zero, ball, 2.0, "gagliardo", schedule, budget, seed=7,
                            target_grid=am.GridSpec(resolution=32), threads=1)
        rep4 = am.run_study(u, zero, ball, 2.0, "gagliardo", schedule, budget, seed=7,
                            target_grid=am.GridSpec(resolution=32), threads=4)
        assert rep1.to_json() == rep4.to_json()

    def test_monotone_refinement(self):
        # doubling the budget moves each point less than its reported error
        u = am.gaussian(2)
        zero = am.zero_potential(2)
        ball = am.EuclideanBall(2)
        schedule = am.Schedule("s", (0.8, 0.88, 0.93, 0.96))
        base = am.IntegrationBudget(outer="tensor", resolution=32, sphere_nodes=48)
        double = am.IntegrationBudget(outer="tensor", resolution=64, sphere_nodes=96)
        rep_b = am.run_study(u, zero, ball, 2.0, "gagliardo", schedule, base, seed=5,
                             target_grid=am.GridSpec(resolution=48))
        rep_d = am.run_study(u, zero, ball, 2.0, "gagliardo", schedule, double, seed=5,
                             target_grid=am.GridSpec(resolution=48))
        for pb, pd in zip(rep_b.points, rep_d.points):
            assert abs(pb.value - pd.value) <= max(pb.error, 1e-9 * abs(pb.value))

    def test_normalization_against_bbm_target(self):
        # the ludwig-family study targets p times the fractional-study target
        u = am.gaussian(2)
        zero = am.zero_potential(2)
        ball = am.EuclideanBall(2)
        fam = am.LudwigFamily(2, 2.0, lambda n: 1.0 - 1.0 / n)
        sched_n = am.Schedule("n", (5, 10, 25, 50, 100))
        budget = am.IntegrationBudget(outer="tensor", resolution=32, sphere_nodes=48)
        rep_bbm = am.run_study(u, zero, ball, 2.0, "bbm", sched_n, budget, seed=2,
                               mollifier_family=fam,
                               target_grid=am.GridSpec(resolution=64))
        rep_gag = am.run_study(u, zero, ball, 2.0, "gagliardo",
                               am.Schedule("s", tuple(1.0 - 1.0 / n for n in (5, 10, 25, 50, 100))),
                               budget, seed=2, target_grid=am.GridSpec(resolution=64))
        assert rep_bbm.target == pytest.approx(2.0 * rep_gag.target, rel=1e-12)
        for pb, pg in zip(rep_bbm.points, rep_gag.points):
            # bbm point = p (1 - s_n) * raw fractional value = p * normalized value
            assert pb.value == pytest.approx(2.0 * pg.value, rel=1e-12)
