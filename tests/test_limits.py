"""Schedules, extrapolation, reports and study orchestration."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import anisomag as am

# (powers, schedule) of each study path: indicator fields, the threshold
# functional, the shrinking family on smooth fields, and the fractional
# seminorm or Ludwig family on smooth fields
PATH_EXPANSIONS = [
    ((1,), am.default_schedule("n")),
    ((1,), am.default_schedule("delta")),
    ((2, 4), am.default_schedule("n")),
    ((1, 2, 3), am.Schedule("s", (0.80, 0.88, 0.93, 0.96, 0.98, 0.99, 0.995))),
]
PATH_IDS = ["indicator", "nguyen", "shrinking", "fractional"]


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
        ex = am.extrapolate([(ti, vi, 1e-8) for ti, vi in zip(t, v)], (1,))
        assert ex.limit == pytest.approx(3.0, abs=1e-6)
        assert ex.residual < 1e-6

    def test_constant_values(self):
        t = np.array([0.2, 0.1, 0.05, 0.025])
        ex = am.extrapolate([(ti, 7.5, 1e-8) for ti in t], (1, 2, 3))
        assert ex.limit == pytest.approx(7.5, abs=1e-10)
        assert ex.fit_model == "1, t, t^2"
        assert ex.residual == pytest.approx(0.0, abs=1e-12)

    def test_zero_data_gives_zero_limit(self):
        # all-zero values and errors: the error floor must not underflow into
        # infinite weights (0 * inf = NaN)
        t = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
        ex = am.extrapolate([(ti, 0.0, 0.0) for ti in t], (2, 4))
        assert ex.limit == 0.0
        assert ex.fit_model == "1, t^2, t^4"
        for value in (ex.residual, ex.aitken, ex.limit_stderr):
            assert math.isfinite(value)
        assert 0.0 <= ex.limit_stderr < 1e-100

    def test_sqrt_rate_with_noise(self):
        rng = np.random.default_rng(0)
        t = np.array([0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625])
        v = 2.0 + 0.5 * np.sqrt(t) + rng.normal(0.0, 1e-6, len(t))
        ex = am.extrapolate([(ti, vi, 1e-6) for ti, vi in zip(t, v)], (0.5,))
        assert abs(ex.limit - 2.0) < 1e-4
        assert ex.fit_model == "1, t^0.5"

    def test_aitken_on_geometric_sequence(self):
        # v = C + a q^k is accelerated exactly by the delta-squared formula
        t = np.array([0.1, 0.05, 0.025, 0.0125])
        v = 5.0 + 3.0 * t  # geometric in t with ratio 1/2
        ex = am.extrapolate([(ti, vi, 1e-9) for ti, vi in zip(t, v)], (1,))
        assert ex.aitken == pytest.approx(5.0, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            am.extrapolate([(0.1, 1.0, 0.0), (0.05, 1.0, 0.0), (0.025, 1.0, 0.0)], (1,))
        with pytest.raises(ValueError):
            am.extrapolate([(0.05, 1.0, 0.0), (0.1, 1.0, 0.0),
                            (0.025, 1.0, 0.0), (0.0125, 1.0, 0.0)], (1,))

    def test_noisy_flat_data_falls_back(self):
        rng = np.random.default_rng(3)
        t = np.array([0.1, 0.05, 0.02, 0.01, 0.005])
        v = 10.0 + rng.normal(0.0, 0.05, len(t))
        ex = am.extrapolate([(ti, vi, 0.05) for ti, vi in zip(t, v)], (1,))
        assert ex.fit_model == "1, t"
        assert abs(ex.limit - 10.0) < 0.2


class TestExpansionFit:
    @pytest.mark.parametrize("powers, schedule", PATH_EXPANSIONS, ids=PATH_IDS)
    def test_exact_polynomial_recovery(self, powers, schedule):
        t = schedule.t_values
        v = 3.0 + sum(c * t**q for c, q in zip((2.0, -1.5, 0.7), powers))
        ex = am.extrapolate([(ti, vi, 1e-3) for ti, vi in zip(t, v)], powers)
        assert ex.limit == pytest.approx(3.0, rel=1e-12, abs=0.0)
        assert ex.fit_model == ", ".join(["1"] + [f"t^{q}" if q != 1 else "t" for q in powers])

    def test_four_points_keep_one_degree_of_freedom(self):
        # three of the fractional path's four powers fit four points: the
        # standard error is that of weighted least squares with one degree
        # of freedom, chi^2 not divided by zero
        t = am.Schedule("s", (0.8, 0.88, 0.93, 0.96)).t_values
        v = 1.0 + t + t**2 + np.array([0.02, -0.01, 0.015, -0.02])
        ex = am.extrapolate([(ti, vi, 1e-3) for ti, vi in zip(t, v)], (1, 2, 3))
        assert ex.fit_model == "1, t, t^2"
        design = t[:, None] ** np.arange(3) / 1e-3
        coef, chi2, *_ = np.linalg.lstsq(design, v / 1e-3, rcond=None)
        cov = np.linalg.inv(np.einsum("ij,ik->jk", design, design))
        assert ex.limit == pytest.approx(coef[0], rel=1e-10)
        assert ex.limit_stderr == pytest.approx(math.sqrt(cov[0, 0] * chi2[0] / 1), rel=1e-8)
        assert ex.residual == pytest.approx(math.sqrt(chi2[0] / 4), rel=1e-8)

    @pytest.mark.parametrize("powers, schedule", PATH_EXPANSIONS, ids=PATH_IDS)
    @given(data=st.data())
    def test_limit_is_linear_in_the_values(self, powers, schedule, data):
        # for fixed t and errors the limit is one linear combination of the
        # values; errors stay above the 1e-12 * scale floor, so the weights
        # do not move with the values.  Below the smallest normal number
        # rounding is absolute, hence the tiny slack.
        m = len(schedule.values)
        floats = st.floats(-100.0, 100.0, allow_subnormal=False)
        v1 = np.array(data.draw(st.lists(floats, min_size=m, max_size=m)))
        v2 = np.array(data.draw(st.lists(floats, min_size=m, max_size=m)))
        errors = data.draw(st.lists(st.floats(1e-6, 1.0), min_size=m, max_size=m))
        alpha, beta = data.draw(st.floats(-10.0, 10.0)), data.draw(st.floats(-10.0, 10.0))

        def limit(v):
            return am.extrapolate(list(zip(schedule.t_values, v, errors)), powers).limit

        combined = limit(alpha * v1 + beta * v2)
        scale = abs(alpha) * np.max(np.abs(v1)) + abs(beta) * np.max(np.abs(v2))
        assert (abs(combined - (alpha * limit(v1) + beta * limit(v2)))
                <= 1e-12 * scale + np.finfo(float).tiny)

    def test_one_ulp_moves_the_limit_by_rounding_only(self):
        # the limit is a fixed combination of the values, so one ulp of each
        # moves it by rounding only; a nonlinear power-law fit moves this
        # study's limit by 8e-11
        rep = am.run_study(am.modulated_gaussian(2, [1.0, 0.0]), am.rotational_potential(1.0),
                           am.EuclideanBall(2), 2.0, "bbm", None,
                           am.IntegrationBudget(outer="tensor", resolution=16, sphere_nodes=16),
                           target_grid=am.GridSpec(resolution=16))
        assert rep.extrapolation.fit_model == "1, t^2, t^4"
        t = [pt.t for pt in rep.points]
        v = np.array([pt.value for pt in rep.points])
        errors = [pt.error for pt in rep.points]
        assert am.extrapolate(list(zip(t, v, errors)), (2, 4)) == rep.extrapolation
        moved = am.extrapolate(list(zip(t, np.nextafter(v, np.inf), errors)), (2, 4))
        assert moved.limit != rep.extrapolation.limit
        assert abs(moved.limit - rep.extrapolation.limit) <= 1e-13 * abs(rep.extrapolation.limit)


class TestCompare:
    def test_exact_match_passes(self):
        ex = am.Extrapolation(5.0, 0.0, 5.0, 0.0, "1, t")
        passed, _ = am.compare(ex, 5.0, 0.01)
        assert passed

    def test_two_percent_off_fails_at_one_percent(self):
        ex = am.Extrapolation(5.1, 0.0, 5.1, 1e-12, "1, t")
        passed, _ = am.compare(ex, 5.0, 0.01)
        assert not passed

    def test_two_percent_off_passes_at_three_percent(self):
        ex = am.Extrapolation(5.1, 0.0, 5.1, 1e-12, "1, t")
        passed, _ = am.compare(ex, 5.0, 0.03)
        assert passed

    def test_diagnostics_error_source(self):
        pts = [am.StudyPoint(0.1, 0.1, 5.2, 0.2, 5.2),
               am.StudyPoint(0.05, 0.05, 5.1, 0.1, 5.1)]
        ex = am.Extrapolation(5.0, 0.0, 5.0, 0.01, "1, t")
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
            # the target follows from the functional: p times the local
            # energy for the mollified one
            expected = "p_local_energy" if kind == "bbm" else "local_energy"
            assert rep.study["target_mode"] == expected

    @pytest.mark.parametrize("kind, smooth, family, schedule, model", [
        ("gagliardo", True, None, None, "1, t, t^2, t^3, t^4"),
        ("gagliardo", True, None, am.Schedule("s", (0.8, 0.88, 0.93, 0.96)), "1, t, t^2"),
        ("bbm", True, am.LudwigFamily(2, 2.0), am.Schedule("n", (4, 8, 16, 32, 64)),
         "1, t, t^2, t^3"),
        ("bbm", True, None, None, "1, t^2, t^4"),
        ("nguyen", True, None, None, "1, t"),
        ("bbm", False, None, None, "1, t"),
    ], ids=["gagliardo", "gagliardo-4pt", "ludwig", "shrinking", "nguyen", "indicator"])
    def test_fit_follows_the_path(self, kind, smooth, family, schedule, model):
        p = 2.0 if smooth else 1.0
        u = am.zero_field(2) if smooth else am.indicator(am.unit_square())
        rep = am.run_study(u, am.zero_potential(2), am.EuclideanBall(2), p, kind, schedule,
                           am.IntegrationBudget(outer="tensor", resolution=8, sphere_nodes=8),
                           tolerance=0.5, mollifier_family=family,
                           target_grid=am.GridSpec(resolution=16))
        assert rep.extrapolation.fit_model == model
        assert rep.diagnostics["fit_model"] == model

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

    def test_numpy_schedule_round_trip(self):
        # schedules keep Python numbers whatever sequence they are given, so a
        # study run on a numpy schedule serializes
        assert all(type(v) is float for v in am.Schedule("s", np.linspace(0.8, 0.95, 4)).values)
        schedule = am.Schedule("n", np.array([4, 8, 16, 32]))
        assert all(type(v) is int for v in schedule.values)
        rep = am.run_study(am.indicator(am.unit_square()), am.zero_potential(2),
                           am.EuclideanBall(2), 1.0, "bbm", schedule,
                           am.IntegrationBudget(outer="tensor", resolution=8, sphere_nodes=8),
                           tolerance=0.5)
        text = rep.to_json()
        assert am.ConvergenceReport.from_json(text) == rep

    def test_csv_and_plot_outputs(self, tmp_path):
        u0 = am.zero_field(2)
        rep = am.run_study(u0, am.zero_potential(2), am.EuclideanBall(2), 2.0,
                           "gagliardo",
                           budget=am.IntegrationBudget(outer="tensor", resolution=16,
                                                       sphere_nodes=16),
                           seed=3, target_grid=am.GridSpec(resolution=16))
        rows = list(rep.points_csv_rows())
        assert rows[0] == ("parameter", "value", "error")
        # one row per point, and each float reads back exactly
        assert [tuple(map(float, row)) for row in rows[1:]] == [
            (p.parameter, p.value, p.error) for p in rep.points]
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

    def test_schedule_of_another_functional_rejected(self):
        # a fractional study along a delta schedule used to run, and its fit
        # error widened the pass band enough to print PASS at a gap of 16000%
        schedule = am.Schedule("delta", (0.1, 0.05, 0.02, 0.01))
        with pytest.raises(ValueError, match="gagliardo.*'s'.*'delta'"):
            am.run_study(am.gaussian(2), am.zero_potential(2), am.EuclideanBall(2), 2.0,
                         "gagliardo", schedule,
                         am.IntegrationBudget(outer="tensor", resolution=8, sphere_nodes=8),
                         target_grid=am.GridSpec(resolution=16))

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

    @pytest.mark.parametrize("outer", ["tensor", "montecarlo"])
    def test_fractional_study_calls(self, outer, monkeypatch):
        # a fractional study on the ball rule evaluates its whole schedule in
        # one call, and each point is the value of a call at its s alone; a
        # Monte Carlo study grows its samples along the schedule and calls
        # once per point
        calls = []

        def counting(u, spec, budget, seed=0):
            calls.append(spec.kind.s)
            return gagliardo(u, spec, budget, seed)

        gagliardo = am.functionals.gagliardo
        monkeypatch.setattr(am.functionals, "gagliardo", counting)
        u, zero, ball = am.gaussian(2), am.zero_potential(2), am.EuclideanBall(2)
        schedule = am.Schedule("s", (0.8, 0.88, 0.93, 0.96, 0.995))
        budget = am.IntegrationBudget(outer=outer, resolution=16, samples=32, sphere_nodes=16)
        rep = am.run_study(u, zero, ball, 2.0, "gagliardo", schedule, budget, seed=4,
                           target_grid=am.GridSpec(resolution=16))
        assert len(calls) == (1 if outer == "tensor" else len(schedule.values))
        if outer == "montecarlo":
            return
        assert calls == [schedule.values]
        for pt in rep.points:
            spec = am.FunctionalSpec(am.Gagliardo(pt.parameter), 2.0, ball, zero)
            raw, err = gagliardo(u, spec, budget)
            assert repr(pt.raw_value) == repr(raw)
            assert repr(pt.error) == repr((1.0 - pt.parameter) * err)

    @pytest.mark.parametrize("potential", ["zero", "rotational"])
    def test_ludwig_study_is_one_fractional_pass(self, potential, monkeypatch):
        # a Ludwig-family mollified study of a smooth field is one fractional
        # pass over the s_n, magnetic or not, and each point is bit for bit
        # the bbm value at n
        calls = {"gagliardo": [], "bbm": []}

        def counting(name, fn):
            def wrapped(u, spec, budget, seed=0):
                calls[name].append(spec.kind)
                return fn(u, spec, budget, seed)
            return wrapped

        gagliardo, bbm = am.functionals.gagliardo, am.functionals.bbm
        monkeypatch.setattr(am.functionals, "gagliardo", counting("gagliardo", gagliardo))
        monkeypatch.setattr(am.functionals, "bbm", counting("bbm", bbm))
        u, ball = am.modulated_gaussian(2, [1.0, 0.5]), am.EuclideanBall(2)
        a = am.zero_potential(2) if potential == "zero" else am.rotational_potential(0.8)
        fam = am.LudwigFamily(2, 2.0)
        schedule = am.Schedule("n", (4, 8, 16, 32))
        budget = am.IntegrationBudget(outer="tensor", resolution=16, sphere_nodes=16)
        rep = am.run_study(u, a, ball, 2.0, "bbm", schedule, budget, seed=4,
                           mollifier_family=fam, target_grid=am.GridSpec(resolution=16))
        s_values = tuple(fam.s_value(n) for n in schedule.values)
        assert calls == {"gagliardo": [am.Gagliardo(s_values)], "bbm": []}
        for i, (n, pt) in enumerate(zip(schedule.values, rep.points)):
            spec = am.FunctionalSpec(am.Bbm(fam, n), 2.0, ball, a)
            value, err = bbm(u, spec, replace(budget, seed=am.derive_seed(4, "study", "bbm", i)),
                             seed=i)
            assert (repr(pt.value), repr(pt.raw_value), repr(pt.error)) == (
                repr(value), repr(value), repr(err))

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
