"""Nonlocal functionals: validation, mollifier families, oracles for the
spherical change of variables, and the lower-bound/monotonicity properties."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import roots_jacobi

import anisomag as am
from anisomag import functionals, grids
from anisomag.grids import chunk_values


def make_specs():
    ball = am.EuclideanBall(2)
    zero = am.zero_potential(2)
    return ball, zero


@pytest.mark.parametrize("case", ["tensor", "montecarlo", "1d", "indicator",
                                  "indicator_nothing_live"])
def test_gagliardo_tuple_of_s(case):
    # one pass over a tuple of s gives each s the value of a call at that s
    # alone, on every route; a region that no grid node lies in gives zeros
    s_values = (0.6, 0.9, 0.995)
    dim, p, u = 2, 2.0, am.gaussian(2)
    budget = am.IntegrationBudget(outer="tensor", resolution=12, sphere_nodes=16)
    if case == "montecarlo":
        budget = am.IntegrationBudget(outer="montecarlo", samples=32, sphere_nodes=16)
    elif case == "1d":
        dim, u = 1, am.gaussian(1)
    elif case.startswith("indicator"):
        p = 1.0
        # a small square off the origin lies between the grid's nodes
        u = am.indicator(am.box_region([0.3, 0.0], [0.01, 0.01]) if case.endswith("live")
                         else am.unit_square())
    body, zero = am.EuclideanBall(dim), am.zero_potential(dim)
    values, errors = am.gagliardo(u, am.FunctionalSpec(am.Gagliardo(s_values), p, body, zero),
                                  budget, seed=3)
    assert len(values) == len(errors) == len(s_values)
    for s, value, error in zip(s_values, values, errors):
        one = am.gagliardo(u, am.FunctionalSpec(am.Gagliardo(s), p, body, zero), budget, seed=3)
        assert repr((value, error)) == repr(one)
    assert (max(values) == 0.0) == (case == "indicator_nothing_live")


class TestSpecValidation:
    def test_s_range(self):
        ball, zero = make_specs()
        with pytest.raises(ValueError):
            am.FunctionalSpec(am.Gagliardo(1.0), 2.0, ball, zero)
        with pytest.raises(ValueError):
            am.FunctionalSpec(am.Gagliardo(0.0), 2.0, ball, zero)
        for bad in ((), (0.5, 1.0)):
            with pytest.raises(ValueError):
                am.FunctionalSpec(am.Gagliardo(bad), 2.0, ball, zero)

    def test_gagliardo_needs_zero_potential(self):
        # on an indicator the fractional path is the symmetric A = 0 kernel
        ball, _ = make_specs()
        spec = am.FunctionalSpec(am.Gagliardo(0.5), 1.0, ball, am.rotational_potential(1.0))
        budget = am.IntegrationBudget(outer="tensor", resolution=8, sphere_nodes=16)
        with pytest.raises(ValueError, match="zero potential"):
            am.gagliardo(am.indicator(am.unit_square()), spec, budget)

    def test_gagliardo_takes_a_potential_on_smooth_fields(self):
        # the magnetic fractional seminorm: the Ludwig family at n is
        # p (1 - s_n) times it, bit for bit
        ball, _ = make_specs()
        a, fam, p = am.rotational_potential(0.8), am.LudwigFamily(2, 2.0), 2.0
        u = am.modulated_gaussian(2, [1.0, 0.5])
        budget = am.IntegrationBudget(outer="tensor", resolution=12, sphere_nodes=16)
        for n in (4, 16):
            s = fam.s_value(n)
            raw, err = am.gagliardo(u, am.FunctionalSpec(am.Gagliardo(s), p, ball, a), budget)
            value, value_err = am.bbm(u, am.FunctionalSpec(am.Bbm(fam, n), p, ball, a), budget)
            assert raw > 0.0
            assert (repr(p * (1.0 - s) * raw), repr(p * (1.0 - s) * err)) == (
                repr(value), repr(value_err))

    def test_delta_positive(self):
        ball, zero = make_specs()
        with pytest.raises(ValueError):
            am.FunctionalSpec(am.Nguyen(0.0), 2.0, ball, zero)

    def test_family_mismatch(self):
        ball, zero = make_specs()
        with pytest.raises(ValueError):
            am.FunctionalSpec(am.Bbm(am.ShrinkingUniformFamily(3, 2.0), 4), 2.0, ball, zero)
        with pytest.raises(ValueError):
            am.FunctionalSpec(am.Bbm(am.ShrinkingUniformFamily(2, 1.0), 4), 2.0, ball, zero)

    def test_p_range(self):
        ball, zero = make_specs()
        with pytest.raises(ValueError):
            am.FunctionalSpec(am.Gagliardo(0.5), 0.5, ball, zero)

    def test_indicator_rules(self):
        ball, zero = make_specs()
        ind = am.indicator(am.unit_square())
        with pytest.raises(ValueError):
            am.nguyen(ind, am.FunctionalSpec(am.Nguyen(0.1), 1.0, ball, zero),
                      am.IntegrationBudget())
        with pytest.raises(ValueError):
            am.gagliardo(ind, am.FunctionalSpec(am.Gagliardo(0.5), 2.0, ball, zero),
                         am.IntegrationBudget())

    def test_indicator_needs_tensor_outer(self):
        # indicators are integrated on midpoint grids; a Monte Carlo budget
        # must not silently run one at a fixed resolution
        ball, zero = make_specs()
        ind = am.indicator(am.unit_square())
        mc = am.IntegrationBudget(outer="montecarlo", samples=64, resolution=32)
        for fam in (am.ShrinkingUniformFamily(2, 1.0), am.LudwigFamily(2, 1.0)):
            with pytest.raises(ValueError, match="tensor"):
                am.bbm(ind, am.FunctionalSpec(am.Bbm(fam, 8), 1.0, ball, zero), mc)
        with pytest.raises(ValueError, match="tensor"):
            am.gagliardo(ind, am.FunctionalSpec(am.Gagliardo(0.5), 1.0, ball, zero), mc)


class TestBudgetValidation:
    # each of these used to crash deep inside an evaluation (ZeroDivisionError
    # for resolution 0, or for 0 Monte Carlo samples; a numpy error for a
    # negative resolution), report a zero standard error from one sample, or
    # run silently on a domain smaller than the field's support (margin < 0)
    @pytest.mark.parametrize("knob, value, message", [
        ("resolution", 0, "resolution"),
        ("resolution", -4, "resolution"),
        ("samples", 0, "samples"),
        ("samples", 1, "samples"),
        ("sphere_nodes", -1, "sphere_nodes"),
        ("margin", -1.0, "margin"),
        ("scan_max_step", 0.0, "scan_max_step"),
        ("scan_max_step", -0.1, "scan_max_step"),
    ])
    def test_degenerate_values_rejected(self, knob, value, message):
        with pytest.raises(ValueError, match=message):
            am.IntegrationBudget(**{knob: value})

    def test_smallest_valid_values_accepted(self):
        am.IntegrationBudget(resolution=1, samples=2, sphere_nodes=0, margin=0.0,
                             scan_max_step=1e-3)


class TestMollifierFamilies:
    def test_normalization_closed_form(self):
        lud = am.LudwigFamily(2, 2.0)
        shr = am.ShrinkingUniformFamily(2, 2.0)
        for n in (4, 16, 64):
            # unit mass: direct quadrature of rho_n(r) r^(N-1)
            for fam in (lud, shr):
                val = quad(lambda r: float(fam.rho(r, n)) * r, 1e-12, 1.0,
                           epsabs=1e-11, limit=200)[0]
                assert val == pytest.approx(1.0, abs=1e-7)

    def test_tail_weights_closed_form(self):
        lud = am.LudwigFamily(2, 2.0)
        shr = am.ShrinkingUniformFamily(2, 2.0)
        for fam in (lud, shr):
            for n in (4, 16):
                for delta in (0.1, 0.5, 1.0):
                    oracle = quad(lambda r: float(fam.rho(r, n)) * r ** (2 - 1 - 2.0),
                                  delta, np.inf, epsabs=1e-11, limit=300)[0]
                    assert fam.tail_weight(delta, n) == pytest.approx(oracle, abs=1e-7)

    def test_tails_vanish_monotonically(self):
        for fam in (am.LudwigFamily(2, 2.0), am.ShrinkingUniformFamily(2, 2.0)):
            for delta in (0.1, 0.5, 1.0):
                tails = [fam.tail_weight(delta, n) for n in (4, 8, 16, 32, 64)]
                assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))
                assert tails[-1] < tails[0] + 1e-12

    def test_ludwig_s_values(self):
        fam = am.LudwigFamily(2, 2.0, lambda n: 1.0 - 2.0 / n)
        assert fam.s_value(4) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            am.LudwigFamily(2, 2.0, lambda n: 1.5).s_value(4)


class TestTrivialValues:
    def test_zero_field_all_functionals(self):
        ball, zero = make_specs()
        u0 = am.zero_field(2)
        budget = am.IntegrationBudget(outer="tensor", resolution=16, sphere_nodes=16)
        assert am.gagliardo(u0, am.FunctionalSpec(am.Gagliardo(0.5), 2.0, ball, zero),
                            budget)[0] == 0.0
        assert am.nguyen(u0, am.FunctionalSpec(am.Nguyen(0.1), 2.0, ball, zero),
                         budget)[0] == 0.0
        fam = am.ShrinkingUniformFamily(2, 2.0)
        assert am.bbm(u0, am.FunctionalSpec(am.Bbm(fam, 8), 2.0, ball, zero),
                      budget)[0] == 0.0

    def test_indicator_without_grid_nodes_gives_every_s(self):
        # no midpoint node falls in the region, so nothing is evaluated; the
        # one zero row still answers every s of the schedule
        ball, zero = make_specs()
        u = am.indicator(am.box_region([0.5, 0.5], [1e-9, 1e-9]))
        budget = am.IntegrationBudget(outer="tensor", resolution=16, sphere_nodes=16)
        spec = am.FunctionalSpec(am.Gagliardo((0.3, 0.5)), 1.0, ball, zero)
        assert am.gagliardo(u, spec, budget) == ((0.0, 0.0), (0.0, 0.0))


class TestGagliardo1D:
    def test_against_quadrature_oracle(self):
        # oracle: inner y-integral by adaptive quadrature with analytic far tail,
        # outer x-integral by quadrature, plus the closed x-tail; computed once
        # at high accuracy and frozen (value 6.2831853072, which is 2 pi)
        frozen_oracle = 6.283185307179585
        spec = am.FunctionalSpec(am.Gagliardo(0.5), 2.0, am.EuclideanBall(1),
                                 am.zero_potential(1))
        val, err = am.gagliardo(am.gaussian(1), spec,
                                am.IntegrationBudget(outer="tensor", resolution=128))
        assert val == pytest.approx(frozen_oracle, rel=1e-3)

    def test_tensor_vs_montecarlo(self):
        spec = am.FunctionalSpec(am.Gagliardo(0.5), 2.0, am.EuclideanBall(1),
                                 am.zero_potential(1))
        u = am.gaussian(1)
        tv, te = am.gagliardo(u, spec, am.IntegrationBudget(outer="tensor", resolution=128))
        mv, me = am.gagliardo(u, spec, am.IntegrationBudget(outer="montecarlo",
                                                            samples=20000, seed=3))
        assert abs(tv - mv) <= 3.0 * (te + me)


class TestChangeOfVariables:
    """Direct 2N-dimensional Monte Carlo over (x, y) versus the spherical
    decomposition, on the compactly supported bump."""

    R_SUPP = 1.0001

    def _pairs(self, rng, n, r2):
        g1 = rng.standard_normal((n, 2))
        g1 /= np.linalg.norm(g1, axis=1)[:, None]
        x = g1 * (self.R_SUPP * np.sqrt(rng.random(n)))[:, None]
        g2 = rng.standard_normal((n, 2))
        g2 /= np.linalg.norm(g2, axis=1)[:, None]
        z = g2 * (r2 * np.sqrt(rng.random(n)))[:, None]
        return x, x + z

    def _direct(self, f_pair, r2, n=2_000_000, seed=123):
        # symmetric integrand: (x in D, any y) plus (x in D, y outside D)
        rng = np.random.default_rng(seed)
        x, y = self._pairs(rng, n, r2)
        w = 1.0 + (np.einsum("nk,nk->n", y, y) > self.R_SUPP**2)
        vals = f_pair(x, y) * w
        vol = (math.pi * self.R_SUPP**2) * (math.pi * r2**2)
        return vol * vals.mean(), vol * vals.std(ddof=1) / math.sqrt(n)

    def test_bbm_shrinking(self):
        u = am.bump(2)
        body = am.EuclideanBall(2)
        n_moll = 4
        fam = am.ShrinkingUniformFamily(2, 2.0)

        def f_pair(x, y):
            gz = body.gauge(x - y)
            d2 = np.abs(u(y) - u(x)) ** 2
            rho = np.where(gz <= 1.0 / n_moll, 2.0 * n_moll**2, 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(gz > 0, d2 / np.maximum(gz, 1e-300) ** 2 * rho, 0.0)

        direct, sig = self._direct(f_pair, 0.26)
        spec = am.FunctionalSpec(am.Bbm(fam, n_moll), 2.0, body, am.zero_potential(2))
        val, err = am.bbm(u, spec, am.IntegrationBudget(outer="tensor", resolution=96,
                                                        sphere_nodes=96))
        assert abs(val - direct) <= 3.0 * (sig + err)

    def test_gagliardo(self):
        u = am.bump(2)
        body = am.EuclideanBall(2)
        s, p = 0.3, 2.0
        r2 = 6.0

        def f_pair(x, y):
            gz = body.gauge(x - y)
            d2 = np.abs(u(y) - u(x)) ** 2
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(gz > 0, d2 / np.maximum(gz, 1e-300) ** (2 + p * s), 0.0)

        direct, sig = self._direct(f_pair, r2)
        # exact remainder beyond |z| = r2 (there u(y) = 0), doubled for y outside
        l2 = quad(lambda r: r * math.exp(2 * (1 - 1 / (1 - r * r))) * 2 * math.pi,
                  0, 1 - 1e-12, epsabs=1e-12)[0]
        tail = 2.0 * l2 * 2.0 * math.pi * r2 ** (-p * s) / (p * s)
        spec = am.FunctionalSpec(am.Gagliardo(s), p, body, am.zero_potential(2))
        val, err = am.gagliardo(u, spec, am.IntegrationBudget(outer="tensor",
                                                              resolution=96,
                                                              sphere_nodes=96))
        assert abs(val - (direct + tail)) <= 3.0 * (sig + err) + 1e-3 * val

    def test_nguyen(self):
        u = am.bump(2)
        body = am.EuclideanBall(2)
        delta, p = 0.5, 2.0
        r2 = 5.0

        def f_pair(x, y):
            gz = body.gauge(x - y)
            fire = np.abs(u(y) - u(x)) > delta
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(fire & (gz > 0),
                                delta**2 / np.maximum(gz, 1e-300) ** 4, 0.0)

        direct, sig = self._direct(f_pair, r2)
        # beyond r2 the superlevel set is {|u(x)| > delta} (u(y) = 0), doubled
        rstar = brentq(lambda r: math.exp(1 - 1 / (1 - r * r)) - delta, 0, 1 - 1e-9)
        tail = 2.0 * math.pi * rstar**2 * delta**2 * 2.0 * math.pi * r2 ** (-2) / 2.0
        spec = am.FunctionalSpec(am.Nguyen(delta), p, body, am.zero_potential(2))
        val, err = am.nguyen(u, spec, am.IntegrationBudget(outer="tensor", resolution=96,
                                                           sphere_nodes=96))
        assert abs(val - (direct + tail)) <= 3.0 * (sig + err) + 1e-3 * val


class TestNguyenProperties:
    def test_1d_crossing_oracle(self):
        # independent oracle: crossings by brentq on a dense scan, exact
        # interval integration; frozen at high accuracy
        frozen_oracle = 0.8873786758
        spec = am.FunctionalSpec(am.Nguyen(0.05), 2.0, am.EuclideanBall(1),
                                 am.zero_potential(1))
        val, err = am.nguyen(am.gaussian(1), spec,
                             am.IntegrationBudget(outer="tensor", resolution=256,
                                                  margin=6.0))
        assert val == pytest.approx(frozen_oracle, rel=2e-3)

    def test_delta_convergence_2d(self):
        # both small-delta values sit within 5% of the local energy
        u = am.gaussian(2)
        ball = am.EuclideanBall(2)
        zero = am.zero_potential(2)
        target, _ = am.local_energy(u, zero, ball, 2.0, am.GridSpec(resolution=128))
        budget = am.IntegrationBudget(outer="tensor", resolution=64, sphere_nodes=48)
        vals = []
        for delta in (1e-2, 5e-3):
            spec = am.FunctionalSpec(am.Nguyen(delta), 2.0, ball, zero)
            val, _ = am.nguyen(u, spec, budget)
            vals.append(val)
            assert abs(val - target) <= 0.05 * target
        # doubling delta changes the value only by a small relative drift
        assert abs(vals[0] - vals[1]) <= 0.05 * target

    def test_raw_measure_monotone_in_delta(self):
        # the unweighted superlevel integral I_delta / delta^p is nonincreasing
        u = am.gaussian(2)
        ball = am.EuclideanBall(2)
        zero = am.zero_potential(2)
        budget = am.IntegrationBudget(outer="tensor", resolution=48, sphere_nodes=48)
        raw = []
        for delta in (0.05, 0.1, 0.2):
            spec = am.FunctionalSpec(am.Nguyen(delta), 2.0, ball, zero)
            val, _ = am.nguyen(u, spec, budget)
            raw.append(val / delta**2)
        assert raw[0] >= raw[1] >= raw[2]

    def test_p1_lower_bound(self):
        u = am.gaussian(2)
        ball = am.EuclideanBall(2)
        zero = am.zero_potential(2)
        tv, _ = am.total_variation_smooth(u, zero, ball, am.GridSpec(resolution=96))
        spec = am.FunctionalSpec(am.Nguyen(1e-2), 1.0, ball, zero)
        val, _ = am.nguyen(u, spec, am.IntegrationBudget(outer="tensor", resolution=64,
                                                         sphere_nodes=48))
        assert val >= 0.95 * tv


def _nguyen_case(name):
    ball, square = am.EuclideanBall(2), am.cube(2)
    rot, zero = am.rotational_potential(1.0), am.zero_potential(2)
    lin = am.linear_potential([[0.2, -0.7], [0.4, 0.1]])
    wave = am.modulated_gaussian(2, [1.0, 0.5])

    def spec(delta, p, body, a):
        return am.FunctionalSpec(am.Nguyen(delta), p, body, a)

    def mc(samples):
        return am.IntegrationBudget(outer="montecarlo", samples=samples, sphere_nodes=48)

    def tensor(resolution):
        return am.IntegrationBudget(outer="tensor", resolution=resolution, sphere_nodes=48)

    return {
        "ball_p2_rotational_mc": (wave, spec(0.05, 2.0, ball, rot), mc(64)),
        "square_p1_zero_tensor": (am.gaussian(2), spec(0.02, 1.0, square, zero), tensor(16)),
        "ball_p15_linear_tensor": (wave, spec(0.05, 1.5, ball, lin), tensor(12)),
        "square_p2_rotational_mc": (am.bump(2), spec(0.1, 2.0, square, rot), mc(48)),
        "ball_p1_rotational_mc": (am.modulated_gaussian(2, [0.5, 0.0]), spec(0.02, 1.0, ball, rot),
                                  mc(48)),
        "gaussian_1d": (am.gaussian(1), spec(0.05, 2.0, am.EuclideanBall(1), am.zero_potential(1)),
                        am.IntegrationBudget(outer="tensor", resolution=64, margin=6.0)),
    }[name]


def _counting(u):
    """u with an evaluate that records the shape of every batch it is given."""
    shapes = []

    def evaluate(x):
        shapes.append(x.shape)
        return u.evaluate(x)

    return dataclasses.replace(u, evaluate=evaluate), shapes


class TestNguyenFrozenValues:
    """(value, error) of the threshold functional, recorded as repr strings
    from a node-by-node scan with 48 bisection steps per crossing.  The
    regula falsi root finder must agree to 1e-12 relative (the crossing radii
    move by rounding only), and the certified scan must give every bit the
    node-by-node scan of the same field without its envelope gives."""

    @pytest.mark.parametrize("name, expected", [
        ("ball_p2_rotational_mc", "(13.087878573764385, 1.2836235332135282)"),
        ("square_p1_zero_tensor", "(43.110579301355685, 29.112036707767622)"),
        ("ball_p15_linear_tensor", "(20.828861181599883, 21.658829401567125)"),
        ("square_p2_rotational_mc", "(17.886499964938423, 3.5479940119287776)"),
        ("ball_p1_rotational_mc", "(50.91847469975335, 5.39934869301209)"),
        ("gaussian_1d", "(0.8936474989944669, 0.015550785256960742)"),
    ])
    def test_values(self, name, expected):
        u, spec, budget = _nguyen_case(name)
        assert u.envelope is not None
        certified = am.nguyen(u, spec, budget, seed=1)
        oracle = tuple(float(v) for v in expected.strip("()").split(", "))
        assert certified == pytest.approx(oracle, rel=1e-12, abs=0.0)
        plain = dataclasses.replace(u, envelope=None)
        assert am.nguyen(plain, spec, budget, seed=1) == certified


def _bisect(residual, lo, hi, iters=200):
    """Root of a scalar residual on [lo, hi], positive at exactly one end."""
    hi_positive = residual(hi) > 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (residual(mid) > 0.0) == hi_positive:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestIllinois:
    @staticmethod
    def _solve(fns, lo, hi, tol=0.0):
        """_regula_falsi on one ray per residual in ``fns``; also returns the
        radii each ray was evaluated at."""
        calls = [[] for _ in fns]

        def residual(rays, h):
            for ray, x in zip(rays, h):
                calls[ray].append(x)
            return np.array([fns[ray](x) for ray, x in zip(rays, h)])

        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        r_lo = [fn(x) for fn, x in zip(fns, lo)]
        r_hi = [fn(x) for fn, x in zip(fns, hi)]
        return functionals._regula_falsi(residual, lo, hi, r_lo, r_hi, tol), calls

    def test_matches_bisection(self):
        # rising and falling crossings, steep and flat, one near h = 0
        fns = [lambda h: h * h - 0.3, lambda h: 1.3 - math.exp(h), lambda h: math.sin(9.0 * h),
               lambda h: math.tanh(50.0 * (h - 0.41)), lambda h: 1e-3 * math.log(h / 2e-7)]
        lo, hi = [0.5, 0.2, 0.3, 0.3, 1e-7], [0.6, 0.4, 0.4, 0.5, 1e-6]
        roots, calls = self._solve(fns, lo, hi)
        for fn, a, b, root, n in zip(fns, lo, hi, roots, calls):
            assert root == pytest.approx(_bisect(fn, a, b), rel=1e-12, abs=0.0)
            assert a <= root <= b and len(n) < functionals._ROOT_MAX_ITERS

    def test_secant_step_outside_the_bracket_takes_the_midpoint(self):
        # the residual vanishes at lo, where the state is "not above": the
        # secant step lands on lo itself, so every step bisects
        fns = [lambda h: h - 0.5]
        roots, calls = self._solve(fns, [0.5], [1.0])
        assert calls[0][:3] == [0.75, 0.625, 0.5625]
        assert roots[0] == pytest.approx(_bisect(fns[0], 0.5, 1.0), rel=1e-12, abs=0.0)

    def test_slow_ray_stops_at_the_cap(self):
        # a residual that jumps from -1 to 1e300 at 0.5 moves the secant step
        # by ~1e-300 per step; the ray stops at the cap with its last
        # iterate, and the smooth ray beside it is solved as if alone
        slow = [lambda h: -1.0 if h < 0.5 else 1e300]
        smooth = [lambda h: h * h - 0.3]
        roots, calls = self._solve(slow + smooth, [0.0, 0.5], [1.0, 0.6])
        assert len(calls[0]) == functionals._ROOT_MAX_ITERS
        assert roots[0] == calls[0][-1] and 0.0 < roots[0] < 0.5
        alone, _ = self._solve(smooth, [0.5], [0.6])
        assert roots[1] == alone[0]

    def test_per_ray_tolerance(self):
        # the same crossing on three rays: each stops at the first iterate
        # whose residual is within its own tolerance, the loose ones before
        # the 4-ulp bracket rule (tol = 0) stops the last one
        fns = [lambda h: h * h - 0.3] * 3
        tols = [1e-4, 1e-9, 0.0]
        roots, calls = self._solve(fns, [0.5] * 3, [0.6] * 3, tol=np.array(tols))
        for tol, n in zip(tols[:2], calls[:2]):
            residuals = [abs(fns[0](x)) for x in n]
            assert residuals[-1] <= tol and min(residuals[:-1]) > tol
        assert len(calls[0]) < len(calls[1]) < len(calls[2])
        for tol, root in zip(tols, roots):
            alone, _ = self._solve(fns[:1], [0.5], [0.6], tol=tol)
            assert root == alone[0]

    def test_step_count_on_a_convex_residual(self):
        # Anderson-Bjorck steps on convex residuals, at a tolerance as in
        # nguyen: 6 and 9 evaluations, where Illinois halving takes 7 and 11
        fns = [lambda h: math.exp(h) - 2.0, lambda h: h**3 - 0.2]
        roots, calls = self._solve(fns, [0.0, 0.0], [1.0, 1.0], tol=1e-12)
        assert [len(n) for n in calls] == [6, 9]
        for fn, root in zip(fns, roots):
            assert root == pytest.approx(_bisect(fn, 0.0, 1.0), rel=1e-12, abs=0.0)

    def test_scalar_tolerance_is_every_rays_tolerance(self):
        fns = [lambda h: h * h - 0.3, lambda h: math.sin(9.0 * h), lambda h: 1.3 - math.exp(h)]
        lo, hi = [0.5, 0.3, 0.2], [0.6, 0.4, 0.4]
        scalar = self._solve(fns, lo, hi, tol=1e-10)
        per_ray = self._solve(fns, lo, hi, tol=np.full(3, 1e-10))
        assert scalar[1] == per_ray[1] and np.array_equal(scalar[0], per_ray[0])


class TestRayKernel:
    """The ray kernel against the public reference fields.psi, in each layout
    the functionals call it with.  This pins the sign convention
    exp(-i h sigma.A) = exp(i (x - y).A)."""

    POTENTIALS = {
        "zero": am.zero_potential(2),
        "rotational": am.rotational_potential(1.3),
        "linear": am.linear_potential([[0.3, -1.1], [0.7, 0.2]]),
    }

    @staticmethod
    def _rays(rng, count):
        angles = rng.uniform(0.0, 2.0 * math.pi, count)
        return rng.uniform(-2.0, 2.0, (count, 2)), np.stack([np.cos(angles), np.sin(angles)], 1)

    def _check(self, u, a, x, sig, h, layout, p):
        """_diff_pow on rays x + h sigma given as (..., N) arrays, passed as
        coordinate planes in ``layout``; y must be x + h sigma bit for bit."""
        def planes(v):
            return np.moveaxis(v.reshape((1,) * (x.ndim - v.ndim) + v.shape), -1, 0)

        y_ref = x + h[..., None] * sig
        got, y = functionals._diff_pow(u, a, planes(x), planes(sig), h, u(x), p)
        np.testing.assert_array_equal(y, y_ref, err_msg=layout)
        diff = am.psi(u, a, x, y_ref) - u(x)
        want = np.abs(diff.real) ** p + np.abs(diff.imag) ** p
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=layout)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("potential", ["zero", "rotational", "linear"])
    def test_matches_psi(self, potential, p):
        u, a = am.modulated_gaussian(2, [1.0, -0.5]), self.POTENTIALS[potential]
        rng = np.random.default_rng(17)
        # the (point, sigma, h) grid, with h per direction or shared
        x, _ = self._rays(rng, 3)
        _, sig = self._rays(rng, 5)
        for h in (rng.uniform(0.05, 3.0, (5, 7)), rng.uniform(0.05, 3.0, 7)):
            self._check(u, a, x[:, None, None], sig[:, None], h, "grid", p)
        # single rays: the split scan nodes as (1, b), the root finding as (b,)
        x, sig = self._rays(rng, 11)
        h = rng.uniform(0.05, 3.0, 11)
        self._check(u, a, x[None], sig[None], h[None], "split nodes", p)
        self._check(u, a, x, sig, h, "roots", p)


_RAY_PATHS = ["gagliardo", "nguyen", "bbm", "gagliardo_indicator", "bbm_indicator",
              "bbm_indicator_magnetic"]


def _ray_path(kind):
    """(functional, field, spec, budget) of one ray path, on 32 directions."""
    disk, zero, rot = am.EuclideanBall(2), am.zero_potential(2), am.rotational_potential(1.0)
    wave, square = am.modulated_gaussian(2, [1.0, 0.5]), am.indicator(am.unit_square())
    tensor = am.IntegrationBudget(outer="tensor", resolution=12, sphere_nodes=32)
    smooth_bbm = am.Bbm(am.ShrinkingUniformFamily(2, 2.0), 8)
    indicator_bbm = am.Bbm(am.ShrinkingUniformFamily(2, 1.0), 4)
    return {
        "gagliardo": (am.gagliardo, am.gaussian(2),
                      am.FunctionalSpec(am.Gagliardo(0.9), 2.0, disk, zero), tensor),
        "nguyen": (am.nguyen, wave, am.FunctionalSpec(am.Nguyen(0.05), 2.0, disk, rot),
                   am.IntegrationBudget(outer="montecarlo", samples=32, sphere_nodes=32)),
        "bbm": (am.bbm, wave, am.FunctionalSpec(smooth_bbm, 2.0, disk, rot), tensor),
        "gagliardo_indicator": (am.gagliardo, square,
                                am.FunctionalSpec(am.Gagliardo(0.6), 1.0, disk, zero), tensor),
        "bbm_indicator": (am.bbm, square, am.FunctionalSpec(indicator_bbm, 1.0, disk, zero),
                          tensor),
        "bbm_indicator_magnetic": (am.bbm, square,
                                   am.FunctionalSpec(indicator_bbm, 1.0, disk, rot), tensor),
    }[kind]


class TestBlockShape:
    """The dense grids' block shape changes no value (see _BLOCK_ELEMENTS)."""

    @pytest.mark.parametrize("kind", _RAY_PATHS)
    def test_small_blocks(self, kind, monkeypatch):
        fn, u, spec, budget = _ray_path(kind)
        default = fn(u, spec, budget, seed=1)
        monkeypatch.setattr(functionals, "_BLOCK_ELEMENTS", 256)
        # now even the bbm grid (12 radial nodes) splits a point's directions,
        # and every path's calls get 8 points
        assert len(functionals._grid_blocks(1, 32, 12)) > 1
        assert repr(fn(u, spec, budget, seed=1)) == repr(default)

    @pytest.mark.parametrize("kind", _RAY_PATHS)
    def test_one_block_of_rays_per_call(self, kind, monkeypatch):
        # every path hands its integrand one block of rays per call: 8 points
        # of 32 directions, fewer only in a path's last call
        fn, u, spec, budget = _ray_path(kind)
        monkeypatch.setattr(functionals, "_BLOCK_ELEMENTS", 256)
        sizes = []

        def recorded(values_fn, points, live, chunk):
            def values(x):
                sizes.append(len(x))
                return values_fn(x)

            return chunk_values(values, points, live, chunk)

        monkeypatch.setattr(functionals, "chunk_values", recorded)
        fn(u, spec, budget, seed=1)
        rule = functionals.sphere_rule(2, budget.sphere_nodes, body=spec.body)
        assert max(sizes) == max(1, 256 // rule.size) == 8

    @pytest.mark.parametrize("kind", ["gagliardo", "gagliardo_indicator"])
    def test_fine_rule_then_half_rule(self, kind, monkeypatch):
        # the ball rule and the cell-centered grid are each evaluated in one
        # pass, and their half rules in a second: no pass holds both grids
        fn, u, spec, budget = _ray_path(kind)
        passes = []

        def recorded(values_fn, points, live, chunk):
            passes.append(points)
            return chunk_values(values_fn, points, live, chunk)

        monkeypatch.setattr(functionals, "chunk_values", recorded)
        fn(u, spec, budget, seed=1)
        radius, res = u.support_radius, budget.resolution
        if u.smooth:
            shell, n_r = functionals.sphere_rule(2, res), 2 * res // 3
            want = [am.grids.ball_grid(radius, n_r, shell),
                    am.grids.ball_grid(radius, n_r // 2, shell.coarse)]
        else:
            want = [am.grids.midpoint_grid(2, radius, r) for r in (res, res // 2)]
        assert len(passes) == 2
        for got, grid in zip(passes, want):
            np.testing.assert_array_equal(got, grid.points)


def _scan_widths(shapes):
    """The scan nodes of every (point, sigma, h) batch an evaluate call saw."""
    return [s[2] for s in shapes if len(s) == 4]


def _plane_wave(k):
    """u(x) = exp(i k x_1) with its exact envelope (|u| = 1, |grad u| = k),
    declared supported in the unit ball so that the scan ends at h_max = 2
    with no margin: f(h) = 2 |sin(k h sigma_1 / 2)| grows at the envelope's
    rate, so the cone at h = 0 reaches as far as it can."""
    def ev(x):
        return np.exp(1j * k * x[..., 0])

    def gr(x):
        return np.stack([1j * k * ev(x), np.zeros(x.shape[:-1])], axis=-1)

    def env(r):
        return np.ones_like(r), np.full_like(r, k)

    return am.ComplexField(2, ev, gr, 1.0, True, "plane_wave", envelope=env)


class TestCertifiedScan:
    @staticmethod
    def _whole_scan_in_the_cone(field):
        u, shapes = _counting(field)
        spec = am.FunctionalSpec(am.Nguyen(0.1), 2.0, am.EuclideanBall(2),
                                 am.rotational_potential(1.0))
        budget = am.IntegrationBudget(outer="tensor", resolution=16, sphere_nodes=16)
        assert am.nguyen(u, spec, budget) == (0.0, 0.0)
        # (c, m, coarse nodes, N) scan blocks only, each at h_max alone: the
        # cone covers every other coarse node and no cell was opened
        assert _scan_widths(shapes) and set(_scan_widths(shapes)) == {1}
        assert all(len(s) != 3 for s in shapes)
        assert am.nguyen(dataclasses.replace(field, envelope=None), spec, budget) == (0.0, 0.0)

    def test_zero_field_certifies_every_cell(self):
        # E(0) = M(0) = 0 divides nothing (a RuntimeWarning is an error here)
        self._whole_scan_in_the_cone(am.zero_field(2))

    def test_field_below_delta_certifies_every_cell(self):
        self._whole_scan_in_the_cone(am.gaussian(2, 1e-4))

    def test_cone_covers_every_coarse_node_below_h_max(self):
        # the crossings all lie in the last coarse cell, which is all the
        # blocks evaluate: the node at the cone's edge and h_max
        u, shapes = _counting(_plane_wave(0.1))
        spec = am.FunctionalSpec(am.Nguyen(0.1), 2.0, am.EuclideanBall(2), am.zero_potential(2))
        budget = am.IntegrationBudget(outer="tensor", resolution=12, sphere_nodes=16, margin=0.0)
        value = am.nguyen(u, spec, budget)
        assert value[0] > 0.0 and set(_scan_widths(shapes)) == {2}
        assert am.nguyen(dataclasses.replace(u, envelope=None), spec, budget) == value

    def test_no_envelope_no_cone(self):
        # without an envelope every block scans every node but h = 0, where
        # gpow is 0
        u, spec, budget = _nguyen_case("square_p1_zero_tensor")
        plain, shapes = _counting(dataclasses.replace(u, envelope=None))
        value = am.nguyen(plain, spec, budget, seed=1)
        h_max = 2.0 * u.support_radius + budget.margin
        assert set(_scan_widths(shapes)) == {len(functionals._scan_grid(h_max, 0.5))}
        assert value == am.nguyen(u, spec, budget, seed=1)

    def test_far_cone_ends_every_block_before_h_max(self, monkeypatch):
        # past the first coarse node where |u(x)| and the envelope's M(h - |x|)
        # settle every ray of a block, the block's scan stops; at p = 2 no
        # point of a gaussian stays unsettled up to h_max
        u = am.gaussian(2)
        spec = am.FunctionalSpec(am.Nguyen(0.05), 2.0, am.EuclideanBall(2), am.zero_potential(2))
        budget = am.IntegrationBudget(outer="tensor", resolution=12, sphere_nodes=16)
        ends, diff_pow = [], functionals._diff_pow

        def recorded(u, a, x, sig, h, ux, p):
            if x.ndim == 4:  # a (point, sigma, h) scan block
                ends.append(np.max(h))
            return diff_pow(u, a, x, sig, h, ux, p)

        monkeypatch.setattr(functionals, "_diff_pow", recorded)
        value = am.nguyen(u, spec, budget)
        assert value[0] > 0.0 and ends and max(ends) < 2.0 * u.support_radius + budget.margin
        assert am.nguyen(dataclasses.replace(u, envelope=None), spec, budget) == value

    def test_magnitude_settles_what_lipschitz_leaves_open(self):
        # an envelope with no gradient bound (E = inf) leaves every cell to
        # the magnitude test, which settles most of them: without it the
        # certified scan would split down to nearly every scan node
        field = am.gaussian(2)
        u, shapes = _counting(field)
        steep, steep_shapes = _counting(dataclasses.replace(
            field, envelope=lambda r: (field.envelope(r)[0], np.full_like(r, np.inf))))
        plain, plain_shapes = _counting(dataclasses.replace(field, envelope=None))
        spec = am.FunctionalSpec(am.Nguyen(0.05), 2.0, am.EuclideanBall(2),
                                 am.rotational_potential(1.0))
        budget = am.IntegrationBudget(outer="tensor", resolution=12, sphere_nodes=16)
        value = am.nguyen(steep, spec, budget)
        assert value == am.nguyen(plain, spec, budget) == am.nguyen(u, spec, budget)
        points = [sum(math.prod(s[:-1]) for s in c) for c in (shapes, steep_shapes, plain_shapes)]
        assert points[0] < points[1] <= 0.1 * points[2]

    def test_cone_is_chosen_per_block(self, monkeypatch):
        # with small blocks the cone starts at different nodes from block to
        # block, and every bit stays that of the default blocks
        fn, u, spec, budget = _ray_path("nguyen")
        default = fn(u, spec, budget, seed=1)
        monkeypatch.setattr(functionals, "_BLOCK_ELEMENTS", 256)
        counted, shapes = _counting(u)
        assert fn(counted, spec, budget, seed=1) == default
        assert len(set(_scan_widths(shapes))) > 1
        assert fn(dataclasses.replace(u, envelope=None), spec, budget, seed=1) == default

    @pytest.mark.parametrize("name, points", [
        ("ball_p2_rotational_mc", 73449), ("square_p1_zero_tensor", 102050)])
    def test_evaluation_count(self, name, points):
        # every point u is evaluated at, pinned: a scan that evaluates more
        # (a narrower cone, a weaker certificate) fails here; one that
        # evaluates fewer updates the pin
        u, spec, budget = _nguyen_case(name)
        counted, shapes = _counting(u)
        value = am.nguyen(counted, spec, budget, seed=1)
        assert sum(math.prod(s[:-1]) for s in shapes) == points
        assert am.nguyen(dataclasses.replace(u, envelope=None), spec, budget, seed=1) == value

    def test_skips_most_scan_nodes(self):
        u, spec, budget = _nguyen_case("ball_p2_rotational_mc")
        counts = []
        for field in (u, dataclasses.replace(u, envelope=None)):
            counted, shapes = _counting(field)
            am.nguyen(counted, spec, budget, seed=1)
            counts.append(sum(math.prod(s[:-1]) for s in shapes if len(s) >= 3))
        assert counts[0] <= 0.25 * counts[1]

    @settings(max_examples=16)
    @given(delta=st.floats(0.005, 0.2), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           field=st.sampled_from(["gaussian", "modulated", "bump"]),
           potential=st.sampled_from(["zero", "rotational", "linear"]),
           body=st.sampled_from(["ball", "square"]), outer=st.sampled_from(["tensor", "montecarlo"]))
    def test_same_bits_as_the_node_by_node_scan(self, delta, p, field, potential, body, outer):
        # every threshold state is decided on the same scan nodes, and the
        # root finder starts from the same values at both ends of each cell
        u = {"gaussian": am.gaussian(2), "modulated": am.modulated_gaussian(2, [1.0, 0.5]),
             "bump": am.bump(2)}[field]
        a = {"zero": am.zero_potential(2), "rotational": am.rotational_potential(1.0),
             "linear": am.linear_potential([[0.2, -0.7], [0.4, 0.1]])}[potential]
        spec = am.FunctionalSpec(am.Nguyen(delta), p, _scaled_body(body, 1.0), a)
        budget = am.IntegrationBudget(outer=outer, resolution=10, samples=32, sphere_nodes=24)
        plain = dataclasses.replace(u, envelope=None)
        assert am.nguyen(u, spec, budget) == am.nguyen(plain, spec, budget)


def _scaled_body(name, scale):
    """The ball or the square [-1, 1]^2 scaled by ``scale``."""
    if name == "ball":
        return am.EuclideanBall(2, scale)
    return am.SymmetricPolytope([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [scale] * 4)


class TestNguyenIdentities:
    @settings(max_examples=6)
    @given(name=st.sampled_from(["ball", "square"]), p=st.sampled_from([1.0, 1.5, 2.0]),
           lam=st.floats(0.5, 2.0))
    def test_scaling_identity(self, name, p, lam):
        # gauge_{lam K} = gauge_K / lam and the kernel is 1/gauge^(N+p), so
        # nguyen(lam K) = lam^(N+p) nguyen(K) for the same scan
        u = am.modulated_gaussian(2, [1.0, 0.5])
        a = am.rotational_potential(0.8)
        budget = am.IntegrationBudget(outer="tensor", resolution=12, sphere_nodes=32)

        def value(scale):
            return am.nguyen(u, am.FunctionalSpec(am.Nguyen(0.05), p, _scaled_body(name, scale), a),
                             budget)[0]

        assert value(lam) == pytest.approx(lam ** (2 + p) * value(1.0), rel=1e-12, abs=0.0)

    @settings(max_examples=6)
    @given(q=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), magnetic=st.booleans(),
           outer=st.sampled_from(["tensor", "montecarlo"]))
    def test_gauge_covariance(self, q, magnetic, outer):
        # u -> exp(i phi) u, A -> A + grad phi with phi(x) = x.Qx / 2: the
        # midpoint phase turns (y - x).Q(x + y)/2 into phi(y) - phi(x)
        # exactly, so at p = 2, where |.|_p is the complex modulus, every
        # kernel difference keeps its modulus.  The gauged field has no
        # envelope, so this also checks the node-by-node scan against the
        # certified one.
        sym = np.array([[q[0], q[1]], [q[1], q[2]]])
        rot = np.array([[0.0, -0.5], [0.5, 0.0]]) if magnetic else np.zeros((2, 2))
        u = am.gaussian(2)

        def gauged(x):
            return np.exp(0.5j * np.einsum("...k,kl,...l->...", x, sym, x)) * u.evaluate(x)

        v = am.ComplexField(2, gauged, None, u.support_radius, True, "gauged gaussian")
        # a fixed scan step: the default one depends on max |A|
        budget = am.IntegrationBudget(outer=outer, resolution=16, samples=64, sphere_nodes=32,
                                      scan_max_step=0.25)
        ball = am.EuclideanBall(2)
        a = am.linear_potential(rot) if magnetic else am.zero_potential(2)
        base = am.nguyen(u, am.FunctionalSpec(am.Nguyen(0.05), 2.0, ball, a), budget)[0]
        moved = am.nguyen(v, am.FunctionalSpec(am.Nguyen(0.05), 2.0, ball,
                                               am.linear_potential(rot + sym)), budget)[0]
        assert moved == pytest.approx(base, rel=1e-12, abs=0.0)


class TestBbmIdentities:
    @settings(max_examples=24)
    @given(ludwig=st.booleans(), name=st.sampled_from(["ball", "square"]),
           smooth=st.booleans(), magnetic=st.booleans(),
           outer=st.sampled_from(["tensor", "montecarlo"]), p=st.sampled_from([1.0, 1.5, 2.0]),
           lam=st.sampled_from([0.5, 2.0]), n=st.sampled_from([2, 4, 8]))
    def test_scaling_identity(self, ludwig, name, smooth, magnetic, outer, p, lam, n):
        # gauge_{lam K} = gauge_K / lam.  The Ludwig kernel is the power
        # gauge^-(N + p s_n), so bbm(lam K) = lam^(N + p s_n) bbm(K); the
        # shrinking family has rho_n(r / lam) = lam^N rho_(n/lam)(r), so
        # bbm_n(lam K) = lam^(N+p) bbm_(n/lam)(K).  A power of two scales every
        # gauge, cut-off and radial node exactly, so both sides integrate on
        # the same nodes and differ by rounding only
        if not smooth:
            p, outer = 1.0, "tensor"  # indicators: p = 1, on midpoint grids
        u = am.modulated_gaussian(2, [1.0, 0.5]) if smooth else am.indicator(am.unit_square())
        a = am.rotational_potential(0.8) if magnetic else am.zero_potential(2)
        family = am.LudwigFamily(2, p) if ludwig else am.ShrinkingUniformFamily(2, p)
        budget = am.IntegrationBudget(outer=outer, resolution=12, samples=64, sphere_nodes=32)

        def value(scale, index):
            spec = am.FunctionalSpec(am.Bbm(family, index), p, _scaled_body(name, scale), a)
            return am.bbm(u, spec, budget)[0]

        if ludwig:
            expected = lam ** (2 + p * family.s_value(n)) * value(1.0, n)
        else:
            expected = lam ** (2 + p) * value(1.0, int(n / lam))
        assert value(lam, n) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @settings(max_examples=8)
    @given(q=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), ludwig=st.booleans(),
           magnetic=st.booleans(), outer=st.sampled_from(["tensor", "montecarlo"]))
    def test_gauge_covariance(self, q, ludwig, magnetic, outer):
        # u -> exp(i phi) u, A -> A + grad phi with phi(x) = x.Qx / 2, as in
        # the nguyen test: every kernel difference keeps its modulus at p = 2.
        # Both potentials are linear, so both sides take the magnetic path
        sym = np.array([[q[0], q[1]], [q[1], q[2]]])
        rot = np.array([[0.0, -0.5], [0.5, 0.0]]) if magnetic else np.zeros((2, 2))
        u = am.gaussian(2)

        def gauged(x):
            return np.exp(0.5j * np.einsum("...k,kl,...l->...", x, sym, x)) * u.evaluate(x)

        v = am.ComplexField(2, gauged, None, u.support_radius, True, "gauged gaussian")
        family = am.LudwigFamily(2, 2.0) if ludwig else am.ShrinkingUniformFamily(2, 2.0)
        budget = am.IntegrationBudget(outer=outer, resolution=12, samples=64, sphere_nodes=32)

        def value(field, matrix):
            spec = am.FunctionalSpec(am.Bbm(family, 4), 2.0, am.EuclideanBall(2),
                                     am.linear_potential(matrix))
            return am.bbm(field, spec, budget)[0]

        # The two sides round their phases differently, and |Psi(x, y) - u(x)|
        # at the first radial node loses the digits that node's h costs: about
        # 2 for both families (the Ludwig family's first radial panel starts
        # at 0.009 h_1, the shrinking family's Gauss rule at 0.009 of
        # its support).  Both sides agree to about 1e-15.
        assert value(v, rot + sym) == pytest.approx(value(u, rot), rel=1e-12, abs=0.0)


class TestBodyMonotonicity:
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_scaled_ball_scaling_identity(self, lam):
        # gauge_{lam K} = gauge_K / lam and the kernel is 1/gauge^(N+ps), so
        # value(lam K) = lam^(N+ps) value(K): the larger body has the larger value
        u = am.gaussian(2)
        zero = am.zero_potential(2)
        budget = am.IntegrationBudget(outer="tensor", resolution=32, sphere_nodes=48)
        p, s = 2.0, 0.6
        v_unit, _ = am.gagliardo(u, am.FunctionalSpec(am.Gagliardo(s), p,
                                                      am.EuclideanBall(2), zero), budget)
        v_lam, _ = am.gagliardo(u, am.FunctionalSpec(am.Gagliardo(s), p,
                                                     am.EuclideanBall(2, lam), zero), budget)
        assert v_lam == pytest.approx(lam ** (2 + p * s) * v_unit, rel=1e-12)

    def test_larger_body_larger_value(self):
        # ball inside cube: smaller kernel 1/gauge^(N+ps) on the ball (its gauge
        # is the larger one), so ball value <= cube value
        u = am.gaussian(2)
        zero = am.zero_potential(2)
        budget = am.IntegrationBudget(outer="tensor", resolution=32, sphere_nodes=48)
        v_ball, _ = am.gagliardo(u, am.FunctionalSpec(am.Gagliardo(0.6), 2.0,
                                                      am.EuclideanBall(2), zero), budget)
        v_cube, _ = am.gagliardo(u, am.FunctionalSpec(am.Gagliardo(0.6), 2.0,
                                                      am.cube(2), zero), budget)
        assert v_ball <= v_cube


class TestIndicatorFrozenValues:
    """Values of the p = 1 indicator paths, recorded as repr strings.

    Any change to the ray/region kernel that is not bit-identical shows here.
    """

    @pytest.mark.parametrize("n, expected", [
        (4, "(15.18835401971301, 0.7642020509299261)"),
        (16, "(17.608533065919826, 7.144299920125592)"),
    ])
    def test_shrinking_bbm_square_disk(self, n, expected):
        spec = am.FunctionalSpec(am.Bbm(am.ShrinkingUniformFamily(2, 1.0), n), 1.0,
                                 am.EuclideanBall(2), am.zero_potential(2))
        got = am.bbm(am.indicator(am.unit_square()), spec,
                     am.IntegrationBudget(outer="tensor", resolution=32))
        assert repr(got) == expected

    def test_shrinking_bbm_square_disk_magnetic(self):
        # test_magnetic_indicator_reference below checks this value
        fn, u, spec, budget = _magnetic_indicator_case("shrinking_indicator_rotational")
        assert repr(fn(u, spec, budget)) == "(15.241974002129094, 2.1670757635301108)"

    def test_gagliardo_indicator_square_disk(self):
        spec = am.FunctionalSpec(am.Gagliardo(0.5), 1.0, am.EuclideanBall(2),
                                 am.zero_potential(2))
        got = am.gagliardo(am.indicator(am.unit_square()), spec,
                           am.IntegrationBudget(outer="tensor", resolution=32))
        assert repr(got) == "(43.82448617058196, 23.55325689772127)"

    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("region", ["square", "hexagon"])
    @pytest.mark.parametrize("body", [am.EuclideanBall(2), am.cube(2)], ids=["disk", "cube"])
    def test_band_and_reach_change_no_bit(self, n, region, body, monkeypatch):
        # at A = 0 the band keeps only points within the cut of the boundary,
        # and each call folds in only the facets within the cut of one of its
        # points; every point live and every facet folded in give the same bytes
        region = {"square": am.unit_square(),
                  "hexagon": am.regular_hexagon(0.4).polytope}[region]
        u = am.indicator(region)
        spec = am.FunctionalSpec(am.Bbm(am.ShrinkingUniformFamily(2, 1.0), n), 1.0, body,
                                 am.zero_potential(2))
        budget = am.IntegrationBudget(outer="tensor", resolution=32)
        banded = am.bbm(u, spec, budget)
        monkeypatch.setattr(region, "signed_distance", lambda x: np.zeros(np.shape(x)[:-1]))
        monkeypatch.setattr(region, "ray_interval", lambda x, sigma, reach=np.inf: (
            am.Polytope.ray_interval(region, x, sigma)))
        every = am.bbm(u, spec, budget)
        assert np.array(banded).tobytes() == np.array(every).tobytes()


def _magnetic_indicator_case(name):
    """(functional, field, spec, budget) of the two magnetic indicator cases."""
    if name == "ludwig_indicator_rotational":
        return _frozen_case(name)
    spec = am.FunctionalSpec(am.Bbm(am.ShrinkingUniformFamily(2, 1.0), 4), 1.0,
                             am.EuclideanBall(2), am.rotational_potential(1.0))
    return (am.bbm, am.indicator(am.unit_square()), spec,
            am.IntegrationBudget(outer="tensor", resolution=16, sphere_nodes=32))


@pytest.mark.parametrize("name", ["shrinking_indicator_rotational",
                                  "ludwig_indicator_rotational"])
def test_magnetic_indicator_reference(name):
    # the library's midpoint grids, sphere rule and radial Gauss nodes with
    # every point in one array: the pieces where u(y) = 0 from tail_weight,
    # the one where u(y) = 1 from rho and am.psi; no blocks, slices or
    # closed-form primitives
    fn, u, spec, budget = _magnetic_indicator_case(name)
    a, body, family, n = spec.potential, spec.body, spec.kind.family, spec.kind.n
    region, dim = u.region, body.dim
    rule = am.sphere_rule(dim, budget.sphere_nodes, body=body)
    g = body.gauge(rule.nodes)
    if isinstance(family, am.ShrinkingUniformFamily):
        cut = 1.0 / (n * g)
        radius = u.support_radius + cut.max()
    else:
        cut = np.full(rule.size, np.inf)
        radius = u.support_radius + budget.margin
    xi, w_xi = np.polynomial.legendre.leggauss(functionals._RADIAL_ORDER)
    xi, w_xi = 0.5 * (xi + 1.0), 0.5 * w_xi

    def integrand(x):
        t_lo, t_hi = region.ray_interval(x[:, None, :], rule.nodes[None, :, :])
        lo = np.clip(t_lo, 0.0, cut)
        hi = np.maximum(np.clip(t_hi, 0.0, cut), lo)
        ux = u(x).real
        # beyond hi, u(y) = 0 and |Psi - u(x)|_1 = u(x)
        ci, mi = np.nonzero(np.broadcast_to(ux[:, None] > 0.0, lo.shape))
        beyond = np.zeros(lo.shape)
        beyond[ci, mi] = [(family.tail_weight(hi[c, m] * g[m], n)
                           - family.tail_weight(cut[m] * g[m], n)) / g[m] ** dim
                          for c, m in zip(ci, mi)]
        # on [lo, hi], u(y) = 1
        ci, mi = np.nonzero(hi > lo)
        h = lo[ci, mi, None] + (hi - lo)[ci, mi, None] * xi
        xs = np.broadcast_to(x[ci, None, :], h.shape + (dim,))
        y = xs + h[..., None] * rule.nodes[mi, None, :]
        # the indicator field takes flat (points, N) arrays
        diff = am.psi(u, a, xs.reshape(-1, dim), y.reshape(-1, dim)).reshape(h.shape) - ux[ci, None]
        density = family.rho(h * g[mi, None], n) / g[mi, None] * h ** (dim - 2)
        crossing = np.zeros(lo.shape)
        crossing[ci, mi] = (hi - lo)[ci, mi] * np.einsum(
            "br,r->b", density * (np.abs(diff.real) + np.abs(diff.imag)), w_xi)
        return np.einsum("cm,m->c", beyond + crossing, rule.weights)

    def value(resolution):
        step = 2.0 * radius / resolution
        axis = -radius + step * (np.arange(resolution) + 0.5)
        x = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, dim)
        return step**dim * integrand(x).sum()

    fine = value(budget.resolution)
    got, error = fn(u, spec, budget, seed=1)
    assert got == pytest.approx(fine, rel=1e-12, abs=0.0)
    assert error == pytest.approx(abs(fine - value(budget.resolution // 2)), rel=1e-12, abs=0.0)


class TestIndicatorErrorEstimate:
    """The indicator paths compare the grid at ``resolution`` with the grid at
    half of it; a floor at resolution 8 would compare the grid at 8 with
    itself and report an error of 0."""

    @pytest.mark.parametrize("kind", [am.Bbm(am.ShrinkingUniformFamily(2, 1.0), 4),
                                      am.Gagliardo(0.5)])
    def test_half_resolution_at_8(self, kind):
        spec = am.FunctionalSpec(kind, 1.0, am.EuclideanBall(2), am.zero_potential(2))
        fn = am.bbm if isinstance(kind, am.Bbm) else am.gagliardo
        u = am.indicator(am.unit_square())
        value, error = fn(u, spec, am.IntegrationBudget(resolution=8))
        coarse, _ = fn(u, spec, am.IntegrationBudget(resolution=4))
        assert error == abs(value - coarse) > 0.0

    def test_resolution_below_2_rejected(self):
        spec = am.FunctionalSpec(am.Gagliardo(0.5), 1.0, am.EuclideanBall(2),
                                 am.zero_potential(2))
        u = am.indicator(am.unit_square())
        with pytest.raises(ValueError, match="resolution of at least 2"):
            am.gagliardo(u, spec, am.IntegrationBudget(resolution=1))
        am.gagliardo(u, spec, am.IntegrationBudget(resolution=2))


class TestBallRule:
    """The outer rule of the fractional seminorm and the Ludwig family on
    smooth fields."""

    @pytest.mark.parametrize("kind", [am.Gagliardo(0.5), am.Bbm(am.LudwigFamily(2, 2.0), 4)])
    def test_resolution_below_8_rejected(self, kind):
        # the half rule's circle rule has resolution / 2 nodes, and the
        # trapezoid route this replaced rounded small resolutions up silently
        ball, zero = make_specs()
        spec = am.FunctionalSpec(kind, 2.0, ball, zero)
        fn = am.bbm if isinstance(kind, am.Bbm) else am.gagliardo
        for resolution in (1, 7):
            with pytest.raises(ValueError, match="resolution of at least 8"):
                fn(am.gaussian(2), spec, am.IntegrationBudget(resolution=resolution))
        fn(am.gaussian(2), spec, am.IntegrationBudget(resolution=8, sphere_nodes=8))
        fn(am.gaussian(2), spec, am.IntegrationBudget(outer="montecarlo", resolution=1,
                                                      samples=8, sphere_nodes=8))

    def test_field_evaluations(self):
        # one call at the fractional_smooth benchmark budget: 32 x 48 + 16 x 24
        # outer points, 64 directions and 60 radial nodes; the trapezoid grid
        # and the 156 graded radial nodes it replaced made 17,901,312
        u, shapes = _counting(am.gaussian(2))
        spec = am.FunctionalSpec(am.Gagliardo(0.9), 2.0, am.EuclideanBall(2), am.zero_potential(2))
        am.gagliardo(u, spec, am.IntegrationBudget(resolution=48, sphere_nodes=64))
        assert sum(math.prod(s[:-1]) for s in shapes if len(s) >= 3) <= 17_901_312 // 2


def _frozen_case(name):
    ball, square = am.EuclideanBall(2), am.cube(2)
    rot, zero = am.rotational_potential(1.0), am.zero_potential(2)
    gauss, wave = am.gaussian(2), am.modulated_gaussian(2, [1.0, 0.5])
    ludwig, ludwig1 = am.LudwigFamily(2, 2.0), am.LudwigFamily(2, 1.0)
    shrinking = am.ShrinkingUniformFamily(2, 2.0)
    mc = am.IntegrationBudget(outer="montecarlo", samples=64, sphere_nodes=32)

    def tensor(resolution):
        return am.IntegrationBudget(outer="tensor", resolution=resolution, sphere_nodes=32)

    def gag(s, body, u, budget, p=2.0, dim=2):
        a = am.zero_potential(dim)
        return am.gagliardo, u, am.FunctionalSpec(am.Gagliardo(s), p, body, a), budget

    def moll(family, a, body, u, budget):
        return am.bbm, u, am.FunctionalSpec(am.Bbm(family, 8), family.p, body, a), budget

    return {
        "gagliardo_tensor": gag(0.7, square, gauss, tensor(20)),
        "gagliardo_mc": gag(0.7, ball, gauss, mc),
        "gagliardo_1d": gag(0.5, am.EuclideanBall(1), am.gaussian(1),
                            am.IntegrationBudget(outer="tensor", resolution=24), dim=1),
        "ludwig_smooth_zero": moll(ludwig, zero, ball, gauss, tensor(16)),
        "ludwig_smooth_rotational_tensor": moll(ludwig, rot, ball, wave, tensor(16)),
        "ludwig_smooth_rotational_mc": moll(ludwig, rot, square, wave, mc),
        "ludwig_indicator_zero": moll(ludwig1, zero, ball, am.indicator(am.unit_square()),
                                      tensor(24)),
        "ludwig_indicator_rotational": moll(ludwig1, rot, ball, am.indicator(am.unit_square()),
                                            tensor(16)),
        "shrinking_smooth_zero": moll(shrinking, zero, ball, gauss, tensor(16)),
        "shrinking_smooth_rotational_tensor": moll(shrinking, rot, square, wave, tensor(16)),
        "shrinking_smooth_rotational_mc": moll(shrinking, rot, ball, wave, mc),
    }[name]


class TestFrozenValues:
    """(value, error) of the fractional and mollified paths that the
    indicator and threshold tables above do not cover, recorded as repr
    strings; a refactor of the outer drivers must reproduce every bit."""

    @pytest.mark.parametrize("name, expected", [
        # the six gagliardo and ludwig_smooth values moved when the first
        # radial panel took product weights on nodes that do not depend on
        # s; test_parent_radial_rule below pins them to the Gauss-Jacobi
        # panel they replaced, test_exact_references.py the four with p = 2
        # and A = 0 to the closed form, and test_ludwig_rotational_reference
        # the two magnetic ones to an unblocked evaluation of the same rules.
        # The three ludwig_smooth values moved again, by at most 7.3e-16 of
        # the value and 1.8e-15 of the error, when the panel's Legendre
        # moments became closed-form; they were checked against the values
        # before to 1e-14 relative
        ("gagliardo_tensor", "(49.47968685190449, 2.2696263455526235)"),
        ("gagliardo_mc", "(32.97133980027307, 1.921571259347064)"),
        ("gagliardo_1d", "(6.28293859175193, 0.0036979986498764106)"),
        ("ludwig_smooth_zero", "(12.681543673769738, 2.0510086287985487)"),
        ("ludwig_smooth_rotational_tensor", "(28.086022423961815, 5.1536708738714765)"),
        ("ludwig_smooth_rotational_mc", "(49.011192741228385, 4.3871282258941395)"),
        ("ludwig_indicator_zero", "(4.801807395924193, 0.2529516337497322)"),
        ("ludwig_indicator_rotational", "(4.206196014177359, 30.3074940925247)"),
        # shrinking_smooth_zero and shrinking_smooth_rotational_mc moved by 1-2
        # ulp when the shrinking path began to sum each (point, sigma) over h
        # before summing over sigma
        ("shrinking_smooth_zero", "(9.790287061514597, 7.234445896587372)"),
        ("shrinking_smooth_rotational_tensor", "(41.62527991573825, 3.4362403295156128)"),
        ("shrinking_smooth_rotational_mc", "(26.394035695696374, 2.5857544966633585)"),
    ])
    def test_values(self, name, expected):
        fn, u, spec, budget = _frozen_case(name)
        assert repr(fn(u, spec, budget, seed=1)) == expected

    PARENT_PINS = {
        "gagliardo_tensor": (49.47968685190315, 2.2696263455598356),
        "gagliardo_mc": (32.97133980027131, 1.92157125934697),
        "gagliardo_1d": (6.28293859175193, 0.0036979986498746342),
        "ludwig_smooth_zero": (12.681543673785592, 2.051008628833806),
        "ludwig_smooth_rotational_tensor": (28.08602242389666, 5.153670873874201),
        "ludwig_smooth_rotational_mc": (49.01119274121132, 4.387128225893945),
    }

    @pytest.mark.parametrize("name", list(PARENT_PINS))
    def test_parent_radial_rule(self, name, monkeypatch):
        # the radial rule these values were pinned on before, a 12-node
        # Gauss-Jacobi panel for h^(alpha - 1) on [0, h_1] whose nodes move
        # with s, rebuilt here from scipy's rule: it reproduces those pins to
        # 1e-12 (they were taken on a Golub-Welsch rule whose last bits
        # differ from scipy's), and the product rule agrees with it to 3e-12
        # of the value (2.3e-12 at worst; both lie 1e-8 to 8e-5 from a
        # 40-node reference, an error of the panels beyond h_1 that the two
        # rules share)
        fn, u, spec, budget = _frozen_case(name)
        value, error = fn(u, spec, budget, seed=1)

        def gauss_jacobi_radial(p, s_values, h_max):
            (s,) = s_values
            alpha, h_1 = p * (1.0 - s), min(1.0, h_max)
            x, w = roots_jacobi(functionals._RADIAL_ORDER, 0.0, alpha - 1.0)
            h, w_h = [0.5 * h_1 * (1.0 + x)], [(0.5 * h_1) ** alpha * w]
            panels = functionals._RADIAL_PANELS
            breaks = h_1 * (h_max / h_1) ** (np.arange(panels + 1) / panels)
            for lo, hi in zip(breaks[:-1], breaks[1:]) if h_max > h_1 else ():
                nodes, weights = grids.gauss_legendre(functionals._PANEL_ORDER, lo, hi)
                h.append(nodes)
                w_h.append(weights * nodes ** (alpha - 1.0))
            return np.concatenate(h), np.concatenate(w_h)[None]

        monkeypatch.setattr(functionals, "_gagliardo_radial", gauss_jacobi_radial)
        old_value, old_error = fn(u, spec, budget, seed=1)
        assert (old_value, old_error) == pytest.approx(self.PARENT_PINS[name], rel=1e-12, abs=0.0)
        assert value == pytest.approx(old_value, rel=3e-12, abs=0.0)
        assert error == pytest.approx(old_error, rel=0.0, abs=3e-12 * old_value)

    @pytest.mark.parametrize("name", ["ludwig_smooth_rotational_tensor",
                                      "ludwig_smooth_rotational_mc"])
    def test_ludwig_rotational_reference(self, name):
        # the library's outer, sphere and radial rules, with the magnetic
        # difference from am.psi on one (x, sigma, h) array: no blocks,
        # chunks or in-place ray kernel
        fn, u, spec, budget = _frozen_case(name)
        a, body, p, dim = spec.potential, spec.body, spec.p, spec.body.dim
        s = spec.kind.family.s_value(spec.kind.n)
        rule = am.sphere_rule(dim, budget.sphere_nodes, body=body)
        kernel_w = rule.weights / body.gauge(rule.nodes) ** (dim + p * s)
        radius = u.support_radius + budget.margin
        h_max = radius + u.support_radius
        h, (w_h,) = functionals._gagliardo_radial(p, (s,), h_max)
        tail = h_max ** (-p * s) / (p * s) * kernel_w.sum()

        def integrand(x):
            y = x[:, None, None, :] + h[:, None] * rule.nodes[:, None, :]
            ux = u(x)
            diff = np.abs(am.psi(u, a, x[:, None, None, :], y) - ux[:, None, None]) ** p
            return np.einsum("nmk,k,m->n", diff / h**p, w_h, kernel_w) + tail * np.abs(ux) ** p

        def ball(n_r, circle):
            r, w_r = np.polynomial.legendre.leggauss(n_r)
            r, w_r = 0.5 * radius * (r + 1.0), 0.5 * radius * w_r
            x = (r[:, None, None] * circle.nodes[None]).reshape(-1, dim)
            return float(np.einsum("n,n->", (w_r[:, None] * r[:, None] * circle.weights).ravel(),
                                   integrand(x)))

        if budget.outer == "tensor":
            circle = am.sphere_rule(dim, budget.resolution)
            n_r = 2 * budget.resolution // 3
            raw = ball(n_r, circle)
            raw_err = abs(raw - ball(n_r // 2, circle.coarse))
        else:
            tau = functionals._importance_tau(functionals._radial_profile(u))
            x, rho = functionals._mixture_samples(
                dim, radius, tau, budget.samples, am.derive_seed(budget.seed, "gagliardo", 1))
            vals = integrand(x) / rho
            raw, raw_err = vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))
        value, error = fn(u, spec, budget, seed=1)
        assert value == pytest.approx(p * (1.0 - s) * raw, rel=1e-12, abs=0.0)
        assert error == pytest.approx(p * (1.0 - s) * raw_err, rel=1e-12, abs=0.0)


class TestBbm:
    def test_ludwig_identity_with_gagliardo(self):
        u = am.gaussian(2)
        ball, zero = make_specs()
        fam = am.LudwigFamily(2, 2.0)
        budget = am.IntegrationBudget(outer="tensor", resolution=32, sphere_nodes=48)
        for n in (4, 16):
            s_n = fam.s_value(n)
            v_bbm, _ = am.bbm(u, am.FunctionalSpec(am.Bbm(fam, n), 2.0, ball, zero),
                              budget)
            v_gag, _ = am.gagliardo(u, am.FunctionalSpec(am.Gagliardo(s_n), 2.0, ball,
                                                         zero), budget)
            assert abs(v_bbm - 2.0 * (1.0 - s_n) * v_gag) <= 1e-10 * abs(v_bbm)

    def test_magnetic_ellipse_matches_local_energy(self):
        u = am.gaussian(2)
        a = am.rotational_potential(1.0)
        body = am.Ellipsoid.from_semi_axes([2.0, 1.0])
        p = 2.0
        target, terr = am.local_energy(u, a, body, p, am.GridSpec(resolution=128))
        fam = am.ShrinkingUniformFamily(2, p)
        spec = am.FunctionalSpec(am.Bbm(fam, 64), p, body, a)
        val, err = am.bbm(u, spec, am.IntegrationBudget(outer="tensor", resolution=64,
                                                        sphere_nodes=96))
        # the n = 64 value carries a small finite-n bias on top of quadrature error
        assert abs(val - p * target) <= 3.0 * (err + terr) + 2e-3 * p * target

    def test_indicator_requires_p1(self):
        ind = am.indicator(am.unit_square())
        ball, zero = make_specs()
        fam = am.ShrinkingUniformFamily(2, 2.0)
        with pytest.raises(ValueError):
            am.bbm(ind, am.FunctionalSpec(am.Bbm(fam, 8), 2.0, ball, zero),
                   am.IntegrationBudget())

    def test_indicator_magnetic_close_to_plain(self):
        # a weak potential perturbs the p = 1 indicator value only slightly
        ind = am.indicator(am.unit_square())
        ball = am.EuclideanBall(2)
        fam = am.ShrinkingUniformFamily(2, 1.0)
        budget = am.IntegrationBudget(outer="tensor", resolution=256, sphere_nodes=64)
        plain, _ = am.bbm(ind, am.FunctionalSpec(am.Bbm(fam, 8), 1.0, ball,
                                                 am.zero_potential(2)), budget)
        weak, _ = am.bbm(ind, am.FunctionalSpec(am.Bbm(fam, 8), 1.0, ball,
                                                am.rotational_potential(1e-3)), budget)
        assert weak == pytest.approx(plain, rel=2e-3)


# One evaluation of a dense-grid functional in a fresh interpreter, where the
# C allocator has not yet raised its mmap and trim thresholds; prints the
# minor page faults the evaluation takes.
_FAULT_PROBE = r"""
import resource
import sys

import scipy.special  # imported by the Monte Carlo proposal on first use

import anisomag as am
from anisomag.functionals import ShrinkingUniformFamily

disk, rot = am.EuclideanBall(2), am.rotational_potential(1.0)
wave = am.modulated_gaussian(2, [1.0, 0.0])
fn, u, spec, budget = {
    "gagliardo": (am.gagliardo, am.gaussian(2),
                  am.FunctionalSpec(am.Gagliardo(0.96), 2.0, disk, am.zero_potential(2)),
                  am.IntegrationBudget(outer="tensor", resolution=32, sphere_nodes=64)),
    "nguyen": (am.nguyen, wave, am.FunctionalSpec(am.Nguyen(0.05), 2.0, disk, rot),
               am.IntegrationBudget(outer="montecarlo", samples=64, sphere_nodes=96)),
    "bbm": (am.bbm, wave, am.FunctionalSpec(am.Bbm(ShrinkingUniformFamily(2, 2.0), 8), 2.0, disk, rot),
            am.IntegrationBudget(outer="tensor", resolution=32, sphere_nodes=96)),
    "gagliardo_indicator": (am.gagliardo, am.indicator(am.unit_square()),
                            am.FunctionalSpec(am.Gagliardo(0.5), 1.0, disk, am.zero_potential(2)),
                            am.IntegrationBudget(outer="tensor", resolution=256, sphere_nodes=96)),
    "bbm_indicator_magnetic": (am.bbm, am.indicator(am.unit_square()),
                               am.FunctionalSpec(am.Bbm(ShrinkingUniformFamily(2, 1.0), 8), 1.0,
                                                 disk, rot),
                               am.IntegrationBudget(outer="tensor", resolution=256, sphere_nodes=96)),
}[sys.argv[1]]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
fn(u, spec, budget, seed=1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="page-fault counts from getrusage are read on Linux only")
@pytest.mark.parametrize("kind", ["gagliardo", "nguyen", "bbm", "gagliardo_indicator",
                                  "bbm_indicator_magnetic"])
def test_dense_grids_recycle_their_memory(kind):
    # every dense block stays small enough to be recycled from block to block
    # without a warmed allocator; mapping fresh pages for each block cost
    # 15k-130k faults per evaluation at these sizes (28k on the fractional
    # indicator path, 227k on the magnetic indicator path's phase piece)
    src = str(Path(am.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _FAULT_PROBE, kind], capture_output=True,
                         text=True, env=env, check=True, timeout=600).stdout
    assert int(out) < 10_000
