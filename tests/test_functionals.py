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

import anisomag as am


def make_specs():
    ball = am.EuclideanBall(2)
    zero = am.zero_potential(2)
    return ball, zero


class TestSpecValidation:
    def test_s_range(self):
        ball, zero = make_specs()
        with pytest.raises(ValueError):
            am.FunctionalSpec(am.Gagliardo(1.0), 2.0, ball, zero)
        with pytest.raises(ValueError):
            am.FunctionalSpec(am.Gagliardo(0.0), 2.0, ball, zero)

    def test_gagliardo_needs_zero_potential(self):
        ball, _ = make_specs()
        with pytest.raises(ValueError):
            am.FunctionalSpec(am.Gagliardo(0.5), 2.0, ball, am.rotational_potential(1.0))

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


class TestMollifierFamilies:
    def test_normalization_closed_form(self):
        lud = am.LudwigFamily(2, 2.0)
        shr = am.ShrinkingUniformFamily(2, 2.0)
        for n in (4, 16, 64):
            assert lud.normalization(n) == 1.0
            assert shr.normalization(n) == 1.0
            # cross-check with direct quadrature of rho_n(r) r^(N-1)
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
    from the node-by-node scan.  The certified scan must reproduce every bit,
    and so must the same field without its envelope, which is scanned node by
    node."""

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
        assert repr(am.nguyen(u, spec, budget, seed=1)) == expected
        plain = dataclasses.replace(u, envelope=None)
        assert repr(am.nguyen(plain, spec, budget, seed=1)) == expected


class TestCertifiedScan:
    def test_zero_field_certifies_every_cell(self):
        u, shapes = _counting(am.zero_field(2))
        spec = am.FunctionalSpec(am.Nguyen(0.1), 2.0, am.EuclideanBall(2),
                                 am.rotational_potential(1.0))
        budget = am.IntegrationBudget(outer="tensor", resolution=16, sphere_nodes=16)
        assert am.nguyen(u, spec, budget) == (0.0, 0.0)
        # (c, m, coarse nodes, N) scan blocks only: no cell was opened
        assert any(len(s) == 4 for s in shapes)
        assert all(len(s) != 3 for s in shapes)

    def test_skips_most_scan_nodes(self):
        u, spec, budget = _nguyen_case("ball_p2_rotational_mc")
        counts = []
        for field in (u, dataclasses.replace(u, envelope=None)):
            counted, shapes = _counting(field)
            am.nguyen(counted, spec, budget, seed=1)
            counts.append(sum(math.prod(s[:-1]) for s in shapes if len(s) >= 3))
        assert counts[0] <= 0.25 * counts[1]


class TestNguyenIdentities:
    @settings(max_examples=6)
    @given(name=st.sampled_from(["ball", "square"]), p=st.sampled_from([1.0, 1.5, 2.0]),
           lam=st.floats(0.5, 2.0))
    def test_scaling_identity(self, name, p, lam):
        # gauge_{lam K} = gauge_K / lam and the kernel is 1/gauge^(N+p), so
        # nguyen(lam K) = lam^(N+p) nguyen(K) for the same scan
        make = {"ball": lambda s: am.EuclideanBall(2, s),
                "square": lambda s: am.SymmetricPolytope(
                    [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [s] * 4)}[name]
        u = am.modulated_gaussian(2, [1.0, 0.5])
        a = am.rotational_potential(0.8)
        budget = am.IntegrationBudget(outer="tensor", resolution=12, sphere_nodes=32)

        def value(scale):
            return am.nguyen(u, am.FunctionalSpec(am.Nguyen(0.05), p, make(scale), a), budget)[0]

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
        spec = am.FunctionalSpec(am.Bbm(am.ShrinkingUniformFamily(2, 1.0), 4), 1.0,
                                 am.EuclideanBall(2), am.rotational_potential(1.0))
        got = am.bbm(am.indicator(am.unit_square()), spec,
                     am.IntegrationBudget(outer="tensor", resolution=16, sphere_nodes=32))
        assert repr(got) == "(15.159442678059499, 2.1622179022214922)"

    def test_gagliardo_indicator_square_disk(self):
        spec = am.FunctionalSpec(am.Gagliardo(0.5), 1.0, am.EuclideanBall(2),
                                 am.zero_potential(2))
        got = am.gagliardo(am.indicator(am.unit_square()), spec,
                           am.IntegrationBudget(outer="tensor", resolution=32))
        assert repr(got) == "(43.82448617058196, 23.55325689772127)"


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
        ("gagliardo_tensor", "(49.53478731414387, 3.529767118944534)"),
        ("gagliardo_mc", "(32.971537660896786, 1.9215327628961543)"),
        ("gagliardo_1d", "(6.2818419158534855, 0.004962722694715538)"),
        ("ludwig_smooth_zero", "(12.59156779688215, 5.219959537482732)"),
        ("ludwig_smooth_rotational_tensor", "(27.457070462832263, 12.458297654181337)"),
        ("ludwig_smooth_rotational_mc", "(49.011191738690286, 4.387128400612905)"),
        ("ludwig_indicator_zero", "(4.801807395924193, 0.2529516337497322)"),
        ("ludwig_indicator_rotational", "(4.199705461067584, 27.93922771095208)"),
        ("shrinking_smooth_zero", "(9.790287061514599, 7.234445896587374)"),
        ("shrinking_smooth_rotational_tensor", "(41.62527991573825, 3.4362403295156128)"),
        ("shrinking_smooth_rotational_mc", "(26.39403569569637, 2.585754496663358)"),
    ])
    def test_values(self, name, expected):
        fn, u, spec, budget = _frozen_case(name)
        assert repr(fn(u, spec, budget, seed=1)) == expected


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
}[sys.argv[1]]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
fn(u, spec, budget, seed=1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="page-fault counts from getrusage are read on Linux only")
@pytest.mark.parametrize("kind", ["gagliardo", "nguyen", "bbm"])
def test_dense_grids_recycle_their_memory(kind):
    # every dense block stays small enough to be recycled from block to block
    # without a warmed allocator; mapping fresh pages for each block cost
    # 15k-130k faults per evaluation at these sizes
    src = str(Path(am.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _FAULT_PROBE, kind], capture_output=True,
                         text=True, env=env, check=True, timeout=600).stdout
    assert int(out) < 10_000
