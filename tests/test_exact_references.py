"""Exact p = 2 references for the gaussian family at every schedule point.

For an even kernel k, the double integral of |u(x) - Psi(x, y)|^2 k(x - y)
equals the integral of F(h) k(h) over h, with F(h) the integral of
|u(x) - Psi(x, x + h)|^2 over x.  For the unit gaussian and A = 0,
F(h) = 2 pi^(N/2) (1 - exp(-|h|^2 / 4)), so the fractional seminorm is

    raw(s) = 2 pi^(N/2) 2^(-1-2s) Gamma(1-s)/s J(2s),  J(q) = int_S g^(-N-q),

with g the body's gauge, and (1 - s) raw(s) tends to pi^(N/2) J(2) / 4, the
local energy.  For the modulated gaussian exp(i k.x) exp(-|x|^2/2) under the
rotational potential of strength b, the local energy is

    E = 1/2 int_S g^(-4) (pi/2 + pi b^2/8 + pi (k.sigma)^2) dsigma,

and the shrinking-family study tends to p E.  Its value at each n is

    int_S int_0^(1/(n g)) F(r sigma) N n^N r^(N-3) g^(-2) dr dsigma,
    F(h) = 2 pi (1 - cos(k.h) exp(-(1/4 + b^2/16) |h|^2)).

The sphere integrals are 1-D quadratures here, independent of the package's
sphere rules.  One p = 1 case closes the file: the indicator of an interval,
whose shrinking-family value is its anisotropic perimeter at every n.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, roots_legendre

import anisomag as am

BODIES = [("ball", am.EuclideanBall(2)), ("square", am.cube(2))]
FRACTIONAL_BODIES = BODIES + [("ellipse", am.Ellipsoid.from_semi_axes([2.0, 1.0]))]


def sphere_integral(body, f):
    """Integral over the unit circle of ``f(cos, sin, gauge)``, by quad split
    at the multiples of pi/4, where the square's gauge has its kinks."""
    kinks = [k * math.pi / 4.0 for k in range(1, 8)]

    def integrand(theta):
        c, s = math.cos(theta), math.sin(theta)
        return f(c, s, body.gauge([c, s]))

    return quad(integrand, 0.0, 2.0 * math.pi, points=kinks, limit=200, epsabs=0.0,
                epsrel=1e-13)[0]


def fractional_raw(body, s):
    """raw(s) at N = 1 (where S^0 = {1, -1} carries counting measure) or N = 2."""
    if body.dim == 1:
        j = sum(float(body.gauge([x])) ** (-1.0 - 2.0 * s) for x in (1.0, -1.0))
    else:
        j = sphere_integral(body, lambda c, sn, g: g ** (-2.0 - 2.0 * s))
    return 2.0 * math.pi ** (body.dim / 2.0) * 2.0 ** (-1.0 - 2.0 * s) * gamma(1.0 - s) / s * j


@pytest.mark.parametrize("name, body", FRACTIONAL_BODIES, ids=[b[0] for b in FRACTIONAL_BODIES])
def test_fractional_gaussian(name, body):
    # the fractional_smooth benchmark budget and schedule
    schedule = am.Schedule("s", (0.80, 0.88, 0.93, 0.96, 0.98, 0.99, 0.995))
    rep = am.run_study(am.gaussian(2), am.zero_potential(2), body, 2.0, "gagliardo", schedule,
                       am.IntegrationBudget(outer="tensor", resolution=48, sphere_nodes=64),
                       tolerance=0.01)
    for pt in rep.points:
        exact = (1.0 - pt.parameter) * fractional_raw(body, pt.parameter)
        assert abs(pt.value - exact) <= 3.0 * pt.error, pt.parameter
    limit = math.pi * sphere_integral(body, lambda c, sn, g: g**-4.0) / 4.0
    assert rep.target == pytest.approx(limit, rel=1e-12)
    ex = rep.extrapolation
    assert abs(ex.limit - limit) <= 3.0 * ex.limit_stderr


@pytest.mark.parametrize("name, body", FRACTIONAL_BODIES, ids=[b[0] for b in FRACTIONAL_BODIES])
def test_fractional_refinement(name, body):
    # the ball rule's error estimate is honest at every resolution and
    # shrinks as the resolution grows
    spec = am.FunctionalSpec(am.Gagliardo(0.8), 2.0, body, am.zero_potential(2))
    exact = fractional_raw(body, 0.8)
    errors = []
    for resolution in (24, 48, 96):
        value, error = am.gagliardo(am.gaussian(2), spec,
                                    am.IntegrationBudget(resolution=resolution, sphere_nodes=64))
        assert abs(value - exact) <= 3.0 * error, resolution
        errors.append(error)
    assert errors[0] > errors[1] > errors[2]


def test_frozen_fractional_cases():
    # the p = 2, A = 0 cases of test_functionals.TestFrozenValues
    ball, square, interval = am.EuclideanBall(2), am.cube(2), am.EuclideanBall(1)
    zero = am.zero_potential(2)
    tensor = am.IntegrationBudget(resolution=20, sphere_nodes=32)
    mc = am.IntegrationBudget(outer="montecarlo", samples=64, sphere_nodes=32)
    cases = [
        (am.gaussian(2), am.FunctionalSpec(am.Gagliardo(0.7), 2.0, square, zero), tensor),
        (am.gaussian(2), am.FunctionalSpec(am.Gagliardo(0.7), 2.0, ball, zero), mc),
        (am.gaussian(1), am.FunctionalSpec(am.Gagliardo(0.5), 2.0, interval, am.zero_potential(1)),
         am.IntegrationBudget(resolution=24)),
        (am.gaussian(2), am.FunctionalSpec(am.Bbm(am.LudwigFamily(2, 2.0), 8), 2.0, ball, zero),
         dataclasses.replace(tensor, resolution=16)),
    ]
    for u, spec, budget in cases:
        if isinstance(spec.kind, am.Gagliardo):
            fn, s, factor = am.gagliardo, spec.kind.s, 1.0
        else:
            # the Ludwig family at n is p (1 - s_n) times the seminorm at s_n
            s = spec.kind.family.s_value(spec.kind.n)
            fn, factor = am.bbm, spec.p * (1.0 - s)
        value, error = fn(u, spec, budget, seed=1)
        assert abs(value - factor * fractional_raw(spec.body, s)) <= 3.0 * error, spec


def shrinking_point(body, n, wave, b):
    """The shrinking-family value at n for the modulated gaussian of wave
    vector ``wave`` under the rotational potential of strength ``b`` (N = 2).
    The r-integrand F(r sigma) / r is entire, so a 64-node Gauss rule on
    [0, 1/(n g)] is exact to rounding."""
    x, w = roots_legendre(64)
    decay = 0.25 + b * b / 16.0

    def radial(c, s, g):
        half = 0.5 / (n * g)
        r = half * (x + 1.0)
        kh = (wave[0] * c + wave[1] * s) * r
        # 1 - cos(kh) e^(-decay r^2), written without cancellation at small r
        f = -np.expm1(-decay * r * r) + 2.0 * np.exp(-decay * r * r) * np.sin(0.5 * kh) ** 2
        return 2.0 * n * n * g**-2.0 * half * float(np.sum(w * 2.0 * math.pi * f / r))

    return sphere_integral(body, radial)


@pytest.mark.parametrize("name, body", BODIES, ids=[b[0] for b in BODIES])
def test_shrinking_magnetic(name, body):
    p, wave, b = 2.0, (1.0, 0.0), 1.0
    rep = am.run_study(am.modulated_gaussian(2, list(wave)), am.rotational_potential(b), body, p,
                       "bbm", None,
                       am.IntegrationBudget(outer="tensor", resolution=64, sphere_nodes=96),
                       mollifier_family=am.ShrinkingUniformFamily(2, p))
    energy = 0.5 * sphere_integral(body, lambda c, sn, g: g**-4.0 * (
        math.pi / 2.0 + math.pi * b * b / 8.0 + math.pi * (wave[0] * c + wave[1] * sn) ** 2))
    assert rep.target == pytest.approx(p * energy, rel=1e-12)
    for pt in rep.points:
        exact = shrinking_point(body, pt.parameter, wave, b)
        assert abs(pt.value - exact) <= 3.0 * pt.error, pt.parameter
    ex = rep.extrapolation
    assert abs(ex.limit - p * energy) <= 3.0 * ex.limit_stderr


def test_interval_indicator_perimeter():
    # E = [-1/2, 1/2] on K = [-1, 1]: at p = 1 the shrinking family's value
    # is Per_K(E) = 4 at every n.  Per direction the cut c = 1/n is at most
    # the chord L = 1, and the x-integral of |1_E(x + h) - 1_E(x)| is
    # 2 min(h, L), so n * int_0^c 2 min(h, L) / h dh = 2 n c = 2, over the
    # two directions of S^0
    region, body = am.box_region([0.0], [0.5]), am.cube(1)
    assert am.anisotropic_perimeter(region, body) == 4.0
    u, zero = am.indicator(region), am.zero_potential(1)
    family = am.ShrinkingUniformFamily(1, 1.0)
    budget = am.IntegrationBudget(outer="tensor", resolution=256)
    for n in (2, 4, 16):
        value, error = am.bbm(u, am.FunctionalSpec(am.Bbm(family, n), 1.0, body, zero), budget)
        assert abs(value - 4.0) <= 3.0 * error, n
