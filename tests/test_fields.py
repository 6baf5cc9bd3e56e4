"""Fields, potentials, the covariant kernel and mollification."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anisomag as am


def fields_catalog():
    return [
        am.gaussian(2),
        am.gaussian(1),
        am.modulated_gaussian(2, [1.0, 0.5]),
        am.bump(2),
        am.zero_field(2),
    ]


class TestPsi:
    def test_coincident_points(self):
        u = am.modulated_gaussian(2, [1.0, 0.0])
        a = am.rotational_potential(1.0)
        x = np.array([0.4, -0.7])
        assert am.psi(u, a, x, x) == pytest.approx(u(x))

    def test_zero_potential_is_plain_translate(self):
        u = am.modulated_gaussian(2, [1.0, 0.0])
        a = am.zero_potential(2)
        x, y = np.array([0.1, 0.2]), np.array([-0.5, 0.9])
        assert am.psi(u, a, x, y) == pytest.approx(u(y))

    def test_modulus_preserved(self):
        u = am.modulated_gaussian(2, [2.0, -1.0])
        a = am.rotational_potential(1.5)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((10_000, 2))
        y = rng.standard_normal((10_000, 2))
        np.testing.assert_allclose(np.abs(am.psi(u, a, x, y)), np.abs(u(y)), rtol=1e-13)

    def test_gauge_phase_triangle_bound(self):
        # |psi(x,y) - psi(x,x)| <= |u(y) - u(x)| + |u(x)| |(x-y).A((x+y)/2)|
        u = am.modulated_gaussian(2, [1.0, 0.5])
        a = am.rotational_potential(2.0)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5000, 2))
        y = x + 0.5 * rng.standard_normal((5000, 2))
        lhs = np.abs(am.psi(u, a, x, y) - u(x))
        phase = np.abs(np.einsum("nk,nk->n", x - y, a(0.5 * (x + y))))
        rhs = np.abs(u(y) - u(x)) + np.abs(u(x)) * phase
        assert np.all(lhs <= rhs + 1e-12)


_ENVELOPED = {
    "gaussian": lambda: am.gaussian(2),
    "gaussian_3d_scaled": lambda: am.gaussian(3, -2.5),
    "wave_slow": lambda: am.modulated_gaussian(2, [0.6, 0.3]),  # |k| < 1
    "wave_fast": lambda: am.modulated_gaussian(2, [1.5, -0.8]),  # |k| > 1
    "wave_3d": lambda: am.modulated_gaussian(3, [0.2, 0.0, 0.9]),
    "bump": lambda: am.bump(2),
    "bump_3d": lambda: am.bump(3),
    "zero": lambda: am.zero_field(2),
}


class TestEnvelope:
    @settings(max_examples=400)
    @given(name=st.sampled_from(sorted(_ENVELOPED)),
           coords=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
           shrink=st.floats(0.0, 1.0))
    def test_bounds_field_and_gradient(self, name, coords, shrink):
        # M(r) >= |u(y)| and E(r) >= |grad u(y)| for every r <= |y|, and
        # both are nonincreasing in r
        u = _ENVELOPED[name]()
        y = np.asarray(coords[: u.dim])
        norm_y = float(np.linalg.norm(y))
        mag, grad = u.envelope(np.array([shrink * norm_y, norm_y]))
        assert mag[0] >= mag[1] and grad[0] >= grad[1]
        assert abs(u(y)) <= mag[1] * (1.0 + 1e-12)
        assert np.linalg.norm(u.grad(y)) <= grad[1] * (1.0 + 1e-12)

    @pytest.mark.parametrize("name", sorted(_ENVELOPED))
    def test_gradient_bound_is_attained(self, name):
        # the bounds are the radial profiles' running maxima, so along one
        # direction they are attained at every radius
        u = _ENVELOPED[name]()
        radii = np.linspace(0.0, 3.0, 301)
        axis = np.zeros(u.dim)
        axis[0] = 1.0
        ys = radii[:, None] * axis
        mag, grad = u.envelope(radii)
        np.testing.assert_allclose(mag, np.abs(u(ys)), rtol=1e-12, atol=1e-300)
        sup = np.maximum.accumulate(np.linalg.norm(u.grad(ys), axis=-1)[::-1])[::-1]
        np.testing.assert_allclose(grad, sup, rtol=1e-2, atol=1e-300)


class TestMagneticGradient:
    def test_zero_potential(self):
        u = am.modulated_gaussian(2, [1.0, 0.0])
        x = np.array([[0.3, 0.4]])
        np.testing.assert_allclose(am.magnetic_gradient(u, am.zero_potential(2), x),
                                   u.grad(x))

    def test_zero_field(self):
        u = am.zero_field(2)
        a = am.rotational_potential(1.0)
        x = np.array([[0.3, 0.4]])
        np.testing.assert_array_equal(am.magnetic_gradient(u, a, x), np.zeros((1, 2)))

    def test_rejects_indicator(self):
        ind = am.indicator(am.unit_square())
        with pytest.raises(ValueError):
            am.magnetic_gradient(ind, am.zero_potential(2), np.zeros((1, 2)))

    def test_difference_quotient_limit(self):
        # |psi(x, x + d h sigma) - psi(x, x)|_p / d  ->  |mg . sigma|_p h, first order in d
        u = am.modulated_gaussian(2, [1.0, 0.0])
        a = am.rotational_potential(1.0)
        x = np.array([0.3, -0.2])
        sigma = np.array([math.cos(0.7), math.sin(0.7)])
        h = 1.3
        p = 2.0
        mg = am.magnetic_gradient(u, a, x[None, :])[0]
        limit = am.mixed_modulus(np.array([mg @ sigma]), p) * h
        errs = []
        for d in (1e-2, 5e-3, 2.5e-3):
            diff = am.psi(u, a, x, x + d * h * sigma) - am.psi(u, a, x, x)
            val = am.mixed_modulus(np.array([diff]), p) / d
            errs.append(abs(val - limit))
        assert errs[0] < 0.2 * limit
        # first order: halving d roughly halves the error
        assert errs[1] < 0.65 * errs[0]
        assert errs[2] < 0.65 * errs[1]


class TestGradientConsistency:
    @pytest.mark.parametrize("field_idx", range(4))
    def test_central_difference(self, field_idx):
        u = fields_catalog()[field_idx]
        rng = np.random.default_rng(field_idx)
        pts = 0.6 * rng.standard_normal((40, u.dim))
        h = 1e-5
        grad = u.grad(pts)
        for j in range(u.dim):
            e = np.zeros(u.dim)
            e[j] = h
            fd = (u(pts + e) - u(pts - e)) / (2 * h)
            np.testing.assert_allclose(grad[:, j], fd, atol=5e-9, rtol=1e-6)

    def test_mollified_gradient_fd(self):
        um = am.mollify(am.gaussian(2), 4)
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((10, 2))
        h = 1e-5
        grad = um.grad(pts)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (um(pts + e) - um(pts - e)) / (2 * h)
            np.testing.assert_allclose(grad[:, j], fd, atol=1e-7, rtol=1e-5)

    def test_mollified_indicator_gradient_fd(self):
        # value and gradient are independent angular discretizations; they can
        # only agree to the angular rule's own accuracy
        um = am.mollify(am.indicator(am.unit_square()), 10, angular_nodes=512)
        pts = np.array([[0.48, 0.1], [0.52, -0.2], [0.45, 0.45]])
        h = 1e-6
        grad = um.grad(pts)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (um(pts + e) - um(pts - e)) / (2 * h)
            np.testing.assert_allclose(grad[:, j], fd, atol=1e-4, rtol=1e-3)


class TestPotentials:
    @pytest.mark.parametrize("make", [
        lambda: am.zero_potential(2),
        lambda: am.constant_potential([0.5, -1.0]),
        lambda: am.linear_potential([[0.0, 1.0], [2.0, 0.0]]),
        lambda: am.rotational_potential(1.5),
    ])
    def test_lipschitz_bound(self, make):
        a = make()
        rng = np.random.default_rng(21)
        x = rng.standard_normal((10_000, 2)) * 3
        y = rng.standard_normal((10_000, 2)) * 3
        lhs = np.linalg.norm(a(x) - a(y), axis=1)
        rhs = a.lipschitz_constant * np.linalg.norm(x - y, axis=1)
        assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-12)

    def test_rotational_values(self):
        a = am.rotational_potential(2.0)
        np.testing.assert_allclose(a(np.array([1.0, 0.0])), [0.0, 1.0])
        np.testing.assert_allclose(a(np.array([0.0, 1.0])), [-1.0, 0.0])

    def test_zero_flag(self):
        assert am.zero_potential(2).is_zero
        assert not am.rotational_potential(1.0).is_zero


class TestMollify:
    def test_constant_region_interior(self):
        # mass-1 mollifier reproduces a constant away from the support edge
        um = am.mollify(am.indicator(am.unit_square()), 100)
        assert um(np.array([0.0, 0.0])).real == pytest.approx(1.0, abs=1e-10)
        assert um(np.array([0.2, -0.3])).real == pytest.approx(1.0, abs=1e-10)

    def test_smooth_constant_patch(self):
        # gaussian is locally constant at scale 1/m near its peak only in the
        # limit; instead mollify a wide indicator and probe well inside
        wide = am.indicator(am.box_region([0.0, 0.0], [3.0, 3.0]))
        um = am.mollify(wide, 50)
        assert um(np.array([1.0, -2.0])).real == pytest.approx(1.0, abs=1e-10)

    def test_rejects_m_zero(self):
        with pytest.raises(ValueError):
            am.mollify(am.gaussian(2), 0)

    def test_smooth_field_mollification_close(self):
        u = am.gaussian(2)
        um = am.mollify(u, 50)
        pts = np.array([[0.0, 0.0], [1.0, 0.5], [-0.7, 0.2]])
        np.testing.assert_allclose(um(pts).real, u(pts).real, atol=2e-4)

    def test_support_radius_grows(self):
        u = am.bump(2)
        assert am.mollify(u, 10).support_radius == pytest.approx(1.1)


class TestVectorTestField:
    def test_divergence_fd(self):
        phi = am.bump_test_field([1.0, -0.5], [0.2, 0.1], 1.5)
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((30, 2))
        h = 1e-5
        div = phi.divergence(pts)
        fd = np.zeros(len(pts))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd += (phi(pts + e)[:, j] - phi(pts - e)[:, j]) / (2 * h)
        np.testing.assert_allclose(div, fd, atol=1e-7)

    def test_compact_support(self):
        phi = am.bump_test_field([1.0, 0.0], [0.0, 0.0], 2.0)
        assert np.all(phi(np.array([[2.5, 0.0], [0.0, -3.0]])) == 0.0)
