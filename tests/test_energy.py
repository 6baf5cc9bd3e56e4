"""Local energies, total variation, perimeters and variational pairings."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import anisomag as am


def gaussian_gradient_moment(p: float, dim: int) -> float:
    """Oracle: integral of |grad exp(-|x|^2/2)|^p over R^dim by radial quadrature."""
    if dim == 1:
        return quad(lambda r: 2.0 * r**p * math.exp(-p * r * r / 2.0), 0, 30,
                    epsabs=1e-13)[0]
    surface = 2.0 * math.pi  # |S^1|
    return quad(lambda r: surface * r ** (p + dim - 1) * math.exp(-p * r * r / 2.0),
                0, 30, epsabs=1e-13)[0]


class TestLocalEnergy:
    def test_zero_field(self):
        val, err = am.local_energy(am.zero_field(2), am.zero_potential(2),
                                   am.EuclideanBall(2), 2.0, am.GridSpec(resolution=32))
        assert val == 0.0

    def test_dim1_gaussian(self):
        # at N=1, p=2, K=[-1,1] the moment norm is the absolute value, so the
        # energy is the plain Dirichlet integral sqrt(pi)/2
        oracle = quad(lambda x: x * x * math.exp(-x * x), -30, 30, epsabs=1e-13)[0]
        assert oracle == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)
        val, err = am.local_energy(am.gaussian(1), am.zero_potential(1),
                                   am.EuclideanBall(1), 2.0, am.GridSpec(resolution=256))
        assert val == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("p,rel", [(1.0, 3e-4), (2.0, 1e-8), (3.0, 1e-6)])
    def test_ball_classical_constant(self, p, rel):
        # p = 1 carries the |x| kink of the integrand at the origin, so the
        # tensor grid converges slower there
        val, err = am.local_energy(am.gaussian(2), am.zero_potential(2),
                                   am.EuclideanBall(2), p, am.GridSpec(resolution=128))
        ref = am.kpn_constant(p, 2) * gaussian_gradient_moment(p, 2)
        assert val == pytest.approx(ref, rel=rel)

    def test_rejects_indicator(self):
        with pytest.raises(ValueError):
            am.local_energy(am.indicator(am.unit_square()), am.zero_potential(2),
                            am.EuclideanBall(2), 1.0)

    def test_resolution_error_estimate(self):
        coarse_val, coarse_err = am.local_energy(am.gaussian(2), am.zero_potential(2),
                                                 am.cube(2), 2.0, am.GridSpec(resolution=24))
        fine_val, fine_err = am.local_energy(am.gaussian(2), am.zero_potential(2),
                                             am.cube(2), 2.0, am.GridSpec(resolution=96))
        assert abs(coarse_val - fine_val) <= max(coarse_err * 2, 1e-8)

    @pytest.mark.parametrize("settings", [
        {"resolution": 0}, {"resolution": 1}, {"radius": -3.0}, {"radius": 0.0},
        {"sphere_nodes": -1},
    ], ids=["resolution0", "resolution1", "negative_radius", "zero_radius", "negative_nodes"])
    def test_grid_spec_rejects_degenerate_settings(self, settings):
        # a negative radius used to flip the energy's sign (-0.8857 for the
        # 1-D gaussian) and resolution 0 to end in a ZeroDivisionError
        with pytest.raises(ValueError):
            am.GridSpec(**settings)


_SCALED_BODIES = {
    "ball": lambda lam: am.EuclideanBall(2, lam),
    "ellipse": lambda lam: am.Ellipsoid.from_semi_axes([2.0 * lam, lam]),
    "hexagon": lambda lam: am.regular_hexagon(inradius=lam),
}


class TestLocalEnergyScaling:
    """gauge_{lam K} = gauge_K / lam and the kernel is 1/gauge^(N+p), so
    local_energy(lam K) = lam^(N+p) local_energy(K).  p = 2 contracts through
    the second-moment matrix, p = 1.5 node by node."""

    @staticmethod
    def _energy(name, p, lam):
        u = am.modulated_gaussian(2, [1.0, 0.5])
        a = am.rotational_potential(0.8)
        val, _ = am.local_energy(u, a, _SCALED_BODIES[name](lam), p, am.GridSpec(resolution=24))
        return val

    @pytest.mark.parametrize("p", [1.5, 2.0])
    @settings(max_examples=8)
    @given(name=st.sampled_from(sorted(_SCALED_BODIES)), lam=st.floats(0.5, 2.0))
    def test_scaling_identity(self, p, name, lam):
        assert self._energy(name, p, lam) == pytest.approx(
            lam ** (2 + p) * self._energy(name, p, 1.0), rel=1e-12, abs=0.0)


class TestTotalVariation:
    def test_real_field_routes(self):
        u = am.gaussian(2)
        zero = am.zero_potential(2)
        body = am.EuclideanBall(2)
        direct, _ = am.total_variation_smooth(u, zero, body, am.GridSpec(resolution=96))
        split, _ = am.total_variation_smooth(u, zero, body, am.GridSpec(resolution=96),
                                             route="split")
        p1, _ = am.local_energy(u, zero, body, 1.0, am.GridSpec(resolution=96))
        assert direct == pytest.approx(p1, rel=1e-12)
        assert split == pytest.approx(direct, rel=1e-6)

    def test_split_route_has_half_again_the_nodes(self, monkeypatch):
        from anisomag import energy

        sizes, real = [], energy.sphere_rule

        def recorded(*args, **kwargs):
            rule = real(*args, **kwargs)
            sizes.append(rule.size)
            return rule

        monkeypatch.setattr(energy, "sphere_rule", recorded)
        u, zero, grid = am.gaussian(2), am.zero_potential(2), am.GridSpec(resolution=8)
        for route in ("direct", "split"):
            am.total_variation_smooth(u, zero, am.EuclideanBall(2), grid, route=route)
        assert sizes == [4096, 6144]

    def test_magnetic_split_cross_check(self):
        u = am.gaussian(2)
        a = am.rotational_potential(1.0)
        body = am.EuclideanBall(2)
        direct, _ = am.total_variation_smooth(u, a, body, am.GridSpec(resolution=96))
        split, _ = am.total_variation_smooth(u, a, body, am.GridSpec(resolution=96),
                                             route="split")
        assert split == pytest.approx(direct, rel=1e-6)

    def test_zero_field(self):
        val, _ = am.total_variation_smooth(am.zero_field(2), am.zero_potential(2),
                                           am.cube(2), am.GridSpec(resolution=32))
        assert val == 0.0

    def test_unknown_route(self):
        with pytest.raises(ValueError):
            am.total_variation_smooth(am.gaussian(2), am.zero_potential(2),
                                      am.cube(2), route="sideways")


class TestGradientBand:
    """A mollified indicator's gradient lives in a band about the boundary, but
    -iAu lives wherever u does, so the band may drop points at A = 0 only."""

    grid = am.GridSpec(resolution=64, radius=0.65, sphere_nodes=64)

    def test_zero_potential_value(self):
        # pinned before the band hugged the boundary: the points it now drops
        # outside the region have a zero integrand
        um = am.mollify(am.indicator(am.unit_square()), 10)
        val = am.total_variation_smooth(um, am.zero_potential(2), am.EuclideanBall(2), self.grid)
        assert repr(val) == "(15.482957809832474, 0.09167277458485223)"

    def test_magnetic_matches_unbanded(self):
        # with the band the interior's |A u| was dropped: 15.8724 here
        um = am.mollify(am.indicator(am.unit_square()), 10)
        a, disk = am.rotational_potential(1.0), am.EuclideanBall(2)
        val, err = am.total_variation_smooth(um, a, disk, self.grid)
        ref, ref_err = am.total_variation_smooth(replace(um, gradient_band=None), a, disk,
                                                 self.grid)
        assert val == pytest.approx(ref, rel=1e-12)
        assert err == pytest.approx(ref_err, rel=1e-12)
        assert val > 16.2


class TestAnisotropicPerimeter:
    def test_square_disk_montecarlo_oracle(self):
        # per-side norm: 3 * integral over the disk of |x_1|, by Monte Carlo
        rng = np.random.default_rng(0)
        pts = am.EuclideanBall(2).sample_uniform(200_000, seed=12)
        vals = 3.0 * np.abs(pts[:, 0])
        mean = vals.mean() * math.pi  # volume of the disk
        se = vals.std(ddof=1) / math.sqrt(len(vals)) * math.pi
        assert abs(mean - 4.0) < 4 * se
        value = am.anisotropic_perimeter(am.unit_square(), am.EuclideanBall(2))
        assert value == pytest.approx(16.0, rel=1e-9)

    def test_square_cube(self):
        value = am.anisotropic_perimeter(am.unit_square(), am.cube(2))
        assert value == pytest.approx(24.0, rel=1e-9)

    def test_degenerate_region(self):
        flat = am.box_region([0.2, 0.0], [0.0, 0.5])
        assert am.anisotropic_perimeter(flat, am.EuclideanBall(2)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            am.anisotropic_perimeter(am.unit_square(), am.EuclideanBall(3))


class TestVariationalPairing:
    def test_zero_field(self):
        phi = am.bump_test_field([1.0, 0.0], radius=2.0)
        c1, c2 = am.variational_pairing(am.zero_field(2), am.zero_potential(2), phi)
        assert c1 == 0.0 and c2 == 0.0

    def test_integration_by_parts_oracle(self):
        # real smooth u, A = 0: first pairing equals -integral grad u . phi
        u = am.gaussian(2)
        phi = am.bump_test_field([0.7, -0.3], [0.4, 0.1], 1.8)
        c1, c2 = am.variational_pairing(u, am.zero_potential(2), phi,
                                        am.GridSpec(resolution=256, radius=3.0))
        grid = am.grids.trapezoid_grid(2, 3.0, 256)
        direct = -float(np.einsum("n,n->", grid.weights,
                                  np.einsum("nk,nk->n", u.grad(grid.points).real,
                                            phi(grid.points))))
        assert c1 == pytest.approx(direct, abs=1e-8)
        assert c2 == pytest.approx(0.0, abs=1e-10)

    def test_admissible_bound(self):
        u = am.modulated_gaussian(2, [1.0, 0.5])
        a = am.rotational_potential(1.0)
        disk = am.EuclideanBall(2)
        tv, _ = am.total_variation_smooth(u, a, disk, am.GridSpec(resolution=96))
        rng = np.random.default_rng(17)
        for _ in range(5):
            direction = rng.standard_normal(2)
            scale = am.dual_norm_z1(disk, direction)
            phi = am.bump_test_field(direction / scale, 0.5 * rng.standard_normal(2),
                                     0.5 + rng.random())
            c1, c2 = am.variational_pairing(u, a, phi, am.GridSpec(resolution=128))
            assert c1 <= tv + 1e-6
            assert c1 + c2 <= tv + 1e-6

    def test_rejects_unbounded_support(self):
        phi = am.VectorTestField(2, lambda x: np.zeros_like(x),
                                 lambda x: np.zeros(x.shape[:-1]), math.inf, "bad")
        with pytest.raises(ValueError):
            am.variational_pairing(am.gaussian(2), am.zero_potential(2), phi)
