"""Moment-body norms: mixed modulus, normalization constants, both
quadrature routes, the dual norm, and the surface identity."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.special import gamma

import anisomag as am
from anisomag.norms import ROUNDING_FLOOR
from anisomag.seeding import derive_seed
from anisomag.spheres import DEFAULT_NODES, circle_panels, slice_rule, sphere_rule


def kpn_closed_form(p: float, dim: int) -> float:
    """Gamma-function form of the normalization constant (test oracle)."""
    if dim == 1:
        return 2.0 / p
    return 2.0 * math.pi ** ((dim - 1) / 2.0) * gamma((p + 1) / 2.0) / gamma((dim + p) / 2.0) / p


class TestMixedModulus:
    def test_complex_example(self):
        assert am.mixed_modulus(np.array([1 + 1j, 0.0]), 2.0) == pytest.approx(math.sqrt(2))

    def test_real_equals_euclidean_for_every_p(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(3).astype(complex)
        for p in (1.0, 1.7, 2.0, 3.0):
            assert am.mixed_modulus(z, p) == pytest.approx(float(np.linalg.norm(z.real)))

    def test_imaginary_unit(self):
        assert am.mixed_modulus(np.array([1j, 0.0, 0.0]), 1.0) == pytest.approx(1.0)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            am.mixed_modulus(np.array([1.0 + 0j]), 0.5)

    def test_triangle_and_real_homogeneity(self):
        rng = np.random.default_rng(1)
        for p in (1.0, 2.0, 3.0):
            z = rng.standard_normal((300, 2)) + 1j * rng.standard_normal((300, 2))
            w = rng.standard_normal((300, 2)) + 1j * rng.standard_normal((300, 2))
            t = rng.standard_normal(300)
            np.testing.assert_allclose(
                am.mixed_modulus(t[:, None] * z, p), np.abs(t) * am.mixed_modulus(z, p),
                rtol=1e-12)
            assert np.all(am.mixed_modulus(z + w, p)
                          <= am.mixed_modulus(z, p) + am.mixed_modulus(w, p) + 1e-12)


class TestKpnConstant:
    def test_k22_quadrature_oracle(self):
        # (1/2) * integral of cos^2 over the circle = pi/2
        oracle = quad(lambda t: math.cos(t) ** 2, 0, 2 * math.pi, epsabs=1e-13)[0] / 2.0
        assert oracle == pytest.approx(math.pi / 2, abs=1e-10)
        assert am.kpn_constant(2.0, 2) == pytest.approx(oracle, abs=1e-12)

    def test_k12_quadrature_oracle(self):
        oracle = quad(lambda t: abs(math.cos(t)), 0, 2 * math.pi, epsabs=1e-13)[0]
        assert oracle == pytest.approx(4.0, abs=1e-10)
        assert am.kpn_constant(1.0, 2) == pytest.approx(4.0, abs=1e-12)

    def test_k11_counting_measure(self):
        assert am.kpn_constant(1.0, 1) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_gamma_closed_form(self, p, dim):
        assert am.kpn_constant(p, dim) == pytest.approx(kpn_closed_form(p, dim), rel=1e-12)

    def test_direction_invariance(self):
        # the closed form against (1/p) sum_m |w . x_m|^p w_m on a fine rule,
        # for random unit w
        rng = np.random.default_rng(5)
        for dim, rule in ((2, sphere_rule(2, 4096)), (3, sphere_rule(3, 80000))):
            for p in (1.0, 2.5, 3.0):
                closed = am.kpn_constant(p, dim)
                for _ in range(3):
                    w = rng.standard_normal(dim)
                    w /= np.linalg.norm(w)
                    proj = np.abs(np.einsum("mk,k->m", rule.nodes, w)) ** p
                    val = float(np.einsum("m,m->", proj, rule.weights)) / p
                    assert abs(val - closed) <= 1e-4 * closed


class TestSphereRules:
    def test_default_node_counts(self):
        for dim in (2, 3):
            assert sphere_rule(dim).size == DEFAULT_NODES[dim]

    @pytest.mark.parametrize("dim", [0, 4, 5])
    def test_dimensions_one_to_three_only(self, dim):
        with pytest.raises(ValueError, match="dimensions 1 through 3"):
            sphere_rule(dim)

    def test_slice_rule_is_three_dimensional(self):
        assert slice_rule(3, [0.0, 0.0, 1.0], 16).dim == 3
        with pytest.raises(ValueError, match="dimension 3 only"):
            slice_rule(4, [0.0, 0.0, 0.0, 1.0], 16)

    def test_panel_coarse_rule_halves_the_nodes(self):
        # at 4 nodes per panel a coarse rule floored at 4 would be the fine
        # rule, and its error estimate 0
        breaks = [0.3, 2.0, 4.5]
        for per_panel in (2, 4, 9, 16):
            rule = circle_panels(breaks, per_panel)
            assert rule.coarse.size == 3 * (per_panel // 2)
            assert rule.coarse.total_weight() == pytest.approx(2.0 * math.pi, rel=1e-14)
        with pytest.raises(ValueError, match="2 nodes per panel"):
            circle_panels(breaks, 1)
        assert circle_panels(breaks, 1, with_coarse=False).size == 3


class TestMomentNorm:
    def test_cube_p1_exact(self):
        # (N+p)/p * integral over the cube of |x_1| = 3 * 2 = 6 (exact 1-D integral)
        cube = am.cube(2)
        ev = am.MomentNormEvaluator(cube, 1.0)
        val, err = am.moment_norm_sphere(ev, np.array([1.0 + 0j, 0.0]))
        assert val == pytest.approx(6.0, rel=1e-10)
        ev_mc = am.MomentNormEvaluator(cube, 1.0, am.BodyMonteCarlo(65536, 3))
        (val_mc,), (err_mc,) = am.moment_norm_batch(ev_mc, np.array([1.0 + 0j, 0.0]))
        assert abs(val_mc - 6.0) < 4 * err_mc
        assert err_mc > 0.0

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_ball_euclidean_specialization(self, p, dim):
        ev = am.MomentNormEvaluator(am.EuclideanBall(dim), p)
        rng = np.random.default_rng(int(10 * p) + dim)
        for _ in range(3):
            w = rng.standard_normal(dim)
            val, _ = am.moment_norm_sphere(ev, w.astype(complex))
            ref = am.kpn_constant(p, dim) ** (1.0 / p) * float(np.linalg.norm(w))
            assert abs(val - ref) <= 1e-6 * ref

    def test_zero_vector(self):
        ev = am.MomentNormEvaluator(am.cube(2), 2.0, am.BodyMonteCarlo(4096, 1))
        assert am.moment_norm_batch(ev, np.zeros(2, dtype=complex))[0][0] == 0.0

    def test_rejects_zero_samples(self):
        ev = am.MomentNormEvaluator(am.cube(2), 2.0, am.BodyMonteCarlo(0, 1))
        with pytest.raises(ValueError):
            am.moment_norm_batch(ev, np.array([1.0 + 0j, 0.0]))

    def test_batch_needs_samples(self):
        ev = am.MomentNormEvaluator(am.cube(2), 2.0)
        with pytest.raises(ValueError, match="BodyMonteCarlo"):
            am.moment_norm_batch(ev, np.array([1.0 + 0j, 0.0]))

    def test_dimension_mismatch(self):
        ev = am.MomentNormEvaluator(am.cube(2), 2.0, am.BodyMonteCarlo(4096, 1))
        for route in (am.moment_norm_batch, am.moment_norm_sphere):
            with pytest.raises(ValueError):
                route(ev, np.array([1.0 + 0j, 0.0, 0.0]))

    def test_seed_changes_draws(self):
        v = np.array([[1.0 + 0.5j, -0.25 + 0j]])

        def draw(seed):
            ev = am.MomentNormEvaluator(am.cube(2), 2.0, am.BodyMonteCarlo(4096, seed))
            return am.moment_norm_batch(ev, v)

        values, errors = draw(3)
        assert not np.array_equal(values, draw(4)[0])
        again = draw(3)
        assert np.array_equal(values, again[0]) and np.array_equal(errors, again[1])

    def test_rejects_one_sample(self):
        ev = am.MomentNormEvaluator(am.cube(2), 2.0, am.BodyMonteCarlo(1, 3))
        with pytest.raises(ValueError, match="one sample has no standard error"):
            am.moment_norm_batch(ev, np.array([1.0 + 0j, 0.0]))


_KERNEL_BODIES = {"ball2": lambda: am.EuclideanBall(2), "hexagon": am.regular_hexagon,
                  "cube3": lambda: am.cube(3)}


def _mixed_batch(dim: int) -> np.ndarray:
    """Four complex rows, the second of them real."""
    rng = np.random.default_rng(dim)
    vs = rng.standard_normal((4, dim)) + 1j * rng.standard_normal((4, dim))
    vs[1] = vs[1].real
    return vs


def _fsum_reference(ev, v):
    """Value and error of moment_norm_batch for one row, summed with math.fsum
    over the same draws."""
    pts = ev.body.sample_uniform(ev.method.samples, derive_seed(ev.method.seed, "moment-norm", 0))
    pw = np.abs(pts @ v.real) ** ev.p + np.abs(pts @ v.imag) ** ev.p
    n = len(pw)
    mean = math.fsum(pw) / n
    var = math.fsum((pw - mean) ** 2) / (n - 1)
    integral = ev.normalizer * ev.body.volume() * mean
    value = integral ** (1.0 / ev.p)
    return value, value * ev.normalizer * ev.body.volume() * math.sqrt(var / n) / (ev.p * integral)


class TestMonteCarloKernel:
    @pytest.mark.parametrize("name", sorted(_KERNEL_BODIES))
    def test_row_independent_of_its_batch(self, name):
        body = _KERNEL_BODIES[name]()
        vs = _mixed_batch(body.dim)
        for p in (1.0, 1.5, 2.0, 3.0):
            ev = am.MomentNormEvaluator(body, p, am.BodyMonteCarlo(65536, 5))
            values, errors = am.moment_norm_batch(ev, vs)
            for i, v in enumerate(vs):
                (value,), (error,) = am.moment_norm_batch(ev, v[None, :])
                assert (value, error) == (values[i], errors[i]), (p, i)

    @pytest.mark.parametrize("name", sorted(_KERNEL_BODIES))
    def test_matches_an_fsum_reference(self, name):
        body = _KERNEL_BODIES[name]()
        vs = _mixed_batch(body.dim)
        for p in (1.0, 1.5, 2.0, 3.0):
            ev = am.MomentNormEvaluator(body, p, am.BodyMonteCarlo(65536, 6))
            values, errors = am.moment_norm_batch(ev, vs)
            for i, v in enumerate(vs):
                value, error = _fsum_reference(ev, v)
                assert values[i] == pytest.approx(value, rel=1e-13, abs=0.0), (p, i)
                assert errors[i] == pytest.approx(error, rel=1e-13, abs=0.0), (p, i)

    def test_memory_grows_with_the_samples_alone(self):
        body = am.cube(3)
        rng = np.random.default_rng(7)
        vs = rng.standard_normal((100, 3)) + 1j * rng.standard_normal((100, 3))
        ev = am.MomentNormEvaluator(body, 1.5, am.BodyMonteCarlo(65536, 7))

        def peak(fn):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                fn()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        sampling = peak(lambda: body.sample_uniform(65536, 7))
        assert peak(lambda: am.moment_norm_batch(ev, vs)) <= sampling + 4 * 2**20


class TestMomentNormSphere:
    def test_cube_p1_oracle(self):
        # adaptive quadrature of |cos t| / max(|cos t|, |sin t|)^3 over the circle
        oracle = quad(lambda t: abs(math.cos(t)) / max(abs(math.cos(t)), abs(math.sin(t))) ** 3,
                      0, 2 * math.pi, epsabs=1e-12, limit=200)[0]
        assert oracle == pytest.approx(6.0, abs=1e-9)
        ev = am.MomentNormEvaluator(am.cube(2), 1.0)
        val, _ = am.moment_norm_sphere(ev, np.array([1.0 + 0j, 0.0]))
        assert val == pytest.approx(6.0, rel=1e-10)

    def test_zero_vector(self):
        ev = am.MomentNormEvaluator(am.cube(2), 1.0)
        assert am.moment_norm_sphere(ev, np.zeros(2, dtype=complex))[0] == 0.0

    @pytest.mark.parametrize("make_body", [
        lambda: am.EuclideanBall(2),
        lambda: am.cube(2),
        lambda: am.Ellipsoid.from_semi_axes([2.0, 1.0]),
        lambda: am.regular_hexagon(),
    ])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_identity_montecarlo_vs_sphere(self, make_body, p):
        body = make_body()
        ev = am.MomentNormEvaluator(body, p, am.BodyMonteCarlo(32768, 17))
        rng = np.random.default_rng(23)
        vs = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
        mc_vals, mc_errs = am.moment_norm_batch(ev, vs)
        for i, v in enumerate(vs):
            sp, sp_err = am.moment_norm_sphere(ev, v)
            assert abs(mc_vals[i] - sp) <= 3.0 * (mc_errs[i] + sp_err) + 1e-9


class TestNormAxiomsSampled:
    def test_axioms_on_sphere_route(self):
        body = am.regular_hexagon()
        rng = np.random.default_rng(31)
        for p in (1.0, 2.0):
            kernel_eval = am.MomentNormEvaluator(body, p)
            for _ in range(25):
                z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                t = float(rng.standard_normal())
                nz, _ = am.moment_norm_sphere(kernel_eval, z)
                nw, _ = am.moment_norm_sphere(kernel_eval, w)
                nzw, _ = am.moment_norm_sphere(kernel_eval, z + w)
                ntz, _ = am.moment_norm_sphere(kernel_eval, t * z)
                assert ntz == pytest.approx(abs(t) * nz, rel=1e-9, abs=1e-12)
                assert nzw <= nz + nw + 1e-9
                assert nz > 0.0


class TestDualNorm:
    def test_ball_reciprocal_constant(self):
        # closed-form oracle: ||v||_{1,B} = K_{1,2} |v| = 4 |v|, so the dual is |w|/4
        val = am.dual_norm_z1(am.EuclideanBall(2), [1.0, 0.0])
        assert val == pytest.approx(0.25, rel=1e-4)

    def test_zero_vector(self):
        assert am.dual_norm_z1(am.cube(2), [0.0, 0.0]) == 0.0

    def test_rejects_complex(self):
        with pytest.raises((ValueError, TypeError)):
            am.dual_norm_z1(am.cube(2), np.array([1.0 + 1j, 0.0]))

    def test_duality_pairing_bound(self):
        body = am.Ellipsoid.from_semi_axes([2.0, 1.0])
        kernel = am.SphereMomentKernel(body, 1.0)
        rng = np.random.default_rng(77)
        vs = rng.standard_normal((1000, 2))
        ws = rng.standard_normal((1000, 2))
        lhs = np.einsum("nk,nk->n", vs, ws)
        norms = kernel.norms_pow_p(vs.astype(complex))
        duals = am.dual_norm_z1(body, ws)
        assert np.all(lhs <= norms * duals * (1 + 2e-4) + 1e-6)

    def test_batch_matches_scalar(self):
        # K = A B with A = diag(2, 1): ||v||_{1,K} = 8 |A v|, so the dual norm
        # is |A^{-1} w| / 8
        body = am.Ellipsoid.from_semi_axes([2.0, 1.0])
        ws = np.random.default_rng(13).standard_normal((5, 2))
        exact = np.sqrt(np.einsum("nk,nk->n", ws / [2.0, 1.0], ws / [2.0, 1.0])) / 8.0
        single = am.dual_norm_z1(body, ws[0])
        assert isinstance(single, float)
        assert single == pytest.approx(exact[0], rel=1e-6)
        batch = am.dual_norm_z1(body, ws)
        np.testing.assert_allclose(batch, exact, rtol=1e-6, atol=0.0)
        # one vector takes the batch's path
        assert [am.dual_norm_z1(body, w) for w in ws] == list(batch)

    def test_ellipsoid_3d_closed_form(self):
        # K = A B with A = diag(2, 1, 1): ||v||_{1,K} = det(A) K_{1,3} |A v|,
        # so the dual norm is |A^{-1} w| / (2 K_{1,3}), reached to 1e-4 by
        # the 3-D scan and ascent
        body = am.Ellipsoid.from_semi_axes([2.0, 1.0, 1.0])
        ws = np.random.default_rng(1).standard_normal((2, 3))
        exact = np.sqrt(np.einsum("nk,nk->n", ws / [2.0, 1.0, 1.0], ws / [2.0, 1.0, 1.0]))
        exact /= 2.0 * am.kpn_constant(1.0, 3)
        np.testing.assert_allclose(am.dual_norm_z1(body, ws), exact, rtol=1e-4, atol=0.0)
        with pytest.raises(ValueError):
            am.dual_norm_z1(am.EuclideanBall(4), np.ones(4))

    def test_dim1(self):
        # K = [-a, a]: ||v||_{1,K} = 2 a^2 |v|, dual = |w| / (2 a^2)
        body = am.EuclideanBall(1, radius=2.0)
        val = am.dual_norm_z1(body, [3.0])
        assert val == pytest.approx(3.0 / 8.0, rel=1e-9)


def _zonotope_gauge_2d(body, ws):
    """Brute-force dual norm in 2-D: the edges of the kernel's zonotope are
    parallel to the kernel nodes, so their normals are the nodes turned by 90
    degrees, and the dual of w is the largest |<n, w>| / ||n||_{1,K} over
    those normals n (M^2 work, in blocks)."""
    kernel = am.SphereMomentKernel(body, 1.0)
    normals = kernel.rule.nodes[:, ::-1] * [-1.0, 1.0]
    norms = np.concatenate([kernel.norms_pow_p(block) for block in np.array_split(normals, 8)])
    return np.max(np.abs(np.einsum("nk,mk->nm", ws, normals)) / norms, axis=1)


_DUAL_BODIES_2D = {
    "ball": lambda: am.EuclideanBall(2),
    "ellipse": lambda: am.Ellipsoid.from_semi_axes([2.0, 1.0]),
    "cube": lambda: am.cube(2),
    "hexagon": am.regular_hexagon,
    "l3": lambda: am.LqBall(2, 3.0),
}


def _tilted_ellipsoid_3d():
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
    return am.Ellipsoid(q @ np.diag([2.0, 1.0, 0.5]) @ q.T)


_DUAL_BODIES_3D = {
    "ball3": lambda: am.EuclideanBall(3),
    "ellipsoid3": lambda: am.Ellipsoid.from_semi_axes([2.0, 1.0, 1.0]),
    "tilted3": _tilted_ellipsoid_3d,
    "cube3": lambda: am.cube(3),
}


_coordinate = st.floats(min_value=-10.0, max_value=10.0, allow_subnormal=False)


class TestExactDual:
    """The dual norm is the gauge of the zonotope sum_m [-g_m, g_m] whose
    support function is the kernel's p = 1 norm, exactly for its rule."""

    @pytest.mark.parametrize("name", sorted(_DUAL_BODIES_2D))
    def test_matches_brute_force_gauge_2d(self, name):
        body = _DUAL_BODIES_2D[name]()
        ws = np.random.default_rng(derive_seed(11, name)).standard_normal((20, 2))
        np.testing.assert_allclose(am.dual_norm_z1(body, ws), _zonotope_gauge_2d(body, ws),
                                   rtol=1e-12, atol=0.0)

    @settings(max_examples=40)
    @given(name=st.sampled_from(sorted(_DUAL_BODIES_2D) + sorted(_DUAL_BODIES_3D)),
           data=st.data())
    def test_pairing_bound(self, name, data):
        body = {**_DUAL_BODIES_2D, **_DUAL_BODIES_3D}[name]()
        vector = st.lists(_coordinate, min_size=body.dim, max_size=body.dim)
        w = np.array(data.draw(vector))
        s = np.array(data.draw(st.lists(vector, min_size=1, max_size=8)))
        norms = am.SphereMomentKernel(body, 1.0).norms_pow_p(s)
        # below the smallest normal float, rounding is absolute
        bound = norms * am.dual_norm_z1(body, w) * (1.0 + 1e-12) + np.finfo(float).tiny
        assert np.all(np.einsum("nk,k->n", s, w) <= bound)

    @pytest.mark.parametrize("name", sorted(_DUAL_BODIES_3D))
    def test_at_least_the_direction_scan_3d(self, name):
        body = _DUAL_BODIES_3D[name]()
        ws = np.random.default_rng(derive_seed(12, name)).standard_normal((3, 3))
        scan = sphere_rule(3, 8192, body=body).nodes
        norms = am.SphereMomentKernel(body, 1.0).norms_pow_p(scan)
        best = np.max(np.einsum("nk,mk->nm", ws, scan) / norms, axis=1)
        duals = am.dual_norm_z1(body, ws)
        assert np.all(duals >= best * (1.0 - 1e-12))
        # the scan's best direction is close to the maximizer
        np.testing.assert_allclose(duals, best, rtol=1e-3, atol=0.0)

    @pytest.mark.parametrize("radius", [0.02, 50.0])
    def test_scales_with_the_body_3d(self, radius):
        # the generators scale as radius^4, so the dual norm scales as
        # radius^-4; at radius 0.02 they are ~1e-10, below the solver's
        # zero threshold unless its rows are scaled
        ws = np.random.default_rng(derive_seed(13, "scale")).standard_normal((3, 3))
        unit = am.dual_norm_z1(am.EuclideanBall(3), ws)
        np.testing.assert_allclose(am.dual_norm_z1(am.EuclideanBall(3, radius), ws),
                                   radius**-4 * unit, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("axes", [[1.0, 1.0, 0.05], [20.0, 1.0, 0.05]])
    def test_thin_body_at_least_the_polished_scan_3d(self, axes):
        # the generators along the short axis are up to 1e-10 of the largest;
        # the gauge is at least the best ratio over an 8192-node scan and
        # over a Nelder-Mead ascent from it (a lower bound that the solver's
        # own objective, with those entries dropped, misses by up to 1e-9)
        body = am.Ellipsoid.from_semi_axes(axes)
        kernel = am.SphereMomentKernel(body, 1.0)
        ws = np.random.default_rng(derive_seed(14, str(axes))).standard_normal((2, 3))
        scan = sphere_rule(3, 8192, body=body).nodes
        ratios = np.einsum("nk,mk->nm", ws, scan) / kernel.norms_pow_p(scan)
        duals = am.dual_norm_z1(body, ws)
        for w, r, dual in zip(ws, ratios, duals):
            def neg_ratio(angles, w=w):
                theta, phi = angles
                s = np.array([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta),
                              np.cos(phi)])
                return -float(s @ w) / float(kernel.norms_pow_p(s))

            start = scan[np.argmax(r)]
            ascent = minimize(neg_ratio, [np.arctan2(start[1], start[0]), np.arccos(start[2])],
                              method="Nelder-Mead",
                              options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 800})
            assert dual >= max(np.max(r), -ascent.fun) * (1.0 - 1e-12)

    def test_small_components_count_3d(self):
        # a component of w below 1e-9 moves the gauge linearly, and a w of
        # size 1e-12 scales it
        body = _tilted_ellipsoid_3d()
        w = np.array([1.0, 0.3, 0.0])
        low, mid, high = am.dual_norm_z1(body, w + [[0.0, 0.0, t] for t in (-1e-10, 0.0, 1e-10)])
        assert high - mid == pytest.approx(mid - low, rel=1e-3)
        assert high != mid
        assert am.dual_norm_z1(body, 1e-12 * w) == pytest.approx(1e-12 * mid, rel=1e-12)


def _node_sum(nodes, weights, v):
    """The p = 2 surface sum taken node by node: sum_m w_m |v . sigma_m|_2^2."""
    re = np.einsum("...k,mk->...m", np.real(v), nodes)
    im = np.einsum("...k,mk->...m", np.imag(v), nodes)
    return np.einsum("...m,m->...", re**2 + im**2, weights)


_P2_BODIES = {
    "ball": lambda: am.EuclideanBall(2),
    "cube": lambda: am.cube(2),
    "hexagon": am.regular_hexagon,
    "ellipse": lambda: am.Ellipsoid.from_semi_axes([2.0, 1.0]),
    "cube3": lambda: am.cube(3),
    "interval": lambda: am.EuclideanBall(1, radius=2.0),
}


class TestSecondMomentPath:
    """At p = 2 the kernel contracts with its second-moment matrix; that is the
    node-by-node sum in another order, so the two agree to rounding."""

    @pytest.mark.parametrize("name", sorted(_P2_BODIES))
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_node_sum(self, name, kind):
        body = _P2_BODIES[name]()
        kernel = am.SphereMomentKernel(body, 2.0)
        rng = np.random.default_rng(derive_seed(5, name, kind))
        v = rng.standard_normal((7, 3, body.dim))
        if kind == "complex":
            v = v + 1j * rng.standard_normal(v.shape)
        ref = _node_sum(kernel.rule.nodes, kernel.kernel_weights, v)
        got = kernel.norms_pow_p(v)
        assert got.shape == (7, 3)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)
        assert kernel.norm(v[0, 0]) == pytest.approx(math.sqrt(ref[0, 0]), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("name", sorted(_P2_BODIES))
    def test_error_estimate_matches_node_sums(self, name):
        body = _P2_BODIES[name]()
        kernel = am.SphereMomentKernel(body, 2.0)
        rng = np.random.default_rng(derive_seed(6, name))
        v = rng.standard_normal((4, body.dim)) + 1j * rng.standard_normal((4, body.dim))
        fine = np.sqrt(_node_sum(kernel.rule.nodes, kernel.kernel_weights, v))
        coarse = kernel.rule.coarse
        gap = 0.0
        if coarse is not None:
            weights = coarse.weights / body.gauge(coarse.nodes) ** (body.dim + 2.0) / 2.0
            gap = float(np.max(np.abs(fine - np.sqrt(_node_sum(coarse.nodes, weights, v)))))
        ref = max(gap, ROUNDING_FLOOR * float(np.max(fine)))
        # the estimate is a difference of near-equal values: compare it on
        # the scale of the values themselves
        got = kernel.norm_error_estimate(v)
        assert abs(got - ref) <= 1e-13 * float(np.max(fine))

    @pytest.mark.parametrize("name", sorted(_P2_BODIES))
    def test_error_estimate_covers_the_reordered_sum(self, name):
        # where both rules integrate the quadratic exactly (ball, interval)
        # the coarse gap is 0 or rounding; the rounding floor must still
        # cover the difference between the two summation orders
        body = _P2_BODIES[name]()
        kernel = am.SphereMomentKernel(body, 2.0)
        rng = np.random.default_rng(derive_seed(7, name))
        for _ in range(20):
            v = rng.standard_normal(body.dim) + 1j * rng.standard_normal(body.dim)
            node_value = math.sqrt(float(_node_sum(kernel.rule.nodes, kernel.kernel_weights, v)))
            assert abs(kernel.norm(v) - node_value) <= kernel.norm_error_estimate(v)

    @pytest.mark.parametrize("name", sorted(_P2_BODIES))
    def test_zero_vector_is_exactly_zero(self, name):
        body = _P2_BODIES[name]()
        kernel = am.SphereMomentKernel(body, 2.0)
        assert kernel.norm(np.zeros(body.dim)) == 0.0
        assert kernel.norm(np.zeros(body.dim, dtype=complex)) == 0.0
        assert np.all(kernel.norms_pow_p(np.zeros((3, body.dim))) == 0.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_real_batch_equals_its_complex_copy(self, p):
        # real input skips the imaginary part; the values are bit-identical
        kernel = am.SphereMomentKernel(am.regular_hexagon(), p)
        v = np.random.default_rng(8).standard_normal((50, 2))
        assert np.array_equal(kernel.norms_pow_p(v), kernel.norms_pow_p(v.astype(complex)))
        assert kernel.norm_error_estimate(v) == kernel.norm_error_estimate(v.astype(complex))
