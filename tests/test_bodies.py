"""Convex bodies: gauges, membership, sampling, radii."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import anisomag as am


def bodies_catalog():
    return [
        am.EuclideanBall(2),
        am.cube(2),
        am.Ellipsoid.from_semi_axes([2.0, 1.0]),
        am.SymmetricPolytope([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 1, 1]),
        am.regular_hexagon(),
        am.LqBall(2, 1.5),
        am.EuclideanBall(3),
        am.cube(3),
    ]


class TestGauge:
    def test_cube_max_norm(self):
        assert am.cube(2).gauge([3.0, 4.0]) == pytest.approx(4.0, abs=1e-14)

    def test_ball_euclidean(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 2))
        np.testing.assert_allclose(am.EuclideanBall(2).gauge(x),
                                   np.linalg.norm(x, axis=1), rtol=1e-14)

    def test_ellipsoid_boundary_point(self):
        e = am.Ellipsoid.from_semi_axes([2.0, 1.0])
        assert e.gauge([2.0, 0.0]) == pytest.approx(1.0, abs=1e-14)

    def test_polytope_matches_lq_cube(self):
        poly = am.SymmetricPolytope([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 1, 1])
        rng = np.random.default_rng(1)
        x = rng.standard_normal((200, 2)) * 3
        np.testing.assert_allclose(poly.gauge(x), am.cube(2).gauge(x), rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            am.EuclideanBall(2).gauge([1.0, 2.0, 3.0])


class TestContains:
    def test_origin(self):
        for body in bodies_catalog():
            assert body.contains(np.zeros(body.dim))

    def test_cube_boundary_inclusive(self):
        assert am.cube(2).contains([1.0, 1.0])
        assert not am.cube(2).contains([1.0001, 0.0])

    def test_agrees_with_gauge(self):
        rng = np.random.default_rng(7)
        for body in bodies_catalog():
            x = rng.standard_normal((10_000, body.dim)) * body.r_out
            np.testing.assert_array_equal(body.contains(x), body.gauge(x) <= 1.0 + 1e-12)


class TestBoundingRadii:
    @pytest.mark.parametrize(
        "body,expected",
        [
            (am.EuclideanBall(2), (1.0, 1.0)),
            (am.cube(2), (1.0, math.sqrt(2.0))),
            (am.Ellipsoid.from_semi_axes([2.0, 1.0]), (1.0, 2.0)),
            (am.SymmetricPolytope([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 1, 1]),
             (1.0, math.sqrt(2.0))),
        ],
    )
    def test_examples(self, body, expected):
        r_in, r_out = body.bounding_radii()
        assert r_in == pytest.approx(expected[0], rel=1e-12)
        assert r_out == pytest.approx(expected[1], rel=1e-12)

    def test_sandwich_bound(self):
        rng = np.random.default_rng(3)
        for body in bodies_catalog():
            x = rng.standard_normal((2000, body.dim)) * 2
            norms = np.linalg.norm(x, axis=1)
            g = body.gauge(x)
            assert np.all(g >= norms / body.r_out - 1e-12)
            assert np.all(g <= norms / body.r_in + 1e-12)


class TestNormProperties:
    def test_homogeneity_and_triangle(self):
        rng = np.random.default_rng(11)
        for body in bodies_catalog():
            x = rng.standard_normal((10_000, body.dim))
            y = rng.standard_normal((10_000, body.dim))
            t = rng.standard_normal(10_000)
            np.testing.assert_allclose(body.gauge(t[:, None] * x),
                                       np.abs(t) * body.gauge(x), rtol=1e-12, atol=1e-14)
            assert np.all(body.gauge(x + y) <= body.gauge(x) + body.gauge(y) + 1e-12)

    def test_origin_symmetry(self):
        rng = np.random.default_rng(12)
        for body in bodies_catalog():
            x = rng.standard_normal((500, body.dim))
            np.testing.assert_allclose(body.gauge(-x), body.gauge(x), rtol=1e-13)

    PROPERTY_BODIES = [
        am.EuclideanBall(2), am.EuclideanBall(3),
        am.Ellipsoid([[2.0, 0.5], [0.5, 1.0]]),
        am.Ellipsoid([[2.0, 0.5, 0.1], [0.5, 1.0, -0.3], [0.1, -0.3, 0.7]]),
        am.regular_hexagon(),
        *(am.LqBall(dim, q) for dim in (2, 3) for q in (1.5, 3.0, math.inf)),
    ]

    @staticmethod
    def _point(dim):
        coords = st.floats(-10.0, 10.0, allow_subnormal=False)
        return st.lists(coords, min_size=dim, max_size=dim).map(np.array).filter(
            lambda x: np.abs(x).max() > 1e-3)

    @pytest.mark.parametrize("body", PROPERTY_BODIES, ids=lambda b: f"{b.name}-{b.dim}d")
    @given(data=st.data(), lam=st.floats(1e-3, 1e3))
    def test_homogeneity_property(self, body, data, lam):
        x = data.draw(self._point(body.dim))
        assert body.gauge(lam * x) == pytest.approx(lam * body.gauge(x), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("body", PROPERTY_BODIES, ids=lambda b: f"{b.name}-{b.dim}d")
    @given(data=st.data())
    def test_origin_symmetry_property(self, body, data):
        # exact for the gauges built from |x_k| and quadratic forms; the
        # hexagon's opposite facet normals are negatives of each other to
        # rounding only, so there the two sides may differ in the last bits
        x = data.draw(self._point(body.dim))
        rel = 1e-12 if isinstance(body, am.SymmetricPolytope) else 0.0
        assert body.gauge(-x) == pytest.approx(body.gauge(x), rel=rel, abs=0.0)

    def test_zero_iff_origin(self):
        for body in bodies_catalog():
            assert body.gauge(np.zeros(body.dim)) == 0.0
            assert body.gauge(1e-8 * np.ones(body.dim)) > 0.0


class TestSampling:
    def test_ball_mean_centered(self):
        pts = am.EuclideanBall(2).sample_uniform(100_000, seed=5)
        # mean of each coordinate is 0; se = sqrt(E[x^2]/n), E[x1^2] = 1/4
        se = math.sqrt(0.25 / len(pts))
        assert np.all(np.abs(pts.mean(axis=0)) < 3 * se)

    def test_cube_second_moment(self):
        # E[x1^2] over [-1,1]^2 equals 1/3 (closed-form moment of the uniform law)
        pts = am.cube(2).sample_uniform(100_000, seed=6)
        m2 = (pts[:, 0] ** 2).mean()
        # var(x^2) = E x^4 - (E x^2)^2 = 1/5 - 1/9
        se = math.sqrt((1.0 / 5.0 - 1.0 / 9.0) / len(pts))
        assert abs(m2 - 1.0 / 3.0) < 3 * se

    def test_samples_inside(self):
        for body in bodies_catalog():
            pts = body.sample_uniform(20_000, seed=7)
            assert np.all(body.contains(pts))

    def test_deterministic(self):
        a = am.regular_hexagon().sample_uniform(100, seed=42)
        b = am.regular_hexagon().sample_uniform(100, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_acceptance_rate(self):
        # acceptance ratio should be near vol(K) / vol(circumscribed ball)
        body = am.cube(2)
        n = 50_000
        rng_pts = body.sample_uniform(n, seed=8)
        assert len(rng_pts) == n  # completed without hitting the retry cap

    def test_count_validation(self):
        with pytest.raises(ValueError):
            am.EuclideanBall(2).sample_uniform(0, seed=1)


class TestPolytopeConstruction:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            am.SymmetricPolytope([[1, 0], [0, 1], [-1, 0]], [1, 1, 1])

    def test_rejects_nonpositive_offsets(self):
        with pytest.raises(ValueError):
            am.SymmetricPolytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, -1, 1, 1])

    def test_rejects_unbounded(self):
        with pytest.raises(ValueError):
            am.Polytope([[1, 0], [-1, 0]], [1, 1])  # a slab in 2-D

    def test_volumes(self):
        assert am.cube(2).volume() == pytest.approx(4.0)
        assert am.EuclideanBall(2).volume() == pytest.approx(math.pi)
        assert am.Ellipsoid.from_semi_axes([2.0, 1.0]).volume() == pytest.approx(2 * math.pi)
        # regular hexagon with inradius 1: area = 2*sqrt(3)
        assert am.regular_hexagon().volume() == pytest.approx(2 * math.sqrt(3.0), rel=1e-9)

    def test_ray_interval_against_membership(self):
        sq = am.unit_square()
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, size=(200, 2))
        d = rng.standard_normal((200, 2))
        t_lo, t_hi = sq.ray_interval(x, d)
        ts = np.linspace(-3, 3, 401)
        for i in range(200):
            pts = x[i] + ts[:, None] * d[i]
            inside = sq.contains(pts)
            if t_lo[i] > t_hi[i]:
                assert not inside.any()
            else:
                mid = 0.5 * (max(t_lo[i], -3) + min(t_hi[i], 3))
                if t_lo[i] <= mid <= t_hi[i]:
                    assert sq.contains(x[i] + mid * d[i])
                outside_mask = (ts < t_lo[i] - 1e-9) | (ts > t_hi[i] + 1e-9)
                assert not inside[outside_mask].any()

    def test_degenerate_region_measure_zero(self):
        flat = am.box_region([0.3, 0.0], [0.0, 0.5])
        assert flat.volume() == 0.0


def broadcast_ray_interval(poly, x, sigma):
    """Oracle: the (ray, facet) broadcast formulation of Polytope.ray_interval."""
    x = np.asarray(x, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    nx = np.einsum("...k,fk->...f", x, poly.normals)
    ns = np.einsum("...k,fk->...f", sigma, poly.normals)
    slack = poly.offsets - nx
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = slack / ns
    pos = ns > 1e-300
    neg = ns < -1e-300
    t_hi = np.min(np.where(pos, bound, np.inf), axis=-1)
    t_lo = np.max(np.where(neg, bound, -np.inf), axis=-1)
    parallel_bad = np.any(~pos & ~neg & (slack < 0.0), axis=-1)
    t_hi = np.where(parallel_bad, -np.inf, t_hi)
    return t_lo, t_hi


def ray_regions():
    return {
        "square": am.unit_square(),
        "hexagon": am.regular_hexagon().polytope,
        "box3": am.box_region([0.1, 0.0, -0.2], [0.5, 0.3, 0.7]),
    }


def assert_bitwise_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestRayInterval:
    @pytest.mark.parametrize("name", ["square", "hexagon", "box3"])
    def test_bitwise_equal_to_broadcast_oracle(self, name):
        region = ray_regions()[name]
        dim = region.dim
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, (120, dim))
        x[:40] = np.round(x[:40] * 4.0) / 8.0  # many points on facets and axes
        sig = rng.standard_normal((60, dim))
        sig /= np.linalg.norm(sig, axis=1)[:, None]
        sig = np.vstack([sig, np.eye(dim), -np.eye(dim), region.normals])
        m = len(sig)
        cases = [
            (x[:, None, :], sig[None, :, :]),  # (c, 1, D) x (1, m, D)
            (x[:m], sig),  # (n, D) x (n, D)
            (x[:7], sig[3]),  # (n, D) x (D,)
            (x[0], sig[0]),  # a single vector
            (x[1], sig[m - 1]),
        ]
        for xs, ss in cases:
            got = region.ray_interval(xs, ss)
            want = broadcast_ray_interval(region, xs, ss)
            for g, w in zip(got, want):
                assert_bitwise_equal(g, w)

    def test_axis_parallel_rays(self):
        sq = am.unit_square()
        e1 = np.array([1.0, 0.0])
        x = np.array([
            [0.0, 0.2],  # inside both parallel facets y = +-1/2
            [0.9, 0.2],  # outside a crossed facet only: interval still non-empty
            [0.0, 0.7],  # outside the parallel facet y <= 1/2
            [0.0, -0.7],  # outside the parallel facet y >= -1/2
            [0.0, 0.5],  # on the parallel facet: not outside it
        ])
        t_lo, t_hi = sq.ray_interval(x, e1)
        np.testing.assert_array_equal(t_lo[[0, 1, 4]], [-0.5, -1.4, -0.5])
        np.testing.assert_array_equal(t_hi[[0, 1, 4]], [0.5, -0.4, 0.5])
        assert np.all(t_hi[[2, 3]] == -np.inf)
        assert np.all(t_lo[[2, 3]] > t_hi[[2, 3]])

        box = ray_regions()["box3"]  # [-0.4, 0.6] x [-0.3, 0.3] x [-0.9, 0.5]
        e3 = np.array([0.0, 0.0, -1.0])
        x3 = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.7, 0.0, 2.0]])
        t_lo, t_hi = box.ray_interval(x3, e3)
        np.testing.assert_allclose([t_lo[0], t_hi[0]], [-0.5, 0.9], rtol=1e-15)
        assert t_hi[1] == -np.inf and t_hi[2] == -np.inf

    @settings(max_examples=300)
    @given(
        name=st.sampled_from(["square", "hexagon", "box3"]),
        coords=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
        direction=st.lists(st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-1.0, 1.0),
                           min_size=3, max_size=3),
        t=st.floats(-4.0, 4.0),
    )
    def test_interval_agrees_with_contains(self, name, coords, direction, t):
        region = ray_regions()[name]
        x = np.asarray(coords[: region.dim])
        sigma = np.asarray(direction[: region.dim])
        assume(np.linalg.norm(sigma) > 0.1)
        point = x + t * sigma
        # skip points within 1e-9 of a facet hyperplane
        assume(np.all(np.abs(region.normals @ point - region.offsets) > 1e-9))
        t_lo, t_hi = region.ray_interval(x, sigma)
        assert region.contains(point) == bool(t_lo <= t <= t_hi)

    @staticmethod
    def _reach_points(region, rng):
        """Points inside, on facets (dyadic), just outside and far outside."""
        dim = region.dim
        x = rng.uniform(-1.2, 1.2, (90, dim))
        x[:30] = np.round(x[:30] * 8.0) / 16.0
        # points at slack 0, +-1/64 and 1/4 from each facet, off its centre
        for normal, offset in zip(region.normals, region.offsets):
            for gap in (0.0, 1.0 / 64.0, -1.0 / 64.0, 0.25):
                x = np.vstack([x, (offset - gap) * normal + 0.1 * rng.uniform(-1, 1, dim)])
        return x

    @staticmethod
    def _unit_directions(region, rng):
        dim = region.dim
        sig = rng.standard_normal((40, dim))
        sig /= np.linalg.norm(sig, axis=1)[:, None]
        return np.vstack([sig, np.eye(dim), -np.eye(dim), region.normals, -region.normals])

    @pytest.mark.parametrize("name", ["square", "hexagon", "box3"])
    def test_reach_keeps_the_clipped_bits(self, name):
        # each caller's clip of the interval with facets beyond reach skipped
        # equals the full fold's clip, byte for byte, however the points are
        # split into calls (which changes the facets a call skips)
        region = ray_regions()[name]
        rng = np.random.default_rng(17)
        x = self._reach_points(region, rng)
        sig = self._unit_directions(region, rng)
        cut = rng.uniform(0.02, 0.1, len(sig))  # per direction, as 1/(n g)
        reach = float(cut.max()) * 1.0000001
        m = 16  # the mollifier clips t m into [0, 1]
        skipped = False  # some call's unclipped interval differs: a facet was skipped
        for chunk in (len(x), 7, 1):
            for start in range(0, len(x), chunk):
                xs = x[start : start + chunk, None, :]
                t_lo, t_hi = broadcast_ray_interval(region, xs, sig[None])
                got = region.ray_interval(xs, sig[None], reach)
                skipped |= not np.array_equal(got[1], t_hi)
                for g, w in zip(clip_indicator(*got, cut), clip_indicator(t_lo, t_hi, cut)):
                    assert_bitwise_equal(g, w)
                t_lo, t_hi = broadcast_ray_interval(region, xs, -sig)
                got = region.ray_interval(xs, -sig, (1.0 / m) * 1.0000001)
                for g, w in zip(clip_mollifier(*got, m), clip_mollifier(t_lo, t_hi, m)):
                    assert_bitwise_equal(g, w)
        assert skipped

    @pytest.mark.parametrize("name", ["square", "box3"])
    def test_reach_equal_to_a_slack_keeps_the_facet(self, name):
        region = ray_regions()[name]
        dim = region.dim
        # dyadic points at slack exactly 1/8 from facet 0 (normal e_1) and
        # farther than 1/8 from every other facet
        x = np.zeros((3, dim))
        x[:, 0] = region.offsets[0] - 0.125
        x[:, 1] = [-0.0625, 0.0, 0.0625]
        nx = np.einsum("nk,fk->nf", x, region.normals)
        slack = region.offsets - nx
        assert slack[:, 0].tolist() == [0.125] * 3 and np.all(slack[:, 1:] > 0.125)
        sig = self._unit_directions(region, np.random.default_rng(3))
        want = broadcast_ray_interval(region, x[:, None, :], sig[None])
        keep = region.ray_interval(x[:, None, :], sig[None], 0.125)
        skip = region.ray_interval(x[:, None, :], sig[None], np.nextafter(0.125, 0.0))
        # at reach 1/8 facet 0 alone is folded in: the rays that leave through
        # it end at 1/8 / sigma_1, and along e_1 at the reach itself; below it
        # no facet is folded in
        leave = sig[:, 0] > 0.0
        assert np.all(np.isfinite(keep[1][:, leave])) and np.all(keep[1][:, ~leave] == np.inf)
        assert np.all(keep[1][:, np.all(sig == np.eye(dim)[0], axis=1)] == 0.125)
        assert np.all(skip[1] == np.inf) and np.all(skip[0] == -np.inf)
        cut = np.full(len(sig), 0.125 / 1.0000001)
        for g, w in zip(clip_indicator(*keep, cut), clip_indicator(*want, cut)):
            assert_bitwise_equal(g, w)

def clip_indicator(t_lo, t_hi, cut):
    """The mollified functional's indicator path: [a, b] inside [1e-300, cut]."""
    lo = np.minimum(np.maximum(t_lo, 1e-300), cut)
    return lo, np.minimum(np.maximum(t_hi, lo), cut)


def clip_mollifier(t_lo, t_hi, m):
    """The mollified indicator: the interval in units of 1/m inside [0, 1]."""
    lo = np.clip(t_lo * m, 0.0, 1.0)
    return lo, np.maximum(np.clip(t_hi * m, 0.0, 1.0), lo)


def region_distance(name, region, x):
    """Oracle: the Euclidean distance from each point of x to a region of
    ray_regions(), by the box formula or, for the hexagon, the nearest edge."""
    if name != "hexagon":
        dim = region.dim
        hi, lo = region.offsets[:dim], -region.offsets[dim:]
        gap = np.maximum(np.maximum(lo - x, x - hi), 0.0)
        return np.sqrt(np.einsum("nk,nk->n", gap, gap))
    verts = region.vertices
    verts = verts[np.argsort(np.arctan2(verts[:, 1], verts[:, 0]))]
    a, ab = verts, np.roll(verts, -1, axis=0) - verts
    t = np.clip(np.einsum("nek,ek->ne", x[:, None] - a, ab) / np.einsum("ek,ek->e", ab, ab),
                0.0, 1.0)
    off = x[:, None] - (a + t[..., None] * ab)
    return np.sqrt(np.einsum("nek,nek->ne", off, off)).min(axis=1)


class TestSignedDistance:
    @pytest.mark.parametrize("name", ["square", "hexagon", "box3"])
    def test_against_slack_and_distance(self, name):
        region = ray_regions()[name]
        rng = np.random.default_rng(23)
        x = rng.uniform(-1.5, 1.5, (600, region.dim))
        sd = region.signed_distance(x)
        slack = region.offsets - np.einsum("nk,fk->nf", x, region.normals)
        inside = region.contains(x)
        assert inside.sum() > 20 and (~inside).sum() > 20
        # inside: minus the distance to the boundary, the smallest slack
        np.testing.assert_allclose(sd[inside], -slack[inside].min(axis=1), rtol=0.0, atol=1e-15)
        # outside: positive and at most the distance to the region
        dist = region_distance(name, region, x[~inside])
        assert np.all(sd[~inside] > 0.0)
        assert np.all(sd[~inside] <= dist + 1e-12)
        # it is not the plane distance: far from a corner it keeps growing
        assert sd[~inside].max() > 0.9

    def test_batch_shape(self):
        region = ray_regions()["box3"]
        x = np.random.default_rng(2).uniform(-1, 1, (4, 5, 3))
        sd = region.signed_distance(x)
        assert sd.shape == (4, 5)
        assert_bitwise_equal(sd.ravel(), region.signed_distance(x.reshape(-1, 3)))
