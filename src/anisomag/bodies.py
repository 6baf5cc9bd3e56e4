"""Origin-symmetric convex bodies and their Minkowski gauges.

A body K defines the anisotropic norm ``gauge(x) = inf{l > 0 : x/l in K}``.
All shapes here have closed-form gauges, which keeps the singular kernels of
the nonlocal functionals cheap and exact.  Supported shapes: Euclidean balls,
ellipsoids, symmetric polytopes (facet representation), among them the cube
and the cross-polytope, and l_q balls for 1 < q < inf.  Polytope vertices,
volumes and facet areas come from one recursion over facets, in numpy alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

REJECTION_ROUND_CAP = 10_000


def unit_ball_volume(dim: int) -> float:
    """Volume of the Euclidean unit ball in ``dim`` dimensions."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def _as_points(x, dim: int) -> tuple[np.ndarray, bool]:
    """Coerce ``x`` to an (n, dim) float array; report whether input was a single vector."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise ValueError(f"expected a vector of dimension {dim}, got {arr.shape[0]}")
        return arr[None, :], True
    if arr.shape[-1] != dim:
        raise ValueError(f"expected last axis of size {dim}, got {arr.shape}")
    return arr.reshape(-1, dim), False


class Polytope:
    """Bounded intersection of halfspaces {x : normals @ x <= offsets}.

    The facet normals are stored unit-length.  Vertices, volume and facet
    areas come from one recursion over facets (``_facet_recursion``), run
    lazily once and cached; they are needed for circumradii, uniform sampling
    and perimeter computations.  A set that is empty or flat (its volume at
    most 1e-12 times its surface) has no vertices and measure zero; an
    unbounded one raises ValueError at its first geometry query.
    """

    def __init__(self, normals, offsets):
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        offsets = np.asarray(offsets, dtype=float).ravel()
        if normals.shape[0] != offsets.shape[0]:
            raise ValueError("one offset per facet normal required")
        lengths = np.sqrt(np.einsum("fi,fi->f", normals, normals))
        if np.any(lengths <= 0.0):
            raise ValueError("zero facet normal")
        self.normals = normals / lengths[:, None]
        self.offsets = offsets / lengths
        self.dim = normals.shape[1]
        if np.linalg.matrix_rank(self.normals) < self.dim:
            raise ValueError("polytope is unbounded: facet normals do not span R^N")

    @cached_property
    def _geometry(self) -> tuple[np.ndarray, np.ndarray, float]:
        verts, areas, volume = _facet_recursion(self.normals, self.offsets)
        verts = np.unique(np.round(verts, 12), axis=0)
        # chains through different facets reach a vertex with different
        # roundings, which may straddle a 12th digit: keep the first of each
        # cluster within 1e-9
        gap = np.abs(verts[:, None, :] - verts[None, :, :]).max(axis=-1)
        return verts[~np.tril(gap <= 1e-9, -1).any(axis=1)], areas, volume

    @property
    def vertices(self) -> np.ndarray:
        return self._geometry[0]

    def volume(self) -> float:
        return self._geometry[2]

    def contains(self, x) -> np.ndarray | bool:
        """Membership with a 1e-12 slack, one facet at a time."""
        pts, single = _as_points(x, self.dim)
        inside = np.ones(len(pts), dtype=bool)
        for normal, offset in zip(self.normals, self.offsets):
            inside &= np.einsum("nk,k->n", pts, normal) <= offset + 1e-12
        return bool(inside[0]) if single else inside

    def signed_distance(self, x) -> np.ndarray:
        """max over f of n_f . x - offset_f for each point of ``x`` (..., dim),
        one facet at a time.  Inside the region it is minus the distance to the
        boundary; outside it is a lower bound on the distance to the region."""
        x = np.asarray(x, dtype=float)
        dist = np.full(x.shape[:-1], -np.inf)
        for normal, offset in zip(self.normals, self.offsets):
            np.maximum(dist, np.einsum("...k,k->...", x, normal) - offset, out=dist)
        return dist

    def circumradius(self) -> float:
        verts = self.vertices
        if len(verts) == 0:
            return 0.0
        return float(np.sqrt(np.einsum("vi,vi->v", verts, verts)).max())

    def facet_areas(self) -> np.ndarray:
        """Surface measure of each facet, aligned with ``self.normals``."""
        return self._geometry[1].copy()

    def ray_interval(self, x, sigma, reach=np.inf) -> tuple[np.ndarray, np.ndarray]:
        """Parameter interval {t : x + t*sigma in polytope}, vectorized.

        ``x`` and ``sigma`` broadcast to a common leading shape with trailing
        axis ``dim``.  Returns (t_lo, t_hi) of that leading shape; the
        interval is empty wherever t_lo > t_hi.  Intervals are unclipped (may
        be negative or infinite in the unbounded direction of a single facet,
        though boundedness of the polytope keeps them finite).

        Facets are folded in one at a time: facet f bounds t from above by
        ``slack_f / (sigma . n_f)`` when the ray leaves through it and from
        below when it enters, so memory is O(rays) per facet and no
        (ray, facet) array is built.  A facet parallel to the ray
        (``|sigma . n_f| <= 1e-300``) bounds nothing, unless the point lies
        outside it, in which case the interval is empty (t_hi = -inf).

        ``reach`` skips each facet on which every point of ``x`` has a slack
        above ``reach``.  For unit ``sigma`` such a facet bounds t only beyond
        ``reach``: above it on rays that leave through the facet, below
        -``reach`` on rays that enter.  So once both ends are clipped into
        [0, c], with c a little below ``reach`` (the callers leave a factor
        1.0000001 for the rounding of sigma . n_f), every bit is that of the
        full fold.  A facet with a negative slack is never skipped, and the
        default skips none.
        """
        x = np.asarray(x, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        nx = np.einsum("...k,fk->...f", x, self.normals)
        ns = np.einsum("...k,fk->...f", sigma, self.normals)
        shape = np.broadcast_shapes(nx.shape, ns.shape)[:-1]
        t_lo = np.full(shape, -np.inf)
        t_hi = np.full(shape, np.inf)
        bad = np.zeros(shape, dtype=bool)
        bound = np.empty(shape)
        for f, offset in enumerate(self.offsets):
            slack = offset - nx[..., f]  # >= 0 inside
            if reach < np.inf and not (slack <= reach).any():
                continue
            ns_f = ns[..., f]
            pos = ns_f > 1e-300
            neg = ns_f < -1e-300
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                np.divide(slack, ns_f, out=bound)
            np.minimum(t_hi, bound, out=t_hi, where=pos)
            np.maximum(t_lo, bound, out=t_lo, where=neg)
            bad |= ~(pos | neg) & (slack < 0.0)
        t_hi[bad] = -np.inf
        return t_lo, t_hi


def _hyperplane_basis(normal: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to ``normal``."""
    n = normal / np.linalg.norm(normal)
    dim = len(n)
    basis = []
    for e in np.eye(dim):
        v = e - (e @ n) * n
        for b in basis:
            v = v - (v @ b) * b
        norm = np.linalg.norm(v)
        if norm > 1e-10:
            basis.append(v / norm)
    return np.asarray(basis[: dim - 1])


_FLAT = 1e-12  # a section this thin counts as flat; the slack of Polytope.contains


def _facet_recursion(normals, offsets) -> tuple[np.ndarray, np.ndarray, float]:
    """Vertices, facet measures and volume of {x : normals @ x <= offsets}
    (unit normals).

    Facet f is the (dim-1)-polytope that the other half-spaces cut from its
    hyperplane {b_f n_f + y @ _hyperplane_basis(n_f)}; the recursion ends at
    1-D intervals.  The volume is (1/dim) sum_f b_f |F_f| (divergence theorem).
    A half-space parallel to facet f bounds nothing on it or cuts its
    hyperplane off (the facet is empty); a facet equal to an earlier one is
    skipped.  A set whose volume is at most _FLAT times its surface is flat:
    no vertices, measure zero.  Vertices come unrounded, once per facet chain.
    """
    dim = normals.shape[1]
    measures = np.zeros(len(offsets))
    if dim == 1:
        ends, up = offsets / normals[:, 0], normals[:, 0] > 0.0
        if up.all() or not up.any():
            raise ValueError("polytope is unbounded")
        lo, hi = ends[~up].max(), ends[up].min()
        measures[np.flatnonzero(up & (ends - hi <= _FLAT))[0]] = 1.0
        measures[np.flatnonzero(~up & (lo - ends <= _FLAT))[0]] = 1.0
        verts, volume = np.array([[lo], [hi]]), hi - lo
    else:
        parts = [np.empty((0, dim))]
        for f, (normal, offset) in enumerate(zip(normals, offsets)):
            basis = _hyperplane_basis(normal)
            cos = np.einsum("gk,k->g", normals, normal)
            proj = np.einsum("gk,jk->gj", normals, basis)
            rhs = offsets - offset * cos
            length = np.sqrt(np.einsum("gj,gj->g", proj, proj))
            parallel = length <= _FLAT  # facet f itself among them
            if (parallel & (rhs < -_FLAT)).any() or (
                    parallel[:f] & (cos[:f] > 0.0) & (rhs[:f] <= _FLAT)).any():
                continue
            keep = ~parallel
            sub, _, measures[f] = _facet_recursion(proj[keep] / length[keep, None],
                                                    rhs[keep] / length[keep])
            parts.append(offset * normal + np.einsum("vj,jk->vk", sub, basis))
        verts, volume = np.concatenate(parts), np.einsum("f,f->", offsets, measures) / dim
    if volume <= _FLAT * measures.sum():
        return np.empty((0, dim)), np.zeros(len(offsets)), 0.0
    return verts, measures, float(volume)


def box_region(center, half_widths) -> Polytope:
    """Axis-aligned box as a polytope region."""
    center = np.asarray(center, dtype=float)
    half = np.asarray(half_widths, dtype=float)
    dim = len(center)
    normals = np.vstack([np.eye(dim), -np.eye(dim)])
    offsets = np.concatenate([center + half, -(center - half)])
    return Polytope(normals, offsets)


def unit_square() -> Polytope:
    """The centered unit square [-1/2, 1/2]^2."""
    return box_region([0.0, 0.0], [0.5, 0.5])


@dataclass(frozen=True)
class ConvexBody:
    """Origin-symmetric convex body with a closed-form Minkowski gauge.

    Instances are immutable; every operation is pure.  ``gauge`` and
    ``contains`` accept a single vector or any (..., dim) batch.
    """

    dim: int
    r_in: float
    r_out: float
    name: str = field(default="body")

    def gauge(self, x):
        raise NotImplementedError

    def contains(self, x):
        """Exact shape membership (boundary inclusive), not gauge round-off."""
        raise NotImplementedError

    def volume(self) -> float:
        raise NotImplementedError

    def facet_angles(self):
        """Angles on S^1 where the active facet switches (2-D polytopes only)."""
        return None

    def sample_uniform(self, count: int, seed: int) -> np.ndarray:
        """Uniform points in the body by rejection from the circumscribed ball.

        Deterministic for a fixed seed.  Raises RuntimeError if the rejection
        loop stalls (cannot happen for the supported shapes at small N, where
        the acceptance rate is at least (r_in/r_out)^N).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        rng = np.random.default_rng(seed)
        out = np.empty((count, self.dim))
        filled = 0
        for _ in range(REJECTION_ROUND_CAP):
            need = count - filled
            draw = max(2 * need, 64)
            g = rng.standard_normal((draw, self.dim))
            g /= np.sqrt(np.einsum("nk,nk->n", g, g))[:, None]
            radii = self.r_out * rng.random(draw) ** (1.0 / self.dim)
            pts = g * radii[:, None]
            acc = pts[self.contains(pts)]
            take = min(len(acc), need)
            out[filled : filled + take] = acc[:take]
            filled += take
            if filled == count:
                return out
        raise RuntimeError("rejection sampling exceeded the retry cap")

    def _check(self, x):
        return _as_points(x, self.dim)


class EuclideanBall(ConvexBody):
    def __init__(self, dim: int, radius: float = 1.0):
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        super().__init__(dim=dim, r_in=radius, r_out=radius, name=f"ball(r={radius:g})")
        object.__setattr__(self, "radius", float(radius))

    def gauge(self, x):
        pts, single = self._check(x)
        g = np.sqrt(np.einsum("nk,nk->n", pts, pts)) / self.radius
        return float(g[0]) if single else g

    def contains(self, x):
        pts, single = self._check(x)
        inside = np.einsum("nk,nk->n", pts, pts) <= self.radius**2 * (1.0 + 1e-14)
        return bool(inside[0]) if single else inside

    def volume(self) -> float:
        return unit_ball_volume(self.dim) * self.radius**self.dim


class Ellipsoid(ConvexBody):
    """Ellipsoid {x : x . M x <= 1} for a symmetric positive-definite M."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if not np.allclose(m, m.T, atol=1e-12):
            raise ValueError("matrix must be symmetric")
        eigvals = np.linalg.eigvalsh(m)
        if eigvals.min() <= 0.0:
            raise ValueError("matrix must be positive definite")
        semi_axes = 1.0 / np.sqrt(eigvals)
        super().__init__(
            dim=m.shape[0],
            r_in=float(semi_axes.min()),
            r_out=float(semi_axes.max()),
            name="ellipsoid",
        )
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_semi_axes(cls, semi_axes) -> "Ellipsoid":
        a = np.asarray(semi_axes, dtype=float)
        return cls(np.diag(1.0 / a**2))

    def gauge(self, x):
        pts, single = self._check(x)
        g = np.sqrt(np.einsum("nk,kl,nl->n", pts, self.matrix, pts))
        return float(g[0]) if single else g

    def contains(self, x):
        pts, single = self._check(x)
        q = np.einsum("nk,kl,nl->n", pts, self.matrix, pts)
        inside = q <= 1.0 + 1e-12
        return bool(inside[0]) if single else inside

    def volume(self) -> float:
        return unit_ball_volume(self.dim) / math.sqrt(np.linalg.det(self.matrix))


class SymmetricPolytope(ConvexBody):
    """Polytope body from outward facet normals and offsets, in +/- pairs."""

    def __init__(self, normals, offsets):
        poly = Polytope(normals, offsets)
        if np.any(poly.offsets <= 0.0):
            raise ValueError("body facet offsets must be positive (origin interior)")
        _require_symmetric(poly)
        r_in = float(poly.offsets.min())
        r_out = poly.circumradius()
        super().__init__(dim=poly.dim, r_in=r_in, r_out=r_out, name="polytope")
        object.__setattr__(self, "polytope", poly)

    def gauge(self, x):
        """max over f of n_f . x / offset_f (at least 0), one facet at a time."""
        pts, single = self._check(x)
        g = np.full(len(pts), -np.inf)
        for normal, offset in zip(self.polytope.normals, self.polytope.offsets):
            np.maximum(g, np.einsum("nk,k->n", pts, normal) / offset, out=g)
        np.maximum(g, 0.0, out=g)
        return float(g[0]) if single else g

    def contains(self, x):
        return self.polytope.contains(x)

    def volume(self) -> float:
        return self.polytope.volume()

    def facet_angles(self):
        if self.dim != 2:
            return None
        # active-facet switches happen at the vertex directions
        angles = np.sort(np.arctan2(self.polytope.vertices[:, 1], self.polytope.vertices[:, 0]))
        return angles


def _require_symmetric(poly: Polytope) -> None:
    for n, c in zip(poly.normals, poly.offsets):
        match = np.all(np.abs(poly.normals + n) <= 1e-9, axis=1) & (
            np.abs(poly.offsets - c) <= 1e-9
        )
        if not match.any():
            raise ValueError("polytope facets must come in symmetric +/- pairs")


class LqBall(ConvexBody):
    """Unit ball of the l_q norm, q in (1, inf); the l_1 and l_inf balls are
    polytopes, ``cross_polytope(dim)`` and ``cube(dim)``."""

    def __init__(self, dim: int, q: float):
        if not (1.0 < q < math.inf):
            raise ValueError("q must satisfy 1 < q < inf; the l_1 ball is cross_polytope(dim)"
                             " and the l_inf ball is cube(dim)")
        if q >= 2.0:
            r_in, r_out = 1.0, dim ** (0.5 - 1.0 / q)
        else:
            r_in, r_out = dim ** (0.5 - 1.0 / q), 1.0
        super().__init__(dim=dim, r_in=r_in, r_out=r_out, name=f"lq(q={q:g})")
        object.__setattr__(self, "q", float(q))

    def gauge(self, x):
        pts, single = self._check(x)
        g = np.einsum("nk->n", np.abs(pts) ** self.q) ** (1.0 / self.q)
        return float(g[0]) if single else g

    def contains(self, x):
        pts, single = self._check(x)
        inside = np.einsum("nk->n", np.abs(pts) ** self.q) <= 1.0 + 1e-12
        return bool(inside[0]) if single else inside

    def volume(self) -> float:
        return (2.0 * math.gamma(1.0 + 1.0 / self.q)) ** self.dim / math.gamma(
            1.0 + self.dim / self.q
        )


def cube(dim: int) -> SymmetricPolytope:
    """The cube [-1, 1]^dim, the polytope with facet normals +/- e_k at offset 1."""
    return SymmetricPolytope(np.vstack([np.eye(dim), -np.eye(dim)]), np.ones(2 * dim))


def cross_polytope(dim: int) -> SymmetricPolytope:
    """The l_1 unit ball {x : sum_k |x_k| <= 1}, the polytope with the 2^dim
    facet normals (+/-1, ..., +/-1) at offset 1."""
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=dim)))
    return SymmetricPolytope(signs, np.ones(len(signs)))


def regular_polygon(sides: int, inradius: float = 1.0) -> SymmetricPolytope:
    """Regular 2-D polygon with an even number of sides (origin-symmetric)."""
    if sides % 2 != 0 or sides < 4:
        raise ValueError("need an even number of sides >= 4 for origin symmetry")
    angles = 2.0 * math.pi * np.arange(sides) / sides
    normals = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return SymmetricPolytope(normals, np.full(sides, inradius))


def regular_hexagon(inradius: float = 1.0) -> SymmetricPolytope:
    return regular_polygon(6, inradius)
