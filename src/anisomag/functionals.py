"""Singular double-integral functionals via the spherical change of variables.

Every functional is reduced to an outer x-integral, a unit-sphere integral in
the direction sigma, and a radial integral in h along the ray y = x + h*sigma
(the anisotropic kernel factorizes as gauge(x - y) = h * gauge(sigma)):

* fractional seminorm: graded Gauss-Legendre panels in t = h^(p(1-s)), which
  flattens the endpoint singularity; the far tail where u(y) vanishes is
  added in closed form.
* threshold functional: the superlevel set of the kernel difference is
  located by bracketing + bisection on a graded scan grid, then h^(-1-p) is
  integrated exactly over the resulting intervals.  The scan is certified
  coarse to fine: it evaluates every 8th scan node (and the last), and a
  Lipschitz bound on f(h) = |Psi(x, x + h sigma) - u(x)|_p, built from the
  field's envelope and the potential's Lipschitz constant, settles most cells
  between two of them without evaluating their inner nodes.  Only the cells
  the bound leaves open are scanned node by node, in the layout of the full
  scan, so every crossing, and every value, is the one the full scan finds.
  A field without an envelope is scanned node by node.
* mollified (BBM) functional: smooth radial integrand on the mollifier
  support; for polytope indicators the ray/region intersection makes the
  radial pieces explicit.

Two drivers run the outer x-integral, both through one chunk loop: for
smooth fields _outer_integrate (a trapezoid grid, or defensive importance
sampling, on a ball), for indicators _midpoint_integrate (cell-centered grids
at two resolutions).  Grid evaluations report |value(res) - value(res/2)|;
Monte Carlo evaluations report the sample standard error.  Neither estimate
is optional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bodies import ConvexBody, unit_ball_volume
from .fields import ComplexField, MagneticPotential
from .grids import midpoint_grid, trapezoid_grid
from .norms import scalar_mixed_modulus_pow
from .seeding import derive_seed
from .spheres import sphere_rule

# ---------------------------------------------------------------------------
# mollifier families


@dataclass(frozen=True)
class LudwigFamily:
    """rho_n(r) = p (1 - s_n) r^(p - N - p s_n), the fractional-kernel family."""

    dim: int
    p: float
    s_of_n: Callable[[int], float] | None = None

    def s_value(self, n: int) -> float:
        s = (1.0 - 1.0 / n) if self.s_of_n is None else float(self.s_of_n(n))
        if not 0.0 < s < 1.0:
            raise ValueError(f"s_n must lie in (0, 1), got {s} at n={n}")
        return s

    def rho(self, r, n: int):
        s = self.s_value(n)
        return self.p * (1.0 - s) * np.asarray(r, dtype=float) ** (self.p - self.dim - self.p * s)

    def normalization(self, n: int) -> float:
        # integral_0^1 rho_n r^(N-1) dr = p(1-s) * integral_0^1 r^(p(1-s)-1) dr = 1
        return 1.0

    def tail_weight(self, delta: float, n: int) -> float:
        """integral_delta^inf rho_n(r) r^(N-1-p) dr, closed form."""
        s = self.s_value(n)
        return (1.0 - s) / s * delta ** (-self.p * s)


@dataclass(frozen=True)
class ShrinkingUniformFamily:
    """rho_n(r) = N n^N on [0, 1/n], the shrinking-support family."""

    dim: int
    p: float

    def rho(self, r, n: int):
        r = np.asarray(r, dtype=float)
        return np.where(r <= 1.0 / n, float(self.dim) * n**self.dim, 0.0)

    def normalization(self, n: int) -> float:
        return 1.0

    def tail_weight(self, delta: float, n: int) -> float:
        if delta >= 1.0 / n:
            return 0.0
        nn = float(self.dim) * n**self.dim
        e = self.dim - self.p
        if e == 0:
            return nn * math.log(1.0 / (n * delta))
        return nn * ((1.0 / n) ** e - delta**e) / e


MollifierFamily = LudwigFamily | ShrinkingUniformFamily


# ---------------------------------------------------------------------------
# functional specifications


@dataclass(frozen=True)
class Gagliardo:
    s: float


@dataclass(frozen=True)
class Nguyen:
    delta: float


@dataclass(frozen=True)
class Bbm:
    family: MollifierFamily
    n: int


@dataclass(frozen=True)
class FunctionalSpec:
    kind: Gagliardo | Nguyen | Bbm
    p: float
    body: ConvexBody
    potential: MagneticPotential

    def __post_init__(self):
        if self.p < 1.0:
            raise ValueError("p must satisfy p >= 1")
        if self.body.dim != self.potential.dim:
            raise ValueError("body and potential dimensions differ")
        if isinstance(self.kind, Gagliardo):
            if not 0.0 < self.kind.s < 1.0:
                raise ValueError("s must lie in (0, 1)")
            if not self.potential.is_zero:
                raise ValueError("the fractional seminorm requires a zero potential")
        elif isinstance(self.kind, Nguyen):
            if self.kind.delta <= 0.0:
                raise ValueError("delta must be positive")
        elif isinstance(self.kind, Bbm):
            fam = self.kind.family
            if fam.dim != self.body.dim:
                raise ValueError("mollifier family dimension mismatch")
            if fam.p != self.p:
                raise ValueError("mollifier family exponent mismatch")
            if self.kind.n < 1:
                raise ValueError("mollifier index must be a positive integer")
        else:
            raise TypeError("unknown functional kind")


def _validate(u: ComplexField, spec: FunctionalSpec, budget: IntegrationBudget, kind) -> None:
    if not isinstance(spec.kind, kind):
        raise TypeError(f"spec.kind must be {kind.__name__}")
    if u.dim != spec.body.dim:
        raise ValueError("field dimension does not match the body")
    if u.smooth:
        return
    if isinstance(spec.kind, Nguyen):
        raise ValueError("indicator fields are rejected by the threshold functional "
                         "(the delta-characterization fails for BV)")
    if spec.p != 1.0:
        raise ValueError("indicator fields are restricted to p = 1")
    if u.region is None:
        raise ValueError("non-smooth fields must carry a polytope region")
    if budget.outer != "tensor":
        raise ValueError("indicator fields are integrated on midpoint grids and need "
                         "the 'tensor' outer scheme")


# ---------------------------------------------------------------------------
# integration budget


@dataclass(frozen=True)
class IntegrationBudget:
    """Quadrature configuration for one functional evaluation.

    ``outer`` selects the x-scheme: "tensor" (trapezoid / cell-centered grid,
    error = two-resolution difference) or "montecarlo" (importance samples on
    the ball, error = standard error; smooth fields only).
    ``scan_max_step`` caps the threshold scan's step (by default it follows
    max |A|); ``margin`` widens the x-domain beyond the field support where
    the integrand is not symmetric in x and y.
    """

    outer: str = "tensor"
    resolution: int = 64
    samples: int = 4096
    seed: int = 0
    sphere_nodes: int = 96
    scan_max_step: float | None = None
    margin: float = 3.0

    def __post_init__(self):
        if self.outer not in ("tensor", "montecarlo"):
            raise ValueError("outer scheme must be 'tensor' or 'montecarlo'")


# ---------------------------------------------------------------------------
# shared machinery

# Every dense (point, sigma, h) grid is built in blocks of at most
# _BLOCK_ELEMENTS nodes: several points with all their directions when one
# point's grid is small, else one point and a slice of its directions (see
# _grid_blocks).  A block's temporaries are then at most 192 KiB (complex or
# 2-D points), and equal from block to block.  glibc maps an allocation of
# 128 KiB or more with fresh pages, but after freeing the first one serves that
# size from its heap and keeps the memory between blocks; blocks several times
# larger were mapped, faulted in and unmapped again for every block unless an
# earlier, larger allocation had raised those thresholds.  Per-(point, sigma)
# results are assembled before any sum over sigma, so the block shape changes
# no value.
_BLOCK_ELEMENTS = 12288
# points per call of a smooth integrand's values_fn
_CHUNK = 32
# the threshold functional finds the crossings of _CHUNK * _RAY_BATCH_CHUNKS
# points before bisecting them, _BLOCK_ELEMENTS rays at a time, so its
# bisection blocks are full; this changes no value either
_RAY_BATCH_CHUNKS = 8
# the threshold scan evaluates every _SCAN_STRIDE-th scan node first, and the
# nodes in between only in the cells its Lipschitz certificate leaves open
_SCAN_STRIDE = 8
# the threshold scan grows geometrically from _SCAN_MIN_FACTOR * h_max, and
# each crossing is bisected _BISECTION_ITERS times
_SCAN_RATIO = 1.05
_SCAN_MIN_FACTOR = 1e-6
_BISECTION_ITERS = 48
# Gauss-Legendre order of the radial panels; the fractional seminorm's panels
# start at _RADIAL_FIRST_BREAK * h_max and grow by _RADIAL_PANEL_RATIO
_RADIAL_ORDER = 12
_RADIAL_PANEL_RATIO = 1.8
_RADIAL_FIRST_BREAK = 1e-3


def _mixture_samples(dim: int, radius: float, tau: float, count: int, seed: int):
    """Defensive importance sampling on the ball: gaussian proposal matched to
    the integrand's spread, mixed with a uniform floor so far-field weights
    stay bounded.  Returns (points, mixture density at points)."""
    from scipy.special import chdtr  # the chi-square cdf

    rng = np.random.default_rng(seed)
    n_gauss = int(0.7 * count)
    n_unif = count - n_gauss
    pts_g = np.empty((n_gauss, dim))
    filled = 0
    for _ in range(1000):
        need = n_gauss - filled
        if need == 0:
            break
        draw = tau * rng.standard_normal((max(2 * need, 32), dim))
        keep = draw[np.einsum("nk,nk->n", draw, draw) <= radius**2][:need]
        pts_g[filled : filled + len(keep)] = keep
        filled += len(keep)
    if filled < n_gauss:
        raise RuntimeError("gaussian proposal rejection stalled")
    g = rng.standard_normal((n_unif, dim))
    g /= np.sqrt(np.einsum("nk,nk->n", g, g))[:, None]
    pts_u = g * (radius * rng.random(n_unif) ** (1.0 / dim))[:, None]
    pts = np.vstack([pts_g, pts_u])
    trunc = chdtr(dim, (radius / tau) ** 2)
    r2 = np.einsum("nk,nk->n", pts, pts)
    rho_g = np.exp(-0.5 * r2 / tau**2) / ((2.0 * math.pi * tau**2) ** (dim / 2.0) * trunc)
    rho_u = 1.0 / (unit_ball_volume(dim) * radius**dim)
    frac_g = n_gauss / count
    return pts, frac_g * rho_g + (1.0 - frac_g) * rho_u


def _ray_steps(h, sigma):
    """Offsets h * sigma on the (sigma, h) grid as (N, m, k) coordinate planes.

    ``h`` is (k,) or per direction (m, k).  Storing one coordinate plane at a
    time gives the field and potential evaluations on the points built by
    _ray_points long contiguous runs instead of length-N inner loops; each
    entry is the same product as in the interleaved layout.
    """
    return sigma.T[:, :, None] * h


def _ray_points(x, planes):
    """x + planes on the (point, sigma, h) grid: a (c, m, k, N) view whose
    coordinates are stored plane by plane, like the planes of _ray_steps."""
    out = np.empty((planes.shape[0], len(x)) + planes.shape[1:])
    np.add(x.T[:, :, None, None], planes[:, None], out=out)
    return out.transpose(1, 2, 3, 0)


def _phase(a, mid, h, sigma, subscripts):
    """exp(-i h sigma.A(mid)), the magnetic phase of the step from x to
    x + h sigma at its midpoints ``mid``; ``subscripts`` contracts A(mid)
    with ``sigma`` to the shape of ``h``."""
    rot = np.multiply(-1j * h, np.einsum(subscripts, a.evaluate(mid), sigma))
    return np.exp(rot, out=rot)


def _kernel_diff_pow(u, a, ux, y, mid, h, sigma, subscripts, p):
    """|exp(-i h sigma.A(mid)) u(y) - u(x)|_p^p at the points y = x + h sigma.

    ``mid`` holds the midpoints x + (h/2) sigma, or is None to skip the
    magnetic phase; ``subscripts`` is as for _phase, and ``ux`` broadcasts
    against ``h``.
    """
    uy = u.evaluate(y)
    if mid is None:
        return scalar_mixed_modulus_pow(uy - ux, p)
    rot = _phase(a, mid, h, sigma, subscripts)
    uy = np.multiply(rot, uy, out=rot)
    return scalar_mixed_modulus_pow(np.subtract(uy, ux, out=uy), p)


def _psi_diff_pow(u, a, x, ux, h, sigma, steps, half_steps, p):
    """|Psi_u(x, x+h sigma) - Psi_u(x, x)|_p^p on the (point, sigma, h) grid.

    ``ux`` is u(x); ``steps`` and ``half_steps`` are the planes
    _ray_steps(h, sigma) and _ray_steps(0.5 * h, sigma), built once per
    functional; ``half_steps`` is None to skip the magnetic phase.  ``h``
    broadcasts against the trailing (sigma, h) axes.  Returns the powers and
    the points y = x + h sigma.
    """
    y = _ray_points(x, steps)
    mid = _ray_points(x, half_steps) if half_steps is not None else None
    return _kernel_diff_pow(u, a, ux[:, None, None], y, mid, h, sigma, "cmhk,mk->cmh", p), y


def _grid_blocks(count, m, k, split_directions=True):
    """(point slice, direction slice) blocks of a (count, m, k) grid with at
    most _BLOCK_ELEMENTS nodes each: whole points when one point's (m, k) grid
    fits, else one point at a time with its directions split evenly.  A block
    exceeds the budget only where it cannot be split further: one direction's
    k nodes, or one point's whole grid when ``split_directions`` is False."""
    if m * k <= _BLOCK_ELEMENTS or not split_directions:
        step = max(1, _BLOCK_ELEMENTS // (m * k))
        return [(slice(i, i + step), slice(0, m)) for i in range(0, count, step)]
    parts = min(m, -(-m * k // _BLOCK_ELEMENTS))
    step = -(-m // parts)
    return [(slice(i, i + 1), slice(j, j + step))
            for i in range(count) for j in range(0, m, step)]


def _chunk_values(values_fn, points, live, chunk):
    """values_fn(points) -> per-point inner values, called ``chunk`` points at
    a time on the points the mask ``live`` selects (all if it is None); the
    other points get 0."""
    vals = np.zeros(len(points))
    idx = np.arange(len(points)) if live is None else np.nonzero(live)[0]
    for start in range(0, len(idx), chunk):
        sel = idx[start : start + chunk]
        vals[sel] = values_fn(points[sel])
    return vals


def _outer_integrate(values_fn, u, radius, budget, label, seed, chunk=_CHUNK):
    """Outer x-integral of a smooth field's integrand over the ball of ``radius``.

    "tensor" skips the trapezoid nodes outside the ball, where the spherical
    decomposition does not hold; "montecarlo" draws the defensive gaussian
    mixture of width _importance_tau(u) from the stream ``label``/``seed``.
    """
    if budget.outer == "montecarlo":
        pts, rho = _mixture_samples(u.dim, radius, _importance_tau(u), budget.samples,
                                    derive_seed(budget.seed, label, seed))
        weighted = _chunk_values(values_fn, pts, None, chunk) / rho
        mean = float(np.einsum("n->", weighted)) / len(weighted)
        sem = (
            float(np.std(weighted, ddof=1)) / math.sqrt(len(weighted))
            if len(weighted) > 1
            else 0.0
        )
        return mean, sem
    tg = trapezoid_grid(u.dim, radius, budget.resolution)
    live = np.einsum("nk,nk->n", tg.points, tg.points) <= radius**2
    return tg.integrate(_chunk_values(values_fn, tg.points, live, chunk))


def _midpoint_integrate(values_fn, dim, radius, resolution, live, chunk):
    """Outer x-integral of an indicator path's integrand on cell-centered
    grids over [-radius, radius]^dim: the value at ``resolution`` and its
    distance to the value at half of it (at least 8).  ``live(points)``
    masks the nodes where the integrand can be nonzero; None keeps all."""

    def value_at(res):
        tg = midpoint_grid(dim, radius, res)
        vals = _chunk_values(values_fn, tg.points, None if live is None else live(tg.points),
                             chunk)
        return float(np.einsum("n,n->", tg.weights, vals))

    fine = value_at(resolution)
    return fine, abs(fine - value_at(max(resolution // 2, 8)))


# ---------------------------------------------------------------------------
# fractional (Gagliardo-type) seminorm


def _gagliardo_radial(p: float, s: float, h_max: float):
    """Nodes/weights for integral_0^H q(h)^p h^(p(1-s)-1) dh via t = h^(p(1-s)).

    Nodes in the first panel can map to h far below float resolution of the
    difference quotient q; they are clamped at a floor where q is still
    accurate (q extends continuously to h = 0, so the clamp error is O(floor)).
    """
    alpha = p * (1.0 - s)
    breaks = [0.0, _RADIAL_FIRST_BREAK * h_max]
    while breaks[-1] < h_max:
        breaks.append(min(breaks[-1] * _RADIAL_PANEL_RATIO, h_max))
    xg, wg = np.polynomial.legendre.leggauss(_RADIAL_ORDER)
    h_nodes, h_weights = [], []
    t_breaks = np.asarray(breaks) ** alpha
    for t_lo, t_hi in zip(t_breaks[:-1], t_breaks[1:]):
        mid, half = 0.5 * (t_lo + t_hi), 0.5 * (t_hi - t_lo)
        t = mid + half * xg
        with np.errstate(divide="ignore"):
            h_nodes.append(t ** (1.0 / alpha))
        h_weights.append(half * wg / alpha)
    floor = 1e-7 * min(h_max, 1.0)
    return np.maximum(np.concatenate(h_nodes), floor), np.concatenate(h_weights)


def _gagliardo_like(u, a, body, p, s, budget, seed):
    """Raw double integral with kernel gauge^(N + p s), without the (1-s) factor."""
    dim = body.dim
    rule = sphere_rule(dim, budget.sphere_nodes, body=body)
    g = body.gauge(rule.nodes)
    kernel_w = rule.weights / g ** (dim + p * s)
    symmetric = a.is_zero
    radius = u.support_radius if symmetric else u.support_radius + budget.margin
    h_max = radius + u.support_radius

    if not u.smooth:
        return _gagliardo_indicator(u, s, budget, rule, kernel_w)

    h_nodes, h_weights = _gagliardo_radial(p, s, h_max)
    h_pow = h_nodes**p
    steps = _ray_steps(h_nodes, rule.nodes)
    half_steps = None if symmetric else _ray_steps(0.5 * h_nodes, rule.nodes)
    sup2 = u.support_radius**2
    tail_factor = h_max ** (-p * s) / (p * s) * float(np.einsum("m->", kernel_w))

    def values_fn(x_chunk):
        ux = u.evaluate(x_chunk)
        rad = np.empty((len(x_chunk), rule.size))
        for pts, dirs in _grid_blocks(len(x_chunk), rule.size, len(h_nodes)):
            half = half_steps[:, dirs] if half_steps is not None else None
            gpow, y = _psi_diff_pow(u, a, x_chunk[pts], ux[pts], h_nodes, rule.nodes[dirs],
                                    steps[:, dirs], half, p)
            qpow = np.divide(gpow, h_pow, out=gpow)
            if symmetric:
                outside = np.einsum("cmhk,cmhk->cmh", y, y) > sup2
                np.multiply(qpow, 1.0 + outside, out=qpow)
            rad[pts, dirs] = np.einsum("cmh,h->cm", qpow, h_weights)
        vals = np.einsum("cm,m->c", rad, kernel_w)
        ux_pow = scalar_mixed_modulus_pow(ux, p)
        tails = ux_pow * tail_factor * (2.0 if symmetric else 1.0)
        return vals + tails

    return _outer_integrate(values_fn, u, radius, budget, "gagliardo", seed)


def _gagliardo_indicator(u, s, budget, rule, kernel_w):
    """p = 1 indicator path: exact radial integrals from ray/region intersections."""
    region = u.region

    def values_fn(x_chunk):
        _, t_hi = region.ray_interval(x_chunk[:, None, :], rule.nodes[None, :, :])
        t_hi = np.maximum(t_hi, 1e-300)
        return 2.0 * np.einsum("cm,m->c", t_hi ** (-s) / s, kernel_w)

    return _midpoint_integrate(values_fn, region.dim, u.support_radius, budget.resolution,
                               region.contains, 4096)


def gagliardo(u: ComplexField, spec: FunctionalSpec, budget: IntegrationBudget,
              seed: int = 0) -> tuple[float, float]:
    """Raw fractional seminorm (without the (1-s) normalization factor)."""
    _validate(u, spec, budget, Gagliardo)
    return _gagliardo_like(u, spec.potential, spec.body, spec.p, spec.kind.s, budget, seed)


# ---------------------------------------------------------------------------
# threshold (Nguyen-type) functional


def _scan_grid(h_max: float, max_step: float) -> np.ndarray:
    pts = [_SCAN_MIN_FACTOR * h_max]
    while pts[-1] < h_max:
        step = min(pts[-1] * (_SCAN_RATIO - 1.0), max_step)
        pts.append(min(pts[-1] + step, h_max))
    return np.asarray(pts)


def _radial_profile(u: ComplexField):
    """Max of |u| on probe circles, used for domain and proposal sizing."""
    radii = np.linspace(0.0, u.support_radius, 240)[1:]
    if u.dim == 1:
        probes = radii[:, None, None] * np.array([[1.0], [-1.0]])[None, :, :]
    else:
        angles = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        if u.dim > 2:
            extra = np.zeros((len(dirs), u.dim - 2))
            dirs = np.hstack([dirs, extra])
            dirs = np.vstack([dirs, np.eye(u.dim), -np.eye(u.dim)])
        probes = radii[:, None, None] * dirs[None, :, :]
    return radii, np.abs(u.evaluate(probes)).max(axis=1)


def _effective_radius(u: ComplexField, threshold: float) -> float:
    """Radius beyond which |u| stays below the threshold."""
    radii, mags = _radial_profile(u)
    live = np.nonzero(mags >= threshold)[0]
    if len(live) == 0:
        return 0.0
    return float(radii[live[-1]])


def _importance_tau(u: ComplexField) -> float:
    """Gaussian-proposal width matched to where |u| carries its mass."""
    radii, mags = _radial_profile(u)
    umax = float(mags.max())
    if umax <= 0.0:
        return 1.0
    live = np.nonzero(mags >= 0.05 * umax)[0]
    spread = float(radii[live[-1]]) if len(live) else u.support_radius
    return max(0.5, spread / 2.5)


def nguyen(u: ComplexField, spec: FunctionalSpec, budget: IntegrationBudget,
           seed: int = 0) -> tuple[float, float]:
    """Threshold functional I_delta with exact integration over superlevel intervals."""
    _validate(u, spec, budget, Nguyen)
    a, body, p = spec.potential, spec.body, spec.p
    delta = spec.kind.delta
    dim = body.dim
    rule = sphere_rule(dim, budget.sphere_nodes, body=body)
    g = body.gauge(rule.nodes)
    kernel_w = rule.weights / g ** (dim + p)
    radius = u.support_radius + budget.margin
    if budget.outer == "montecarlo":
        # uniform sampling needs a tight domain: beyond the radius where |u|
        # drops below delta/8 the x-contribution is O(delta^p / margin^p)
        radius = min(radius, _effective_radius(u, delta / 8.0) + budget.margin)
    h_max = radius + u.support_radius
    max_step = budget.scan_max_step
    if max_step is None:
        amax = a.max_norm(radius + 1.0)
        max_step = min(0.5, math.pi / (4.0 * amax)) if amax > 1e-12 else 0.5
    scan = _scan_grid(h_max, max_step)
    use_phase = not a.is_zero
    stride = _SCAN_STRIDE if u.envelope is not None else 1
    coarse = np.arange(0, len(scan), stride)
    if coarse[-1] != len(scan) - 1:
        coarse = np.append(coarse, len(scan) - 1)
    # scan indices inside each coarse cell, (stride - 1, cells); a short last
    # cell repeats its last inner node, and a cell without inner nodes is
    # never opened
    inner = np.minimum(coarse[None, :-1] + np.arange(1, stride)[:, None], coarse[None, 1:] - 1)
    has_inner = np.diff(coarse) > 1
    h_inner = scan[inner]
    # the scan index after each step across a cell: its inner nodes, then its right end
    step_to = np.concatenate([inner, coarse[None, 1:]])
    h_coarse = scan[coarse]
    h_lo, h_hi = h_coarse[:-1], h_coarse[1:]
    steps = _ray_steps(h_coarse, rule.nodes)
    half_steps = _ray_steps(0.5 * h_coarse, rule.nodes) if use_phase else None
    edges = np.concatenate([[0.0], scan])
    delta_pow = delta**p
    m_count = rule.size
    # Along a ray |d/dh Psi(x, x + h sigma)| <= |grad u(y)| + (|A(0)| + Lip_A
    # (|x| + h)) |u(y)|, and c_p turns that Euclidean bound into one for the
    # mixed modulus |.|_p; times the cell width it bounds |f_a - f| + |f - f_b|
    c_width = max(1.0, 2.0 ** (1.0 / p - 0.5)) * (h_hi - h_lo)
    a0 = float(np.linalg.norm(a.evaluate(np.zeros((1, dim))))) if use_phase else 0.0
    lip_a = a.lipschitz_constant if use_phase else 0.0

    def open_cells(x, sig, gpow):
        """(point, direction, cell) of every coarse cell whose Lipschitz
        certificate does not decide the threshold state, in C order."""
        f = gpow ** (1.0 / p)
        # distance from 0 to the segment x + h sigma, h in [h_lo, h_hi]
        # (sigma is a unit vector)
        xs = np.einsum("ck,mk->cm", x, sig)[:, :, None]
        x2 = np.einsum("ck,ck->c", x, x)[:, None, None]
        along = np.minimum(np.maximum(h_lo + xs, 0.0), h_hi + xs)
        r = np.sqrt(np.maximum(x2 - xs * xs, 0.0) + along * along)
        mag, grad = u.envelope(r)
        if use_phase:
            grad = grad + (a0 + lip_a * (np.sqrt(x2) + h_hi)) * mag
        # the cell fires everywhere when (f_a + f_b)/2 - L w/2 > delta, and
        # nowhere when (f_a + f_b)/2 + L w/2 < delta; the 1e-9 margin covers
        # the rounding of f and of gpow > delta^p at the inner nodes, and a
        # NaN leaves the cell open
        decided = np.abs(f[:, :, :-1] + f[:, :, 1:] - 2.0 * delta) > c_width * grad + 2e-9 * delta
        return np.nonzero(~decided & has_inner)

    def inner_fires(x, ux, sig, ci, mi, ji):
        """Threshold states on the inner scan nodes of the given cells,
        (stride - 1, cells).  The points are stored plane by plane with the
        long axis last, like those of _ray_points, and each is the same sum
        x + (h sigma), so every value is the one the full scan computes."""
        h = h_inner.take(ji, axis=1)
        dirs = sig.T.take(mi, axis=1)[:, None]
        base = x.T.take(ci, axis=1)[:, None]

        def points(step):
            out = np.multiply(dirs, step)
            return np.add(base, out, out=out).transpose(1, 2, 0)

        mid = points(0.5 * h) if use_phase else None
        return _kernel_diff_pow(u, a, ux.take(ci), points(h), mid, h, dirs[:, 0], "hbk,kb->hb",
                                p) > delta_pow

    def crossings(x, ux, dirs):
        """(point, direction, scan cell, rising) of every threshold crossing
        in one grid block, in (point, direction, cell) order; directions
        count from the start of the slice."""
        half = half_steps[:, dirs] if use_phase else None
        sig = rule.nodes[dirs]
        gpow, _ = _psi_diff_pow(u, a, x, ux, h_coarse, sig, steps[:, dirs], half, p)
        # prepend h = 0 (never fires); the last scan node sits at h_max where
        # the difference equals |u(x)|_p, so the state there persists to infinity
        fires = gpow > delta_pow
        state = np.concatenate([np.zeros(fires.shape[:2] + (1,), dtype=bool), fires], axis=2)
        flips = state[:, :, 1:] != state[:, :, :-1]  # into coarse node j, from the one before
        if stride > 1:
            # a certified cell keeps one state throughout; an open one is
            # scanned node by node, and its flips replace the coarse one
            oc, om, oj = open_cells(x, sig, gpow)
            states = np.empty((stride + 1, len(oc)), dtype=bool)
            states[0], states[-1] = state[oc, om, oj + 1], state[oc, om, oj + 2]
            cells_per_block = _BLOCK_ELEMENTS // (stride - 1)
            for start in range(0, len(oc), cells_per_block):
                b = slice(start, start + cells_per_block)
                states[1:-1, b] = inner_fires(x, ux, sig, oc[b], om[b], oj[b])
            flips[oc, om, oj + 1] = False
            step, cell = np.nonzero(states[1:] != states[:-1])
        # flips are sparse: the flat search is much faster than a 3-D nonzero
        ci, mi, ji = np.unravel_index(np.flatnonzero(flips), flips.shape)
        ki, rising = coarse[ji], ~state[ci, mi, ji]  # rising: crossing from below
        if stride > 1 and len(cell):
            ci = np.concatenate([ci, oc[cell]])
            mi = np.concatenate([mi, om[cell]])
            ki = np.concatenate([ki, step_to[step, oj[cell]]])
            rising = np.concatenate([rising, ~states[step, cell]])
            order = np.argsort((ci * len(sig) + mi) * len(scan) + ki)
            ci, mi, ki, rising = ci[order], mi[order], ki[order], rising[order]
        return ci, mi, ki, rising

    def bisect(x_rays, ux_rays, s_rays, lo, hi, rising):
        """Crossing radius on each ray, from its bracketing scan cell [lo, hi]."""
        for _ in range(_BISECTION_ITERS):
            mid = 0.5 * (lo + hi)
            y = x_rays + mid[:, None] * s_rays
            half = x_rays + (0.5 * mid)[:, None] * s_rays if use_phase else None
            above = _kernel_diff_pow(u, a, ux_rays, y, half, mid, s_rays, "bk,bk->b", p) > delta_pow
            # mid already past the flip: tighten the upper end, else the lower
            on_far_side = above == rising
            np.copyto(hi, mid, where=on_far_side)
            np.copyto(lo, mid, where=~on_far_side)
        return 0.5 * (lo + hi)

    def values_fn(x_batch):
        ux = u.evaluate(x_batch)
        parts = []
        for pts, dirs in _grid_blocks(len(x_batch), m_count, len(coarse)):
            ci, mi, ki, rising = crossings(x_batch[pts], ux[pts], dirs)
            parts.append((ci + pts.start, mi + dirs.start, ki, rising))
        ci, mi, ki, rising = (np.concatenate(col) for col in zip(*parts))
        c = len(x_batch)
        if len(ci) == 0:
            return np.zeros(c)
        crossing = np.empty(len(ci))
        for start in range(0, len(ci), _BLOCK_ELEMENTS):
            rays = slice(start, start + _BLOCK_ELEMENTS)
            # rays as coordinate planes, like the scan grid
            crossing[rays] = bisect(x_batch.T[:, ci[rays]].T, ux[ci[rays]],
                                    rule.nodes.T[:, mi[rays]].T, edges[ki[rays]],
                                    edges[ki[rays] + 1], rising[rays])
        signed = np.where(rising, 1.0, -1.0) * crossing ** (-p)
        ray_vals = np.zeros((c, m_count))
        np.add.at(ray_vals, (ci, mi), signed)
        return (delta_pow / p) * np.einsum("cm,m->c", ray_vals, kernel_w)

    return _outer_integrate(values_fn, u, radius, budget, "nguyen", seed,
                            chunk=_CHUNK * _RAY_BATCH_CHUNKS)


# ---------------------------------------------------------------------------
# mollified (BBM-type) functional


def bbm(u: ComplexField, spec: FunctionalSpec, budget: IntegrationBudget,
        seed: int = 0) -> tuple[float, float]:
    """Mollified difference functional for either mollifier family."""
    _validate(u, spec, budget, Bbm)
    family, n = spec.kind.family, spec.kind.n
    if isinstance(family, LudwigFamily) and (u.smooth or spec.potential.is_zero):
        s = family.s_value(n)
        factor = spec.p * (1.0 - s)
        raw, err = _gagliardo_like(u, spec.potential, spec.body, spec.p, s, budget, seed)
        return factor * raw, factor * err
    if u.smooth:
        return _bbm_shrinking_smooth(u, spec, budget, seed)
    return _bbm_indicator(u, spec, budget)


def _bbm_shrinking_smooth(u, spec, budget, seed):
    a, body, p = spec.potential, spec.body, spec.p
    n = spec.kind.n
    dim = body.dim
    rule = sphere_rule(dim, budget.sphere_nodes, body=body)
    g = body.gauge(rule.nodes)
    h_sup = 1.0 / (n * g)  # radial support endpoint per direction
    rho_const = float(dim) * float(n) ** dim
    xg, wg = np.polynomial.legendre.leggauss(_RADIAL_ORDER)
    xi = 0.5 * (xg + 1.0)
    wxi = 0.5 * wg
    h_nodes = h_sup[:, None] * xi[None, :]  # (m, r)
    steps = _ray_steps(h_nodes, rule.nodes)
    half_steps = _ray_steps(0.5 * h_nodes, rule.nodes) if not a.is_zero else None
    radius = u.support_radius + float(np.max(h_sup))
    # per-(sigma, h) quadrature weight: rho/g^p * h^(N-1) * dh
    w_mr = (rho_const / g**p)[:, None] * h_nodes ** (dim - 1) * (h_sup[:, None] * wxi[None, :])
    h_pow = h_nodes**p

    def values_fn(x_chunk):
        ux = u.evaluate(x_chunk)
        vals = np.empty(len(x_chunk))
        # the contraction sums over (sigma, h) in one pass, so a block never
        # splits a point's directions: that would reorder the sum
        for pts, _ in _grid_blocks(len(x_chunk), rule.size, h_nodes.shape[1],
                                   split_directions=False):
            gpow, _ = _psi_diff_pow(u, a, x_chunk[pts], ux[pts], h_nodes, rule.nodes, steps,
                                    half_steps, p)
            qpow = np.divide(gpow, h_pow, out=gpow)
            vals[pts] = np.einsum("cmr,mr,m->c", qpow, w_mr, rule.weights)
        return vals

    return _outer_integrate(values_fn, u, radius, budget, "bbm", seed)


def _bbm_indicator(u, spec, budget):
    """p = 1 indicator path: radial pieces cut at the ray/region intersection.

    Between the entry/exit radii the kernel difference has an explicit form
    in the magnetic phase alone, so no field evaluations are needed.
    """
    a, body = spec.potential, spec.body
    family, n = spec.kind.family, spec.kind.n
    region = u.region
    dim = body.dim
    rule = sphere_rule(dim, budget.sphere_nodes, body=body)
    g = body.gauge(rule.nodes)
    shrinking = isinstance(family, ShrinkingUniformFamily)
    if shrinking:
        h_cut = 1.0 / (n * g)  # rho vanishes beyond this
        cut_max = float(np.max(h_cut))
        radius = u.support_radius + cut_max

        def live(points):
            # contributions only from the band around the region boundary
            slack = region.offsets[None, :] - np.einsum("nk,fk->nf", points, region.normals)
            return np.abs(slack).min(axis=1) <= cut_max * 1.0000001
    else:
        radius = u.support_radius + budget.margin
        h_cut = np.full(rule.size, radius + u.support_radius)
        live = None
    use_phase = not a.is_zero
    xg, wg = np.polynomial.legendre.leggauss(_RADIAL_ORDER)
    xi = 0.5 * (xg + 1.0)
    wxi = 0.5 * wg

    # A = 0, shrinking family: the kernel difference is the 0/1 region flip
    # and the radial integral has an elementary primitive
    plain_w = rule.weights * (float(dim) * float(n) ** dim) / g

    def values_fn_plain(x_chunk):
        a_in, b_out = region.ray_interval(x_chunk[:, None, :], rule.nodes[None, :, :])
        inside = region.contains(x_chunk)
        # clip both ends to [0, h_cut] in place; then a_in <= b_out <= h_cut
        np.minimum(np.maximum(a_in, 0.0, out=a_in), h_cut, out=a_in)
        np.minimum(np.maximum(b_out, 0.0, out=b_out), h_cut, out=b_out)
        np.maximum(b_out, a_in, out=b_out)
        # inside: the ray leaves the region on [b_out, h_cut]; outside: it
        # crosses it on [a_in, b_out]
        lo = np.where(inside[:, None], b_out, a_in)
        hi = np.where(inside[:, None], h_cut, b_out)
        e = dim - 1
        seg = (hi**e - lo**e) / e if e > 0 else np.log(np.maximum(hi, 1e-300) / np.maximum(lo, 1e-300))
        return np.einsum("cm,m->c", seg, plain_w)

    def values_fn(x_chunk):
        c = len(x_chunk)
        t_lo, t_hi = region.ray_interval(x_chunk[:, None, :], rule.nodes[None, :, :])
        inside = region.contains(x_chunk)
        # flatten all (x, sigma) rays; pieces are [0, a], [a, b], [b, cut],
        # with 0 <= a <= b <= cut
        a_f = np.clip(t_lo, 0.0, h_cut).ravel()
        b_f = np.maximum(np.clip(t_hi, 0.0, h_cut).ravel(), a_f)
        cut_f = np.tile(h_cut, c)
        x_rep = np.repeat(x_chunk, rule.size, axis=0)
        s_rep = np.tile(rule.nodes, (c, 1))
        in_rep = np.repeat(inside, rule.size)
        g_rep = np.tile(g, c)

        def seg_value(lo, hi, uy_val):
            """Integral over [lo, hi] of the radial piece where u(y) = uy_val."""
            mask = hi > lo + 1e-300
            out = np.zeros(len(lo))
            if not mask.any():
                return out
            width = hi[mask] - lo[mask]
            h = lo[mask][:, None] + width[:, None] * xi[None, :]
            # rho_n(h g) / g * h^(N-2) for p = 1
            gg = g_rep[mask][:, None]
            base = family.rho(h * gg, n) / gg * h ** (dim - 2)
            ux_val = in_rep[mask].astype(float)
            if use_phase and uy_val == 1.0:
                mid_pts = x_rep[mask][:, None, :] + 0.5 * h[:, :, None] * s_rep[mask][:, None, :]
                rot = _phase(a, mid_pts, h, s_rep[mask], "brk,bk->br")
                diff_pow = scalar_mixed_modulus_pow(np.subtract(rot, ux_val[:, None], out=rot), 1.0)
            else:
                diff_pow = np.broadcast_to(np.abs(uy_val - ux_val)[:, None], h.shape)
            out[mask] = width * np.einsum("br,r->b", base * diff_pow, wxi)
            return out

        total = (seg_value(np.zeros_like(a_f), a_f, 0.0) + seg_value(a_f, b_f, 1.0)
                 + seg_value(b_f, cut_f, 0.0))
        out = np.einsum("cm,m->c", total.reshape(c, rule.size), rule.weights)
        if not shrinking:
            # closed-form tail beyond the truncation where u(y) = 0
            tail = family.tail_weight(h_cut * g, n) / g ** dim
            out = out + inside.astype(float) * float(np.einsum("m,m->", tail, rule.weights))
        return out

    if shrinking and not use_phase:
        return _midpoint_integrate(values_fn_plain, dim, radius, budget.resolution, live, 16384)
    return _midpoint_integrate(values_fn, dim, radius, budget.resolution, live, 2048)
