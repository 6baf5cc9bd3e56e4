"""Singular double-integral functionals via the spherical change of variables.

Every functional is reduced to an outer x-integral, a unit-sphere integral in
the direction sigma, and a radial integral in h along the ray y = x + h*sigma
(the anisotropic kernel factorizes as gauge(x - y) = h * gauge(sigma)).  All
three integrate the magnetic difference |Psi(x, x + h sigma) - u(x)|_p^p of
fields.psi, and one ray kernel, _diff_pow, computes it wherever a field is
evaluated along rays: on the (point, sigma, h) grids, at the threshold scan's
split nodes and in its root finding.

* fractional seminorm: Gauss-Legendre nodes near h = 0 carry product weights
  that integrate the endpoint weight h^(p(1-s)-1) times polynomials exactly,
  and geometric Gauss-Legendre panels cover the rest; the far tail where u(y)
  vanishes is added in closed form.  No node depends on s, so one pass over
  the (x, sigma, h) nodes evaluates every s of a tuple: only the h-weights,
  the kernel weights g^(-N-ps) and the tail change with s, and each s is
  contracted on its own.
* threshold functional: the superlevel set of the kernel difference is
  bracketed on a graded scan grid, each crossing is located by Illinois steps
  from the scan's values, then h^(-1-p) is integrated exactly over the
  resulting intervals.  The scan is certified coarse to fine: it evaluates
  every 32nd scan node (and the last), and a Lipschitz bound on f(h) =
  |Psi(x, x + h sigma) - u(x)|_p, built from the field's envelope and the
  potential's Lipschitz constant, settles most cells between two of them.
  A cell the bound leaves open is split at its middle scan node until it is
  settled or one scan cell wide, so every crossing, and every value, is the
  one the node-by-node scan finds, as for a field without an envelope.
* mollified (BBM) functional: smooth radial integrand on the mollifier
  support.  For polytope indicators one ray kernel, _bbm_indicator, serves
  both families and every potential: each ray meets the region on one
  interval, the pieces where |Psi - u(x)|_1 is constant in h take the
  family's closed-form radial primitive, and only the interval itself under a
  nonzero potential is integrated, on a Gauss rule in the magnetic phase.

On smooth fields the fractional and mollified functionals share one driver,
_smooth_ray_integral (outer rule x sphere rule x radial rule).  The outer
x-integral runs through one chunk loop, one block of rays per call: for smooth
fields _outer_integrate (on a ball: a ball rule, Gauss-Legendre in r times a
sphere rule, for the fractional seminorm and the Ludwig family; a trapezoid
grid for the other functionals; or defensive importance sampling), for
indicators _midpoint_integrate (cell-centered grids at two resolutions).  Rule
evaluations report the distance to the same integral on a rule with half the
nodes; Monte Carlo evaluations report the sample standard error.  Neither
estimate is optional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bodies import ConvexBody, unit_ball_volume
from .fields import ComplexField, MagneticPotential
from .grids import (chunk_values, gauss_jacobi, gauss_legendre, leggauss, midpoint_grid,
                    trapezoid_grid)
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

    def tail_weight(self, delta: float, n: int) -> float:
        """integral_delta^inf rho_n(r) r^(N-1-p) dr, closed form."""
        s = self.s_value(n)
        return (1.0 - s) / s * delta ** (-self.p * s)


@dataclass(frozen=True)
class ShrinkingUniformFamily:
    """rho_n(r) = N n^N on [0, 1/n], the shrinking-support family."""

    dim: int
    p: float

    def height(self, n: int) -> float:
        """N n^N, the value of rho_n on its support."""
        return float(self.dim) * n**self.dim

    def rho(self, r, n: int):
        r = np.asarray(r, dtype=float)
        return np.where(r <= 1.0 / n, self.height(n), 0.0)

    def tail_weight(self, delta: float, n: int) -> float:
        if delta >= 1.0 / n:
            return 0.0
        nn = self.height(n)
        e = self.dim - self.p
        if e == 0:
            return nn * math.log(1.0 / (n * delta))
        return nn * ((1.0 / n) ** e - delta**e) / e


MollifierFamily = LudwigFamily | ShrinkingUniformFamily


# ---------------------------------------------------------------------------
# functional specifications


@dataclass(frozen=True)
class Gagliardo:
    """The fractional seminorm at s, or at every s of a tuple in one pass."""

    s: float | tuple

    @property
    def s_values(self) -> tuple:
        return self.s if isinstance(self.s, tuple) else (self.s,)


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
            if not self.kind.s_values or not all(0.0 < s < 1.0 for s in self.kind.s_values):
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
        fractional = isinstance(spec.kind, Gagliardo) or (
            isinstance(spec.kind, Bbm) and isinstance(spec.kind.family, LudwigFamily))
        if fractional and budget.outer == "tensor" and budget.resolution < 8:
            raise ValueError("the ball rule needs a resolution of at least 8: its error "
                             "estimate compares it with a rule on half the circle nodes")
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
    if budget.resolution < 2:
        raise ValueError("indicator fields need a resolution of at least 2: the error "
                         "estimate compares the grid with one at half the resolution")


# ---------------------------------------------------------------------------
# integration budget


@dataclass(frozen=True)
class IntegrationBudget:
    """Quadrature configuration for one functional evaluation.

    ``outer`` selects the x-scheme: "tensor" (error = the difference to a
    rule with half the nodes) or "montecarlo" (importance samples on the
    ball, error = standard error; smooth fields only).  Under "tensor",
    ``resolution`` is, per route:

    * fractional seminorm and Ludwig family on smooth fields: the nodes on a
      great circle of the ball rule's sphere rule (resolution on the circle,
      resolution^2 / 2 on S^2), with 2 * resolution // 3 Gauss-Legendre
      nodes in r; at least 8;
    * the other functionals on smooth fields: the trapezoid grid's intervals
      along each axis of the box around the ball;
    * indicator fields: the cell-centered grid's cells along each axis.
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
        if self.resolution < 1:
            raise ValueError("resolution must be at least 1")
        if self.samples < 2:
            raise ValueError("samples must be at least 2: one sample has no standard error")
        if self.sphere_nodes < 0:
            raise ValueError("sphere_nodes must be non-negative (0 picks the default)")
        if self.margin < 0:
            raise ValueError("margin must be non-negative")
        if self.scan_max_step is not None and self.scan_max_step <= 0:
            raise ValueError("scan_max_step must be positive")


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
# earlier, larger allocation had raised those thresholds.  The ray kernel works
# node by node, and every (point, sigma) is summed over h before any sum over
# sigma, so the block shape changes no value.  Every values_fn call, on every
# ray path (smooth, threshold and indicator), gets max(1, _BLOCK_ELEMENTS //
# rule.size) points: one block of rays.  Each point's value is its own sum over
# sigma and h, so that changes no value either.
_BLOCK_ELEMENTS = 12288
# the threshold scan evaluates every _SCAN_STRIDE-th scan node first, and
# splits each cell its Lipschitz certificate leaves open at its middle node
_SCAN_STRIDE = 32
# the threshold scan grows geometrically from _SCAN_MIN_FACTOR * h_max, and
# each crossing takes at most _ROOT_MAX_ITERS Illinois steps
_SCAN_RATIO = 1.05
_SCAN_MIN_FACTOR = 1e-6
_ROOT_MAX_ITERS = 64
# Gauss-Legendre order of the mollified functional's radial rules and of the
# fractional seminorm's first radial panel, whose product weights for
# h^(p(1-s)-1) come from a Gauss-Jacobi rule of the same order; its
# _RADIAL_PANELS geometric Gauss-Legendre panels beyond have _PANEL_ORDER nodes
_RADIAL_ORDER = 12
_RADIAL_PANELS = 6
_PANEL_ORDER = 8


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


def _phase(a, mid, h, dirs):
    """exp(-i h sigma.A(mid)), the magnetic phase of the step from x to
    x + h sigma at its midpoints ``mid`` (..., N); ``dirs`` holds sigma as
    (..., N) rows that broadcast against ``mid``, and ``h`` broadcasts
    against the result."""
    rot = np.multiply(-1j * h, np.einsum("...k,...k->...", a.evaluate(mid), dirs))
    return np.exp(rot, out=rot)


def _diff_pow(u, a, x, steps, half_steps, h, dirs, ux, p):
    """|exp(-i h sigma.A(mid)) u(y) - u(x)|_p^p at y = x + h sigma, which is
    |psi(u, a, x, y) - u(x)|_p^p: exp(-i h sigma.A) = exp(i (x - y).A).

    ``x`` and the steps h sigma and (h/2) sigma are coordinate planes (N, ...)
    that broadcast together.  y and the midpoints x + (h/2) sigma are built
    plane by plane, which gives the field and potential evaluations long
    contiguous runs, and passed on as (..., N) views.  ``half_steps`` is None
    to skip the magnetic phase; ``dirs`` is as for _phase, and ``h`` and ``ux``
    broadcast against the result.  Returns the powers and y.
    """

    def points(planes):
        out = np.add(x, planes, out=np.empty(np.broadcast(x, planes).shape))
        return out.transpose(*range(1, out.ndim), 0)

    y = points(steps)
    uy = u.evaluate(y)
    if half_steps is None:
        return scalar_mixed_modulus_pow(uy - ux, p), y
    rot = _phase(a, points(half_steps), h, dirs)
    uy = np.multiply(rot, uy, out=rot)
    return scalar_mixed_modulus_pow(np.subtract(uy, ux, out=uy), p), y


def _grid_blocks(count, m, k):
    """(point slice, direction slice) blocks of a (count, m, k) grid with at
    most _BLOCK_ELEMENTS nodes each: whole points when one point's (m, k) grid
    fits, else one point at a time with its directions split evenly.  A block
    exceeds the budget only where it cannot be split further: one direction's
    k nodes."""
    if m * k <= _BLOCK_ELEMENTS:
        step = _BLOCK_ELEMENTS // (m * k)
        return [(slice(i, i + step), slice(0, m)) for i in range(0, count, step)]
    parts = min(m, -(-m * k // _BLOCK_ELEMENTS))
    step = -(-m // parts)
    return [(slice(i, i + 1), slice(j, j + step))
            for i in range(count) for j in range(0, m, step)]


def _ball_rule(radius, n_r, rule):
    """Points r_i sigma_j and weights w_i r_i^(N-1) omega_j of the ball of
    ``radius``: ``n_r`` Gauss-Legendre nodes r_i on [0, radius] times the
    sphere rule's nodes sigma_j."""
    r, w = gauss_legendre(n_r, 0.0, radius)
    points = np.einsum("i,jk->ijk", r, rule.nodes).reshape(-1, rule.dim)
    return points, np.einsum("i,j->ij", w * r ** (rule.dim - 1), rule.weights).ravel()


def _rows(vals):
    """The (points,) or (points, S) values as S contiguous rows of point
    values, so that each row is integrated by the same operations as a single
    row would be."""
    return np.ascontiguousarray(vals.reshape(len(vals), -1).T)


def _outer_integrate(values_fn, u, radius, budget, label, seed, rule, ball=False):
    """Outer x-integral of a smooth field's integrand over the ball of ``radius``.

    "tensor" is the ball rule when ``ball`` is set (node counts as in
    IntegrationBudget), with error |Q - Q_half| against half the r-nodes and
    the sphere rule's coarse rule; it suits the fractional integrand, of
    order radius^(-N-ps) at |x| = radius.  Otherwise "tensor" skips the
    trapezoid nodes outside the ball, where the spherical decomposition does
    not hold, which is spectral for integrands that vanish smoothly there.
    "montecarlo" draws the defensive gaussian mixture of width
    _importance_tau(u) with the seed derived from ``label``/``seed``.
    ``values_fn`` returns per-point values or (points, S) rows; the result is
    the (S,) values and errors, S = 1 for per-point values.
    """
    chunk = max(1, _BLOCK_ELEMENTS // rule.size)
    if budget.outer == "montecarlo":
        pts, rho = _mixture_samples(u.dim, radius, _importance_tau(u), budget.samples,
                                    derive_seed(budget.seed, label, seed))
        weighted = _rows(chunk_values(values_fn, pts, None, chunk)) / rho
        means = np.array([np.einsum("n->", row) for row in weighted]) / len(rho)
        return means, np.array([np.std(row, ddof=1) for row in weighted]) / math.sqrt(len(rho))
    if ball:
        n = budget.resolution
        shell, n_r = sphere_rule(u.dim, n if u.dim < 3 else n * n // 2), 2 * n // 3
        # the counting rule of S^0 is exact and has no coarse rule
        (fine, w_fine), (half, w_half) = (_ball_rule(radius, n_r, shell),
                                          _ball_rule(radius, n_r // 2, shell.coarse or shell))
        rows = _rows(chunk_values(values_fn, np.concatenate([fine, half]), None, chunk))
        q = np.array([np.einsum("n,n->", w_fine, row[: len(fine)]) for row in rows])
        return q, abs(q - np.array([np.einsum("n,n->", w_half, row[len(fine):]) for row in rows]))
    tg = trapezoid_grid(u.dim, radius, budget.resolution)
    live = np.einsum("nk,nk->n", tg.points, tg.points) <= radius**2
    return np.array([tg.integrate(row) for row in
                     _rows(chunk_values(values_fn, tg.points, live, chunk))]).T


def _midpoint_integrate(values_fn, rule, radius, resolution, live):
    """Outer x-integral of an indicator path's integrand on cell-centered
    grids over [-radius, radius]^N: the (S,) values at ``resolution`` and
    their distances to the values at half of it, as for _outer_integrate.
    ``live(points)`` masks the nodes where the integrand can be nonzero; None
    keeps all."""
    chunk = max(1, _BLOCK_ELEMENTS // rule.size)

    def value_at(res):
        tg = midpoint_grid(rule.dim, radius, res)
        vals = chunk_values(values_fn, tg.points, None if live is None else live(tg.points),
                            chunk)
        return np.array([np.einsum("n,n->", tg.weights, row) for row in _rows(vals)])

    fine = value_at(resolution)
    return fine, abs(fine - value_at(resolution // 2))


def _smooth_ray_integral(u, a, rule, h, h_weights, kernel_w, p, radius, budget, label, seed,
                         doubled=False, tail=None, ball=False):
    """Outer rule x sphere rule x radial rule for a smooth field: for each row
    i of the weights, the outer x-integral over the ball of ``radius`` of

        sum_m kernel_w[i, m] sum_j h_weights[i, m, j] |Psi(x, x + h sigma_m) - u(x)|_p^p / h^p

    at h = h[m, j].  ``h`` is (m, k), ``h_weights`` (S, m, k) and ``kernel_w``
    (S, m); the (m, k) planes may be broadcast views of nodes shared by every
    direction.  The difference quotient is computed once per block of rays and
    contracted once per row, each row on its own, so a row's value does not
    depend on the other rows; once a block's points have all their directions,
    their radial sums are summed over sigma, so only one block's (S, point,
    sigma) sums are kept.  ``doubled`` counts twice the pairs whose y lies
    outside the support of u, which a symmetric integrand meets from both ends
    but the outer rule covers from x only; ``tail`` (S,) adds tail[i] *
    |u(x)|_p^p; ``ball`` selects _outer_integrate's ball rule.  The step
    planes are built once per call.  Returns the (S,) values and errors.
    """
    steps = rule.nodes.T[:, :, None] * h
    half_steps = None if a.is_zero else rule.nodes.T[:, :, None] * (0.5 * h)
    h_pow = h**p
    sup2 = u.support_radius**2

    def values_fn(x_chunk):
        ux = u.evaluate(x_chunk)
        vals = np.empty((len(x_chunk), len(kernel_w)))
        for pts, dirs in _grid_blocks(len(x_chunk), rule.size, h.shape[1]):
            x = x_chunk[pts]
            if dirs.start == 0:  # new points (_grid_blocks gives their directions in order)
                rad = np.empty((len(kernel_w), len(x), rule.size))
            half = half_steps[:, None, dirs] if half_steps is not None else None
            gpow, y = _diff_pow(u, a, x.T[:, :, None, None], steps[:, None, dirs], half, h[dirs],
                                rule.nodes[dirs, None], ux[pts, None, None], p)
            qpow = np.divide(gpow, h_pow[dirs], out=gpow)
            if doubled:
                outside = np.einsum("cmhk,cmhk->cmh", y, y) > sup2
                np.multiply(qpow, 1.0 + outside, out=qpow)
            for i, w in enumerate(h_weights):
                rad[i, :, dirs] = np.einsum("cmh,mh->cm", qpow, w[dirs])
            if dirs.stop >= rule.size:  # their last directions
                for i, w in enumerate(kernel_w):
                    vals[pts, i] = np.einsum("cm,m->c", rad[i], w)
        if tail is None:
            return vals
        return vals + scalar_mixed_modulus_pow(ux, p)[:, None] * tail

    return _outer_integrate(values_fn, u, radius, budget, label, seed, rule, ball=ball)


# ---------------------------------------------------------------------------
# fractional (Gagliardo-type) seminorm


def _gagliardo_radial(p: float, s_values, h_max: float):
    """Nodes h (k,) and weights (S, k), one row per s of ``s_values``, for
    integral_0^H q(h)^p h^(alpha-1) dh, alpha = p(1-s); no node depends on s.

    On [0, h_1], h_1 = min(1, H), the nodes are _RADIAL_ORDER Gauss-Legendre
    nodes x_i, and a row holds their product weights for h^(alpha-1):
    w = V^-T m, with V_ij = P_j(x_i) and m_j the moments of the Legendre
    polynomial P_j against (1 + x)^(alpha-1), which grids.gauss_jacobi takes
    exactly.  The P_j are orthogonal on the Gauss nodes, so V^-T = diag(lambda)
    V diag(j + 1/2), lambda the Gauss weights.  The panel integrates
    h^(alpha-1) times polynomials of degree below _RADIAL_ORDER exactly, so
    the smooth difference quotient q is all it approximates.  Its smallest
    node is 9.2e-3 h_1; at s = 0.995 and p = 2 some weights are negative, and
    sum |w| is 5.5 times the row's mass.  _RADIAL_PANELS Gauss-Legendre
    panels in geometric progression cover [h_1, H].
    """
    h_1 = min(1.0, h_max)
    x, lam = leggauss(_RADIAL_ORDER)
    degree, legvander = _RADIAL_ORDER - 1, np.polynomial.legendre.legvander
    v_inv_t = np.einsum("i,ij,j->ij", lam, legvander(x, degree), np.arange(degree + 1) + 0.5)
    breaks = h_1 * (h_max / h_1) ** (np.arange(_RADIAL_PANELS + 1) / _RADIAL_PANELS)
    panels = [gauss_legendre(_PANEL_ORDER, lo, hi)
              for lo, hi in (zip(breaks[:-1], breaks[1:]) if h_max > h_1 else ())]
    rows = []
    for s in s_values:
        alpha = p * (1.0 - s)
        x_j, w_j = gauss_jacobi(_RADIAL_ORDER, alpha - 1.0)
        moments = np.einsum("n,nj->j", w_j, legvander(x_j, degree))
        first = (0.5 * h_1) ** alpha * np.einsum("ij,j->i", v_inv_t, moments)
        rows.append(np.concatenate([first] + [wh * h ** (alpha - 1.0) for h, wh in panels]))
    return np.concatenate([0.5 * h_1 * (1.0 + x)] + [h for h, _ in panels]), np.array(rows)


def _gagliardo_like(u, a, body, p, s_values, budget, seed):
    """Raw double integral with kernel gauge^(N + p s), without the (1-s)
    factor: the (S,) values and errors for the s of ``s_values``."""
    dim = body.dim
    rule = sphere_rule(dim, budget.sphere_nodes, body=body)
    g = body.gauge(rule.nodes)
    kernel_w = np.array([rule.weights / g ** (dim + p * s) for s in s_values])
    symmetric = a.is_zero
    radius = u.support_radius if symmetric else u.support_radius + budget.margin
    h_max = radius + u.support_radius

    if not u.smooth:
        return _gagliardo_indicator(u, s_values, budget, rule, kernel_w)

    h_nodes, h_weights = _gagliardo_radial(p, s_values, h_max)
    shape = (len(s_values), rule.size, len(h_nodes))
    # beyond h_max u(y) = 0, and the radial integral of |u(x)|_p^p h^(-1-ps)
    # has a closed form
    tail = np.array([h_max ** (-p * s) / (p * s) * float(np.einsum("m->", w))
                     for s, w in zip(s_values, kernel_w)])
    return _smooth_ray_integral(u, a, rule, np.broadcast_to(h_nodes, shape[1:]),
                                np.broadcast_to(h_weights[:, None, :], shape), kernel_w, p,
                                radius, budget, "gagliardo", seed, doubled=symmetric,
                                tail=tail * (2.0 if symmetric else 1.0), ball=True)


def _gagliardo_indicator(u, s_values, budget, rule, kernel_w):
    """p = 1 indicator path: exact radial integrals from ray/region intersections."""
    region = u.region

    def values_fn(x_chunk):
        _, t_hi = region.ray_interval(x_chunk[:, None, :], rule.nodes[None, :, :])
        t_hi = np.maximum(t_hi, 1e-300)
        return np.stack([2.0 * np.einsum("cm,m->c", t_hi ** (-s) / s, w)
                         for s, w in zip(s_values, kernel_w)], axis=1)

    return _midpoint_integrate(values_fn, rule, u.support_radius, budget.resolution,
                               region.contains)


def gagliardo(u: ComplexField, spec: FunctionalSpec, budget: IntegrationBudget,
              seed: int = 0) -> tuple:
    """Raw fractional seminorm (without the (1-s) normalization factor).

    When spec.kind.s is a tuple, one pass evaluates every s and the result is
    a tuple of values and a tuple of errors; each is the value a call at that
    s alone returns."""
    _validate(u, spec, budget, Gagliardo)
    s_values = spec.kind.s_values
    q, err = (np.broadcast_to(v, len(s_values)) for v in _gagliardo_like(
        u, spec.potential, spec.body, spec.p, s_values, budget, seed))
    if isinstance(spec.kind.s, tuple):
        return tuple(map(float, q)), tuple(map(float, err))
    return float(q[0]), float(err[0])


# ---------------------------------------------------------------------------
# threshold (Nguyen-type) functional


def _scan_grid(h_max: float, max_step: float) -> np.ndarray:
    pts = [_SCAN_MIN_FACTOR * h_max]
    while pts[-1] < h_max:
        step = min(pts[-1] * (_SCAN_RATIO - 1.0), max_step)
        pts.append(min(pts[-1] + step, h_max))
    return np.asarray(pts)


def _illinois(residual, lo, hi, r_lo, r_hi, tol):
    """Root of residual(rays, h) in [lo, hi] on each ray by Illinois steps
    (Dowell & Jarratt, BIT 11, 1971); r_lo and r_hi, the residuals at the
    ends, are positive at one end only.  A secant step not strictly inside
    the bracket is its midpoint.  A ray's root is its first iterate with a
    residual of at most ``tol`` in modulus or a bracket of at most 4 ulp,
    else its last; a ray that stops leaves the active set."""
    lo, hi, r_lo, r_hi = (np.array(v, dtype=float) for v in (lo, hi, r_lo, r_hi))
    rays, roots = np.arange(len(lo)), np.empty(len(lo))
    last = np.zeros(len(lo), dtype=bool)  # the previous step moved the upper end
    for step in range(_ROOT_MAX_ITERS):
        x = lo - r_lo * (hi - lo) / (r_hi - r_lo)
        x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
        r = residual(rays, x)
        upper = (r > 0.0) == (r_hi > 0.0)
        # the same end moves twice running: halve the residual kept at the other
        again = (upper == last) & (step > 0)
        r_lo = np.where(upper, np.where(again, 0.5 * r_lo, r_lo), r)
        r_hi = np.where(upper, r, np.where(again, 0.5 * r_hi, r_hi))
        lo, hi, last = np.where(upper, lo, x), np.where(upper, x, hi), upper
        roots[rays] = x
        done = (np.abs(r) <= tol) | (hi - lo <= 4.0 * np.spacing(hi))
        rays, lo, hi, r_lo, r_hi, last = (v[~done] for v in (rays, lo, hi, r_lo, r_hi, last))
        if not len(rays):
            break
    return roots


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
    edges = np.concatenate([[0.0], _scan_grid(h_max, max_step)])
    use_phase = not a.is_zero
    stride = _SCAN_STRIDE if u.envelope is not None else 1
    # the scan nodes evaluated first, as indices of ``edges``: h = 0 (never
    # fires), every stride-th scan node and the last one, at h_max, whose
    # state persists to infinity (the difference there is |u(x)|_p)
    nodes = np.unique(np.r_[0, np.arange(1, len(edges), stride), len(edges) - 1])
    h_coarse = edges[nodes[1:]]
    steps = rule.nodes.T[:, :, None] * h_coarse
    half_steps = rule.nodes.T[:, :, None] * (0.5 * h_coarse) if use_phase else None
    delta_pow = delta**p
    m_count = rule.size
    # Along a ray |d/dh Psi(x, x + h sigma)| <= |grad u(y)| + (|A(0)| + Lip_A
    # (|x| + h)) |u(y)|, and c_p turns that Euclidean bound into one for the
    # mixed modulus |.|_p; times the cell width it bounds |f_a - f| + |f - f_b|
    c_p = max(1.0, 2.0 ** (1.0 / p - 0.5))
    a0 = float(np.linalg.norm(a.evaluate(np.zeros((1, dim))))) if use_phase else 0.0
    lip_a = a.lipschitz_constant if use_phase else 0.0

    def kept(xs, x2, lo, hi, g_lo, g_hi):
        """Whether the cell [edges[lo], edges[hi]] of the ray with x.sigma =
        ``xs`` and |x|^2 = ``x2``, with gpow = g_lo and g_hi at its ends,
        stays open: its ends disagree, or it is wider than one scan cell and
        the Lipschitz bound on f(h) = gpow(h)^(1/p) does not decide its
        threshold state; arguments broadcast."""
        flips = (g_lo > delta_pow) != (g_hi > delta_pow)
        if stride == 1:
            return flips
        h_lo, h_hi = edges[lo], edges[hi]
        # distance from 0 to the segment x + h sigma, h in [h_lo, h_hi]
        # (sigma is a unit vector)
        along = np.minimum(np.maximum(h_lo + xs, 0.0), h_hi + xs)
        mag, grad = u.envelope(np.sqrt(np.maximum(x2 - xs * xs, 0.0) + along * along))
        if use_phase:
            grad = grad + (a0 + lip_a * (np.sqrt(x2) + h_hi)) * mag
        # the cell fires everywhere when (f_a + f_b)/2 - L w/2 > delta, and
        # nowhere when (f_a + f_b)/2 + L w/2 < delta; the 1e-9 margin covers
        # the rounding of f and of gpow > delta^p at the inner nodes, and a
        # NaN leaves the cell open
        f_sum = g_lo ** (1.0 / p) + g_hi ** (1.0 / p)
        decided = np.abs(f_sum - 2.0 * delta) > c_p * (h_hi - h_lo) * grad + 2e-9 * delta
        return flips | ((hi - lo > 1) & ~decided)

    def crossings(x, ux, dirs):
        """(point, direction, index of ``edges`` after the flip, gpow at both
        ends of its scan cell) of every crossing in one grid block, in that
        order; directions count from the start of the slice.  A cell whose
        ends agree is settled if certified, and any other is split at its
        middle scan node until it is one scan cell wide."""
        half = half_steps[:, None, dirs] if use_phase else None
        sig = rule.nodes[dirs]
        gpow, _ = _diff_pow(u, a, x.T[:, :, None, None], steps[:, None, dirs], half, h_coarse,
                            sig[:, None], ux[:, None, None], p)
        gpow = np.concatenate([np.zeros(gpow.shape[:2] + (1,)), gpow], axis=2)
        xs, x2 = np.einsum("ck,mk->cm", x, sig), np.einsum("ck,ck->c", x, x)
        open_ = kept(xs[:, :, None], x2[:, None, None], nodes[:-1], nodes[1:], gpow[:, :, :-1],
                     gpow[:, :, 1:])
        # the cells left are sparse, so a flat search beats a 3-D nonzero; they
        # are kept as columns (point, direction, lo, hi), with the gpow of
        # their ends, and each one scan cell wide flips
        ci, mi, ji = np.unravel_index(np.flatnonzero(open_), open_.shape)
        cells = np.stack([ci, mi, nodes[ji], nodes[ji + 1]])
        ends = np.stack([gpow[ci, mi, ji], gpow[ci, mi, ji + 1]])
        found = []
        while True:
            one = cells[3] - cells[2] == 1
            found.append((cells[:, one], ends[:, one]))
            cells, ends = cells[:, ~one], ends[:, ~one]
            if not cells.shape[1]:
                break
            ci, mi, lo, hi = cells
            n, split = len(ci), (lo + hi) // 2
            g_split = np.empty(n)
            for start in range(0, n, _BLOCK_ELEMENTS):
                # each node is the sum x + (h sigma) the full scan forms, so
                # the split cells see the node-by-node scan's bits
                b = slice(start, start + _BLOCK_ELEMENTS)
                h = edges[split[b]][None]
                d = sig.T.take(mi[b], axis=1)[:, None]
                g_split[b], _ = _diff_pow(u, a, x.T.take(ci[b], axis=1)[:, None], d * h,
                                          d * (0.5 * h) if use_phase else None, h,
                                          d.transpose(1, 2, 0), ux.take(ci[b]), p)
            cells, ends = np.tile(cells, 2), np.tile(ends, 2)
            cells[3, :n] = cells[2, n:] = split
            ends[1, :n] = ends[0, n:] = g_split
            ci, mi, lo, hi = cells
            keep = kept(xs[ci, mi], x2[ci], lo, hi, *ends)
            cells, ends = cells[:, keep], ends[:, keep]
        (ci, mi, _, ki), (g_lo, g_hi) = (np.concatenate(col, axis=1) for col in zip(*found))
        order = np.argsort((ci * len(sig) + mi) * len(edges) + ki)
        return ci[order], mi[order], ki[order], g_lo[order], g_hi[order]

    def values_fn(x_batch):
        ux = u.evaluate(x_batch)
        parts = []
        for pts, dirs in _grid_blocks(len(x_batch), m_count, len(h_coarse)):
            ci, mi, ki, g_lo, g_hi = crossings(x_batch[pts], ux[pts], dirs)
            parts.append((ci + pts.start, mi + dirs.start, ki, g_lo, g_hi))
        ci, mi, ki, g_lo, g_hi = (np.concatenate(col) for col in zip(*parts))
        crossing = np.empty(len(ci))
        for start in range(0, len(ci), _BLOCK_ELEMENTS):
            rays = slice(start, start + _BLOCK_ELEMENTS)
            # rays as coordinate planes, like the scan grid
            x_r = x_batch.T[:, ci[rays]]
            s_r = rule.nodes.T[:, mi[rays]]
            ux_r = ux[ci[rays]]

            def residual(active, h):
                d = s_r[:, active]
                gpow, _ = _diff_pow(u, a, x_r[:, active], d * h,
                                    d * (0.5 * h) if use_phase else None, h, d.T,
                                    ux_r[active], p)
                return gpow - delta_pow

            crossing[rays] = _illinois(residual, edges[ki[rays] - 1], edges[ki[rays]],
                                       g_lo[rays] - delta_pow, g_hi[rays] - delta_pow,
                                       16.0 * np.finfo(float).eps * delta_pow)
        signed = np.where(g_hi > delta_pow, 1.0, -1.0) * crossing ** (-p)
        ray_vals = np.zeros((len(x_batch), m_count))
        np.add.at(ray_vals, (ci, mi), signed)
        return (delta_pow / p) * np.einsum("cm,m->c", ray_vals, kernel_w)

    q, err = _outer_integrate(values_fn, u, radius, budget, "nguyen", seed, rule)
    return float(q[0]), float(err[0])


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
        raw, err = _gagliardo_like(u, spec.potential, spec.body, spec.p, (s,), budget, seed)
        return float(factor * raw[0]), float(factor * err[0])
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
    rho_const = spec.kind.family.height(n)
    xi, wxi = gauss_legendre(_RADIAL_ORDER, 0.0, 1.0)
    h_nodes = h_sup[:, None] * xi[None, :]  # (m, r)
    radius = u.support_radius + float(np.max(h_sup))
    # per-(sigma, h) quadrature weight: rho/g^p * h^(N-1) * dh
    w_mr = (rho_const / g**p)[:, None] * h_nodes ** (dim - 1) * (h_sup[:, None] * wxi[None, :])
    q, err = _smooth_ray_integral(u, a, rule, h_nodes, w_mr[None], rule.weights[None], p, radius,
                                  budget, "bbm", seed)
    return float(q[0]), float(err[0])


def _bbm_indicator(u, spec, budget):
    """p = 1 indicator path: one ray kernel for both families and every potential.

    Each (x, sigma) ray meets the region on [a, b], clipped to the family's
    cut: 1/(n g(sigma)) for the shrinking family, infinity for the Ludwig
    family.  Along the ray rho_n(h g)/g h^(N-2) = c(sigma) h^(e-1), with
    c = N n^N/g and e = N - 1 for the shrinking family and
    c = (1-s) g^(-N-s) and e = -s for the Ludwig family.  [0, a] adds
    nothing: outside the region u(x) = u(y) = 0 there, and inside a = 0.
    Beyond b, |Psi - u(x)|_1 = u(x), and on [a, b] at A = 0 it is 1 - u(x):
    those pieces take the primitive of h^(e-1).  Only [a, b] at A != 0 has
    the magnetic phase, |exp(-i h sigma.A(mid)) - u(x)|_1, on a Gauss rule.
    No field is evaluated.
    """
    a, body = spec.potential, spec.body
    family, n = spec.kind.family, spec.kind.n
    region, dim = u.region, body.dim
    rule = sphere_rule(dim, budget.sphere_nodes, body=body)
    g = body.gauge(rule.nodes)
    if isinstance(family, ShrinkingUniformFamily):
        cut = 1.0 / (n * g)  # rho vanishes beyond this
        radius = u.support_radius + float(np.max(cut))
        scale, e = rule.weights * family.height(n) / g, dim - 1
    else:
        s = family.s_value(n)
        cut, radius = np.full(rule.size, np.inf), u.support_radius + budget.margin
        scale, e = rule.weights * (1.0 - s) * g ** (-dim - s), -s
    xi, wxi = gauss_legendre(_RADIAL_ORDER, 0.0, 1.0)
    # rays per slice of the phase piece: its (ray, node) complex temporaries
    # stay below glibc's 128 KiB mmap threshold (see _BLOCK_ELEMENTS)
    ray_slice = _BLOCK_ELEMENTS // (4 * _RADIAL_ORDER)

    # rays are clipped to the cut, so neither a point nor a facet farther than
    # the cut from the boundary changes a value
    reach = float(np.max(cut)) * 1.0000001

    def live(points):
        # at A = 0 only the band within the cut of the boundary contributes
        return np.abs(region.signed_distance(points)) <= reach

    def primitive(lo, hi):
        return (hi**e - lo**e) / e if e != 0 else np.log(hi / lo)

    def phase_piece(x_chunk, ux, lo, hi):
        """integral over [lo, hi] of h^(e-1) |exp(-i h sigma.A(mid)) - u(x)|_1"""
        out = np.zeros(lo.shape)
        ci, mi = np.nonzero(hi > lo + 1e-300)
        for start in range(0, len(ci), ray_slice):
            c, m = ci[start : start + ray_slice], mi[start : start + ray_slice]
            width = hi[c, m] - lo[c, m]
            h = lo[c, m][:, None] + width[:, None] * xi
            sig = rule.nodes[m][:, None]
            rot = _phase(a, x_chunk[c][:, None] + 0.5 * h[..., None] * sig, h, sig)
            diff = scalar_mixed_modulus_pow(np.subtract(rot, ux[c], out=rot), 1.0)
            out[c, m] = width * np.einsum("br,r->b", h ** (e - 1) * diff, wxi)
        return out

    def values_fn(x_chunk):
        t_lo, t_hi = region.ray_interval(x_chunk[:, None, :], rule.nodes[None, :, :], reach)
        inside = region.contains(x_chunk)[:, None]
        # 0 < a <= b <= cut; the floor keeps h^e finite where a ray misses
        np.minimum(np.maximum(t_lo, 1e-300, out=t_lo), cut, out=t_lo)
        np.minimum(np.maximum(t_hi, t_lo, out=t_hi), cut, out=t_hi)
        # the closed-form pieces: [b, cut], empty outside the region, and at
        # A = 0 [a, b] outside it
        lo = np.where(inside, t_hi, t_lo) if a.is_zero else t_hi
        pieces = primitive(lo, np.where(inside, cut, t_hi))
        if not a.is_zero:
            pieces += phase_piece(x_chunk, inside.astype(float), t_lo, t_hi)
        return np.einsum("cm,m->c", pieces, scale)

    q, err = _midpoint_integrate(values_fn, rule, radius, budget.resolution,
                                 live if a.is_zero else None)
    return float(q[0]), float(err[0])
