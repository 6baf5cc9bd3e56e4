"""Complex scalar fields, magnetic potentials and the gauge-covariant kernel.

Field evaluation is fully vectorized: ``field(x)`` and ``field.grad(x)``
accept any (..., N) batch.  The built-in catalog (Gaussian, modulated
Gaussian, compact bump, polytope indicators) is chosen so every energy in the
test-suite has a closed-form or cheaply computable reference value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .bodies import Polytope
from .grids import gauss_legendre
from .spheres import sphere_rule

GAUSSIAN_EFFECTIVE_RADIUS = 8.6  # exp(-R^2/2) < 1e-16 beyond this


@dataclass(frozen=True)
class ComplexField:
    """Function u: R^N -> C with an analytic gradient and a support radius.

    ``smooth`` fields carry a gradient closure; indicator fields carry the
    polytope region instead and are only accepted by the p = 1 pipelines.

    ``envelope``, when given, maps an array of radii r >= 0 to two arrays of
    the same shape, (M(r), E(r)) with M(r) >= sup |u(y)| and E(r) >= sup
    |grad u(y)| over |y| >= r (|grad u| the Euclidean norm of the complex
    gradient), both nonincreasing in r.  The threshold functional uses it to
    certify scan cells without evaluating them: E bounds how fast the
    difference |Psi - u(x)| can change along a ray, and M bounds |Psi| =
    |u(y)| itself, so also the difference's magnitude.  A field without one
    is scanned node by node.
    """

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None
    support_radius: float
    smooth: bool
    name: str
    region: Polytope | None = dc_field(default=None, repr=False)
    # optional predicate: where the gradient can be nonzero (mollified
    # indicators concentrate it in a thin band, which integrators exploit)
    gradient_band: Callable[[np.ndarray], np.ndarray] | None = dc_field(default=None, repr=False)
    envelope: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = dc_field(
        default=None, repr=False)

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(np.asarray(x, dtype=float))

    def grad(self, x) -> np.ndarray:
        if self.gradient is None:
            raise ValueError(f"field {self.name!r} has no gradient (indicator)")
        return self.gradient(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class MagneticPotential:
    """Function A: R^N -> R^N with a known Lipschitz constant."""

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    lipschitz_constant: float
    name: str
    is_zero: bool = False

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# built-in fields


def gaussian(dim: int, amplitude: float = 1.0) -> ComplexField:
    """u(x) = amplitude * exp(-|x|^2 / 2)."""

    def ev(x):
        r2 = np.einsum("...k,...k->...", x, x)
        return amplitude * np.exp(-0.5 * r2) + 0j

    def gr(x):
        return -x * ev(x)[..., None]

    def env(r):
        # |grad u| = |y| |u(y)| peaks at |y| = 1
        mag = abs(amplitude) * np.exp(-0.5 * r * r)
        return mag, np.where(r < 1.0, abs(amplitude) * math.exp(-0.5), r * mag)

    return ComplexField(dim, ev, gr, GAUSSIAN_EFFECTIVE_RADIUS, True,
                        f"gaussian(a={amplitude:g})", envelope=env)


def modulated_gaussian(dim: int, wave) -> ComplexField:
    """u(x) = exp(i k.x) exp(-|x|^2 / 2) for a real wave vector k."""
    k = np.asarray(wave, dtype=float)
    if k.shape != (dim,):
        raise ValueError("wave vector must match the dimension")

    def ev(x):
        r2 = np.einsum("...k,...k->...", x, x)
        phase = np.einsum("...k,k->...", x, k)
        return np.exp(1j * phase - 0.5 * r2)

    def gr(x):
        return (1j * k - x) * ev(x)[..., None]

    # |grad u|^2 = (|k|^2 + s^2) exp(-s^2) at |y| = s peaks at s^2 = 1 - |k|^2
    k2 = float(np.einsum("k,k->", k, k))
    peak = math.sqrt(max(0.0, 1.0 - k2))
    grad_peak = math.sqrt(k2 + peak * peak) * math.exp(-0.5 * peak * peak)

    def env(r):
        r2 = r * r
        mag = np.exp(-0.5 * r2)
        return mag, np.where(r < peak, grad_peak, np.sqrt(k2 + r2) * mag)

    return ComplexField(dim, ev, gr, GAUSSIAN_EFFECTIVE_RADIUS, True,
                        f"modulated_gaussian(k={k.tolist()})", envelope=env)


def bump(dim: int) -> ComplexField:
    """Compact bump exp(1 - 1/(1 - |x|^2)) supported on the unit ball."""

    def ev(x):
        r2 = np.einsum("...k,...k->...", x, x)
        out = np.zeros(r2.shape, dtype=complex)
        inside = r2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out

    def gr(x):
        r2 = np.einsum("...k,...k->...", x, x)
        out = np.zeros(x.shape, dtype=complex)
        inside = r2 < 1.0
        denom = (1.0 - r2[inside]) ** 2
        u = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        out[inside] = -2.0 * x[inside] * (u / denom)[..., None]
        return out

    def env(r):
        # |grad u| = -bump'(s) at |y| = s peaks where 3 s^4 = 1
        return _bump_profile(r), -_bump_profile_deriv(np.maximum(r, 3.0**-0.25))

    return ComplexField(dim, ev, gr, 1.0, True, "bump", envelope=env)


def zero_field(dim: int) -> ComplexField:
    def ev(x):
        return np.zeros(x.shape[:-1], dtype=complex)

    def gr(x):
        return np.zeros(x.shape, dtype=complex)

    def env(r):
        return np.zeros_like(r), np.zeros_like(r)

    return ComplexField(dim, ev, gr, 1.0, True, "zero", envelope=env)


def indicator(region: Polytope) -> ComplexField:
    """Indicator of a bounded polytope; no gradient, p = 1 pipelines only."""
    def ev(x):
        return region.contains(x).astype(complex)

    return ComplexField(region.dim, ev, None, region.circumradius(), False, "indicator", region)


# ---------------------------------------------------------------------------
# built-in potentials


def zero_potential(dim: int) -> MagneticPotential:
    def ev(x):
        return np.zeros(x.shape)

    return MagneticPotential(dim, ev, 0.0, "zero", is_zero=True)


def constant_potential(a) -> MagneticPotential:
    a = np.asarray(a, dtype=float)

    def ev(x):
        return np.broadcast_to(a, x.shape).copy()

    return MagneticPotential(len(a), ev, 0.0, f"constant({a.tolist()})")


def linear_potential(matrix) -> MagneticPotential:
    """A(x) = B x for a square matrix B; Lipschitz constant = ||B||_2."""
    b = np.asarray(matrix, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("matrix must be square")
    lip = float(np.linalg.svd(b, compute_uv=False)[0])

    def ev(x):
        return np.einsum("ij,...j->...i", b, x)

    return MagneticPotential(b.shape[0], ev, lip, "linear")


def rotational_potential(b: float) -> MagneticPotential:
    """A(x) = (b/2) (-x_2, x_1) at N = 2, the symmetric-gauge field."""

    def ev(x):
        out = np.empty_like(x, dtype=float)  # keeps the memory layout of x
        out[..., 0] = -0.5 * b * x[..., 1]
        out[..., 1] = 0.5 * b * x[..., 0]
        return out

    return MagneticPotential(2, ev, abs(b) / 2.0, f"rotational(b={b:g})")


# ---------------------------------------------------------------------------
# magnetic kernel and gradient


def psi(u: ComplexField, a: MagneticPotential, x, y) -> np.ndarray:
    """Gauge-covariant translate exp(i (x-y).A((x+y)/2)) u(y).

    Its modulus is |u(y)| for every potential; broadcasting over (..., N)
    batches of x and y is supported.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.dim != a.dim:
        raise ValueError("field and potential dimensions differ")
    uy = u.evaluate(y)
    if a.is_zero:
        return uy
    mid = 0.5 * (x + y)
    phase = np.einsum("...k,...k->...", x - y, a.evaluate(mid))
    return np.exp(1j * phase) * uy


def magnetic_gradient(u: ComplexField, a: MagneticPotential, x) -> np.ndarray:
    """Covariant derivative grad u - i A(x) u(x); rejects indicator fields."""
    if not u.smooth:
        raise ValueError("magnetic gradient requires a smooth field")
    x = np.asarray(x, dtype=float)
    g = u.grad(x)
    if a.is_zero:
        return g
    return g - 1j * a.evaluate(x) * u.evaluate(x)[..., None]


# ---------------------------------------------------------------------------
# mollification


def _bump_profile(r: np.ndarray) -> np.ndarray:
    out = np.zeros_like(r)
    inside = r < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    return out


def _bump_profile_deriv(r: np.ndarray) -> np.ndarray:
    out = np.zeros_like(r)
    inside = r < 1.0
    out[inside] = -2.0 * r[inside] / (1.0 - r[inside] ** 2) ** 2 * np.exp(
        1.0 - 1.0 / (1.0 - r[inside] ** 2)
    )
    return out


def mollify(u: ComplexField, m: int, angular_nodes: int = 128) -> ComplexField:
    """Convolution of u with the standard bump scaled to radius 1/m.

    The mollifier is radial with unit mass; the result is smooth, its gradient
    obtained by convolving with the mollifier's gradient.  For polytope
    indicators the radial integral is cut exactly at the ray/region
    intersection, so the only discretization left is angular.
    """
    if m <= 0:
        raise ValueError("mollification index m must be a positive integer")
    dim = u.dim
    ang = sphere_rule(dim, angular_nodes)
    if u.region is not None:
        return _mollify_indicator(u, m, ang)
    return _mollify_smooth(u, m, ang)


def _mollify_smooth(u: ComplexField, m: int, ang) -> ComplexField:
    dim = u.dim
    rho, w_rho = gauss_legendre(32, 0.0, 1.0)  # the radial rule
    base = _bump_profile(rho) * rho ** (dim - 1) * w_rho
    mass = float(np.einsum("i->", base)) * ang.total_weight()
    # y_k = (rho_i / m) sigma_j, value weights normalized to unit mass
    offsets = (rho[:, None, None] / m) * ang.nodes[None, :, :]  # (R, M, N)
    w_val = (base[:, None] * ang.weights[None, :]) / mass  # (R, M)
    gbase = _bump_profile_deriv(rho) * rho ** (dim - 1) * w_rho
    w_grad = m * (gbase[:, None, None] / mass) * ang.weights[None, :, None] * ang.nodes[None, :, :]

    def ev(x):
        pts = x[..., None, None, :] - offsets
        return np.einsum("...rm,rm->...", u.evaluate(pts), w_val)

    def gr(x):
        pts = x[..., None, None, :] - offsets
        return np.einsum("...rm,rmk->...k", u.evaluate(pts), w_grad)

    return ComplexField(dim, ev, gr, u.support_radius + 1.0 / m, True,
                        f"mollified({u.name}, m={m})")


def _mollify_indicator(u: ComplexField, m: int, ang) -> ComplexField:
    from scipy.integrate import cumulative_simpson
    from scipy.interpolate import CubicSpline

    dim = u.dim
    region = u.region
    grid = np.linspace(0.0, 1.0, 4097)
    bvals = _bump_profile(grid) * grid ** (dim - 1)
    dvals = _bump_profile_deriv(grid) * grid ** (dim - 1)
    cum_b = CubicSpline(grid, np.concatenate([[0.0], cumulative_simpson(bvals, x=grid)]))
    cum_d = CubicSpline(grid, np.concatenate([[0.0], cumulative_simpson(dvals, x=grid)]))
    mass = float(cum_b(1.0)) * ang.total_weight()

    reach = (1.0 / m) * 1.0000001  # rho vanishes beyond t = 1/m

    def _cut(x):
        # u(x - t sigma) = 1 for t in [lo, hi] (unit-scale rho = m t in [0, 1])
        t_lo, t_hi = region.ray_interval(x[..., None, :], -ang.nodes, reach)
        lo = np.clip(t_lo * m, 0.0, 1.0)
        hi = np.clip(t_hi * m, 0.0, 1.0)
        return lo, np.maximum(hi, lo)

    def ev(x):
        lo, hi = _cut(x)
        seg = cum_b(hi) - cum_b(lo)
        return np.einsum("...m,m->...", seg, ang.weights).astype(complex) / mass

    def gr(x):
        lo, hi = _cut(x)
        seg = cum_d(hi) - cum_d(lo)
        out = np.einsum("...m,mk->...k", seg, ang.nodes * ang.weights[:, None])
        return out.astype(complex) * (m / mass)

    def band(x):
        return np.abs(region.signed_distance(x)) <= 1.0 / m + 1e-12

    return ComplexField(dim, ev, gr, u.support_radius + 1.0 / m, True,
                        f"mollified({u.name}, m={m})", gradient_band=band)


# ---------------------------------------------------------------------------
# real test fields for the variational pairings


@dataclass(frozen=True)
class VectorTestField:
    """Compactly supported C^1 vector field with an analytic divergence."""

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    divergence: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    name: str

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(np.asarray(x, dtype=float))


def bump_test_field(direction, center=None, radius: float = 1.0) -> VectorTestField:
    """phi(x) = bump((x - c)/R) * d, with divergence d . grad(bump)."""
    d = np.asarray(direction, dtype=float)
    dim = len(d)
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)

    def ev(x):
        z = (x - c) / radius
        r = np.sqrt(np.einsum("...k,...k->...", z, z))
        return _bump_profile(r)[..., None] * d

    def div(x):
        z = (x - c) / radius
        r = np.sqrt(np.einsum("...k,...k->...", z, z))
        proj = np.einsum("...k,k->...", z, d)
        with np.errstate(divide="ignore", invalid="ignore"):
            radial = np.where(r > 1e-14, _bump_profile_deriv(r) / np.maximum(r, 1e-300), 0.0)
        return radial * proj / radius

    sup = float(np.linalg.norm(c)) + radius
    return VectorTestField(dim, ev, div, sup, f"bump_field(R={radius:g})")
