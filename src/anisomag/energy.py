"""Local anisotropic magnetic energies and total-variation quantities.

These are the right-hand sides of the limit theorems: the p-energy of the
covariant gradient in the moment-body norm, its p = 1 total-variation value
(with the real/imaginary split as an independent cross-route), the
anisotropic perimeter of polytope indicators, and the variational pairings
that lower-bound the total variation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody, Polytope
from .fields import ComplexField, MagneticPotential, VectorTestField, magnetic_gradient
from .grids import chunk_values, trapezoid_grid
from .norms import SphereMomentKernel, adapted_moment_rule
from .spheres import DEFAULT_NODES, sphere_rule

# grid points per kernel call, which changes no value.  Not the functionals'
# one block of rays per call (functionals._BLOCK_ELEMENTS): at p = 2 the kernel
# builds no (point, sphere node) temporaries, and that would give 3-point chunks;
# at p != 2 each is 16.8 MB at the default 4,096 nodes (33.5 MB at 8,192 in 3-D).
_CHUNK = 512


@dataclass(frozen=True)
class GridSpec:
    """Tensor-grid configuration for the local integrals."""

    resolution: int = 96
    radius: float | None = None  # None = field support radius
    sphere_nodes: int = 0  # 0 = per-dimension default

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2 (the error estimate halves it)")
        if self.radius is not None and not self.radius > 0.0:
            raise ValueError("radius must be positive (None takes the field's support radius)")
        if self.sphere_nodes < 0:
            raise ValueError("sphere_nodes must be non-negative (0 picks the default)")


def _integrate_gradient(u: ComplexField, a: MagneticPotential, grid: GridSpec, norm_pow):
    """integral of norm_pow(grad u - i A u) over the grid, _CHUNK points at a
    time; at A = 0 points outside the field's gradient band contribute 0.  At
    A != 0 every point counts: -iAu is nonzero wherever u is."""
    radius = grid.radius if grid.radius is not None else u.support_radius
    tg = trapezoid_grid(u.dim, radius, grid.resolution)
    live = u.gradient_band(tg.points) if u.gradient_band is not None and a.is_zero else None
    return tg.integrate(chunk_values(lambda x: norm_pow(magnetic_gradient(u, a, x)), tg.points,
                                     live, _CHUNK))


def local_energy(
    u: ComplexField,
    a: MagneticPotential,
    body: ConvexBody,
    p: float,
    grid: GridSpec = GridSpec(),
) -> tuple[float, float]:
    """integral of ||grad u - i A u||_{p,K}^p dx with a two-resolution error estimate."""
    if not u.smooth:
        raise ValueError("local energy requires a smooth field")
    kernel = SphereMomentKernel(body, p, sphere_rule(body.dim, grid.sphere_nodes, body=body))
    return _integrate_gradient(u, a, grid, kernel.norms_pow_p)


def total_variation_smooth(
    u: ComplexField,
    a: MagneticPotential,
    body: ConvexBody,
    grid: GridSpec = GridSpec(),
    route: str = "direct",
) -> tuple[float, float]:
    """p = 1 local energy; route "split" integrates the real/imaginary parts.

    The split decomposes the covariant gradient into its real part
    (grad Re u + A Im u) and imaginary part (grad Im u - A Re u) and measures
    each in the real moment-body norm.  It uses a second sphere rule with 3/2
    the nodes of the direct route's (``grid.sphere_nodes``, or
    spheres.DEFAULT_NODES), so the two routes differ in their quadrature as
    well as in their formula; they must agree to grid tolerance.
    """
    if route == "direct":
        return local_energy(u, a, body, 1.0, grid)
    if route != "split":
        raise ValueError("route must be 'direct' or 'split'")
    if not u.smooth:
        raise ValueError("total variation (smooth) requires a smooth field")
    alt = sphere_rule(body.dim, (grid.sphere_nodes or DEFAULT_NODES[body.dim]) * 3 // 2, body=body)
    kernel = SphereMomentKernel(body, 1.0, alt)
    return _integrate_gradient(
        u, a, grid, lambda mg: kernel.norms_pow_p(mg.real) + kernel.norms_pow_p(mg.imag))


def anisotropic_perimeter(region: Polytope, body: ConvexBody) -> float:
    """Sum over facets of area times the moment-body norm of the unit normal.

    This is the total variation of the region's indicator under the BV
    agreement, and the p = 1 limit target for indicator fields.
    """
    if region.dim != body.dim:
        raise ValueError("region and body dimensions differ")
    areas = region.facet_areas()
    if float(areas.sum()) == 0.0:
        return 0.0
    total = 0.0
    for area, normal in zip(areas, region.normals):
        rule = adapted_moment_rule(body, normal, order=48)
        total += area * SphereMomentKernel(body, 1.0, rule).norm(normal)
    return float(total)


def variational_pairing(
    u: ComplexField,
    a: MagneticPotential,
    phi: VectorTestField,
    grid: GridSpec = GridSpec(),
) -> tuple[float, float]:
    """The two pairing integrals behind the BV suprema for one test field.

    Returns (integral of Re u div phi - A.phi Im u,
             integral of Im u div phi + A.phi Re u).
    """
    if not np.isfinite(phi.support_radius):
        raise ValueError("test field must be compactly supported")
    radius = min(u.support_radius, phi.support_radius) if grid.radius is None else grid.radius
    tg = trapezoid_grid(u.dim, radius, grid.resolution)
    uv = u.evaluate(tg.points)
    div = phi.divergence(tg.points)
    a_dot_phi = np.einsum("nk,nk->n", a.evaluate(tg.points), phi.evaluate(tg.points))
    first, _ = tg.integrate(uv.real * div - a_dot_phi * uv.imag)
    second, _ = tg.integrate(uv.imag * div + a_dot_phi * uv.real)
    return first, second
