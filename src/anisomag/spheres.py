"""Quadrature rules on the unit sphere S^{N-1}.

Conventions: weights sum to the surface measure |S^{N-1}|, and S^0 = {-1, +1}
carries counting measure (each node weight 1).  N = 2 uses the periodic
trapezoid rule, or composite Gauss-Legendre panels aligned with a polytope's
facet switches when the integrand has gauge kinks; N = 3 uses a
Gauss-Legendre x trapezoid product grid.  There are no rules beyond N = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody
from .grids import gauss_legendre, leggauss

# default node counts of sphere_rule, per dimension
DEFAULT_NODES = {1: 2, 2: 4096, 3: 8192}


@dataclass(frozen=True)
class SphereRule:
    dim: int
    nodes: np.ndarray  # (M, dim) unit vectors
    weights: np.ndarray  # (M,) positive, summing to |S^{dim-1}|
    name: str
    coarse: "SphereRule | None" = None

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.weights)

    def total_weight(self) -> float:
        return float(np.sum(self.weights))


def counting_rule_1d() -> SphereRule:
    nodes = np.array([[1.0], [-1.0]])
    weights = np.array([1.0, 1.0])
    return SphereRule(1, nodes, weights, "S0-counting")


def circle_trapezoid(n: int, with_coarse: bool = True) -> SphereRule:
    """Periodic trapezoid rule on the circle; spectrally accurate for smooth gauges."""
    if n < 4:
        raise ValueError("need at least 4 nodes")
    theta = 2.0 * math.pi * np.arange(n) / n
    nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    weights = np.full(n, 2.0 * math.pi / n)
    coarse = circle_trapezoid(n // 2, with_coarse=False) if with_coarse and n >= 8 else None
    return SphereRule(2, nodes, weights, f"trapezoid({n})", coarse)


def circle_panels(breakpoints, nodes_per_panel: int = 16, with_coarse: bool = True) -> SphereRule:
    """Composite Gauss-Legendre panels between the given angles on the circle.

    Used for polytope gauges: within each panel a single facet is active, so
    the integrand is smooth there.  The coarse rule has half the nodes per
    panel, so it needs at least 2.
    """
    if with_coarse and nodes_per_panel < 2:
        raise ValueError("a panel rule with a coarse rule needs at least 2 nodes per panel")
    br = np.sort(np.mod(np.asarray(breakpoints, dtype=float), 2.0 * math.pi))
    br = np.unique(np.round(br, 12))
    if len(br) < 2:
        raise ValueError("need at least two breakpoints")
    edges = np.concatenate([br, [br[0] + 2.0 * math.pi]])
    thetas, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        t, w = gauss_legendre(nodes_per_panel, a, b)
        thetas.append(t)
        weights.append(w)
    theta = np.concatenate(thetas)
    w = np.concatenate(weights)
    nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    coarse = circle_panels(breakpoints, nodes_per_panel // 2, False) if with_coarse else None
    return SphereRule(2, nodes, w, f"panels({len(br)}x{nodes_per_panel})", coarse)


def sphere_product(n_polar: int = 64, n_azimuth: int = 128, with_coarse: bool = True) -> SphereRule:
    """Gauss-Legendre in cos(polar angle) x trapezoid in azimuth on S^2."""
    t, wt = leggauss(n_polar)  # t = cos(phi) on [-1, 1]
    theta = 2.0 * math.pi * np.arange(n_azimuth) / n_azimuth
    w_theta = 2.0 * math.pi / n_azimuth
    sin_phi = np.sqrt(1.0 - t**2)
    nodes = np.empty((n_polar * n_azimuth, 3))
    nodes[:, 0] = np.outer(sin_phi, np.cos(theta)).ravel()
    nodes[:, 1] = np.outer(sin_phi, np.sin(theta)).ravel()
    nodes[:, 2] = np.repeat(t, n_azimuth)
    weights = np.repeat(wt * w_theta, n_azimuth)
    coarse = (
        sphere_product(n_polar // 2, n_azimuth // 2, with_coarse=False)
        if with_coarse and min(n_polar, n_azimuth) >= 8
        else None
    )
    return SphereRule(3, nodes, weights, f"product({n_polar}x{n_azimuth})", coarse)


def slice_rule(dim: int, axis, order: int = 64, with_coarse: bool = True) -> SphereRule:
    """Rule sliced along ``axis``: polar Gauss-Legendre panels split at the
    equator (where axis . sigma changes sign) times a cross-section rule.

    Spectrally accurate for integrands of the form f(axis . sigma) with a kink
    at zero, e.g. |v . sigma|^p for real v parallel to the axis.
    """
    from .bodies import _hyperplane_basis

    if dim != 3:
        raise ValueError(f"slice rules implemented for dimension 3 only, got dimension {dim}")
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    xg, wg = leggauss(order)
    phi = np.concatenate([0.25 * math.pi * (xg + 1.0), 0.25 * math.pi * (xg + 3.0)])
    wphi = np.concatenate([0.25 * math.pi * wg, 0.25 * math.pi * wg])
    sin_phi = np.sin(phi)
    cross = circle_trapezoid(max(order, 16), with_coarse=False)
    eta = np.einsum("me,ek->mk", cross.nodes, _hyperplane_basis(axis))
    nodes = (np.cos(phi)[:, None, None] * axis[None, None, :]
             + sin_phi[:, None, None] * eta[None, :, :]).reshape(-1, dim)
    weights = ((wphi * sin_phi)[:, None] * cross.weights[None, :]).ravel()
    coarse = slice_rule(dim, axis, order // 2, with_coarse=False) if with_coarse and order >= 16 else None
    return SphereRule(dim, nodes, weights, f"slice({order})", coarse)


def sphere_rule(dim: int, n: int = 0, body: ConvexBody | None = None) -> SphereRule:
    """Default rule for integrating gauge-weighted integrands on S^{dim-1}.

    ``n`` is the target node count (0 picks DEFAULT_NODES[dim]).  When
    ``body`` is a 2-D polytope, panels are aligned with its facet switches.
    """
    if dim not in DEFAULT_NODES:
        raise ValueError(f"sphere rules implemented for dimensions 1 through 3, got {dim}")
    n = n or DEFAULT_NODES[dim]
    if dim == 1:
        return counting_rule_1d()
    if dim == 2:
        angles = body.facet_angles() if body is not None else None
        if angles is not None:
            per_panel = max(8, int(round(n / len(angles))))
            return circle_panels(angles, per_panel)
        return circle_trapezoid(n)
    n_polar = max(8, int(round(math.sqrt(n / 2.0))))
    return sphere_product(n_polar, 2 * n_polar)
