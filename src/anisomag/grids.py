"""Interval and box rules, and the chunked sums over their nodes.

Every Gauss rule of the package comes from here: ``leggauss`` on [-1, 1],
cached per order, and ``gauss_legendre`` mapped to [a, b].  The box rules are
tensor-product grids, and the ball rule the product of a radial Gauss rule and
a sphere rule.  Integrands on the trapezoid grid are smooth and
compactly supported, so the trapezoid rule converges fast; its nested
half-resolution subset gives a free discretization error estimate (same
integrand evaluations, different weights).  Indicator pipelines use
cell-centered grids instead, which never place nodes exactly on region
boundaries.  ``chunk_values`` evaluates an integrand on a grid's nodes a
fixed number of points at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np


@lru_cache(maxsize=None)
def leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    (adapted rules rebuild panels thousands of times); read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(order: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def chunk_values(values_fn, points, live, chunk):
    """values_fn(points) -> per-point values, or per-point rows (points, S),
    called ``chunk`` points at a time on the points the mask ``live`` selects
    (all if it is None); the other points get 0, or a zero row.  With no live
    point nothing is called and every value is 0."""
    vals = np.zeros(len(points))
    idx = np.arange(len(points)) if live is None else np.nonzero(live)[0]
    for start in range(0, len(idx), chunk):
        sel = idx[start : start + chunk]
        out = values_fn(points[sel])
        if out.shape[1:] != vals.shape[1:]:  # the first call returned rows
            vals = np.zeros((len(points),) + out.shape[1:])
        vals[sel] = out
    return vals


@dataclass(frozen=True)
class TensorGrid:
    points: np.ndarray  # (n, dim)
    weights: np.ndarray  # (n,)
    coarse_indices: np.ndarray | None  # indices into points
    coarse_weights: np.ndarray | None

    def integrate(self, values: np.ndarray) -> tuple[float, float]:
        """Weighted sum and |fine - coarse| error estimate, on a grid with a
        nested coarse subset (a trapezoid grid)."""
        fine = float(np.einsum("n,n->", self.weights, values))
        coarse = float(np.einsum("n,n->", self.coarse_weights, values[self.coarse_indices]))
        return fine, abs(fine - coarse)


def _mesh(axis: np.ndarray, dim: int) -> np.ndarray:
    """The nodes of axis^dim as (n, dim) rows, the last coordinate fastest."""
    return np.stack([m.ravel() for m in np.meshgrid(*([axis] * dim), indexing="ij")], axis=1)


def _axis_trapezoid(radius: float, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.linspace(-radius, radius, resolution + 1)
    h = 2.0 * radius / resolution
    w = np.full(resolution + 1, h)
    w[0] = w[-1] = 0.5 * h
    return x, w


def trapezoid_grid(dim: int, radius: float, resolution: int) -> TensorGrid:
    """Uniform trapezoid grid on [-radius, radius]^dim with a nested coarse subset."""
    resolution = int(resolution)
    if resolution % 2 != 0:
        resolution += 1
    x, w = _axis_trapezoid(radius, resolution)
    _, wc = _axis_trapezoid(radius, resolution // 2)
    coarse_idx = np.ravel_multi_index(_mesh(np.arange(0, resolution + 1, 2), dim).T,
                                      (resolution + 1,) * dim)
    weights, cw = (reduce(np.multiply.outer, [v] * dim).ravel() for v in (w, wc))
    return TensorGrid(_mesh(x, dim), weights, coarse_idx, cw)


def midpoint_grid(dim: int, radius: float, resolution: int) -> TensorGrid:
    """Cell-centered grid on [-radius, radius]^dim (no nodes on cell edges).

    Its half-resolution grid is shifted, not nested, so it carries no coarse
    subset; the error estimate comes from a second grid at half the
    resolution, evaluated on its own.
    """
    resolution = int(resolution)
    h = 2.0 * radius / resolution
    x = -radius + h * (np.arange(resolution) + 0.5)
    points = _mesh(x, dim)
    return TensorGrid(points, np.full(points.shape[0], h**dim), None, None)


def ball_grid(radius: float, n_r: int, rule) -> TensorGrid:
    """Points r_i sigma_j and weights w_i r_i^(N-1) omega_j of the ball of
    ``radius``: ``n_r`` Gauss-Legendre nodes r_i on [0, radius] times the
    sphere rule ``rule``'s nodes sigma_j.  No coarse subset, as for
    midpoint_grid: the error estimate needs a second, smaller ball grid."""
    r, w = gauss_legendre(n_r, 0.0, radius)
    weights = np.einsum("i,j->ij", w * r ** (rule.dim - 1), rule.weights).ravel()
    return TensorGrid(np.einsum("i,jk->ijk", r, rule.nodes).reshape(-1, rule.dim), weights,
                      None, None)
