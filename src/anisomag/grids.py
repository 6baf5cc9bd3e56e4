"""Tensor-product grids over boxes, with nested coarse subsets.

Integrands here are smooth and compactly supported, so the trapezoid rule
converges fast; the nested half-resolution subset gives a free discretization
error estimate (same integrand evaluations, different weights).  Indicator
pipelines use cell-centered grids instead, which never place nodes exactly on
region boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TensorGrid:
    points: np.ndarray  # (n, dim)
    weights: np.ndarray  # (n,)
    coarse_indices: np.ndarray | None  # indices into points
    coarse_weights: np.ndarray | None

    def integrate(self, values: np.ndarray) -> tuple[float, float]:
        """Weighted sum and |fine - coarse| error estimate."""
        fine = float(np.einsum("n,n->", self.weights, values))
        if self.coarse_indices is None:
            return fine, 0.0
        coarse = float(np.einsum("n,n->", self.coarse_weights, values[self.coarse_indices]))
        return fine, abs(fine - coarse)


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
    xc, wc = _axis_trapezoid(radius, resolution // 2)
    axes = [x] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    weights = np.ones(points.shape[0])
    idx_1d = np.arange(resolution + 1)
    for d in range(dim):
        shape = [1] * dim
        shape[d] = resolution + 1
        weights = weights * np.broadcast_to(w.reshape(shape), [resolution + 1] * dim).ravel()
    even = idx_1d % 2 == 0
    mask = np.ones(points.shape[0], dtype=bool)
    for d in range(dim):
        shape = [1] * dim
        shape[d] = resolution + 1
        mask &= np.broadcast_to(even.reshape(shape), [resolution + 1] * dim).ravel()
    coarse_idx = np.nonzero(mask)[0]
    cw = np.ones(len(coarse_idx))
    for d in range(dim):
        shape = [1] * dim
        shape[d] = resolution // 2 + 1
        cw = cw * np.broadcast_to(wc.reshape(shape), [resolution // 2 + 1] * dim).ravel()
    return TensorGrid(points, weights, coarse_idx, cw)


def midpoint_grid(dim: int, radius: float, resolution: int) -> TensorGrid:
    """Cell-centered grid on [-radius, radius]^dim (no nodes on cell edges).

    Its half-resolution grid is shifted, not nested, so it carries no coarse
    subset; the error estimate comes from a second grid at half the
    resolution (see functionals._midpoint_integrate).
    """
    resolution = int(resolution)
    h = 2.0 * radius / resolution
    x = -radius + h * (np.arange(resolution) + 0.5)
    mesh = np.meshgrid(*([x] * dim), indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    weights = np.full(points.shape[0], h**dim)
    return TensorGrid(points, weights, None, None)
