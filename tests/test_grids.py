"""Interval rules: the Gauss-Jacobi rule and the fractional seminorm's radial rule."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import roots_jacobi

from anisomag import functionals, grids

BETAS = [-0.99, -0.9, -0.5, 0.0, 0.3, 1.0, 2.0]


@pytest.mark.parametrize("beta", BETAS)
def test_gauss_jacobi_matches_scipy(beta):
    for order in range(1, 33):
        x, w = grids.gauss_jacobi(order, beta)
        xs, ws = roots_jacobi(order, 0.0, beta)
        assert np.max(np.abs(x - xs)) <= 1e-14
        # scipy's own weights are off by up to 6e-11 relative at beta = -0.99
        # (against 40-digit Christoffel numbers); the moments below are exact
        assert np.max(np.abs(w - ws) / ws) <= 1e-9
        j = np.arange(2 * order)
        moments = np.einsum("n,jn->j", w, (1.0 + x)[None, :] ** j[:, None])
        exact = 2.0 ** (beta + j + 1.0) / (beta + j + 1.0)
        assert np.max(np.abs(moments - exact) / exact) <= 1e-14 * order


def test_gauss_jacobi_is_cached_and_read_only():
    x, w = grids.gauss_jacobi(12, -0.5)
    assert grids.gauss_jacobi(12, -0.5)[0] is x
    with pytest.raises(ValueError):
        w[0] = 0.0


@pytest.mark.parametrize("s", [0.5, 0.8, 0.995])
@pytest.mark.parametrize("h_max", [0.5, 17.2])
def test_gagliardo_radial_weights(s, h_max):
    # the rule integrates h^(alpha - 1) times low powers of h on [0, h_max];
    # its nodes stay far enough from 0 for an accurate difference quotient
    p = 2.0
    alpha = p * (1.0 - s)
    h, w = functionals._gagliardo_radial(p, s, h_max)
    for j in range(4):
        exact = h_max ** (alpha + j) / (alpha + j)
        assert np.einsum("k,k->", w, h**j) == pytest.approx(exact, rel=1e-12)
    assert h.min() >= 5e-5 * min(1.0, h_max)
