"""Interval rules: the fractional seminorm's radial rule, and the chunked sum
over a grid's nodes."""

from __future__ import annotations

import numpy as np
import pytest

from anisomag import functionals, grids

S_VALUES = (0.5, 0.8, 0.995, 0.999)


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("h_max", [0.5, 17.2])
def test_gagliardo_radial_weights(s, h_max):
    # every s of a schedule shares one node array, and its row of weights is
    # the row a rule for that s alone builds; the row integrates h^(alpha - 1)
    # times every power of h below _RADIAL_ORDER on [0, h_max], and its nodes
    # stay far enough from 0 for an accurate difference quotient.  p = 2 and
    # 6 take alpha from 0.002 to 3, the integers 1 and 3 among them
    for p in (2.0, 6.0):
        alpha = p * (1.0 - s)
        h, w = functionals._gagliardo_radial(p, S_VALUES, h_max)
        h_one, w_one = functionals._gagliardo_radial(p, (s,), h_max)
        row = w[S_VALUES.index(s)]
        assert w.shape == (len(S_VALUES), len(h))
        assert np.array_equal(h_one, h) and np.array_equal(w_one[0], row)
        for j in range(functionals._RADIAL_ORDER):
            exact = h_max ** (alpha + j) / (alpha + j)
            # the rounding of a sum with negative weights scales with
            # sum |w| h^j, which is the exact value where no weight is
            # negative; the error measures at most 5e-15 of it
            scale = np.einsum("k,k->", np.abs(row), h**j)
            assert abs(np.einsum("k,k->", row, h**j) - exact) <= 1e-14 * scale
        mass = h_max**alpha / alpha
        # near s = 1 some product weights are negative; they amplify rounding
        # by sum |w| / mass, which measures 5.5 at alpha = 0.01 and 5.7 at
        # alpha = 0.002
        assert np.abs(row).sum() <= (6.0 if alpha < 0.1 else 1.0 + 1e-12) * mass
        assert h.min() >= 5e-5 * min(1.0, h_max)


@pytest.mark.parametrize("masked", [False, True])
def test_chunk_values_rows(masked):
    # a values_fn may return (points, S) rows; masked points get zero rows,
    # and chunking changes no row
    points = np.linspace(-1.0, 1.0, 11)[:, None]
    live = points[:, 0] > 0.1 if masked else None

    def rows(x):
        return np.stack([x[:, 0], x[:, 0] ** 2, np.ones(len(x))], axis=1)

    got = grids.chunk_values(rows, points, live, 4)
    expected = rows(points)
    if masked:
        expected[~live] = 0.0
    assert got.shape == (11, 3)
    assert np.array_equal(got, expected)
    assert np.array_equal(grids.chunk_values(rows, points, live, 100), got)


def test_chunk_values_no_live_point():
    # nothing is evaluated, and every value is 0
    def fail(x):
        raise AssertionError("called")

    vals = grids.chunk_values(fail, np.zeros((5, 2)), np.zeros(5, dtype=bool), 2)
    assert np.array_equal(vals, np.zeros(5))
