"""numpy behaviours the matching arithmetic relies on, one test each.

The weighting, the edge stage and the edge attributes are bit for bit
what simpler expressions give only because numpy behaves as checked
here. A numpy upgrade that changes one of these fails here by name,
before any score pin moves.
"""

import math

import numpy as np
import pytest


def mask_bands(z, sigma):
    """How many of the edges sigma, 2 sigma, 3 sigma z is not within,
    as three comparison masks count it (a NaN is within none)."""
    return 3 - (z <= sigma) - (z <= 2.0 * sigma) - (z <= 3.0 * sigma)


@pytest.mark.parametrize("sigma", [0.0, -0.0, 1.0, 0.1, 1e308, math.inf])
def test_searchsorted_left_bands_like_masks(sigma):
    # side="left" counts the edges strictly below each value; NaN sorts
    # after every edge, and -0.0 == 0.0 as the comparisons have it
    edges = np.array((sigma, 2.0 * sigma, 3.0 * sigma))
    z = np.array([
        0.0, -0.0, sigma, 2.0 * sigma, 3.0 * sigma,
        np.nextafter(sigma, math.inf), np.nextafter(3.0 * sigma, math.inf),
        0.5, 1.5, 2.5, 3.5, 1e300, math.inf, math.nan,
    ])
    assert edges.searchsorted(z, side="left").tolist() == mask_bands(z, sigma).tolist()
    assert np.searchsorted(edges, math.nan) == 3


@pytest.mark.parametrize("n_cols", [1, 2, 3, 7, 8, 9, 100, 1000])
def test_add_reduce_axis0_adds_rows_in_order(n_cols):
    # values of mixed magnitude and sign, so another order rounds apart
    rng = np.random.default_rng(n_cols)
    x = rng.standard_normal((3, n_cols)) * 10.0 ** rng.integers(-8, 9, (3, n_cols))
    assert x.flags.c_contiguous
    want = (x[0] + x[1]) + x[2]
    assert np.add.reduce(x, axis=0).tobytes() == want.tobytes()
    x[:, 0] = (1.0, 1e16, -1e16)  # (a + b) + c = 0, a + (b + c) = 1
    assert np.add.reduce(x, axis=0)[0] == 0.0


def test_remainder_out_matches_operator():
    rng = np.random.default_rng(0)
    two_pi = 2.0 * math.pi
    x = np.concatenate([
        rng.uniform(-20.0, 20.0, 10_000),
        np.arange(-8, 9) * two_pi,
        np.arange(-8, 9) * math.pi,
        np.nextafter(np.arange(-8, 9) * two_pi, math.inf),
        np.nextafter(np.arange(-8, 9) * two_pi, -math.inf),
        [0.0, -0.0, 1e-300, -1e-300],
    ])
    want = x % two_pi
    got = x.copy()
    np.remainder(got, two_pi, out=got)
    assert got.tobytes() == want.tobytes()
