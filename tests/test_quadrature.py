import numpy as np
import pytest
from scipy.special import i0

from zakgross.oracles import integrate_bins_1d, integrate_cell_2d
from zakgross.quadrature import QuadratureNotConverged, integrate_bins_x, panel_rule


def test_panel_rule_polynomial_exact():
    # Gauss-Legendre with 4 nodes integrates degree-7 polynomials exactly
    pts, wts = panel_rule([0.0, 1.0, 2.5], 4)
    val = wts @ pts ** 7
    assert abs(val - 2.5 ** 8 / 8) < 1e-10


@pytest.mark.parametrize("edges", [[1.0], [0.0, 1.0, 1.0], [[0.0, 1.0]]])
def test_panel_rule_rejects_bad_edges(edges):
    with pytest.raises(ValueError, match="strictly increasing"):
        panel_rule(edges, 4)


def test_cell_2d_bessel_product():
    # integral of e^{cos x} e^{cos z} over [0,2pi]^2 = (2 pi I0(1))^2
    def f(xs, zs):
        return np.exp(np.cos(xs))[:, None] * np.exp(np.cos(zs))[None, :]

    edges = np.linspace(0.0, 2 * np.pi, 5)
    val, err = integrate_cell_2d(f, edges, edges, abs_tol=1e-11)
    want = (2 * np.pi * i0(1.0)) ** 2
    assert abs(val - want) < 1e-9
    assert err <= 1e-11


def test_bins_x_exponential():
    # z-average of e^x over [0,1] split into 4 bins: e^b - e^a per bin
    def f(xs, zs):
        return np.exp(xs)[:, None] * np.ones(zs.size)[None, :]

    bins = np.linspace(0.0, 1.0, 5)
    vals, err = integrate_bins_x(f, bins, np.array([0.0, 1.0]), abs_tol=1e-12)
    want = np.diff(np.exp(bins))
    assert np.max(np.abs(vals - want)) < 1e-11


def test_bins_1d_matches_cdf():
    bins = np.linspace(0.0, 2.0, 7)
    vals, _ = integrate_bins_1d(lambda x: x * np.exp(-x), bins, abs_tol=1e-13)
    cdf = -(1 + bins) * np.exp(-bins)
    assert np.max(np.abs(vals - np.diff(cdf))) < 1e-12


def test_needle_raises_not_converged():
    def needle(x):
        return 1.0 / (1e-8 + (x - 0.3721) ** 2)

    with pytest.raises(QuadratureNotConverged):
        integrate_bins_1d(
            needle, [0.0, 1.0], panels_per_bin=1, abs_tol=1e-12,
            start_nodes=4, max_nodes=10,
        )
