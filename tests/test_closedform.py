"""Tests for the standard-library closed forms: the scalar kernel and the Gauss-Legendre rule."""

import math

import numpy as np
import pytest

from cavlight import greens
from cavlight.closedform import SingularKernelError, gauss_legendre, line_kernel

PI = math.pi


def _kernel_points():
    # seeded points around the box, where both ends take both stable-sum
    # branches; the axis outside the segment; and points out to |c| = 1e6
    rng = np.random.default_rng(18)
    return np.concatenate(
        (
            rng.uniform(-PI, 2 * PI, (10_000, 3)),
            rng.uniform(-1e6, 1e6, (200, 3)),
            [(-0.5, 0.0, 0.0), (4.0, 0.0, 0.0), (-1e6, 0.0, -0.0), (1e6, 0.0, 0.0), (PI + 1e-9, 0.0, 0.0)],
            [(1e6, -1e6, 1e6), (-1e6, 1e6, 0.0), (PI / 2, 1e6, 0.0), (0.5, 1e-3, 0.0), (0.0, 1e-8, 1e-8)],
        )
    )


def test_line_kernel_matches_greens_kernel():
    points = _kernel_points()
    xi = points[:, 0]
    # the lower end sums stably on each side of xi = 0, the upper end on each side of xi = pi
    assert min(np.sum(xi < 0.0), np.sum((xi >= 0.0) & (xi < PI)), np.sum(xi >= PI)) > 2000
    want = greens.kernel(*points.T).tolist()
    got = [line_kernel(*p) for p in points.tolist()]
    assert all(abs(g - w) <= 2 * math.ulp(w) for g, w in zip(got, want))
    # next to the axis, where rho2 is subnormal or 0 or the ratio would
    # overflow, both kernels take the logs apart and stay finite
    for point in [(2.0, 2.2e-162, 0.0), (-2.0, 2.2e-162, 0.0), (1.0, 1.4916681462400413e-154, 0.0), (2.0, 1e-170, 0.0)]:
        want = greens.kernel(*point)
        assert math.isfinite(want) and abs(line_kernel(*point) - want) <= 2 * math.ulp(want)


@pytest.mark.parametrize("xi", [0.0, -0.0, 0.5, PI])
def test_line_kernel_singular_line_raises_as_greens(xi):
    assert SingularKernelError is greens.SingularKernelError
    with pytest.raises(SingularKernelError) as want:
        greens.kernel(xi, 0.0, 0.0)
    with pytest.raises(SingularKernelError) as got:
        line_kernel(xi, 0.0, -0.0)
    assert str(got.value) == str(want.value)
    # the vectorized kernel takes its near-axis entries from line_kernel
    with pytest.raises(SingularKernelError):
        greens._kernel_arrays(xi, np.array([1e-170, 0.0]), 0.0)


def test_line_kernel_refuses_a_bool_coordinate():
    # float() once took True as 1
    with pytest.raises(ValueError, match="three finite coordinates"):
        line_kernel(True, 1, 1)
    assert line_kernel(1, 1, 1) == line_kernel(1.0, 1.0, 1.0)


@pytest.mark.parametrize("order", range(1, 25))
def test_gauss_legendre_rule(order):
    x, w = gauss_legendre(order)
    assert len(x) == len(w) == order
    assert x == sorted(x) and 0.0 < x[0] and x[-1] < 1.0
    for i in range(order):
        assert x[i] + x[order - 1 - i] == pytest.approx(1.0, abs=1e-16)
        assert w[i] == w[order - 1 - i]
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-15)
    # exact on polynomials of degree 2 order - 1
    for k in range(2 * order):
        assert math.fsum(wi * xi**k for xi, wi in zip(x, w)) == pytest.approx(1.0 / (k + 1), abs=1e-14)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    np.testing.assert_allclose(x, 0.5 * (nodes + 1.0), rtol=0.0, atol=2e-16)
    np.testing.assert_allclose(w, 0.5 * weights, rtol=2e-13, atol=0.0)
