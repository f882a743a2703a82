"""Geometry closed forms, dilation homogeneity, divergence cross-check."""

import numpy as np
import pytest

from grushin_hardy.geometry import (
    Point,
    SingularPointError,
    SpaceParams,
    dilate,
    div_weighted_rho_closed_form,
    fd_divergence,
    grad_gamma_rho,
    norm_grad_gamma_rho,
    radial_coords,
    rho,
    unit_grad_gamma_rho,
)

SPACES = [SpaceParams(1, 1, 1.0), SpaceParams(2, 1, 2.0), SpaceParams(1, 2, 0.5)]
CS_PAIRS = [(1.0, -1.0), (0.0, 0.0), (3.0, 1.0)]


def sample_points(space, rng, count, rho_lo=0.5, rho_hi=2.0, x_min=0.25):
    """Rejection-sample points with rho in [rho_lo, rho_hi] and |x| >= x_min."""
    pts = []
    while len(pts) < count:
        z = Point(rng.uniform(-2.0, 2.0, size=space.m), rng.uniform(-2.0, 2.0, size=space.k))
        if rho_lo <= rho(space, z) <= rho_hi and np.linalg.norm(z.x) >= x_min:
            pts.append(z)
    return pts


def test_homogeneous_dimension_values():
    assert SpaceParams(1, 1, 1.0).Q == 3.0
    assert SpaceParams(2, 1, 0.0).Q == 3.0
    assert SpaceParams(2, 3, 2.0).Q == 11.0
    assert SpaceParams(1, 2, 0.5).n == 3


def test_space_params_validation():
    with pytest.raises(ValueError):
        SpaceParams(0, 1, 1.0)
    with pytest.raises(ValueError):
        SpaceParams(1, 0, 1.0)
    with pytest.raises(ValueError):
        SpaceParams(1, 1, -0.1)
    with pytest.raises(ValueError, match="finite"):
        SpaceParams(1, 1, float("nan"))


def test_rho_values():
    s1 = SpaceParams(1, 1, 1.0)
    assert rho(s1, Point([1.0], [0.0])) == pytest.approx(1.0, rel=1e-15)
    assert rho(SpaceParams(1, 1, 0.0), Point([3.0], [4.0])) == pytest.approx(5.0, rel=1e-15)
    # (4 * 0.25)^(1/4) = 1
    assert rho(s1, Point([0.0], [0.5])) == pytest.approx(1.0, rel=1e-15)
    assert rho(s1, Point([0.0], [0.0])) == 0.0


def test_rho_batch_matches_pointwise():
    rng = np.random.default_rng(11)
    for space in SPACES:
        x = rng.normal(size=(40, space.m))
        y = rng.normal(size=(40, space.k))
        r, vals = radial_coords(space, x, y)
        for i in range(40):
            assert vals[i] == pytest.approx(rho(space, Point(x[i], y[i])), rel=1e-14)
        assert np.allclose(r, np.linalg.norm(x, axis=1))


def test_grad_gamma_rho_values():
    s1 = SpaceParams(1, 1, 1.0)
    np.testing.assert_allclose(grad_gamma_rho(s1, Point([1.0], [0.0])), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(
        grad_gamma_rho(SpaceParams(1, 1, 0.0), Point([3.0], [4.0])), [0.6, 0.8], rtol=1e-15
    )
    np.testing.assert_allclose(grad_gamma_rho(s1, Point([0.0], [0.5])), [0.0, 0.0], atol=0)
    with pytest.raises(SingularPointError):
        grad_gamma_rho(s1, Point([0.0], [0.0]))


def test_norm_grad_gamma_rho_values_and_bound():
    assert norm_grad_gamma_rho(SpaceParams(1, 1, 1.0), Point([1.0], [0.0])) == 1.0
    assert norm_grad_gamma_rho(SpaceParams(1, 1, 0.0), Point([-0.3], [2.0])) == 1.0
    assert norm_grad_gamma_rho(SpaceParams(1, 1, 2.0), Point([0.5], [0.0])) == pytest.approx(1.0, rel=1e-15)
    rng = np.random.default_rng(13)
    for space in SPACES:
        for z in sample_points(space, rng, 30, x_min=0.0):
            nv = norm_grad_gamma_rho(space, z)
            assert 0.0 <= nv <= 1.0 + 1e-15
            # consistency with the vector closed form
            assert nv == pytest.approx(np.linalg.norm(grad_gamma_rho(space, z)), abs=1e-14)


def test_unit_grad_gamma_rho_is_unit():
    rng = np.random.default_rng(14)
    for space in SPACES:
        for z in sample_points(space, rng, 20):
            u = unit_grad_gamma_rho(space, z)
            assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(SingularPointError):
        unit_grad_gamma_rho(SpaceParams(1, 1, 1.0), Point([0.0], [0.5]))
    with pytest.raises(SingularPointError):
        unit_grad_gamma_rho(SpaceParams(1, 1, 0.0), Point([0.0], [0.0]))


def test_dilate_values_and_homogeneity():
    s1 = SpaceParams(1, 1, 1.0)
    d = dilate(s1, Point([1.0], [1.0]), 2.0)
    np.testing.assert_allclose(d.x, [2.0])
    np.testing.assert_allclose(d.y, [4.0])
    ident = dilate(s1, Point([0.7], [-0.2]), 1.0)
    np.testing.assert_allclose(ident.x, [0.7])
    np.testing.assert_allclose(ident.y, [-0.2])
    with pytest.raises(ValueError):
        dilate(s1, Point([1.0], [1.0]), 0.0)

    rng = np.random.default_rng(15)
    for space in SPACES:
        for _ in range(34):
            z = Point(rng.normal(size=space.m), rng.normal(size=space.k))
            lam = float(rng.uniform(0.1, 10.0))
            assert rho(space, dilate(space, z, lam)) == pytest.approx(lam * rho(space, z), rel=1e-12)


def test_div_closed_form_values():
    s1 = SpaceParams(1, 1, 1.0)
    assert div_weighted_rho_closed_form(s1, Point([1.0], [0.0]), 1.0, -1.0) == pytest.approx(2.0, rel=1e-14)
    # Euclidean div(z/|z|) = (n-1)/|z|
    s0 = SpaceParams(1, 1, 0.0)
    assert div_weighted_rho_closed_form(s0, Point([3.0], [4.0]), 0.0, 0.0) == pytest.approx(0.2, rel=1e-14)
    with pytest.raises(SingularPointError):
        div_weighted_rho_closed_form(s1, Point([0.0], [0.0]), 0.0, 0.0)
    with pytest.raises(SingularPointError):
        div_weighted_rho_closed_form(s1, Point([0.0], [0.5]), 0.0, -3.0)


def weighted_rho_field(space, c, s):
    def field(z):
        return rho(space, z) ** c * float(np.linalg.norm(z.x)) ** s * grad_gamma_rho(space, z)

    return field


def test_fd_divergence_simple_fields():
    s1 = SpaceParams(1, 1, 1.0)
    z = Point([1.0], [0.0])
    approx = fd_divergence(s1, weighted_rho_field(s1, 1.0, -1.0), z, 1e-4)
    assert approx == pytest.approx(2.0, rel=1e-6)

    s0 = SpaceParams(2, 1, 0.0)
    const = lambda z: np.array([0.3, -1.2, 0.7])
    assert fd_divergence(s0, const, Point([1.0, 0.5], [0.25]), 1e-4) == pytest.approx(0.0, abs=1e-10)

    linear = lambda z: np.array([z.x[0], z.x[1], 0.0])
    assert fd_divergence(s0, linear, Point([1.0, 0.5], [0.25]), 1e-4) == pytest.approx(2.0, abs=1e-8)


def test_fd_divergence_step_rejection():
    s1 = SpaceParams(1, 1, 1.0)
    field = weighted_rho_field(s1, 1.0, -1.0)
    with pytest.raises(ValueError):
        fd_divergence(s1, field, Point([0.1], [1.0]), 0.06)
    with pytest.raises(ValueError):
        fd_divergence(s1, field, Point([1.0], [0.0]), 0.0)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"m{s.m}k{s.k}g{s.gamma}")
@pytest.mark.parametrize("cs", CS_PAIRS, ids=lambda cs: f"c{cs[0]}s{cs[1]}")
def test_divergence_closed_form_matches_fd(space, cs):
    c, s = cs
    rng = np.random.default_rng(20240)
    field = weighted_rho_field(space, c, s)
    for z in sample_points(space, rng, 100):
        closed = div_weighted_rho_closed_form(space, z, c, s)
        zabs = float(np.sqrt(z.x @ z.x + z.y @ z.y))
        approx = fd_divergence(space, field, z, 1e-4 * max(1.0, zabs))
        assert approx == pytest.approx(closed, rel=1e-6)
