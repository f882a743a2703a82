"""Geometry closed forms, dilation homogeneity, divergence cross-check."""

import numpy as np
import pytest

from grushin_hardy.geometry import (
    SpaceParams,
    div_weighted_rho_closed_form,
    fd_divergence,
    grad_gamma_rho,
    radial_coords,
    unit_grad_gamma_rho,
)

from oracles import Point, dilate, rho

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
    # m < 1 is False for NaN, so each dimension must be an integer
    for m, k in ((1.5, 1), (float("nan"), 1), (1, float("inf")), (1.0, 1)):
        with pytest.raises(ValueError, match="m must|k must"):
            SpaceParams(m, k, 1.0)
    assert SpaceParams(np.int64(2), 1, 1.0).n == 3


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


def rows(*points):
    """(N, m+k) batch from (x, y) pairs."""
    return np.array([np.concatenate([x, y]) for x, y in points], dtype=float)


def as_batch(points):
    return rows(*((z.x, z.y) for z in points))


def test_grad_gamma_rho_values():
    s1 = SpaceParams(1, 1, 1.0)
    np.testing.assert_allclose(grad_gamma_rho(s1, rows(([1.0], [0.0]))), [[1.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(
        grad_gamma_rho(SpaceParams(1, 1, 0.0), rows(([3.0], [4.0]))), [[0.6, 0.8]], rtol=1e-15
    )
    np.testing.assert_allclose(grad_gamma_rho(s1, rows(([0.0], [0.5]))), [[0.0, 0.0]], atol=0)
    # the origin is singular: its row is nan, the other rows are unaffected
    g = grad_gamma_rho(s1, rows(([0.0], [0.0]), ([1.0], [0.0])))
    assert np.all(np.isnan(g[0]))
    np.testing.assert_allclose(g[1], [1.0, 0.0], atol=1e-15)
    with pytest.raises(ValueError, match="shape"):
        grad_gamma_rho(s1, np.zeros((2, 3)))


def test_norm_grad_gamma_rho_values_and_bound():
    # |grad_gamma rho| = (|x|/rho)^gamma, which lies in [0, 1] since |x| <= rho
    def norm(space, batch):
        return np.linalg.norm(grad_gamma_rho(space, batch), axis=1)

    assert norm(SpaceParams(1, 1, 1.0), rows(([1.0], [0.0])))[0] == 1.0
    assert norm(SpaceParams(1, 1, 0.0), rows(([-0.3], [2.0])))[0] == pytest.approx(1.0, rel=1e-15)
    assert norm(SpaceParams(1, 1, 2.0), rows(([0.5], [0.0])))[0] == pytest.approx(1.0, rel=1e-15)
    rng = np.random.default_rng(13)
    for space in SPACES:
        batch = as_batch(sample_points(space, rng, 30, x_min=0.0))
        r, rho_v = radial_coords(space, batch[:, : space.m], batch[:, space.m :])
        nv = norm(space, batch)
        assert np.all((0.0 <= nv) & (nv <= 1.0 + 1e-15))
        np.testing.assert_allclose(nv, (r / rho_v) ** space.gamma, rtol=0, atol=1e-14)


def test_unit_grad_gamma_rho_is_unit():
    rng = np.random.default_rng(14)
    for space in SPACES:
        batch = as_batch(sample_points(space, rng, 20))
        u = unit_grad_gamma_rho(space, batch)
        g = grad_gamma_rho(space, batch)
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(u * np.linalg.norm(g, axis=1)[:, None], g, rtol=1e-12, atol=1e-15)
    # on {x = 0} for gamma > 0 the continuous extension (0, y/|y|)
    s1 = SpaceParams(1, 1, 1.0)
    np.testing.assert_allclose(unit_grad_gamma_rho(s1, rows(([0.0], [0.5]))), [[0.0, 1.0]], rtol=1e-15)
    assert np.all(np.isnan(unit_grad_gamma_rho(SpaceParams(1, 1, 0.0), rows(([0.0], [0.0])))))


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
    assert div_weighted_rho_closed_form(s1, rows(([1.0], [0.0])), 1.0, -1.0)[0] == pytest.approx(
        2.0, rel=1e-14
    )
    # Euclidean div(z/|z|) = (n-1)/|z|
    s0 = SpaceParams(1, 1, 0.0)
    assert div_weighted_rho_closed_form(s0, rows(([3.0], [4.0])), 0.0, 0.0)[0] == pytest.approx(
        0.2, rel=1e-14
    )
    # singular at the origin, and on {x = 0} when s < -2 gamma
    assert np.isnan(div_weighted_rho_closed_form(s1, rows(([0.0], [0.0])), 0.0, 0.0)[0])
    assert np.isinf(div_weighted_rho_closed_form(s1, rows(([0.0], [0.5])), 0.0, -3.0)[0])


def weighted_rho_field(space, c, s):
    """Point-wise rho^c |x|^s grad_gamma rho, evaluated row by row as an oracle."""

    def field(batch):
        out = []
        for row in batch:
            z = Point(row[: space.m], row[space.m :])
            r = float(np.linalg.norm(z.x))
            out.append(rho(space, z) ** c * r**s * grad_gamma_rho(space, row[None, :])[0])
        return np.array(out)

    return field


def test_fd_divergence_simple_fields():
    s1 = SpaceParams(1, 1, 1.0)
    approx = fd_divergence(s1, weighted_rho_field(s1, 1.0, -1.0), rows(([1.0], [0.0])), 1e-4)
    assert approx[0] == pytest.approx(2.0, rel=1e-6)

    s0 = SpaceParams(2, 1, 0.0)
    batch = rows(([1.0, 0.5], [0.25]), ([-0.4, 1.1], [0.9]))
    const = lambda pts: np.tile([0.3, -1.2, 0.7], (len(pts), 1))
    np.testing.assert_allclose(fd_divergence(s0, const, batch, 1e-4), 0.0, atol=1e-10)

    linear = lambda pts: np.column_stack([pts[:, 0], pts[:, 1], np.zeros(len(pts))])
    np.testing.assert_allclose(fd_divergence(s0, linear, batch, [1e-4, 2e-4]), 2.0, atol=1e-8)


def test_fd_divergence_step_rejection():
    s1 = SpaceParams(1, 1, 1.0)
    field = weighted_rho_field(s1, 1.0, -1.0)
    # one row too close to {x = 0} rejects the whole batch
    with pytest.raises(ValueError, match="singular set"):
        fd_divergence(s1, field, rows(([1.0], [0.0]), ([0.1], [1.0])), [1e-4, 0.06])
    with pytest.raises(ValueError, match="step must be > 0"):
        fd_divergence(s1, field, rows(([1.0], [0.0]), ([2.0], [0.0])), [1e-4, 0.0])
    with pytest.raises(ValueError, match="step must be > 0"):
        fd_divergence(s1, field, rows(([1.0], [0.0])), np.nan)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"m{s.m}k{s.k}g{s.gamma}")
@pytest.mark.parametrize("cs", CS_PAIRS, ids=lambda cs: f"c{cs[0]}s{cs[1]}")
def test_divergence_closed_form_matches_fd(space, cs):
    c, s = cs
    rng = np.random.default_rng(20240)
    batch = as_batch(sample_points(space, rng, 100))
    closed = div_weighted_rho_closed_form(space, batch, c, s)
    step = 1e-4 * np.maximum(1.0, np.linalg.norm(batch, axis=1))
    approx = fd_divergence(space, weighted_rho_field(space, c, s), batch, step)
    np.testing.assert_allclose(approx, closed, rtol=1e-6)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: f"m{s.m}k{s.k}g{s.gamma}")
def test_fd_divergence_of_stacked_fields_is_each_fields_divergence(space):
    # an (M, F, m+k) field gives the (F, N) divergences of its F fields,
    # each bit for bit what that field alone gives; both Richardson steps
    # take one field call
    rng = np.random.default_rng(20241)
    batch = as_batch(sample_points(space, rng, 30))
    step = 1e-4 * np.maximum(1.0, np.linalg.norm(batch, axis=1))
    fields = [weighted_rho_field(space, c, s) for c, s in CS_PAIRS]
    calls = []

    def stacked_field(pts):
        calls.append(len(pts))
        return np.stack([f(pts) for f in fields], axis=1)

    stacked = fd_divergence(space, stacked_field, batch, step)
    assert calls == [4 * space.n * len(batch)]
    assert stacked.shape == (len(fields), len(batch))
    for f, row in zip(fields, stacked):
        assert np.array_equal(fd_divergence(space, f, batch, step), row)
