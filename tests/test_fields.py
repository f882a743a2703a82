"""Test fields: spec validation, exact gradients, support, extremals."""

import numpy as np
import pytest

from grushin_hardy.geometry import SpaceParams, radial_coords
from grushin_hardy.fields import (
    ExtremalField,
    TestFieldSpec,
    build_extremal_field,
    build_test_field,
    radial_derivative_batch,
    smoothstep5,
    smoothstep5_prime,
)
from grushin_hardy.weights import make_pair

from oracles import (
    FieldValue,
    Point,
    SingularPointError,
    dilate,
    field_eval,
    grad_gamma,
    radial_derivative,
)

SP = SpaceParams(1, 1, 1.0)

PAIR_CASES = [
    ("dambrosio_power", {"alpha": 0.0, "beta": 0.0}),
    ("darca_power", {"alpha": 1.0, "theta": 0.5, "R": 1e30}),
    ("nch_ball", {"R": 1.0}),
    ("log_ball", {"alpha": -3.0, "R": 4.0}),
]


def sample_in_support(space, rng, count, rho_lo, rho_hi, x_min=0.0):
    box = max(rho_hi, rho_hi ** (1.0 + space.gamma) / (1.0 + space.gamma))
    pts = np.empty((0, space.n))
    while pts.shape[0] < count:
        cand = rng.uniform(-box, box, size=(8 * count, space.n))
        r, rho = radial_coords(space, cand[:, : space.m], cand[:, space.m :])
        cand = cand[(rho >= rho_lo) & (rho <= rho_hi) & (r > x_min)]
        pts = np.vstack([pts, cand])
    return pts[:count]


def fd_gradient(f, pt, h=1e-5):
    out = np.zeros(pt.size, dtype=complex)
    for i in range(pt.size):
        e = np.zeros(pt.size)
        e[i] = 1.0

        def diff(hh):
            vp = f.eval_batch((pt + hh * e)[None, :])[0][0]
            vm = f.eval_batch((pt - hh * e)[None, :])[0][0]
            return (vp - vm) / (2.0 * hh)

        out[i] = (4.0 * diff(h / 2.0) - diff(h)) / 3.0
    return out


def test_smoothstep_properties():
    assert smoothstep5(np.array([-1.0, 0.0, 0.5, 1.0, 2.0])) == pytest.approx([0, 0, 0.5, 1, 1])
    u = np.linspace(-0.5, 1.5, 101)
    fd = (smoothstep5(u + 1e-6) - smoothstep5(u - 1e-6)) / 2e-6
    assert np.abs(fd - smoothstep5_prime(u)).max() < 1e-8


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown family"):
        TestFieldSpec(family="mystery")
    with pytest.raises(ValueError, match="inner_rho < outer_rho"):
        TestFieldSpec(family="bump_radial", inner_rho=2.0, outer_rho=1.0)
    with pytest.raises(ValueError, match="outer_rho < R"):
        TestFieldSpec(family="bump_radial", outer_rho=5.0, R=4.0)
    with pytest.raises(ValueError, match="smoothness_margin"):
        TestFieldSpec(family="bump_radial", smoothness_margin=0.5)
    with pytest.raises(ValueError, match="x_floor"):
        TestFieldSpec(family="phase_twisted", x_floor=-1.0)
    # |x| <= rho, so a floor at or beyond outer_rho leaves an empty support
    with pytest.raises(ValueError, match="x_floor < outer_rho"):
        TestFieldSpec(family="bump_radial_x_cutoff", x_floor=2.0)
    with pytest.raises(ValueError, match="bump_radial_x_cutoff"):
        TestFieldSpec(family="bump_radial", x_floor=0.5)
    with pytest.raises(ValueError, match="requires x_floor > 0"):
        TestFieldSpec(family="bump_radial_x_cutoff", x_floor=0.0)
    with pytest.raises(ValueError, match="build_extremal_field"):
        build_test_field(SP, TestFieldSpec(family="extremal_truncated"))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite phase_kappa"):
            TestFieldSpec(family="phase_twisted", phase_kappa=bad)
        with pytest.raises(ValueError, match="finite extremal_exponent"):
            TestFieldSpec(family="bump_radial", extremal_exponent=bad)


def test_plateau_and_support_values():
    f = build_test_field(SP, TestFieldSpec(family="bump_radial"))
    mid = Point(np.array([1.2]), np.array([0.1]))
    fv = field_eval(f, mid)
    assert fv.value == 1.0 + 0.0j
    assert np.all(fv.euclid_grad == 0.0)

    # rho exactly at the outer edge and beyond: exact zeros
    for x in (2.0, 2.5, 0.49, 0.2):
        fv = field_eval(f, Point(np.array([x]), np.array([0.0])))
        assert fv.value == 0.0 + 0.0j
        assert np.all(fv.euclid_grad == 0.0)

    ph = build_test_field(SP, TestFieldSpec(family="phase_twisted", phase_kappa=2.0))
    assert abs(field_eval(ph, mid).value) == pytest.approx(1.0, rel=1e-14)

    cut = build_test_field(SP, TestFieldSpec(family="bump_radial_x_cutoff", x_floor=0.25))
    below = Point(np.array([0.2]), np.array([0.5]))
    fv = field_eval(cut, below)
    assert fv.value == 0.0 + 0.0j and np.all(fv.euclid_grad == 0.0)


FD_FIELDS = [
    ("bump_radial", lambda: build_test_field(SP, TestFieldSpec(family="bump_radial")), 0.55, 1.95, 0.0),
    (
        "bump_radial_x_cutoff",
        lambda: build_test_field(SP, TestFieldSpec(family="bump_radial_x_cutoff", x_floor=0.125)),
        0.55,
        1.95,
        0.13,
    ),
    (
        "phase_twisted",
        lambda: build_test_field(SP, TestFieldSpec(family="phase_twisted", phase_kappa=1.0, x_floor=0.125)),
        0.55,
        1.95,
        0.13,
    ),
    (
        "extremal_power",
        lambda: build_extremal_field(make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})),
        0.6,
        2.5,
        0.0,
    ),
    (
        "extremal_nch",
        lambda: build_extremal_field(make_pair("nch_ball", SP, 2.0, {"R": 1.0})),
        0.45,
        0.9,
        0.0,
    ),
    (
        "extremal_log",
        lambda: build_extremal_field(make_pair("log_ball", SP, 2.0, {"alpha": -3.0, "R": 4.0})),
        1.6,
        3.5,
        0.0,
    ),
]


@pytest.mark.parametrize("name,maker,lo,hi,x_min", FD_FIELDS, ids=[c[0] for c in FD_FIELDS])
def test_exact_gradients_vs_finite_differences(name, maker, lo, hi, x_min):
    f = maker()
    rng = np.random.default_rng(29)
    pts = sample_in_support(SP, rng, 50, lo, hi, x_min)
    _, grads = f.eval_batch(pts)
    for i, pt in enumerate(pts):
        assert np.abs(grads[i] - fd_gradient(f, pt)).max() < 1e-6


def test_grad_gamma_examples():
    flat = SpaceParams(1, 1, 0.0)
    fv = FieldValue(value=1.0, euclid_grad=np.array([0.5, -2.0 + 1j]))
    z = Point(np.array([0.7]), np.array([0.3]))
    assert np.allclose(grad_gamma(flat, fv, z), fv.euclid_grad)

    z0 = Point(np.array([0.0]), np.array([0.3]))
    gg = grad_gamma(SP, fv, z0)
    assert gg[1] == 0.0 and gg[0] == 0.5

    z2 = Point(np.array([2.0]), np.array([0.0]))
    fv2 = FieldValue(value=0.0, euclid_grad=np.array([0.0, 1.0 + 1j]))
    assert np.allclose(grad_gamma(SP, fv2, z2), [0.0, 2.0 + 2.0j])

    with pytest.raises(ValueError, match="length"):
        grad_gamma(SP, FieldValue(value=0.0, euclid_grad=np.zeros(3)), z2)


def test_radial_derivative_on_extremal_plateau():
    h = build_extremal_field(make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0}))
    kap = h.spec.extremal_exponent
    rng = np.random.default_rng(31)
    rho_lo = float(h.rho_of_tau(h.band * 1.05))
    rho_hi = float(h.rho_of_tau(h.tau_hi - h.band * 1.05))
    pts = sample_in_support(SP, rng, 20, rho_lo, rho_hi, x_min=1e-6)
    for pt in pts:
        z = Point(pt[:1], pt[1:])
        r, rho = radial_coords(SP, z.x, z.y)
        expected = kap * rho ** (kap - 1.0) * (r / rho) ** SP.gamma
        assert radial_derivative(SP, h, z) == pytest.approx(expected, rel=1e-12)

    bump = build_test_field(SP, TestFieldSpec(family="bump_radial"))
    assert radial_derivative(SP, bump, Point(np.array([1.2]), np.array([0.1]))) == 0.0
    with pytest.raises(SingularPointError):
        radial_derivative(SP, bump, Point(np.array([0.0]), np.array([0.5])))


def test_radial_derivative_cauchy_schwarz_and_batch():
    f = build_test_field(SP, TestFieldSpec(family="phase_twisted", phase_kappa=1.0))
    rng = np.random.default_rng(37)
    pts = sample_in_support(SP, rng, 200, 0.55, 1.95, x_min=1e-9)
    vals, grads = f.eval_batch(pts)
    df = radial_derivative_batch(SP, pts, grads)
    gg = [
        grad_gamma(SP, FieldValue(v, g), Point(pt[:1], pt[1:]))
        for v, g, pt in zip(vals, grads, pts)
    ]
    assert np.all(np.abs(df) <= np.linalg.norm(gg, axis=1) * (1.0 + 1e-12))
    for i in (0, 7, 42):
        z = Point(pts[i, :1], pts[i, 1:])
        assert radial_derivative(SP, f, z) == pytest.approx(df[i], rel=1e-12)


def test_dilation_covariance():
    lam = 1.7
    spec = TestFieldSpec(family="phase_twisted", phase_kappa=1.3, x_floor=0.125)
    f = build_test_field(SP, spec)
    g = build_test_field(
        SP,
        TestFieldSpec(
            family="phase_twisted",
            inner_rho=spec.inner_rho / lam,
            outer_rho=spec.outer_rho / lam,
            x_floor=spec.x_floor / lam,
            smoothness_margin=spec.smoothness_margin,
            phase_kappa=spec.phase_kappa * lam,
        ),
    )
    rng = np.random.default_rng(41)
    pts = sample_in_support(SP, rng, 40, 0.55 / lam, 1.95 / lam, x_min=0.13 / lam)
    for pt in pts:
        z = Point(pt[:1], pt[1:])
        zl = dilate(SP, z, lam)
        gval = field_eval(g, z)
        fval = field_eval(f, zl)
        assert gval.value == pytest.approx(fval.value, rel=1e-10)
        assert radial_derivative(SP, g, z) == pytest.approx(
            lam * radial_derivative(SP, f, zl), rel=1e-10
        )


@pytest.mark.parametrize("pair_id,params", PAIR_CASES, ids=[c[0] for c in PAIR_CASES])
@pytest.mark.parametrize("ascending", [False, True])
def test_extremal_plateau_holder_equality(pair_id, params, ascending):
    p = 2.0
    pair = make_pair(pair_id, SP, p, params)
    h = build_extremal_field(pair, truncation_level=0, ascending=ascending)
    rng = np.random.default_rng(43)
    rho_lo = float(h.rho_of_tau(h.band * 1.1))
    rho_hi = float(h.rho_of_tau(h.tau_hi - h.band * 1.1))
    pts = sample_in_support(SP, rng, 25, rho_lo, rho_hi, x_min=1e-6)
    vals, grads = h.eval_batch(pts)
    df = radial_derivative_batch(SP, pts, grads)
    v = pair.v_batch(pts)
    w = pair.w_batch(pts)
    lhs = v * np.abs(df) ** p
    rhs = w * np.abs(vals) ** p
    assert np.all(np.abs(lhs - rhs) <= 1e-10 * rhs)


def test_extremal_ascending_profile_matches_corollary_power():
    pair = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.5, "beta": 0.25})
    h = build_extremal_field(pair, ascending=True)
    expo = (SP.Q + 0.25 - 0.5) / 2.0
    assert h.spec.extremal_exponent == pytest.approx(expo, rel=1e-15)
    rho_mid = float(h.rho_of_tau(0.5 * h.tau_hi))
    z = np.array([[rho_mid, 0.0]])
    vals, _ = h.eval_batch(z)
    assert vals[0].real == pytest.approx(rho_mid**expo, rel=1e-12)

    down = build_extremal_field(pair, ascending=False)
    assert down.spec.extremal_exponent == pytest.approx(-expo, rel=1e-15)


def test_extremal_truncation_schedule():
    pair = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    fields = [build_extremal_field(pair, truncation_level=l) for l in (0, 1, 2)]
    bands = [h.band for h in fields]
    plateaus = [h.plateau for h in fields]
    assert bands[0] == bands[1] == bands[2]
    assert plateaus[1] == pytest.approx(2.0 * plateaus[0], rel=1e-15)
    assert plateaus[2] == pytest.approx(2.0 * plateaus[1], rel=1e-15)
    margins = [h.spec.smoothness_margin for h in fields]
    assert margins[0] > margins[1] > margins[2]
    # 2.0 ** (level - 2) overflows from level 1026, and inf is no integer level
    for bad in (-1, 2000, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="truncation_level"):
            build_extremal_field(pair, truncation_level=bad)


@pytest.mark.parametrize("pair_id,params", PAIR_CASES, ids=[c[0] for c in PAIR_CASES])
def test_extremal_tau_roundtrip_and_weight(pair_id, params):
    h = build_extremal_field(make_pair(pair_id, SP, 2.0, params), truncation_level=1)
    # beyond tau ~ 15 the ball pairs push rho within one ulp of R, which is
    # exactly why the sharpness probe works in tau; test the representable range
    tau = np.linspace(0.05, min(h.tau_hi - 0.05, 12.0), 40)
    rho = h.rho_of_tau(tau)
    assert np.allclose(h.tau_of_rho(rho), tau, atol=1e-9)
    assert isinstance(h, ExtremalField)
    w = h.probe_weight(tau)
    assert np.all(w > 0)
    if pair_id in ("dambrosio_power", "darca_power"):
        assert np.all(w == 1.0)


def test_eval_point_shape_guard():
    f = build_test_field(SP, TestFieldSpec(family="bump_radial"))
    with pytest.raises(ValueError, match="space"):
        field_eval(f, Point(np.array([1.0, 2.0]), np.array([0.1])))
    with pytest.raises(ValueError, match="shape"):
        f.eval_batch(np.zeros((4, 3)))
