"""Verifier operations: identity, remainders, sharpness, CKN, HPW."""

import json
import math
import pathlib

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn

from grushin_hardy.cp import ConstantEstimate
from grushin_hardy.cubature import IntegrationSettings, Region, integrate_vector
from grushin_hardy.fields import (
    TestField,
    TestFieldSpec,
    build_extremal_field,
    build_test_field,
    radial_derivative_batch,
)
from grushin_hardy.geometry import SpaceParams, radial_coords
from grushin_hardy.verifier import (
    CknParams,
    sharpness_probe,
    verify_ckn,
    verify_hpw,
    verify_identity,
    verify_identity_sweep,
    verify_inequality,
    verify_remainder_p_ge2,
    verify_remainder_p_lt2,
)
from grushin_hardy import verifier
from grushin_hardy.weights import make_pair

SP = SpaceParams(1, 1, 1.0)
GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "constants.json").read_text())


def annulus_field(space, **kwargs):
    xf = kwargs.pop("x_floor", 0.25 * 0.5)
    family = "bump_radial_x_cutoff" if xf > 0 else "bump_radial"
    spec = TestFieldSpec(family=family, inner_rho=0.5, outer_rho=2.0, x_floor=xf, **kwargs)
    return build_test_field(space, spec)


class _ZeroField(TestField):
    def eval_radial(self, r, rho):
        zero = np.zeros_like(rho)
        return zero, zero, zero


class _RotatedField(TestField):
    """Base field times a fixed unimodular constant."""

    def __init__(self, base: TestField, phase: complex):
        super().__init__(base.space, base.spec)
        self._base = base
        self._phase = phase

    def eval_radial(self, r, rho):
        return tuple(part * self._phase for part in self._base.eval_radial(r, rho))


def golden_estimate(kind, p, half_width=2e-3):
    for e in GOLDEN["entries"]:
        if e["kind"] == kind and e["p"] == p:
            v = e["value"]
            return ConstantEstimate(
                value=v,
                argmin_s=e["arg_s"],
                argmin_t=e["arg_t"],
                refined=False,
                bracket=(v - half_width, v + half_width),
            )
    raise KeyError((kind, p))


# -- identity ---------------------------------------------------------------


def test_identity_dambrosio_p2():
    pair = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    rep = verify_identity(pair, annulus_field(SP))
    assert rep.converged and rep.passed
    assert abs(rep.rel_residual) <= 1e-6
    assert rep.phi_term == pytest.approx(0.0, abs=1e-10)
    assert rep.lhs == pytest.approx(rep.w_term + rep.cp_term, rel=1e-6)


def test_identity_with_edge_singular_weight_converges():
    # w ~ (|x|/rho)^0.5 is singular along the whole psi = pi/2 edge; cells
    # split across that edge only, so the default budget suffices
    space = SpaceParams(1, 1, 0.0)
    pair = make_pair("dambrosio_power", space, 2.0, {"alpha": 0.0, "beta": 0.5})
    rep = verify_identity(pair, annulus_field(space, x_floor=0.0))
    assert rep.converged and rep.passed


def test_identity_nch_p3_has_positive_phi():
    pair = make_pair("nch_ball", SP, 3.0, {"R": 4.0})
    rep = verify_identity(pair, annulus_field(SP))
    assert rep.passed
    assert rep.phi_term > 0.0


def test_identity_zero_field():
    pair = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    field = _ZeroField(
        SP,
        TestFieldSpec(family="bump_radial_x_cutoff", inner_rho=0.5, outer_rho=2.0, x_floor=0.125),
    )
    rep = verify_identity(pair, field)
    assert rep.lhs == 0.0 and rep.w_term == 0.0 and rep.cp_term == 0.0
    assert rep.residual == 0.0
    assert rep.passed

    ineq = verify_inequality(pair, field)
    assert ineq.passed and ineq.margin == 0.0
    assert ineq.to_dict()["ratio"] is None


def test_identity_report_shape():
    pair = make_pair("darca_power", SP, 2.0, {"theta": 0.5, "alpha": 1.0, "R": 1e30})
    rep = verify_identity(pair, annulus_field(SP))
    d = rep.to_dict()
    assert set(d) == {
        "lhs",
        "w_term",
        "cp_term",
        "phi_term",
        "residual",
        "rel_residual",
        "quadrature_error",
        "converged",
        "passed",
    }


# -- shared-mesh sweep ------------------------------------------------------


def test_sweep_matches_single_case():
    field = annulus_field(SP)
    cases = [
        (make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0}), field),
        (make_pair("nch_ball", SP, 3.0, {"R": 4.0}), field),
    ]
    reps = verify_identity_sweep(cases)
    assert len(reps) == 2
    for (pair, f), swept in zip(cases, reps):
        single = verify_identity(pair, f)
        assert swept.passed and single.passed
        assert swept.lhs == pytest.approx(single.lhs, rel=1e-6)
        assert swept.phi_term == pytest.approx(single.phi_term, abs=1e-6)


def test_sweep_phase_twist_changes_lhs():
    pair = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    real = annulus_field(SP)
    twisted = build_test_field(
        SP,
        TestFieldSpec(
            family="phase_twisted",
            inner_rho=0.5,
            outer_rho=2.0,
            x_floor=0.125,
            phase_kappa=1.0,
        ),
    )
    reps = verify_identity_sweep([(pair, real), (pair, twisted)])
    assert all(r.passed for r in reps)
    # the twist adds kappa^2 rho^2 |f|^2 mass to the kinetic term
    assert reps[1].lhs > reps[0].lhs * 1.01


def test_sweep_over_different_supports_matches_single_cases():
    # one region, three supports: a node of the shared pieces may lie
    # outside a case's own field support and must add nothing to that case
    settings = IntegrationSettings(rel_tol=1e-6)

    def field(family, inner, **kwargs):
        spec = TestFieldSpec(family=family, inner_rho=inner, outer_rho=2.0, x_floor=0.125, **kwargs)
        return build_test_field(SP, spec)

    narrow = field("bump_radial_x_cutoff", 0.8)
    wide = field("bump_radial_x_cutoff", 0.5)
    twisted = field("phase_twisted", 0.65, phase_kappa=1.0)
    pairs = [
        make_pair("dambrosio_power", SP, 1.5, {"alpha": 0.0, "beta": 0.0}),
        make_pair("nch_ball", SP, 3.0, {"R": 4.0}),
    ]
    cases = [(pair, f) for pair in pairs for f in (narrow, wide, twisted)]
    swept = verify_identity_sweep(cases, settings)
    for (pair, f), rep in zip(cases, swept):
        single = verify_identity(pair, f, settings)
        assert rep.passed and single.passed
        allow = 10.0 * (rep.quadrature_error + single.quadrature_error)
        for key in ("lhs", "w_term", "cp_term", "phi_term"):
            assert abs(getattr(rep, key) - getattr(single, key)) <= allow, key
    # the supports differ, so the cases of one pair differ too
    assert swept[0].w_term < swept[1].w_term


def test_sweep_validation():
    field = annulus_field(SP)
    pair = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    with pytest.raises(ValueError, match="at least one case"):
        verify_identity_sweep([])

    other = SpaceParams(1, 1, 2.0)
    cases = [(pair, field), (make_pair("nch_ball", other, 2.0, {"R": 4.0}), annulus_field(other))]
    with pytest.raises(ValueError, match="share one space"):
        verify_identity_sweep(cases)

    narrow = build_test_field(
        SP,
        TestFieldSpec(family="bump_radial_x_cutoff", inner_rho=0.5, outer_rho=1.5, x_floor=0.125),
    )
    with pytest.raises(ValueError, match="share one support region"):
        verify_identity_sweep([(pair, field), (pair, narrow)])


def test_unimodular_covariance():
    pair = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    base = annulus_field(SP)
    rotated = _RotatedField(base, np.exp(1j * 0.7))
    rep0 = verify_identity(pair, base)
    rep1 = verify_identity(pair, rotated)
    assert rep1.lhs == pytest.approx(rep0.lhs, rel=1e-10)
    assert rep1.w_term == pytest.approx(rep0.w_term, rel=1e-10)
    assert rep1.cp_term == pytest.approx(rep0.cp_term, rel=1e-10)


def test_support_validation():
    pair = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    other_field = annulus_field(SpaceParams(1, 1, 0.5))
    with pytest.raises(ValueError, match="different spaces"):
        verify_identity(pair, other_field)

    tight_ball = make_pair("nch_ball", SP, 2.0, {"R": 2.0})
    with pytest.raises(ValueError, match="outer_rho <= 0.9 R"):
        verify_identity(tight_ball, annulus_field(SP))

    no_floor = build_test_field(
        SP, TestFieldSpec(family="bump_radial", inner_rho=0.5, outer_rho=2.0)
    )
    with pytest.raises(ValueError, match="x_floor > 0"):
        verify_identity(pair, no_floor)


# -- Grushin-polar pieces ---------------------------------------------------


def _sphere_area(d):
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _radial_oracle(space, profile, lo, hi, beta, points=()):
    """Exact integral of V(rho) (|x|/rho)^beta over R^m x R^k as a 1-D integral:
    |S^(m-1)||S^(k-1)| a^(-k) B((m+beta)/(2a), k/2)/2 * int V rho^(Q-1) drho."""
    a = 1.0 + space.gamma
    angular = beta_fn((space.m + beta) / (2.0 * a), space.k / 2.0) / 2.0
    radial, _ = quad(
        lambda rho: profile(rho) * rho ** (space.Q - 1.0),
        lo,
        hi,
        points=points,
        epsabs=0.0,
        epsrel=1e-13,
        limit=500,
    )
    return _sphere_area(space.m) * _sphere_area(space.k) * a**-space.k * angular * radial


ORACLE_SPACES = (SpaceParams(2, 1, 0.0), SpaceParams(1, 2, 1.5), SpaceParams(1, 1, 3.0))


@pytest.mark.parametrize("space", ORACLE_SPACES, ids=str)
def test_polar_terms_match_beta_function_oracle(space):
    # x_floor = 0: psi runs up to the y axis, where the graded map keeps the
    # Jacobian bounded; beta = 0.5 leaves (|x|/rho)^beta singular along that
    # whole edge, so the cells must split across it only
    field = build_test_field(
        space, TestFieldSpec(family="bump_radial", inner_rho=0.5, outer_rho=2.0)
    )
    betas = (0.0, 0.5, 1.0, 2.0)

    def terms(b, _pair, f):
        r, rho = b.coords
        mass = b.power("vals", f, 2.0)
        return [mass * (r / rho) ** beta for beta in betas]

    settings = IntegrationSettings(rel_tol=1e-12, abs_tol=1e-300)
    (res,) = verifier._integrate_cases([(None, field, len(betas), terms)], settings)

    def amplitude_sq(rho):
        pt = np.zeros((1, space.n))
        pt[0, 0] = rho
        return abs(field.eval_batch(pt)[0][0]) ** 2

    for beta, r in zip(betas, res):
        exact = _radial_oracle(space, amplitude_sq, 0.5, 2.0, beta, field.rho_breaks()[1:3])
        assert r.converged
        assert abs(r.value - exact) <= 1e-11 * exact, (beta, r.value, exact)


@pytest.mark.parametrize("x_floor", (0.0, 0.125, 0.3))
def test_polar_pieces_put_cutoff_kinks_on_edges(x_floor):
    space = SpaceParams(2, 1, 1.0)
    family = "bump_radial_x_cutoff" if x_floor else "bump_radial"
    field = build_test_field(space, TestFieldSpec(family=family, inner_rho=0.5, x_floor=x_floor))
    region, lift = verifier._polar_pieces([field])
    n_pieces = int(region.box[0][1])
    rng = np.random.default_rng(3)
    for i in range(n_pieces):
        nodes = np.column_stack([i + rng.uniform(0.0, 1.0, 400), rng.uniform(0.0, 1.0, 400)])
        (r, s, rho), jac = lift(nodes)
        # (r, s, rho) are the |x|, |y| and rho of the point (r e_1, s e_(m+1))
        pts = np.zeros((nodes.shape[0], space.n))
        pts[:, 0], pts[:, space.m] = r, s
        np.testing.assert_allclose(
            radial_coords(space, pts[:, : space.m], pts[:, space.m :]), (r, rho), rtol=1e-14
        )
        assert np.all(jac > 0.0)
        assert np.all((rho >= 0.5 - 1e-12) & (rho <= 2.0 + 1e-12))
        # |x| < x_floor is never sampled, and no piece straddles |x| = 2 x_floor
        assert np.all(r >= x_floor * (1.0 - 1e-12))
        if x_floor:
            assert np.all(r >= 2.0 * x_floor * (1 - 1e-12)) or np.all(
                r <= 2.0 * x_floor * (1 + 1e-12)
            )
    if x_floor == 0.0:
        # the Jacobian alone integrates to the volume of the shell
        (vol,) = integrate_vector(
            lambda n: lift(n)[1][None, :], 1, region, IntegrationSettings(rel_tol=1e-12)
        )
        exact = _radial_oracle(space, lambda rho: 1.0, 0.5, 2.0, 0.0)
        assert abs(vol.value - exact) <= 1e-11 * exact


def _kernel_fields(space):
    """One field of every family: a radial bump, an x-cutoff bump, a
    phase-twisted x-cutoff field and an extremal field."""

    def bump(family, **kwargs):
        return build_test_field(space, TestFieldSpec(family=family, inner_rho=0.5, **kwargs))

    return [
        bump("bump_radial"),
        bump("bump_radial_x_cutoff", x_floor=0.3),
        bump("phase_twisted", x_floor=0.3, phase_kappa=1.3),
        build_extremal_field(make_pair("nch_ball", space, 2.0, {"R": 4.0}), truncation_level=1),
    ]


@pytest.mark.parametrize(
    "space", (SpaceParams(1, 1, 1.0), SpaceParams(2, 1, 0.0), SpaceParams(2, 2, 1.0)), ids=str
)
def test_radial_kernel_matches_the_nd_path(space):
    # random points of R^m x R^k, some outside each support, against
    # eval_batch's Euclidean gradients: D f from radial_derivative_batch and
    # |grad f|^2 as the squared norm
    rng = np.random.default_rng(113)
    n, a = 2000, 1.0 + space.gamma
    rho = rng.uniform(0.2, 4.2, n)
    psi = rng.uniform(0.0, np.pi / 2.0, n)
    r, s = rho * np.cos(psi) ** (1.0 / a), rho**a * np.sin(psi) / a

    def directions(d):
        u = rng.normal(size=(n, d))
        return u / np.linalg.norm(u, axis=1)[:, None]

    pts = np.hstack([r[:, None] * directions(space.m), s[:, None] * directions(space.k)])
    r, rho = radial_coords(space, pts[:, : space.m], pts[:, space.m :])
    fields = _kernel_fields(space)
    b = verifier._Batch(space, pts, (r, s, rho), fields)
    for slot, field in enumerate(fields):
        vals, grads = field.eval_batch(pts)
        want = (
            vals,
            radial_derivative_batch(space, pts, grads),
            (np.abs(grads) ** 2).sum(axis=1),
        )
        got = (b.vals[slot], b.df[slot], b.grad_sq(slot))
        for g, w in zip(got, want):
            assert np.any(w != 0.0) and np.any(w == 0.0)
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-13 * np.abs(w).max())


def test_sweep_terms_vanish_exactly_outside_a_fields_support(monkeypatch):
    # the pieces cover the union of the supports; at a node below a field's
    # inner_rho its case's terms are exact zeros, and every weight is finite
    def field(family, inner, **kwargs):
        spec = TestFieldSpec(family=family, inner_rho=inner, outer_rho=2.0, x_floor=0.125, **kwargs)
        return build_test_field(SP, spec)

    fields = [
        field("bump_radial_x_cutoff", 0.8),
        field("bump_radial_x_cutoff", 0.5),
        field("phase_twisted", 0.65, phase_kappa=1.0),
    ]
    pairs = [
        make_pair("dambrosio_power", SP, 1.5, {"alpha": 0.0, "beta": 0.0}),
        make_pair("nch_ball", SP, 3.0, {"R": 4.0}),
    ]
    cases = [(pair, f) for pair in pairs for f in fields]
    region, lift = verifier._polar_pieces(fields)
    rng = np.random.default_rng(127)
    nodes = np.column_stack(
        [rng.uniform(0.0, region.box[0][1], 5000), rng.uniform(0.0, 1.0, 5000)]
    )
    (_, _, rho), _ = lift(nodes)
    seen = {}

    def capture(integrand, n_comp, region, settings):
        seen["out"] = integrand(nodes)
        return [None] * n_comp

    monkeypatch.setattr(verifier, "integrate_vector", capture)
    verifier._integrate_cases([(*case, 4, verifier._identity_terms) for case in cases], None)
    out = seen["out"]
    assert np.all(np.isfinite(out))
    for ci, (_, f) in enumerate(cases):
        rows = out[4 * ci : 4 * (ci + 1)]
        outside = rho < f.spec.inner_rho
        assert np.any(outside) == (f.spec.inner_rho > 0.5)
        assert np.all(rows[:, outside] == 0.0)
        # and the w term is nonzero wherever f is, strictly inside the window
        assert np.all(rows[1, (rho > f.spec.inner_rho) & (rho < 2.0)] != 0.0)


@pytest.mark.parametrize("space", (SpaceParams(1, 1, 1.0), SpaceParams(1, 1, 2.0)), ids=str)
def test_polar_identity_terms_match_cartesian_cubature(space):
    pair = make_pair("nch_ball", space, 3.0, {"R": 4.0})
    field = annulus_field(space)
    settings = IntegrationSettings(rel_tol=1e-8)
    (polar,) = verifier._integrate_cases([(pair, field, 4, verifier._identity_terms)], settings)

    def cartesian(pts):
        x, y = pts[:, : space.m], pts[:, space.m :]
        r, rho = radial_coords(space, x, y)
        inside = (rho >= 0.5) & (rho <= 2.0) & (r > field.spec.x_floor)
        coords = (r[inside], np.linalg.norm(y[inside], axis=1), rho[inside])
        out = np.zeros((4, pts.shape[0]))
        b = verifier._Batch(space, pts[inside], coords, [field])
        out[:, inside] = verifier._identity_terms(b, pair, 0)
        return out

    a = 1.0 + space.gamma
    box = ((-2.0, 2.0), (-(2.0**a) / a, 2.0**a / a))  # around the support rho <= 2
    cart = integrate_vector(cartesian, 4, Region(box=box), settings)
    for p_res, c_res in zip(polar, cart):
        assert p_res.converged and c_res.converged
        assert abs(p_res.value - c_res.value) <= p_res.error_estimate + c_res.error_estimate


@pytest.mark.parametrize("space", (SpaceParams(2, 2, 1.0), SpaceParams(3, 2, 1.0)), ids=str)
def test_identity_in_four_and_five_dimensions(space):
    # every term is 2-D in (rho, psi), whatever m + k is
    pair = make_pair("dambrosio_power", space, 2.0, {"alpha": 0.0, "beta": 0.0})
    rep = verify_identity(pair, annulus_field(space), IntegrationSettings(max_evals=3_000_000))
    assert rep.converged and rep.passed


# -- inequality -------------------------------------------------------------


def test_inequality_nch():
    pair = make_pair("nch_ball", SP, 2.0, {"R": 4.0})
    rep = verify_inequality(pair, annulus_field(SP))
    assert rep.passed
    assert rep.margin > 0.0
    assert rep.ratio > 1.0


# -- remainder bounds -------------------------------------------------------


def test_remainder_p2_is_equality():
    pair = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    rep = verify_remainder_p_ge2(pair, annulus_field(SP))
    assert rep.passed
    assert rep.constant == pytest.approx(1.0, abs=1e-10)
    assert rep.cp_term == pytest.approx(rep.eta_term, rel=1e-8)


def test_remainder_p3_lower_bound():
    pair = make_pair("dambrosio_power", SP, 3.0, {"alpha": 0.0, "beta": 0.0})
    rep = verify_remainder_p_ge2(pair, annulus_field(SP), constant=golden_estimate("cp_pge2", 3.0))
    assert rep.passed
    assert rep.margin > 0.0


def test_remainder_p4_darca():
    pair = make_pair("darca_power", SP, 4.0, {"theta": 0.5, "alpha": 1.0, "R": 1e30})
    rep = verify_remainder_p_ge2(pair, annulus_field(SP), constant=golden_estimate("cp_pge2", 4.0))
    assert rep.passed


def test_remainder_p_lt2_sandwich():
    pair = make_pair("dambrosio_power", SP, 1.5, {"alpha": 0.0, "beta": 0.0})
    constants = {
        "c1_inf": golden_estimate("c1_inf", 1.5),
        "c2_sup": golden_estimate("c2_sup", 1.5),
        "c3_min": golden_estimate("c3_min", 1.5),
    }
    rep = verify_remainder_p_lt2(pair, annulus_field(SP), constants=constants)
    assert rep.passed
    assert rep.lower_margin > 0.0
    assert rep.upper_margin > 0.0
    assert rep.min_margin > 0.0


def test_remainder_validation():
    nch = make_pair("nch_ball", SP, 3.0, {"R": 4.0})
    with pytest.raises(ValueError, match="phi identically 0"):
        verify_remainder_p_ge2(nch, annulus_field(SP))
    low = make_pair("dambrosio_power", SP, 1.5, {"alpha": 0.0, "beta": 0.0})
    with pytest.raises(ValueError, match="needs p >= 2"):
        verify_remainder_p_ge2(low, annulus_field(SP))
    high = make_pair("dambrosio_power", SP, 3.0, {"alpha": 0.0, "beta": 0.0})
    with pytest.raises(ValueError, match="needs 1 < p < 2"):
        verify_remainder_p_lt2(high, annulus_field(SP))


def test_remainder_refuses_field_before_constant_search(monkeypatch):
    searches = []
    monkeypatch.setattr(verifier, "find_constant", lambda kind: searches.append(kind))
    pair = make_pair("dambrosio_power", SP, 3.0, {"alpha": 0.0, "beta": 0.0})
    with pytest.raises(ValueError, match="x_floor > 0"):
        verify_remainder_p_ge2(pair, annulus_field(SP, x_floor=0.0))
    assert searches == []


# -- sharpness --------------------------------------------------------------


def test_sharpness_dambrosio():
    pair = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    rep = sharpness_probe(pair)
    assert rep.sharp_constant == 2.25
    assert rep.passed
    ratios = [e["rayleigh_ratio"] for e in rep.levels]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(r > rep.sharp_constant for r in ratios)
    assert rep.final_gap <= 0.05


def test_sharpness_levels_validation():
    pair = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    with pytest.raises(ValueError, match="levels must be >= 2"):
        sharpness_probe(pair, levels=1)


# -- CKN --------------------------------------------------------------------


def test_ckn_delta_zero_reduces_to_equality():
    pair = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    ckn = CknParams(p=2.0, q=2.0, r=2.0, delta=0.0, b=0.5, c=0.5)
    rep = verify_ckn(pair, annulus_field(SP), ckn)
    assert rep.passed and rep.consistent
    assert rep.left == rep.right


def test_ckn_delta_one_reduces_to_identity_bracket():
    pair = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    ckn = CknParams(p=2.0, q=2.0, r=2.0, delta=1.0, b=0.0, c=0.5)
    rep = verify_ckn(pair, annulus_field(SP), ckn)
    assert rep.passed and rep.consistent
    # phi = 0 for this pair, so the bracket is exactly the w integral
    assert rep.left == pytest.approx(rep.right, rel=1e-6)


def test_ckn_delta_half():
    # alpha = beta = 0 makes w constant, so the Cauchy-Schwarz step is tight
    # and left - right is pure quadrature noise
    flat = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    ckn = CknParams(p=2.0, q=2.0, r=2.0, delta=0.5, b=-0.5, c=0.0)
    rep = verify_ckn(flat, annulus_field(SP), ckn)
    assert rep.passed and rep.consistent
    assert rep.left == pytest.approx(rep.right, rel=1e-8)

    varying = make_pair("dambrosio_power", SP, 2.0, {"alpha": 1.0, "beta": 0.0})
    rep = verify_ckn(varying, annulus_field(SP), ckn)
    assert rep.passed and rep.consistent
    assert rep.left > rep.right * 1.001


def test_ckn_params_validation():
    with pytest.raises(ValueError, match=r"p must lie in \(1, inf\)"):
        CknParams(p=1.0, q=2.0, r=2.0, delta=0.5, b=-0.5, c=0.0)
    with pytest.raises(ValueError, match=r"requires p \+ q >= r"):
        CknParams(p=1.5, q=1.2, r=3.0, delta=0.5, b=0.0, c=0.25)
    with pytest.raises(ValueError, match="delta must lie in"):
        CknParams(p=2.0, q=2.0, r=4.0, delta=0.2, b=0.0, c=0.1)
    with pytest.raises(ValueError, match=r"delta\*r/p"):
        CknParams(p=2.0, q=3.0, r=2.0, delta=0.5, b=0.0, c=0.25)
    with pytest.raises(ValueError, match="requires c = delta/p"):
        CknParams(p=2.0, q=2.0, r=2.0, delta=0.5, b=-0.5, c=0.1)

    pair = make_pair("dambrosio_power", SP, 3.0, {"alpha": 0.0, "beta": 0.0})
    ckn = CknParams(p=2.0, q=2.0, r=2.0, delta=0.5, b=-0.5, c=0.0)
    with pytest.raises(ValueError, match="must match the pair's p"):
        verify_ckn(pair, annulus_field(SP), ckn)


# -- HPW --------------------------------------------------------------------


def test_hpw_ball():
    field = annulus_field(SP, R=4.0)
    rep = verify_hpw("ball_nch", 2.0, field)
    assert rep.passed
    assert rep.constant == 0.5
    assert rep.left >= rep.right
    assert rep.garofalo is None and rep.classical is None


def test_hpw_whole_space_with_garofalo():
    field = annulus_field(SP)
    rep = verify_hpw("whole_dambrosio", 2.0, field)
    assert rep.passed
    assert rep.garofalo is not None and rep.garofalo["passed"]
    assert rep.garofalo["left"] >= rep.garofalo["right"]
    # gamma > 0 has no classical Euclidean comparison
    assert rep.classical is None


def test_hpw_log_ball():
    space = SpaceParams(1, 1, 2.0)
    field = annulus_field(space, R=44.0)
    rep = verify_hpw("log_ball", 2.0, field)
    assert rep.passed
    assert rep.constant == 1.5


def test_hpw_classical_gamma_zero():
    space = SpaceParams(2, 1, 0.0)
    field = build_test_field(
        space, TestFieldSpec(family="bump_radial", inner_rho=0.5, outer_rho=2.0)
    )
    rep = verify_hpw("whole_dambrosio", 2.0, field)
    assert rep.converged and rep.passed
    assert rep.classical is not None
    assert rep.classical["dominates"]
    assert rep.classical["grad_full"] == pytest.approx(rep.grad_term, rel=1e-6)
    assert rep.classical["left"] > rep.classical["right"]
    assert rep.garofalo is not None
    assert rep.garofalo["left"] > rep.garofalo["right"]
    assert rep.left >= rep.right


def test_hpw_validation():
    field = annulus_field(SP)
    with pytest.raises(ValueError, match="case must be one of"):
        verify_hpw("mystery", 2.0, field)
    with pytest.raises(ValueError, match="p must be > 1"):
        verify_hpw("whole_dambrosio", 1.0, field)
    with pytest.raises(ValueError, match="finite R"):
        verify_hpw("ball_nch", 2.0, field)
    no_floor = build_test_field(
        SP, TestFieldSpec(family="bump_radial", inner_rho=0.5, outer_rho=2.0, R=4.0)
    )
    with pytest.raises(ValueError, match="x_floor > 0"):
        verify_hpw("ball_nch", 2.0, no_floor)
