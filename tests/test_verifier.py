"""Verifier operations: identity, remainders, sharpness, CKN, HPW."""

import gc
import json
import math
import pathlib
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.special import betainc

from grushin_hardy.cp import ConstantEstimate, cp_value_batch
from grushin_hardy.cubature import IntegralResult, IntegrationSettings, Region, integrate_vector
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
import oracles
from grushin_hardy.weights import PAIRS, eval_monomials, log_features, make_pair

SP = SpaceParams(1, 1, 1.0)
GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "constants.json").read_text())


def _read(plan, rows, pair, field, name):
    """A term's row of plan.rows' output; a term that is exactly 0 has none."""
    n = plan.row(pair, field, name)
    return np.zeros(rows.shape[1]) if n is None else rows[n]


def annulus_field(space, **kwargs):
    xf = kwargs.pop("x_floor", 0.25 * 0.5)
    family = "bump_radial_x_cutoff" if xf > 0 else "bump_radial"
    spec = TestFieldSpec(family=family, inner_rho=0.5, outer_rho=2.0, x_floor=xf, **kwargs)
    return build_test_field(space, spec)


class _ZeroField(TestField):
    def eval_modulus(self, r, rho):
        zero = np.zeros_like(rho)
        return zero, zero, zero


class _RotatedField(TestField):
    """Base field times a fixed unimodular constant."""

    def __init__(self, base: TestField, phase: complex):
        super().__init__(base.space, base.spec)
        self._base = base
        self._phase = phase

    def twist(self, rho, f, f_r, f_rho):
        return tuple(part * self._phase for part in self._base.twist(rho, f, f_r, f_rho))


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


def test_sweep_leaves_no_cyclic_garbage():
    # a batch's arrays are freed when the integrand returns, by reference
    # counts alone: nothing the integration builds refers back to itself
    field = annulus_field(SP)
    cases = [(make_pair("nch_ball", SP, p, {"R": 4.0}), field) for p in (1.5, 2.0, 3.0)]
    settings = IntegrationSettings(rel_tol=1e-4)
    verify_identity_sweep(cases, settings)
    gc.collect()
    gc.disable()
    try:
        verify_identity_sweep(cases, settings)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sweep_validation():
    field = annulus_field(SP)
    pair = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    with pytest.raises(ValueError, match="at least one case"):
        verify_identity_sweep([])

    # a sweep over two spaces, or two supports, integrates each mesh's cases
    # apart: every report is the one a sweep of its own mesh's cases gives
    other = SpaceParams(1, 1, 2.0)
    narrow = build_test_field(
        SP,
        TestFieldSpec(family="bump_radial_x_cutoff", inner_rho=0.5, outer_rho=1.5, x_floor=0.125),
    )
    first = [(pair, field), (make_pair("dambrosio_power", SP, 3.0, {"alpha": 0.0, "beta": 0.0}), field)]
    for second in ([(make_pair("nch_ball", other, 2.0, {"R": 4.0}), annulus_field(other))], [(pair, narrow)]):
        alone = verify_identity_sweep(first) + verify_identity_sweep(second)
        assert verify_identity_sweep([first[0], second[0], first[1]]) == [alone[0], alone[2], alone[1]]


def test_verify_checks_refuses_before_any_integration(monkeypatch):
    # two supports and two settings make three meshes ahead of the last
    # check, whose field reaches {x=0} on a singular pair: nothing integrates
    calls = []
    monkeypatch.setattr(verifier, "integrate_vector", lambda *args: calls.append(args))
    pair = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    field = annulus_field(SP)
    wide = build_test_field(
        SP, TestFieldSpec(family="bump_radial_x_cutoff", inner_rho=0.5, outer_rho=2.5, x_floor=0.125)
    )
    loose = IntegrationSettings(rel_tol=1e-6)
    checks = [
        ("identity", (pair, field), None),
        ("inequality", (pair, wide), None),
        ("identity", (pair, field), loose),
        ("identity", (pair, annulus_field(SP, x_floor=0.0)), loose),
    ]
    with pytest.raises(ValueError, match="pair is singular on"):
        verifier.verify_checks(checks)
    assert calls == []


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
    # x_floor = 0: psi runs up to the y axis, where the angular map (d^(1/a)
    # linear in t, d = pi/2 - psi) keeps the Jacobian bounded; beta = 0.5
    # leaves (|x|/rho)^beta singular along that whole edge, so the cells must
    # split across it only
    field = build_test_field(
        space, TestFieldSpec(family="bump_radial", inner_rho=0.5, outer_rho=2.0)
    )
    betas = (0.0, 0.5, 1.0, 2.0)
    region, lift = verifier._polar_pieces([field])

    # mass reads no weight (exponent 0), so any pair serves
    whole = make_pair("dambrosio_power", space, 2.0, {"alpha": 0.0, "beta": 0.0})
    plan = verifier._Plan([(whole, field, ("mass",))])

    def integrand(nodes):
        coords, log_jac = lift(nodes)
        (r, _, rho, _), (mass,) = coords, plan.rows(space, coords, log_jac)
        return np.array([mass * ((r / rho) ** beta).ravel() for beta in betas])

    settings = IntegrationSettings(rel_tol=1e-12, abs_tol=1e-300)
    res = integrate_vector(integrand, len(betas), region, settings)

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
        (r, s, rho, log_ratio), log_jac = (np.ravel(x) for x in lift(nodes)[0]), lift(nodes)[1]
        jac = np.exp(log_jac).ravel()
        np.testing.assert_allclose(log_ratio, np.log(r / rho), rtol=1e-14, atol=1e-14)
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
            lambda n: np.exp(lift(n)[1]).reshape(1, -1), 1, region, IntegrationSettings(rel_tol=1e-12)
        )
        exact = _radial_oracle(space, lambda rho: 1.0, 0.5, 2.0, 0.0)
        assert abs(vol.value - exact) <= 1e-11 * exact


def _piece_volume(space, rho0, rho1, r_out, r_in):
    """Exact volume of the polar piece rho0 < rho < rho1, r_in(rho) < |x| <
    r_out(rho): in d = arcsin((|x|/rho)^a) the angular part is int sin(d)^(m/a-1)
    cos(d)^(k-1) dd = B(A, B) I_(sin^2 d)(A, B)/2, A = m/(2a), B = k/2."""
    a, A, B = 1.0 + space.gamma, space.m / (2.0 * (1.0 + space.gamma)), space.k / 2.0

    def shell(rho):
        ends = [betainc(A, B, min(1.0, (bound(rho) / rho) ** (2.0 * a))) for bound in (r_out, r_in)]
        return beta_fn(A, B) / 2.0 * (ends[0] - ends[1]) * rho ** (space.Q - 1.0)

    radial, _ = quad(shell, rho0, rho1, epsabs=0.0, epsrel=1e-13, limit=500)
    return _sphere_area(space.m) * _sphere_area(space.k) * a**-space.k * radial


@pytest.mark.parametrize(
    "space", (SpaceParams(1, 1, 1.0), SpaceParams(1, 1, 2.0), SpaceParams(2, 2, 1.0), SpaceParams(3, 2, 0.5)), ids=str
)
@pytest.mark.parametrize("x_floor", (0.125, 0.3))
def test_polar_piece_jacobians_match_quad_volumes(space, x_floor):
    # every piece's Jacobian integrates to its exact volume, with and without
    # the D|f| = 0 cut; the pieces stop at |x| = x_floor, just short of the y
    # axis where cos(psi)^(1/a-1) is singular
    field = annulus_field(space, x_floor=x_floor)
    curve = lambda rho: field.df_zero_x(np.array([rho]))[0]
    edges = sorted(b for b in {x_floor, 2.0 * x_floor, *field.rho_breaks()} if 0.5 <= b)
    for cut in (None, field):
        layout = []  # (rho0, rho1, r_out, r_in) in _polar_pieces's order
        for rho0, rho1 in zip(edges, edges[1:]):
            if rho0 >= 2.0 * x_floor:
                layout.append((rho0, rho1, math.inf, 2.0 * x_floor))
            split = cut is not None and (rho0, rho1) == field.rho_breaks()[2:]
            cuts = (2.0 * x_floor, curve, x_floor) if split else (2.0 * x_floor, x_floor)
            layout += [(rho0, rho1, r_out, r_in) for r_out, r_in in zip(cuts, cuts[1:])]
        region, lift = verifier._polar_pieces([field], cut)
        assert region.box[0][1] == len(layout)
        jac = lambda n: np.exp(lift(n.reshape(-1, verifier._AXIS_NODES, 2))[1]).reshape(1, -1)
        for i, (rho0, rho1, r_out, r_in) in enumerate(layout):
            bounds = [b if callable(b) else (lambda rho, b=b: b) for b in (r_out, r_in)]
            exact = _piece_volume(space, rho0, rho1, *bounds)
            (vol,) = integrate_vector(jac, 1, Region(box=((i, i + 1.0), (0.0, 1.0))), IntegrationSettings(rel_tol=1e-13))
            assert abs(vol.value - exact) <= 1e-12 * exact, (cut is not None, i, vol.value, exact)


@pytest.mark.parametrize("space", (SpaceParams(1, 1, 1.0), SpaceParams(1, 1, 2.0)), ids=str)
def test_a_cutoff_volume_converges_without_piling_cells_on_the_y_axis(space):
    # cos(psi)^(1/a-1) is singular on the y axis, just past |x| = x_floor;
    # the angular map cancels it there as well (linear psi took 9,000 and
    # 14,400 evals)
    region, lift = verifier._polar_pieces([annulus_field(space)])
    (vol,) = integrate_vector(lambda n: np.exp(lift(n)[1]).reshape(1, -1), 1, region, IntegrationSettings(rel_tol=1e-10))
    assert vol.converged
    assert vol.evals <= 3_600


CURVE_SPACES = (SpaceParams(1, 1, 1.0), SpaceParams(2, 2, 1.0))


@pytest.mark.parametrize("space", CURVE_SPACES, ids=str)
def test_df_zero_x_is_a_zero_of_the_kernels_d_abs_f(space):
    # across the falling window band the curve runs from |x| = 2 x_floor
    # down to x_floor, and the kernel's Df of the real field vanishes on it
    field = annulus_field(space)
    _, _, fall, outer = field.rho_breaks()
    rho = np.linspace(fall, outer, 1001)[1:-1, None]
    r = field.df_zero_x(rho)
    assert np.all(np.diff(r[:, 0]) < 0.0)
    np.testing.assert_allclose(field.df_zero_x(np.array([fall + 1e-9, outer - 1e-9])), [0.25, 0.125], rtol=1e-6)
    plan = verifier._Plan([(make_pair("dambrosio_power", space, 1.5, {"alpha": 0.0, "beta": 0.0}), field, ("lhs",))])
    b = verifier._Batch(space, (r, np.zeros_like(r), rho, np.log(r / rho)), plan)
    (_, f_r, f_rho), scale = b.moduli[0], (r / rho) ** space.gamma / rho
    size = scale * (np.abs(r * f_r) + np.abs(rho * f_rho))
    assert np.all(size > 0.0)
    assert np.max(np.abs(b.dm[0]) / size) <= 1e-10


def _pieces_of(monkeypatch, cases):
    """The polar pieces (their count) that _integrate_cases integrates cases on, and its results."""
    integrate, boxes = verifier.integrate_vector, []

    def recording(integrand, n_components, region, settings=None):
        boxes.append(int(region.box[0][1]))
        return integrate(integrand, n_components, region, settings)

    monkeypatch.setattr(verifier, "integrate_vector", recording)
    res = verifier._integrate_cases(cases, IntegrationSettings(rel_tol=1e-10))
    return boxes.pop(), res


@pytest.mark.parametrize("space", CURVE_SPACES, ids=str)
def test_the_curve_cut_moves_no_integral_beyond_its_error(space, monkeypatch):
    # the cut splits one piece in two; the split pieces hold the same volume,
    # and mass, w and lhs agree with the uncut mesh's within their errors
    field = annulus_field(space)
    pair = make_pair("dambrosio_power", space, 1.5, {"alpha": 0.0, "beta": 0.0})
    names = ("lhs", "w", "mass")
    cut, (with_cut,) = _pieces_of(monkeypatch, [(pair, field, names)])
    monkeypatch.setattr(verifier, "_curve_field", lambda plan: None)
    uncut, (without,) = _pieces_of(monkeypatch, [(pair, field, names)])
    assert cut == uncut + 1
    for name in names:
        a, b = with_cut[name], without[name]
        assert a.converged and b.converged
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate, name
    assert with_cut["lhs"].evals < without["lhs"].evals

    def volumes(region, lift):
        jac = lambda n: np.exp(lift(n.reshape(-1, verifier._AXIS_NODES, 2))[1]).reshape(1, -1)
        n = int(region.box[0][1])
        return [
            integrate_vector(jac, 1, Region(box=((i, i + 1.0), (0.0, 1.0))), IntegrationSettings(rel_tol=1e-13))[0]
            for i in range(n)
        ]

    split = volumes(*verifier._polar_pieces([field], field))
    whole = volumes(*verifier._polar_pieces([field]))
    # the split pieces are the last two of the falling band's three
    assert abs(split[-1].value + split[-2].value - whole[-1].value) <= 1e-12 * whole[-1].value
    assert [r.value for r in split[:-2]] == [r.value for r in whole[:-1]]


def test_a_plan_without_a_sub_quadratic_df_or_with_two_moduli_keeps_its_pieces(monkeypatch):
    # the cut needs a Df exponent in (0, 2) and exactly one modulus
    field, other = annulus_field(SP), annulus_field(SP, smoothness_margin=0.2)
    pair = {p: make_pair("dambrosio_power", SP, p, {"alpha": 0.0, "beta": 0.0}) for p in (1.5, 2.0, 3.0)}
    uncut = int(verifier._polar_pieces([field])[0].box[0][1])
    plain = [
        [(pair[2.0], field, verifier._IDENTITY), (pair[3.0], field, ("lhs", "cp"))],
        [(pair[1.5], field, ("w", "mass", "eta_p", "mixed", "min", "grad_sq"))],
    ]
    for cases in plain:
        assert _pieces_of(monkeypatch, cases)[0] == uncut
    assert _pieces_of(monkeypatch, [(pair[1.5], field, ("cp",))])[0] == uncut + 1
    two = [(pair[1.5], field, ("lhs",)), (pair[1.5], other, ("lhs",))]
    assert verifier._curve_field(verifier._Plan(two)) is None
    assert _pieces_of(monkeypatch, two)[0] == int(verifier._polar_pieces([field, other])[0].box[0][1])


def test_the_gate_4_sweep_on_1_1_1_keeps_its_eval_count():
    # the D|f| = 0 cut took this sweep from 52,650 evals to 33,525, and the
    # angular map that grades psi toward the y axis on every piece to 15,075
    cases = [(pair, field, verifier._IDENTITY) for pair, field in _twin_sweep(SP)]
    res = verifier._integrate_cases(cases, IntegrationSettings(rel_tol=1e-8))
    assert res[0]["lhs"].evals <= 16_000


def test_the_gate_4_sweep_on_2_1_0_keeps_its_eval_counts():
    # at gamma = 0 the angular map is linear psi, as before: the mesh of the
    # sweep, and of the sweep with p = 1.25 added, does not change
    space = SpaceParams(2, 1, 0.0)
    real, twisted = (field for _, field in _twin_sweep(space)[:2])
    evals = []
    for ps in ((1.5, 2.0, 3.0), (1.25, 1.5, 2.0, 3.0)):
        pairs = [make_pair(pair_id, space, p, dict(PAIRS[pair_id].defaults)) for pair_id in PAIRS for p in ps]
        cases = [(pair, field, verifier._IDENTITY) for pair in pairs for field in (real, twisted)]
        evals.append(verifier._integrate_cases(cases, IntegrationSettings(rel_tol=1e-8))[0]["lhs"].evals)
    assert evals == [3_825, 6_075]


def _kernel_fields(space):
    """One field of every family: a radial bump, an x-cutoff bump, its
    phase-twisted twins at kappa -1.3, 1.3 and 40, and an extremal field."""

    def bump(family, **kwargs):
        return build_test_field(space, TestFieldSpec(family=family, inner_rho=0.5, **kwargs))

    return [
        bump("bump_radial"),
        bump("bump_radial_x_cutoff", x_floor=0.3),
        *(bump("phase_twisted", x_floor=0.3, phase_kappa=kappa) for kappa in (-1.3, 1.3, 40.0)),
        build_extremal_field(make_pair("nch_ball", space, 2.0, {"R": 4.0}), truncation_level=1),
    ]


@pytest.mark.parametrize(
    "space", (SpaceParams(1, 1, 1.0), SpaceParams(2, 1, 0.0), SpaceParams(2, 2, 1.0)), ids=str
)
def test_radial_kernel_matches_the_nd_path(space):
    # random points of R^m x R^k, some outside each support, against
    # eval_batch's complex values and Euclidean gradients: |f|, |Df| and
    # Re(Df/f) (where f is not 0) with D f from radial_derivative_batch, and
    # |grad f|^2 as the squared norm; the batch's real closed forms read
    # each modulus once and each field's kappa
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
    # grad_sq reads the fields only, so any pair serves
    whole = make_pair("dambrosio_power", space, 2.0, {"alpha": 0.0, "beta": 0.0})
    plan = verifier._Plan([(whole, field, ("grad_sq",)) for field in fields])
    b = verifier._Batch(space, tuple(x[:, None] for x in (r, s, rho, np.log(r / rho))), plan)
    assert len(b.moduli) == 3 and not any(np.iscomplexobj(x) for x in chain(*b.moduli, b.dm, b.abs_df))
    for slot, field in enumerate(fields):
        vals, grads = field.eval_batch(pts)
        df = radial_derivative_batch(space, pts, grads)
        on = vals != 0.0
        u = plan.modulus[slot]
        want = (np.abs(vals), np.abs(df), (df[on] / vals[on]).real, (np.abs(grads) ** 2).sum(axis=1))
        got = (b.moduli[u][0].ravel(), b.abs_df[slot].ravel(), b.re_ratio(u).ravel()[on], b.grad_sq(slot).ravel())
        for g, w in zip(got, want):
            assert np.any(w != 0.0) and (np.any(w == 0.0) or w is want[2])
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-13 * np.abs(w).max())


def _closed_form_fields(space):
    def field(family, **kwargs):
        return build_test_field(space, TestFieldSpec(family=family, x_floor=0.125, **kwargs))

    return [field("bump_radial_x_cutoff"), field("phase_twisted", phase_kappa=1.3)]


@pytest.mark.parametrize(
    "space", (SpaceParams(1, 1, 1.0), SpaceParams(2, 1, 0.0), SpaceParams(2, 2, 1.0)), ids=str
)
@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
@pytest.mark.parametrize("pair_id", PAIRS)
def test_closed_form_cp_matches_the_kernel(space, p, pair_id):
    # C_p = v|Df|^p + (p-1) w|f|^p + p h G against cp_value_batch(xi, eta, p),
    # on random nodes of the polar pieces, for a real and a phase-twisted field,
    # with xi and eta from eval_radial's complex f and partials
    fields = _closed_form_fields(space)
    region, lift = verifier._polar_pieces(fields)
    rng = np.random.default_rng(131)
    nodes = np.column_stack([rng.uniform(0.0, region.box[0][1], 2000), rng.uniform(0.0, 1.0, 2000)])
    pair = make_pair(pair_id, space, p, dict(PAIRS[pair_id].defaults))
    plan = verifier._Plan([(pair, field, ("cp",)) for field in fields])
    coords = lift(nodes)[0]
    (r, _, rho, _), rows = (x.ravel() for x in coords), plan.rows(space, coords)
    v, w = eval_monomials(pair.monomials[:2], log_features(r, rho, pair.radius))
    for field in fields:
        f, f_r, f_rho = field.eval_radial(r, rho)
        df = (r / rho) ** space.gamma * (r * f_r + rho * f_rho) / rho
        xi, wf = v ** (1.0 / p) * df, w ** (1.0 / p) * f
        eta = xi + wf
        scale = np.maximum(np.abs(xi) ** p, np.abs(wf) ** p)
        cp = _read(plan, rows, pair, field, "cp")
        assert np.all(np.abs(cp - cp_value_batch(xi, eta, p)) <= 1e-12 * scale)


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
@pytest.mark.parametrize("pair_id", PAIRS)
def test_a_family_row_does_not_depend_on_its_listed_siblings(pair_id, p):
    # cp reuses the lhs and w rows where the case lists them and temporaries
    # where it does not; every layout writes the same bits
    fields = _closed_form_fields(SP)
    region, lift = verifier._polar_pieces(fields)
    rng = np.random.default_rng(139)
    nodes = np.column_stack([rng.uniform(0.0, region.box[0][1], 500), rng.uniform(0.0, 1.0, 500)])
    coords = lift(nodes)[0]
    pair = make_pair(pair_id, SP, p, dict(PAIRS[pair_id].defaults))
    layouts = (("cp",), ("cp", "eta_p"), ("lhs",), ("w",), ("lhs", "w"), verifier._IDENTITY)
    seen = {}
    for names in layouts:
        plan = verifier._Plan([(pair, field, names) for field in fields])
        rows = plan.rows(SP, coords)
        for f, field in enumerate(fields):
            for name in set(names) & {"lhs", "w", "cp"}:
                row = rows[plan.row(pair, field, name)]
                np.testing.assert_array_equal(seen.setdefault((f, name), row), row)
    assert len(seen) == 3 * len(fields)


@pytest.mark.parametrize(
    "space",
    (SpaceParams(1, 1, 1.0), SpaceParams(2, 1, 0.0), SpaceParams(2, 2, 1.0), SpaceParams(1, 1, 0.0)),
    ids=str,
)
@pytest.mark.parametrize("p", (1.25, 1.5, 2.0, 3.0))
@pytest.mark.parametrize("pair_id", PAIRS)
def test_table_rows_match_the_product_form(space, p, pair_id):
    # every monomial term from the exponent table against its chain of
    # products, on random polar nodes, for a real and a phase-twisted field;
    # the copies with inner_rho 0.8 vanish below it, and there every row is
    # an exact 0. In (1,1,0) log_ball's phi < 0 at p = 3, and
    # dambrosio_power's kappa, w and h are 0 at p = 2
    base = _closed_form_fields(space)
    fields = [build_test_field(space, replace(f.spec, inner_rho=0.8)) for f in base] + base
    region, lift = verifier._polar_pieces(fields)
    rng = np.random.default_rng(151)
    nodes = np.column_stack([rng.uniform(0.0, region.box[0][1], 2000), rng.uniform(0.0, 1.0, 2000)])
    pair = make_pair(pair_id, space, p, dict(PAIRS[pair_id].defaults), allow_negative_phi=True)
    # w^e with e < 0 is infinite where kappa, and so w, is 0
    powers = ((-1.0 / (p - 1.0), p / (p - 1.0)),) if pair.kappa > 0.0 else ()
    powers += ((0.5, p), (0.0, 0.5))  # q = 0.5 needs a log 0 far below -745 / 0.5
    names = (*verifier._IDENTITY, "mass", *(("w^e|f|^q", e, q) for e, q in powers))
    plan = verifier._Plan([(pair, field, names) for field in fields])
    coords, log_jac = lift(nodes)
    rows = plan.rows(space, coords, log_jac)
    r, _, rho, _ = (x.ravel() for x in coords)
    for f, field in enumerate(fields):
        want = oracles.product_rows(pair, field, r, rho, names)
        zero = field.eval_radial(r, rho)[0] == 0.0
        assert np.any(zero) == (f < 2)
        for name in names:
            got, row = _read(plan, rows, pair, field, name), want[name] * np.exp(log_jac).ravel()
            assert np.all(np.abs(got - row) <= 1e-13 * np.abs(row).max()), name
            assert np.all(got[zero] == 0.0), name


@pytest.mark.parametrize("p", (1.25, 1.5, 1.75))
def test_closed_form_g_is_zero_where_the_field_is(p):
    # |f|^(p-2) is infinite where f = 0 for p < 2, but G is exactly 0 there,
    # with no floating-point error raised on the way; fields 0 and 1 vanish
    # on the pieces' rho < 0.8, which fields 2 and 3 fill
    inner = [build_test_field(SP, replace(f.spec, inner_rho=0.8)) for f in _closed_form_fields(SP)]
    fields = inner + _closed_form_fields(SP)
    region, lift = verifier._polar_pieces(fields)
    rng = np.random.default_rng(137)
    nodes = np.column_stack([rng.uniform(0.0, region.box[0][1], 4000), rng.uniform(0.0, 1.0, 4000)])
    with np.errstate(all="raise", under="ignore"):
        pair = make_pair("dambrosio_power", SP, p, {"alpha": 0.0, "beta": 0.0})
        plan = verifier._Plan([(pair, field, ("cp",)) for field in fields])
        coords, log_jac = lift(nodes)
        rows = plan.rows(SP, coords, log_jac)
        for f in (0, 1):
            zero = fields[f].eval_radial(coords[0], coords[2])[0].ravel() == 0.0
            assert np.any(zero) and np.any(~zero)
            g = rows[plan.row(pair, fields[f], "cp")]
            assert np.all(np.isfinite(g))
            assert np.all(g[zero] == 0.0)
            assert np.any(g[~zero] != 0.0)


def _twin_sweep(space):
    """Gate 4's cases in space: every pair at p = 1.5, 2 and 3, on a real
    field and on its phase-twisted twin, which has the same |f|."""
    xf = 0.125 if space.gamma > 0 else 0.0
    real = build_test_field(space, TestFieldSpec("bump_radial_x_cutoff" if xf else "bump_radial", x_floor=xf))
    twisted = build_test_field(space, TestFieldSpec("phase_twisted", x_floor=xf, phase_kappa=1.0))
    pairs = [make_pair(pair_id, space, p, dict(PAIRS[pair_id].defaults)) for pair_id in PAIRS for p in (1.5, 2.0, 3.0)]
    return [(pair, field) for pair in pairs for field in (real, twisted)]


def test_a_zero_phi_is_no_component_and_reads_exactly_0(monkeypatch):
    # dambrosio_power's phi is identically 0: its row is never evaluated,
    # and it reads value 0 and error 0
    pair = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    field = annulus_field(SP)
    integrate, components = verifier.integrate_vector, []

    def counting(integrand, n_components, region, settings=None):
        components.append(n_components)
        return integrate(integrand, n_components, region, settings)

    monkeypatch.setattr(verifier, "integrate_vector", counting)
    (res,) = verifier._integrate_cases([(pair, field, verifier._IDENTITY)], None)
    assert components == [3]
    assert verifier._Plan([(pair, field, verifier._IDENTITY)]).row(pair, field, "phi") is None
    assert res["phi"] == IntegralResult(0.0, 0.0, res["lhs"].evals, True)
    rep = verify_identity(pair, field)
    assert rep.phi_term == 0.0 and rep.passed


@pytest.mark.parametrize("space", (SpaceParams(1, 1, 1.0), SpaceParams(2, 1, 0.0)), ids=str)
def test_a_twisted_case_reads_its_real_twins_w_and_phi(space):
    # w and phi read |f| only, so the twins share one component of each
    cases = _twin_sweep(space)
    plan = verifier._Plan([(pair, field, verifier._IDENTITY) for pair, field in cases])
    for (pair, real), (_, twisted) in zip(cases[::2], cases[1::2]):
        for name, shared in (("lhs", False), ("cp", False), ("w", True), ("phi", True)):
            assert (plan.row(pair, real, name) == plan.row(pair, twisted, name)) == shared, name
    reports = verify_identity_sweep(cases, IntegrationSettings(rel_tol=1e-6))
    for real, twisted in zip(reports[::2], reports[1::2]):
        assert twisted.lhs != real.lhs and twisted.passed and real.passed
        assert twisted.w_term.hex() == real.w_term.hex()
        assert twisted.phi_term.hex() == real.phi_term.hex()


def test_phase_twins_share_one_cp_part_in_real_arithmetic(monkeypatch):
    # cp - lhs = p h |f|^p Re(Df/f) + (p-1) w |f|^p reads |f| and Re(Df/f) =
    # Dm/m only, so gate 4's sweep keeps one such row per (pair, modulus): 24
    # lhs, 12 w, 12 of it and 5 nonzero phi, where a cp row per field made 65
    cases = [(pair, field, verifier._IDENTITY) for pair, field in _twin_sweep(SP)]
    plan = verifier._Plan(cases)
    assert len(plan.table) == 53

    # each twisted case's cp, next to its real twin, is its cp planned alone
    region, lift = verifier._polar_pieces(plan.fields)
    rng = np.random.default_rng(157)
    nodes = np.column_stack([rng.uniform(0.0, region.box[0][1], 2000), rng.uniform(0.0, 1.0, 2000)])
    coords, log_jac = lift(nodes)
    rows = plan.rows(SP, coords, log_jac)
    for pair, field, names in cases[1::2]:
        assert field.spec.phase_kappa != 0.0
        alone = verifier._Plan([(pair, field, names)])
        want = _read(alone, alone.rows(SP, coords, log_jac), pair, field, "cp")
        got = _read(plan, rows, pair, field, "cp")
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max())

    # and the integrand applies no phase: twist is left to the eval_radial oracle
    def no_twist(*args):
        raise AssertionError("the integrand applied a phase")

    monkeypatch.setattr(TestField, "twist", no_twist)
    twins = _twin_sweep(SP)[:6]
    reports = verify_identity_sweep(twins, IntegrationSettings(rel_tol=1e-6))
    assert all(rep.passed for rep in reports)
    pair = make_pair("dambrosio_power", SP, 1.5, {"alpha": 0.0, "beta": 0.0})
    constants = {kind: golden_estimate(kind, 1.5) for kind in ("c1_inf", "c2_sup", "c3_min")}
    assert verify_remainder_p_lt2(pair, twins[1][1], constants=constants).passed


def test_sweep_terms_agree_with_each_case_integrated_alone():
    # the shared mesh, refined for every case, moves a case's terms by no
    # more than their errors
    cases = [(pair, field, verifier._IDENTITY) for pair, field in _twin_sweep(SP)]
    for case, res in zip(cases, verifier._integrate_cases(cases, None)):
        (alone,) = verifier._integrate_cases([case], None)
        for name in verifier._IDENTITY:
            shared, own = res[name], alone[name]
            assert abs(shared.value - own.value) <= 10.0 * (shared.error_estimate + own.error_estimate), name


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
    # the integrand takes runs of 15 nodes that share tau, as a cell's are
    tau = np.repeat(rng.uniform(0.0, region.box[0][1], 333), 15)
    nodes = np.column_stack([tau, rng.uniform(0.0, 1.0, tau.size)])
    rho = lift(nodes)[0][2].ravel()
    seen = {}

    def capture(integrand, n_comp, region, settings):
        seen["out"] = integrand(nodes)
        return [IntegralResult(0.0, 0.0, 0, False)] * n_comp

    monkeypatch.setattr(verifier, "integrate_vector", capture)
    listed = [(*case, verifier._IDENTITY) for case in cases]
    verifier._integrate_cases(listed, None)
    out, plan = seen["out"], verifier._Plan(listed)
    assert np.all(np.isfinite(out))
    for pair, f in cases:
        rows = np.array([_read(plan, out, pair, f, name) for name in verifier._IDENTITY])
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
    (polar,) = verifier._integrate_cases([(pair, field, verifier._IDENTITY)], settings)
    plan = verifier._Plan([(pair, field, verifier._IDENTITY)])

    def cartesian(pts):
        x, y = pts[:, : space.m], pts[:, space.m :]
        r, rho = radial_coords(space, x, y)
        inside = (rho >= 0.5) & (rho <= 2.0) & (r > field.spec.x_floor)
        r, s, rho = r[inside], np.linalg.norm(y[inside], axis=1), rho[inside]
        coords = tuple(x[:, None] for x in (r, s, rho, np.log(r / rho)))
        out = np.zeros((4, pts.shape[0]))
        rows = plan.rows(space, coords)
        out[:, inside] = [_read(plan, rows, pair, field, name) for name in verifier._IDENTITY]
        return out

    a = 1.0 + space.gamma
    box = ((-2.0, 2.0), (-(2.0**a) / a, 2.0**a / a))  # around the support rho <= 2
    cart = integrate_vector(cartesian, 4, Region(box=box), settings)
    for p_res, c_res in zip((polar[name] for name in verifier._IDENTITY), cart):
        assert p_res.converged and c_res.converged
        assert abs(p_res.value - c_res.value) <= p_res.error_estimate + c_res.error_estimate


@pytest.mark.parametrize("space", (SpaceParams(2, 2, 1.0), SpaceParams(3, 2, 1.0)), ids=str)
def test_identity_in_four_and_five_dimensions(space):
    # every term is 2-D in (rho, psi), whatever m + k is
    pair = make_pair("dambrosio_power", space, 2.0, {"alpha": 0.0, "beta": 0.0})
    rep = verify_identity(pair, annulus_field(space), IntegrationSettings(max_evals=3_000_000))
    assert rep.converged and rep.passed


@pytest.mark.parametrize("space", (SpaceParams(1, 1, 1.0), SpaceParams(2, 2, 1.0)), ids=str)
@pytest.mark.parametrize("pair_id", PAIRS)
def test_field_checks_are_invariant_under_dilation(space, pair_id, monkeypatch):
    # identity, inequality and ckn on one mesh, on a bump field dilated by
    # lam with R scaled along: every pair is homogeneous, so the verdicts,
    # ratios and relative residuals agree within their errors, and the evals
    # within 2x. lam = 1e-2 counts only where rel_tol |lhs| > abs_tol there:
    # below that the stop test is abs_tol's
    settings = IntegrationSettings()
    results = []
    integrate = verifier.integrate_vector

    def recording(*args):
        results.append(integrate(*args))
        return results[-1]

    monkeypatch.setattr(verifier, "integrate_vector", recording)
    for p in (1.5, 2.0, 3.0):
        runs = []
        for lam in (1.0, 1e2, 1e-2):
            params = dict(PAIRS[pair_id].defaults)
            params.update({"R": lam * params["R"]} if "R" in params else {})
            pair = make_pair(pair_id, space, p, params)
            field = build_test_field(
                space,
                TestFieldSpec("bump_radial_x_cutoff", inner_rho=0.5 * lam, outer_rho=2.0 * lam, x_floor=0.125 * lam),
            )
            ckn = CknParams(p=p, q=p, r=p, delta=0.5, b=0.0, c=0.5 / p)
            identity, inequality, ckn_rep = verifier.verify_checks(
                [
                    ("identity", (pair, field), settings),
                    ("inequality", (pair, field), settings),
                    ("ckn", (pair, field, ckn), settings),
                ]
            )
            res = results.pop()
            if settings.rel_tol * identity.lhs <= settings.abs_tol:
                continue
            rel = sum(r.error_estimate / abs(r.value) for r in res if r.value != 0.0)
            ratios = (identity.rel_residual, inequality.ratio, ckn_rep.left / ckn_rep.right)
            passed = [rep.passed for rep in (identity, inequality, ckn_rep)]
            runs.append((lam, passed, ratios, rel, res[0].evals))
        assert [lam for lam, *_ in runs][:2] == [1.0, 1e2]
        (_, passed, ratios, rel, evals) = runs[0]
        for lam, passed_lam, ratios_lam, rel_lam, evals_lam in runs[1:]:
            assert passed_lam == passed, (p, lam)
            allow = 10.0 * (rel + rel_lam)
            assert abs(ratios_lam[0] - ratios[0]) <= allow, (p, lam)
            for got, want in zip(ratios_lam[1:], ratios[1:]):
                assert abs(got - want) <= allow * want, (p, lam)
            assert 0.5 <= evals_lam / evals <= 2.0, (p, lam, evals, evals_lam)


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


def test_sharpness_integrals_see_the_window_bands_at_every_level():
    # from level 7 on (tau_hi about 1160) the first cell's nodes miss both
    # window bands; without cuts at them that level read exactly kappa^p = 1
    pair = make_pair("dambrosio_power", SP, 3.0, {"alpha": 0.0, "beta": 0.0})
    rep = sharpness_probe(pair, levels=8)
    assert rep.converged and rep.final_gap == pytest.approx(0.0015377, rel=1e-4)
    gaps = [e["rayleigh_ratio"] - rep.sharp_constant for e in rep.levels]
    assert all(1.8 < a / b < 2.1 for a, b in zip(gaps, gaps[1:]))  # halves per level


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
    # at p = inf and delta = 0 the balance conditions still hold
    with pytest.raises(ValueError, match=r"p must lie in \(1, inf\)"):
        CknParams(p=float("inf"), q=2.0, r=2.0, delta=0.0, b=0.3, c=0.3)
    with pytest.raises(ValueError, match=r"requires p \+ q >= r"):
        CknParams(p=1.5, q=1.2, r=3.0, delta=0.5, b=0.0, c=0.25)
    with pytest.raises(ValueError, match="delta must lie in"):
        CknParams(p=2.0, q=2.0, r=4.0, delta=0.2, b=0.0, c=0.1)
    with pytest.raises(ValueError, match=r"delta\*r/p"):
        CknParams(p=2.0, q=3.0, r=2.0, delta=0.5, b=0.0, c=0.25)
    with pytest.raises(ValueError, match="requires c = delta/p"):
        CknParams(p=2.0, q=2.0, r=2.0, delta=0.5, b=-0.5, c=0.1)
    nan, inf = float("nan"), float("inf")
    for b, c in ((nan, 0.0), (-0.5, nan), (inf, inf)):
        with pytest.raises(ValueError, match=r"requires c = delta/p \+ b"):
            CknParams(p=2.0, q=2.0, r=2.0, delta=0.5, b=b, c=c)

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


@pytest.mark.parametrize("p", (1.25, 1.5, 3.0))
def test_hpw_is_invariant_under_dilation(p):
    # a = p' balances the display under the Grushin dilation at every p: a
    # bump field and the same field dilated by 1e2 give one verdict and one
    # left/right ratio, within the error that the converged terms propagate;
    # at p = 3 > Q = 2 the constant is |Q-p|/p, not the negative (Q-p)/p
    space, settings = SpaceParams(1, 1, 0.0), IntegrationSettings()
    pp = p / (p - 1.0)
    ratios, errors, verdicts = [], [], []
    for lo, hi in ((0.5, 2.0), (50.0, 200.0)):
        field = build_test_field(space, TestFieldSpec("bump_radial", inner_rho=lo, outer_rho=hi))
        rep = verify_hpw("whole_dambrosio", p, field, settings)
        assert rep.converged
        assert rep.constant == pytest.approx(abs(space.Q - p) / p, rel=1e-15)
        # a converged term's error is at most max(abs_tol, rel_tol |value|)
        terms = (rep.grad_term, rep.weight_term, rep.mass_term)
        rel = [max(settings.abs_tol / t, settings.rel_tol) for t in terms]
        ratios.append(rep.left / rep.right)
        errors.append(ratios[-1] * (rel[0] / p + rel[1] / pp + rel[2]))
        verdicts.append(rep.passed)
    assert verdicts[0] == verdicts[1]
    assert abs(ratios[0] - ratios[1]) <= errors[0] + errors[1]


@pytest.mark.parametrize("scale", (1.0, 10.0, 100.0))
def test_hpw_on_a_dilated_field_converges_within_a_small_budget(scale):
    # a 10x dilation multiplies the weight term by 1e9 and the gradient and
    # mass terms by about 1e3 and 1e4; cells ranked by absolute error served
    # the weight term, and the gradient term stopped at err/tol 1.8 and 2.0
    # at scales 10 and 100
    space = SpaceParams(2, 1, 1.0)
    spec = TestFieldSpec(
        "bump_radial_x_cutoff", inner_rho=0.5 * scale, outer_rho=2.0 * scale, x_floor=0.125 * scale
    )
    field = build_test_field(space, spec)
    rep = verify_hpw("whole_dambrosio", 1.25, field, IntegrationSettings(max_evals=400_000))
    assert rep.converged and rep.passed
    assert rep.left / rep.right == pytest.approx(4.062159, rel=1e-6)


def test_hpw_product_slack_does_not_grow_with_a_dilation():
    # the Garofalo check's slack, relative to its left side, is the same for
    # a bump field and the same field dilated by 1e2; in (2,1,0) Q = 3, so
    # the display's constant is 1/2 and the Garofalo constant 1/4
    space = SpaceParams(2, 1, 0.0)
    relative = []
    for lo, hi in ((0.5, 2.0), (50.0, 200.0)):
        field = build_test_field(space, TestFieldSpec("bump_radial", inner_rho=lo, outer_rho=hi))
        spec = verifier.FIELD_CHECKS["hpw"]
        case, reads = spec.start("whole_dambrosio", 2.0, field)
        (res,) = verifier._integrate_cases([case], None)
        rep = verifier._verdict(spec, case, reads, res)
        term = {name: (float(r.value), r.error_estimate) for name, r in res.items()}
        grad, weight = case[2][:2]
        squares, constant = [(2.0, *term["mass"])], ((space.Q - 2.0) / 2.0) ** 2
        left, right, slack = verifier._sides([(1.0, *term[grad]), (1.0, *term[weight])], squares, constant)
        assert (left, right) == (rep.garofalo["left"], rep.garofalo["right"])
        assert rep.passed and rep.garofalo["passed"]
        relative.append(slack / left)
    assert 0.5 <= relative[0] / relative[1] <= 2.0


def test_hpw_refuses_a_display_that_cannot_fail():
    # whole_dambrosio's constant |Q-p|/p is 0 at Q = p, where right = 0
    field = build_test_field(SpaceParams(1, 1, 0.0), TestFieldSpec("bump_radial"))
    with pytest.raises(ValueError, match=r"vacuous here: its constant \|Q-p\|/p is 0"):
        verify_hpw("whole_dambrosio", 2.0, field)


def test_hpw_keeps_the_ball_support_rule():
    # ball_nch's display pair is nch_ball at the field's R, so hpw refuses a
    # field past 0.9 R as the identity on that pair does
    field = build_test_field(
        SP, TestFieldSpec(family="bump_radial_x_cutoff", inner_rho=0.5, outer_rho=2.0, x_floor=0.125, R=2.1)
    )
    with pytest.raises(ValueError, match="outer_rho <= 0.9 R on a ball domain"):
        verify_identity(make_pair("nch_ball", SP, 2.0, {"R": 2.1}), field)
    with pytest.raises(ValueError, match="outer_rho <= 0.9 R on a ball domain"):
        verify_hpw("ball_nch", 2.0, field)


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
