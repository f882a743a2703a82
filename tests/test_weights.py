"""Weight-pair catalog: validation, closed forms, and the defect condition."""

from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from grushin_hardy.geometry import SpaceParams, radial_coords
from grushin_hardy.fields import build_extremal_field
from grushin_hardy.weights import (
    HPW_PAIRS,
    PAIR_IDS,
    PAIRS,
    WEIGHTS,
    condition_report,
    eval_monomials,
    hpw_pair,
    log_features,
    make_pair,
    phi_numeric,
)

SP = SpaceParams(1, 1, 1.0)


def sample_points(space, rng, count, lo=0.5, hi=2.0, x_min=0.2):
    pts = np.empty((0, space.n))
    while pts.shape[0] < count:
        cand = rng.uniform(-hi, hi, size=(4 * count, space.n))
        r, rho = radial_coords(space, cand[:, : space.m], cand[:, space.m :])
        cand = cand[(rho >= lo) & (rho <= hi) & (r >= x_min)]
        pts = np.vstack([pts, cand])
    return pts[:count]


def test_sharp_constants():
    assert make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0}).sharp_constant == 2.25
    assert make_pair("nch_ball", SP, 2.0, {"R": 4.0}).sharp_constant == 0.25
    assert make_pair("darca_power", SP, 2.0, {"alpha": 1.0, "theta": 0.5, "R": 8.0}).sharp_constant == 1.0
    assert make_pair("log_ball", SP, 2.0, {"alpha": -3.0, "R": 4.0}).sharp_constant == 1.0


@pytest.mark.parametrize("pair_id", PAIR_IDS)
def test_pair_spec_is_complete(pair_id):
    spec = PAIRS[pair_id]
    pair = make_pair(pair_id, SP, 2.0, dict(spec.defaults))
    assert pair.kappa == pytest.approx(oracles.hand_scalars(pair).kappa, rel=1e-13, abs=0)
    phi = pair.phi_batch(sample_points(SP, np.random.default_rng(3), 50))
    assert np.all(phi == 0.0) if oracles.HAND_WEIGHTS[pair_id][2] is None else np.all(phi != 0.0)
    ext = build_extremal_field(pair, truncation_level=1)
    tau = np.linspace(0.05, min(ext.tau_hi - 0.05, 12.0), 40)
    assert np.allclose(ext.tau_of_rho(ext.rho_of_tau(tau)), tau, rtol=0, atol=1e-9)
    assert np.all(ext.probe_weight(tau) > 0)


def test_validation_messages():
    with pytest.raises(ValueError, match="unknown pair id"):
        make_pair("mystery", SP, 2.0, {})
    with pytest.raises(ValueError, match="requires p > 1"):
        make_pair("nch_ball", SP, 1.0, {"R": 4.0})
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="requires p > 1 and finite"):
            make_pair("nch_ball", SP, bad, {"R": 4.0})
        with pytest.raises(ValueError, match="parameters must be finite"):
            make_pair("nch_ball", SP, 2.0, {"R": bad})
    with pytest.raises(ValueError, match=r"requires kappa > 0, .* kappa = -0.5 at Q = 3, p = 2, alpha = 4, beta = 0$"):
        make_pair("dambrosio_power", SP, 2.0, {"alpha": 4.0, "beta": 0.0})
    with pytest.raises(ValueError, match=r"requires kappa > 0, .* kappa = -0.5 at Q = 3, p = 2, alpha = 0, theta = 2, R = 4$"):
        make_pair("darca_power", SP, 2.0, {"alpha": 0.0, "theta": 2.0, "R": 4.0})
    with pytest.raises(ValueError, match=r"requires kappa > 0, .* kappa = 0 at Q = 3, p = 2, alpha = -1, R = 4$"):
        make_pair("log_ball", SP, 2.0, {"alpha": -1.0, "R": 4.0})
    with pytest.raises(ValueError, match="requires R > 0"):
        make_pair("nch_ball", SP, 2.0, {"R": 0.0})
    with pytest.raises(ValueError, match="missing"):
        make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0})
    with pytest.raises(ValueError, match=r"takes parameters \('alpha', 'theta', 'R'\)"):
        make_pair("darca_power", SP, 2.0, {})
    with pytest.raises(ValueError, match="unexpected"):
        make_pair("nch_ball", SP, 2.0, {"R": 4.0, "alpha": 1.0})
    # kappa = Q/2 = 5e307 is finite, but kappa^2 overflows
    with pytest.raises(ValueError, match=r"kappa\^p = 5e\+307\^2 overflows"):
        make_pair("dambrosio_power", SpaceParams(1, 1, 1e308), 2.0, {"alpha": 0.0, "beta": 0.0})


def _hand_rules_hold(pair_id, space, p, params):
    k = SimpleNamespace(g=space.gamma, p=p, Q=space.Q, **params)
    return all(holds(k) for holds, _ in oracles.HAND_RULES[pair_id])


def _accepts(pair_id, space, p, params):
    try:
        make_pair(pair_id, space, p, params, allow_negative_phi=True)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("pair_id", PAIR_IDS)
def test_derived_refusal_matches_the_hand_rules_off_the_boundary(pair_id):
    # 5,000 draws per pair: spaces up to (4,4,3.7), p in (1.01, 6) and every
    # parameter, R included, in (-8, 8)
    rng = np.random.default_rng(12)
    names, mismatches = tuple(PAIRS[pair_id].defaults), []
    for _ in range(5000):
        space = SpaceParams(int(rng.integers(1, 5)), int(rng.integers(1, 5)), rng.uniform(0.0, 3.7))
        p = rng.uniform(1.01, 6.0)
        params = dict(zip(names, rng.uniform(-8.0, 8.0, len(names))))
        if _accepts(pair_id, space, p, params) != _hand_rules_hold(pair_id, space, p, params):
            mismatches.append((space, p, params))
    assert mismatches == []


def test_every_pair_with_kappa_zero_is_refused():
    # alpha - beta = Q, theta = Q/p and alpha = -1 put kappa at 0 up to
    # rounding; the hand rules accept some of these grid points, where
    # alpha - beta rounds below Q (6.1 - 3.1 < 3), and refuse others
    spaces = [(1, 1, 1.0), (1, 3, 1.5), (2, 1, 0.0), (2, 2, 1.0), (3, 2, 0.5), (4, 4, 3.7), (1, 1, 0.0)]
    hand_accepts = 0
    for space in (SpaceParams(*s) for s in spaces):
        for p in (1.1, 1.5, 2.0, 3.0, 4.7):
            Q = space.Q
            cases = [("dambrosio_power", {"alpha": b + Q, "beta": b}) for b in (-3.3, 0.7, 3.1)]
            cases += [("darca_power", {"alpha": a, "theta": Q / p, "R": 4.0}) for a in (-2.5, 1.0)]
            cases += [("log_ball", {"alpha": -1.0, "R": R}) for R in (0.5, 4.0)]
            for pair_id, params in cases:
                with pytest.raises(ValueError, match="requires kappa > 0, .* kappa = 0 at"):
                    make_pair(pair_id, space, p, params, allow_negative_phi=True)
                hand_accepts += _hand_rules_hold(pair_id, space, p, params)
    assert hand_accepts > 0


def test_an_overflowing_expansion_is_refused_as_an_overflow():
    # Q + beta - alpha overflows to -inf, which made the rounding tolerance
    # infinite and rounded kappa, about -1e308, to 0
    with pytest.raises(ValueError, match="divergence expansion overflows at Q = 3, p = 2, alpha = 1e"):
        make_pair("dambrosio_power", SP, 2.0, {"alpha": 1e308, "beta": -1e308})


def test_an_underflowing_sharp_constant_is_refused():
    # kappa = 3/p: 0.015^200 and (3e-6)^1e6 are 0 in floats
    for p in (200.0, 1e6):
        with pytest.raises(ValueError, match=r"kappa\^p = .* underflows to 0"):
            make_pair("dambrosio_power", SP, p, {"alpha": 0.0, "beta": 0.0})


def test_log_ball_subcritical_flag():
    # Q = 2 < p = 3 flips the sign of phi; only allowed explicitly
    flat = SpaceParams(1, 1, 0.0)
    with pytest.raises(ValueError, match="log_ball: phi < 0 here"):
        make_pair("log_ball", flat, 3.0, {"alpha": -3.0, "R": 4.0})
    pair = make_pair("log_ball", flat, 3.0, {"alpha": -3.0, "R": 4.0}, allow_negative_phi=True)
    assert pair.monomials[WEIGHTS.index("phi"), 0] < 0
    assert pair.phi_batch(np.array([[1.0, 0.5]]))[0] < 0


def test_nch_phi_value():
    pair = make_pair("nch_ball", SP, 2.0, {"R": 4.0})
    z = np.array([[1.0, 0.0]])
    assert pair.phi_batch(z)[0] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert phi_numeric(pair, z, 1e-4)[0] == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_dambrosio_garofalo_substitution():
    # beta = gamma p, alpha = p(1+gamma) collapses v to 1
    p, g = 2.0, SP.gamma
    pair = make_pair("dambrosio_power", SP, p, {"alpha": p * (1.0 + g), "beta": g * p})
    rng = np.random.default_rng(7)
    pts = sample_points(SP, rng, 50)
    r, rho = radial_coords(SP, pts[:, :1], pts[:, 1:])
    assert np.allclose(pair.v_batch(pts), 1.0, rtol=1e-13)
    expected_w = ((SP.Q - p) / p) ** p * r ** (g * p) / rho ** (g * p + p)
    assert np.allclose(pair.w_batch(pts), expected_w, rtol=1e-13)


@pytest.mark.parametrize("space", [SP, SpaceParams(2, 1, 0.5), SpaceParams(1, 2, 0.0)])
def test_darca_reduces_to_dambrosio(space):
    p = 2.5
    darca = make_pair("darca_power", space, p, {"alpha": 0.0, "theta": 1.0, "R": 100.0})
    damb = make_pair(
        "dambrosio_power", space, p, {"alpha": p * (1.0 + space.gamma), "beta": space.gamma * p}
    )
    rng = np.random.default_rng(11)
    pts = sample_points(space, rng, 100)
    assert np.allclose(darca.v_batch(pts), damb.v_batch(pts), rtol=1e-12)
    assert np.allclose(darca.w_batch(pts), damb.w_batch(pts), rtol=1e-12)
    assert darca.sharp_constant == pytest.approx(damb.sharp_constant, rel=1e-15)


PAIR_CASES = [
    ("nch_ball", SP, 2.0, {"R": 4.0}),
    ("nch_ball", SpaceParams(2, 1, 0.5), 3.0, {"R": 6.0}),
    ("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0}),
    ("dambrosio_power", SpaceParams(1, 2, 0.0), 1.5, {"alpha": 1.0, "beta": -0.5}),
    ("darca_power", SP, 2.0, {"alpha": 1.0, "theta": 0.5, "R": 8.0}),
    ("log_ball", SP, 2.0, {"alpha": -3.0, "R": 4.0}),
    ("log_ball", SpaceParams(2, 1, 0.0), 2.0, {"alpha": -2.5, "R": 5.0}),
]


@pytest.mark.parametrize("pair_id,space,p,params", PAIR_CASES)
def test_phi_matches_finite_differences(pair_id, space, p, params):
    pair = make_pair(pair_id, space, p, params)
    rng = np.random.default_rng(13)
    scale = pair.radius if pair.radius is not None else 2.0
    pts = sample_points(space, rng, 8, lo=0.3 * scale, hi=0.7 * scale, x_min=0.1 * scale)
    r, rho = radial_coords(space, pts[:, : space.m], pts[:, space.m :])
    margin = np.minimum(rho, r) if space.gamma > 0 else rho
    if pair.radius is not None:
        margin = np.minimum(margin, pair.radius - rho)
    phi = pair.phi_batch(pts)
    w = pair.w_batch(pts)
    assert np.all(np.abs(phi - phi_numeric(pair, pts, 1e-4 * margin)) <= 1e-6 * (1.0 + p * w))
    assert np.all(phi >= 0.0)


def test_log_ball_critical_q_gives_zero_phi():
    # Q = p makes the (Q - p) factor vanish
    flat = SpaceParams(1, 1, 0.0)
    pair = make_pair("log_ball", flat, 2.0, {"alpha": -3.0, "R": 4.0})
    z = np.array([[0.7, 0.4]])
    assert pair.phi_batch(z)[0] == 0.0
    assert phi_numeric(pair, z, 1e-4)[0] == pytest.approx(0.0, abs=1e-6)


def test_condition_reports():
    dam = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    rep = condition_report(dam, 64, seed=3)
    assert rep["min_phi"] == 0.0
    assert rep["max_abs_mismatch"] <= 1e-6
    nch = make_pair("nch_ball", SP, 2.0, {"R": 4.0})
    rep = condition_report(nch, 64, seed=3)
    assert rep["min_phi"] > 0.0
    assert rep["max_abs_mismatch"] <= 1e-6
    logp = make_pair("log_ball", SP, 2.0, {"alpha": -3.0, "R": 4.0})
    rep = condition_report(logp, 64, seed=3)
    assert rep["min_phi"] >= 0.0
    assert rep["max_abs_mismatch"] <= 1e-6
    assert condition_report(logp, 64, seed=3) == rep


def test_singular_set_descriptors():
    damb = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    assert damb.x_singular and damb.radius is None
    flat = SpaceParams(1, 1, 0.0)
    assert not make_pair("dambrosio_power", flat, 2.0, {"alpha": 0.0, "beta": 0.0}).x_singular
    # beta < 0 puts a negative |x| power into w even at gamma = 0
    assert make_pair("dambrosio_power", flat, 2.0, {"alpha": 0.0, "beta": -1.0}).x_singular
    nch_flat = make_pair("nch_ball", flat, 2.0, {"R": 4.0})
    assert not nch_flat.x_singular and nch_flat.radius == 4.0
    nch = make_pair("nch_ball", SP, 2.0, {"R": 4.0})
    assert nch.x_singular and nch.radius == 4.0


def test_batch_evaluator_guards():
    pair = make_pair("nch_ball", SP, 2.0, {"R": 4.0})
    with pytest.raises(ValueError, match="shape"):
        pair.v_batch(np.zeros((3, 5)))
    # singular points give non-finite values: w at the ball boundary, and
    # v of the power pair on {x = 0}
    assert np.isinf(pair.w_batch(np.array([[4.0, 0.0]]))[0])
    # beyond the ball (rho > R) v, w and phi are nan, also where phi is identically 0
    outside = np.array([[5.0, 0.0], [1.0, 0.0]])
    log_pair = make_pair("log_ball", SP, 2.0, {"alpha": -3.0, "R": 4.0})
    for evaluate in (pair.v_batch, pair.w_batch, pair.phi_batch, log_pair.v_batch):
        values = evaluate(outside)
        assert np.isnan(values[0]) and np.isfinite(values[1])
    darca = make_pair("darca_power", SP, 2.0, {"theta": 0.5, "alpha": 1.0, "R": 4.0})
    assert np.isnan(darca.phi_batch(outside)[0]) and darca.phi_batch(outside)[1] == 0.0
    damb = make_pair("dambrosio_power", SP, 2.0, {"alpha": 0.0, "beta": 0.0})
    assert np.isinf(damb.v_batch(np.array([[0.0, 1.0]]))[0])
    # a single row too close to the ball boundary or to {x = 0} rejects the batch
    with pytest.raises(ValueError, match="ball boundary"):
        phi_numeric(pair, np.array([[1.0, 0.0], [3.999, 0.0]]), 0.01)
    with pytest.raises(ValueError, match="singular set"):
        phi_numeric(pair, np.array([[1.0, 0.0], [0.01, 0.5]]), 0.01)


DECLARED_SPACES = (SpaceParams(1, 1, 1.0), SpaceParams(2, 1, 0.0), SpaceParams(2, 2, 1.0))
# the grid of every pair at its defaults in three spaces and three p, plus
# log_ball at Q = 2 < p = 3, which only allow_negative_phi admits
DECLARED_GRID = [
    (pair_id, space, p, False)
    for space in DECLARED_SPACES
    for pair_id in PAIR_IDS
    for p in (1.5, 2.0, 3.0)
] + [("log_ball", SpaceParams(1, 1, 0.0), 3.0, True)]


def declared_pair(pair_id, space, p, negative):
    return make_pair(pair_id, space, p, dict(PAIRS[pair_id].defaults), allow_negative_phi=negative)


@pytest.mark.parametrize("pair_id,space,p,negative", DECLARED_GRID, ids=str)
def test_declared_weights_match_the_hand_formulas(pair_id, space, p, negative):
    pair = declared_pair(pair_id, space, p, negative)
    scale = pair.radius if pair.radius is not None and pair.radius < 100.0 else 2.0
    pts = sample_points(space, np.random.default_rng(17), 400, 0.02 * scale, 0.98 * scale, 0.01)
    r, rho = radial_coords(space, pts[:, : space.m], pts[:, space.m :])
    want = {name: oracles.hand_weight(pair, name, r, rho) for name in WEIGHTS}
    got = eval_monomials(pair.monomials, log_features(r, rho, pair.radius))
    for name, row in zip(WEIGHTS, got):
        assert np.all(np.abs(row - want[name]) <= 1e-13 * np.abs(want[name])), name
    for name in ("v", "w", "phi"):
        # one row of the same matmul, which BLAS may round differently in the last bits
        row = got[WEIGHTS.index(name)]
        np.testing.assert_allclose(getattr(pair, f"{name}_batch")(pts), row, rtol=1e-14, atol=0)
    assert pair.x_singular == oracles.hand_x_singular(pair)
    assert pair.kappa == pytest.approx(oracles.hand_scalars(pair).kappa, rel=1e-13, abs=0)
    # phi derives as exactly 0 where the hand formula is identically 0
    assert (pair.monomials[WEIGHTS.index("phi"), 0] == 0.0) == bool(np.all(want["phi"] == 0.0))


def test_declared_weights_keep_their_edge_values():
    # v = 1 of the ball pair is exactly 1 on {x = 0}, where log(r/rho) = -inf
    nch = make_pair("nch_ball", SP, 2.0, {"R": 4.0})
    axis = np.column_stack([np.zeros(5), np.linspace(0.1, 2.0, 5)])
    assert np.all(nch.v_batch(axis) == 1.0)
    assert np.all(np.isinf(nch.w_batch(np.array([[4.0, 0.0]]))))
    # a phi declared identically 0 is exactly 0 inside the ball and nan beyond
    darca = make_pair("darca_power", SP, 3.0, {"theta": 0.5, "alpha": 1.0, "R": 4.0})
    pts = sample_points(SP, np.random.default_rng(19), 200, 0.05, 3.95, 0.0)
    assert np.all(darca.phi_batch(pts) == 0.0)
    assert np.all(darca.phi_batch(axis) == 0.0)
    assert np.all(np.isnan(darca.phi_batch(np.array([[4.5, 0.0], [0.0, 9.0]]))))
    # a zero coefficient is exactly 0 inside the domain: log_ball at Q = p
    flat = SpaceParams(1, 1, 0.0)
    log_pair = make_pair("log_ball", flat, 2.0, {"alpha": -3.0, "R": 4.0})
    assert log_pair.monomials[WEIGHTS.index("phi"), 0] == 0.0
    pts = sample_points(flat, np.random.default_rng(23), 200, 0.05, 3.95, 0.0)
    assert np.all(log_pair.phi_batch(pts) == 0.0)


@pytest.mark.parametrize("pair_id,space,p,negative", DECLARED_GRID, ids=str)
def test_condition_mismatch_over_the_declared_grid(pair_id, space, p, negative):
    rep = condition_report(declared_pair(pair_id, space, p, negative), 200, seed=0)
    assert rep["max_abs_mismatch"] <= 1e-10


@pytest.mark.parametrize("pair_id,space,p,negative", DECLARED_GRID, ids=str)
@pytest.mark.parametrize("ascending", (False, True))
def test_derived_extremal_matches_the_hand_entries(pair_id, space, p, negative, ascending):
    pair = declared_pair(pair_id, space, p, negative)
    hand, k = oracles.HAND_EXTREMAL[pair_id], oracles.hand_scalars(pair)
    ext = build_extremal_field(pair, truncation_level=1, ascending=ascending)
    kap = hand["tau_sign"] * (1.0 if ascending else -1.0) * k.kappa
    assert ext.spec.extremal_exponent == pytest.approx(kap, rel=1e-13, abs=0)
    R = pair.params.get("R", np.inf)
    with np.errstate(over="ignore"):
        outer = min(hand["rho_of_tau"](ext.tau_hi, k), np.nextafter(R, 0.0))
    assert ext.spec.inner_rho == pytest.approx(hand["inner"](k), rel=1e-13, abs=0)
    assert ext.spec.outer_rho == pytest.approx(outer, rel=1e-13, abs=0)
    # the range where the ball pairs keep rho a few ulps or more from R
    tau = np.linspace(0.05, min(ext.tau_hi - 0.05, 12.0), 40)
    rho = hand["rho_of_tau"](tau, k)
    np.testing.assert_allclose(ext.rho_of_tau(tau), rho, rtol=1e-13, atol=0)
    np.testing.assert_allclose(ext.tau_of_rho(rho), hand["tau_of_rho"](rho, k), rtol=1e-13, atol=0)
    f, _, f_rho = ext.eval_radial(0.5 * rho, rho)
    prof, d_prof, d_tau = hand["profile"](rho, kap, k)
    S, dS = ext.window(hand["tau_of_rho"](rho, k))
    np.testing.assert_allclose(f, prof * S, rtol=1e-13, atol=0)
    # f_rho is a sum of two terms that can cancel: compare on their scale
    scale = np.abs(d_prof * S) + np.abs(prof * dS * d_tau)
    assert np.all(np.abs(f_rho - (d_prof * S + prof * dS * d_tau)) <= 1e-13 * scale)
    # the mass density is the hand one times a constant
    ratio = ext.probe_weight(tau) / hand["probe_weight"](tau, k)
    assert np.all(np.abs(ratio / ratio[0] - 1.0) <= 1e-13)


@pytest.mark.parametrize("space", DECLARED_SPACES, ids=str)
@pytest.mark.parametrize("p", (1.25, 1.5, 2.0, 3.0))
@pytest.mark.parametrize("case", sorted(HPW_PAIRS))
def test_declared_hpw_weights_match_the_hand_formulas(space, p, case):
    # the display rows that hpw_pair derives at its point, v and
    # w0^(-1/(p-1)), and |kappa|, against the hand-typed displays
    R = PAIRS[HPW_PAIRS[case]].defaults.get("R", np.inf)
    scale = R if np.isfinite(R) else 2.0
    pts = sample_points(space, np.random.default_rng(29), 400, 0.05 * scale, 0.95 * scale, 0.01)
    r, rho = radial_coords(space, pts[:, : space.m], pts[:, space.m :])
    pair = hpw_pair(case, space, p, R)
    v, w0 = eval_monomials(pair.monomials[:2], log_features(r, rho, pair.radius))
    want = oracles.hand_hpw_weights(case, r, rho, space.gamma, p, R)
    for g, w in zip((v, w0 ** (-1.0 / (p - 1.0))), want):
        assert np.all(np.abs(g - w) <= 1e-13 * np.abs(w))
    constant = oracles.HAND_HPW_CONSTANT[case](p, space.Q)
    assert abs(pair.kappa - constant) <= 1e-13 * constant


def random_pair_draw(rng):
    """A random valid (pair id, space, p, params): m, k <= 3, gamma <= 3, p in (1.05, 5)."""
    space = SpaceParams(int(rng.integers(1, 4)), int(rng.integers(1, 4)), float(rng.uniform(0, 3)))
    p, Q = float(rng.uniform(1.05, 5.0)), space.Q
    R = float(rng.uniform(0.5, 10.0))
    pair_id = PAIR_IDS[int(rng.integers(len(PAIR_IDS)))]
    if pair_id == "nch_ball":
        return pair_id, space, p, {"R": R}
    if pair_id == "dambrosio_power":
        beta = float(rng.uniform(-3.0, 3.0))
        return pair_id, space, p, {"alpha": beta + Q * float(rng.uniform(-1.0, 0.95)), "beta": beta}
    if pair_id == "darca_power":
        theta = Q / p * float(rng.uniform(-1.0, 0.95))
        return pair_id, space, p, {"alpha": float(rng.uniform(-3.0, 3.0)), "theta": theta, "R": R}
    return pair_id, space, p, {"alpha": float(rng.uniform(-6.0, -1.05)), "R": R}


def test_derived_rows_match_the_hand_formulas_on_random_pairs():
    # kappa and the rows that make_pair derives from v and w0 against the
    # hand-typed corollaries, on 2400 random pairs at 4 random (|x|, rho) each
    rng = np.random.default_rng(20)
    for _ in range(2400):
        pair_id, space, p, params = random_pair_draw(rng)
        pair = make_pair(pair_id, space, p, params, allow_negative_phi=True)
        want_kappa = oracles.hand_scalars(pair).kappa
        assert abs(pair.kappa - want_kappa) <= 1e-13 * want_kappa, (pair_id, space, p, params)
        scale = pair.radius if pair.radius is not None else 2.0
        rho = scale * rng.uniform(0.2, 0.9, 4)
        r = rho * rng.uniform(0.2, 1.0, 4)
        got = eval_monomials(pair.monomials, log_features(r, rho, pair.radius))
        for name, row in zip(WEIGHTS, got):
            want = oracles.hand_weight(pair, name, r, rho)
            assert np.all(np.abs(row - want) <= 1e-13 * np.abs(want)), (name, pair_id, space, p)
        if np.any(got[WEIGHTS.index("phi")] < 0):  # only allow_negative_phi admits it
            with pytest.raises(ValueError, match="phi < 0"):
                make_pair(pair_id, space, p, params)
