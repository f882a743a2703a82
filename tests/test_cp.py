"""C_p algebra, remainder-constant objectives, and the global constant search."""

import json
import math
import os

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from grushin_hardy import cp
from grushin_hardy.cp import (
    ConstantEstimate,
    CpObjectiveKind,
    _quotient,
    cp_value,
    cp_value_batch,
    find_constant,
    objective,
    stated_range,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "constants.json")

with open(GOLDEN_PATH, "r", encoding="utf-8") as _h:
    GOLDEN = json.load(_h)


def random_pairs(rng, count, dim):
    xi = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    eta = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return xi, eta


def test_cp_value_examples():
    assert cp_value(1 + 2j, 3.0, 2.0) == pytest.approx(9.0, rel=1e-14)
    for p in (1.25, 1.5, 2.0, 3.0, 4.0):
        assert cp_value(np.array([0.3 - 1j, 2.0]), np.zeros(2), p) == pytest.approx(0.0, abs=1e-14)
    assert cp_value(2.0, 2.0, 3.0) == pytest.approx(8.0, rel=1e-14)


def test_cp_value_validation():
    with pytest.raises(ValueError):
        cp_value(np.ones(2), np.ones(3), 2.0)
    with pytest.raises(ValueError):
        cp_value(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        cp_value(1.0, 1.0, 0.5)


def test_c2_identity_random():
    rng = np.random.default_rng(101)
    for dim in (1, 2, 3):
        xi, eta = random_pairs(rng, 40000, dim)
        vals = cp_value_batch(xi, eta, 2.0)
        eta_sq = np.linalg.norm(eta, axis=1) ** 2
        assert np.all(np.abs(vals - eta_sq) <= 1e-12 * (1.0 + eta_sq))


def test_nonnegativity_and_zero_set():
    rng = np.random.default_rng(102)
    for p in (1.25, 1.5, 2.0, 3.0, 4.0):
        for dim in (1, 2, 3):
            xi, eta = random_pairs(rng, 8000, dim)
            vals = cp_value_batch(xi, eta, p)
            scale = (np.linalg.norm(xi, axis=1) + np.linalg.norm(eta, axis=1)) ** p
            assert np.all(vals >= -1e-12 * scale)
            # strictly positive away from eta = 0
            big = np.linalg.norm(eta, axis=1) > 0.1
            assert np.all(vals[big] > 0.0)


def test_homogeneity_degree_p():
    rng = np.random.default_rng(103)
    for p in (1.25, 1.5, 2.0, 3.0, 4.0):
        xi, eta = random_pairs(rng, 2000, 2)
        lam = rng.uniform(0.2, 5.0, size=2000)
        base = cp_value_batch(xi, eta, p)
        scaled = cp_value_batch(lam[:, None] * xi, lam[:, None] * eta, p)
        assert np.all(np.abs(scaled - lam**p * base) <= 1e-12 * (1.0 + np.abs(scaled)))


def test_cp_value_matches_objective_numerator():
    # with xi = 1 + s + it and eta = s + it the pair reduces to the polar
    # numerator ((1+s)^2 + t^2)^(p/2) - 1 - ps
    rng = np.random.default_rng(104)
    for p in (1.25, 1.5, 2.0, 3.0, 4.0):
        for _ in range(50):
            s, t = rng.normal(scale=2.0), rng.normal(scale=2.0)
            direct = ((1.0 + s) ** 2 + t**2) ** (p / 2.0) - 1.0 - p * s
            via_cp = cp_value(complex(1.0 + s, t), complex(s, t), p)
            assert via_cp == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_objective_examples():
    rng = np.random.default_rng(105)
    kind2 = CpObjectiveKind("cp_pge2", 2.0)
    for _ in range(20):
        s, t = rng.normal(scale=3.0), rng.normal(scale=3.0)
        if s == 0 and t == 0:
            continue
        assert objective(kind2, s, t) == pytest.approx(1.0, rel=1e-12)
    assert objective(CpObjectiveKind("cp_pge2", 4.0), 0.0, 1.0) == pytest.approx(3.0, rel=1e-14)
    k1 = CpObjectiveKind("c1_inf", 1.5)
    assert objective(k1, 0.0, 1e-4) == pytest.approx(1.5 / 2**0.5, rel=1e-3)
    with pytest.raises(ValueError):
        objective(kind2, 0.0, 0.0)
    # float overflow (r^2 = 1e300) and underflow (r^2 = 0) give nan, as the
    # array evaluator does, instead of raising
    k3 = CpObjectiveKind("cp_pge2", 3.0)
    for s in (1e150, 1e-170):
        assert np.isnan(objective(k3, s, 0.0))
        with np.errstate(all="ignore"):
            assert np.isnan(_quotient(k3, np.array([s]), np.array([0.0]))[0])


SAMPLE_KINDS = [
    CpObjectiveKind("cp_pge2", 3.0),
    CpObjectiveKind("c1_inf", 1.5),
    CpObjectiveKind("c2_sup", 1.25),
    CpObjectiveKind("c3_min", 1.75),
]


@pytest.mark.parametrize("kind", SAMPLE_KINDS, ids=lambda k: k.kind)
def test_objective_matches_array_evaluator(kind):
    # the single-point evaluator serves the refinement, the array evaluator
    # serves the scan; both must give one quotient
    rng = np.random.default_rng(108)
    n = 20000
    r = np.concatenate([10.0 ** rng.uniform(-6.0, 6.0, n), rng.uniform(1e-3, 0.04, n)])
    theta = rng.uniform(-np.pi, np.pi, 2 * n)
    s, t = r * np.cos(theta), r * np.sin(theta)
    g = 2.0 * s + r * r
    # both numerator branches and both c3_min branches are sampled
    assert (np.abs(g) <= 0.1).sum() > n // 2 and (np.abs(g) > 0.1).sum() > n // 2
    assert (r < 1.0).sum() > n and (r >= 1.0).sum() > n // 4
    want = _quotient(kind, s, t)
    got = np.array([objective(kind, a, b) for a, b in zip(s.tolist(), t.tolist())])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    # N and every denominator depend on t only through t^2
    mirrored = np.array([objective(kind, a, -b) for a, b in zip(s.tolist(), t.tolist())])
    assert np.array_equal(mirrored, got)


@pytest.mark.parametrize("kind", SAMPLE_KINDS, ids=lambda k: k.kind)
def test_find_constant_returns_builtin_types(kind):
    # report fields built from these go straight into json.dumps
    est = find_constant(kind)
    for x in (est.value, est.argmin_s, est.argmin_t, *est.bracket):
        assert type(x) is float
    assert type(est.refined) is bool
    # every extremum lies on the real axis
    assert est.argmin_t == 0.0


ORACLE_KINDS = [CpObjectiveKind("cp_pge2", float(p)) for p in np.linspace(2.0, 6.0, 20)] + [
    CpObjectiveKind(kind, float(p))
    for kind in ("c1_inf", "c2_sup", "c3_min")
    for p in np.linspace(1.02, 1.98, 20)
]


def test_no_polar_sample_beats_the_axis_extremum():
    # the axis lemma, checked off the axis: on a polar grid of 361 angles in
    # [0, pi] (the quotient is even in t) by 482 radii, including r = 1 for
    # the c3_min seam, no sample may fall below an infimum (or rise above
    # the c2_sup supremum) by more than 1e-14 relative
    theta = np.linspace(0.0, np.pi, 361)
    radii = np.append(np.geomspace(1e-6, 1e6, 481), 1.0)
    s = radii[:, None] * np.cos(theta)[None, :]
    t = radii[:, None] * np.sin(theta)[None, :]
    for kind in ORACLE_KINDS:
        est = find_constant(kind)
        sign = -1.0 if kind.kind == "c2_sup" else 1.0
        with np.errstate(invalid="ignore"):
            grid_best = sign * np.nanmin(sign * _quotient(kind, s, t))
        assert sign * (est.value - grid_best) <= 1e-14 * (1.0 + abs(est.value)), (kind, est.value, grid_best)
        # the grid holds the axis scan, so its best lies inside the bracket
        lo, hi = est.bracket
        assert lo <= grid_best <= hi, (kind, grid_best, est.bracket)


@pytest.mark.parametrize("p", np.linspace(1.02, 1.98, 25).tolist())
def test_c3_min_is_the_seam_value(p):
    # N is concave in s at fixed r, so c3_min is the smaller axis branch
    # minimum; both meet at s = 1, which gives 2^p - 1 - p
    est = find_constant(CpObjectiveKind("c3_min", p))
    closed = 2.0**p - 1.0 - p
    assert est.value == pytest.approx(closed, rel=1e-13)
    lo, hi = est.bracket
    assert lo <= closed <= hi


def test_kind_validation():
    with pytest.raises(ValueError):
        CpObjectiveKind("cp_pge2", 1.5)
    with pytest.raises(ValueError):
        CpObjectiveKind("c1_inf", 2.5)
    with pytest.raises(ValueError):
        CpObjectiveKind("nope", 1.5)
    for p in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            CpObjectiveKind("cp_pge2", p)


def test_find_constant_p2_is_one():
    est = find_constant(CpObjectiveKind("cp_pge2", 2.0))
    assert est.value == pytest.approx(1.0, abs=1e-10)
    lo, hi = est.bracket
    assert hi - lo <= 1e-10
    assert lo <= est.value <= hi
    # the evaluator reads 1 +- 5e-14 on the axis; the bracket covers that
    assert lo <= 1.0 <= hi


@pytest.mark.parametrize("entry", GOLDEN["entries"], ids=lambda e: f"{e['kind']}-p{e['p']}")
def test_find_constant_brackets_golden(entry):
    kind = CpObjectiveKind(entry["kind"], entry["p"])
    est = find_constant(kind)
    lo, hi = est.bracket
    assert lo <= hi
    assert lo <= est.value <= hi
    assert lo <= entry["value"] <= hi
    if "anchor_value" in entry:
        assert est.value == pytest.approx(entry["anchor_value"], rel=1e-9)
        assert lo <= entry["anchor_value"] <= hi
    lo_r, hi_r = stated_range(kind)
    if kind.kind == "c2_sup":
        assert lo_r <= est.value < hi_r
    else:
        assert lo_r < est.value <= hi_r


@pytest.mark.parametrize("p", [1.25, 1.5, 1.75])
def test_sandwich_constants(p):
    c1 = find_constant(CpObjectiveKind("c1_inf", p)).value
    c2 = find_constant(CpObjectiveKind("c2_sup", p)).value
    c3 = find_constant(CpObjectiveKind("c3_min", p)).value
    lo1, hi1 = stated_range(CpObjectiveKind("c1_inf", p))
    lo2, hi2 = stated_range(CpObjectiveKind("c2_sup", p))
    assert lo1 < c1 <= hi1 and lo2 <= c2 < hi2
    assert 0.0 < c3 <= p * (p - 1.0) / 2.0
    assert c1 <= c2


def test_pointwise_lemma_bounds():
    rng = np.random.default_rng(106)
    consts = {p: find_constant(CpObjectiveKind("cp_pge2", p)).value for p in (2.0, 3.0, 4.0)}
    c1 = find_constant(CpObjectiveKind("c1_inf", 1.5)).value
    c2 = find_constant(CpObjectiveKind("c2_sup", 1.5)).value
    c3 = find_constant(CpObjectiveKind("c3_min", 1.5)).value
    for dim in (1, 2, 3):
        xi, eta = random_pairs(rng, 3400, dim)
        eta_n = np.linalg.norm(eta, axis=1)
        diff_n = np.linalg.norm(xi - eta, axis=1)
        xi_n = np.linalg.norm(xi, axis=1)
        for p in (2.0, 3.0, 4.0):
            vals = cp_value_batch(xi, eta, p)
            tol = 1e-9 * (1.0 + xi_n + eta_n) ** p
            assert np.all(vals >= consts[p] * eta_n**p - tol)
        p = 1.5
        vals = cp_value_batch(xi, eta, p)
        tol = 1e-9 * (1.0 + xi_n + eta_n) ** p
        mid = (xi_n + diff_n) ** (p - 2.0) * eta_n**2
        assert np.all(c1 * mid - tol <= vals)
        assert np.all(vals <= c2 * mid + tol)
        with np.errstate(divide="ignore"):
            min_form = np.minimum(eta_n**p, diff_n ** (p - 2.0) * eta_n**2)
        assert np.all(vals >= c3 * min_form - tol)


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.5])
def test_cp_value_batch_scalar_kernel_matches_vector_path(p):
    rng = np.random.default_rng(107)
    n = 600
    xi, eta = (z[:, 0] for z in random_pairs(rng, n, 1))
    # exact ties xi == eta take the continuous extension; the next block
    # approaches it along random directions down to |xi - eta| = 1e-14
    eta[:50] = xi[:50]
    step = 10.0 ** -rng.uniform(4.0, 14.0, 100) * np.exp(2j * np.pi * rng.random(100))
    eta[50:150] = xi[50:150] - step
    for a, b in ((xi, eta), (xi.real, eta.real)):
        got = cp_value_batch(a, b, p)
        want = cp_value_batch(a[:, None], b[:, None], p)
        assert got.shape == (n,) and got.dtype == np.float64
        scale = (np.abs(a) + np.abs(b)) ** p
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
    assert np.array_equal(cp_value_batch(xi[:50], xi[:50], p), np.abs(xi[:50]) ** p)
    assert np.array_equal(cp_value_batch(xi.real[:50], xi.real[:50], p), np.abs(xi.real[:50]) ** p)


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.0])
def test_cp_value_batch_matches_the_literal_formula(p):
    # |xi|^p - |xi-eta|^p - p |xi-eta|^(p-2) Re((xi-eta) conj(eta)) in 40
    # digits; the batch form takes t^p as t t^(p-1), so each of its powers
    # carries about p ulp, and 4p ulp of the larger power bounds the error
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = np.random.default_rng(109)
    n = 400

    def moduli_and_phases():
        return 10.0 ** rng.uniform(-3.0, 3.0, n) * np.exp(2j * np.pi * rng.random(n))

    xi, eta = moduli_and_phases(), moduli_and_phases()
    # a quarter with eta close to xi, down to |xi - eta| = 1e-12 |xi|
    step = 10.0 ** -rng.uniform(1.0, 12.0, 100) * np.exp(2j * np.pi * rng.random(100))
    eta[:100] = xi[:100] * (1.0 + step)
    got = cp_value_batch(xi, eta, p)
    for g, x, e in zip(got, xi, eta):
        xm, em = mpmath.mpc(x), mpmath.mpc(e)
        t = abs(xm - em)
        literal = abs(xm) ** p - t**p - p * t ** (p - 2) * mpmath.re((xm - em) * mpmath.conj(em))
        scale = max(abs(x) ** p, abs(x - e) ** p)
        assert abs(g - float(literal)) <= 4.0 * p * np.finfo(float).eps * scale, (x, e)


def test_c3_seam_value():
    # both branches meet at r = 1; the axis point (1, 0) evaluates to
    # 4^(3/4) - 1 - 3/2 = 2 sqrt(2) - 5/2 for p = 1.5
    k = CpObjectiveKind("c3_min", 1.5)
    assert objective(k, 1.0, 0.0) == pytest.approx(2.0 * np.sqrt(2.0) - 2.5, rel=1e-14)


# -- the golden-section refinement, with scipy's bounded Brent as the oracle ------

GATE3_SEARCHES = [("cp_pge2", p) for p in (2.0, 3.0, 4.0)] + [
    (kind, p) for p in (1.25, 1.5, 1.75) for kind in ("c1_inf", "c2_sup", "c3_min")
]


def refined_intervals():
    """The (kind, side, a, b) log|s| intervals that find_constant refines in
    gate 3's twelve searches: one scan step either side of each sign's best
    scan point."""
    d, per = cp._RADIUS_DECADES, cp._RADIUS_PER_DECADE
    radii = np.geomspace(10.0 ** (-d), 10.0**d, 2 * d * per + 1)
    h = math.log(10.0) / per
    out = []
    for name, p in GATE3_SEARCHES:
        kind = CpObjectiveKind(name, p)
        sign = -1.0 if name == "c2_sup" else 1.0
        for side in (-1.0, 1.0):
            scores = sign * _quotient(kind, side * radii, np.zeros_like(radii))
            scores[np.isnan(scores)] = np.inf
            x = math.log(radii[int(np.argmin(scores))])
            out.append(pytest.param(kind, side, x - h, x + h, id=f"{name}-p{p:g}-s{side:+g}"))
    return out


@pytest.mark.parametrize("kind,side,a,b", refined_intervals())
def test_golden_section_matches_scipy_bounded_on_the_refined_intervals(kind, side, a, b):
    sign = -1.0 if kind.kind == "c2_sup" else 1.0

    def f(x):
        q = objective(kind, side * math.exp(x), 0.0)
        return sign * q if math.isfinite(q) else math.inf

    x, fun = cp._golden_section(f, a, b)
    assert a <= x <= b and fun == f(x)
    ref = minimize_scalar(f, bounds=(a, b), method="bounded", options={"xatol": 1e-12})
    # where the minimum sits at an end of the interval or at the c3_min seam
    # s = 1 (its centre), each search stops about its x tolerance short of it;
    # find_constant also holds the three scan points, which cover those cases
    scan = min(f(a), f(0.5 * (a + b)), f(b))
    assert min(fun, scan) == pytest.approx(min(float(ref.fun), scan), rel=1e-13, abs=0.0)

