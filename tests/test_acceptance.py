"""Acceptance gates for the verification laboratory.

One test per gate, ordered roughly bottom-up: geometry oracle, convexity
algebra, remainder constants, the identity sweep over the full catalog,
weight conditions, remainder bounds, sharpness, and the interpolation and
uncertainty displays. Each test computes its verdict, prints a single
summary line through the capture bypass so the verdicts are visible in a
plain pytest run, then asserts; budgets are wall-clock seconds.
"""

import json
import pathlib
import time
from typing import Dict, Tuple

import numpy as np

from grushin_hardy.cli import condition_check, divergence_check
from grushin_hardy.cp import ConstantEstimate, CpObjectiveKind, cp_value_batch, find_constant
from grushin_hardy.fields import TestFieldSpec, build_test_field
from grushin_hardy.geometry import SpaceParams
from grushin_hardy.verifier import (
    CknParams,
    sharpness_probe,
    verify_ckn,
    verify_hpw,
    verify_identity_sweep,
    verify_remainder_p_ge2,
    verify_remainder_p_lt2,
)
from grushin_hardy.weights import condition_report, make_pair

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "constants.json"

SPACES = (SpaceParams(1, 1, 1.0), SpaceParams(2, 1, 0.0), SpaceParams(1, 1, 2.0))

PAIR_PARAMS: Dict[str, Dict[str, float]] = {
    "dambrosio_power": {"alpha": 0.0, "beta": 0.0},
    "nch_ball": {"R": 4.0},
    "darca_power": {"theta": 0.5, "alpha": 1.0, "R": 1e30},
    "log_ball": {"alpha": -3.0, "R": 4.0},
}

EXPECTED_SHARP = {
    "dambrosio_power": 2.25,
    "nch_ball": 0.25,
    "darca_power": 1.0,
    "log_ball": 1.0,
}

_CONSTANTS: Dict[Tuple[str, float], ConstantEstimate] = {}


def constant(kind: str, p: float) -> ConstantEstimate:
    key = (kind, p)
    if key not in _CONSTANTS:
        _CONSTANTS[key] = find_constant(CpObjectiveKind(kind=kind, p=p))
    return _CONSTANTS[key]


def golden_value(kind: str, p: float) -> float:
    data = json.loads(GOLDEN_PATH.read_text())
    for entry in data["entries"]:
        if entry["kind"] == kind and entry["p"] == p:
            return float(entry["value"])
    raise KeyError(f"no golden entry for {kind} at p={p}")


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


def sweep_fields(space: SpaceParams):
    """Real and phase-twisted annulus fields on the shared support region."""
    xf = 0.125 if space.gamma > 0 else 0.0
    real_family = "bump_radial_x_cutoff" if xf > 0 else "bump_radial"
    real = build_test_field(space, TestFieldSpec(family=real_family, x_floor=xf))
    twisted = build_test_field(
        space, TestFieldSpec(family="phase_twisted", x_floor=xf, phase_kappa=1.0)
    )
    return real, twisted


def verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def test_gate_1_divergence_oracle(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for space in SPACES:
        rep = divergence_check(space, samples=100, seed=11)
        worst = max(worst, float(rep["max_rel_err"]))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    announce(
        capsys,
        f"[gate 1/8] closed-form divergence vs finite differences: {verdict(ok)}  "
        f"max rel err {worst:.2e} over 3 spaces x 3 exponent pairs x 100 points  "
        f"({elapsed:.1f}s / 5s)",
    )
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_gate_2_cp_algebra(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    n = 100_000
    xi = rng.normal(size=n) + 1j * rng.normal(size=n)
    eta = rng.normal(size=n) + 1j * rng.normal(size=n)
    c2 = cp_value_batch(xi, eta, 2.0)
    err2 = float(np.max(np.abs(c2 - np.abs(eta) ** 2) / (1.0 + np.abs(eta) ** 2)))

    min_val = np.inf
    hom_err = 0.0
    m = 20_000
    for p in (1.25, 1.5, 2.0, 3.0, 4.0):
        for d in (None, 3):
            shape = (m,) if d is None else (m, d)
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            base = cp_value_batch(a, b, p)
            min_val = min(min_val, float(base.min()))
            t = rng.lognormal(sigma=1.0, size=m)
            tt = t if d is None else t[:, None]
            scaled = cp_value_batch(tt * a, tt * b, p)
            hom_err = max(
                hom_err,
                float(np.max(np.abs(scaled - t**p * base) / (1.0 + t**p * base))),
            )
    elapsed = time.monotonic() - t0
    ok = err2 <= 1e-12 and min_val >= 0.0 and hom_err <= 1e-12 and elapsed < 10.0
    announce(
        capsys,
        f"[gate 2/8] convexity functional algebra: {verdict(ok)}  "
        f"C_2 vs |eta|^2 err {err2:.1e}, min C_p {min_val:.1e}, "
        f"homogeneity err {hom_err:.1e}  ({elapsed:.1f}s / 10s)",
    )
    assert err2 <= 1e-12
    assert min_val >= 0.0
    assert hom_err <= 1e-12
    assert elapsed < 10.0


def test_gate_3_remainder_constants(capsys):
    t0 = time.monotonic()
    failures = []

    cp2 = constant("cp_pge2", 2.0)
    if abs(cp2.value - 1.0) > 1e-10:
        failures.append(f"cp(2) = {cp2.value!r} is not 1 within 1e-10")

    for p in (3.0, 4.0):
        est = constant("cp_pge2", p)
        oracle = golden_value("cp_pge2", p)
        if not 0.0 < est.value <= 1.0:
            failures.append(f"cp({p:g}) = {est.value:.6f} outside (0, 1]")
        if not est.bracket[0] - 1e-9 <= oracle <= est.bracket[1] + 1e-9:
            failures.append(
                f"cp({p:g}) oracle {oracle:.9f} outside bracket {est.bracket}"
            )

    for p in (1.25, 1.5, 1.75):
        c1 = constant("c1_inf", p).value
        c2 = constant("c2_sup", p).value
        c3 = constant("c3_min", p).value
        naive = p * (p - 1.0) / (2.0 * p - 1.0)
        cap = p * (p - 1.0) / 2.0 ** (p - 1.0)
        if c1 > naive:
            announce(
                capsys,
                f"  note: c1({p:g}) = {c1:.5f} exceeds p(p-1)/(2p-1) = {naive:.5f}, "
                f"so that endpoint cannot be the true bound; gating on "
                f"p(p-1)/2^(p-1) = {cap:.5f} instead",
            )
        if not 0.0 < c1 <= cap + 1e-9:
            failures.append(f"c1({p:g}) = {c1:.6f} outside (0, {cap:.6f}]")
        if not c2 >= p / 2.0 ** (p - 1.0) - 1e-9:
            failures.append(f"c2({p:g}) = {c2:.6f} below p/2^(p-1)")
        if not 0.0 < c3 <= p * (p - 1.0) / 2.0 + 1e-9:
            failures.append(f"c3({p:g}) = {c3:.6f} outside (0, p(p-1)/2]")
        if c1 > c2 + 1e-12:
            failures.append(f"c1({p:g}) = {c1:.6f} exceeds c2 = {c2:.6f}")

    # every extremum lies on the real axis t = 0
    searches = [("cp_pge2", p) for p in (2.0, 3.0, 4.0)]
    searches += [(kind, p) for p in (1.25, 1.5, 1.75) for kind in ("c1_inf", "c2_sup", "c3_min")]
    for kind, p in searches:
        t = constant(kind, p).argmin_t
        if t != 0.0:
            failures.append(f"{kind}({p:g}) argmin_t = {t!r} is off the real axis")

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 2.0
    announce(
        capsys,
        f"[gate 3/8] remainder constants cp/c1/c2/c3: {verdict(ok)}  "
        f"{len(searches)} searches, {len(failures)} violations  ({elapsed:.1f}s / 2s)",
    )
    assert not failures, failures
    assert elapsed < 2.0


def test_gate_4_identity_sweep(capsys):
    t0 = time.monotonic()
    failures = []
    worst = 0.0
    for space in SPACES:
        fields = sweep_fields(space)
        cases = []
        labels = []
        for pair_id, params in PAIR_PARAMS.items():
            for p in (1.5, 2.0, 3.0):
                pair = make_pair(pair_id, space, p, dict(params))
                for name, fld in zip(("real", "twisted"), fields):
                    cases.append((pair, fld))
                    labels.append(
                        f"({space.m},{space.k},{space.gamma:g}) {pair_id} p={p:g} {name}"
                    )
        reports = verify_identity_sweep(cases)
        for label, rep in zip(labels, reports):
            tol = max(10.0 * rep.quadrature_error, 1e-6 * abs(rep.lhs))
            worst = max(worst, abs(rep.residual) / tol)
            if abs(rep.residual) > tol:
                failures.append(f"{label}: |residual| {abs(rep.residual):.2e} > {tol:.2e}")
        if not all(r.converged for r in reports):
            failures.append(f"({space.m},{space.k},{space.gamma:g}): not converged")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 15.0
    announce(
        capsys,
        f"[gate 4/8] weighted identity sweep: {verdict(ok)}  "
        f"72 cases (4 pairs x 3 exponents x real/twisted x 3 spaces), "
        f"worst |residual|/tol {worst:.1e}  ({elapsed:.0f}s / 15s)",
    )
    assert not failures, failures
    assert elapsed < 15.0


def test_gate_5_weight_conditions(capsys):
    t0 = time.monotonic()
    failures = []
    space = SpaceParams(1, 1, 1.0)
    for pair_id, params in PAIR_PARAMS.items():
        pair = make_pair(pair_id, space, 2.0, dict(params))
        rep = condition_report(pair, samples=200, seed=5)
        if rep["min_phi"] < -1e-9:
            failures.append(f"{pair_id}: min phi {rep['min_phi']:.2e}")
        if rep["max_abs_mismatch"] > 1e-6:
            failures.append(f"{pair_id}: phi mismatch {rep['max_abs_mismatch']:.2e}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 30.0
    announce(
        capsys,
        f"[gate 5/8] weight sign and consistency conditions: {verdict(ok)}  "
        f"4 pairs x 200 points, {len(failures)} violations  ({elapsed:.1f}s / 30s)",
    )
    assert not failures, failures
    assert elapsed < 30.0


def test_gate_6_remainder_bounds(capsys):
    t0 = time.monotonic()
    failures = []
    space = SpaceParams(1, 1, 1.0)
    real, twisted = sweep_fields(space)

    pair2 = make_pair("dambrosio_power", space, 2.0, PAIR_PARAMS["dambrosio_power"])
    rep = verify_remainder_p_ge2(pair2, real, constant=constant("cp_pge2", 2.0))
    eq_err = abs(rep.cp_term - rep.eta_term) / rep.eta_term
    if eq_err > 1e-8 or not rep.converged:
        failures.append(f"p=2 equality off by rel {eq_err:.2e}")

    lower_cases = (
        (3.0, "dambrosio_power"),
        (4.0, "darca_power"),
    )
    for p, pair_id in lower_cases:
        pair = make_pair(pair_id, space, p, PAIR_PARAMS[pair_id])
        for name, fld in (("real", real), ("twisted", twisted)):
            r = verify_remainder_p_ge2(pair, fld, constant=constant("cp_pge2", p))
            if not r.passed:
                failures.append(f"p={p:g} {name}: margin {r.margin:.2e}")

    for p in (1.25, 1.5):
        pair = make_pair("dambrosio_power", space, p, PAIR_PARAMS["dambrosio_power"])
        consts = {k: constant(k, p) for k in ("c1_inf", "c2_sup", "c3_min")}
        for name, fld in (("real", real), ("twisted", twisted)):
            r = verify_remainder_p_lt2(pair, fld, constants=consts)
            if not r.passed:
                worst = min(r.lower_margin, r.upper_margin, r.min_margin)
                failures.append(f"p={p:g} {name}: worst margin {worst:.2e}")

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300.0
    announce(
        capsys,
        f"[gate 6/8] remainder bounds (equality at p=2, lower for p>2, "
        f"sandwich for p<2): {verdict(ok)}  9 checks, {len(failures)} failures  "
        f"({elapsed:.0f}s / 300s)",
    )
    assert not failures, failures
    assert elapsed < 300.0


def test_gate_7_sharpness(capsys):
    t0 = time.monotonic()
    failures = []
    space = SpaceParams(1, 1, 1.0)
    for pair_id, params in PAIR_PARAMS.items():
        pair = make_pair(pair_id, space, 2.0, dict(params))
        rep = sharpness_probe(pair, levels=3)
        ratios = [lv["rayleigh_ratio"] for lv in rep.levels]
        if abs(rep.sharp_constant - EXPECTED_SHARP[pair_id]) > 1e-12:
            failures.append(f"{pair_id}: sharp constant {rep.sharp_constant!r}")
        if any(b >= a for a, b in zip(ratios, ratios[1:])):
            failures.append(f"{pair_id}: ratios {ratios} not decreasing")
        if not rep.passed or rep.final_gap > 0.05:
            failures.append(f"{pair_id}: final gap {rep.final_gap:.3f}")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 600.0
    announce(
        capsys,
        f"[gate 7/8] sharp-constant approach: {verdict(ok)}  "
        f"4 pairs, 3 truncation levels each, all gaps <= 5%  "
        f"({elapsed:.0f}s / 600s)",
    )
    assert not failures, failures
    assert elapsed < 600.0


def test_gate_8_interpolation_and_uncertainty(capsys):
    t0 = time.monotonic()
    failures = []
    space = SpaceParams(1, 1, 1.0)
    real, _ = sweep_fields(space)
    pair = make_pair("dambrosio_power", space, 2.0, PAIR_PARAMS["dambrosio_power"])

    ckn_cases = (
        ("delta=0", CknParams(p=2.0, q=2.0, r=2.0, delta=0.0, b=0.5, c=0.5), 1e-12),
        ("delta=1", CknParams(p=2.0, q=2.0, r=2.0, delta=1.0, b=0.0, c=0.5), 1e-6),
        ("delta=1/2", CknParams(p=2.0, q=2.0, r=2.0, delta=0.5, b=-0.5, c=0.0), None),
    )
    for label, params, reduction_tol in ckn_cases:
        rep = verify_ckn(pair, real, params)
        if not rep.passed:
            failures.append(f"ckn {label}: left {rep.left:.6e} right {rep.right:.6e}")
        if reduction_tol is not None:
            gap = abs(rep.left - rep.right) / rep.right
            if gap > reduction_tol:
                failures.append(f"ckn {label}: reduction gap {gap:.2e} > {reduction_tol:.0e}")

    ball_field = build_test_field(
        space, TestFieldSpec(family="bump_radial_x_cutoff", x_floor=0.125, R=4.0)
    )
    hpw = verify_hpw("ball_nch", 2.0, ball_field)
    if not hpw.passed or hpw.constant != 0.5:
        failures.append(f"hpw ball: left {hpw.left:.6e} right {hpw.right:.6e}")

    hpw = verify_hpw("whole_dambrosio", 2.0, real)
    if not hpw.passed or not (hpw.garofalo and hpw.garofalo["passed"]):
        failures.append(f"hpw whole space: left {hpw.left:.6e} right {hpw.right:.6e}")

    log_space = SpaceParams(1, 1, 2.0)
    log_field = build_test_field(
        log_space, TestFieldSpec(family="bump_radial_x_cutoff", x_floor=0.125, R=44.0)
    )
    hpw = verify_hpw("log_ball", 2.0, log_field)
    if not hpw.passed or hpw.constant != 1.5:
        failures.append(f"hpw log ball: left {hpw.left:.6e} right {hpw.right:.6e}")

    # gamma = 0 comparison against the classical gradient form
    flat = SpaceParams(2, 1, 0.0)
    flat_field = build_test_field(flat, TestFieldSpec(family="bump_radial"))
    hpw = verify_hpw("whole_dambrosio", 2.0, flat_field)
    if not hpw.passed:
        failures.append(f"hpw gamma=0: left {hpw.left:.6e} right {hpw.right:.6e}")
    cl = hpw.classical
    if cl is None or not cl["dominates"] or not cl["left"] > cl["right"]:
        failures.append("hpw gamma=0: classical comparison failed")
    if hpw.garofalo is None or not hpw.garofalo["left"] > hpw.garofalo["right"]:
        failures.append("hpw gamma=0: product form failed")
    if not hpw.left >= hpw.right:
        failures.append("hpw gamma=0: first-power display failed")

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300.0
    announce(
        capsys,
        f"[gate 8/8] interpolation and uncertainty displays: {verdict(ok)}  "
        f"3 interpolation configs, 3 ball/whole-space products, "
        f"classical comparison at gamma=0  ({elapsed:.0f}s / 300s)",
    )
    assert not failures, failures
    assert elapsed < 300.0
