"""The benchmark's workloads: seeded inputs, one pass each, and output checks.

Seed 0 reproduces the repository's own inputs: the pinned ``verify --all``
suite, acceptance gate 4's identity sweep cases and gate 3's constant
searches. Other seeds move parameters only inside the ranges that
``make_pair``, ``TestFieldSpec`` and ``CpObjectiveKind`` validate, and only
by amounts that keep the work of a pass close to seed 0's, so that timings
from different seeds can be compared.

Every pass returns one ``Item`` per check, sweep case or search. An item
fails when its verdict is false, when the call raised, or when its output
disagrees with the reference captured from the parent tree (seed 0 only).
"""

import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from grushin_hardy import cli, cp, verifier
from grushin_hardy.cubature import IntegrationSettings
from grushin_hardy.fields import TestFieldSpec, build_test_field
from grushin_hardy.geometry import SpaceParams
from grushin_hardy.weights import make_pair

REFERENCE_PATH = pathlib.Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("suite_all", "sweep_2d", "sweep_3d", "constants")

# seed pinned in every entry of cli.ALL_SUITE
SUITE_SEED = 20240816

# gate 4's pair parameters
PAIR_PARAMS: Dict[str, Dict[str, float]] = {
    "dambrosio_power": {"alpha": 0.0, "beta": 0.0},
    "nch_ball": {"R": 4.0},
    "darca_power": {"theta": 0.5, "alpha": 1.0, "R": 1e30},
    "log_ball": {"alpha": -3.0, "R": 4.0},
}
SWEEP_P = (1.5, 2.0, 3.0)

# gate 3's searches
GATE3_SEARCHES = tuple(("cp_pge2", p) for p in (2.0, 3.0, 4.0)) + tuple(
    (kind, p) for p in (1.25, 1.5, 1.75) for kind in ("c1_inf", "c2_sup", "c3_min")
)
# closed-form values of c_p that a bracket at that p must contain
ANCHORS = {("cp_pge2", 3.0): 2.0 - math.sqrt(2.0), ("cp_pge2", 4.0): 1.0 / 3.0}
RANGE_SLACK = 1e-9

# keys of a check's terms that are integrals (or ratios of two integrals)
INTEGRAL_KEYS = (
    "lhs",
    "w_term",
    "cp_term",
    "phi_term",
    "eta_term",
    "mixed_term",
    "min_term",
    "grad_term",
    "weight_term",
    "mass_term",
)


@dataclass
class Item:
    label: str
    ok: bool
    note: str = ""
    # integral terms and their quadrature error, compared with the reference
    terms: Dict[str, float] = field(default_factory=dict)
    quadrature_error: float = 0.0


@dataclass
class Workload:
    # runs one pass and returns its items; the argument is a scratch directory
    run: Callable[[pathlib.Path], List[Item]]
    # number of items a pass attempts, charged in full when a pass raises
    n_items: int


# -- suite_all -------------------------------------------------------------------


def _suite_terms(check: Dict) -> Dict[str, float]:
    terms = check["terms"]
    out = {k: float(terms[k]) for k in INTEGRAL_KEYS if isinstance(terms.get(k), (int, float))}
    for i, level in enumerate(terms.get("levels", [])):
        out[f"levels.{i}.rayleigh_ratio"] = float(level["rayleigh_ratio"])
    classical = terms.get("classical")
    if classical:
        out["classical.grad_full"] = float(classical["grad_full"])
    return out


def suite_workload(seed: int, size: str) -> Workload:
    argv = ["verify", "--all", "--seed", str(SUITE_SEED + seed)]
    if size == "tiny":
        argv += ["--rel-tol", "1e-3"]
    n_items = 15

    def run(workdir: pathlib.Path) -> List[Item]:
        out = workdir / "suite_report.json"
        if out.exists():
            out.unlink()
        code = cli.main(argv + ["--out", str(out)])
        if code not in (0, 1):
            raise RuntimeError(f"verify --all exited {code}")
        report = json.loads(out.read_text())
        items = []
        for check in report["checks"]:
            items.append(
                Item(
                    label=check["name"],
                    ok=bool(check["passed"]),
                    note="" if check["passed"] else "verdict false",
                    terms=_suite_terms(check),
                    quadrature_error=float(check["quadrature_error"]),
                )
            )
        if len(items) != n_items:
            raise RuntimeError(f"suite ran {len(items)} checks, expected {n_items}")
        return items

    return Workload(run, n_items)


# -- sweeps ----------------------------------------------------------------------

# space, rel_tol, and the loose rel_tol of the tiny size
SWEEP_SPACES = {
    "sweep_2d": (SpaceParams(1, 1, 1.0), 1e-8, 1e-2),
    "sweep_3d": (SpaceParams(2, 1, 0.0), 1e-3, 1e-1),
}


def sweep_inputs(space: SpaceParams, seed: int):
    """Cases and labels built the way gate 4 builds them.

    Seeds other than 0 move the twist rate of the phase-twisted field, the
    ball radius of the two ball pairs and the log pair's exponent. The
    support region and cutoff stay as at seed 0: moving the |x| cutoff by
    12% more than doubles the evals the 2-D sweep needs.
    """
    params = {k: dict(v) for k, v in PAIR_PARAMS.items()}
    kappa = 1.0
    if seed != 0:
        rng = np.random.default_rng(seed)
        kappa = float(rng.uniform(0.75, 1.25))
        params["nch_ball"]["R"] = float(rng.uniform(3.5, 4.5))
        params["log_ball"]["R"] = float(rng.uniform(3.5, 4.5))
        params["log_ball"]["alpha"] = float(rng.uniform(-3.5, -2.5))
    xf = 0.125 if space.gamma > 0 else 0.0
    real_family = "bump_radial_x_cutoff" if xf > 0 else "bump_radial"
    real = build_test_field(space, TestFieldSpec(family=real_family, x_floor=xf))
    twisted = build_test_field(
        space, TestFieldSpec(family="phase_twisted", x_floor=xf, phase_kappa=kappa)
    )
    cases, labels = [], []
    for pair_id in params:
        for p in SWEEP_P:
            pair = make_pair(pair_id, space, p, dict(params[pair_id]))
            for name, fld in (("real", real), ("twisted", twisted)):
                cases.append((pair, fld))
                labels.append(f"{pair_id} p={p:g} {name}")
    return cases, labels


def sweep_workload(name: str, seed: int, size: str) -> Workload:
    space, rel_tol, tiny_rel_tol = SWEEP_SPACES[name]
    cases, labels = sweep_inputs(space, seed)
    settings = IntegrationSettings(rel_tol=tiny_rel_tol if size == "tiny" else rel_tol)

    def run(workdir: pathlib.Path) -> List[Item]:
        reports = verifier.verify_identity_sweep(cases, settings)
        return [
            Item(
                label=label,
                ok=rep.passed,
                note="" if rep.passed else "verdict false",
                terms={k: getattr(rep, k) for k in ("lhs", "w_term", "cp_term", "phi_term")},
                quadrature_error=rep.quadrature_error,
            )
            for label, rep in zip(labels, reports)
        ]

    return Workload(run, len(cases))


# -- constants -------------------------------------------------------------------


def constant_searches(seed: int, size: str) -> List[Tuple[str, float]]:
    """Gate 3's (kind, p) searches; other seeds draw p per kind. The tiny
    size keeps the first search of each kind."""
    searches = list(GATE3_SEARCHES)
    if seed != 0:
        rng = np.random.default_rng(seed)
        searches = [("cp_pge2", float(p)) for p in rng.uniform(2.0, 4.5, 3)]
        for p in rng.uniform(1.2, 1.8, 3):
            searches += [(kind, float(p)) for kind in ("c1_inf", "c2_sup", "c3_min")]
    if size == "tiny":
        searches = searches[:1] + searches[3:6]
    return searches


def check_constant(kind: str, p: float, est) -> str:
    """Empty when the bracket is sound, else what is wrong with it."""
    lo, hi = est.bracket
    range_lo, range_hi = cp.stated_range(cp.CpObjectiveKind(kind=kind, p=p))
    if not lo <= est.value <= hi:
        return f"value {est.value!r} outside its bracket {est.bracket}"
    if lo < range_lo - RANGE_SLACK or hi > range_hi + RANGE_SLACK:
        return f"bracket {est.bracket} leaves the stated range ({range_lo}, {range_hi})"
    anchor = ANCHORS.get((kind, p))
    if anchor is not None and not lo <= anchor <= hi:
        return f"bracket {est.bracket} misses the closed form {anchor!r}"
    return ""


def constants_workload(seed: int, size: str) -> Workload:
    searches = constant_searches(seed, size)
    kinds = [cp.CpObjectiveKind(kind=k, p=p) for k, p in searches]

    def run(workdir: pathlib.Path) -> List[Item]:
        items = []
        for kind in kinds:
            label = f"{kind.kind} p={kind.p:g}"
            try:
                est = cp.find_constant(kind)
            except Exception as exc:  # an exception is a failed search, not a crash
                items.append(Item(label, False, f"{type(exc).__name__}: {exc}"))
                continue
            problem = check_constant(kind.kind, kind.p, est)
            items.append(Item(label, not problem, problem))
        return items

    return Workload(run, len(kinds))


def build(name: str, seed: int, size: str = "full") -> Workload:
    if name == "suite_all":
        return suite_workload(seed, size)
    if name in SWEEP_SPACES:
        return sweep_workload(name, seed, size)
    if name == "constants":
        return constants_workload(seed, size)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


# -- reference comparison --------------------------------------------------------


def load_reference(name: str) -> Optional[Dict]:
    data = json.loads(REFERENCE_PATH.read_text())
    return data.get(name)


def compare_with_reference(items: List[Item], reference: Dict) -> None:
    """Mark items whose integral terms moved by more than 10x their error.

    The allowance is 10 times the larger of the two reported quadrature
    errors, so a more accurate integral is still compared fairly.
    """
    if sorted(reference) != sorted(it.label for it in items):
        missing = sorted(set(reference) - {it.label for it in items})
        extra = sorted({it.label for it in items} - set(reference))
        for it in items:
            it.ok = False
            it.note = f"items differ from the reference: missing {missing}, extra {extra}"
        return
    for it in items:
        ref = reference[it.label]
        allow = 10.0 * max(it.quadrature_error, ref["quadrature_error"])
        if sorted(ref["terms"]) != sorted(it.terms):
            it.ok = False
            it.note = f"terms {sorted(it.terms)} differ from the reference {sorted(ref['terms'])}"
            continue
        for key, want in ref["terms"].items():
            got = it.terms[key]
            if not abs(got - want) <= allow:
                it.ok = False
                it.note = f"{key} = {got!r}, reference {want!r}, allowed {allow:.3e}"
                break


def reference_record(items: List[Item]) -> Dict:
    return {
        it.label: {"terms": it.terms, "quadrature_error": it.quadrature_error}
        for it in items
    }
