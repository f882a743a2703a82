"""Batch front-end: parse a run configuration, execute the requested checks,
and emit machine-readable reports.

A run is described by a JSON config file (key-value with nesting) or by
flags; flags override file values. Reports echo the fully normalized
configuration so a report alone reproduces its run. JSON output is canonical
(sorted keys, two-space indent) and byte-identical across repeat runs except
for the wall_clock_seconds field.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 invalid
input or configuration.
"""

import argparse
import csv
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, fields
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np
import scipy

from . import __version__
from .cp import CpObjectiveKind, find_constant
from .cubature import IntegrationSettings
from .fields import TestField, TestFieldSpec, build_extremal_field, build_test_field
from .geometry import (
    SpaceParams,
    div_weighted_rho_closed_form,
    fd_divergence,
    grad_gamma_rho,
    radial_coords,
)
# the checks outside the shared mesh are called through _CHECKS by their names
# in this module; the verify_* names stay bound for perfbench/tracer.py
from .verifier import (
    FIELD_CHECKS,
    CknParams,
    sharpness_probe,
    verify_checks,
    verify_ckn,
    verify_hpw,
    verify_identity,
    verify_inequality,
    verify_remainder_p_ge2,
    verify_remainder_p_lt2,
)
from .weights import PAIRS, WeightPair, condition_report, make_pair, rejection_sample

__all__ = ["RunConfig", "run", "report_export", "main"]

CONSTANT_KINDS = {
    "cp": "cp_pge2",
    "c1": "c1_inf",
    "c2": "c2_sup",
    "c3": "c3_min",
}

DIVERGENCE_COMBOS = ((0.0, 0.0), (1.0, -1.0), (-1.0, 1.0))

# the field config's numbers; their defaults are TestFieldSpec's
_FIELD_NUMBERS = ("inner_rho", "outer_rho", "smoothness_margin", "phase_kappa")


@dataclass(frozen=True)
class RunConfig:
    """Normalized run description; every field is echoed into the report."""

    space: SpaceParams
    pair_id: str
    pair_params: Dict[str, float]
    p: float
    field: Dict[str, object]
    quadrature: IntegrationSettings
    checks: Tuple[str, ...]
    ckn: Optional[Dict[str, float]]  # CknParams' fields, built when the ckn check runs
    seed: int

    def __post_init__(self) -> None:
        if not self.checks:
            raise ValueError("checks must name at least one check")
        for name in self.checks:
            if name not in CHECK_NAMES:
                raise ValueError(f"unknown check {name!r}; expected one of {CHECK_NAMES}")


def _section(value: object, label: str) -> Dict:
    if not isinstance(value, dict):
        raise ValueError(f"{label} must be an object")
    return value


def _take(data: object, allowed: Dict[str, object], section: str) -> Dict:
    out = dict(allowed)
    for key, value in _section(data, section).items():
        if key not in allowed:
            raise ValueError(f"unknown {section} key {key!r}")
        out[key] = value
    return out


def _num(value: object, label: str) -> float:
    """Reject config values that are not finite plain numbers: a nested
    structure would raise a bare TypeError, a NaN pass every comparison."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{label} must be a number")
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{label} must be finite")
    return float(value)


def _int(value: object, label: str) -> int:
    number = _num(value, label)
    if not number.is_integer():
        raise ValueError(f"{label} must be an integer")
    return int(number)


def config_from_dict(data: Dict) -> RunConfig:
    """Build and validate a RunConfig; raises ValueError on any bad value."""
    known = {"space", "pair", "p", "field", "quadrature", "checks", "ckn", "seed"}
    for key in _section(data, "config"):
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
    if "space" not in data or "pair" not in data:
        raise ValueError("config requires 'space' and 'pair' sections")

    sp = _take(data["space"], {"m": 1, "k": 1, "gamma": 1.0}, "space")
    space = SpaceParams(
        _int(sp["m"], "space.m"),
        _int(sp["k"], "space.k"),
        _num(sp["gamma"], "space.gamma"),
    )

    pair_section = dict(_section(data["pair"], "pair"))
    pair_id = pair_section.pop("id", None)
    if not isinstance(pair_id, str):
        raise ValueError("pair section requires a string 'id'")
    pair_params = {k: _num(v, f"pair.{k}") for k, v in pair_section.items()}

    p = _num(data.get("p", 2.0), "p")

    # family and x_floor left open are resolved against the pair in _build_objects
    defaults = {f.name: f.default for f in fields(TestFieldSpec) if f.name in _FIELD_NUMBERS}
    defaults.update(family=None, x_floor=None, truncation_level=0)
    field_cfg = _take(data.get("field", {}), defaults, "field")
    if field_cfg["family"] is not None and not isinstance(field_cfg["family"], str):
        raise ValueError("field.family must be a string")
    for key in _FIELD_NUMBERS:
        field_cfg[key] = _num(field_cfg[key], f"field.{key}")
    if field_cfg["x_floor"] is not None:
        field_cfg["x_floor"] = _num(field_cfg["x_floor"], "field.x_floor")
    field_cfg["truncation_level"] = _int(field_cfg["truncation_level"], "field.truncation_level")

    quad = _take(data.get("quadrature", {}), asdict(IntegrationSettings()), "quadrature")
    settings = IntegrationSettings(
        rel_tol=_num(quad["rel_tol"], "quadrature.rel_tol"),
        abs_tol=_num(quad["abs_tol"], "quadrature.abs_tol"),
        max_evals=_int(quad["max_evals"], "quadrature.max_evals"),
    )

    raw_checks = data.get("checks", [])
    if not isinstance(raw_checks, (list, tuple)) or not all(isinstance(c, str) for c in raw_checks):
        raise ValueError("checks must be a list of check names")
    checks = tuple(raw_checks)

    ckn = None
    if data.get("ckn") is not None:
        ck = _take(
            data["ckn"],
            {"p": p, "q": 2.0, "r": 2.0, "delta": 0.5, "b": -0.5, "c": 0.0},
            "ckn",
        )
        ckn = {key: _num(value, f"ckn.{key}") for key, value in ck.items()}

    seed = _int(data.get("seed", 0), "seed")
    return RunConfig(
        space=space,
        pair_id=pair_id,
        pair_params=pair_params,
        p=p,
        field=field_cfg,
        quadrature=settings,
        checks=checks,
        ckn=ckn,
        seed=seed,
    )


def config_to_dict(config: RunConfig) -> Dict:
    echo = asdict(config)
    echo["pair"] = {"id": echo.pop("pair_id"), **echo.pop("pair_params")}
    return echo


def _build_objects(config: RunConfig):
    """Pair, field, and the normalized field echo for a run.

    The config may leave family and x_floor open; the defaults depend on the
    pair (a pair singular on {x=0} gets the quarter-inner-radius tube), so
    they are resolved here and returned for the report echo.
    """
    pair = make_pair(config.pair_id, config.space, config.p, config.pair_params)
    field_cfg = dict(config.field)
    family = field_cfg["family"]
    x_floor = field_cfg["x_floor"]
    if x_floor is None:
        x_floor = 0.25 * float(field_cfg["inner_rho"]) if pair.x_singular else 0.0
    if family is None:
        family = "bump_radial_x_cutoff" if x_floor > 0.0 else "bump_radial"
    field_cfg["family"] = family
    field_cfg["x_floor"] = x_floor

    if family == "extremal_truncated":
        field = build_extremal_field(pair, truncation_level=field_cfg["truncation_level"])
    else:
        spec = TestFieldSpec(
            family=family,
            x_floor=x_floor,
            R=pair.radius if pair.radius is not None else float("inf"),
            **{key: field_cfg[key] for key in _FIELD_NUMBERS},
        )
        field = build_test_field(config.space, spec)
    return pair, field, field_cfg


def _weighted_rho_field(space: SpaceParams, c: float, s: float):
    def field(pts: np.ndarray) -> np.ndarray:
        r, rho_v = radial_coords(space, pts[:, : space.m], pts[:, space.m :])
        return (rho_v**c * r**s)[:, None] * grad_gamma_rho(space, pts)

    return field


def divergence_check(space: SpaceParams, samples: int, seed: int) -> Dict[str, object]:
    """Closed-form vs finite-difference divergence on uniform points of
    [-2, 2]^n with rho in [0.5, 2] and |x| >= 0.2."""
    pts = rejection_sample(
        space, 2.0, lambda r, rho_v: (rho_v >= 0.5) & (rho_v <= 2.0) & (r >= 0.2), samples, seed
    )
    r, rho_v = radial_coords(space, pts[:, : space.m], pts[:, space.m :])
    # Richardson error ~ step^4; 1e-3 of the singular-set distance keeps
    # it far below the 1e-6 gate without hitting roundoff
    step = 1e-3 * np.minimum(r, rho_v)
    worst = 0.0
    for c, s in DIVERGENCE_COMBOS:
        closed = div_weighted_rho_closed_form(space, pts, c, s)
        approx = fd_divergence(space, _weighted_rho_field(space, c, s), pts, step)
        worst = max(worst, float(np.max(np.abs(approx - closed) / np.abs(closed))))
    return {
        "samples": samples,
        "combos": [list(cs) for cs in DIVERGENCE_COMBOS],
        "max_rel_err": worst,
        "passed": bool(worst <= 1e-6),
    }


def condition_check(pair, samples: int, seed: int) -> Dict[str, object]:
    rep = condition_report(pair, samples=samples, seed=seed)
    phi_ok = pair.allow_negative_phi or rep["min_phi"] >= -1e-9
    out: Dict[str, object] = dict(rep)
    out["samples"] = samples
    out["passed"] = bool(phi_ok and rep["max_abs_mismatch"] <= 1e-6)
    return out


def _ckn_args(config: RunConfig, pair: WeightPair, field: TestField) -> tuple:
    if config.ckn is None:
        raise ValueError("ckn check requires a ckn section in the config")
    return (pair, field, CknParams(**config.ckn))


def _hpw_args(config: RunConfig, pair: WeightPair, field: TestField) -> tuple:
    if pair.spec.hpw is None:
        raise ValueError(f"no hpw case corresponds to pair {pair.id!r}")
    return (pair.spec.hpw.case, config.p, field)


def _pair_field(config: RunConfig, pair: WeightPair, field: TestField) -> tuple:
    return (pair, field)


def _pair(config: RunConfig, pair: WeightPair, field: TestField) -> tuple:
    return (pair,)


def _quadrature(config: RunConfig) -> Dict:
    return {"settings": config.quadrature}


class _Check(NamedTuple):
    """One check name: the arguments its function takes, from (config,
    pair, field); the residual of its result; and, unless it is a field
    check (a FIELD_CHECKS name, run through verify_checks), the name of its
    function in this module and the keyword options the config adds."""

    args: Callable[[RunConfig, WeightPair, TestField], tuple]
    residual: Callable[[object], float]
    function: str = ""
    options: Callable[[RunConfig], Dict] = _quadrature


_CHECKS: Dict[str, _Check] = {
    "identity": _Check(_pair_field, lambda rep: rep.residual),
    "inequality": _Check(_pair_field, lambda rep: rep.margin),
    "remainder_pge2": _Check(_pair_field, lambda rep: rep.margin),
    "remainder_plt2": _Check(
        _pair_field, lambda rep: min(rep.lower_margin, rep.upper_margin, rep.min_margin)
    ),
    "sharpness": _Check(_pair, lambda rep: rep.final_gap, "sharpness_probe"),
    "ckn": _Check(_ckn_args, lambda rep: rep.left - rep.right),
    "hpw": _Check(_hpw_args, lambda rep: rep.left - rep.right),
    "divergence": _Check(
        lambda config, pair, field: (config.space,),
        lambda rec: rec["max_rel_err"],
        "divergence_check",
        lambda config: {"samples": 100, "seed": config.seed},
    ),
    "condition": _Check(
        _pair,
        lambda rec: rec["max_abs_mismatch"],
        "condition_check",
        lambda config: {"samples": 200, "seed": config.seed},
    ),
}

CHECK_NAMES = tuple(_CHECKS)


def _run_check(name: str, config: RunConfig, args: tuple, out: object) -> Dict[str, object]:
    """One check's record. A field check's report out comes from
    verify_checks; any other check's function is looked up by name here,
    when the check runs, so whatever this module binds to that name now is
    called."""
    check = _CHECKS[name]
    if name not in FIELD_CHECKS:
        out = globals()[check.function](*args, **check.options(config))
    if isinstance(out, dict):  # a sampled check: no quadrature, and its verdict is no term
        terms = dict(out)
        passed, qerr = terms.pop("passed"), 0.0
    else:
        terms, passed, qerr = out.to_dict(), out.passed, out.quadrature_error
    return {
        "name": name,
        "passed": bool(passed),
        "terms": terms,
        "residual": float(check.residual(out)),
        "quadrature_error": float(qerr),
    }


def _versions() -> Dict[str, str]:
    return {
        "package": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run(config: RunConfig) -> Dict:
    """Execute the configured checks and build the report, in declared order.
    The field checks run first, together on one mesh (verify_checks)."""
    t0 = time.time()
    pair, field, field_echo = _build_objects(config)
    calls = [(name, _CHECKS[name].args(config, pair, field)) for name in config.checks]
    shared = [call for call in calls if call[0] in FIELD_CHECKS]
    reports = iter(verify_checks(shared, config.quadrature) if shared else ())
    checks = [
        _run_check(name, config, args, next(reports) if name in FIELD_CHECKS else None)
        for name, args in calls
    ]
    echo = config_to_dict(config)
    echo["field"] = field_echo
    return _report(echo, checks, t0)


def _report(echo: Dict, checks: List[Dict], t0: float) -> Dict:
    n_pass = sum(1 for c in checks if c["passed"])
    return {
        "config": echo,
        "checks": checks,
        "summary": {"passed": n_pass, "failed": len(checks) - n_pass},
        "versions": _versions(),
        "wall_clock_seconds": time.time() - t0,
    }


def _dump(report: Dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def _flatten_terms(terms: Dict | List, prefix: str = "") -> Dict[str, object]:
    """Every scalar leaf of nested dicts and lists, keyed by its dotted path;
    list items are keyed by their index (levels.1.rayleigh_ratio)."""
    flat: Dict[str, object] = {}
    for key, value in terms.items() if isinstance(terms, dict) else enumerate(terms):
        if isinstance(value, (dict, list)):
            flat.update(_flatten_terms(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def report_export(report: Dict, fmt: str, path: str) -> None:
    """Write a report as canonical json or as a per-check csv table; raise
    ValueError unless its checks are a list of objects with the four keys."""
    keys = ("name", "passed", "residual", "quadrature_error")
    checks = _section(report, "report").get("checks", [])
    if not isinstance(checks, list):
        raise ValueError("report checks must be a list")
    for i, check in enumerate(checks):
        missing = [key for key in keys if key not in _section(check, f"checks[{i}]")]
        if missing:
            raise ValueError(f"checks[{i}] lacks {missing}")
        _section(check.get("terms", {}), f"checks[{i}].terms")
    if fmt == "json":
        with open(path, "w") as fh:
            fh.write(_dump(report) + "\n")
        return
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}; expected json or csv")
    columns = list(keys)
    rows = []
    for check in checks:
        row = {key: check[key] for key in keys}
        for key, value in _flatten_terms(check.get("terms", {})).items():
            col = f"terms.{key}"
            if col not in columns:
                columns.append(col)
            row[col] = value
        rows.append(row)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(rows)


# -- pinned verify --all suite ------------------------------------------------

ALL_SUITE: Tuple[Dict, ...] = (
    {
        "space": {"m": 1, "k": 1, "gamma": 1.0},
        "pair": {"id": "dambrosio_power", "alpha": 0.0, "beta": 0.0},
        "p": 2.0,
        "checks": [
            "identity",
            "inequality",
            "remainder_pge2",
            "sharpness",
            "ckn",
            "hpw",
            "divergence",
            "condition",
        ],
        "ckn": {"q": 2.0, "r": 2.0, "delta": 0.5, "b": -0.5, "c": 0.0},
        "seed": 20240816,
    },
    {
        "space": {"m": 1, "k": 1, "gamma": 1.0},
        "pair": {"id": "nch_ball", "R": 4.0},
        "p": 3.0,
        "checks": ["identity", "inequality", "condition"],
        "seed": 20240816,
    },
    {
        "space": {"m": 1, "k": 1, "gamma": 1.0},
        "pair": {"id": "dambrosio_power", "alpha": 0.0, "beta": 0.0},
        "p": 2.0,
        "field": {"family": "phase_twisted", "phase_kappa": 1.0, "x_floor": 0.125},
        "checks": ["identity"],
        "seed": 20240816,
    },
    {
        "space": {"m": 1, "k": 1, "gamma": 2.0},
        "pair": {"id": "log_ball", "alpha": -3.0, "R": 44.0},
        "p": 2.0,
        "checks": ["identity", "hpw", "condition"],
        "seed": 20240816,
    },
)


def _execute_suite(entries: List[Dict]) -> Dict:
    t0 = time.time()
    configs = [config_from_dict(e) for e in entries]
    checks: List[Dict] = []
    echoes: List[Dict] = []
    for config in configs:
        rep = run(config)
        echoes.append(rep["config"])
        pr = rep["config"]["pair"]
        tag = (
            f"{pr['id']}@({config.space.m},{config.space.k},{config.space.gamma})"
            f",p={config.p}"
        )
        family = rep["config"]["field"]["family"]
        if family in ("phase_twisted", "extremal_truncated"):
            tag += f",{family}"
        for check in rep["checks"]:
            check["name"] = f"{check['name']}[{tag}]"
            checks.append(check)
    return _report({"suite": "all", "entries": echoes}, checks, t0)


def _emit(report: Dict, out: Optional[str]) -> None:
    text = _dump(report)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_space_flag(text: str) -> Dict[str, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("--space expects m,k,gamma")
    return {"m": int(parts[0]), "k": int(parts[1]), "gamma": float(parts[2])}


def _pair_defaults(pair_id: str) -> Dict[str, float]:
    spec = PAIRS.get(pair_id)
    return dict(spec.defaults) if spec is not None else {}


def _flag_pair(args) -> WeightPair:
    """The pair that --pair, --space and --p name, with its default parameters."""
    space = SpaceParams(**_parse_space_flag(args.space))
    return make_pair(args.pair, space, args.p, _pair_defaults(args.pair))


def _apply_overrides(data: Dict, args) -> Dict:
    data = dict(data)
    if args.space is not None:
        data["space"] = _parse_space_flag(args.space)
    if args.pair is not None:
        data["pair"] = {"id": args.pair, **_pair_defaults(args.pair)}
    if args.p is not None:
        data["p"] = args.p
    if args.seed is not None:
        data["seed"] = args.seed
    if args.checks is not None:
        data["checks"] = [c.strip() for c in args.checks.split(",") if c.strip()]
    if args.rel_tol is not None or args.max_evals is not None:
        quad = dict(_section(data.get("quadrature", {}), "quadrature"))
        if args.rel_tol is not None:
            quad["rel_tol"] = args.rel_tol
        if args.max_evals is not None:
            quad["max_evals"] = args.max_evals
        data["quadrature"] = quad
    return data


def cmd_verify(args) -> int:
    if args.all:
        report = _execute_suite([_apply_overrides(entry, args) for entry in ALL_SUITE])
    elif args.config is None:
        raise ValueError("verify needs --config FILE or --all")
    else:
        with open(args.config) as fh:
            data = _section(json.load(fh), "config")
        report = run(config_from_dict(_apply_overrides(data, args)))
    _emit(report, args.out)
    return 0 if report["summary"]["failed"] == 0 else 1


def cmd_constants(args) -> int:
    mapped = CONSTANT_KINDS.get(args.kind)
    if mapped is None:
        raise ValueError(f"unknown kind {args.kind!r}; expected one of {sorted(CONSTANT_KINDS)}")
    if args.tol is not None and not 0.0 <= args.tol < float("inf"):
        raise ValueError("--tol must be finite and >= 0")
    est = find_constant(CpObjectiveKind(kind=mapped, p=args.p))
    width = est.width
    out = {
        "kind": args.kind,
        "p": args.p,
        "value": est.value,
        "argmin_s": est.argmin_s,
        "argmin_t": est.argmin_t,
        "bracket": list(est.bracket),
        "bracket_width": width,
        "refined": est.refined,
    }
    print(_dump(out))
    if args.tol is not None and width > args.tol:
        print(f"bracket width {width:.3e} exceeds --tol {args.tol:.3e}", file=sys.stderr)
        return 1
    return 0


def cmd_sharpness(args) -> int:
    rep = sharpness_probe(_flag_pair(args), levels=args.levels)
    out = {"pair": args.pair, "p": args.p}
    out.update(rep.to_dict())
    print(_dump(out))
    return 0 if rep.passed else 1


def cmd_check_divergence(args) -> int:
    space = SpaceParams(**_parse_space_flag(args.space))
    rec = divergence_check(space, args.samples, args.seed)
    print(_dump(rec))
    return 0 if rec["passed"] else 1


def cmd_condition(args) -> int:
    rec = condition_check(_flag_pair(args), args.samples, args.seed)
    print(_dump(rec))
    return 0 if rec["passed"] else 1


def cmd_export(args) -> int:
    with open(args.report) as fh:
        report = json.load(fh)
    report_export(report, args.format, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grushin-hardy",
        description="Verification runs for weighted Hardy identities on Grushin space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run configured checks and emit a json report")
    pv.add_argument("--config", help="json config file")
    pv.add_argument("--all", action="store_true", help="run the pinned golden suite")
    pv.add_argument("--out", help="write the report here instead of stdout")
    pv.add_argument("--space", help="override: m,k,gamma")
    pv.add_argument("--pair", help="override: pair id with default params")
    pv.add_argument("--p", type=float, help="override: exponent p")
    pv.add_argument("--seed", type=int, help="override: sampling seed")
    pv.add_argument("--checks", help="override: comma-separated check names")
    pv.add_argument("--rel-tol", dest="rel_tol", type=float, help="override: quadrature rel_tol")
    pv.add_argument("--max-evals", dest="max_evals", type=int, help="override: quadrature max_evals")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("constants", help="compute one remainder constant")
    pc.add_argument("--kind", required=True, choices=sorted(CONSTANT_KINDS))
    pc.add_argument("--p", required=True, type=float)
    pc.add_argument("--tol", type=float, help="fail if the bracket is wider than this")
    pc.set_defaults(func=cmd_constants)

    ps = sub.add_parser("sharpness", help="Rayleigh-ratio probe for one pair")
    ps.add_argument("--pair", required=True)
    ps.add_argument("--levels", type=int, default=3)
    ps.add_argument("--p", type=float, default=2.0)
    ps.add_argument("--space", default="1,1,1.0")
    ps.set_defaults(func=cmd_sharpness)

    pd = sub.add_parser("check-divergence", help="closed form vs finite differences")
    pd.add_argument("--space", required=True, help="m,k,gamma")
    pd.add_argument("--samples", type=int, default=100)
    pd.add_argument("--seed", type=int, default=0)
    pd.set_defaults(func=cmd_check_divergence)

    pn = sub.add_parser("condition", help="defect-condition sampling for one pair")
    pn.add_argument("--pair", required=True)
    pn.add_argument("--samples", type=int, default=200)
    pn.add_argument("--seed", type=int, default=0)
    pn.add_argument("--p", type=float, default=2.0)
    pn.add_argument("--space", default="1,1,1.0")
    pn.set_defaults(func=cmd_condition)

    pe = sub.add_parser("export", help="re-emit a report as json or csv")
    pe.add_argument("--report", required=True, help="existing json report")
    pe.add_argument("--format", required=True, choices=("json", "csv"))
    pe.add_argument("--out", required=True)
    pe.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
