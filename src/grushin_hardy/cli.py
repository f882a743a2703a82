"""Batch front-end: parse a run configuration, execute the requested checks,
and emit machine-readable reports.

A run is described by a JSON config file (key-value with nesting) or by
flags; flags override file values. A file of {"entries": [configs],
"suite": label} runs them as one suite, whose field checks share a mesh
wherever their space, support and quadrature settings agree. Reports echo
the fully normalized configuration so a report alone reproduces its run: a
suite report's echo is itself an entries file. JSON output is canonical
(sorted keys, two-space indent) and byte-identical across repeat runs except
for the wall_clock_seconds field.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 invalid
input or configuration.
"""

import argparse
import csv
import functools
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .cp import CpObjectiveKind, find_constant
from .cubature import IntegrationSettings
from .fields import TestField, TestFieldSpec, build_extremal_field, build_test_field
from .geometry import (
    SpaceParams,
    div_weighted_rho_closed_form,
    fd_divergence,
    float_faults,
    grad_gamma_rho,
    radial_coords,
)
# the one-check verify_* names stay bound here, unused, for tools that rebind them
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


def _read(value: object, default: object, label: str) -> object:
    """A config value read by the type of its default. A dict default is a
    section, and its keys are the only ones allowed; an int default takes an
    integer, a float a finite number, None a finite number or None, and a
    str a string. Anything else, such as a nested structure for a number or
    a NaN that would pass every range check, raises ValueError."""
    if isinstance(default, dict):
        for key in _section(value, label):
            if key not in default:
                raise ValueError(f"unknown {label} key {key!r}")
        return {key: _read(value.get(key, d), d, f"{label}.{key}") for key, d in default.items()}
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ValueError(f"{label} must be a string")
        return value
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{label} must be a number")
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{label} must be finite")
    if isinstance(default, int):
        if not float(value).is_integer():
            raise ValueError(f"{label} must be an integer")
        return int(value)
    return float(value)


_SPACE = {"m": 1, "k": 1, "gamma": 1.0}
# family "" and x_floor None are resolved against the pair in _build_objects
_FIELD = {f.name: f.default for f in fields(TestFieldSpec) if f.name in _FIELD_NUMBERS}
_FIELD.update(family="", x_floor=None, truncation_level=0)
_CKN = {"q": 2.0, "r": 2.0, "delta": 0.5, "b": -0.5, "c": 0.0}


def config_from_dict(data: Dict) -> RunConfig:
    """Build and validate a RunConfig; raises ValueError on any bad value.
    _read checks each value's type, and the dataclasses check its range."""
    known = {"space", "pair", "p", "field", "quadrature", "checks", "ckn", "seed"}
    for key in _section(data, "config"):
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
    if "space" not in data or "pair" not in data:
        raise ValueError("config requires 'space' and 'pair' sections")
    pair_params = dict(_section(data["pair"], "pair"))
    pair_id = pair_params.pop("id", None)
    if not isinstance(pair_id, str):
        raise ValueError("pair section requires a string 'id'")
    checks = data.get("checks", [])
    if not isinstance(checks, (list, tuple)) or not all(isinstance(c, str) for c in checks):
        raise ValueError("checks must be a list of check names")
    p = _read(data.get("p", 2.0), 2.0, "p")
    quadrature = _read(data.get("quadrature", {}), asdict(IntegrationSettings()), "quadrature")
    ckn = data.get("ckn")
    return RunConfig(
        space=SpaceParams(**_read(data["space"], _SPACE, "space")),
        pair_id=pair_id,
        pair_params={key: _read(v, 0.0, f"pair.{key}") for key, v in pair_params.items()},
        p=p,
        field=_read(data.get("field", {}), _FIELD, "field"),
        quadrature=IntegrationSettings(**quadrature),
        checks=tuple(checks),
        ckn=None if ckn is None else _read(ckn, {"p": p, **_CKN}, "ckn"),
        seed=_read(data.get("seed", 0), 0, "seed"),
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
    if not family:
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


def _weighted_rho_fields(space: SpaceParams):
    """The fields rho^c |x|^s grad_gamma rho of every DIVERGENCE_COMBOS entry,
    as one (M, combos, m+k) field for geometry.fd_divergence."""

    def fields(pts: np.ndarray) -> np.ndarray:
        r, rho_v = radial_coords(space, pts[:, : space.m], pts[:, space.m :])
        grad = grad_gamma_rho(space, pts)
        return np.stack([(rho_v**c * r**s)[:, None] * grad for c, s in DIVERGENCE_COMBOS], axis=1)

    return fields


def divergence_check(space: SpaceParams, samples: int, seed: int) -> Dict[str, object]:
    """Closed-form vs finite-difference divergence on uniform points of
    [-2, 2]^n with rho in [0.5, 2] and |x| >= 0.2. Raises ValueError when
    the arithmetic overflows, divides by zero or turns invalid, where a nan
    error would otherwise read as 0."""
    worst = 0.0
    with float_faults("divergence", space):
        keep = lambda r, rho_v: (rho_v >= 0.5) & (rho_v <= 2.0) & (r >= 0.2)  # noqa: E731
        pts = rejection_sample(space, 2.0, keep, samples, seed)
        r, rho_v = radial_coords(space, pts[:, : space.m], pts[:, space.m :])
        # Richardson error ~ step^4; 1e-3 of the singular-set distance keeps
        # it far below the 1e-6 gate without hitting roundoff
        step = 1e-3 * np.minimum(r, rho_v)
        approx = fd_divergence(space, _weighted_rho_fields(space), pts, step)
        for (c, s), combo in zip(DIVERGENCE_COMBOS, approx):
            closed = div_weighted_rho_closed_form(space, pts, c, s)
            worst = max(worst, float(np.max(np.abs(combo - closed) / np.abs(closed))))
    return {
        "samples": samples,
        "combos": [list(cs) for cs in DIVERGENCE_COMBOS],
        "max_rel_err": worst,
        "passed": bool(worst <= 1e-6),
    }


def condition_check(pair, samples: int, seed: int) -> Dict[str, object]:
    rep = condition_report(pair, samples=samples, seed=seed)
    out: Dict[str, object] = dict(rep)
    out["samples"] = samples
    out["passed"] = bool(rep["min_phi"] >= -1e-9 and rep["max_abs_mismatch"] <= 1e-6)
    return out


def _field_args(name: str, config: RunConfig, pair: WeightPair, field: TestField) -> tuple:
    """The arguments that field check name's verify_* function takes,
    without settings."""
    if name == "ckn":
        if config.ckn is None:
            raise ValueError("ckn check requires a ckn section in the config")
        return (pair, field, CknParams(**config.ckn))
    if name == "hpw":
        if pair.spec.hpw is None:
            raise ValueError(f"no hpw case corresponds to pair {pair.id!r}")
        return (pair.spec.hpw.case, config.p, field)
    return (pair, field)


def _run_check(name: str, config: RunConfig, pair: WeightPair) -> object:
    """Run a check outside the shared mesh. Each function is looked up in
    this module when the check runs, so a name rebound after import is the
    one called."""
    if name == "sharpness":
        return sharpness_probe(pair, settings=config.quadrature)
    if name == "divergence":
        return divergence_check(config.space, samples=100, seed=config.seed)
    return condition_check(pair, samples=200, seed=config.seed)


CHECK_NAMES = (*FIELD_CHECKS, "sharpness", "divergence", "condition")
# the residual of each sampled check's record; a report carries its own
_SAMPLED_RESIDUALS = {"divergence": "max_rel_err", "condition": "max_abs_mismatch"}


def _record(name: str, out: object) -> Dict[str, object]:
    if isinstance(out, dict):  # a sampled check: no quadrature, and its verdict is no term
        terms = dict(out)
        passed, qerr, residual = terms.pop("passed"), 0.0, out[_SAMPLED_RESIDUALS[name]]
    else:
        terms, passed, qerr, residual = out.to_dict(), out.passed, out.quadrature_error, out.residual
    return {
        "name": name,
        "passed": bool(passed),
        "terms": terms,
        "residual": float(residual),
        "quadrature_error": float(qerr),
    }


@functools.cache  # a metadata read takes about 5 ms, and a suite reports once per entry
def _scipy_version() -> Optional[str]:
    """scipy's version, read from its metadata without importing it (it is a
    test dependency only), or None where it is not installed."""
    import importlib.metadata  # here, not at the top: it slows every CLI import

    try:
        return importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        return None


def _versions() -> Dict[str, Optional[str]]:
    return {
        "package": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _scipy_version(),
    }


def _run_configs(configs: List[RunConfig]) -> List[Tuple[Dict, List[Dict]]]:
    """Each config's echo and check records, in declared order. The field
    checks of all configs run in one verify_checks call, each with its
    config's quadrature settings, so every precondition runs before any
    integration, and checks that share a space, a support (the field's
    x_floor and outer_rho) and quadrature settings share one mesh;
    sharpness, divergence and condition run per config."""
    built = [_build_objects(config) for config in configs]
    field_checks = [
        (name, _field_args(name, config, pair, field), config.quadrature)
        for config, (pair, field, _) in zip(configs, built)
        for name in config.checks
        if name in FIELD_CHECKS
    ]
    shared = iter(verify_checks(field_checks))
    out = []
    for config, (pair, _, field_echo) in zip(configs, built):
        checks = [
            _record(name, next(shared) if name in FIELD_CHECKS else _run_check(name, config, pair))
            for name in config.checks
        ]
        echo = config_to_dict(config)
        echo["field"] = field_echo
        out.append((echo, checks))
    return out


def run(config: RunConfig) -> Dict:
    """Execute the configured checks and build the report, in declared order.
    The field checks run first, in one verify_checks call, on one mesh."""
    t0 = time.time()
    [(echo, checks)] = _run_configs([config])
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


def _execute_suite(entries: List[Dict], label: Optional[str] = "all") -> Dict:
    """Run a suite's entries as configs (see _run_configs) and report their
    checks in one list, each name tagged with its entry."""
    t0 = time.time()
    configs = [config_from_dict(e) for e in entries]
    checks: List[Dict] = []
    echoes: List[Dict] = []
    for config, (echo, records) in zip(configs, _run_configs(configs)):
        echoes.append(echo)
        pr = echo["pair"]
        tag = (
            f"{pr['id']}@({config.space.m},{config.space.k},{config.space.gamma})"
            f",p={config.p}"
        )
        family = echo["field"]["family"]
        if family in ("phase_twisted", "extremal_truncated"):
            tag += f",{family}"
        for check in records:
            check["name"] = f"{check['name']}[{tag}]"
            checks.append(check)
    return _report({"suite": label, "entries": echoes}, checks, t0)


def _suite_entries(data: Dict, args) -> Tuple[List[Dict], Optional[str]]:
    """The entries and label of a suite config, the shape of a suite
    report's config echo, with the flag overrides applied to every entry."""
    for key in data:
        if key not in ("entries", "suite"):
            raise ValueError(f"unknown suite config key {key!r}")
    entries, label = data["entries"], data.get("suite")
    if not isinstance(entries, list) or not entries:
        raise ValueError("entries must be a non-empty list of configs")
    if label is not None and not isinstance(label, str):
        raise ValueError("suite must be a string")
    return [_apply_overrides(_section(e, f"entries[{i}]"), args) for i, e in enumerate(entries)], label


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
    for part in parts:
        try:
            float(part)
        except ValueError:
            raise ValueError(f"--space: {part!r} is not a number") from None
    return _read(dict(zip(_SPACE, map(float, parts))), _SPACE, "space")


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
        if "entries" in data:
            report = _execute_suite(*_suite_entries(data, args))
        else:
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
    print(_dump({**asdict(est), "kind": args.kind, "p": args.p, "bracket_width": est.width}))
    if args.tol is not None and est.width > args.tol:
        print(f"bracket width {est.width:.3e} exceeds --tol {args.tol:.3e}", file=sys.stderr)
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


# built on the first main call, not at import: a parser takes about 1.4 ms to build
_parser = functools.cache(build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
