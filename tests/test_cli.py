"""CLI: config parsing, check execution, report schema, exports, exit codes."""

import contextlib
import csv
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from grushin_hardy import cli, verifier
from grushin_hardy.geometry import SpaceParams
from grushin_hardy.weights import make_pair

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "constants.json").read_text())

BASE_CONFIG = {
    "space": {"m": 1, "k": 1, "gamma": 1.0},
    "pair": {"id": "dambrosio_power", "alpha": 0.0, "beta": 0.0},
    "p": 2.0,
    "checks": ["identity"],
    "seed": 7,
}


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- constants ----------------------------------------------------------------


def test_constants_cp_p2(capsys):
    code, out, _ = run_cli(capsys, "constants", "--kind", "cp", "--p", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == pytest.approx(1.0, abs=1e-10)


def test_constants_c3_within_interval(capsys):
    code, out, _ = run_cli(capsys, "constants", "--kind", "c3", "--p", "1.5")
    assert code == 0
    rec = json.loads(out)
    assert 0.0 < rec["value"] <= 0.375


def test_constants_cp4_matches_golden(capsys):
    golden = next(
        e["value"] for e in GOLDEN["entries"] if e["kind"] == "cp_pge2" and e["p"] == 4.0
    )
    code, out, _ = run_cli(capsys, "constants", "--kind", "cp", "--p", "4")
    assert code == 0
    rec = json.loads(out)
    lo, hi = rec["bracket"]
    assert lo - 1e-12 <= golden <= hi + 1e-12


def test_constants_at_large_p_prints_no_warning():
    # in a fresh process, where no warning filter hides them, the scan's
    # overflow at p = 60 must not reach stderr
    code = "import sys; from grushin_hardy.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = run_python(code, "constants", "--kind", "cp", "--p", "60")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["value"] > 0.0


def test_constants_invalid_combination(capsys):
    code, _, err = run_cli(capsys, "constants", "--kind", "cp", "--p", "1.5")
    assert code == 2
    assert "error:" in err


def test_constants_tol_gate(capsys):
    # the p=2 bracket is ~1e-11 wide; an impossible tol forces exit 1
    code, _, err = run_cli(capsys, "constants", "--kind", "cp", "--p", "2", "--tol", "1e-30")
    assert code == 1
    assert "exceeds" in err


@pytest.mark.parametrize(
    "argv",
    [("--p", "nan"), ("--p", "inf"), ("--p", "2", "--tol", "nan"), ("--p", "2", "--tol", "-1")],
)
def test_constants_rejects_non_finite_input(capsys, argv):
    code, out, err = run_cli(capsys, "constants", "--kind", "cp", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# -- verify -------------------------------------------------------------------


def test_verify_identity_config(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    code, out, _ = run_cli(capsys, "verify", "--config", path)
    assert code == 0
    report = json.loads(out)
    assert report["summary"] == {"passed": 1, "failed": 0}
    assert report["checks"][0]["name"] == "identity"
    assert report["checks"][0]["passed"] is True
    # defaults were resolved against the pair's singular set
    assert report["config"]["field"]["family"] == "bump_radial_x_cutoff"
    assert report["config"]["field"]["x_floor"] == 0.125
    assert report["versions"]["package"]


def test_verify_validation_exits_2(tmp_path, capsys):
    bad = dict(BASE_CONFIG, pair={"id": "dambrosio_power", "alpha": 4.0, "beta": 0.0})
    path = write_config(tmp_path, bad)
    code, _, err = run_cli(capsys, "verify", "--config", path)
    assert code == 2
    assert "dambrosio_power requires kappa > 0" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # 6.1 - 3.1 rounds below Q = 3, but the expansion's kappa is 0
        (["verify", "--config", "CONFIG"], "requires kappa > 0, .* kappa = 0 at Q = 3, p = 1.5"),
        # kappa^p = (3e-6)^1e6 is 0 in floats
        (["sharpness", "--pair", "dambrosio_power", "--p", "1e6"], r"kappa\^p = .* underflows to 0"),
        # rho overflows, so every relative error is nan
        (["check-divergence", "--space", "1,1,1e6"], "divergence arithmetic failed"),
        # the quotient over- or underflows at every scanned |s| != 1
        (["constants", "--kind", "cp", "--p", "1e5"], "no scanned s off the seam"),
        # from level 52 on, tau_hi - band rounds to tau_hi and the cut leaves the box
        (["sharpness", "--pair", "dambrosio_power", "--levels", "60"], "truncation_level"),
    ],
)
def test_degenerate_input_exits_2_without_a_traceback(tmp_path, capsys, argv, message):
    pair = {"id": "dambrosio_power", "alpha": 6.1, "beta": 3.1}
    path = write_config(tmp_path, dict(BASE_CONFIG, pair=pair, p=1.5, checks=["sharpness"]))
    code, out, err = run_cli(capsys, *(path if a == "CONFIG" else a for a in argv))
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert re.match(f"error: .*{message}", err) and err.count("\n") == 1


def test_an_overflowing_expansion_exits_2_naming_the_overflow(tmp_path, capsys):
    # Q + beta - alpha overflows; it used to be reported as kappa = 0
    pair = {"id": "dambrosio_power", "alpha": 1e308, "beta": -1e308}
    path = write_config(tmp_path, dict(BASE_CONFIG, pair=pair, p=2.0, checks=["identity"]))
    code, out, err = run_cli(capsys, "verify", "--config", path)
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert err == "error: the divergence expansion overflows at Q = 3, p = 2, alpha = 1e+308, beta = -1e+308\n"


def test_verify_runs_at_m_400(tmp_path, capsys):
    # |S^(m-1)| = 2 pi^(m/2)/Gamma(m/2) is taken in logs: Gamma overflows from
    # m = 343, and the terms (about 1e-158 here) must not underflow to 0
    cfg = dict(BASE_CONFIG, space={"m": 400, "k": 1, "gamma": 1.0}, checks=["identity", "inequality", "hpw"])
    code, out, err = run_cli(capsys, "verify", "--config", write_config(tmp_path, cfg))
    assert code in (0, 1) and err == ""
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == ["identity", "inequality", "hpw"]
    assert checks[0]["terms"]["lhs"] > 0.0 and checks[2]["terms"]["left"] > 0.0


def test_verify_empty_checks(tmp_path, capsys):
    # a run of no checks would pass vacuously, so an empty list is refused,
    # whether it is written out or the config leaves "checks" out
    no_key = {k: v for k, v in BASE_CONFIG.items() if k != "checks"}
    for cfg in (dict(BASE_CONFIG, checks=[]), no_key):
        code, out, err = run_cli(capsys, "verify", "--config", write_config(tmp_path, cfg))
        assert code == 2
        assert out == ""
        assert "checks must name at least one check" in err


def test_verify_all_with_an_empty_checks_flag_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--all", "--checks", ",")
    assert code == 2
    assert out == ""
    assert "checks must name at least one check" in err


def test_verify_unknown_check(tmp_path, capsys):
    path = write_config(tmp_path, dict(BASE_CONFIG, checks=["identty"]))
    code, _, err = run_cli(capsys, "verify", "--config", path)
    assert code == 2
    assert "unknown check" in err


def test_verify_non_numeric_config_value(tmp_path, capsys):
    cfg = dict(BASE_CONFIG, pair={"id": "dambrosio_power", "alpha": {"nested": 1}, "beta": 0.0})
    path = write_config(tmp_path, cfg)
    code, _, err = run_cli(capsys, "verify", "--config", path)
    assert code == 2
    assert "pair.alpha must be a number" in err


# -- malformed configs ------------------------------------------------------------

# valid as it stands, with one sampled check of about 2 ms, so that any run
# that is not refused returns 0 at once
MALFORMED_BASE = {
    "space": {"m": 1, "k": 1, "gamma": 1.0},
    "pair": {"id": "dambrosio_power", "alpha": 0.0, "beta": 0.0},
    "p": 2.0,
    "field": {"inner_rho": 0.5, "outer_rho": 2.0, "truncation_level": 0},
    "quadrature": {"rel_tol": 1e-8, "abs_tol": 1e-12, "max_evals": 1000},
    "checks": ["condition"],
    # valid at p = 2, and not built, since only the condition check runs
    "ckn": {"q": 2.0, "r": 2.0, "delta": 0.5, "b": -0.5, "c": 0.0},
    "seed": 7,
}
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=4)
)
_NOT_OBJECTS = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=3))
_NOT_NAME_LISTS = st.one_of(
    _JSON_SCALARS,
    st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=2),
    st.lists(st.one_of(st.none(), st.integers(), st.lists(st.text())), min_size=1, max_size=3),
)
_NUMERIC_SLOTS = (
    ("p",),
    ("seed",),
    ("space", "m"),
    ("space", "k"),
    ("space", "gamma"),
    ("pair", "alpha"),
    ("pair", "beta"),
    ("field", "inner_rho"),
    ("field", "outer_rho"),
    ("field", "truncation_level"),
    ("field", "smoothness_margin"),
    ("field", "phase_kappa"),
    ("field", "x_floor"),
    ("quadrature", "rel_tol"),
    ("quadrature", "abs_tol"),
    ("quadrature", "max_evals"),
    ("ckn", "q"),
    ("ckn", "delta"),
)
_INTEGER_SLOTS = (
    ("seed",),
    ("space", "m"),
    ("space", "k"),
    ("field", "truncation_level"),
    ("quadrature", "max_evals"),
)


def _with(path, value):
    data = json.loads(json.dumps(MALFORMED_BASE))
    owner = data
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return data


# one kind of damage per example, each kind drawn equally often
_MALFORMED = st.sampled_from(
    [
        _NOT_OBJECTS,  # the whole config
        st.tuples(st.sampled_from(("space", "pair", "field", "quadrature")), _NOT_OBJECTS).map(
            lambda kv: _with(kv[:1], kv[1])
        ),
        _NOT_OBJECTS.filter(lambda v: v is not None).map(lambda v: _with(("ckn",), v)),
        _NOT_NAME_LISTS.map(lambda v: _with(("checks",), v)),
        st.tuples(
            st.sampled_from(_NUMERIC_SLOTS),
            st.sampled_from((float("nan"), float("inf"), -float("inf"), 10**400)),
        ).map(lambda kv: _with(*kv)),
        st.tuples(
            st.sampled_from(_INTEGER_SLOTS),
            st.floats(min_value=0.01, max_value=99.0).filter(lambda x: not x.is_integer()),
        ).map(lambda kv: _with(*kv)),
        # the cubature rule is fixed, so naming one is an unknown key
        st.sampled_from(("gauss_kronrod_tensor", "genz_malik", None)).map(
            lambda v: _with(("quadrature", "rule"), v)
        ),
        _NOT_OBJECTS.filter(lambda v: not isinstance(v, str)).map(
            lambda v: _with(("field", "family"), v)
        ),
        # a valid number under a key that the config or one of its sections lacks
        st.sampled_from(((), ("space",), ("pair",), ("field",), ("quadrature",), ("ckn",))).map(
            lambda section: _with((*section, "unknown"), 1.0)
        ),
    ]
).flatmap(lambda kind: kind)


@settings(
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=_MALFORMED)
# finite, but the pair's sharp constant kappa^p = (Q/2)^2 overflows
@example(data=_with(("space", "gamma"), 1e308))
def test_verify_malformed_config_exits_2(tmp_path, data):
    path = write_config(tmp_path, data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--config", path])
    assert code == 2, data
    assert err.getvalue().startswith("error: ")


def test_verify_malformed_base_is_valid(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "verify", "--config", write_config(tmp_path, MALFORMED_BASE))
    assert code == 0


def test_verify_precondition_blocks_whole_run(tmp_path, capsys):
    # remainder_pge2 at p = 1.5 must abort before the identity integrates
    cfg = dict(BASE_CONFIG, p=1.5, checks=["identity", "remainder_pge2"])
    path = write_config(tmp_path, cfg)
    code, out, err = run_cli(capsys, "verify", "--config", path)
    assert code == 2
    assert "needs p >= 2" in err
    assert out == ""


def test_verify_preconditions_run_before_any_check(tmp_path, capsys, monkeypatch):
    # identity's field check fails (outer_rho 2.0 > 0.9 R); the checks listed
    # before it must not run either
    ran = []
    monkeypatch.setattr(cli, "divergence_check", lambda *a: ran.append("divergence"))
    monkeypatch.setattr(cli, "condition_check", lambda *a: ran.append("condition"))
    cfg = dict(
        BASE_CONFIG,
        pair={"id": "nch_ball", "R": 2.1},
        field={"outer_rho": 2.0},
        checks=["divergence", "condition", "identity"],
    )
    code, out, err = run_cli(capsys, "verify", "--config", write_config(tmp_path, cfg))
    assert code == 2
    assert "outer_rho <= 0.9 R" in err
    assert out == ""
    assert ran == []


def test_verify_hpw_refuses_a_vacuous_display(tmp_path, capsys):
    # in (1,1,0) at p = 2, Q = p, so whole_dambrosio's constant is 0
    cfg = dict(BASE_CONFIG, space={"m": 1, "k": 1, "gamma": 0.0}, checks=["hpw"])
    code, out, err = run_cli(capsys, "verify", "--config", write_config(tmp_path, cfg))
    assert code == 2
    assert "whole_dambrosio is vacuous here" in err
    assert out == ""


def test_verify_hpw_needs_matching_pair(tmp_path, capsys):
    cfg = dict(
        BASE_CONFIG,
        pair={"id": "darca_power", "theta": 0.5, "alpha": 1.0, "R": 1e30},
        checks=["hpw"],
    )
    path = write_config(tmp_path, cfg)
    code, _, err = run_cli(capsys, "verify", "--config", path)
    assert code == 2
    assert "no hpw case" in err


def test_verify_ckn_requires_section(tmp_path, capsys):
    path = write_config(tmp_path, dict(BASE_CONFIG, checks=["ckn"]))
    code, _, err = run_cli(capsys, "verify", "--config", path)
    assert code == 2
    assert "ckn section" in err


def test_verify_ckn_section_built_only_for_ckn_check(tmp_path, capsys):
    # the section's defaults meet the balance condition only at p = 2
    cfg = dict(BASE_CONFIG, p=3.0, ckn={}, checks=["identity"])
    code, out, _ = run_cli(capsys, "verify", "--config", write_config(tmp_path, cfg))
    assert code == 0
    assert json.loads(out)["config"]["ckn"]["p"] == 3.0
    cfg["checks"] = ["ckn"]
    code, out, err = run_cli(capsys, "verify", "--config", write_config(tmp_path, cfg))
    assert code == 2
    assert out == ""
    assert "requires delta*r/p + (1-delta)*r/q = 1" in err


def test_verify_flag_overrides(tmp_path, capsys):
    path = write_config(tmp_path, dict(BASE_CONFIG, checks=["divergence"]))
    code, out, _ = run_cli(
        capsys, "verify", "--config", path, "--p", "3", "--seed", "11", "--max-evals", "1000000"
    )
    assert code == 0
    report = json.loads(out)
    assert report["config"]["p"] == 3.0
    assert report["config"]["seed"] == 11
    assert report["config"]["quadrature"]["max_evals"] == 1000000


def test_verify_determinism(tmp_path, capsys):
    cfg = dict(BASE_CONFIG, checks=["identity", "divergence", "condition"])
    path = write_config(tmp_path, cfg)
    code1, out1, _ = run_cli(capsys, "verify", "--config", path)
    code2, out2, _ = run_cli(capsys, "verify", "--config", path)
    assert code1 == code2 == 0
    rep1, rep2 = json.loads(out1), json.loads(out2)
    rep1.pop("wall_clock_seconds")
    rep2.pop("wall_clock_seconds")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


@pytest.mark.parametrize("name", cli.CHECK_NAMES)
def test_verify_runs_every_check(tmp_path, capsys, name):
    cfg = dict(BASE_CONFIG, checks=[name], quadrature={"rel_tol": 1e-3})
    if name == "remainder_plt2":
        cfg["p"] = 1.5
    else:
        cfg["ckn"] = {"q": 2.0, "r": 2.0, "delta": 0.5, "b": -0.5, "c": 0.0}
    code, out, _ = run_cli(capsys, "verify", "--config", write_config(tmp_path, cfg))
    assert code == 0
    (record,) = json.loads(out)["checks"]
    assert record["name"] == name
    assert record["passed"] is True
    assert {"residual", "quadrature_error"} <= set(record)
    assert set(verifier.FIELD_CHECKS) <= set(cli.CHECK_NAMES)


def test_verify_all_suite(tmp_path, capsys):
    out_path = tmp_path / "all.json"
    code, _, _ = run_cli(capsys, "verify", "--all", "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["summary"]["failed"] == 0
    assert report["summary"]["passed"] == len(report["checks"]) > 0
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    assert any("phase_twisted" in n for n in names)


def run_python(code, *argv, check=False):
    """Run code in a fresh interpreter that imports this checkout's package."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
        check=check,
    )


def test_cli_import_leaves_scipy_optimize_and_stats_unloaded():
    # the CLI needs only scipy's version; a condition check samples with
    # numpy alone, and nothing imports scipy.optimize
    code = (
        "import contextlib, io, sys\n"
        "from grushin_hardy.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['condition', '--pair', 'log_ball', '--samples', '16'])\n"
        "print(code, [m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules])"
    )
    proc = run_python(code, check=True)
    assert proc.stdout.strip() == "0 []"


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported only when a report reads its version
    code = (
        "import sys\n"
        "from grushin_hardy.cli import _versions\n"
        "loaded, version = 'scipy' in sys.modules, _versions()['scipy']\n"
        "import scipy\n"
        "print(loaded, version == scipy.__version__)"
    )
    proc = run_python(code, check=True)
    assert proc.stdout.strip() == "False True"


def test_versions_report_an_absent_scipy_as_none(monkeypatch):
    import importlib.metadata

    def absent(name):
        raise importlib.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(importlib.metadata, "version", absent)
    cli._scipy_version.cache_clear()
    try:
        assert cli._versions()["scipy"] is None
    finally:
        cli._scipy_version.cache_clear()


def test_condition_with_an_overflowing_space_prints_one_error_line():
    # gamma = 300 overflows the v formula; in a fresh process, where no
    # warning filter hides them, numpy's RuntimeWarnings must not precede
    # the error
    code = "import sys; from grushin_hardy.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ("condition", "--pair", "dambrosio_power", "--space", "1,1,300", "--samples", "10")
    proc = run_python(code, *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: condition arithmetic failed in space (1,1,300): ")


@pytest.mark.parametrize("gamma", (15.0, 30.0))
def test_a_large_gamma_cutoff_field_passes_identity_and_inequality(tmp_path, capsys, gamma):
    # cos(psi)^(1/a-1) is singular on the y axis, just past the cutoff's
    # |x| = x_floor; with psi linear there, cells piled up toward the axis
    # until a node rounded onto it and the integrand took log 0
    config = dict(
        BASE_CONFIG,
        space={"m": 1, "k": 1, "gamma": gamma},
        checks=["identity", "inequality"],
        field={"family": "bump_radial_x_cutoff", "x_floor": 0.125},
    )
    code, out, err = run_cli(capsys, "verify", "--config", write_config(tmp_path, config))
    assert code == 0, err
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["passed"]) for c in checks] == [("identity", True), ("inequality", True)]
    assert all(c["terms"]["converged"] is True for c in checks)


def test_verify_all_with_an_overflowing_space_prints_one_error_line():
    # gamma = 300 overflows the polar Jacobian; in a fresh process, where no
    # warning filter hides them, numpy's RuntimeWarnings must not precede
    # the error
    code = "import sys; from grushin_hardy.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = run_python(code, "verify", "--all", "--space", "1,1,300")
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: integrand arithmetic failed in space (1,1,300): ")


def test_verify_needs_config_or_all(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    assert "--config" in err


# -- the field checks of one run share one mesh ----------------------------------

ONE_CHECK = {
    "identity": verifier.verify_identity,
    "inequality": verifier.verify_inequality,
    "remainder_pge2": verifier.verify_remainder_p_ge2,
    "remainder_plt2": verifier.verify_remainder_p_lt2,
    "ckn": verifier.verify_ckn,
    "hpw": verifier.verify_hpw,
}
INTEGRAL_TERMS = (
    "lhs", "w_term", "cp_term", "phi_term", "eta_term", "mixed_term", "min_term",
    "grad_term", "weight_term", "mass_term",
)


@pytest.mark.parametrize(
    "entry",
    [*cli.ALL_SUITE, dict(BASE_CONFIG, p=1.5, checks=["remainder_plt2", "inequality", "hpw"])],
    ids=lambda entry: f"{entry['pair']['id']}-p{entry['p']:g}-{len(entry['checks'])}",
)
def test_shared_mesh_matches_one_check_runs(entry):
    # every integral term of a shared run lies within the larger of the two
    # quadrature errors of its one-check run, with the same verdict
    config = cli.config_from_dict(entry)
    pair, field, _ = cli._build_objects(config)
    shared = cli.run(config)["checks"]
    compared = 0
    for name, record in zip(config.checks, shared):
        if name not in ONE_CHECK:
            continue
        one = ONE_CHECK[name](*cli._field_args(name, config, pair, field), config.quadrature)
        # hpw's classical gradient term sits beside the others
        terms, single = ({**t, **(t.get("classical") or {})} for t in (record["terms"], one.to_dict()))
        allow = max(record["quadrature_error"], one.quadrature_error)
        for key in (*INTEGRAL_TERMS, "grad_full"):
            if key in single:
                assert abs(terms[key] - single[key]) <= allow, (name, key)
                compared += 1
        assert (record["passed"], terms["converged"]) == (one.passed, one.converged), name
    assert compared > 0


@pytest.mark.parametrize(
    "entry",
    [*cli.ALL_SUITE, dict(BASE_CONFIG, ckn={"q": 2.0, "r": 2.0, "delta": 0.5, "b": -0.5, "c": 0.0})],
    ids=[*(f"all_suite[{i}]" for i in range(len(cli.ALL_SUITE))), "base_with_ckn"],
)
def test_report_config_reproduces_its_run(entry):
    # the module docstring's promise: a report alone reproduces its run
    report = cli.run(cli.config_from_dict(entry))
    again = cli.run(cli.config_from_dict(json.loads(json.dumps(report["config"]))))
    for rep in (report, again):
        rep.pop("wall_clock_seconds")
    assert cli._dump(again) == cli._dump(report)


def count_integrations(monkeypatch, dim=None):
    """The n_components of each integration (of dimension dim only, if
    given), appended in call order to the list returned."""
    integrate = verifier.integrate_vector
    components = []

    def counting(integrand, n_components, region, settings=None):
        if dim is None or region.dim == dim:
            components.append(n_components)
        return integrate(integrand, n_components, region, settings)

    monkeypatch.setattr(verifier, "integrate_vector", counting)
    return components


def test_verify_all_integrates_once_per_mesh_and_sharpness_level(tmp_path, capsys, monkeypatch):
    # entries 0-2 share (1,1,1), x_floor 0.125 and outer_rho 2, so their
    # field checks share one mesh; entry 3 is in (1,1,2)
    components = count_integrations(monkeypatch)
    code, _, _ = run_cli(capsys, "verify", "--all", "--out", str(tmp_path / "all.json"))
    assert code == 0
    meshes, levels = 2, 3  # levels: sharpness_probe's default, one 1-D integration each
    assert len(components) == meshes + levels, components


def test_verify_all_echo_reruns_through_verify_config(tmp_path, capsys):
    # the module docstring's promise holds for a suite: its config echo is
    # an entries file, and rerunning it reproduces the report
    first, again = tmp_path / "all.json", tmp_path / "again.json"
    assert run_cli(capsys, "verify", "--all", "--out", str(first))[0] == 0
    report = json.loads(first.read_text())
    path = write_config(tmp_path, report["config"], "echo.json")
    assert run_cli(capsys, "verify", "--config", path, "--out", str(again))[0] == 0
    texts = []
    for out in (first, again):
        rep = json.loads(out.read_text())
        rep.pop("wall_clock_seconds")
        texts.append(cli._dump(rep))
    assert texts[0] == texts[1]


SWEEP_P = (1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0)


def test_an_entries_file_integrates_once_per_mesh(tmp_path, capsys, monkeypatch):
    # ten configs on one support: one 2-D integration of every field check,
    # each verdict that of the config run alone
    entries = [dict(BASE_CONFIG, p=p, checks=["identity", "inequality"]) for p in SWEEP_P]
    alone = [[c["passed"] for c in cli.run(cli.config_from_dict(e))["checks"]] for e in entries]
    components = count_integrations(monkeypatch, dim=2)
    path = write_config(tmp_path, {"entries": entries, "suite": "p sweep"})
    code, out, _ = run_cli(capsys, "verify", "--config", path)
    assert len(components) == 1, components
    report = json.loads(out)
    assert code == (0 if all(map(all, alone)) else 1)
    assert report["config"]["suite"] == "p sweep"
    assert [c["passed"] for c in report["checks"]] == [v for verdicts in alone for v in verdicts]
    assert [c["name"].split("[")[0] for c in report["checks"]] == ["identity", "inequality"] * len(SWEEP_P)


def test_entries_on_different_meshes_integrate_apart(tmp_path, capsys, monkeypatch):
    # a mesh is one space, one support (x_floor, outer_rho) and one set of
    # quadrature settings; entries that differ in any integrate separately
    entries = [
        BASE_CONFIG,
        dict(BASE_CONFIG, p=3.0),  # BASE_CONFIG's mesh
        dict(BASE_CONFIG, quadrature={"rel_tol": 1e-6}),
        dict(BASE_CONFIG, space={"m": 2, "k": 1, "gamma": 1.0}),
        dict(BASE_CONFIG, field={"outer_rho": 2.5}),
        dict(BASE_CONFIG, checks=["divergence"]),  # no field check
    ]
    components = count_integrations(monkeypatch, dim=2)
    code, out, _ = run_cli(capsys, "verify", "--config", write_config(tmp_path, {"entries": entries}))
    assert code == 0
    assert len(components) == 4, components
    report = json.loads(out)
    assert report["config"]["suite"] is None
    assert [c["name"].split("[")[0] for c in report["checks"]] == ["identity"] * 5 + ["divergence"]


def test_a_suite_refuses_a_bad_entry_before_any_integration(tmp_path, capsys, monkeypatch):
    # the third entry's precondition fails; the two meshes before it are
    # never integrated, because every group's preconditions run first
    components = count_integrations(monkeypatch)
    log_ball = dict(cli.ALL_SUITE[3], checks=["identity"])
    entries = [BASE_CONFIG, log_ball, dict(BASE_CONFIG, field={"x_floor": 0.0})]
    code, out, err = run_cli(capsys, "verify", "--config", write_config(tmp_path, {"entries": entries}))
    assert code == 2 and out == ""
    assert "pair is singular on {x=0}" in err
    assert components == []


def test_a_suite_on_two_quadrature_settings_refuses_a_bad_entry_before_any_integration(
    tmp_path, capsys, monkeypatch
):
    # the entries' rel_tol differ, so their checks run on two meshes; the
    # second entry's precondition fails before the first mesh integrates
    components = count_integrations(monkeypatch)
    entries = [dict(BASE_CONFIG, quadrature={"rel_tol": 1e-6}), dict(BASE_CONFIG, field={"x_floor": 0.0})]
    code, out, err = run_cli(capsys, "verify", "--config", write_config(tmp_path, {"entries": entries}))
    assert code == 2 and out == ""
    assert "pair is singular on {x=0}" in err
    assert components == []


def test_verify_all_meshes_keep_their_eval_counts(tmp_path, capsys, monkeypatch):
    # neither mesh group lists a Df exponent in (0, 2), so neither is cut;
    # the angular map that grades psi toward the y axis on every piece took
    # them from 18,900 and 22,500 evals
    integrate, evals = verifier.integrate_vector, []

    def counting(integrand, n_components, region, settings=None):
        res = integrate(integrand, n_components, region, settings)
        if region.dim == 2:
            evals.append(res[0].evals)
        return res

    monkeypatch.setattr(verifier, "integrate_vector", counting)
    assert run_cli(capsys, "verify", "--all", "--out", str(tmp_path / "all.json"))[0] == 0
    assert evals == [10_350, 9_450]


def test_main_reuses_one_parser(tmp_path, capsys):
    # the parser is built on the first call only, and a second call reports the same
    texts = []
    for name in ("first.json", "second.json"):
        assert run_cli(capsys, "verify", "--all", "--out", str(tmp_path / name))[0] == 0
        report = json.loads((tmp_path / name).read_text())
        report.pop("wall_clock_seconds")
        texts.append(cli._dump(report))
    assert texts[0] == texts[1]
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize(
    "suite, message",
    [
        # a pair singular on {x=0} needs a field that keeps off it
        ({"entries": [BASE_CONFIG, dict(BASE_CONFIG, field={"x_floor": 0.0})]}, "use a field with x_floor > 0"),
        ({"entries": [BASE_CONFIG], "p": 2.0}, "unknown suite config key 'p'"),
        ({"entries": []}, "entries must be a non-empty list"),
        ({"entries": BASE_CONFIG}, "entries must be a non-empty list"),
        ({"entries": [BASE_CONFIG, ["identity"]]}, r"entries\[1\] must be an object"),
        ({"entries": [BASE_CONFIG], "suite": 1}, "suite must be a string"),
        ({"entries": [dict(BASE_CONFIG, checks=["identty"])]}, "unknown check"),
    ],
)
def test_a_bad_entries_file_exits_2_with_its_message(tmp_path, capsys, suite, message):
    code, out, err = run_cli(capsys, "verify", "--config", write_config(tmp_path, suite))
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert re.match(f"error: .*{message}", err) and err.count("\n") == 1


def test_a_term_shared_by_checks_is_integrated_once(monkeypatch):
    # ALL_SUITE[0]'s field checks list 17 terms, 7 of them another check's,
    # and its pair's phi is identically 0, so the identity's phi_term reads
    # 0 and is no component; ALL_SUITE[1]'s identity and inequality share
    # lhs and w_term
    components = count_integrations(monkeypatch, dim=2)  # of each field-check integration
    lhs_w = ("identity", "inequality", "ckn")
    cp = ("identity", "remainder_pge2", "ckn")
    cases = (
        (cli.ALL_SUITE[0], 9, {"lhs": lhs_w, "w_term": lhs_w, "cp_term": cp}),
        (cli.ALL_SUITE[1], 4, {"lhs": lhs_w[:2], "w_term": lhs_w[:2]}),
    )
    for entry, n_components, shared in cases:
        components.clear()
        report = cli.run(cli.config_from_dict(entry))
        assert components == [n_components], entry["checks"]
        terms = {rec["name"].split("[")[0]: rec["terms"] for rec in report["checks"]}
        for key, checks in shared.items():
            values = [terms[name][key].hex() for name in checks]
            assert values == values[:1] * len(checks), (key, values)


def test_budget_stop_fails_every_field_check(tmp_path, capsys):
    # 100 evals cannot refine the shared 2-D mesh, so no field check may pass.
    # Each sharpness level converges on its first 3 cells (cut at the window's
    # bands), so sharpness passes on converged integrals; the sampled checks
    # integrate nothing and pass
    path = write_config(tmp_path, cli.ALL_SUITE[0])
    code, out, _ = run_cli(capsys, "verify", "--config", path, "--max-evals", "100")
    assert code == 1
    records = json.loads(out)["checks"]
    assert [r["name"] for r in records] == cli.ALL_SUITE[0]["checks"]
    for record in records:
        name, converged = record["name"], record["terms"].get("converged")
        if name in ("divergence", "condition"):
            assert record["passed"] is True and converged is None, name
        elif name == "sharpness":
            assert record["passed"] is True and converged is True, name
        else:
            assert record["passed"] is False and converged is False, name


# -- export -------------------------------------------------------------------


def test_export_roundtrip_and_csv(tmp_path, capsys):
    cfg = dict(BASE_CONFIG, checks=["identity", "divergence"])
    path = write_config(tmp_path, cfg)
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "--config", path, "--out", str(report_path))
    assert code == 0

    json_copy = tmp_path / "copy.json"
    code, _, _ = run_cli(
        capsys, "export", "--report", str(report_path), "--format", "json", "--out", str(json_copy)
    )
    assert code == 0
    assert json.loads(json_copy.read_text()) == json.loads(report_path.read_text())

    csv_path = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys, "export", "--report", str(report_path), "--format", "csv", "--out", str(csv_path)
    )
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["name"] == "identity"
    assert rows[0]["passed"] == "True"


def term_leaves(value, path):
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from term_leaves(sub, f"{path}.{key}")
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from term_leaves(sub, f"{path}.{i}")
    else:
        yield path, value


def test_export_csv_keeps_every_term_leaf(tmp_path, capsys):
    report_path = tmp_path / "all.json"
    csv_path = tmp_path / "all.csv"
    assert run_cli(capsys, "verify", "--all", "--out", str(report_path))[0] == 0
    code, _, _ = run_cli(
        capsys, "export", "--report", str(report_path), "--format", "csv", "--out", str(csv_path)
    )
    assert code == 0
    checks = json.loads(report_path.read_text())["checks"]
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert len(rows) == len(checks)
    # the list-valued terms of remainder_pge2, sharpness and divergence
    for col in ("terms.constant_bracket.0", "terms.levels.1.rayleigh_ratio", "terms.combos.2.1"):
        assert col in reader.fieldnames
    for row, check in zip(rows, checks):
        for col, value in term_leaves(check["terms"], "terms"):
            assert row[col] == ("" if value is None else str(value)), (check["name"], col)


def test_export_unknown_format_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["export", "--report", "x.json", "--format", "yaml", "--out", "y"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_export_missing_report(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "export", "--report", str(tmp_path / "nope.json"), "--format", "csv",
        "--out", str(tmp_path / "o.csv"),
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "report, fmt",
    [
        ([], "csv"),
        ([], "json"),
        ({"checks": 5}, "csv"),
        ({"checks": [{"passed": True, "residual": 0.0, "quadrature_error": 0.0}]}, "csv"),
        ({"checks": ["identity"]}, "csv"),
        ({"checks": [{"name": "a", "passed": True, "residual": 0.0, "quadrature_error": 0.0,
                      "terms": 5}]}, "csv"),
    ],
)
def test_export_malformed_report(tmp_path, capsys, report, fmt):
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    out_path = tmp_path / "out"
    code, _, err = run_cli(
        capsys, "export", "--report", str(report_path), "--format", fmt, "--out", str(out_path)
    )
    assert code == 2
    assert "error:" in err
    assert not out_path.exists()


# -- standalone subcommands -----------------------------------------------------


def test_sharpness_command(capsys):
    code, out, _ = run_cli(capsys, "sharpness", "--pair", "dambrosio_power", "--levels", "3")
    assert code == 0
    rec = json.loads(out)
    assert rec["sharp_constant"] == 2.25
    assert rec["passed"] is True
    assert rec["final_gap"] <= 0.05


def test_check_divergence_command(capsys):
    code, out, _ = run_cli(capsys, "check-divergence", "--space", "2,1,0.0", "--samples", "25")
    assert code == 0
    rec = json.loads(out)
    assert rec["max_rel_err"] <= 1e-6


@pytest.mark.parametrize(
    "space, samples, message",
    [
        ("1,1,1.0", "0", "samples must be >= 1"),
        ("1,1,1.0", "-3", "samples must be >= 1"),
        # the flag is read as the config's space section
        ("1.5,1,0", "100", "space.m must be an integer"),
        ("1,x,0", "100", "--space: 'x' is not a number"),
    ],
    ids=["0", "-3", "space-1.5,1,0", "space-1,x,0"],
)
def test_check_divergence_needs_samples(capsys, space, samples, message):
    code, out, err = run_cli(capsys, "check-divergence", "--space", space, "--samples", samples)
    assert code == 2
    assert out == ""
    assert message in err


def test_sharpness_past_the_float_range_of_rho_of_tau(capsys):
    # darca_power's level-6 plateau ends at tau ~ 1170, where rho = 0.5 e^tau
    # overflows; the field's outer edge is that limit clipped to R, and no
    # RuntimeWarning (an error under this suite's filter) precedes the report
    code, out, _ = run_cli(capsys, "sharpness", "--pair", "darca_power", "--p", "3", "--levels", "7")
    assert code == 0
    rec = json.loads(out)
    assert rec["passed"] is True
    assert len(rec["levels"]) == 7


def test_sharpness_on_a_whole_space_pair_past_the_float_range(capsys):
    # dambrosio_power's level-7 plateau ends at tau ~ 1160, where rho_of_tau
    # is inf and no R clips it; the probe's integrals run in tau and never
    # read the field's outer edge
    ratios = {}
    for levels in (7, 8):
        argv = ("sharpness", "--pair", "dambrosio_power", "--p", "3", "--levels", str(levels))
        code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 1)
        ratios[levels] = [level["rayleigh_ratio"] for level in json.loads(out)["levels"]]
    assert ratios[8][:7] == ratios[7]
    assert all(a > b >= 1.0 for a, b in zip(ratios[8], ratios[8][1:]))  # kappa^p = 1


@pytest.mark.parametrize(
    "space, pair, checks",
    [
        ({"m": 1, "k": 1, "gamma": 0.0}, {"id": "nch_ball", "R": 4.0}, ["identity"]),  # out to R
        ({"m": 1, "k": 1, "gamma": 1.0}, BASE_CONFIG["pair"], ["identity"]),  # down to x = 0
        # hpw refuses through its display pair's support rule
        ({"m": 1, "k": 1, "gamma": 1.0}, {"id": "nch_ball", "R": 4.0}, ["hpw"]),
    ],
    ids=["nch_ball", "gamma-1", "hpw"],
)
def test_extremal_field_checks_are_refused_by_family(tmp_path, capsys, space, pair, checks):
    field = {"family": "extremal_truncated"}
    config = dict(BASE_CONFIG, space=space, pair=pair, field=field, checks=checks)
    code, out, err = run_cli(capsys, "verify", "--config", write_config(tmp_path, config))
    assert (code, out) == (2, "")
    assert err.startswith("error: field family extremal_truncated cannot run a field check")
    assert f"on {pair['id']} here" in err
    assert err.rstrip().endswith("the extremal field runs out to R and down to x = 0")


@pytest.mark.parametrize(
    "argv",
    [
        ("check-divergence", "--space", "10,10,0.0", "--samples", "5"),
        ("condition", "--pair", "dambrosio_power", "--space", "6,6,0.0", "--samples", "10"),
    ],
    ids=["check-divergence", "condition"],
)
def test_sampler_that_cannot_fill_exits_2(capsys, argv):
    # the sampled shell fills too little of the box in these spaces
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: sampler kept")


def test_condition_command(capsys):
    code, out, _ = run_cli(capsys, "condition", "--pair", "log_ball", "--samples", "64")
    assert code == 0
    rec = json.loads(out)
    assert rec["min_phi"] >= -1e-9
    assert rec["max_abs_mismatch"] <= 1e-6


def test_condition_fails_a_pair_with_negative_phi():
    # at Q = 2 < p = 3 log_ball's phi is negative; allow_negative_phi builds
    # the pair for the identity, but the condition must still fail on it
    flat = SpaceParams(1, 1, 0.0)
    pair = make_pair("log_ball", flat, 3.0, {"alpha": -3.0, "R": 4.0}, allow_negative_phi=True)
    rec = cli.condition_check(pair, samples=200, seed=0)
    assert rec["min_phi"] < 0 and rec["max_abs_mismatch"] <= 1e-6
    assert not rec["passed"]
