"""CLI: config parsing, check execution, report schema, exports, exit codes."""

import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from grushin_hardy import cli, verifier

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
    assert "requires Q > alpha - beta" in err


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
    ("space", "gamma"),
    ("pair", "alpha"),
    ("field", "inner_rho"),
    ("field", "outer_rho"),
    ("field", "truncation_level"),
    ("quadrature", "rel_tol"),
    ("quadrature", "abs_tol"),
    ("quadrature", "max_evals"),
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
        one = ONE_CHECK[name](*cli._CHECKS[name].args(config, pair, field), config.quadrature)
        # hpw's classical gradient term sits beside the others
        terms, single = ({**t, **(t.get("classical") or {})} for t in (record["terms"], one.to_dict()))
        allow = max(record["quadrature_error"], one.quadrature_error)
        for key in (*INTEGRAL_TERMS, "grad_full"):
            if key in single:
                assert abs(terms[key] - single[key]) <= allow, (name, key)
                compared += 1
        assert (record["passed"], terms["converged"]) == (one.passed, one.converged), name
    assert compared > 0


def test_verify_all_integrates_once_per_entry_and_sharpness_level(tmp_path, capsys, monkeypatch):
    integrate = verifier.integrate_vector
    components = []  # of each integration, in call order

    def counting(integrand, n_components, *args, **kwargs):
        components.append(n_components)
        return integrate(integrand, n_components, *args, **kwargs)

    monkeypatch.setattr(verifier, "integrate_vector", counting)
    code, _, _ = run_cli(capsys, "verify", "--all", "--out", str(tmp_path / "all.json"))
    assert code == 0
    levels = 3  # sharpness_probe's default, one 1-D integration per level
    assert len(components) == len(cli.ALL_SUITE) + levels, components


def test_budget_stop_fails_every_integral_check(tmp_path, capsys):
    # 100 evals cannot refine the shared mesh or a sharpness level; no check
    # that integrates may pass, while the sampled checks still do
    path = write_config(tmp_path, cli.ALL_SUITE[0])
    code, out, _ = run_cli(capsys, "verify", "--config", path, "--max-evals", "100")
    assert code == 1
    records = json.loads(out)["checks"]
    assert [r["name"] for r in records] == cli.ALL_SUITE[0]["checks"]
    for record in records:
        sampled = record["name"] in ("divergence", "condition")
        assert record["passed"] is sampled, record["name"]
        assert record["terms"].get("converged") is (None if sampled else False), record["name"]


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


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_check_divergence_needs_samples(capsys, samples):
    code, out, err = run_cli(capsys, "check-divergence", "--space", "1,1,1.0", "--samples", samples)
    assert code == 2
    assert out == ""
    assert "samples must be >= 1" in err


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
