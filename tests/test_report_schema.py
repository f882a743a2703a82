"""The report schema of the pinned suite: `verify --all`, and the same suite in
(2,1,0), where hpw's whole_dambrosio display also reports its classical
gradient form. The golden file holds, per check record:
- every nested key path and its value's type, so a dropped or renamed key
  (constant_bracket, bracket_mismatch, ...) fails;
- every boolean verdict at any depth (passed, consistent, garofalo.passed,
  classical.passed, classical.dominates);
- the integral terms and the residual of each quadrature check, which must
  stay within the record's quadrature_error.

Running this file as a script regenerates tests/golden/report_schema.json.
"""

import json
import pathlib

import pytest

from grushin_hardy import cli

GOLDEN = pathlib.Path(__file__).parent / "golden" / "report_schema.json"
RUNS = {"all": ["--all"], "all_210": ["--all", "--space", "2,1,0"]}
INTEGRAL_TERMS = (
    "lhs", "w_term", "cp_term", "phi_term", "eta_term", "mixed_term", "min_term",
    "grad_term", "weight_term", "mass_term", "classical.grad_full",
)
_TYPES = {bool: "bool", int: "int", float: "float", str: "str", type(None): "null", list: "list", dict: "dict"}


def _leaves(value, prefix=""):
    """Every (dotted path, value) of a record, containers included."""
    yield prefix, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _leaves(item, f"{prefix}.{key}" if prefix else str(key))


def _schema(record):
    leaves = dict(_leaves(record))
    integrals = {}
    if "terms.converged" in leaves:  # a quadrature check, not a sampled record
        integrals = {key: leaves[f"terms.{key}"] for key in INTEGRAL_TERMS if f"terms.{key}" in leaves}
        integrals["residual"] = record["residual"]
    return {
        "name": record["name"],
        "types": {path: _TYPES[type(v)] for path, v in leaves.items() if path},
        "verdicts": {path: v for path, v in leaves.items() if isinstance(v, bool)},
        "integrals": integrals,
    }


def _records(tmp_path, argv):
    out = tmp_path / "report.json"
    assert cli.main(["verify", *argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())["checks"]


@pytest.mark.parametrize("run", RUNS)
def test_verify_all_keeps_its_report_schema(tmp_path, run):
    golden = json.loads(GOLDEN.read_text())[run]
    records = _records(tmp_path, RUNS[run])
    assert [r["name"] for r in records] == [g["name"] for g in golden]
    for record, want in zip(records, golden):
        got = _schema(record)
        assert got["types"] == want["types"], record["name"]
        assert got["verdicts"] == want["verdicts"], record["name"]
        assert got["integrals"].keys() == want["integrals"].keys(), record["name"]
        for key, value in want["integrals"].items():
            assert abs(got["integrals"][key] - value) <= record["quadrature_error"], (record["name"], key)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        data = {run: [_schema(r) for r in _records(pathlib.Path(scratch), argv)] for run, argv in RUNS.items()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
