"""A sensitivity ledger: which checks of the pinned `verify --all` suite fail
when one part of the field integrand carries a small defect.

Each row injects one defect by monkeypatching the integrand's parts (a
monomial term's coefficient in verifier._MONOMIALS, a batch's |Df| or
Re(Df/f), or the Jacobian of verifier._polar_pieces), runs the suite
in-process and asserts the exact set of checks that fail, at eps = 1e-2,
1e-4 and 1e-6. A check that passes on every defect passes on the right
answer too and proves nothing, so an empty set is a known blind spot; each
carries a comment naming the ROADMAP item meant to close it. A change that
adds a catch updates its row; one that removes a catch blinds a check.
The 43 suite runs take about 1.5 s on a 2-vCPU machine.
"""

import json

import numpy as np
import pytest

from grushin_hardy import cli, verifier

ID = "identity[dambrosio_power@(1,1,1.0),p=2.0]"
TWISTED = "identity[dambrosio_power@(1,1,1.0),p=2.0,phase_twisted]"
NCH = "identity[nch_ball@(1,1,1.0),p=3.0]"
LOG = "identity[log_ball@(1,1,2.0),p=2.0]"
PGE2 = "remainder_pge2[dambrosio_power@(1,1,1.0),p=2.0]"
CKN = "ckn[dambrosio_power@(1,1,1.0),p=2.0]"
EPS = (1e-2, 1e-4, 1e-6)


def _coefficient(name):
    """Scale the coefficient c of monomial term name by 1 + eps."""

    def inject(monkeypatch, eps):
        mono = verifier._MONOMIALS[name]

        def scaled(*args):
            weight, e, c, *rest = mono(*args)
            return (weight, e, c * (1.0 + eps), *rest)

        monkeypatch.setitem(verifier._MONOMIALS, name, scaled)

    return inject


def _abs_df(monkeypatch, eps):
    init = verifier._Batch.__init__

    def scaled(self, *args):
        init(self, *args)
        self.abs_df = [x * (1.0 + eps) for x in self.abs_df]

    monkeypatch.setattr(verifier._Batch, "__init__", scaled)


def _re_ratio(monkeypatch, eps):
    re_ratio = verifier._Batch.re_ratio
    monkeypatch.setattr(verifier._Batch, "re_ratio", lambda self, u: re_ratio(self, u) * (1.0 + eps))


def _jacobian(monkeypatch, eps):
    """Multiply the Jacobian by rho^eps."""
    polar_pieces = verifier._polar_pieces

    def pieces(*args):
        region, lift = polar_pieces(*args)

        def tilted(nodes):
            coords, log_jac = lift(nodes)
            return coords, log_jac + eps * np.log(coords[2])

        return region, tilted

    monkeypatch.setattr(verifier, "_polar_pieces", pieces)


DEFECTS = {
    "lhs": _coefficient("lhs"),
    "w": _coefficient("w"),
    "K": _coefficient("K"),
    "phi": _coefficient("phi"),
    "|Df|": _abs_df,
    "Re(Df/f)": _re_ratio,
    "jacobian": _jacobian,
}

# (defect, sign of eps) -> the checks that fail at each eps of EPS
LEDGER = {
    # item 16: the identity's cp is K plus the lhs row, so its residual
    # cancels lhs, and no check reads lhs from an independent witness
    ("lhs", 1): (set(), set(), set()),
    # C_2 = |eta|^2 at p = 2, so remainder_pge2's margin is 0 and a lower cp fails it
    ("lhs", -1): ({PGE2}, {PGE2}, {PGE2}),
    ("w", 1): ({ID, TWISTED, NCH, LOG, CKN}, {ID, TWISTED, CKN}, {CKN}),
    ("w", -1): ({ID, TWISTED, NCH, LOG, CKN, PGE2}, {ID, TWISTED, CKN, PGE2}, {CKN, PGE2}),
    ("K", 1): ({ID, TWISTED, NCH, LOG, CKN, PGE2}, {ID, TWISTED, LOG, CKN, PGE2}, {CKN, PGE2}),
    ("K", -1): ({ID, TWISTED, NCH, LOG, CKN}, {ID, TWISTED, LOG, CKN}, {CKN}),
    # item 8: at 1e-6 the identity's 1e-6 lhs floor hides phi's defect
    ("phi", 1): ({NCH, LOG}, {LOG}, set()),
    ("phi", -1): ({NCH, LOG}, {LOG}, set()),
    # item 16: a higher |Df| raises lhs and cp together, and nothing reads |Df| independently
    ("|Df|", 1): (set(), set(), set()),
    ("|Df|", -1): ({PGE2}, {PGE2}, {PGE2}),
    ("Re(Df/f)", 1): ({ID, TWISTED, NCH, LOG, CKN, PGE2}, {ID, TWISTED, LOG, CKN, PGE2}, {CKN, PGE2}),
    ("Re(Df/f)", -1): ({ID, TWISTED, NCH, LOG, CKN}, {ID, TWISTED, LOG, CKN}, {CKN}),
    ("jacobian", 1): ({ID, TWISTED, NCH, LOG, CKN}, {ID, TWISTED, LOG, CKN}, {CKN}),
    ("jacobian", -1): ({ID, TWISTED, NCH, LOG, CKN}, {ID, TWISTED, LOG, CKN}, {CKN}),
}


def _failing(tmp_path) -> set:
    out = tmp_path / "all.json"
    code = cli.main(["verify", "--all", "--out", str(out)])
    failing = {check["name"] for check in json.loads(out.read_text())["checks"] if not check["passed"]}
    assert code == (1 if failing else 0)
    return failing


def test_the_suite_passes_without_a_defect(tmp_path):
    assert _failing(tmp_path) == set()


@pytest.mark.parametrize(
    "defect, sign, column",
    [
        pytest.param(defect, sign, n, id=f"{defect}{'+' if sign > 0 else '-'}{eps:g}")
        for defect, sign in LEDGER
        for n, eps in enumerate(EPS)
    ],
)
def test_a_defect_fails_exactly_its_ledger_checks(monkeypatch, tmp_path, defect, sign, column):
    DEFECTS[defect](monkeypatch, sign * EPS[column])
    assert _failing(tmp_path) == LEDGER[defect, sign][column]
