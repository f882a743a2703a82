"""Numerical verification laboratory for weighted L^p Hardy identities,
remainder bounds, CKN-type and uncertainty-principle inequalities of the
Baouendi-Grushin operator."""

from grushin_hardy.cp import (
    ConstantEstimate,
    CpObjectiveKind,
    cp_value_batch,
    find_constant,
)
from grushin_hardy.cubature import IntegrationSettings, Region, integrate_vector
from grushin_hardy.fields import (
    FAMILIES,
    TestField,
    TestFieldSpec,
    build_extremal_field,
    build_test_field,
)
from grushin_hardy.geometry import SpaceParams
from grushin_hardy.verifier import (
    CknParams,
    CknReport,
    HpwReport,
    IdentityReport,
    InequalityReport,
    RemainderPge2Report,
    RemainderPlt2Report,
    SharpnessReport,
    sharpness_probe,
    verify_ckn,
    verify_hpw,
    verify_identity,
    verify_identity_sweep,
    verify_inequality,
    verify_remainder_p_ge2,
    verify_remainder_p_lt2,
)
from grushin_hardy.weights import PAIR_IDS, WeightPair, condition_report, make_pair

__all__ = [
    "SpaceParams",
    "ConstantEstimate",
    "CpObjectiveKind",
    "cp_value_batch",
    "find_constant",
    "IntegrationSettings",
    "Region",
    "integrate_vector",
    "FAMILIES",
    "TestField",
    "TestFieldSpec",
    "build_test_field",
    "build_extremal_field",
    "PAIR_IDS",
    "WeightPair",
    "condition_report",
    "make_pair",
    "CknParams",
    "CknReport",
    "HpwReport",
    "IdentityReport",
    "InequalityReport",
    "RemainderPge2Report",
    "RemainderPlt2Report",
    "SharpnessReport",
    "sharpness_probe",
    "verify_ckn",
    "verify_hpw",
    "verify_identity",
    "verify_identity_sweep",
    "verify_inequality",
    "verify_remainder_p_ge2",
    "verify_remainder_p_lt2",
]

__version__ = "0.1.0"
