"""The benchmark's tracer (perfbench/tracer.py) wraps the package from outside
by rebinding its public names, such as ``radial_coords`` in fields, weights,
verifier and cli, and ``find_constant`` in cp, verifier and cli (the source of
the per-kind ``cp.find_constant.*_s`` metrics). A change that drops or renames
one of them fails here. Its traced ``integrate_vector`` reads
``IntegrationSettings.rule`` from an explicit settings object."""

import importlib.util
import pathlib

from grushin_hardy import cli, cp, fields, verifier, weights
from grushin_hardy.cubature import IntegrationSettings, Region

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_uninstalls():
    module = load_tracer_module()
    originals = {owner: owner.radial_coords for owner in (fields, weights, verifier, cli)}
    searches = {owner: owner.find_constant for owner in (cp, verifier, cli)}
    tracer = module.Tracer()
    try:
        tracer.install()
        assert all(owner.radial_coords is not fn for owner, fn in originals.items())
        assert all(owner.find_constant is not fn for owner, fn in searches.items())
        rebound = list(tracer._saved)
    finally:
        tracer.uninstall()
    assert len(rebound) > len(originals) + len(searches)
    for owner, attr, value in rebound:
        assert owner.__dict__[attr] is value


def test_traced_integration_with_explicit_settings():
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        (res,) = verifier.integrate_vector(
            lambda pts: pts[:, 0][None, :] ** 2, 1, Region(box=((0.0, 1.0),)), IntegrationSettings()
        )
    finally:
        tracer.uninstall()
    assert res.converged
    assert abs(res.value - 1.0 / 3.0) <= 1e-12
