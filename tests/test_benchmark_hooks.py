"""The benchmark's tracer (perfbench/tracer.py) wraps the package from outside
by rebinding its public names, such as ``radial_coords`` in fields, weights,
verifier and cli, and ``find_constant`` in cp, verifier and cli (the source of
the per-kind ``cp.find_constant.*_s`` metrics). A change that drops or renames
one of them fails here."""

import importlib.util
import pathlib

from grushin_hardy import cli, cp, fields, verifier, weights

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_benchmark_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
