"""The benchmark's tracer (perfbench/tracer.py) wraps the package from outside
by rebinding its public names, such as ``radial_coords`` in fields, weights,
verifier and cli, and ``find_constant`` in cp, verifier and cli (the source of
the per-kind ``cp.find_constant.*_s`` metrics). A change that drops or renames
one of them fails here, and so does a check dispatch that binds its functions
at import time, since a name rebound later is then never called. Its traced
``integrate_vector`` reads ``IntegrationSettings.rule`` from an explicit
settings object, and its per-point metrics count the rows of the first
argument of each traced call."""

import importlib.util
import pathlib

from grushin_hardy import cli, cp, fields, verifier, weights
from grushin_hardy.cubature import IntegrationSettings, Region
from grushin_hardy.fields import TestFieldSpec, build_test_field
from grushin_hardy.geometry import SpaceParams

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


def test_traced_sweep_counts_one_point_per_node():
    # every span inside a cubature batch must count the batch's nodes, or
    # its ns-per-point metrics read 0. C_p is built in closed form from the
    # identity's rows, and v, w, phi and h from each pair's declared
    # monomials on the batch's log features, so no cp.cp_value_batch or
    # weights.vwphi span may sit inside a batch
    module = load_tracer_module()
    space = SpaceParams(1, 1, 1.0)
    field = build_test_field(
        space, TestFieldSpec(family="bump_radial_x_cutoff", inner_rho=0.5, x_floor=0.125)
    )
    cases = [
        (weights.make_pair("dambrosio_power", space, p, {"alpha": 0.0, "beta": 0.0}), field)
        for p in (2.0, 3.0)
    ]
    tracer = module.Tracer()
    try:
        tracer.install()
        reports = verifier.verify_identity_sweep(cases, IntegrationSettings(rel_tol=1e-3))
    finally:
        tracer.uninstall()
    assert all(rep.passed for rep in reports)
    batches = [i for i, name in enumerate(tracer.names) if name == module.INTEGRAND]
    assert batches
    assert all(tracer.points[i] > 0 for i in batches)
    assert not any(
        name in (module.CPV, module.VWPHI) and tracer.parent[i] in batches
        for i, name in enumerate(tracer.names)
    )


def test_traced_checks_on_two_meshes_count_each_mesh_once():
    # verify_checks integrates each mesh's checks once: one call over two
    # supports records two integrations, whose evals and cells are the sums
    # of each mesh's own
    module = load_tracer_module()
    space = SpaceParams(1, 1, 1.0)
    pair = weights.make_pair("dambrosio_power", space, 2.0, {"alpha": 0.0, "beta": 0.0})
    meshes = [
        build_test_field(
            space, TestFieldSpec(family="bump_radial_x_cutoff", inner_rho=0.5, outer_rho=outer, x_floor=0.125)
        )
        for outer in (2.0, 2.5)
    ]
    settings = IntegrationSettings(rel_tol=1e-3)
    tracer = module.Tracer()
    try:
        tracer.install()
        for run_id, run_fields in enumerate((meshes, meshes[:1], meshes[1:])):
            tracer.run_id = run_id
            verifier.verify_checks([("identity", (pair, field), settings) for field in run_fields])
    finally:
        tracer.uninstall()
    both, *alone = (tracer.layer_metrics(run_id) for run_id in range(3))
    assert [m[f"spans.{module.INTEGRATE}"] for m in (both, *alone)] == [2, 1, 1]
    for key in ("cubature.evals", "cubature.cells"):
        assert both[key] == sum(m[key] for m in alone) > 0, key


def test_traced_verify_all_calls_each_check_through_its_module_name(tmp_path):
    module = load_tracer_module()
    tracer = module.Tracer()
    try:
        tracer.install()
        code = cli.main(["verify", "--all", "--out", str(tmp_path / "all.json")])
    finally:
        tracer.uninstall()
    assert code == 0

    def entries_with(check):
        return sum(check in entry["checks"] for entry in cli.ALL_SUITE)

    assert tracer.names.count("verifier.sharpness_probe") == entries_with("sharpness") == 1
    assert tracer.names.count(module.DIVERGENCE) == entries_with("divergence")
    assert tracer.names.count(module.CONDITION) == entries_with("condition")
