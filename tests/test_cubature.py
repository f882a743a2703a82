"""Adaptive cubature: exactness, invariants, determinism, budget handling."""

from math import erf

import numpy as np
import pytest

from grushin_hardy import cubature
from grushin_hardy.cubature import IntegrationSettings, Region, integrate_vector
from grushin_hardy.fields import TestFieldSpec, build_test_field
from grushin_hardy.geometry import SpaceParams

from oracles import simpson_grid_integral

UNIT_SQUARE = Region(box=((0.0, 1.0), (0.0, 1.0)))


def integrate(integrand, region, settings=None):
    """Adaptive integral of one batch integrand (pts (N,n) -> (N,))."""
    return integrate_vector(lambda pts: integrand(pts)[None, :], 1, region, settings)[0]


def test_constant_over_unit_square():
    res = integrate(lambda p: np.ones(p.shape[0]), UNIT_SQUARE)
    assert abs(res.value - 1.0) <= 1e-14
    assert res.converged


def test_product_monomial_over_unit_square():
    res = integrate(lambda p: p[:, 0] * p[:, 1], UNIT_SQUARE)
    assert abs(res.value - 0.25) <= 1e-13


def test_gauss7_exact_degree_13():
    res = integrate(lambda p: p[:, 0] ** 13, Region(box=((0.0, 1.0),)))
    # embedded error vanishes for degree <= 13, so one cell suffices
    assert res.evals == 15
    assert abs(res.value - 1.0 / 14.0) <= 1e-15


def test_oscillatory_1d():
    res = integrate(lambda p: np.sin(p[:, 0]), Region(box=((0.0, 10.0),)))
    assert abs(res.value - (1.0 - np.cos(10.0))) <= 1e-12


def test_gaussian_3d_against_error_function():
    region = Region(box=((-1.0, 2.0),) * 3)
    res = integrate(lambda p: np.exp(-(p**2).sum(axis=1)), region)
    exact = (np.sqrt(np.pi) / 2.0 * (erf(2.0) + erf(1.0))) ** 3
    assert res.converged
    assert abs(res.value / exact - 1.0) <= 1e-8


def test_settings_and_region_validation():
    with pytest.raises(ValueError, match="lo < hi"):
        Region(box=((1.0, 0.0),))
    # NaN fails every comparison, so lo < hi alone would let it through and
    # the mesh would refine NaN cells until the budget ran out
    nan, inf = float("nan"), float("inf")
    for box in (((nan, 1.0),), ((0.0, inf),), ((-inf, 0.0),), ((0.0, 1.0), (0.0, nan))):
        with pytest.raises(ValueError, match="finite lo < hi"):
            Region(box=box)
    with pytest.raises(ValueError, match="between 1 and 3"):
        Region(box=())
    with pytest.raises(ValueError, match="between 1 and 3"):
        Region(box=((0.0, 1.0),) * 4)
    for bad in ((0.0,), (1.0,), (0.5, 2.0)):
        with pytest.raises(ValueError, match="cuts"):
            Region(box=((0.0, 1.0),), cuts=bad)
    assert Region(box=((0.0, 1.0),), cuts=(0.5, 0.25, 0.5)).cuts == (0.25, 0.5)
    with pytest.raises(ValueError, match="tolerances"):
        IntegrationSettings(rel_tol=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tolerances"):
            IntegrationSettings(rel_tol=bad)
        with pytest.raises(ValueError, match="tolerances"):
            IntegrationSettings(abs_tol=bad)
    # a NaN budget would never refuse a batch
    for bad in (0, float("nan")):
        with pytest.raises(ValueError, match="max_evals"):
            IntegrationSettings(max_evals=bad)
    # the tensor rule is the only one: not an option, still readable
    with pytest.raises(TypeError):
        IntegrationSettings(rule="genz_malik")
    assert IntegrationSettings().rule == "gauss_kronrod_tensor"


def _piece_spy(weights, n_components=1):
    """An integrand on the unit pieces of [0, P] whose first call gives piece
    i the error weights[i] * E (the same degree-20 profile on each piece,
    scaled), or component c's piece i weights[c][i] * E for (C, P) weights,
    and whose later calls are zero; it records the cell centers of each call
    in call order."""
    calls = []
    profile = cubature._NODES_1D**20

    def f(pts):
        # the middle Kronrod node of each cell is its center
        calls.append(pts[7::15, 0].tolist())
        scale = np.repeat(weights, 15, axis=-1) if len(calls) == 1 else np.zeros(len(pts))
        return np.broadcast_to(scale * np.tile(profile, len(pts) // 15), (n_components, len(pts)))

    pieces = np.shape(weights)[-1]
    region = Region(box=((0.0, float(pieces)),), cuts=tuple(range(1, pieces)))
    return f, region, calls


# E: the Kronrod-minus-Gauss error of _piece_spy's profile on one unit piece
_SPY_ERROR = 0.5 * abs((cubature._W15_1D - cubature._W7_1D) @ cubature._NODES_1D**20)


@pytest.mark.parametrize(
    "weights,tol,split",
    [
        # a tolerance of 1.2 E: after pieces 0 and 1 the pieces left hold
        # 0.5 E <= 0.6 E, so pieces 2 and 3 are not split
        ([1.0, 1.0, 0.2, 0.3], 1.2, [0, 1]),
        # 0.5 E: pieces 1 and 3 leave 0.3 E > 0.25 E, so piece 0 (0.2 E, 5x
        # below the worst) is split too; worst first, ties by smaller id
        ([0.2, 1.0, 0.1, 1.0], 0.5, [1, 3, 0]),
        # each component needs its own worst piece, and the union is split
        # worst err/tol first; pieces 1 and 2 are needed by neither
        ([[1.0, 0.1, 0.1, 0.1], [0.1, 0.1, 0.1, 5.0]], 1.2, [3, 0]),
    ],
)
def test_a_round_splits_every_cell_an_unmet_component_needs(weights, tol, split):
    n_components = len(weights) if np.ndim(weights) == 2 else 1
    f, region, calls = _piece_spy(weights, n_components)
    res = integrate_vector(f, n_components, region, IntegrationSettings(rel_tol=1e-300, abs_tol=tol * _SPY_ERROR))
    assert all(r.converged for r in res)
    assert calls[0] == [0.5, 1.5, 2.5, 3.5]
    # each split piece becomes its two halves, in batch order, and the
    # pieces left meet the tolerance
    assert calls[1] == [c for i in split for c in (i + 0.25, i + 0.75)]
    assert len(calls) == 2


def test_a_wide_bundle_splits_fewer_cells_per_round():
    # 80000 components of 15 nodes cap a batch at 3M // (15 * 80000) = 2
    # cells, so of four equal pieces only the first two split in round one
    f, region, calls = _piece_spy([1.0] * 4, n_components=80_000)
    integrate_vector(f, 80_000, region)
    assert calls[1] == [0.25, 0.75, 1.25, 1.75]
    assert calls[2] == [2.25, 2.75, 3.25, 3.75]
    f, region, calls = _piece_spy([1.0] * 4)
    integrate_vector(f, 1, region)
    assert calls[1] == [0.25, 0.75, 1.25, 1.75, 2.25, 2.75, 3.25, 3.75]


def test_cut_on_a_kink_costs_one_cell_per_piece():
    def kink(p):
        return np.abs(p[:, 0] - 0.3) * (1.0 + p[:, 1])

    box = ((0.0, 1.0), (0.0, 1.0))
    exact = (0.3**2 + 0.7**2) / 2.0 * 1.5
    cut = integrate(kink, Region(box=box, cuts=(0.3,)))
    plain = integrate(kink, Region(box=box))
    assert cut.converged and cut.evals == 2 * 225
    assert abs(cut.value - exact) <= 1e-14
    assert plain.evals > 10 * cut.evals
    assert abs(plain.value - exact) <= plain.error_estimate + 1e-14


def test_pieces_refine_against_one_global_tolerance():
    # a piece whose share of the total is far below rel_tol of the total
    # needs no refinement of its own
    def f(p):
        u = p[:, 0]
        return np.where(u < 1.0, 1e-9 * np.abs(u - 0.3) ** 0.5, np.exp(u))

    settings = IntegrationSettings(rel_tol=1e-6, abs_tol=1e-300)
    res = integrate(f, Region(box=((0.0, 2.0),), cuts=(1.0,)), settings)
    exact = 1e-9 * (2.0 / 3.0) * (0.3**1.5 + 0.7**1.5) + np.exp(2.0) - np.e
    assert res.converged
    assert res.evals == 2 * 15
    assert abs(res.value - exact) <= 1e-6 * exact


def _bump_mass_integrand(space, spec):
    """|f|^2 of a bump field and the box |x_i| <= outer, |y_j| <= outer^a/a
    around its support."""
    field = build_test_field(space, spec)

    def f(pts):
        vals, _ = field.eval_batch(pts)
        return np.abs(vals) ** 2

    a = 1.0 + space.gamma
    half = np.repeat([spec.outer_rho, spec.outer_rho**a / a], [space.m, space.k])
    return f, -half, half


def test_bump_mass_matches_fixed_grid_oracle():
    space = SpaceParams(m=1, k=1, gamma=1.0)
    spec = TestFieldSpec(family="bump_radial", inner_rho=0.5, outer_rho=2.0)
    f, lows, highs = _bump_mass_integrand(space, spec)
    res = integrate(f, Region(box=tuple(zip(lows, highs))))
    oracle = simpson_grid_integral(f, lows, highs, 1600)
    assert res.converged
    assert abs(res.value / oracle - 1.0) <= 1e-8


def test_linearity_within_error_estimates():
    region = Region(box=((-1.0, 1.0), (-1.0, 1.0)))

    def f(p):
        return np.exp(-(p**2).sum(axis=1))

    def g(p):
        return p[:, 0] ** 2 * p[:, 1] ** 2

    def combo(p):
        return f(p) + 2.0 * g(p)

    rf, rg, rc = integrate(f, region), integrate(g, region), integrate(combo, region)
    tol = rf.error_estimate + 2.0 * rg.error_estimate + rc.error_estimate
    assert abs(rc.value - (rf.value + 2.0 * rg.value)) <= tol + 1e-13


def test_bitwise_determinism():
    space = SpaceParams(m=1, k=1, gamma=1.0)
    spec = TestFieldSpec(family="bump_radial", inner_rho=0.5, outer_rho=2.0)
    f, lows, highs = _bump_mass_integrand(space, spec)
    region = Region(box=tuple(zip(lows, highs)))
    first = integrate(f, region)
    second = integrate(f, region)
    assert first.value == second.value
    assert first.error_estimate == second.error_estimate
    assert first.evals == second.evals


def test_dilation_change_of_variables():
    # integral of |f(dilate(z))|^2 is lambda^{-Q} times the mass of f
    space = SpaceParams(m=1, k=1, gamma=1.0)
    spec = TestFieldSpec(family="bump_radial", inner_rho=0.5, outer_rho=2.0)
    f, lows, highs = _bump_mass_integrand(space, spec)
    base = integrate(f, Region(box=tuple(zip(lows, highs))))
    lam = 1.7

    def dilated(pts):
        scaled = pts.copy()
        scaled[:, : space.m] *= lam
        scaled[:, space.m :] *= lam ** (1.0 + space.gamma)
        return f(scaled)

    scale = np.array([lam] * space.m + [lam ** (1.0 + space.gamma)] * space.k)
    box = tuple((lo / s, hi / s) for (lo, hi), s in zip(zip(lows, highs), scale))
    res = integrate(dilated, Region(box=box))
    expected = base.value * lam**-space.Q
    assert abs(res.value / expected - 1.0) <= 1e-8


@pytest.mark.parametrize("axis", (0, 1))
def test_split_follows_the_axis_with_the_error(axis):
    # a kink along one axis of the square costs the 1-D mesh times the 15
    # nodes of the smooth axis: no cell is ever split along the kink
    settings = IntegrationSettings(rel_tol=1e-10, max_evals=1_000_000)

    def g(u):
        return np.sqrt(np.abs(u - 1.0 / 3.0))

    line = integrate(lambda p: g(p[:, 0]), Region(box=((0.0, 1.0),)), settings)
    square = integrate(lambda p: g(p[:, axis]), UNIT_SQUARE, settings)
    assert line.converged and square.converged
    assert square.evals == 15 * line.evals
    assert abs(square.value - line.value) <= square.error_estimate + line.error_estimate


def test_non_finite_integrand_stops_at_the_first_batch():
    # an infinite value meets the rule's zero Gauss weights, and the stop
    # still comes with no RuntimeWarning (an error under the test settings)
    for bad in (np.nan, np.inf):
        calls = []

        def f(p):
            calls.append(len(p))
            out = np.stack([np.ones(len(p)), p[:, 0] * p[:, 1]])
            out[1, 7] = bad
            return out

        with pytest.raises(ValueError, match=rf"component 1 is {bad} at node \(") as info:
            integrate_vector(f, 2, UNIT_SQUARE)
        assert len(calls) == 1
        # the node is named in region coordinates: the eighth node of the one cell
        node = 0.5 + 0.5 * np.array([-0.991455371120813, 0.0])
        assert str(tuple(node.tolist())) in str(info.value)


def test_rule_is_shared_per_dimension_and_read_only(monkeypatch):
    rules = []
    apply = cubature._TensorGaussKronrod.apply

    def spy(self, values, halves):
        rules.append(self)
        return apply(self, values, halves)

    monkeypatch.setattr(cubature._TensorGaussKronrod, "apply", spy)
    for box in (((0.0, 1.0), (0.0, 1.0)), ((-1.0, 2.0), (0.0, 3.0))):
        integrate(lambda p: np.ones(p.shape[0]), Region(box=box))
    assert len(rules) == 2 and rules[0] is rules[1]
    for arr in (rules[0].points, rules[0].weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0


def test_max_evals_exhaustion_reports_not_converged():
    # a budget of ~20 cells cannot localize the kink tightly enough for
    # rel 1e-14, so the run must stop on evals and say so
    settings = IntegrationSettings(rel_tol=1e-14, abs_tol=1e-16, max_evals=300)
    res = integrate(
        lambda p: np.abs(p[:, 0] - 1.0 / 3.0) ** 0.2,
        Region(box=((0.0, 1.0),)),
        settings,
    )
    assert not res.converged
    assert res.evals <= 300
    # the cells popped for the refused last batch are still part of the mesh
    exact = ((2.0 / 3.0) ** 1.2 + (1.0 / 3.0) ** 1.2) / 1.2
    assert abs(res.value - exact) <= 10 * res.error_estimate


def test_complex_integrand():
    res = integrate(lambda p: np.exp(1j * p[:, 0]), Region(box=((0.0, np.pi),)))
    assert abs(res.value - 2.0j) <= 1e-12


def test_real_integrand_returns_real_value():
    res = integrate(lambda p: p[:, 0] ** 2, Region(box=((0.0, 1.0),)))
    assert isinstance(res.value, float)


def test_integrate_vector_bundle():
    region = Region(box=((0.0, 1.0), (0.0, 1.0)))

    def bundle(pts):
        return np.stack(
            [np.ones(len(pts)), pts[:, 0] ** 2, np.exp(-(pts**2).sum(axis=1))]
        )

    out = integrate_vector(bundle, 3, region)
    # the components share one mesh; each alone gets its own
    assert len({r.evals for r in out}) == 1
    assert all(r.converged for r in out)
    singles = [
        integrate(f, region)
        for f in (
            lambda p: np.ones(len(p)),
            lambda p: p[:, 0] ** 2,
            lambda p: np.exp(-(p**2).sum(axis=1)),
        )
    ]
    for a, b in zip(out, singles):
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate + 1e-13


def test_integrate_vector_shape_mismatch():
    region = Region(box=((0.0, 1.0),))
    with pytest.raises(ValueError, match="shape"):
        integrate_vector(lambda p: np.ones(len(p)), 2, region)
