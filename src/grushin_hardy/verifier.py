"""Numerical checks for the weighted Hardy identity and its consequences.

Every operation assembles integral terms with shared-mesh cubature and
reports quantitative residuals: the four-term identity, the p >= 2 and
1 < p < 2 remainder bounds with module-computed constants, Rayleigh-ratio
sharpness probes on truncated extremal fields, CKN-type interpolation
inequalities, and HPW-type uncertainty products.

Every field integral is 2-D, whatever m + k is: it runs on Grushin-polar
pieces whose edges follow the fields' kinks (see _polar_pieces), and each
node is mapped to its (|x|, |y|, rho), on which fields and weights evaluate
in closed form.

Conventions: Df is the radial derivative, xi = v^(1/p) Df and
eta = xi + w^(1/p) f, so xi - eta = -w^(1/p) f and every integrand is
assembled pointwise from (f, Df, v, w, phi); C_p(xi, eta) comes in closed
form from the identity's own rows (see _TERMS). The pieces cover only the
fields' support, away from {x=0} wherever a weight is singular there, so
every weight is finite at every node, and a term is an exact 0 wherever its
field vanishes.

A report's `passed` is the stated tolerance check and additionally
requires the underlying quadrature to have converged; a non-converged
integral never passes.
"""

import math
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from .cp import ConstantEstimate, CpObjectiveKind, find_constant
from .cp import cp_value_batch  # unused here; perfbench/tracer.py rebinds it
from .cubature import IntegralResult, IntegrationSettings, Region, integrate_vector
from .fields import ExtremalField, TestField, build_extremal_field
from .fields import radial_derivative_batch  # unused here; perfbench/tracer.py rebinds it
from .geometry import SpaceParams
from .geometry import radial_coords  # unused here; perfbench/tracer.py rebinds it
from .weights import HPW_PAIRS, PAIRS, WEIGHTS, WeightPair, eval_monomials, hpw_pair, log_features

__all__ = [
    "IdentityReport",
    "InequalityReport",
    "RemainderPge2Report",
    "RemainderPlt2Report",
    "SharpnessReport",
    "CknParams",
    "CknReport",
    "HpwReport",
    "verify_checks",
    "verify_identity",
    "verify_identity_sweep",
    "verify_inequality",
    "verify_remainder_p_ge2",
    "verify_remainder_p_lt2",
    "sharpness_probe",
    "verify_ckn",
    "verify_hpw",
    "FIELD_CHECKS",
]

# the identity passes when |residual| <= max(10 quadrature errors, this * lhs)
_IDENTITY_REL_TOL = 1e-6
# the sharpness probe passes when the last level's relative gap is at most this
_SHARPNESS_GAP = 0.05


@dataclass(frozen=True)
class _Report:
    """What every check reports, from its own integrals: their summed error
    estimate, whether every one converged, and the verdict, which needs both."""

    quadrature_error: float
    converged: bool
    passed: bool

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class IdentityReport(_Report):
    lhs: float
    w_term: float
    cp_term: float
    phi_term: float
    residual: float
    rel_residual: float


@dataclass(frozen=True)
class InequalityReport(_Report):
    lhs: float
    w_term: float
    ratio: float
    margin: float

    def to_dict(self) -> Dict[str, object]:
        d = asdict(self)
        if not math.isfinite(self.ratio):
            d["ratio"] = None
        return d


@dataclass(frozen=True)
class RemainderPge2Report(_Report):
    p: float
    cp_term: float
    eta_term: float
    constant: float
    constant_bracket: Tuple[float, float]
    margin: float


@dataclass(frozen=True)
class RemainderPlt2Report(_Report):
    p: float
    cp_term: float
    mixed_term: float
    min_term: float
    c1: float
    c2: float
    c3: float
    lower_margin: float
    upper_margin: float
    min_margin: float


@dataclass(frozen=True)
class SharpnessReport(_Report):
    levels: List[Dict[str, float]]
    sharp_constant: float
    final_gap: float


@dataclass(frozen=True)
class CknParams:
    """Interpolation exponents; c is pinned by the balance conditions."""

    p: float
    q: float
    r: float
    delta: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not self.p > 1.0:
            raise ValueError("CknParams: p must lie in (1, inf)")
        if not self.q > 1.0:
            raise ValueError("CknParams: q must lie in (1, inf)")
        if not self.r > 0.0:
            raise ValueError("CknParams: r must lie in (0, inf)")
        if self.p + self.q < self.r:
            raise ValueError("CknParams: requires p + q >= r")
        lo = max(0.0, (self.r - self.q) / self.r)
        hi = min(1.0, self.p / self.r)
        if not lo - 1e-12 <= self.delta <= hi + 1e-12:
            raise ValueError("CknParams: delta must lie in [0,1] and [(r-q)/r, p/r]")
        balance = self.delta * self.r / self.p + (1.0 - self.delta) * self.r / self.q
        if abs(balance - 1.0) > 1e-9:
            raise ValueError("CknParams: requires delta*r/p + (1-delta)*r/q = 1")
        if abs(self.c - (self.delta / self.p + self.b * (1.0 - self.delta))) > 1e-9:
            raise ValueError("CknParams: requires c = delta/p + b*(1-delta)")


@dataclass(frozen=True)
class CknReport(_Report):
    params: CknParams
    lhs: float
    cp_term: float
    bracket: float
    w_term: float
    phi_term: float
    bracket_mismatch: float
    left: float
    right: float
    consistent: bool


@dataclass(frozen=True)
class HpwReport(_Report):
    case: str
    p: float
    grad_term: float
    weight_term: float
    mass_term: float
    constant: float
    left: float
    right: float
    garofalo: Optional[Dict[str, float]] = None
    classical: Optional[Dict[str, float]] = None


def _refuse(field: TestField, pair_id: str, message: str) -> None:
    """Raise a support rule's message, or the family's for an extremal field."""
    if field.spec.family == "extremal_truncated":
        message = (
            f"field family extremal_truncated cannot run a field check on {pair_id} here: "
            "the extremal field runs out to R and down to x = 0"
        )
    raise ValueError(message)


def _check_support(pair: WeightPair, field: TestField) -> None:
    if pair.space != field.space:
        raise ValueError("pair and field use different spaces")
    radius = pair.radius
    outside = radius is not None and not field.spec.outer_rho <= 0.9 * radius
    on_axis = pair.x_singular and not field.spec.x_floor > 0.0
    if outside:
        _refuse(field, pair.id, "field must keep outer_rho <= 0.9 R on a ball domain")
    if on_axis:
        _refuse(field, pair.id, "pair is singular on {x=0}; use a field with x_floor > 0")


def _check_remainder(pair: WeightPair, field: TestField, p_ok: bool, p_rule: str) -> None:
    if pair.monomials[WEIGHTS.index("phi"), 0] != 0.0:
        raise ValueError("remainder bounds need a pair with phi identically 0")
    if not p_ok:
        raise ValueError(p_rule)
    _check_support(pair, field)


def _polar_pieces(fields: Sequence[TestField]):
    """The fields' support as Grushin-polar pieces, and the lift of nodes.

    Fields, weights, Df and |grad f|^2 depend on (|x|, rho) only, so every
    integral is 2-D in r = rho cos(psi)^(1/a), s = rho^a sin(psi)/a, where
    a = 1+gamma and dz = |S^(m-1)||S^(k-1)| r^(m-1) s^(k-1) (rho^a/a)
    cos(psi)^(1/a-1) drho dpsi. Piece i is the unit cell [i, i+1] x [0, 1]
    of the nodes (i + tau, t). rho runs between two cuts (the fields' window
    breakpoints, x_floor and 2 x_floor), geometric in tau, and psi between
    the curves |x| = r_out and |x| = r_in, psi = arccos((r0/rho)^a), linear
    in t; so every kink lies on a cell edge and |x| < x_floor is never
    sampled. Two square-root edges are graded away: from the apex of a kink
    curve rho takes tau^2 for tau, and with x_floor = 0 psi runs up to pi/2
    as (pi/2)(1 - (1-t)^a). lift gives the nodes' (r, s, rho), where
    r = |x| and s = |y|, and their Jacobians.
    """
    space = fields[0].space
    m, a = space.m, 1.0 + space.gamma
    x_floor, outer = fields[0].spec.x_floor, fields[0].spec.outer_rho
    if any((f.spec.x_floor, f.spec.outer_rho) != (x_floor, outer) for f in fields[1:]):
        raise ValueError("sweep fields must share one support region")
    lo = max(min(f.spec.inner_rho for f in fields), x_floor)
    breaks = {lo, x_floor, 2.0 * x_floor}.union(*(f.rho_breaks() for f in fields))
    edges = sorted(b for b in breaks if lo <= b <= outer)
    pieces = []  # (rho0, rho1, rho grading, r_out, r_in, psi grading)
    for rho0, rho1 in zip(edges, edges[1:]):
        if x_floor == 0.0:
            pieces.append((rho0, rho1, 1.0, math.inf, 0.0, a))
            continue
        # from the apex of a kink curve psi's range grows like sqrt(rho - rho0)
        rho_grade = 2.0 if rho0 in (x_floor, 2.0 * x_floor) else 1.0
        if rho0 >= 2.0 * x_floor:
            pieces.append((rho0, rho1, rho_grade, math.inf, 2.0 * x_floor, 1.0))
        pieces.append((rho0, rho1, rho_grade, 2.0 * x_floor, x_floor, 1.0))
    rho0, rho1, rho_grade, r_out, r_in, grade = (np.array(col) for col in zip(*pieces))
    spheres = math.prod(2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0) for d in (m, space.k))

    def lift(nodes: np.ndarray) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
        i = np.clip(np.floor(nodes[:, 0]).astype(int), 0, len(pieces) - 1)
        tau, t = nodes[:, 0] - i, nodes[:, 1]
        log_ratio = np.log(rho1[i] / rho0[i])
        rho = rho0[i] * np.exp(log_ratio * tau ** rho_grade[i])
        d_rho = rho * log_ratio * rho_grade[i] * tau ** (rho_grade[i] - 1.0)
        cos_hi = np.minimum(1.0, (r_in[i] / rho) ** a)
        sin_hi = np.sqrt(1.0 - cos_hi**2)
        width = np.arccos(cos_hi) - np.arccos(np.minimum(1.0, (r_out[i] / rho) ** a))
        # psi = psi_hi - delta, expanded so that cos(psi) keeps its relative
        # precision where it vanishes on the y axis
        delta = width * (1.0 - t) ** grade[i]
        d_psi = width * grade[i] * (1.0 - t) ** (grade[i] - 1.0)
        cos = cos_hi * np.cos(delta) + sin_hi * np.sin(delta)
        sin = sin_hi * np.cos(delta) - cos_hi * np.sin(delta)
        r, s = rho * cos ** (1.0 / a), rho**a * sin / a
        jac = r ** (m - 1) * s ** (space.k - 1) * (rho**a / a) * cos ** (1.0 / a - 1.0)
        return (r, s, rho), spheres * jac * d_rho * d_psi

    return Region(box=((0.0, len(pieces)), (0.0, 1.0)), cuts=tuple(range(1, len(pieces)))), lift


class _Batch:
    """What every field integrand shares on one batch, computed eagerly from the plan.

    Each field gives f, f_r and f_rho on the nodes' (r, s, rho) (see
    TestField.eval_radial), and Df follows in closed form: r and rho are both
    of degree 1 under the dilations, so Df = (r/rho)^gamma (r f_r + rho f_rho)/rho.
    power[slot, p] is (|f|^p, |Df|^p) and g[slot, p] is G = |f|^(p-2)
    Re(conj(f) Df) = |f|^p Re(Df/f), 0 where f is, for every (slot, p) that
    a pair reads. weights[i] is plan block i on the nodes, a pair's v, w, phi
    and h = v^(1/p) w^((p-1)/p): one eval_monomials per R.
    """

    def __init__(self, space: SpaceParams, coords, plan: "_Plan"):
        self.space = space
        r, _, rho = self.nodes = coords
        scale = (r / rho) ** space.gamma / rho
        radial = [field.eval_radial(r, rho) for field in plan.fields]
        self.vals = [f for f, _, _ in radial]
        self.partials = [(f_r, f_rho) for _, f_r, f_rho in radial]
        self.df = [scale * (r * f_r + rho * f_rho) for _, f_r, f_rho in radial]
        size = [(np.abs(f), np.abs(d)) for f, d in zip(self.vals, self.df)]
        ratio = {
            f: (self.df[f] / np.where(self.vals[f] != 0.0, self.vals[f], 1.0)).real
            for f in dict.fromkeys(f for f, _ in plan.powers)
        }
        self.power = {(f, p): (size[f][0] ** p, size[f][1] ** p) for f, p in plan.powers}
        self.g = {(f, p): self.power[f, p][0] * ratio[f] for f, p in plan.powers}
        monomials = [eval_monomials(rows, log_features(r, rho, R)) for R, rows in plan.groups]
        self.weights = [monomials[group][rows] for group, rows in plan.blocks]

    def grad_sq(self, f: int) -> np.ndarray:
        """Euclidean |grad f|^2 of field slot f, from grad r . grad rho =
        (r/rho)^(2g+1) and |grad rho|^2 = (r^(4g+2) + (1+g)^2 s^2)/rho^(4g+2)."""
        f_r, f_rho = self.partials[f]
        r, s, rho = self.nodes
        g = self.space.gamma
        cross = (f_r * np.conj(f_rho)).real * (r / rho) ** (2.0 * g + 1.0)
        grad_rho_sq = (r ** (4.0 * g + 2.0) + (1.0 + g) ** 2 * s**2) / rho ** (4.0 * g + 2.0)
        return np.abs(f_r) ** 2 + 2.0 * cross + np.abs(f_rho) ** 2 * grad_rho_sq


def _identity_rows(b: _Batch, lhs, w_term, cp, phi_term, f: int, p: float, block: int) -> None:
    v, w, phi, h = b.weights[block]
    f_p, df_p = b.power[f, p]
    lhs = np.multiply(v, df_p, out=lhs)
    w_term = np.multiply(w, f_p, out=w_term)
    if phi_term is not None:
        np.multiply(phi, f_p, out=phi_term)
    if cp is not None:
        np.multiply(w_term, p - 1.0, out=cp)
        cp += lhs
        cp += p * h * b.g[f, p]


def _eta_rows(b: _Batch, eta_p, mixed, min_form, f: int, p: float, block: int) -> None:
    v, w = b.weights[block][:2]
    xi, wf = v ** (1.0 / p) * b.df[f], w ** (1.0 / p) * b.vals[f]
    eta = np.abs(xi + wf)
    eta_p = np.power(eta, p, out=eta_p)
    with np.errstate(divide="ignore", invalid="ignore"):
        if mixed is not None:
            # (|xi| + |xi-eta|)^(p-2) |eta|^2 <= (|xi| + |xi-eta|)^p -> 0 with s
            s = np.abs(xi) + np.abs(wf)
            mixed[:] = np.where(s > 0, s ** (p - 2.0) * eta**2, 0.0)
        if min_form is not None:
            # t -> 0 makes t^(p-2) |eta|^2 -> inf, so |eta|^p wins
            t = np.abs(wf)
            min_form[:] = np.where(t > 0, np.minimum(eta_p, t ** (p - 2.0) * eta**2), eta_p)


# The term table: family -> writer(batch, *rows, f, p, block, *params), which
# writes in place each row of the family that the case (field slot f, its
# pair's p and monomial block) lists, and gets None for the others. The
# identity's rows share v, w, phi, h, |f|^p, |Df|^p and G, and C_p(xi, eta) =
# v|Df|^p + (p-1) w|f|^p + p h G (see cp.py) reuses lhs and w; the remainder
# rows share xi = v^(1/p) Df, xi - eta = -w^(1/p) f and eta. A name with
# parameters is (name, *params).
_TERMS: Dict[Tuple[str, ...], Callable[..., object]] = {
    ("lhs", "w", "cp", "phi"): _identity_rows,
    ("eta_p", "mixed", "min"): _eta_rows,
    ("w^e|f|^q",): lambda b, row, f, p, block, e, q: np.multiply(
        b.weights[block][1] ** e, np.abs(b.vals[f]) ** q, out=row
    ),
    ("mass",): lambda b, row, f, p, block: np.power(np.abs(b.vals[f]), 2, out=row),
    ("grad_sq",): lambda b, row, f, p, block: np.copyto(row, b.grad_sq(f)),
}
_FAMILY = {name: family for family in _TERMS for name in family}

_IDENTITY = ("lhs", "w", "cp", "phi")  # lhs = w + cp + phi


class _Plan:
    """What every batch of one integration evaluates, resolved once from its
    cases (see _integrate_cases): the row of each component, keyed by
    (id(pair), field slot, name); the steps, one writer call per (pair, field,
    _TERMS family, params); the (slot, p) that pairs read; and per distinct R
    the monomial rows of every pair, whose places are blocks.
    """

    def __init__(self, cases: Sequence[tuple]):
        self.fields = list({id(field): field for _, field, _ in cases}.values())
        self.slot = {id(field): i for i, field in enumerate(self.fields)}
        self.component: Dict[tuple, int] = {}
        steps: Dict[tuple, tuple] = {}  # (id(pair), slot, family, params) -> (pair, rows)
        for pair, field, names in cases:
            for name in names:
                key = (id(pair), self.slot[id(field)], name)
                if key not in self.component:
                    self.component[key] = len(self.component)
                    term, params = (name[0], name[1:]) if isinstance(name, tuple) else (name, ())
                    family = _FAMILY[term]
                    step = steps.setdefault((*key[:2], family, params), (pair, [None] * len(family)))
                    step[1][family.index(term)] = self.component[key]

        groups: Dict[Optional[float], list] = {}  # R -> its monomial rows
        blocks: Dict[int, int] = {}  # id(pair) -> its block; a pairless row reads none
        self.blocks, self.steps = [], []
        for (source, f, family, params), (pair, rows) in steps.items():
            if pair is not None and source not in blocks:
                group = groups.setdefault(pair.radius, [])
                start = sum(map(len, group))
                group.append(pair.monomials)
                blocks[source] = len(self.blocks)
                self.blocks.append((list(groups).index(pair.radius), slice(start, start + len(group[-1]))))
            self.steps.append((_TERMS[family], rows, f, pair and pair.p, blocks.get(source), params))
        self.powers = tuple({(f, p): None for _, _, f, p, _, _ in self.steps if p is not None})
        self.groups = [(R, np.concatenate(rows)) for R, rows in groups.items()]

    def rows(self, space: SpaceParams, coords) -> np.ndarray:
        """Every component's row on the nodes' (r, s, rho), before the Jacobian."""
        b = _Batch(space, coords, self)
        out = np.empty((len(self.component), coords[0].shape[0]))
        for writer, rows, f, p, block, params in self.steps:
            writer(b, *[None if k is None else out[k] for k in rows], f, p, block, *params)
        return out


def _integrate_cases(cases: Sequence[tuple], settings: Optional[IntegrationSettings]) -> List[Dict]:
    """Integrate the terms of every case on one shared mesh.

    A case is one check's integrand on one field, (pair, field, names): the
    names of its terms in _TERMS. Each distinct (pair, field, name) is one
    component, integrated once however many cases list it, and every case
    that lists it reads its value and error. Cases share one space and one
    support region; returns each case's results by term name.
    """
    if len(cases) == 0:
        raise ValueError("the integration needs at least one case")
    space = cases[0][1].space
    if any(field.space != space for _, field, _ in cases):
        raise ValueError("sweep cases must share one space")
    plan = _Plan(cases)
    region, lift = _polar_pieces(plan.fields)

    def integrand(nodes: np.ndarray) -> np.ndarray:
        # an overflow, division by zero or invalid operation outside the
        # kernels' own errstate blocks stops the run with a message, instead
        # of a stream of RuntimeWarnings ahead of the non-finite stop
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                coords, jac = lift(nodes)
                out = plan.rows(space, coords)
                out *= jac
        except FloatingPointError as exc:
            raise ValueError(
                f"integrand arithmetic failed in space ({space.m},{space.k},{space.gamma:g}): {exc}"
            ) from None
        return out

    res = integrate_vector(integrand, len(plan.component), region, settings)
    return [
        {name: res[plan.component[id(pair), plan.slot[id(field)], name]] for name in names}
        for pair, field, names in cases
    ]


def _summary(res: Dict[object, IntegralResult], names: Sequence) -> Tuple[List[float], float, bool]:
    """The values of a case's named terms, their summed error estimate (a
    term listed twice counts twice), and whether every one converged."""
    listed = [res[name] for name in names]
    values = [float(r.value) for r in listed]
    return values, float(sum(r.error_estimate for r in listed)), all(r.converged for r in listed)


def _slack(qerr: float, width: float = 0.0, term: float = 0.0) -> float:
    """How far a margin may fall below 0: 10 times the propagated quadrature
    error, plus a constant's bracket width times the term it multiplies."""
    return 10.0 * qerr + width * term


def _sides(left: Sequence, right: Sequence, constant: float = 1.0) -> Tuple[float, float, float]:
    """Both sides of prod(base^e) >= constant prod(base^e), over the (e, base,
    error) factors of left and right, and the slack of their difference: 10
    times the errors both sides propagate from their factors' own errors, a
    side times the sum of e error / base (each base floored at 1e-300), so it
    scales with the sides under a dilation."""
    sides = [c * math.prod(base**e for e, base, _ in f) for f, c in ((left, 1.0), (right, constant))]
    errors = [v * sum(e * err / max(base, 1e-300) for e, base, err in f) for v, f in zip(sides, (left, right))]
    return sides[0], sides[1], 10.0 * sum(errors)


# -- plans: one per field check, taking its verify_* function's arguments
# without settings. A plan runs the check's precondition and constant
# searches and yields the check's case, (pair, field, term names); sent the
# case's integrals by name, it yields the check's report.


def _identity_plan(pair: WeightPair, field: TestField):
    _check_support(pair, field)
    res = yield pair, field, _IDENTITY
    (lhs, w_term, cp_term, phi_term), qerr, converged = _summary(res, _IDENTITY)
    residual = lhs - w_term - cp_term - phi_term
    denom = max(lhs, w_term)
    rel_residual = residual / denom if denom > 0 else 0.0
    passed = converged and abs(residual) <= max(10.0 * qerr, _IDENTITY_REL_TOL * lhs)
    yield IdentityReport(
        lhs=lhs,
        w_term=w_term,
        cp_term=cp_term,
        phi_term=phi_term,
        residual=residual,
        rel_residual=rel_residual,
        quadrature_error=qerr,
        converged=converged,
        passed=passed,
    )


def _inequality_plan(pair: WeightPair, field: TestField):
    _check_support(pair, field)
    names = ("lhs", "w")
    res = yield pair, field, names
    (lhs, w_term), qerr, converged = _summary(res, names)
    ratio = lhs / w_term if w_term > 0 else float("nan")
    margin = lhs - w_term
    passed = converged and margin >= -_slack(qerr)
    yield InequalityReport(
        lhs=lhs,
        w_term=w_term,
        ratio=ratio,
        margin=margin,
        quadrature_error=qerr,
        converged=converged,
        passed=passed,
    )


def _remainder_pge2_plan(
    pair: WeightPair, field: TestField, constant: Optional[ConstantEstimate] = None
):
    _check_remainder(pair, field, pair.p >= 2.0, "verify_remainder_p_ge2 needs p >= 2")
    p = pair.p
    if constant is None:
        constant = find_constant(CpObjectiveKind(kind="cp_pge2", p=p))
    names = ("cp", "eta_p")
    res = yield pair, field, names
    (cp_term, eta_term), qerr, converged = _summary(res, names)
    margin = cp_term - constant.value * eta_term
    passed = converged and margin >= -_slack(qerr, constant.width, eta_term)
    yield RemainderPge2Report(
        p=p,
        cp_term=cp_term,
        eta_term=eta_term,
        constant=constant.value,
        constant_bracket=constant.bracket,
        margin=margin,
        quadrature_error=qerr,
        converged=converged,
        passed=passed,
    )


def _remainder_plt2_plan(
    pair: WeightPair, field: TestField, constants: Optional[Dict[str, ConstantEstimate]] = None
):
    _check_remainder(pair, field, 1.0 < pair.p < 2.0, "verify_remainder_p_lt2 needs 1 < p < 2")
    p = pair.p
    if constants is None:
        constants = {
            kind: find_constant(CpObjectiveKind(kind=kind, p=p))
            for kind in ("c1_inf", "c2_sup", "c3_min")
        }
    names = ("cp", "mixed", "min")
    res = yield pair, field, names
    (cp_term, mixed_term, min_term), qerr, converged = _summary(res, names)
    c1, c2, c3 = (constants[k] for k in ("c1_inf", "c2_sup", "c3_min"))
    lower_margin = cp_term - c1.value * mixed_term
    upper_margin = c2.value * mixed_term - cp_term
    min_margin = cp_term - c3.value * min_term
    ok = (
        lower_margin >= -_slack(qerr, c1.width, mixed_term)
        and upper_margin >= -_slack(qerr, c2.width, mixed_term)
        and min_margin >= -_slack(qerr, c3.width, min_term)
    )
    yield RemainderPlt2Report(
        p=p,
        cp_term=cp_term,
        mixed_term=mixed_term,
        min_term=min_term,
        c1=c1.value,
        c2=c2.value,
        c3=c3.value,
        lower_margin=lower_margin,
        upper_margin=upper_margin,
        min_margin=min_margin,
        quadrature_error=qerr,
        converged=converged,
        passed=converged and ok,
    )


def _ckn_plan(pair: WeightPair, field: TestField, ckn: CknParams):
    if abs(ckn.p - pair.p) > 1e-12:
        raise ValueError("CknParams p must match the pair's p")
    _check_support(pair, field)
    p = pair.p
    # with delta = 0, q = r and b = c, so both name one integral
    name_q, name_r = ("w^e|f|^q", ckn.b * ckn.q, ckn.q), ("w^e|f|^q", ckn.c * ckn.r, ckn.r)
    names = _IDENTITY + (name_q, name_r)
    res = yield pair, field, names
    (lhs, w_term, cp_term, phi_term, int_q, int_r), qerr, converged = _summary(res, names)
    bracket = lhs - cp_term
    mismatch = abs(bracket - (w_term + phi_term))
    consistent = mismatch <= 10.0 * qerr

    e = {name: r.error_estimate for name, r in res.items()}
    left_b = (ckn.delta / p, max(bracket, 0.0), e["lhs"] + e["cp"])
    left_q = ((1.0 - ckn.delta) / ckn.q, max(int_q, 0.0), e[name_q])
    left, right, slack = _sides([left_b, left_q], [(1.0 / ckn.r, max(int_r, 0.0), e[name_r])])
    passed = converged and consistent and left >= right - slack
    yield CknReport(
        params=ckn,
        lhs=lhs,
        cp_term=cp_term,
        bracket=bracket,
        w_term=w_term,
        phi_term=phi_term,
        bracket_mismatch=mismatch,
        left=left,
        right=right,
        quadrature_error=qerr,
        converged=converged,
        consistent=consistent,
        passed=passed,
    )


def _hpw_plan(case: str, p: float, field: TestField):
    pair_id = HPW_PAIRS.get(case)
    if pair_id is None:
        raise ValueError(f"case must be one of {tuple(HPW_PAIRS)}")
    spec = PAIRS[pair_id]
    if p <= 1.0:
        raise ValueError("p must be > 1")
    if "R" in spec.params and not math.isfinite(field.spec.R):
        raise ValueError(f"{case} needs a field built with finite R")
    if field.space.gamma > 0.0 and not field.spec.x_floor > 0.0:
        _refuse(field, pair_id, "gamma > 0 weights are singular on {x=0}; use x_floor > 0")
    space, pp = field.space, p / (p - 1.0)
    pair = hpw_pair(case, space, p, field.spec.R)
    garofalo_p2 = spec.hpw.garofalo and p == 2.0
    track_grad = garofalo_p2 and space.gamma == 0.0
    grad, weight = "lhs", ("w^e|f|^q", -1.0 / (p - 1.0), pp)
    names = (grad, weight, "mass") + (("grad_sq",) if track_grad else ())
    res = yield pair, field, names
    (grad_term, weight_term, mass_term, *_), qerr, converged = _summary(res, names)
    constant = pair.kappa
    t = {name: (float(r.value), r.error_estimate) for name, r in res.items()}
    mass, squares = [(1.0, *t["mass"])], [(2.0, *t["mass"])]
    left, right, slack = _sides([(1.0 / p, *t[grad]), (1.0 / pp, *t[weight])], mass, constant)
    passed = converged and left >= right - slack

    garofalo = classical = None
    if garofalo_p2:
        q_sq = ((space.Q - 2.0) / 2.0) ** 2
        g_left, g_right, g_slack = _sides([(1.0, *t[grad]), (1.0, *t[weight])], squares, q_sq)
        garofalo = {"left": g_left, "right": g_right, "passed": bool(converged and g_left >= g_right - g_slack)}
        passed = passed and garofalo["passed"]
        if track_grad:
            (full, e_full), n_sq = t["grad_sq"], (space.n - 2.0) ** 2 / 4.0
            c_left, c_right, c_slack = _sides([(1.0, full, e_full), (1.0, *t[weight])], squares, n_sq)
            classical = {
                "grad_full": full,
                "left": c_left,
                "right": c_right,
                "dominates": bool(full >= grad_term - 10.0 * (e_full + t[grad][1])),
                "passed": bool(converged and c_left >= c_right - c_slack),
            }
            passed = passed and classical["passed"] and classical["dominates"]

    yield HpwReport(
        case=case,
        p=p,
        grad_term=grad_term,
        weight_term=weight_term,
        mass_term=mass_term,
        constant=constant,
        left=left,
        right=right,
        quadrature_error=qerr,
        converged=converged,
        passed=passed,
        garofalo=garofalo,
        classical=classical,
    )


FIELD_CHECKS: Dict[str, Callable[..., Generator]] = {
    "identity": _identity_plan,
    "inequality": _inequality_plan,
    "remainder_pge2": _remainder_pge2_plan,
    "remainder_plt2": _remainder_plt2_plan,
    "ckn": _ckn_plan,
    "hpw": _hpw_plan,
}


def verify_checks(
    checks: Sequence[Tuple[str, tuple]],
    settings: Optional[IntegrationSettings] = None,
) -> List[_Report]:
    """Run field checks on one shared mesh and return their reports in order.

    Each check is (name, args): a FIELD_CHECKS name and the arguments its
    verify_* function takes, without settings. Every precondition and
    constant search runs before the one integration, whose batches evaluate
    the weights, |f|^q and |Df|^q once for all the checks. A term that
    several checks list (such as the identity's lhs, w and cp) is integrated
    once, and each of those checks reports its value and error estimate. A
    report's quadrature_error and converged come from the terms it lists
    alone, but every integral steers the refinement, so a check's values can
    differ, within its error, from a run with other checks.
    """
    plans = [FIELD_CHECKS[name](*args) for name, args in checks]
    results = _integrate_cases([next(plan) for plan in plans], settings)
    return [plan.send(res) for plan, res in zip(plans, results)]


def verify_identity(
    pair: WeightPair,
    field: TestField,
    settings: Optional[IntegrationSettings] = None,
) -> IdentityReport:
    """Check lhs = w_term + cp_term + phi_term on one field."""
    return verify_checks([("identity", (pair, field))], settings)[0]


def verify_identity_sweep(
    cases: Sequence[Tuple[WeightPair, TestField]],
    settings: Optional[IntegrationSettings] = None,
) -> List[IdentityReport]:
    """Check the identity for many (pair, field) cases on one shared mesh
    (see verify_checks). Each report's four components are sampled at
    identical points, so the quadrature error still cancels inside its
    residual. All cases must live on one space and the fields must share one
    outer_rho and one x_floor.
    """
    return verify_checks([("identity", case) for case in cases], settings)


def verify_inequality(
    pair: WeightPair,
    field: TestField,
    settings: Optional[IntegrationSettings] = None,
) -> InequalityReport:
    """Check lhs >= w_term up to quadrature slack."""
    return verify_checks([("inequality", (pair, field))], settings)[0]


def verify_remainder_p_ge2(
    pair: WeightPair,
    field: TestField,
    settings: Optional[IntegrationSettings] = None,
    constant: Optional[ConstantEstimate] = None,
) -> RemainderPge2Report:
    """Check cp_term >= c_p * eta_term for p >= 2 on a phi = 0 pair."""
    return verify_checks([("remainder_pge2", (pair, field, constant))], settings)[0]


def verify_remainder_p_lt2(
    pair: WeightPair,
    field: TestField,
    settings: Optional[IntegrationSettings] = None,
    constants: Optional[Dict[str, ConstantEstimate]] = None,
) -> RemainderPlt2Report:
    """Check the two-sided and min-form remainder bounds for 1 < p < 2."""
    return verify_checks([("remainder_plt2", (pair, field, constants))], settings)[0]


def sharpness_probe(
    pair: WeightPair,
    levels: int = 3,
    settings: Optional[IntegrationSettings] = None,
) -> SharpnessReport:
    """Rayleigh ratios of truncated extremal fields, one per level.

    The profile is constant * exp(-kappa_eff tau) in the pair's natural
    radial coordinate, so the quotient reduces exactly to one-dimensional
    integrals of |S' - kappa_eff S|^p and S^p against the pair's tau
    weight; ratios approach sharp_constant = kappa_eff^p from above as the
    plateau widens.
    """
    if levels < 2:
        raise ValueError("levels must be >= 2")
    sharp = pair.sharp_constant
    entries: List[Dict[str, float]] = []
    ratios: List[float] = []
    errors: List[float] = []
    total_err = 0.0
    converged = True
    for level in range(levels):
        ext = build_extremal_field(pair, truncation_level=level)
        kappa = ext.kappa_eff

        def bundle(ts: np.ndarray, ext: ExtremalField = ext, kappa: float = kappa) -> np.ndarray:
            tau = ts[:, 0]
            s_val, s_der = ext.window(tau)
            om = ext.probe_weight(tau)
            num = np.abs(s_der - kappa * s_val) ** pair.p * om
            den = s_val**pair.p * om
            return np.stack([num, den])

        # cuts at the window's bands, which the plateau's nodes may miss
        region = Region(box=((0.0, ext.tau_hi),), cuts=(ext.band, ext.tau_hi - ext.band))
        res = integrate_vector(bundle, 2, region, settings)
        num, den = float(res[0].value), float(res[1].value)
        ratio = num / den
        err = (res[0].error_estimate + ratio * res[1].error_estimate) / den
        converged = converged and res[0].converged and res[1].converged
        total_err += err
        ratios.append(ratio)
        errors.append(err)
        entries.append({"truncation_level": level, "rayleigh_ratio": ratio})

    final_gap = (ratios[-1] - sharp) / sharp
    above = all(r >= sharp - 10.0 * e for r, e in zip(ratios, errors))
    monotone = all(
        ratios[i + 1] <= ratios[i] + 10.0 * (errors[i] + errors[i + 1])
        for i in range(levels - 1)
    )
    passed = converged and above and monotone and final_gap <= _SHARPNESS_GAP
    return SharpnessReport(
        levels=entries,
        sharp_constant=sharp,
        final_gap=final_gap,
        quadrature_error=total_err,
        converged=converged,
        passed=passed,
    )


def verify_ckn(
    pair: WeightPair,
    field: TestField,
    ckn: CknParams,
    settings: Optional[IntegrationSettings] = None,
) -> CknReport:
    """Check the interpolation inequality built on the identity bracket.

    B = lhs - cp_term equals w_term + phi_term by the identity (reported as
    bracket_mismatch); the inequality is
    B^(delta/p) * (int w^(b q) |f|^q)^((1-delta)/q) >= (int w^(c r) |f|^r)^(1/r).
    """
    return verify_checks([("ckn", (pair, field, ckn))], settings)[0]


def verify_hpw(
    case: str,
    p: float,
    field: TestField,
    settings: Optional[IntegrationSettings] = None,
) -> HpwReport:
    """Check one of the three uncertainty-product displays.

    Each is its pair's CKN instance at the pair's display point (see
    weights.hpw_pair), (int v|Df|^p)^(1/p) (int w0^(-1/(p-1)) |f|^p')^(1/p')
    >= |kappa| int |f|^2 with p' = p/(p-1): ball_nch is nch_ball at the
    field's R, whole_dambrosio is dambrosio_power at alpha = p(1+gamma) and
    beta = gamma p, and log_ball is log_ball at alpha = p and the field's R,
    so |kappa| is (p-1)/p, |Q-p|/p or (p+1)/p. The display balances under
    the Grushin dilation at every p. For whole_dambrosio at p = 2 the squared
    (Garofalo-type) product is checked too, and at gamma = 0 also the
    classical gradient form it dominates.

    The point reads only gamma, p and the field's R, so the parameters of
    the CLI run's own pair, dambrosio_power's alpha and beta or log_ball's
    alpha, do not enter it, although the CLI's report echoes them.
    """
    return verify_checks([("hpw", (case, p, field))], settings)[0]
