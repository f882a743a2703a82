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
assembled pointwise from (f, Df, v, w, phi). The pieces cover only the
fields' support, away from {x=0} wherever a weight is singular there, so
every weight is finite at every node, and a term is an exact 0 wherever its
field vanishes.

A report's `passed` is the stated tolerance check and additionally
requires the underlying quadrature to have converged; a non-converged
integral never passes.
"""

import math
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from .cp import ConstantEstimate, CpObjectiveKind, cp_value_batch, find_constant
from .cubature import IntegrationSettings, Region, integrate_vector
from .fields import ExtremalField, TestField, build_extremal_field
from .fields import radial_derivative_batch  # unused here; perfbench/tracer.py rebinds it
from .geometry import SpaceParams
from .geometry import radial_coords  # unused here; perfbench/tracer.py rebinds it
from .weights import HPW_PAIRS, WeightPair

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
    "HPW_CASES",
    "FIELD_CHECKS",
]

HPW_CASES = tuple(HPW_PAIRS)

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


# -- preconditions: one per field check, taking its verify_* function's
# arguments before settings; the check's plan calls it before any work


def _check_support(pair: WeightPair, field: TestField) -> None:
    if pair.space != field.space:
        raise ValueError("pair and field use different spaces")
    radius = pair.radius
    if radius is not None and not field.spec.outer_rho <= 0.9 * radius:
        raise ValueError("field must keep outer_rho <= 0.9 R on a ball domain")
    if pair.x_singular and not field.spec.x_floor > 0.0:
        raise ValueError("pair is singular on {x=0}; use a field with x_floor > 0")


def _check_remainder(pair: WeightPair, field: TestField, p_ok: bool, p_rule: str) -> None:
    if pair.spec.phi is not None:
        raise ValueError("remainder bounds need a pair with phi identically 0")
    if not p_ok:
        raise ValueError(p_rule)
    _check_support(pair, field)


def _check_remainder_pge2(pair: WeightPair, field: TestField) -> None:
    _check_remainder(pair, field, pair.p >= 2.0, "verify_remainder_p_ge2 needs p >= 2")


def _check_remainder_plt2(pair: WeightPair, field: TestField) -> None:
    _check_remainder(pair, field, 1.0 < pair.p < 2.0, "verify_remainder_p_lt2 needs 1 < p < 2")


def _check_ckn(pair: WeightPair, field: TestField, ckn: CknParams) -> None:
    if abs(ckn.p - pair.p) > 1e-12:
        raise ValueError("CknParams p must match the pair's p")
    _check_support(pair, field)


def _check_hpw(case: str, p: float, field: TestField) -> None:
    spec = HPW_PAIRS.get(case)
    if spec is None:
        raise ValueError(f"case must be one of {HPW_CASES}")
    if p <= 1.0:
        raise ValueError("p must be > 1")
    if "R" in spec.params and not math.isfinite(field.spec.R):
        raise ValueError(f"{case} needs a field built with finite R")
    if field.space.gamma > 0.0 and not field.spec.x_floor > 0.0:
        raise ValueError("gamma > 0 weights are singular on {x=0}; use x_floor > 0")


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
    """What every field integrand needs on one cubature batch, computed once.

    Each field gives f, f_r and f_rho on the nodes' (r, s, rho) (see
    TestField.eval_radial), and Df follows in closed form: r and rho are both
    of degree 1 under the dilations, so Df = (r/rho)^gamma (r f_r + rho f_rho)/rho.
    The pair weights, their p-th roots and the powers |f|^q, |Df|^q are
    computed on first use and reused, so C cases over F fields and P pairs
    cost F field and P weight evaluations, not C of each. The weights are
    given the (N, 2) nodes, one row per node, with coords = (r, rho).
    """

    def __init__(self, space: SpaceParams, nodes: np.ndarray, coords, fields: Sequence[TestField]):
        self.space, self.nodes = space, nodes
        r, self.s, rho = coords
        self.coords = (r, rho)
        scale = (r / rho) ** space.gamma / rho
        self.vals, self.partials, self.df = [], [], []
        for field in fields:
            f, f_r, f_rho = field.eval_radial(r, rho)
            self.vals.append(f)
            self.partials.append((f_r, f_rho))
            self.df.append(scale * (r * f_r + rho * f_rho))
        self._memo: Dict[tuple, np.ndarray] = {}

    def _cached(self, key: tuple, make) -> np.ndarray:
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def weight(self, pair: WeightPair, name: str) -> np.ndarray:
        """The pair's v, w or phi."""
        return self._cached(
            (id(pair), name),
            lambda: getattr(pair, f"{name}_batch")(self.nodes, coords=self.coords),
        )

    def root(self, pair: WeightPair, name: str) -> np.ndarray:
        return self._cached(
            (id(pair), name, "root"), lambda: self.weight(pair, name) ** (1.0 / pair.p)
        )

    def power(self, kind: str, f: int, q: float) -> np.ndarray:
        """|f|^q (kind "vals") or |Df|^q (kind "df") of field slot f."""
        return self._cached((kind, f, q), lambda: np.abs(getattr(self, kind)[f]) ** q)

    def grad_sq(self, f: int) -> np.ndarray:
        """Euclidean |grad f|^2 of field slot f, from grad r . grad rho =
        (r/rho)^(2g+1) and |grad rho|^2 = (r^(4g+2) + (1+g)^2 s^2)/rho^(4g+2)."""
        f_r, f_rho = self.partials[f]
        r, rho = self.coords
        g = self.space.gamma
        cross = (f_r * np.conj(f_rho)).real * (r / rho) ** (2.0 * g + 1.0)
        grad_rho_sq = (r ** (4.0 * g + 2.0) + (1.0 + g) ** 2 * self.s**2) / rho ** (4.0 * g + 2.0)
        return np.abs(f_r) ** 2 + 2.0 * cross + np.abs(f_rho) ** 2 * grad_rho_sq

    def xi_eta(self, pair: WeightPair, f: int):
        """xi = v^(1/p) Df, w^(1/p) f and eta = xi + w^(1/p) f of one case."""
        xi = self.root(pair, "v") * self.df[f]
        wf = self.root(pair, "w") * self.vals[f]
        return xi, wf, xi + wf

    def cp(self, pair: WeightPair, f: int) -> np.ndarray:
        """C_p(xi, eta) of one case, shared by the checks that integrate it."""
        def make() -> np.ndarray:
            xi, _, eta = self.xi_eta(pair, f)
            return cp_value_batch(xi, eta, pair.p)

        return self._cached((id(pair), "cp", f), make)

    def forget(self, pair: Optional[WeightPair]) -> None:
        """Drop the pair's arrays, which keeps one pair's in memory at a time."""
        self._memo = {k: a for k, a in self._memo.items() if k[0] != id(pair)}


def _integrate_cases(cases: Sequence[tuple], settings: Optional[IntegrationSettings]) -> List[List]:
    """Integrate the rows of every case on one shared mesh.

    A case is one check's integrand on one field, (pair, field, n_terms,
    terms): terms(batch, pair, f) gives its n_terms rows on the batch (f is
    the field's slot). Cases share one space and one support region; returns
    each case's results.
    """
    if len(cases) == 0:
        raise ValueError("the integration needs at least one case")
    pairs, case_fields, sizes, terms = zip(*cases)
    space = case_fields[0].space
    if any(field.space != space for field in case_fields):
        raise ValueError("sweep cases must share one space")

    fields = list({id(field): field for field in case_fields}.values())
    slots = [next(i for i, f in enumerate(fields) if f is field) for field in case_fields]
    by_pair: Dict[int, List[int]] = {}  # case indices; a pair's cases run together
    for ci, pair in enumerate(pairs):
        by_pair.setdefault(id(pair), []).append(ci)
    ends = np.cumsum(sizes).tolist()
    starts = [0] + ends[:-1]

    region, lift = _polar_pieces(fields)
    n_comp = ends[-1]

    def integrand(nodes: np.ndarray) -> np.ndarray:
        # an overflow, division by zero or invalid operation outside the
        # kernels' own errstate blocks stops the run with a message, instead
        # of a stream of RuntimeWarnings ahead of the non-finite stop
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                coords, jac = lift(nodes)
                out = np.empty((n_comp, nodes.shape[0]))
                batch = _Batch(space, nodes, coords, fields)
                for group in by_pair.values():
                    pair = pairs[group[0]]
                    for ci in group:
                        rows = out[starts[ci] : ends[ci]]
                        for row, values in zip(rows, terms[ci](batch, pair, slots[ci])):
                            row[:] = values
                    batch.forget(pair)
                out *= jac
        except FloatingPointError as exc:
            raise ValueError(
                f"integrand arithmetic failed in space ({space.m},{space.k},{space.gamma:g}): {exc}"
            ) from None
        return out

    res = integrate_vector(integrand, n_comp, region, settings)
    return [res[start:end] for start, end in zip(starts, ends)]


def _summary(res) -> Tuple[List[float], float, bool]:
    """A case's integral values, their summed error estimate, and whether
    every one converged."""
    values = [float(r.value) for r in res]
    return values, float(sum(r.error_estimate for r in res)), all(r.converged for r in res)


def _power_error(value: float, factors: Sequence[Tuple[float, float, float]]) -> float:
    """Propagated error of value = prod(base ** exponent): value times the sum
    of exponent * error / base over the (exponent, base, error) factors, each
    base floored at 1e-300."""
    return value * sum(exponent * error / max(base, 1e-300) for exponent, base, error in factors)


def _slack(qerr: float, width: float = 0.0, term: float = 0.0) -> float:
    """How far a margin may fall below 0: 10 times the propagated quadrature
    error, plus a constant's bracket width times the term it multiplies."""
    return 10.0 * qerr + width * term


def _lhs_w_terms(b: _Batch, pair: WeightPair, f: int) -> List[np.ndarray]:
    """v |Df|^p and w |f|^p of one case."""
    p = pair.p
    return [b.weight(pair, "v") * b.power("df", f, p), b.weight(pair, "w") * b.power("vals", f, p)]


def _identity_terms(b: _Batch, pair: WeightPair, f: int) -> List[np.ndarray]:
    phi_term = b.weight(pair, "phi") * b.power("vals", f, pair.p)
    return _lhs_w_terms(b, pair, f) + [b.cp(pair, f), phi_term]


# -- plans: one per field check, taking its verify_* function's arguments
# without settings. A plan runs the check's precondition and constant
# searches and yields the check's case; sent the case's integrals, it yields
# the check's report.


def _identity_plan(pair: WeightPair, field: TestField):
    _check_support(pair, field)
    res = yield pair, field, 4, _identity_terms
    (lhs, w_term, cp_term, phi_term), qerr, converged = _summary(res)
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
    res = yield pair, field, 2, _lhs_w_terms
    (lhs, w_term), qerr, converged = _summary(res)
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
    _check_remainder_pge2(pair, field)
    p = pair.p
    if constant is None:
        constant = find_constant(CpObjectiveKind(kind="cp_pge2", p=p))

    def terms(b: _Batch, pair: WeightPair, f: int) -> List[np.ndarray]:
        _, _, eta = b.xi_eta(pair, f)
        return [b.cp(pair, f), np.abs(eta) ** p]

    res = yield pair, field, 2, terms
    (cp_term, eta_term), qerr, converged = _summary(res)
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
    _check_remainder_plt2(pair, field)
    p = pair.p
    if constants is None:
        constants = {
            kind: find_constant(CpObjectiveKind(kind=kind, p=p))
            for kind in ("c1_inf", "c2_sup", "c3_min")
        }

    def terms(b: _Batch, pair: WeightPair, f: int) -> List[np.ndarray]:
        xi, wf, eta = b.xi_eta(pair, f)
        eta2 = np.abs(eta) ** 2
        eta_p = np.abs(eta) ** p
        t = np.abs(wf)
        s = np.abs(xi) + t
        with np.errstate(divide="ignore", invalid="ignore"):
            # (|xi| + |xi-eta|)^(p-2) |eta|^2 <= (|xi| + |xi-eta|)^p -> 0 with s
            mixed = np.where(s > 0, s ** (p - 2.0) * eta2, 0.0)
            # the min form: t -> 0 makes t^(p-2) |eta|^2 -> inf, so |eta|^p wins
            minform = np.where(t > 0, np.minimum(eta_p, t ** (p - 2.0) * eta2), eta_p)
        return [b.cp(pair, f), mixed, minform]

    res = yield pair, field, 3, terms
    (cp_term, mixed_term, min_term), qerr, converged = _summary(res)
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
    _check_ckn(pair, field, ckn)
    p = pair.p

    def terms(b: _Batch, pair: WeightPair, f: int) -> List[np.ndarray]:
        w = b.weight(pair, "w")
        return _identity_terms(b, pair, f) + [
            w ** (ckn.b * ckn.q) * b.power("vals", f, ckn.q),
            w ** (ckn.c * ckn.r) * b.power("vals", f, ckn.r),
        ]

    res = yield pair, field, 6, terms
    (lhs, w_term, cp_term, phi_term, int_q, int_r), qerr, converged = _summary(res)
    bracket = lhs - cp_term
    mismatch = abs(bracket - (w_term + phi_term))
    consistent = mismatch <= 10.0 * qerr

    base = max(bracket, 0.0)
    left = base ** (ckn.delta / p) * max(int_q, 0.0) ** ((1.0 - ckn.delta) / ckn.q)
    right = max(int_r, 0.0) ** (1.0 / ckn.r)
    tol_left = _power_error(
        left,
        [
            (ckn.delta / p, base, res[0].error_estimate + res[2].error_estimate),
            ((1.0 - ckn.delta) / ckn.q, int_q, res[4].error_estimate),
        ],
    )
    tol_right = _power_error(right, [(1.0 / ckn.r, int_r, res[5].error_estimate)])
    passed = converged and consistent and left >= right - 10.0 * (tol_left + tol_right)
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
    _check_hpw(case, p, field)
    hpw = HPW_PAIRS[case].hpw
    space = field.space
    gamma = space.gamma
    pp = p / (p - 1.0)
    k = SimpleNamespace(p=p, pp=pp, R=field.spec.R)
    garofalo_p2 = hpw.garofalo and p == 2.0
    track_grad = garofalo_p2 and gamma == 0.0

    def terms(b: _Batch, _pair: None, f: int) -> List[np.ndarray]:
        r, rho = b.coords
        fa_pp = b.power("vals", f, pp)
        df_p = b.power("df", f, p)
        ratio_pow = (rho / r) ** (gamma * p * pp / 2.0) if gamma > 0 else 1.0
        rows = hpw.rows(rho, ratio_pow, df_p, fa_pp, k)
        rows.append(np.abs(b.vals[f]) ** 2)
        if track_grad:
            rows.append(b.grad_sq(f))
        return rows

    res = yield None, field, 4 if track_grad else 3, terms
    values, qerr, converged = _summary(res)
    grad_term, weight_term, mass_term = values[:3]
    constant = hpw.constant(p, space.Q)
    left = grad_term ** (1.0 / p) * weight_term ** (1.0 / pp)
    right = constant * mass_term
    factors = [
        (1.0 / p, grad_term, res[0].error_estimate),
        (1.0 / pp, weight_term, res[1].error_estimate),
    ]
    tol = 10.0 * (_power_error(left, factors) + constant * res[2].error_estimate)
    passed = converged and left >= right - tol

    garofalo = None
    classical = None
    if garofalo_p2:
        g_left = grad_term * weight_term
        g_right = ((space.Q - 2.0) / 2.0) ** 2 * mass_term**2
        garofalo = {"left": g_left, "right": g_right, "passed": bool(converged and g_left >= g_right - 10.0 * qerr * (1.0 + g_left + g_right))}
        passed = passed and garofalo["passed"]
        if track_grad:
            full_grad = values[3]
            n_dim = space.n
            c_left = full_grad * weight_term
            c_right = (n_dim - 2.0) ** 2 / 4.0 * mass_term**2
            classical = {
                "grad_full": full_grad,
                "left": c_left,
                "right": c_right,
                "dominates": bool(full_grad >= grad_term - 10.0 * qerr),
                "passed": bool(converged and c_left >= c_right - 10.0 * qerr * (1.0 + c_left + c_right)),
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
    the weights, |f|^q, |Df|^q and C_p once for all the checks. A report's
    quadrature_error and converged come from its own integrals alone, but
    every integral steers the refinement, so a check's values can differ,
    within its error, from a run with other checks.
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

        res = integrate_vector(
            bundle, 2, Region(box=((0.0, ext.tau_hi),)), settings
        )
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

    The displays put the pair's sharp constant to the power 1/2 on the
    right; that matches their printed constants (p-1)/p, (Q-p)/p, (p+1)/p
    exactly when p = 2, the case exercised by the acceptance suite. For
    whole_dambrosio at p = 2 the squared (Garofalo-type) product is checked
    too, and at gamma = 0 also the classical gradient form it dominates.

    The display reads only p, p' = p/(p-1), Q and the field's R (the case's
    HpwSpec.rows and constant). The parameters of the pair it belongs to,
    dambrosio_power's alpha and beta or log_ball's alpha, do not enter it,
    although the CLI's report echoes them with the run's pair.
    """
    return verify_checks([("hpw", (case, p, field))], settings)[0]
