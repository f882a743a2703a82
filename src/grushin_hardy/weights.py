"""Catalog of weight pairs (v, w) for Grushin-type Hardy inequalities.

Each pair satisfies a weighted Hardy inequality

    integral v |D f|^p  >=  integral w |f|^p  +  lower-order phi term,

where D is the projected derivative along grad_gamma(rho) and w = kappa^p w0
carries the sharp constant of the pair. Every weight is a monomial
c (r/rho)^e1 rho^e2 (R-rho)^e3 log(R/rho)^e4 in r = |x| and rho, and all are
c exp(E @ F) on the log features F. A pair declares v and w0 only. As in the
corollary proofs, kappa and the analytic defect

    phi = div_gamma( h grad_gamma(rho)/|grad_gamma(rho)| ) - p w,  h = v^(1/p) w^((p-1)/p),

follow from one expansion of the divergence (_expand): kappa cancels its
term with w0's exponents, and the rest, phi, is one monomial or exactly 0.
phi_numeric cross-checks phi by finite differences.

A pair declares only its entry in PAIRS: default parameters, v and w0, and
its uncertainty display's point (see hpw_pair), if it has one. Everything
else is derived from the same expansion: make_pair refuses a pair whose
kappa is not positive, which is the paper's condition (with R > 0 for a
ball), and the extremal that fields.ExtremalField builds follows from the
term that kappa cancels (WeightPair.kappa_term).
"""

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from grushin_hardy.geometry import (
    SpaceParams,
    _split,
    _unit_grad,
    fd_divergence,
    float_faults,
    radial_coords,
)

__all__ = [
    "PAIRS",
    "PAIR_IDS",
    "HPW_PAIRS",
    "PairSpec",
    "HpwSpec",
    "WEIGHTS",
    "WeightPair",
    "eval_monomials",
    "log_features",
    "make_pair",
    "hpw_pair",
    "phi_numeric",
    "rejection_sample",
    "condition_report",
]

# draws a rejection sampler makes before it gives up
SAMPLER_ROUNDS = 64

# k -> (c, e1, e2, e3, e4): the weight c (r/rho)^e1 rho^e2 (R-rho)^e3 log(R/rho)^e4
Monomial = Callable[[SimpleNamespace], Tuple[float, ...]]
WEIGHTS = ("v", "w", "phi", "h")  # the rows of WeightPair.monomials
_EPS = float(np.finfo(float).eps)
# _expand's terms H/rho, H/(R-rho), H/(rho log(R/rho)): shifts of H's exponents
_SHIFTS = ((-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (-1.0, 0.0, -1.0))


@dataclass(frozen=True)
class HpwSpec:
    """An uncertainty-product display, checked by verifier.verify_hpw: the CKN
    instance of its pair (see hpw_pair) at point(k), the pair's parameters at
    the display, with k holding g = gamma, p and the field's R."""

    case: str
    point: Callable[[SimpleNamespace], Dict[str, float]]
    garofalo: bool = False  # at p = 2 also the squared (Garofalo-type) product


@dataclass(frozen=True)
class PairSpec:
    """Everything declared about one catalog pair; see PAIRS."""

    defaults: Dict[str, float]  # the CLI's parameters; their keys are the required ones
    v: Monomial
    w: Monomial  # w0 = w / kappa^p, with c = 1
    hpw: Optional[HpwSpec] = None


def _log_dist(R, rho: np.ndarray) -> np.ndarray:
    # log(R/rho) via log1p keeps precision near the boundary rho ~ R
    return np.log1p((R - rho) / rho)


def log_features(r: np.ndarray, rho: np.ndarray, R: Optional[float]) -> np.ndarray:
    """The (4, N) log features log(r/rho), log rho, log(R-rho), log log(R/rho)
    of points' (|x|, rho); the last two are 0 when R is None."""
    out = np.zeros((4, rho.shape[0]))
    out[0], out[1] = np.log(r / rho), np.log(rho)
    if R is not None:
        out[2], out[3] = np.log(R - rho), np.log(_log_dist(R, rho))
    return out


def eval_monomials(rows: np.ndarray, features: np.ndarray) -> np.ndarray:
    """c exp(e @ features) for each row (c, e) of an (n, 5) array of monomials,
    on log_features' output. A zero exponent contributes exactly 1, even
    where its feature is not finite (r = 0, rho = R)."""
    c, e = rows[:, 0], rows[:, 1:]
    logs = e @ features
    if np.isnan(logs).any():  # 0 * inf: sum only the features with a non-zero exponent
        bad = np.isnan(logs).any(axis=0)
        terms = e[:, :, None] * features[:, bad]
        logs[:, bad] = np.where(e[:, :, None] != 0.0, terms, 0.0).sum(axis=1)
    return np.multiply(np.exp(logs, out=logs), c[:, None], out=logs)


PAIRS: Dict[str, PairSpec] = {
    "nch_ball": PairSpec(
        defaults={"R": 4.0},
        v=lambda k: (1.0, 0.0, 0.0, 0.0, 0.0),
        w=lambda k: (1.0, k.g * k.p, 0.0, -k.p, 0.0),
        hpw=HpwSpec("ball_nch", lambda k: {"R": k.R}),
    ),
    "dambrosio_power": PairSpec(
        defaults={"alpha": 0.0, "beta": 0.0},
        # v = r^(beta - g p) rho^(p (1+g) - alpha), w0 = r^beta rho^(-alpha)
        v=lambda k: (1.0, k.beta - k.g * k.p, k.beta + k.p - k.alpha, 0.0, 0.0),
        w=lambda k: (1.0, k.beta, k.beta - k.alpha, 0.0, 0.0),
        hpw=HpwSpec(
            "whole_dambrosio",
            lambda k: {"alpha": k.p * (1.0 + k.g), "beta": k.g * k.p},
            garofalo=True,
        ),
    ),
    "darca_power": PairSpec(
        defaults={"alpha": 1.0, "theta": 0.5, "R": 1e30},
        v=lambda k: (1.0, k.g * k.alpha, k.p * (1.0 - k.theta), 0.0, 0.0),
        w=lambda k: (1.0, k.g * (k.alpha + k.p), -k.p * k.theta, 0.0, 0.0),
    ),
    "log_ball": PairSpec(
        defaults={"alpha": -3.0, "R": 4.0},
        v=lambda k: (1.0, 0.0, 0.0, 0.0, k.alpha + k.p),
        w=lambda k: (1.0, k.g * k.p, -k.p, 0.0, k.alpha),
        hpw=HpwSpec("log_ball", lambda k: {"alpha": k.p, "R": k.R}),
    ),
}

PAIR_IDS = tuple(PAIRS)

# uncertainty display -> the id of the pair whose corollary it is
HPW_PAIRS: Dict[str, str] = {s.hpw.case: i for i, s in PAIRS.items() if s.hpw is not None}


@dataclass(frozen=True)
class WeightPair:
    """One catalog entry with evaluators; immutable, evaluation is pure.

    params keys match the CLI config schema verbatim: R, alpha, beta, theta.
    The batch evaluators evaluate one row of monomials on an (N, m+k) batch.
    """

    id: str
    space: SpaceParams
    p: float
    params: Dict[str, float]
    kappa: float
    kappa_term: int  # _expand's term j that kappa cancels; it fixes the extremal's base
    monomials: np.ndarray = field(compare=False)  # the WEIGHTS as (4, 5) rows (c, e1, ..., e4)

    @property
    def spec(self) -> PairSpec:
        return PAIRS[self.id]

    @property
    def sharp_constant(self) -> float:
        return self.kappa**self.p

    @property
    def x_singular(self) -> bool:
        """Singular on {x=0}: gamma > 0, or v or w has a negative |x| exponent."""
        return self.space.gamma > 0 or min(self.monomials[:2, 1].tolist()) < 0

    @property
    def radius(self) -> Optional[float]:
        """Ball radius for rho_ball domains, None on the whole space."""
        return self.params.get("R")

    def _rows(self, names: Tuple[str, ...], coords: Tuple[np.ndarray, ...]) -> List[np.ndarray]:
        """The named weights of a batch from its (x, y, |x|, rho), geometry._split's
        output: the log features once, then each weight on its own eval_monomials
        call, so each reads as it does alone (a matmul's last bits depend on its
        row count)."""
        r, rho = coords[2:]
        out = []
        with np.errstate(divide="ignore", invalid="ignore"):
            features = log_features(r, rho, self.radius)
            for name in names:
                row = eval_monomials(self.monomials[[WEIGHTS.index(name)]], features)[0]
                # points beyond a ball domain (rho > R) lie outside it: nan
                out.append(row if self.radius is None else np.where(rho > self.radius, np.nan, row))
        return out

    def _row(self, name: str, pts: np.ndarray) -> np.ndarray:
        return self._rows((name,), _split(self.space, pts))[0]

    def v_batch(self, pts: np.ndarray) -> np.ndarray:
        """v on an (N, m+k) batch; singular or out-of-domain points give inf/nan."""
        return self._row("v", pts)

    def w_batch(self, pts: np.ndarray) -> np.ndarray:
        """w (including the sharp constant) on an (N, m+k) batch."""
        return self._row("w", pts)

    def phi_batch(self, pts: np.ndarray) -> np.ndarray:
        """Analytic defect phi on an (N, m+k) batch."""
        return self._row("phi", pts)


def _expand(spec: PairSpec, space: SpaceParams, p: float, params: Dict[str, float]):
    """v, w0, kappa, the index j of the term it cancels, and the rows
    phi / kappa^(p-1) and h0 = v^(1/p) w0^((p-1)/p) of spec at these params.

    With h0 = c (r/rho)^e1 H and H = rho^e2 (R-rho)^e3 log(R/rho)^e4, r/rho is
    constant along grad_gamma(rho) and |grad_gamma(rho)| = (r/rho)^gamma, so
    div_gamma(h0 grad_gamma(rho)/|grad_gamma(rho)|) = c (r/rho)^(e1+gamma) H
    ((e2+Q-1)/rho - e3/(R-rho) - e4/(rho log(R/rho))). The term with w0's
    exponents is p kappa w0; the others are phi / kappa^(p-1).
    """
    k = SimpleNamespace(g=space.gamma, p=p, Q=space.Q, **params)
    v, w = spec.v(k), spec.w(k)
    h = (v[0] ** (1.0 / p),) + tuple(b + (a - b) / p for a, b in zip(v[1:], w[1:]))
    c, e2, e3, e4 = h[0], *h[2:]
    # a coefficient within rounding of 0 is 0, as Q - p is at Q = p
    tol = 16.0 * _EPS * c * (abs(e2) + k.Q + 1.0)
    coefs = [c * (e2 + k.Q - 1.0), -c * e3, -c * e4]
    if not np.isfinite([*coefs, tol]).all():  # an infinite tol would round every coefficient to 0
        named = ", ".join(f"{name} = {x:g}" for name, x in params.items())
        raise ValueError(f"the divergence expansion overflows at Q = {k.Q:g}, p = {p:g}, {named}")
    coefs = [x if abs(x) > tol else 0.0 for x in coefs]
    offsets = [max(abs(e + s - b) for e, s, b in zip(h[2:], shift, w[2:])) for shift in _SHIFTS]
    j = offsets.index(min(offsets))
    rest = [i for i in range(3) if i != j and coefs[i] != 0.0]
    phi = (0.0,) * 5
    if rest:
        (i,) = rest  # every catalog defect is one monomial
        phi = (coefs[i], w[1]) + tuple(b + s - t for b, s, t in zip(w[2:], _SHIFTS[i], _SHIFTS[j]))
    return v, w, coefs[j] / p, j, phi, h


def make_pair(
    pair_id: str,
    space: SpaceParams,
    p: float,
    params: Dict[str, float],
    allow_negative_phi: bool = False,
) -> WeightPair:
    """Validated catalog entry; error messages name the violated constraint.

    The refusals are derived, in this order: R > 0 where R is a parameter,
    then the paper's condition kappa > 0, with kappa from _expand, then a
    sharp constant kappa^p in (0, inf). A pair with phi < 0 gives the
    identity only: allow_negative_phi admits it."""
    spec = PAIRS.get(pair_id)
    if spec is None:
        raise ValueError(f"unknown pair id {pair_id!r}; expected one of {PAIR_IDS}")
    if not 1 < p < np.inf:
        raise ValueError("requires p > 1 and finite")
    required = tuple(spec.defaults)
    missing = [k for k in required if k not in params]
    extra = [k for k in params if k not in required]
    if missing or extra:
        raise ValueError(
            f"{pair_id} takes parameters {required}; missing {missing}, unexpected {extra}"
        )
    params = {k: float(params[k]) for k in required}
    if not np.all(np.isfinite(list(params.values()))):
        raise ValueError(f"{pair_id} parameters must be finite")
    if params.get("R", 1.0) <= 0:
        raise ValueError("requires R > 0")
    v, w, kappa, j, phi, h = _expand(spec, space, p, params)
    if not kappa > 0:
        named = ", ".join(f"{name} = {x:g}" for name, x in params.items())
        raise ValueError(
            f"{pair_id} requires kappa > 0, but its divergence expansion gives "
            f"kappa = {kappa:g} at Q = {space.Q:g}, p = {p:g}, {named}"
        )
    with np.errstate(over="ignore", under="ignore"):
        C = np.float64(kappa) ** p
    if not np.isfinite(C):
        raise ValueError(f"{pair_id}: the sharp constant kappa^p = {kappa:g}^{p:g} overflows")
    if C == 0.0:
        raise ValueError(f"{pair_id}: the sharp constant kappa^p = {kappa:g}^{p:g} underflows to 0")
    if phi[0] < 0 and not allow_negative_phi:
        raise ValueError(
            f"{pair_id}: phi < 0 here, so only the identity holds; pass allow_negative_phi"
        )
    scale = kappa ** (p - 1.0)
    rows = (v, (C, *w[1:]), (scale * phi[0], *phi[1:]), (scale * h[0], *h[1:]))
    return WeightPair(pair_id, space, p, params, kappa, j, np.array(rows))


def hpw_pair(case: str, space: SpaceParams, p: float, R: float) -> WeightPair:
    """The pair of uncertainty display case at its HpwSpec.point, given the
    field's R, with rows (v, w0, 0, 0) and kappa = |kappa| (see
    verifier.verify_hpw), derived as make_pair derives it. The display reads
    only v, w0 and |kappa|, so nothing is refused here: log_ball's point
    alpha = p has kappa = -(p+1)/p."""
    pair_id = HPW_PAIRS[case]
    spec = PAIRS[pair_id]
    params = spec.hpw.point(SimpleNamespace(g=space.gamma, p=p, R=R))
    v, w0, kappa, j, _, _ = _expand(spec, space, p, params)
    rows = np.array((v, w0, (0.0,) * 5, (0.0,) * 5))
    return WeightPair(pair_id, space, p, params, abs(kappa), j, rows)


def phi_numeric(pair: WeightPair, pts: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Finite-difference value of div_gamma(w^((p-1)/p) v^(1/p) unit) - p w on
    an (N, m+k) batch, with one step per point.

    Rejects steps larger than half the distance to the singular set or the
    ball boundary; inside that margin the Richardson-extrapolated divergence
    from geometry.fd_divergence is accurate to roughly step^2.
    """
    space, p = pair.space, pair.p
    pts = np.asarray(pts, dtype=float)
    coords = _split(space, pts)
    R = pair.radius
    if R is not None and np.any(step > 0.5 * (R - coords[3])):
        raise ValueError("step exceeds half the distance to the ball boundary")

    # each stencil point's coordinates and log features serve v, w and the unit gradient
    def displayed(stencil: np.ndarray) -> np.ndarray:
        at = _split(space, stencil)
        w_at, v_at = pair._rows(("w", "v"), at)
        scale = w_at ** ((p - 1.0) / p) * v_at ** (1.0 / p)
        return scale[:, None] * _unit_grad(space, *at)

    return fd_divergence(space, displayed, pts, step) - p * pair._rows(("w",), coords)[0]


def rejection_sample(
    space: SpaceParams, half: float | np.ndarray, keep: Callable, samples: int, seed: int
) -> np.ndarray:
    """The first samples points, uniform in the box |pts[:, i]| <= half[i]
    (a scalar half broadcasts), whose keep(|x|, rho) holds.

    Draws rounds of 4 * samples points from np.random.default_rng(seed), at
    most SAMPLER_ROUNDS of them; raises ValueError when they keep fewer.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    kept: List[np.ndarray] = []
    count = 0
    for _ in range(SAMPLER_ROUNDS):
        pts = rng.uniform(-1.0, 1.0, size=(4 * samples, space.n)) * half
        kept.append(pts[keep(*radial_coords(space, pts[:, : space.m], pts[:, space.m :]))])
        count += len(kept[-1])
        if count >= samples:
            return np.concatenate(kept)[:samples]
    raise ValueError(
        f"sampler kept {count} of {samples} points in {SAMPLER_ROUNDS} rounds; "
        "the accepted region fills too little of the sampling box"
    )


def condition_report(pair: WeightPair, samples: int, seed: int = 0) -> Dict[str, float]:
    """Random check of the defect condition over the pair's domain.

    Samples points with rho in [0.3, 0.9] * (R or 2) and |x| >= 0.1 rho, and
    reports min_phi = min of the closed-form defect and max_abs_mismatch =
    max of |phi - phi_numeric| / (1 + p w). Raises ValueError when
    SAMPLER_ROUNDS rounds of draws keep fewer than samples points, or when
    the arithmetic overflows, divides by zero or turns invalid.
    """
    space = pair.space
    # a numpy scalar, so that an overflowing box edge raises like the arrays do
    scale = np.float64(pair.radius if pair.radius is not None else 2.0)
    a = 1.0 + space.gamma
    with float_faults("condition", space):
        half = np.repeat([0.9 * scale, (0.9 * scale) ** a / a], [space.m, space.k])
        pts = rejection_sample(
            space,
            half,
            lambda r, rho: (rho >= 0.3 * scale) & (rho <= 0.9 * scale) & (r >= 0.1 * rho),
            samples,
            seed,
        )
        coords = _split(space, pts)
        r, rho = coords[2:]
        margin = np.minimum(rho, r) if space.gamma > 0 else rho
        if pair.radius is not None:
            margin = np.minimum(margin, pair.radius - rho)
        phi, w = pair._rows(("phi", "w"), coords)
        mismatch = np.abs(phi - phi_numeric(pair, pts, 1e-4 * margin)) / (1.0 + pair.p * w)
    return {"min_phi": float(np.min(phi)), "max_abs_mismatch": float(np.max(mismatch))}
