"""Catalog of weight pairs (v, w) for Grushin-type Hardy inequalities.

Each pair satisfies a weighted Hardy inequality

    integral v |D f|^p  >=  integral w |f|^p  +  lower-order phi term,

where D is the projected derivative along grad_gamma(rho) and w already
carries the sharp constant of the pair. The catalog stores closed forms for
v, w and the analytic defect

    phi = div_gamma( w^((p-1)/p) v^(1/p) grad_gamma(rho)/|grad_gamma(rho)| ) - p w,

which the corollary proofs give explicitly for every pair, together with a
finite-difference cross-check of that divergence condition.

Everything known about a pair is its entry in PAIRS: parameters, validity
rules, kappa (the sharp constant is kappa^p), the formulas, the extremal
profile that fields.ExtremalField uses, and the uncertainty display that
verifier.verify_hpw checks, if the pair has one.
"""

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from grushin_hardy.geometry import (
    SpaceParams,
    fd_divergence,
    radial_coords,
    unit_grad_gamma_rho,
)

__all__ = [
    "PAIRS",
    "PAIR_IDS",
    "HPW_PAIRS",
    "PairSpec",
    "HpwSpec",
    "WeightPair",
    "make_pair",
    "phi_numeric",
    "rejection_sample",
    "condition_report",
]

# draws a rejection sampler makes before it gives up
SAMPLER_ROUNDS = 64

Coords = Tuple[np.ndarray, np.ndarray]  # (|x|, rho), as radial_coords returns
# f(|x|, rho, k) or f(tau, k): k holds the pair's parameters with g = gamma,
# p, Q and, in a built pair, C = kappa^p (see WeightPair.scalars)
Formula = Callable[..., np.ndarray]


@dataclass(frozen=True)
class HpwSpec:
    """An uncertainty-product display, checked by verifier.verify_hpw.

    rows(rho, ratio_pow, |Df|^p, |f|^p', k) gives its gradient and weight
    integrands, with ratio_pow = (rho/|x|)^(gamma p p'/2) and k holding p,
    pp = p' and the field's R; constant(p, Q) is the printed constant.
    """

    case: str
    constant: Callable[[float, float], float]
    rows: Callable[..., List[np.ndarray]]
    garofalo: bool = False  # at p = 2 also the squared (Garofalo-type) product


@dataclass(frozen=True)
class PairSpec:
    """Everything known about one catalog pair; see PAIRS."""

    params: Tuple[str, ...]  # required parameters
    defaults: Dict[str, float]  # the CLI's parameters
    rules: Tuple[Tuple[Callable, str], ...]  # (holds(k), message), checked in order
    kappa: Callable[[SimpleNamespace], float]
    v: Formula
    w: Formula
    phi: Optional[Formula]  # None when phi is identically 0
    x_exponents: Callable  # |x| exponents of the weights; a negative one is singular on {x=0}
    # extremal profile b(rho)^kap in the coordinate tau = tau_sign log b + const
    tau_of_rho: Formula
    rho_of_tau: Formula
    probe_weight: Formula  # mass density of the 1-d Rayleigh reduction in tau
    profile: Callable  # (rho, kap, k) -> b^kap, its rho-derivative, dtau/drho
    inner: Callable[[SimpleNamespace], float]  # rho at tau = 0
    tau_sign: float
    hpw: Optional[HpwSpec] = None


def _log_dist(R, rho: np.ndarray) -> np.ndarray:
    # log(R/rho) via log1p keeps precision near the boundary rho ~ R
    return np.log1p((R - rho) / rho)


def _nch_profile(rho, kap, k):
    u = k.R - rho
    return u**kap, -kap * u ** (kap - 1.0), 1.0 / u


def _log_profile(rho, kap, k):
    L = _log_dist(k.R, rho)
    return L**kap, -kap * L ** (kap - 1.0) / rho, 1.0 / (L * rho)


def _log_hpw_rows(rho, ratio_pow, df_p, f_pp, k):
    log_dist = np.log(k.R / rho)
    return [
        log_dist ** (2.0 * k.p) * df_p,
        rho ** (k.p * k.pp / 2.0) * ratio_pow * log_dist ** (-k.p * k.pp / 2.0) * f_pp,
    ]


_R_POSITIVE = (lambda k: k.R > 0, "requires R > 0")

# the power pairs' profile is rho^kap, with tau = log(rho/0.5)
_POWER_PROFILE = dict(
    tau_of_rho=lambda rho, k: np.log(rho / 0.5),
    rho_of_tau=lambda tau, k: 0.5 * np.exp(tau),
    probe_weight=lambda tau, k: np.ones_like(tau),
    profile=lambda rho, kap, k: (rho**kap, kap * rho ** (kap - 1.0), 1.0 / rho),
    inner=lambda k: 0.5,
    tau_sign=1.0,
)

PAIRS: Dict[str, PairSpec] = {
    "nch_ball": PairSpec(
        params=("R",),
        defaults={"R": 4.0},
        rules=(_R_POSITIVE,),
        kappa=lambda k: (k.p - 1.0) / k.p,
        v=lambda r, rho, k: np.ones_like(rho),
        w=lambda r, rho, k: k.C * (r / rho) ** (k.g * k.p) / (k.R - rho) ** k.p,
        phi=lambda r, rho, k: ((k.p - 1.0) / k.p) ** (k.p - 1.0) * (k.Q - 1.0)
        * (r / rho) ** (k.g * k.p) / ((k.R - rho) ** (k.p - 1.0) * rho),
        x_exponents=lambda k: (k.g * k.p,),
        # profile (R - rho)^kap, tau anchored at R - rho = 0.6 R
        tau_of_rho=lambda rho, k: np.log(0.6 * k.R / (k.R - rho)),
        rho_of_tau=lambda tau, k: k.R - 0.6 * k.R * np.exp(-tau),
        probe_weight=lambda tau, k: (k.R - 0.6 * k.R * np.exp(-tau)) ** (k.Q - 1.0),
        profile=_nch_profile,
        inner=lambda k: 0.4 * k.R,
        tau_sign=-1.0,
        hpw=HpwSpec(
            "ball_nch",
            lambda p, Q: (p - 1.0) / p,
            lambda rho, ratio_pow, df_p, f_pp, k: [
                df_p,
                (k.R - rho) ** (k.p * k.pp / 2.0) * ratio_pow * f_pp,
            ],
        ),
    ),
    "dambrosio_power": PairSpec(
        params=("alpha", "beta"),
        defaults={"alpha": 0.0, "beta": 0.0},
        rules=((lambda k: k.Q > k.alpha - k.beta, "requires Q > alpha - beta"),),
        kappa=lambda k: (k.Q + k.beta - k.alpha) / k.p,
        v=lambda r, rho, k: r ** (k.beta - k.g * k.p) * rho ** (k.p * (1.0 + k.g) - k.alpha),
        w=lambda r, rho, k: k.C * r**k.beta * rho ** (-k.alpha),
        phi=None,
        x_exponents=lambda k: (k.beta - k.g * k.p, k.beta),
        **_POWER_PROFILE,
        hpw=HpwSpec(
            "whole_dambrosio",
            lambda p, Q: (Q - p) / p,
            lambda rho, ratio_pow, df_p, f_pp, k: [
                df_p,
                rho ** (k.p * k.pp / 2.0) * ratio_pow * f_pp,
            ],
            garofalo=True,
        ),
    ),
    "darca_power": PairSpec(
        params=("alpha", "theta", "R"),
        defaults={"theta": 0.5, "alpha": 1.0, "R": 1e30},
        rules=(_R_POSITIVE, (lambda k: k.Q > k.p * k.theta, "requires Q > p*theta")),
        kappa=lambda k: (k.Q - k.p * k.theta) / k.p,
        v=lambda r, rho, k: (r / rho) ** (k.g * k.alpha) * rho ** (k.p * (1.0 - k.theta)),
        w=lambda r, rho, k: k.C * (r / rho) ** (k.g * (k.alpha + k.p)) * rho ** (-k.p * k.theta),
        phi=None,
        x_exponents=lambda k: (k.g * k.alpha, k.g * (k.alpha + k.p)),
        **_POWER_PROFILE,
    ),
    "log_ball": PairSpec(
        params=("alpha", "R"),
        defaults={"alpha": -3.0, "R": 4.0},
        rules=(
            _R_POSITIVE,
            (lambda k: k.alpha + 1 < 0, "requires alpha + 1 < 0"),
            # phi carries the factor (Q - p); Q < p flips its sign, so the pair
            # is only an identity then, not an inequality
            (
                lambda k: k.Q >= k.p or k.allow_negative_phi,
                "requires Q >= p (pass allow_negative_phi to keep the identity only)",
            ),
        ),
        kappa=lambda k: abs(k.alpha + 1.0) / k.p,
        v=lambda r, rho, k: _log_dist(k.R, rho) ** (k.alpha + k.p),
        w=lambda r, rho, k: k.C * _log_dist(k.R, rho) ** k.alpha * (r / rho) ** (k.g * k.p)
        * rho ** (-k.p),
        phi=lambda r, rho, k: (abs(k.alpha + 1.0) / k.p) ** (k.p - 1.0) * (k.Q - k.p)
        * _log_dist(k.R, rho) ** (k.alpha + 1.0) * (r / rho) ** (k.g * k.p) * rho ** (-k.p),
        x_exponents=lambda k: (k.g * k.p,),
        # profile log(R/rho)^kap, tau = -log log(R/rho)
        tau_of_rho=lambda rho, k: -np.log(_log_dist(k.R, rho)),
        rho_of_tau=lambda tau, k: k.R * np.exp(-np.exp(-tau)),
        probe_weight=lambda tau, k: np.exp(-(k.Q - k.p) * np.exp(-tau)),
        profile=_log_profile,
        inner=lambda k: k.R * float(np.exp(-1.0)),
        tau_sign=-1.0,
        hpw=HpwSpec("log_ball", lambda p, Q: (p + 1.0) / p, _log_hpw_rows),
    ),
}

PAIR_IDS = tuple(PAIRS)

# uncertainty display -> the pair whose corollary it is
HPW_PAIRS: Dict[str, PairSpec] = {s.hpw.case: s for s in PAIRS.values() if s.hpw is not None}


@dataclass(frozen=True)
class WeightPair:
    """One catalog entry with evaluators; immutable, evaluation is pure.

    params keys match the CLI config schema verbatim: R, alpha, beta, theta.
    The batch evaluators take the points' precomputed (|x|, rho) as coords
    when the caller already has them; pts is then not read.
    """

    id: str
    space: SpaceParams
    p: float
    params: Dict[str, float]
    kappa: float
    x_singular: bool  # the weights are singular on {x=0}
    allow_negative_phi: bool = False

    @property
    def spec(self) -> PairSpec:
        return PAIRS[self.id]

    @property
    def sharp_constant(self) -> float:
        return self.kappa**self.p

    @property
    def radius(self) -> Optional[float]:
        """Ball radius for rho_ball domains, None on the whole space."""
        return self.params.get("R")

    @cached_property
    def scalars(self) -> SimpleNamespace:
        """The k of the spec formulas, built once per pair."""
        space = self.space
        return SimpleNamespace(
            g=space.gamma, p=self.p, Q=space.Q, C=self.sharp_constant, **self.params
        )

    def _prepare(self, pts: np.ndarray, coords: Optional[Coords]) -> Coords:
        if coords is not None:
            return coords
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.space.n:
            raise ValueError(f"points must have shape (N, {self.space.n})")
        return radial_coords(self.space, pts[:, : self.space.m], pts[:, self.space.m :])

    def _formula(
        self, formula: Optional[Formula], pts: np.ndarray, coords: Optional[Coords]
    ) -> np.ndarray:
        r, rho = self._prepare(pts, coords)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.zeros_like(rho) if formula is None else formula(r, rho, self.scalars)
        # points beyond a ball domain (rho > R) lie outside it: nan
        return out if self.radius is None else np.where(rho > self.radius, np.nan, out)

    def v_batch(self, pts: np.ndarray, coords: Optional[Coords] = None) -> np.ndarray:
        """v on an (N, m+k) batch; singular or out-of-domain points give inf/nan."""
        return self._formula(self.spec.v, pts, coords)

    def w_batch(self, pts: np.ndarray, coords: Optional[Coords] = None) -> np.ndarray:
        """w (including the sharp constant) on an (N, m+k) batch."""
        return self._formula(self.spec.w, pts, coords)

    def phi_batch(self, pts: np.ndarray, coords: Optional[Coords] = None) -> np.ndarray:
        """Analytic defect phi on an (N, m+k) batch."""
        return self._formula(self.spec.phi, pts, coords)


def make_pair(
    pair_id: str,
    space: SpaceParams,
    p: float,
    params: Dict[str, float],
    allow_negative_phi: bool = False,
) -> WeightPair:
    """Validated catalog entry; error messages name the violated constraint."""
    spec = PAIRS.get(pair_id)
    if spec is None:
        raise ValueError(f"unknown pair id {pair_id!r}; expected one of {PAIR_IDS}")
    if not 1 < p < np.inf:
        raise ValueError("requires p > 1 and finite")
    required = spec.params
    missing = [k for k in required if k not in params]
    extra = [k for k in params if k not in required]
    if missing or extra:
        raise ValueError(
            f"{pair_id} takes parameters {required}; missing {missing}, unexpected {extra}"
        )
    params = {k: float(params[k]) for k in required}
    if not np.all(np.isfinite(list(params.values()))):
        raise ValueError(f"{pair_id} parameters must be finite")
    k = SimpleNamespace(
        g=space.gamma, p=p, Q=space.Q, allow_negative_phi=allow_negative_phi, **params
    )
    for holds, message in spec.rules:
        if not holds(k):
            raise ValueError(message)
    kappa = spec.kappa(k)
    with np.errstate(over="ignore"):
        if not np.isfinite(np.float64(kappa) ** p):
            raise ValueError(f"{pair_id}: the sharp constant kappa^p = {kappa:g}^{p:g} overflows")
    return WeightPair(
        id=pair_id,
        space=space,
        p=p,
        params=params,
        kappa=kappa,
        x_singular=space.gamma > 0 or any(e < 0 for e in spec.x_exponents(k)),
        allow_negative_phi=allow_negative_phi,
    )


def phi_numeric(pair: WeightPair, pts: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Finite-difference value of div_gamma(w^((p-1)/p) v^(1/p) unit) - p w on
    an (N, m+k) batch, with one step per point.

    Rejects steps larger than half the distance to the singular set or the
    ball boundary; inside that margin the Richardson-extrapolated divergence
    from geometry.fd_divergence is accurate to roughly step^2.
    """
    space, p = pair.space, pair.p
    pts = np.asarray(pts, dtype=float)
    R = pair.radius
    if R is not None:
        _, rho = radial_coords(space, pts[:, : space.m], pts[:, space.m :])
        if np.any(step > 0.5 * (R - rho)):
            raise ValueError("step exceeds half the distance to the ball boundary")

    def displayed(stencil: np.ndarray) -> np.ndarray:
        scale = pair.w_batch(stencil) ** ((p - 1.0) / p) * pair.v_batch(stencil) ** (1.0 / p)
        return scale[:, None] * unit_grad_gamma_rho(space, stencil)

    return fd_divergence(space, displayed, pts, step) - p * pair.w_batch(pts)


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
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            half = np.repeat([0.9 * scale, (0.9 * scale) ** a / a], [space.m, space.k])
            pts = rejection_sample(
                space,
                half,
                lambda r, rho: (rho >= 0.3 * scale) & (rho <= 0.9 * scale) & (r >= 0.1 * rho),
                samples,
                seed,
            )
            r, rho = radial_coords(space, pts[:, : space.m], pts[:, space.m :])
            margin = np.minimum(rho, r) if space.gamma > 0 else rho
            if pair.radius is not None:
                margin = np.minimum(margin, pair.radius - rho)
            phi = pair.phi_batch(pts)
            w = pair.w_batch(pts)
            mismatch = np.abs(phi - phi_numeric(pair, pts, 1e-4 * margin)) / (1.0 + pair.p * w)
    except FloatingPointError as exc:
        raise ValueError(
            f"condition arithmetic failed in space ({space.m},{space.k},{space.gamma:g}): {exc}"
        ) from None
    return {"min_phi": float(np.min(phi)), "max_abs_mismatch": float(np.max(mismatch))}
