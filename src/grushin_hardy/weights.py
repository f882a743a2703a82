"""Catalog of weight pairs (v, w) for Grushin-type Hardy inequalities.

Each pair satisfies a weighted Hardy inequality

    integral v |D f|^p  >=  integral w |f|^p  +  lower-order phi term,

where D is the projected derivative along grad_gamma(rho) and w already
carries the sharp constant of the pair. The catalog stores closed forms for
v, w and the analytic defect

    phi = div_gamma( w^((p-1)/p) v^(1/p) grad_gamma(rho)/|grad_gamma(rho)| ) - p w,

which the corollary proofs give explicitly for every pair, together with a
finite-difference cross-check of that divergence condition.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.stats import qmc

from grushin_hardy.geometry import (
    Point,
    SingularPointError,
    SpaceParams,
    fd_divergence,
    radial_coords,
    unit_grad_gamma_rho,
)

__all__ = [
    "PAIR_IDS",
    "WeightPair",
    "make_pair",
    "phi_numeric",
    "condition_report",
]

Coords = Tuple[np.ndarray, np.ndarray]  # (|x|, rho), as radial_coords returns

PAIR_IDS = ("nch_ball", "dambrosio_power", "darca_power", "log_ball")

_REQUIRED_PARAMS = {
    "nch_ball": ("R",),
    "dambrosio_power": ("alpha", "beta"),
    "darca_power": ("alpha", "theta", "R"),
    "log_ball": ("alpha", "R"),
}


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
    sharp_constant: float
    domain: str
    singular_set: str
    allow_negative_phi: bool = field(default=False)

    @property
    def radius(self) -> Optional[float]:
        """Ball radius for rho_ball domains, None on the whole space."""
        return self.params.get("R")

    @property
    def x_singular(self) -> bool:
        return "{x=0}" in self.singular_set

    def _prepare(self, pts: np.ndarray, coords: Optional[Coords]) -> Coords:
        if coords is not None:
            return coords
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.space.n:
            raise ValueError(f"points must have shape (N, {self.space.n})")
        return radial_coords(self.space, pts[:, : self.space.m], pts[:, self.space.m :])

    def _log_dist(self, rho: np.ndarray) -> np.ndarray:
        # log(R/rho) via log1p keeps precision near the boundary rho ~ R
        R = self.params["R"]
        return np.log1p((R - rho) / rho)

    def v_batch(self, pts: np.ndarray, coords: Optional[Coords] = None) -> np.ndarray:
        """v on an (N, m+k) batch; singular or out-of-domain points give inf/nan."""
        r, rho = self._prepare(pts, coords)
        g, p = self.space.gamma, self.p
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.id == "nch_ball":
                return np.ones_like(rho)
            if self.id == "dambrosio_power":
                a, b = self.params["alpha"], self.params["beta"]
                return r ** (b - g * p) * rho ** (p * (1.0 + g) - a)
            if self.id == "darca_power":
                a, th = self.params["alpha"], self.params["theta"]
                return (r / rho) ** (g * a) * rho ** (p * (1.0 - th))
            a = self.params["alpha"]
            return self._log_dist(rho) ** (a + p)

    def w_batch(self, pts: np.ndarray, coords: Optional[Coords] = None) -> np.ndarray:
        """w (including the sharp constant) on an (N, m+k) batch."""
        r, rho = self._prepare(pts, coords)
        g, p, C = self.space.gamma, self.p, self.sharp_constant
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.id == "nch_ball":
                R = self.params["R"]
                return C * (r / rho) ** (g * p) / (R - rho) ** p
            if self.id == "dambrosio_power":
                a, b = self.params["alpha"], self.params["beta"]
                return C * r**b * rho ** (-a)
            if self.id == "darca_power":
                a, th = self.params["alpha"], self.params["theta"]
                return C * (r / rho) ** (g * (a + p)) * rho ** (-p * th)
            a = self.params["alpha"]
            return C * self._log_dist(rho) ** a * (r / rho) ** (g * p) * rho ** (-p)

    def phi_batch(self, pts: np.ndarray, coords: Optional[Coords] = None) -> np.ndarray:
        """Analytic defect phi on an (N, m+k) batch."""
        r, rho = self._prepare(pts, coords)
        g, p, Q = self.space.gamma, self.p, self.space.Q
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.id == "nch_ball":
                R = self.params["R"]
                lead = ((p - 1.0) / p) ** (p - 1.0) * (Q - 1.0)
                return lead * (r / rho) ** (g * p) / ((R - rho) ** (p - 1.0) * rho)
            if self.id == "log_ball":
                a = self.params["alpha"]
                lead = (abs(a + 1.0) / p) ** (p - 1.0) * (Q - p)
                L = self._log_dist(rho)
                return lead * L ** (a + 1.0) * (r / rho) ** (g * p) * rho ** (-p)
            return np.zeros_like(rho)

    def _point_checked(self, z: Point) -> np.ndarray:
        r, rho = radial_coords(self.space, z.x, z.y)
        if rho == 0.0:
            raise SingularPointError("evaluation at the origin")
        if self.x_singular and r == 0.0:
            raise SingularPointError("evaluation on {x=0}")
        R = self.radius
        if R is not None and rho >= R:
            raise ValueError(f"point has rho = {rho}, outside the ball of radius {R}")
        return np.concatenate([z.x, z.y])[None, :]

    def v_eval(self, z: Point) -> float:
        return float(self.v_batch(self._point_checked(z))[0])

    def w_eval(self, z: Point) -> float:
        return float(self.w_batch(self._point_checked(z))[0])

    def phi_eval(self, z: Point) -> float:
        return float(self.phi_batch(self._point_checked(z))[0])


def _singular_set(pair_id: str, space: SpaceParams, p: float, params: Dict[str, float]) -> str:
    x_exponents = {
        "nch_ball": (space.gamma * p,),
        "dambrosio_power": (params.get("beta", 0.0) - space.gamma * p, params.get("beta", 0.0)),
        "darca_power": (space.gamma * params.get("alpha", 0.0), space.gamma * (params.get("alpha", 0.0) + p)),
        "log_ball": (space.gamma * p,),
    }[pair_id]
    parts = []
    if space.gamma > 0 or any(e < 0 for e in x_exponents):
        parts.append("{x=0}")
    parts.append("{origin}")
    if pair_id in ("nch_ball", "log_ball"):
        parts.append("{rho=R}")
    return " u ".join(parts)


def make_pair(
    pair_id: str,
    space: SpaceParams,
    p: float,
    params: Dict[str, float],
    allow_negative_phi: bool = False,
) -> WeightPair:
    """Validated catalog entry; error messages name the violated constraint."""
    if pair_id not in PAIR_IDS:
        raise ValueError(f"unknown pair id {pair_id!r}; expected one of {PAIR_IDS}")
    if not 1 < p < np.inf:
        raise ValueError("requires p > 1 and finite")
    required = _REQUIRED_PARAMS[pair_id]
    missing = [k for k in required if k not in params]
    extra = [k for k in params if k not in required]
    if missing or extra:
        raise ValueError(
            f"{pair_id} takes parameters {required}; missing {missing}, unexpected {extra}"
        )
    params = {k: float(params[k]) for k in required}
    if not np.all(np.isfinite(list(params.values()))):
        raise ValueError(f"{pair_id} parameters must be finite")
    Q = space.Q

    if pair_id == "nch_ball":
        if params["R"] <= 0:
            raise ValueError("requires R > 0")
        C = ((p - 1.0) / p) ** p
        domain = "rho_ball"
    elif pair_id == "dambrosio_power":
        if not Q > params["alpha"] - params["beta"]:
            raise ValueError("requires Q > alpha - beta")
        C = ((Q + params["beta"] - params["alpha"]) / p) ** p
        domain = "whole_space"
    elif pair_id == "darca_power":
        if params["R"] <= 0:
            raise ValueError("requires R > 0")
        if not Q > p * params["theta"]:
            raise ValueError("requires Q > p*theta")
        C = ((Q - p * params["theta"]) / p) ** p
        domain = "rho_ball"
    else:
        if params["R"] <= 0:
            raise ValueError("requires R > 0")
        if not params["alpha"] + 1 < 0:
            raise ValueError("requires alpha + 1 < 0")
        # phi carries the factor (Q - p); Q < p flips its sign, so the pair is
        # only an identity then, not an inequality
        if Q < p and not allow_negative_phi:
            raise ValueError("requires Q >= p (pass allow_negative_phi to keep the identity only)")
        C = (abs(params["alpha"] + 1.0) / p) ** p
        domain = "rho_ball"

    return WeightPair(
        id=pair_id,
        space=space,
        p=p,
        params=params,
        sharp_constant=C,
        domain=domain,
        singular_set=_singular_set(pair_id, space, p, params),
        allow_negative_phi=allow_negative_phi,
    )


def phi_numeric(pair: WeightPair, z: Point, step: float) -> float:
    """Finite-difference value of div_gamma(w^((p-1)/p) v^(1/p) unit) - p w.

    Rejects steps larger than half the distance to the singular set or the
    ball boundary; inside that margin the Richardson-extrapolated divergence
    from geometry.fd_divergence is accurate to roughly step^2.
    """
    space, p = pair.space, pair.p
    r, rho = radial_coords(space, z.x, z.y)
    R = pair.radius
    if R is not None and step > 0.5 * (R - rho):
        raise ValueError("step exceeds half the distance to the ball boundary")

    def displayed(pt: Point) -> np.ndarray:
        batch = np.concatenate([pt.x, pt.y])[None, :]
        w = float(pair.w_batch(batch)[0])
        v = float(pair.v_batch(batch)[0])
        return w ** ((p - 1.0) / p) * v ** (1.0 / p) * unit_grad_gamma_rho(space, pt)

    return fd_divergence(space, displayed, z, step) - p * pair.w_eval(z)


def condition_report(pair: WeightPair, samples: int, seed: int = 0) -> Dict[str, float]:
    """Quasi-random check of the defect condition over the pair's domain.

    Draws Sobol points with rho in [0.3, 0.9] * (R or 2) and |x| >= 0.1 rho,
    and reports min_phi = min of the closed-form defect and max_abs_mismatch =
    max of |phi_eval - phi_numeric| / (1 + p w).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    space = pair.space
    scale = pair.radius if pair.radius is not None else 2.0
    a = 1.0 + space.gamma
    x_half = 0.9 * scale
    y_half = (0.9 * scale) ** a / a
    sob = qmc.Sobol(d=space.n, scramble=True, seed=seed)

    kept: List[np.ndarray] = []
    draw = 1 << max(int(np.ceil(np.log2(2 * samples))), 6)
    for _ in range(64):
        raw = sob.random(draw)
        pts = (2.0 * raw - 1.0) * np.concatenate([np.full(space.m, x_half), np.full(space.k, y_half)])
        r, rho = radial_coords(space, pts[:, : space.m], pts[:, space.m :])
        good = (rho >= 0.3 * scale) & (rho <= 0.9 * scale) & (r >= 0.1 * rho)
        kept.extend(pts[good])
        if len(kept) >= samples:
            break
    if len(kept) < samples:
        raise RuntimeError("sampler failed to reach the requested count")

    min_phi = np.inf
    max_mismatch = 0.0
    for row in kept[:samples]:
        z = Point(row[: space.m], row[space.m :])
        r, rho = radial_coords(space, z.x, z.y)
        margins = [float(rho)]
        if space.gamma > 0:
            margins.append(float(r))
        if pair.radius is not None:
            margins.append(float(pair.radius - rho))
        step = 1e-4 * min(margins)
        phi = pair.phi_eval(z)
        w = pair.w_eval(z)
        mismatch = abs(phi - phi_numeric(pair, z, step)) / (1.0 + pair.p * w)
        min_phi = min(min_phi, phi)
        max_mismatch = max(max_mismatch, mismatch)
    return {"min_phi": float(min_phi), "max_abs_mismatch": float(max_mismatch)}
