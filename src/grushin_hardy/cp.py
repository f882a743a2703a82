"""Remainder functional C_p and the four optimization-defined remainder constants.

For complex vectors xi, eta and p > 1,

    C_p(xi, eta) = |xi|^p - |xi-eta|^p - p |xi-eta|^(p-2) Re((xi-eta) . conj(eta)),

with the continuous extension C_p(xi, xi) = |xi|^p (for 1 < p < 2 the literal
third term is 0/0 at xi = eta).  C_p is nonnegative, homogeneous of degree p,
and C_2(xi, eta) = |eta|^2 exactly.

The remainder constants are extrema of quotients of the shared numerator

    N(s, t) = ((1+s)^2 + t^2)^(p/2) - 1 - p s

over polar coordinates (s, t) = r (cos theta, sin theta), r > 0:

    cp_pge2 (p >= 2):  inf N / (s^2 + t^2)^(p/2)
    c1_inf (1<p<2):    inf N / ((|u|+1)^(p-2) (s^2 + t^2)),  |u| = sqrt((1+s)^2+t^2)
    c2_sup (1<p<2):    sup of the c1_inf quotient
    c3_min (1<p<2):    min of  inf_{r>=1} N / (s^2+t^2)^(p/2)  and
                               inf_{0<r<1} N / (s^2 + t^2)

Every quotient tends to 1 along each ray as r -> infinity, and as r -> 0 the
c1/c2 quotient tends to (p/2^(p-1)) (1 + (p-2) cos^2 theta).  The theta-range
of that limit gives elementary enclosures: the infimum is at most
p(p-1)/2^(p-1) and the supremum at least p/2^(p-1).  These directional limits
enter the search as explicit candidates, so the reported extremum can never
miss a value approached only at the ends of the radius range.

The search itself is a dense polar grid (with an exact r = 1 ring for the
c3_min branch seam) followed by Nelder-Mead refinement restarted from the
best grid cells.  N and every denominator depend on t only through t^2, so
each quotient is even in t and the grid covers only the upper half circle
theta in [0, pi], both ends included: the lower half repeats its values.
The grid is scored by the array evaluator `_quotient`; every single-point
evaluation (the refinement, the half-cell probes, the c3_min circle search)
goes through `objective`, the same arithmetic on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = [
    "KINDS",
    "CpObjectiveKind",
    "ConstantEstimate",
    "cp_value",
    "cp_value_batch",
    "objective",
    "stated_range",
    "find_constant",
]

KINDS = ("cp_pge2", "c1_inf", "c2_sup", "c3_min")

# the search grid: angles, radius decades on each side of r = 1 and radii
# per decade; then Nelder-Mead iterations from the best grid cells
_THETA_SAMPLES = 720
_RADIUS_DECADES = 6
_RADIUS_PER_DECADE = 40
_REFINE_ITERS = 200
_RESTARTS = 5


@dataclass(frozen=True)
class CpObjectiveKind:
    """Which constant is being computed, and for which p."""

    kind: str
    p: float

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "cp_pge2":
            if not 2.0 <= self.p < np.inf:
                raise ValueError("cp_pge2 requires p >= 2 and finite")
        elif not 1.0 < self.p < 2.0:
            raise ValueError(f"{self.kind} requires 1 < p < 2")


@dataclass(frozen=True)
class ConstantEstimate:
    """Search outcome: the extremal value, its argument, and a conservative
    enclosure assembled from the grid scan plus the refinement."""

    value: float
    argmin_s: float
    argmin_t: float
    refined: bool
    bracket: Tuple[float, float]

    @property
    def width(self) -> float:
        return self.bracket[1] - self.bracket[0]


def cp_value_batch(xi: np.ndarray, eta: np.ndarray, p: float) -> np.ndarray:
    """C_p for a batch of vector pairs; xi, eta of shape (N,) or (N, d).

    Shape (N,) holds scalars: their moduli come from np.abs and
    Re((xi-eta) conj(eta)) from the real and imaginary parts, elementwise.
    """
    if not p > 1.0:
        raise ValueError("p must be > 1")
    xi, eta = np.asarray(xi), np.asarray(eta)
    if xi.shape != eta.shape:
        raise ValueError("xi and eta must have the same shape")
    diff = xi - eta
    if xi.ndim == 1:
        t, a = np.abs(diff), np.abs(xi)
        re = diff.real * eta.real + diff.imag * eta.imag if np.iscomplexobj(diff) else diff * eta
    else:
        t, a = np.linalg.norm(diff, axis=1), np.linalg.norm(xi, axis=1)
        re = np.real(np.einsum("ij,ij->i", diff, np.conj(eta)))
    ap = a**p
    # t^p + p t^(p-2) Re(...) is written t^(p-1) (t + p Re(...)/t), one power
    # in all: |Re(...)/t| <= |eta|, so the factor stays finite for every p > 1
    # as t -> 0, and t = 0 takes the continuous extension |xi|^p
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t > 0.0, ap - t ** (p - 1.0) * (t + p * (re / t)), ap)


def cp_value(xi, eta, p: float) -> float:
    """C_p(xi, eta) for a single pair of complex scalars or vectors."""
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    eta = np.atleast_1d(np.asarray(eta, dtype=complex))
    if xi.shape != eta.shape:
        raise ValueError("xi and eta must have the same length")
    return float(cp_value_batch(xi[None, :], eta[None, :], p)[0])


def _numerator(p: float, s: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """N(s, t) = (1 + g)^(p/2) - 1 - p s with g = 2 s + r^2.

    Written as (p/2) r^2 + [(1+g)^(p/2) - 1 - (p/2) g] with the bracket
    summed as a binomial series for small |g|: near the axis with r -> 0 the
    direct form cancels to eps * |g| absolute error while N itself is of
    order r^2, so the split keeps full relative precision (and makes the
    p = 2 quotient exactly 1 at machine level).
    """
    a = 0.5 * p
    g = 2.0 * s + r2
    out = np.empty_like(g)

    small = np.abs(g) <= 0.1
    gs = g[small]
    coef = a * (a - 1.0) / 2.0
    power = gs * gs
    total = coef * power
    c = coef
    for j in range(2, 40):
        c = c * (a - j) / (j + 1.0)
        power = power * gs
        term = c * power
        total = total + term
        if not np.any(np.abs(term) > 1e-17 * (np.abs(total) + 1e-300)):
            break
    out[small] = a * r2[small] + total

    gl = g[~small]
    with np.errstate(invalid="ignore"):
        direct = np.power(np.maximum(1.0 + gl, 0.0), a) - 1.0
    out[~small] = direct - p * s[~small]
    return out


def _quotient(kind: CpObjectiveKind, s: np.ndarray, t: np.ndarray, r2: Optional[np.ndarray] = None) -> np.ndarray:
    """The remainder quotient on arrays: the grid scan's evaluator."""
    if r2 is None:
        r2 = s * s + t * t
    p = kind.p
    num = _numerator(p, s, r2)
    if kind.kind == "cp_pge2":
        den = r2 ** (0.5 * p)
    elif kind.kind in ("c1_inf", "c2_sup"):
        mod_u = np.sqrt(np.maximum(1.0 + 2.0 * s + r2, 0.0))
        den = (mod_u + 1.0) ** (p - 2.0) * r2
    else:
        den = np.where(r2 >= 1.0, r2 ** (0.5 * p), r2)
    return num / den


def objective(kind: CpObjectiveKind, s: float, t: float) -> float:
    """The remainder quotient at a single point (s, t) != (0, 0).

    The same arithmetic as the grid's array evaluator `_quotient`, on Python
    floats: a single point costs no array set-up, which is what the simplex
    refinement, the half-cell probes and the c3_min circle search call.
    Returns nan where the float arithmetic overflows or underflows to 0/0.
    """
    if s == 0.0 and t == 0.0:
        raise ValueError("(s, t) = (0, 0) is excluded from the quotient domain")
    p = kind.p
    a = 0.5 * p
    r2 = s * s + t * t
    g = 2.0 * s + r2
    try:
        if abs(g) <= 0.1:
            # the binomial series of _numerator, stopped by the same test
            coef = a * (a - 1.0) / 2.0
            power = g * g
            total = coef * power
            c = coef
            for j in range(2, 40):
                c = c * (a - j) / (j + 1.0)
                power = power * g
                term = c * power
                total = total + term
                if not abs(term) > 1e-17 * (abs(total) + 1e-300):
                    break
            num = a * r2 + total
        else:
            num = math.pow(max(1.0 + g, 0.0), a) - 1.0 - p * s
        if kind.kind == "cp_pge2":
            den = math.pow(r2, a)
        elif kind.kind in ("c1_inf", "c2_sup"):
            mod_u = math.sqrt(max(1.0 + 2.0 * s + r2, 0.0))
            den = math.pow(mod_u + 1.0, p - 2.0) * r2
        else:
            den = math.pow(r2, a) if r2 >= 1.0 else r2
        return num / den
    except (OverflowError, ZeroDivisionError):
        return math.nan


def stated_range(kind: CpObjectiveKind) -> Tuple[float, float]:
    """Closed-form enclosure (lo, hi) for the constant; hi may be +inf.

    For c1_inf/c2_sup the finite endpoints are the theta-extrema of the
    shared r -> 0 limit (p/2^(p-1)) (1 + (p-2) cos^2 theta); for c3_min the
    endpoint p(p-1)/2 is the analogous limit of the inner branch.
    """
    p = kind.p
    if kind.kind == "cp_pge2":
        return (0.0, 1.0)
    if kind.kind == "c1_inf":
        return (0.0, p * (p - 1.0) / 2 ** (p - 1.0))
    if kind.kind == "c2_sup":
        return (p / 2 ** (p - 1.0), np.inf)
    return (0.0, p * (p - 1.0) / 2.0)


def _limit_candidates(kind: CpObjectiveKind) -> List[float]:
    """Directional limit values of the quotient at r -> 0 and r -> infinity.

    Every quotient tends to 1 along each ray as r -> infinity.  As r -> 0:
    the cp_pge2 quotient diverges for p > 2 (and is identically 1 at p = 2);
    the c1/c2 quotient tends to (p/2^(p-1)) (1 + (p-2) cos^2 theta), whose
    theta-extrema are the stated_range endpoints; the c3_min inner branch
    tends to (p/2) (1 + (p-2) cos^2 theta) with theta-minimum p(p-1)/2.
    Each r -> 0 candidate is thus the stated_range endpoint on the side of
    the extremum: the upper one for infima, the lower one for c2_sup.
    """
    lo, hi = stated_range(kind)
    return [1.0, lo if kind.kind == "c2_sup" else hi]


def _nelder_mead(f: Callable[[float, float], float], s0: float, t0: float) -> Tuple[float, float, float, int]:
    """Minimize f(s, t) from (s0, t0); returns (fun, s, t, evaluations).

    scipy's non-adaptive Nelder-Mead with xatol 1e-12, fatol 1e-15 and
    _REFINE_ITERS iterations, step for step on Python floats: the same start
    simplex, coefficients, stable vertex sort and stop test, so it gives the
    same iterates (tests check this against scipy).  The cap of
    4 * _REFINE_ITERS evaluations that scipy is also given never binds: an
    iteration makes at most 4 calls, so 3 + 4 * (_REFINE_ITERS - 1) is the most.
    """
    xatol, fatol = 1e-12, 1e-15
    sim = [(s0, t0), (1.05 * s0 if s0 != 0.0 else 0.00025, t0), (s0, 1.05 * t0 if t0 != 0.0 else 0.00025)]
    fsim = [f(*v) for v in sim]
    calls = 3
    order = sorted(range(3), key=fsim.__getitem__)
    sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
    iterations = 1
    while iterations < _REFINE_ITERS:
        (s_0, t_0), (s_1, t_1), (s_2, t_2) = sim
        f_0, f_1, f_2 = fsim
        x_close = abs(s_1 - s_0) <= xatol and abs(t_1 - t_0) <= xatol
        x_close = x_close and abs(s_2 - s_0) <= xatol and abs(t_2 - t_0) <= xatol
        if x_close and abs(f_0 - f_1) <= fatol and abs(f_0 - f_2) <= fatol:
            break
        sb, tb = (s_0 + s_1) / 2, (t_0 + t_1) / 2
        xr = (2 * sb - s_2, 2 * tb - t_2)  # reflection
        fxr = f(*xr)
        calls += 1
        if fxr < f_0:
            xe = (3 * sb - 2 * s_2, 3 * tb - 2 * t_2)  # expansion
            fxe = f(*xe)
            calls += 1
            sim[2], fsim[2] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < f_1:
            sim[2], fsim[2] = xr, fxr
        else:
            if fxr < f_2:
                xc = (1.5 * sb - 0.5 * s_2, 1.5 * tb - 0.5 * t_2)  # contraction
                accept = (fxc := f(*xc)) <= fxr
            else:
                xc = (0.5 * sb + 0.5 * s_2, 0.5 * tb + 0.5 * t_2)  # inside contraction
                accept = (fxc := f(*xc)) < f_2
            calls += 1
            if accept:
                sim[2], fsim[2] = xc, fxc
            else:  # shrink toward the best vertex
                for j in (1, 2):
                    sim[j] = (s_0 + 0.5 * (sim[j][0] - s_0), t_0 + 0.5 * (sim[j][1] - t_0))
                    fsim[j] = f(*sim[j])
                calls += 2
        iterations += 1
        order = sorted(range(3), key=fsim.__getitem__)
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
    return fsim[0], sim[0][0], sim[0][1], calls


def _bounded_brent(f: Callable[[float], float], a: float, b: float) -> Tuple[float, float, int]:
    """Minimize f on [a, b]; returns (x, fun, evaluations).

    scipy's bounded Brent (`minimize_scalar(method="bounded")`) step for step
    on Python floats, with xatol 1e-12 and its 500-call cap: golden-section
    steps, parabolic steps where the parabola is acceptable.
    """
    xatol = 1e-12
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = nfc = xf = a + golden_mean * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = f(xf)
    calls = 1
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = -tol1 if xm - xf < 0.0 else tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0.0 else xf + step
        fu = f(x)
        calls += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if calls >= 500:
            break
    return xf, fx, calls


def find_constant(kind: CpObjectiveKind) -> ConstantEstimate:
    """Global polar-grid search plus simplex refinement for one constant.

    The grid spans the upper half circle only, as the quotient is even in t;
    it is scored on arrays by `_quotient`, and the refinement and the probes
    evaluate single points with `objective`.

    The returned bracket is [value - slack, grid_best + span] for infima
    (mirrored for c2_sup). Any sampled quotient value bounds an infimum from
    above, so the grid end is rigorous up to `span`: the quotient probed one
    half grid cell away from the reported argument. That allowance covers any
    independent sampling at this resolution or finer, no matter how the other
    grid happens to align with the true extremum.
    """
    sign = -1.0 if kind.kind == "c2_sup" else 1.0

    # theta in [0, pi], both ends included: the quotient is even in t
    theta = np.linspace(0.0, 2.0 * np.pi, _THETA_SAMPLES, endpoint=False)[: _THETA_SAMPLES // 2 + 1]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    d = _RADIUS_DECADES
    n_r = 2 * d * _RADIUS_PER_DECADE + 1
    radii = np.geomspace(10.0 ** (-d), 10.0**d, n_r)
    # exact ring at r = 1 so the c3_min branch seam is always sampled
    radii = np.append(radii, 1.0)

    def scan(radii_block: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        s = radii_block[:, None] * cos_t[None, :]
        t = radii_block[:, None] * sin_t[None, :]
        r2 = (radii_block**2)[:, None] * np.ones_like(cos_t)[None, :]
        return s, t, sign * _quotient(kind, s, t, r2)

    s_grid, t_grid, score_grid = scan(radii)

    # supremum searches extend outward while the best cell sits in the top decade
    extensions = 0
    r_hi = 10.0**d
    while kind.kind == "c2_sup" and extensions < 6:
        flat = int(np.argmin(score_grid))
        best_r = np.sqrt(s_grid.ravel()[flat] ** 2 + t_grid.ravel()[flat] ** 2)
        if best_r < r_hi / 10.0:
            break
        new_radii = np.geomspace(r_hi, r_hi * 100.0, 2 * _RADIUS_PER_DECADE + 1)[1:]
        s_n, t_n, sc_n = scan(new_radii)
        s_grid = np.vstack([s_grid, s_n])
        t_grid = np.vstack([t_grid, t_n])
        score_grid = np.vstack([score_grid, sc_n])
        r_hi *= 100.0
        extensions += 1

    flat_scores = score_grid.ravel()
    best = np.argpartition(flat_scores, _RESTARTS - 1)[:_RESTARTS]
    order = best[np.argsort(flat_scores[best])]
    grid_best_score = float(flat_scores[order[0]])
    starts = [int(i) for i in order]
    if kind.kind == "c3_min":
        # make sure both branch regions and the seam contribute a start
        r_flat = np.sqrt(s_grid.ravel() ** 2 + t_grid.ravel() ** 2)
        for region in (r_flat >= 1.0, r_flat < 1.0):
            idx = np.where(region)[0]
            if idx.size:
                starts.append(int(idx[np.argmin(flat_scores[idx])]))

    def score(s: float, t: float) -> float:
        if s == 0.0 and t == 0.0:
            return math.inf
        q = objective(kind, s, t)
        return sign * q if math.isfinite(q) else math.inf

    best_score = grid_best_score
    best_s = float(s_grid.ravel()[order[0]])
    best_t = float(t_grid.ravel()[order[0]])
    for i in dict.fromkeys(starts):
        f, s_r, t_r, _ = _nelder_mead(score, float(s_grid.ravel()[i]), float(t_grid.ravel()[i]))
        if f < best_score:
            best_score, best_s, best_t = f, s_r, t_r
    refined = True
    if kind.kind == "c3_min":
        # 1-d refinement along the unit circle, where the two branches meet
        th, f, _ = _bounded_brent(lambda th: objective(kind, math.cos(th), math.sin(th)), 0.0, 2.0 * np.pi)
        if f < best_score:
            best_score, best_s, best_t = f, math.cos(th), math.sin(th)

    for lim in _limit_candidates(kind):
        if sign * lim < best_score:
            best_score = sign * lim
            refined = False

    # probe one half grid cell around the reported argument; the worst of the
    # probes bounds how far any equally fine sampling can sit from the extremum
    span = 0.0
    r_arg = math.hypot(best_s, best_t)
    if r_arg > 0.0 and math.isfinite(best_score):
        th_arg = math.atan2(best_t, best_s)
        h_log = math.log(10.0) / (2.0 * _RADIUS_PER_DECADE)
        h_th = math.pi / _THETA_SAMPLES
        for dr in (-h_log, 0.0, h_log):
            for dth in (-h_th, 0.0, h_th):
                if dr == 0.0 and dth == 0.0:
                    continue
                rr = r_arg * math.exp(dr)
                tt = th_arg + dth
                q = sign * objective(kind, rr * math.cos(tt), rr * math.sin(tt))
                if math.isfinite(q):
                    span = max(span, q - best_score)

    value = sign * best_score
    grid_best = sign * grid_best_score
    slack = 1e-11 * (1.0 + abs(value))
    rigor = 1e-15 * (1.0 + abs(grid_best))
    if kind.kind == "c2_sup":
        bracket = (grid_best - span - rigor, value + slack)
    else:
        bracket = (value - slack, grid_best + span + rigor)
    return ConstantEstimate(
        value=value,
        argmin_s=best_s,
        argmin_t=best_t,
        refined=refined,
        bracket=bracket,
    )
