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

Every extremum lies on the real axis t = 0.  Write z = s + i t, r = |z|
and w = |1 + z|, so that N = w^p - 1 - p s:

    cp_pge2: at fixed r, N is convex in s with its vertex at s = -r^2/2.  For
             r <= 2 the vertex lies in [-r, r], where the quotient is
             p r^(2-p)/2 >= p 2^(1-p), the axis value at s = -2; for r >= 2
             the minimum over the circle is at s = -r.
    c3_min:  both denominators depend on r alone and N is concave in s, so
             at fixed r the minimum is at s = r or s = -r.
    c1_inf, c2_sup: the quotient is (w+1)^(2-p) [p/2 + A(w)/r^2] with
             A(w) = w^p - 1 - (p/2)(w^2 - 1) <= 0, so at fixed w it increases
             with r, which ranges over [|w-1|, w+1]; at both ends z is real,
             so the infimum and the supremum are both taken on t = 0.

The search is therefore one dimensional: a log-spaced scan of |s| on both
signs of the axis (with exact s = -1 and s = 1 for the c3_min branch seam),
scored by the array evaluator `_quotient`, then a golden-section search on
log|s| near each sign's best scan point, which evaluates single points with
`objective`, the same arithmetic on Python floats.  The 2-D `_quotient` and
`objective` stay defined on the whole plane, so tests can check the lemma off
the axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

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

# the axis scan: radius decades on each side of |s| = 1 and radii per decade
_RADIUS_DECADES = 6
_RADIUS_PER_DECADE = 40

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
    """Search outcome: the extremal value, its argument (always on t = 0), and
    a conservative enclosure assembled from the axis scan plus the refinement."""

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


def _quotient(kind: CpObjectiveKind, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The remainder quotient on arrays: the axis scan's evaluator."""
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

    The same arithmetic as the scan's array evaluator `_quotient`, on Python
    floats: a single point costs no array set-up, which is what the
    golden-section refinement and the bracket probes call.
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


def _golden_section(f: Callable[[float], float], a: float, b: float) -> Tuple[float, float]:
    """Minimize f on [a, b] by golden-section search; returns (x, f(x)).

    Each step keeps the sub-interval around the lower of two interior
    probes, until the interval is narrower than 1e-9.
    """
    g = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-9:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def find_constant(kind: CpObjectiveKind) -> ConstantEstimate:
    """The extremum of the axis function q(s) = objective(kind, s, 0).

    The axis lemma (module docstring) puts every extremum on t = 0, so the
    search is one dimensional: a log-spaced scan of |s| on both signs, scored
    on arrays by `_quotient`, then a golden-section search on log|s| over one
    scan step either side of each sign's best scan point, evaluated with
    `objective`.

    The returned bracket is [value - slack, scan_best + span + rigor] for
    infima (mirrored for c2_sup). Any sampled quotient value bounds an infimum
    from above, so the scan end is rigorous up to `span`: the quotient probed
    half a scan step away from the reported argument on the axis. That
    allowance covers any independent sampling at this resolution or finer,
    no matter how the other sampling happens to align with the true extremum.
    `rigor`, 1e-13 relative, covers the evaluator's own rounding: at p = 2,
    where the quotient is exactly 1, `_quotient` reads 1 +- 4.9e-14 on the
    axis.
    """
    sign = -1.0 if kind.kind == "c2_sup" else 1.0
    d = _RADIUS_DECADES
    radii = np.geomspace(10.0 ** (-d), 10.0**d, 2 * d * _RADIUS_PER_DECADE + 1)
    h = math.log(10.0) / _RADIUS_PER_DECADE  # the scan step in log|s|
    # both signs of s, then exact s = -1 and s = 1, where the c3_min branches meet
    s_scan = np.concatenate([-radii, radii, [-1.0, 1.0]])
    scores = sign * _quotient(kind, s_scan, np.zeros_like(s_scan))
    scores[np.isnan(scores)] = np.inf

    def score(s: float) -> float:
        q = objective(kind, s, 0.0)
        return sign * q if math.isfinite(q) else math.inf

    best = int(np.argmin(scores))
    scan_best_score = best_score = float(scores[best])
    best_s = float(s_scan[best])
    n_r = radii.size
    for side, block in ((-1.0, scores[:n_r]), (1.0, scores[n_r : 2 * n_r])):
        x = math.log(radii[int(np.argmin(block))])
        x_r, f = _golden_section(lambda x: score(side * math.exp(x)), x - h, x + h)
        if f < best_score:
            best_score, best_s = f, side * math.exp(x_r)

    refined = True
    for lim in _limit_candidates(kind):
        if sign * lim < best_score:
            best_score = sign * lim
            refined = False

    # probe half a scan step either side of the reported argument; the worse
    # probe bounds how far any equally fine sampling can sit from the extremum
    span = 0.0
    for dx in (-0.5 * h, 0.5 * h):
        q = score(best_s * math.exp(dx))
        if math.isfinite(q):
            span = max(span, q - best_score)

    value = sign * best_score
    scan_best = sign * scan_best_score
    slack = 1e-11 * (1.0 + abs(value))
    rigor = 1e-13 * (1.0 + abs(scan_best))
    if kind.kind == "c2_sup":
        bracket = (scan_best - span - rigor, value + slack)
    else:
        bracket = (value - slack, scan_best + span + rigor)
    return ConstantEstimate(
        value=value,
        argmin_s=best_s,
        argmin_t=0.0,
        refined=refined,
        bracket=bracket,
    )
