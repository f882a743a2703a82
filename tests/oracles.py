"""Independent brute-force oracles used to freeze and check golden data.

Everything here deliberately re-derives its quantity along a different code
path from the package: dense fixed grids instead of adaptive search, plain
complex-modulus arithmetic instead of the packaged objective assembly,
composite Simpson sums instead of adaptive cubature, and point-wise
geometry and field derivatives (a Point, rho, the dilations, the
sub-elliptic gradient and the projected derivative D f) instead of the
package's (|x|, rho) batch kernels, and the catalog pairs' kappa and
weights as the hand-typed formulas of the corollaries instead of the
monomials that the package derives from v and w0.
Running this file as a script
regenerates tests/golden/constants.json.
"""

import json
import os
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from grushin_hardy.cp import cp_value_batch
from grushin_hardy.geometry import SpaceParams, radial_coords, unit_grad_gamma_rho
from grushin_hardy.weights import eval_monomials, log_features

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

ORACLE_SETTINGS = {
    "theta_samples": 4096,
    "radius_samples": 2048,
    "r_lo": 1e-6,
    "r_hi": 1e6,
}


def remainder_quotient_scan(kind, p, theta_samples=4096, radius_samples=2048, r_lo=1e-6, r_hi=1e6):
    """Dense polar scan of the remainder-constant quotient.

    The quotient at (s, t) has numerator ((1+s)^2 + t^2)^(p/2) - 1 - p s and a
    kind-specific denominator.  Returns (best, s, t): the grid minimum, or the
    grid maximum for kind "c2_sup".  The radius grid gets an extra sample at
    r = 1 so the c3 branch seam is always hit exactly.
    """
    theta = np.linspace(0.0, 2.0 * np.pi, theta_samples, endpoint=False)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    radii = np.append(np.geomspace(r_lo, r_hi, radius_samples), 1.0)
    maximize = kind == "c2_sup"
    best = -np.inf if maximize else np.inf
    best_st = (np.nan, np.nan)
    for r in radii:
        s = r * cos_t
        t = r * sin_t
        mod_u = np.sqrt((1.0 + s) ** 2 + t**2)
        num = mod_u**p - 1.0 - p * s
        if kind == "cp_pge2":
            den = r**p
        elif kind in ("c1_inf", "c2_sup"):
            den = (mod_u + 1.0) ** (p - 2.0) * r * r
        elif kind == "c3_min":
            den = r**p if r >= 1.0 else r * r
        else:
            raise ValueError(f"unknown kind {kind!r}")
        q = num / den
        i = int(np.argmax(q)) if maximize else int(np.argmin(q))
        if (maximize and q[i] > best) or (not maximize and q[i] < best):
            best = float(q[i])
            best_st = (float(s[i]), float(t[i]))
    return best, best_st[0], best_st[1]


# Closed-form critical-point values, derived by hand from the axis section
# t = 0 of each quotient; they confirm the scan from a third route.
ANALYTIC_ANCHORS = {
    ("cp_pge2", 3.0): ("2 - sqrt(2)", 2.0 - np.sqrt(2.0)),
    ("cp_pge2", 4.0): ("1/3", 1.0 / 3.0),
    ("c3_min", 1.5): ("2*sqrt(2) - 5/2", 2.0 * np.sqrt(2.0) - 2.5),
}

GOLDEN_CONSTANT_CASES = [
    ("cp_pge2", 3.0),
    ("cp_pge2", 4.0),
    ("c1_inf", 1.5),
    ("c2_sup", 1.5),
    ("c3_min", 1.5),
]


def build_constants_golden():
    entries = []
    for kind, p in GOLDEN_CONSTANT_CASES:
        value, s, t = remainder_quotient_scan(kind, p, **{
            "theta_samples": ORACLE_SETTINGS["theta_samples"],
            "radius_samples": ORACLE_SETTINGS["radius_samples"],
            "r_lo": ORACLE_SETTINGS["r_lo"],
            "r_hi": ORACLE_SETTINGS["r_hi"],
        })
        entry = {"kind": kind, "p": p, "value": value, "arg_s": s, "arg_t": t}
        anchor = ANALYTIC_ANCHORS.get((kind, p))
        if anchor is not None:
            entry["anchor"] = anchor[0]
            entry["anchor_value"] = anchor[1]
        entries.append(entry)
    return {"settings": ORACLE_SETTINGS, "entries": entries}


def series_numerator(p, s, r2):
    """The remainder numerator N = (1 + g)^(p/2) - 1 - p s, g = 2 s + r2, in
    the loop form that the package once used: where |g| <= 0.1 the bracket
    (1+g)^(p/2) - 1 - (p/2) g is a binomial series summed term by term, at
    most 39 terms and stopped once every new term is below 1e-17 of its
    total. At p <= 50 the stop test is met within those terms, so this is
    the float reference that the package's series must match bit for bit."""
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


def simpson_grid_integral(f, lo, hi, n_per_axis):
    """Composite Simpson cubature of f over the box [lo, hi] in d dimensions.

    f maps an (N, d) array to an (N,) array; n_per_axis must be even.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = lo.size
    if n_per_axis % 2 != 0:
        raise ValueError("n_per_axis must be even")
    axes = []
    weights = []
    for a in range(d):
        pts = np.linspace(lo[a], hi[a], n_per_axis + 1)
        w = np.ones(n_per_axis + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= (hi[a] - lo[a]) / n_per_axis / 3.0
        axes.append(pts)
        weights.append(w)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    wmesh = weights[0]
    for a in range(1, d):
        wmesh = np.multiply.outer(wmesh, weights[a])
    vals = f(pts)
    return float(np.sum(wmesh.ravel() * np.asarray(vals)))


def cp_value(xi, eta, p):
    """C_p(xi, eta) for a single pair of complex scalars or vectors."""
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    eta = np.atleast_1d(np.asarray(eta, dtype=complex))
    if xi.shape != eta.shape:
        raise ValueError("xi and eta must have the same length")
    return float(cp_value_batch(xi[None, :], eta[None, :], p)[0])


# -- point-wise geometry and field derivatives ----------------------------------


class SingularPointError(ValueError):
    """Evaluation of a point-wise oracle where it is undefined."""


@dataclass(frozen=True, eq=False)
class Point:
    """A point z = (x, y) with x in R^m, y in R^k."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))


def _check_point(space: SpaceParams, z: Point) -> None:
    if z.x.shape != (space.m,) or z.y.shape != (space.k,):
        raise ValueError(
            f"point blocks have lengths ({z.x.shape[0]}, {z.y.shape[0]}); "
            f"space expects ({space.m}, {space.k})"
        )


def rho(space: SpaceParams, z: Point) -> float:
    """Anisotropic distance (|x|^(2(1+gamma)) + (1+gamma)^2 |y|^2)^(1/(2(1+gamma)))."""
    _check_point(space, z)
    a = 1.0 + space.gamma
    r2 = float(z.x @ z.x)
    y2 = float(z.y @ z.y)
    return float((r2**a + a * a * y2) ** (1.0 / (2.0 * a)))


def dilate(space: SpaceParams, z: Point, lam: float) -> Point:
    """Anisotropic dilation (x, y) -> (lam x, lam^(1+gamma) y)."""
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    _check_point(space, z)
    return Point(lam * z.x, lam ** (1.0 + space.gamma) * z.y)


@dataclass(frozen=True)
class FieldValue:
    value: complex
    euclid_grad: np.ndarray

    def __post_init__(self) -> None:
        grad = np.atleast_1d(np.asarray(self.euclid_grad, dtype=complex))
        object.__setattr__(self, "euclid_grad", grad)
        object.__setattr__(self, "value", complex(self.value))


def field_eval(field, z: Point) -> FieldValue:
    """A field's value and Euclidean gradient at one point."""
    if z.x.shape != (field.space.m,) or z.y.shape != (field.space.k,):
        raise ValueError("point does not match the field's space")
    vals, grads = field.eval_batch(np.concatenate([z.x, z.y])[None, :])
    return FieldValue(value=vals[0], euclid_grad=grads[0])


def grad_gamma(space: SpaceParams, fv: FieldValue, z: Point) -> np.ndarray:
    """Sub-elliptic gradient (d_x f, |x|^gamma d_y f) from Euclidean partials."""
    if fv.euclid_grad.shape != (space.n,):
        raise ValueError(f"euclid_grad must have length {space.n}")
    out = fv.euclid_grad.copy()
    r = float(np.linalg.norm(z.x))
    out[space.m :] *= r**space.gamma
    return out


def radial_derivative(space: SpaceParams, field, z: Point) -> complex:
    """Projected derivative D f = (grad_gamma rho . grad_gamma f)/|grad_gamma rho|.

    Raises SingularPointError where the direction is undefined ({x=0} for
    gamma > 0, and the origin).
    """
    r, rho_z = radial_coords(space, z.x, z.y)
    if rho_z == 0.0 or (space.gamma > 0 and r == 0.0):
        raise SingularPointError("D f is undefined at the origin and, for gamma > 0, on {x=0}")
    unit = unit_grad_gamma_rho(space, np.concatenate([z.x, z.y])[None, :])[0]
    gg = grad_gamma(space, field_eval(field, z), z)
    return complex(np.dot(unit, gg))


# -- hand-typed weights of the catalog pairs ------------------------------------


def _log_dist(R, rho):
    return np.log1p((R - rho) / rho)


# pair id -> kappa(k), the sharp constant being kappa^p; k holds the pair's
# parameters with g = gamma, p and Q
HAND_KAPPA = {
    "nch_ball": lambda k: (k.p - 1.0) / k.p,
    "dambrosio_power": lambda k: (k.Q + k.beta - k.alpha) / k.p,
    "darca_power": lambda k: (k.Q - k.p * k.theta) / k.p,
    "log_ball": lambda k: abs(k.alpha + 1.0) / k.p,
}

_R_POSITIVE = (lambda k: k.R > 0, "requires R > 0")

# pair id -> the hand-typed validity rules, (holds(k), message) checked in
# order; k holds the pair's parameters with g = gamma, p and Q. make_pair
# derives the same refusal: R > 0, then kappa > 0 from the expansion
HAND_RULES = {
    "nch_ball": (_R_POSITIVE,),
    "dambrosio_power": ((lambda k: k.Q > k.alpha - k.beta, "requires Q > alpha - beta"),),
    "darca_power": (_R_POSITIVE, (lambda k: k.Q > k.p * k.theta, "requires Q > p*theta")),
    "log_ball": (_R_POSITIVE, (lambda k: k.alpha + 1 < 0, "requires alpha + 1 < 0")),
}

# pair id -> (v, w, phi, x_exponents): v, w and phi as f(|x|, rho, k), phi
# None when it is identically 0, and the |x| exponents of v and w, a negative
# one being singular on {x=0}; k is hand_scalars' namespace
HAND_WEIGHTS = {
    "nch_ball": (
        lambda r, rho, k: np.ones_like(rho),
        lambda r, rho, k: k.kappa**k.p * (r / rho) ** (k.g * k.p) / (k.R - rho) ** k.p,
        lambda r, rho, k: k.kappa ** (k.p - 1.0) * (k.Q - 1.0)
        * (r / rho) ** (k.g * k.p) / ((k.R - rho) ** (k.p - 1.0) * rho),
        lambda k: (k.g * k.p,),
    ),
    "dambrosio_power": (
        lambda r, rho, k: r ** (k.beta - k.g * k.p) * rho ** (k.p * (1.0 + k.g) - k.alpha),
        lambda r, rho, k: k.kappa**k.p * r**k.beta * rho ** (-k.alpha),
        None,
        lambda k: (k.beta - k.g * k.p, k.beta),
    ),
    "darca_power": (
        lambda r, rho, k: (r / rho) ** (k.g * k.alpha) * rho ** (k.p * (1.0 - k.theta)),
        lambda r, rho, k: k.kappa**k.p * (r / rho) ** (k.g * (k.alpha + k.p))
        * rho ** (-k.p * k.theta),
        None,
        lambda k: (k.g * k.alpha, k.g * (k.alpha + k.p)),
    ),
    "log_ball": (
        lambda r, rho, k: _log_dist(k.R, rho) ** (k.alpha + k.p),
        lambda r, rho, k: k.kappa**k.p * _log_dist(k.R, rho) ** k.alpha
        * (r / rho) ** (k.g * k.p) * rho ** (-k.p),
        lambda r, rho, k: k.kappa ** (k.p - 1.0) * (k.Q - k.p)
        * _log_dist(k.R, rho) ** (k.alpha + 1.0) * (r / rho) ** (k.g * k.p) * rho ** (-k.p),
        lambda k: (k.g * k.p,),
    ),
}


def _nch_profile(rho, kap, k):
    u = k.R - rho
    return u**kap, -kap * u ** (kap - 1.0), 1.0 / u


def _log_profile(rho, kap, k):
    L = _log_dist(k.R, rho)
    return L**kap, -kap * L ** (kap - 1.0) / rho, 1.0 / (L * rho)


# the power pairs' profile is rho^kap, with tau = log(rho/0.5)
_POWER_EXTREMAL = dict(
    tau_of_rho=lambda rho, k: np.log(rho / 0.5),
    rho_of_tau=lambda tau, k: 0.5 * np.exp(tau),
    probe_weight=lambda tau, k: np.ones_like(tau),
    profile=lambda rho, kap, k: (rho**kap, kap * rho ** (kap - 1.0), 1.0 / rho),
    inner=lambda k: 0.5,
    tau_sign=1.0,
)

# pair id -> the hand-typed extremal: the profile b(rho)^kap in the coordinate
# tau = tau_sign log b + const, with probe_weight the mass density of the 1-d
# Rayleigh reduction in tau, profile(rho, kap, k) -> (b^kap, its rho-derivative,
# d tau/d rho) and inner(k) the rho at tau = 0; k is hand_scalars' namespace
HAND_EXTREMAL = {
    "nch_ball": dict(
        # profile (R - rho)^kap, tau anchored at R - rho = 0.6 R
        tau_of_rho=lambda rho, k: np.log(0.6 * k.R / (k.R - rho)),
        rho_of_tau=lambda tau, k: k.R - 0.6 * k.R * np.exp(-tau),
        probe_weight=lambda tau, k: (k.R - 0.6 * k.R * np.exp(-tau)) ** (k.Q - 1.0),
        profile=_nch_profile,
        inner=lambda k: 0.4 * k.R,
        tau_sign=-1.0,
    ),
    "dambrosio_power": _POWER_EXTREMAL,
    "darca_power": _POWER_EXTREMAL,
    "log_ball": dict(
        # profile log(R/rho)^kap, tau = -log log(R/rho)
        tau_of_rho=lambda rho, k: -np.log(_log_dist(k.R, rho)),
        rho_of_tau=lambda tau, k: k.R * np.exp(-np.exp(-tau)),
        probe_weight=lambda tau, k: np.exp(-(k.Q - k.p) * np.exp(-tau)),
        profile=_log_profile,
        inner=lambda k: k.R * float(np.exp(-1.0)),
        tau_sign=-1.0,
    ),
}


def hand_scalars(pair):
    """The k of the hand formulas: the pair's parameters with g = gamma, p, Q
    and the hand-typed kappa."""
    k = SimpleNamespace(g=pair.space.gamma, p=pair.p, Q=pair.space.Q, **pair.params)
    k.kappa = HAND_KAPPA[pair.id](k)
    return k


def hand_weight(pair, name, r, rho):
    """v, w, phi or h = v^(1/p) w^((p-1)/p) of a built pair from the
    hand-typed formulas, on arrays of |x| and rho, nan beyond a ball's R."""
    k, p = hand_scalars(pair), pair.p
    v, w, phi, _ = HAND_WEIGHTS[pair.id]
    with np.errstate(divide="ignore", invalid="ignore"):
        if name == "h":
            out = v(r, rho, k) ** (1.0 / p) * w(r, rho, k) ** ((p - 1.0) / p)
        else:
            formula = {"v": v, "w": w, "phi": phi}[name]
            out = np.zeros_like(rho) if formula is None else formula(r, rho, k)
    return out if pair.radius is None else np.where(rho > pair.radius, np.nan, out)


def hand_hpw_weights(case, r, rho, gamma, p, R):
    """The gradient and weight factors of an uncertainty display, as the
    hand-typed rows wrote them: a = p' and (rho/|x|)^(gamma a)."""
    a = p / (p - 1.0)
    ratio = (rho / r) ** (gamma * a)
    if case == "ball_nch":
        return np.ones_like(rho), (R - rho) ** a * ratio
    if case == "whole_dambrosio":
        return np.ones_like(rho), rho**a * ratio
    log_dist = np.log(R / rho)
    return log_dist ** (2.0 * p), rho**a * ratio * log_dist ** (-a)


# case -> (p, Q) -> the constant of an uncertainty display, as printed, with
# whole_dambrosio's (Q-p)/p taken in absolute value where Q < p
HAND_HPW_CONSTANT = {
    "ball_nch": lambda p, Q: (p - 1.0) / p,
    "whole_dambrosio": lambda p, Q: abs(Q - p) / p,
    "log_ball": lambda p, Q: (p + 1.0) / p,
}


def hand_x_singular(pair):
    """The singular-set rule of the hand-typed catalog: gamma > 0, or a
    negative |x| exponent of v or w."""
    return pair.space.gamma > 0 or any(e < 0 for e in HAND_WEIGHTS[pair.id][3](hand_scalars(pair)))


def product_rows(pair, field, r, rho, names):
    """The monomial terms of one (pair, field) case on flat (|x|, rho),
    before the Jacobian, as chains of products: v, w, phi and h from
    eval_monomials, f and Df from eval_radial, and C_p = v|Df|^p +
    (p-1) w|f|^p + p h G with G = |f|^p Re(Df/f), 0 where f is."""
    p = pair.p
    v, w, phi, h = eval_monomials(pair.monomials, log_features(r, rho, pair.radius))
    f, f_r, f_rho = field.eval_radial(r, rho)
    df = (r / rho) ** pair.space.gamma * (r * f_r + rho * f_rho) / rho
    f_p, df_p = np.abs(f) ** p, np.abs(df) ** p
    g = f_p * (df / np.where(f != 0.0, f, 1.0)).real
    rows = {"lhs": v * df_p, "w": w * f_p, "phi": phi * f_p, "mass": np.abs(f) ** 2}
    rows["cp"] = rows["lhs"] + (p - 1.0) * rows["w"] + p * h * g
    for name in names:
        if not isinstance(name, str):  # ("w^e|f|^q", e, q)
            rows[name] = w ** name[1] * np.abs(f) ** name[2]
    return {name: rows[name] for name in names}


def main():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    data = build_constants_golden()
    out = os.path.join(GOLDEN_DIR, "constants.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
    for e in data["entries"]:
        anchor = f"  anchor={e.get('anchor_value'):.12f} ({e.get('anchor')})" if "anchor" in e else ""
        print(f"{e['kind']:8s} p={e['p']:<5} value={e['value']:.12f} at (s,t)=({e['arg_s']:.6f},{e['arg_t']:.6f}){anchor}")
    print(f"wrote {out}")


if __name__ == "__main__":
    raise SystemExit(main())
