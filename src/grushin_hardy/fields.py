"""Compactly supported smooth complex test fields with exact first derivatives.

Every field is radial in rho up to an |x| cutoff and an optional complex
phase exp(i kappa rho), so it is a function of (|x|, rho): f = exp(i kappa
rho) m with m = |f|. m and its partials in |x| and rho (eval_modulus) are
per modulus, shared by fields that differ only in their phase, and kappa
is all that is per field; the integrands build Df, |Df|, Re(Df/f) and
|grad f| from these in real arithmetic. twist and eval_radial give the
complex f and its partials, and eval_batch lifts them to Euclidean
gradients on (N, m+k) batches: they are the oracles that the tests check
the integrands against. The transitions are C^2 quintic smoothsteps; only
first derivatives enter any identity, so C^2 regularity is enough.

Extremal fields multiply a profile b^kap by a plateau window in tau =
s log(b/anchor), where the profile is exp(-kappa_eff tau) times a constant.
Equality in the pointwise step needs f_rho = -kappa tau' f, with tau' the
factor 1/rho, 1/(R-rho) or 1/(rho log(R/rho)) of the term j of weights._expand
that kappa cancels: |d log b/d rho| of b = rho, R-rho or log(R/rho). So b,
tau and the mass density of the exact 1-d Rayleigh reduction (see
verifier.sharpness_probe) derive from j, and widening is interval growth.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from grushin_hardy.geometry import SpaceParams, radial_coords
from grushin_hardy.weights import WEIGHTS, WeightPair, eval_monomials, log_features

__all__ = [
    "FAMILIES",
    "TestFieldSpec",
    "TestField",
    "ExtremalField",
    "smoothstep5",
    "smoothstep5_prime",
    "build_test_field",
    "build_extremal_field",
    "radial_derivative_batch",
]

FAMILIES = ("bump_radial", "bump_radial_x_cutoff", "phase_twisted", "extremal_truncated")

# band integrals of the quintic window, used by the truncation schedule:
# J1 = int S5'(u)^2 du, J0 = int S5(u)^2 du over one band
_J1 = 10.0 / 7.0
_J0 = 0.39177489177489176

# weights._expand's term j -> the extremal's base b as (b(rho, R), rho(b, R),
# d log b/d rho at (rho, b), the anchor b at tau = 0 as a function of R, and
# the sign s in tau = s log(b/anchor)); log(R/rho) via log1p, as in weights
_BASES = (
    (lambda rho, R: rho, lambda b, R: b, lambda rho, b: 1.0 / b, lambda R: 0.5, 1.0),
    (lambda rho, R: R - rho, lambda b, R: R - b, lambda rho, b: -1.0 / b, lambda R: 0.6 * R, -1.0),
    (lambda rho, R: np.log1p((R - rho) / rho), lambda b, R: R * np.exp(-b),
     lambda rho, b: -1.0 / (rho * b), lambda R: 1.0, -1.0),
)


def smoothstep5(u: np.ndarray) -> np.ndarray:
    """C^2 quintic ramp: 0 below 0, 1 above 1, 6u^5 - 15u^4 + 10u^3 between."""
    c = np.clip(u, 0.0, 1.0)
    return c * c * c * (10.0 + c * (6.0 * c - 15.0))


def smoothstep5_prime(u: np.ndarray) -> np.ndarray:
    """30u^2 (1-u)^2 on (0, 1), which is exactly 0 at the clipped ends."""
    c = np.clip(u, 0.0, 1.0)
    return 30.0 * c * c * (1.0 - c) ** 2


def _log_step_ratio(s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """log g(u) for g = (1+u) smoothstep5'(u) / (30 smoothstep5(u)) at u =
    1/(1+exp(-s)), and its derivative in s. g falls strictly from inf to 0
    on (0, 1); log g = log(1+u) + 2 log(1-u) - log u - log(6u^2 - 15u + 10),
    in s so that u and 1-u keep their relative precision at both ends."""
    log_u, log_w = -np.logaddexp(0.0, -s), -np.logaddexp(0.0, s)
    u, w = np.exp(log_u), np.exp(log_w)
    q = 10.0 + u * (6.0 * u - 15.0)
    value = np.log1p(u) + 2.0 * log_w - log_u - np.log(q)
    return value, u * w / (1.0 + u) - 2.0 * u - w - (12.0 * u - 15.0) * u * w / q


def _window(t: np.ndarray, lo: float, hi: float, band: float) -> Tuple[np.ndarray, np.ndarray]:
    """Plateau window rising on [lo, lo+band], falling on [hi-band, hi]."""
    up = smoothstep5((t - lo) / band)
    dn = smoothstep5((hi - t) / band)
    d_up = smoothstep5_prime((t - lo) / band) / band
    d_dn = -smoothstep5_prime((hi - t) / band) / band
    return up * dn, d_up * dn + up * d_dn


@dataclass(frozen=True)
class TestFieldSpec:
    __test__ = False

    family: str
    inner_rho: float = 0.5
    outer_rho: float = 2.0
    x_floor: float = 0.0
    smoothness_margin: float = 0.25
    phase_kappa: float = 0.0
    extremal_exponent: float = 0.0
    R: float = float("inf")

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not 0.0 < self.inner_rho < self.outer_rho:
            raise ValueError("requires 0 < inner_rho < outer_rho")
        if not self.outer_rho < self.R:
            raise ValueError("requires outer_rho < R on a ball domain")
        if not 0.0 < self.smoothness_margin < 0.5:
            raise ValueError("requires smoothness_margin in (0, 0.5)")
        if not 0.0 <= self.x_floor < self.outer_rho:
            raise ValueError("requires 0 <= x_floor < outer_rho")
        if self.family == "bump_radial" and self.x_floor != 0.0:
            raise ValueError("bump_radial has no |x| cutoff; use bump_radial_x_cutoff")
        if self.family == "bump_radial_x_cutoff" and self.x_floor <= 0.0:
            raise ValueError("bump_radial_x_cutoff requires x_floor > 0")
        if not abs(self.phase_kappa) < np.inf:
            raise ValueError("requires a finite phase_kappa")
        if not abs(self.extremal_exponent) < np.inf:
            raise ValueError("requires a finite extremal_exponent")
        if self.phase_kappa != 0.0 and self.family != "phase_twisted":
            raise ValueError("phase_kappa only applies to the phase_twisted family")


class TestField:
    """Evaluable field; immutable after construction, evaluation is pure."""

    __test__ = False

    def __init__(self, space: SpaceParams, spec: TestFieldSpec):
        self.space = space
        self.spec = spec
        self.rho_band = spec.smoothness_margin * (spec.outer_rho - spec.inner_rho)  # the window's band in rho

    def _amplitude(self, rho: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Radial amplitude A(rho) and dA/drho on in-support points."""
        return _window(rho, self.spec.inner_rho, self.spec.outer_rho, self.rho_band)

    def rho_breaks(self) -> Tuple[float, ...]:
        """The rho values where the radial window kinks: its ends and band edges."""
        spec, band = self.spec, self.rho_band
        return (spec.inner_rho, spec.inner_rho + band, spec.outer_rho - band, spec.outer_rho)

    def df_zero_x(self, rho: np.ndarray) -> np.ndarray:
        """The |x| where D|f| = 0, per rho strictly inside the window's falling
        band, on a field with x_floor > 0.

        There D|f| is proportional to r A C'(r) + rho A'(rho) C(r), where A is
        the window and C(r) = S(u) the cutoff, u = r/x_floor - 1, so the curve
        solves (1+u) S'(u)/S(u) = -rho A'/A = (rho/band) S'(v)/S(v), with v =
        (outer_rho - rho)/band. The left side falls strictly from inf to 0 on
        (0, 1), so the root is unique; it runs from |x| = 2 x_floor at the
        band's start to x_floor at outer_rho. Newton steps on the log of both
        sides, in s = log(u/(1-u)) from u = v, reach it to rounding in five.
        """
        spec, band = self.spec, self.rho_band
        v = (spec.outer_rho - rho) / band
        s = np.log(v) - np.log1p(-v)
        for step in range(5):
            value, slope = _log_step_ratio(s)
            if step == 0:
                target = np.log(rho / band) - np.log1p(v) + value
            s = s - (value - target) / slope
        return spec.x_floor * (1.0 + np.exp(-np.logaddexp(0.0, -s)))

    @property
    def modulus(self) -> tuple:
        """Fields with one modulus have one |f| and one eval_modulus: they
        differ only in their phase, whose rate spec.phase_kappa is per field."""
        spec = self.spec
        return type(self), spec.inner_rho, spec.outer_rho, spec.x_floor, spec.smoothness_margin

    def eval_modulus(self, r: np.ndarray, rho: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """|f| and its partials in |x| and rho, the field without its phase, on
        arrays of |x| and rho that broadcast, such as (M, K) and (M, 1): the
        window on rho's shape, the |x| cutoff on r's; 0 outside the support."""
        spec = self.spec
        inside = (rho >= spec.inner_rho) & (rho <= spec.outer_rho)
        amp, d_amp = np.zeros(rho.shape), np.zeros(rho.shape)
        amp[inside], d_amp[inside] = self._amplitude(rho[inside])
        if spec.x_floor > 0.0:
            u = r / spec.x_floor - 1.0
            cut = smoothstep5(u)
            return amp * cut, amp / spec.x_floor * smoothstep5_prime(u), d_amp * cut
        return amp, np.zeros_like(amp), d_amp

    def twist(self, rho: np.ndarray, f: np.ndarray, f_r: np.ndarray, f_rho: np.ndarray) -> Tuple[np.ndarray, ...]:
        """eval_modulus's f, f_r and f_rho with the per-field phase
        exp(i kappa rho), evaluated on rho's shape; a field without a phase
        keeps them. Only the eval_radial and eval_batch oracles call it: the
        integrands read the modulus and kappa, in real arithmetic."""
        kappa = self.spec.phase_kappa
        if kappa == 0.0:
            return f, f_r, f_rho
        phase = np.exp(1j * kappa * rho)
        return f * phase, f_r * phase, (f_rho + 1j * kappa * f) * phase

    def eval_radial(self, r: np.ndarray, rho: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """f and its partials f_r = df/d|x| and f_rho = df/drho: eval_modulus, then twist."""
        return self.twist(rho, *self.eval_modulus(r, rho))

    def eval_batch(self, pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Values (N,) and Euclidean gradients (N, m+k), both complex, of an
        (N, m+k) batch: eval_radial with grad f = f_r x/|x| + f_rho grad rho."""
        space = self.space
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != space.n:
            raise ValueError(f"points must have shape (N, {space.n})")
        x, y = pts[:, : space.m], pts[:, space.m :]
        r, rho = radial_coords(space, x, y)
        f, f_r, f_rho = self.eval_radial(r, rho)
        g = space.gamma
        # f_r vanishes at |x| = 0 and f_rho at rho = 0, so 1 stands in there
        d_rho = f_rho / np.where(rho > 0.0, rho, 1.0) ** (2.0 * g + 1.0)
        grad_x = (f_r / np.where(r > 0.0, r, 1.0) + d_rho * r ** (2.0 * g))[:, None] * x
        grad_y = ((1.0 + g) * d_rho)[:, None] * y
        return f.astype(complex), np.hstack([grad_x, grad_y]).astype(complex)


class ExtremalField(TestField):
    """Corollary extremal profile times a plateau window in tau.

    kappa_eff is the decay rate of the profile in tau; by default the
    profile decays toward the pair's singular boundary (the one that
    concentrates the Rayleigh quotient), and build_extremal_field's
    ascending=True flips the exponent to the sign printed in the corollary
    statements. The base b, the coordinate tau and the mass density omega
    are derived from _expand's term j, the pair's kappa_term (see _BASES).
    """

    def __init__(
        self,
        space: SpaceParams,
        spec: TestFieldSpec,
        pair: WeightPair,
        band: float,
        plateau: float,
    ):
        super().__init__(space, spec)
        self.pair = pair
        self.kappa_eff = pair.kappa
        self.band = band
        self.plateau = plateau
        self.tau_hi = plateau + 2.0 * band
        self._b, _, self._d_log, self._anchor, self._sign = _BASES[pair.kappa_term]
        # rho^(Q-1) h0 less its coefficient, its |x| factor and the power of b
        # that exp(-kappa p tau) cancels, set to exactly 0
        self._omega = pair.monomials[[WEIGHTS.index("h")]].copy()
        self._omega[0, :3] = 1.0, 0.0, self._omega[0, 2] + pair.space.Q - 1.0
        self._omega[0, 2 + pair.kappa_term] = 0.0

    def tau_of_rho(self, rho: np.ndarray) -> np.ndarray:
        b = self._b(np.asarray(rho, dtype=float), self.pair.radius)
        with np.errstate(divide="ignore"):
            return self._sign * np.log(b / self._anchor(self.pair.radius))

    modulus = property(id)  # the profile depends on the pair too: no other field shares it

    def rho_of_tau(self, tau: np.ndarray) -> np.ndarray:
        return _rho_of_tau(self.pair, np.asarray(tau, dtype=float))

    def rho_breaks(self) -> Tuple[float, ...]:
        """The rho values of the tau window's ends and band edges."""
        taus = np.array([0.0, self.band, self.tau_hi - self.band, self.tau_hi])
        rhos = np.clip(self.rho_of_tau(taus), self.spec.inner_rho, self.spec.outer_rho)
        return tuple(rhos.tolist())

    def df_zero_x(self, rho: np.ndarray) -> np.ndarray:
        raise NotImplementedError("the extremal's profile puts no D|f| = 0 curve across a band corner to corner")

    def window(self, tau: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Plateau window S(tau) and S'(tau)."""
        return _window(tau, 0.0, self.tau_hi, self.band)

    def probe_weight(self, tau: np.ndarray) -> np.ndarray:
        """Mass density omega(tau) of the exact 1-d Rayleigh reduction: rho^(Q-1)
        h0 exp(-kappa p tau), less h0's |x| factor, which the angles integrate out.

        Constant factors are dropped; they cancel in the quotient.
        """
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rho = self.rho_of_tau(tau)
            return eval_monomials(self._omega, log_features(rho, rho, self.pair.radius))[0]

    def _amplitude(self, rho: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        kap, b = self.spec.extremal_exponent, self._b(rho, self.pair.radius)
        S, dS = self.window(self._sign * np.log(b / self._anchor(self.pair.radius)))
        prof = b**kap  # with d tau/d rho = s d log b/d rho in f_rho below
        return prof * S, prof * self._d_log(rho, b) * (kap * S + self._sign * dS)


def _rho_of_tau(pair: WeightPair, tau: np.ndarray) -> np.ndarray:
    _, rho_of_b, _, anchor, sign = _BASES[pair.kappa_term]
    return rho_of_b(anchor(pair.radius) * np.exp(sign * tau), pair.radius)


def build_test_field(space: SpaceParams, spec: TestFieldSpec) -> TestField:
    """Field for the bump families; extremal fields come from build_extremal_field."""
    if spec.family == "extremal_truncated":
        raise ValueError("extremal fields are constructed by build_extremal_field")
    return TestField(space, spec)


def build_extremal_field(
    pair: WeightPair, truncation_level: int = 0, ascending: bool = False
) -> ExtremalField:
    """Truncated extremal for a weight pair.

    The truncation schedule keeps the transition band width fixed in tau and
    doubles the plateau per level; the level-2 width is solved from the p=2
    band-energy model so its Rayleigh gap lands near 3 percent.
    """
    if not truncation_level >= 0 or truncation_level % 1 != 0:
        raise ValueError("truncation_level must be a nonnegative integer")
    kappa = pair.kappa

    band = min(max(2.5 / max(kappa, 0.4), 1.5), 6.0)
    lam2 = max(2.0 * _J1 / (band * 0.03 * kappa**2) - 2.0 * _J0 * band, 8.0)
    # 2.0 ** n overflows from n = 1024; lam2 >= 8, so lam2 2^1023 is inf and refused below
    plateau = lam2 * 2.0 ** (min(truncation_level, 1025) - 2)
    tau_hi = plateau + 2.0 * band
    if not tau_hi - band < tau_hi:  # the plateau doubles per level; the band does not
        raise ValueError(f"truncation_level {truncation_level}: tau_hi = {tau_hi:g} cannot resolve band {band:g}")

    sign = 1.0 if ascending else -1.0
    R = pair.params.get("R", float("inf"))
    with np.errstate(over="ignore"):  # rho(tau) may reach inf: R or the largest float clips it
        outer = float(min(_rho_of_tau(pair, tau_hi), np.nextafter(R, 0.0)))

    field_spec = TestFieldSpec(
        family="extremal_truncated",
        inner_rho=float(_rho_of_tau(pair, 0.0)),
        outer_rho=outer,
        smoothness_margin=band / tau_hi,
        extremal_exponent=_BASES[pair.kappa_term][4] * sign * kappa,
        R=R,
    )
    return ExtremalField(pair.space, field_spec, pair, band, plateau)


def radial_derivative_batch(space: SpaceParams, pts: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Batch D f of Euclidean gradients on an (N, m+k) batch, via the
    cancellation-free form (r/rho)^g (x.df_x + (1+g) y.df_y)/rho.

    This is the continuous extension of the projected derivative: it returns
    0 on {x=0} for gamma > 0 and at points where the gradient vanishes,
    rather than raising, because integrands extend by continuity there.
    """
    pts = np.asarray(pts, dtype=float)
    x, y = pts[:, : space.m], pts[:, space.m :]
    r, rho = radial_coords(space, x, y)
    dot = np.einsum("ni,ni->n", x, grads[:, : space.m]) + (1.0 + space.gamma) * np.einsum(
        "ni,ni->n", y, grads[:, space.m :]
    )
    out = np.zeros_like(dot)
    ok = rho > 0.0
    out[ok] = (r[ok] / rho[ok]) ** space.gamma * dot[ok] / rho[ok]
    return out
