"""Compactly supported smooth complex test fields with exact first derivatives.

Every field is radial in rho up to an |x| cutoff and an optional complex
phase exp(i kappa rho). Values and Euclidean partials come from the chain
rule on rho and |x|, with C^2 quintic smoothstep transitions; only first
derivatives enter any identity, so C^2 regularity is enough.

Extremal fields multiply the corollary power profiles by a plateau window
in the coordinate tau in which the profile is exp(-kappa_eff tau): tau =
log rho for power pairs, log(u_a/(R-rho)) for the boundary pair, and
log(1/log(R/rho)) for the logarithmic pair. In that coordinate the Rayleigh
quotient of the pair reduces exactly to one dimension (see
verifier.sharpness_probe) and plateau widening is plain interval growth.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from grushin_hardy.geometry import (
    Point,
    SingularPointError,
    SpaceParams,
    radial_coords,
    unit_grad_gamma_rho,
)
from grushin_hardy.weights import Coords, WeightPair

__all__ = [
    "FAMILIES",
    "TestFieldSpec",
    "FieldValue",
    "TestField",
    "ExtremalField",
    "smoothstep5",
    "smoothstep5_prime",
    "build_test_field",
    "build_extremal_field",
    "grad_gamma",
    "radial_derivative",
    "radial_derivative_batch",
]

FAMILIES = ("bump_radial", "bump_radial_x_cutoff", "phase_twisted", "extremal_truncated")

# band integrals of the quintic window, used by the truncation schedule:
# J1 = int S5'(u)^2 du, J0 = int S5(u)^2 du over one band
_J1 = 10.0 / 7.0
_J0 = 0.39177489177489176


def smoothstep5(u: np.ndarray) -> np.ndarray:
    """C^2 quintic ramp: 0 below 0, 1 above 1, 6u^5 - 15u^4 + 10u^3 between."""
    c = np.clip(u, 0.0, 1.0)
    return c * c * c * (10.0 + c * (6.0 * c - 15.0))


def smoothstep5_prime(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u < 1.0)
    d = np.where(inside, 30.0 * u * u * (1.0 - u) ** 2, 0.0)
    return d


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
        if self.phase_kappa != 0.0 and self.family != "phase_twisted":
            raise ValueError("phase_kappa only applies to the phase_twisted family")


@dataclass(frozen=True)
class FieldValue:
    value: complex
    euclid_grad: np.ndarray

    def __post_init__(self) -> None:
        grad = np.atleast_1d(np.asarray(self.euclid_grad, dtype=complex))
        object.__setattr__(self, "euclid_grad", grad)
        object.__setattr__(self, "value", complex(self.value))


class TestField:
    """Evaluable field; immutable after construction, evaluation is pure."""

    __test__ = False

    def __init__(self, space: SpaceParams, spec: TestFieldSpec):
        self.space = space
        self.spec = spec

    def _amplitude(self, rho: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Radial amplitude A(rho) and dA/drho on in-support points."""
        spec = self.spec
        band = spec.smoothness_margin * (spec.outer_rho - spec.inner_rho)
        return _window(rho, spec.inner_rho, spec.outer_rho, band)

    def rho_breaks(self) -> Tuple[float, ...]:
        """The rho values where the radial window kinks: its ends and band edges."""
        spec = self.spec
        band = spec.smoothness_margin * (spec.outer_rho - spec.inner_rho)
        return (spec.inner_rho, spec.inner_rho + band, spec.outer_rho - band, spec.outer_rho)

    def eval_batch(
        self, pts: np.ndarray, coords: Optional[Coords] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Values (N,) and Euclidean gradients (N, m+k), both complex.

        coords are the points' precomputed (|x|, rho), if the caller has them.
        """
        space, spec = self.space, self.spec
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != space.n:
            raise ValueError(f"points must have shape (N, {space.n})")
        x, y = pts[:, : space.m], pts[:, space.m :]
        r, rho = radial_coords(space, x, y) if coords is None else coords

        vals = np.zeros(pts.shape[0], dtype=complex)
        grads = np.zeros_like(pts, dtype=complex)
        mask = (rho >= spec.inner_rho) & (rho <= spec.outer_rho)
        if spec.x_floor > 0.0:
            mask &= r > spec.x_floor
        if not np.any(mask):
            return vals, grads

        xs, ys, rs, rhos = x[mask], y[mask], r[mask], rho[mask]
        amp, d_amp = self._amplitude(rhos)

        if spec.x_floor > 0.0:
            cut = smoothstep5(rs / spec.x_floor - 1.0)
            d_cut = smoothstep5_prime(rs / spec.x_floor - 1.0) / spec.x_floor
        else:
            cut = np.ones_like(rs)
            d_cut = None

        kappa = spec.phase_kappa if spec.family == "phase_twisted" else 0.0
        phase = np.exp(1j * kappa * rhos) if kappa != 0.0 else np.ones_like(rhos, dtype=complex)

        value = amp * cut * phase
        coef_rho = (d_amp + 1j * kappa * amp) * cut * phase

        g = space.gamma
        scale = rs ** (2.0 * g) / rhos ** (2.0 * g + 1.0)
        grad = np.empty((xs.shape[0], space.n), dtype=complex)
        grad[:, : space.m] = (coef_rho * scale)[:, None] * xs
        grad[:, space.m :] = (coef_rho * (1.0 + g) / rhos ** (2.0 * g + 1.0))[:, None] * ys
        if d_cut is not None:
            grad[:, : space.m] += ((amp * d_cut * phase) / rs)[:, None] * xs

        vals[mask] = value
        grads[mask] = grad
        return vals, grads

    def eval(self, z: Point) -> FieldValue:
        if z.x.shape != (self.space.m,) or z.y.shape != (self.space.k,):
            raise ValueError("point does not match the field's space")
        vals, grads = self.eval_batch(np.concatenate([z.x, z.y])[None, :])
        return FieldValue(value=vals[0], euclid_grad=grads[0])


class ExtremalField(TestField):
    """Corollary extremal profile times a plateau window in tau.

    kappa_eff is the decay rate of the profile in tau; by default the
    profile decays toward the pair's singular boundary (the one that
    concentrates the Rayleigh quotient), and build_extremal_field's
    ascending=True flips the exponent to the sign printed in the corollary
    statements. The coordinate tau and the profile come from the pair's
    entry in weights.PAIRS.
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
        self._k = pair.scalars

    def tau_of_rho(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        with np.errstate(divide="ignore"):
            return self.pair.spec.tau_of_rho(rho, self._k)

    def rho_of_tau(self, tau: np.ndarray) -> np.ndarray:
        return self.pair.spec.rho_of_tau(np.asarray(tau, dtype=float), self._k)

    def rho_breaks(self) -> Tuple[float, ...]:
        """The rho values of the tau window's ends and band edges."""
        taus = np.array([0.0, self.band, self.tau_hi - self.band, self.tau_hi])
        rhos = np.clip(self.rho_of_tau(taus), self.spec.inner_rho, self.spec.outer_rho)
        return tuple(rhos.tolist())

    def window(self, tau: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Plateau window S(tau) and S'(tau)."""
        return _window(tau, 0.0, self.tau_hi, self.band)

    def probe_weight(self, tau: np.ndarray) -> np.ndarray:
        """Mass density omega(tau) of the exact 1-d Rayleigh reduction.

        Constant factors are dropped; they cancel in the quotient.
        """
        return self.pair.spec.probe_weight(np.asarray(tau, dtype=float), self._k)

    def _amplitude(self, rho: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        tau = self.tau_of_rho(rho)
        S, dS = self.window(tau)
        prof, d_prof, d_tau = self.pair.spec.profile(rho, self.spec.extremal_exponent, self._k)
        return prof * S, d_prof * S + prof * dS * d_tau


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
    if truncation_level < 0 or int(truncation_level) != truncation_level:
        raise ValueError("truncation_level must be a nonnegative integer")
    kappa = pair.kappa

    band = min(max(2.5 / max(kappa, 0.4), 1.5), 6.0)
    lam2 = max(2.0 * _J1 / (band * 0.03 * kappa**2) - 2.0 * _J0 * band, 8.0)
    plateau = lam2 * 2.0 ** (truncation_level - 2)
    tau_hi = plateau + 2.0 * band

    sign = 1.0 if ascending else -1.0
    spec, k = pair.spec, pair.scalars
    R = pair.params.get("R", float("inf"))
    outer = float(spec.rho_of_tau(tau_hi, k))
    if R != float("inf"):
        outer = min(outer, np.nextafter(R, 0.0))

    field_spec = TestFieldSpec(
        family="extremal_truncated",
        inner_rho=spec.inner(k),
        outer_rho=outer,
        x_floor=0.0,
        smoothness_margin=band / tau_hi,
        phase_kappa=0.0,
        extremal_exponent=spec.tau_sign * sign * kappa,
        R=R,
    )
    return ExtremalField(
        space=pair.space,
        spec=field_spec,
        pair=pair,
        band=band,
        plateau=plateau,
    )


def grad_gamma(space: SpaceParams, fv: FieldValue, z: Point) -> np.ndarray:
    """Sub-elliptic gradient (d_x f, |x|^gamma d_y f) from Euclidean partials."""
    if fv.euclid_grad.shape != (space.n,):
        raise ValueError(f"euclid_grad must have length {space.n}")
    out = fv.euclid_grad.copy()
    r = float(np.linalg.norm(z.x))
    out[space.m :] *= r**space.gamma
    return out


def radial_derivative(space: SpaceParams, f: TestField, z: Point) -> complex:
    """Projected derivative D f = (grad_gamma rho . grad_gamma f)/|grad_gamma rho|.

    Raises SingularPointError where the direction is undefined ({x=0} for
    gamma > 0, and the origin).
    """
    r, rho_z = radial_coords(space, z.x, z.y)
    if rho_z == 0.0 or (space.gamma > 0 and r == 0.0):
        raise SingularPointError("D f is undefined at the origin and, for gamma > 0, on {x=0}")
    unit = unit_grad_gamma_rho(space, np.concatenate([z.x, z.y])[None, :])[0]
    gg = grad_gamma(space, f.eval(z), z)
    return complex(np.dot(unit, gg))


def radial_derivative_batch(
    space: SpaceParams, pts: np.ndarray, grads: np.ndarray, coords: Optional[Coords] = None
) -> np.ndarray:
    """Batch D f via the cancellation-free form (r/rho)^g (x.df_x + (1+g) y.df_y)/rho.

    This is the continuous extension of the projected derivative: it returns
    0 on {x=0} for gamma > 0 and at points where the gradient vanishes,
    rather than raising, because integrands extend by continuity there.
    coords are the points' precomputed (|x|, rho), if the caller has them.
    """
    pts = np.asarray(pts, dtype=float)
    x, y = pts[:, : space.m], pts[:, space.m :]
    r, rho = radial_coords(space, x, y) if coords is None else coords
    dot = np.einsum("ni,ni->n", x, grads[:, : space.m]) + (1.0 + space.gamma) * np.einsum(
        "ni,ni->n", y, grads[:, space.m :]
    )
    out = np.zeros_like(dot)
    ok = rho > 0.0
    out[ok] = (r[ok] / rho[ok]) ** space.gamma * dot[ok] / rho[ok]
    return out
