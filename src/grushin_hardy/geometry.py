"""Closed-form Baouendi-Grushin geometry.

The underlying space is R^m x R^k with coordinates z = (x, y) and vector
fields X_i = d/dx_i, Y_j = |x|^gamma d/dy_j, where gamma >= 0 is the
Grushin exponent.  This module evaluates the anisotropic distance rho from
the origin, its sub-elliptic gradient, the dilation group, the homogeneous
dimension Q = m + (1+gamma) k, and the weighted divergence formula

    div_gamma(rho^c |x|^s grad_gamma rho)
        = (Q + c + s - 1) |x|^(2 gamma + s) / rho^(2 gamma + 1 - c),

together with a finite-difference divergence that serves as an independent
cross-check of that closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "SpaceParams",
    "Point",
    "GVector",
    "SingularPointError",
    "radial_coords",
    "rho",
    "grad_gamma_rho",
    "norm_grad_gamma_rho",
    "unit_grad_gamma_rho",
    "dilate",
    "div_weighted_rho_closed_form",
    "fd_divergence",
]

# A value of the sub-elliptic gradient: ndarray of length m + k.
GVector = np.ndarray


class SingularPointError(ValueError):
    """Evaluation of a closed form on its singular set."""


@dataclass(frozen=True)
class SpaceParams:
    """Grushin space: x-block dimension m, y-block dimension k, exponent gamma."""

    m: int
    k: int
    gamma: float

    def __post_init__(self) -> None:
        if self.m < 1 or self.k < 1:
            raise ValueError("m and k must be positive integers")
        if not 0 <= self.gamma < np.inf:
            raise ValueError("gamma must be >= 0 and finite")

    @property
    def n(self) -> int:
        return self.m + self.k

    @property
    def Q(self) -> float:
        # homogeneous dimension; automatically >= 2 for m, k >= 1
        return self.m + (1.0 + self.gamma) * self.k


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


def radial_coords(space: SpaceParams, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Batch (|x|, rho) for coordinate arrays x of shape (..., m), y of shape (..., k)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r2 = np.einsum("...i,...i->...", x, x)
    y2 = np.einsum("...i,...i->...", y, y)
    a = 1.0 + space.gamma
    rho_vals = (r2**a + a * a * y2) ** (1.0 / (2.0 * a))
    return np.sqrt(r2), rho_vals


def rho(space: SpaceParams, z: Point) -> float:
    """Anisotropic distance (|x|^(2(1+gamma)) + (1+gamma)^2 |y|^2)^(1/(2(1+gamma)))."""
    _check_point(space, z)
    a = 1.0 + space.gamma
    r2 = float(z.x @ z.x)
    y2 = float(z.y @ z.y)
    return float((r2**a + a * a * y2) ** (1.0 / (2.0 * a)))


def grad_gamma_rho(space: SpaceParams, z: Point) -> GVector:
    """Sub-elliptic gradient of rho:

        (|x|^(2 gamma) x, (1+gamma) |x|^gamma y) / rho^(2 gamma + 1).

    For gamma > 0 every component carries a positive power of |x|, so the
    value on {x = 0} minus the origin is the zero vector.
    """
    _check_point(space, z)
    rho_z = rho(space, z)
    if rho_z == 0.0:
        raise SingularPointError("grad_gamma_rho is undefined at the origin")
    g = space.gamma
    r = float(np.linalg.norm(z.x))
    scale = rho_z ** (2.0 * g + 1.0)
    gx = (r ** (2.0 * g)) * z.x / scale
    gy = (1.0 + g) * (r**g) * z.y / scale
    return np.concatenate([gx, gy])


def norm_grad_gamma_rho(space: SpaceParams, z: Point) -> float:
    """|grad_gamma rho| = (|x|/rho)^gamma; lies in [0, 1] since |x| <= rho."""
    _check_point(space, z)
    rho_z = rho(space, z)
    if rho_z == 0.0:
        raise SingularPointError("norm_grad_gamma_rho is undefined at the origin")
    r = float(np.linalg.norm(z.x))
    return float((r / rho_z) ** space.gamma)


def unit_grad_gamma_rho(space: SpaceParams, z: Point) -> GVector:
    """grad_gamma rho / |grad_gamma rho| = (|x|^gamma x, (1+gamma) y) / rho^(gamma+1).

    Undefined on {x = 0} when gamma > 0: the norm in the denominator
    vanishes there, so callers must stay off that set.
    """
    _check_point(space, z)
    rho_z = rho(space, z)
    if rho_z == 0.0:
        raise SingularPointError("unit_grad_gamma_rho is undefined at the origin")
    g = space.gamma
    r = float(np.linalg.norm(z.x))
    if g > 0 and r == 0.0:
        raise SingularPointError("unit_grad_gamma_rho is undefined on {x = 0} for gamma > 0")
    scale = rho_z ** (g + 1.0)
    return np.concatenate([(r**g) * z.x, (1.0 + g) * z.y]) / scale


def dilate(space: SpaceParams, z: Point, lam: float) -> Point:
    """Anisotropic dilation (x, y) -> (lam x, lam^(1+gamma) y)."""
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    _check_point(space, z)
    return Point(lam * z.x, lam ** (1.0 + space.gamma) * z.y)


def div_weighted_rho_closed_form(space: SpaceParams, z: Point, c: float, s: float) -> float:
    """Closed-form divergence of the field rho^c |x|^s grad_gamma rho:

        (Q + c + s - 1) |x|^(2 gamma + s) / rho^(2 gamma + 1 - c).
    """
    _check_point(space, z)
    g = space.gamma
    rho_z = rho(space, z)
    r = float(np.linalg.norm(z.x))
    e_r = 2.0 * g + s
    e_rho = 2.0 * g + 1.0 - c
    if rho_z == 0.0:
        raise SingularPointError("divergence formula is undefined at the origin")
    if r == 0.0 and e_r < 0.0:
        raise SingularPointError("divergence formula is singular on {x = 0} when s < -2 gamma")
    return float((space.Q + c + s - 1.0) * r**e_r / rho_z**e_rho)


def fd_divergence(
    space: SpaceParams,
    field: Callable[[Point], GVector],
    z: Point,
    step: float,
) -> float:
    """Finite-difference weighted divergence

        div_gamma F = sum_i dF_i/dx_i + |x|^gamma sum_j dF_(m+j)/dy_j

    via central differences, Richardson-extrapolated from step and step/2.
    The step must stay below half the distance to the singular set
    ({x = 0} for gamma > 0, otherwise the origin).
    """
    _check_point(space, z)
    if step <= 0:
        raise ValueError("step must be > 0")
    r = float(np.linalg.norm(z.x))
    dist = r if space.gamma > 0 else rho(space, z)
    if step > 0.5 * dist:
        raise ValueError("step exceeds half the distance to the singular set")
    m, k = space.m, space.k
    ry = r**space.gamma

    def estimate(h: float) -> float:
        acc = 0.0
        for i in range(m):
            e = np.zeros(m)
            e[i] = h
            fp = field(Point(z.x + e, z.y))[i]
            fm = field(Point(z.x - e, z.y))[i]
            acc += (fp - fm) / (2.0 * h)
        for j in range(k):
            e = np.zeros(k)
            e[j] = h
            fp = field(Point(z.x, z.y + e))[m + j]
            fm = field(Point(z.x, z.y - e))[m + j]
            acc += ry * (fp - fm) / (2.0 * h)
        return float(acc)

    d1 = estimate(step)
    d2 = estimate(0.5 * step)
    return (4.0 * d2 - d1) / 3.0
