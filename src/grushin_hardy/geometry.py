"""Closed-form Baouendi-Grushin geometry.

The underlying space is R^m x R^k with coordinates z = (x, y) and vector
fields X_i = d/dx_i, Y_j = |x|^gamma d/dy_j, where gamma >= 0 is the
Grushin exponent.  This module evaluates the anisotropic distance rho from
the origin, its sub-elliptic gradient, the homogeneous dimension
Q = m + (1+gamma) k, and the weighted divergence formula

    div_gamma(rho^c |x|^s grad_gamma rho)
        = (Q + c + s - 1) |x|^(2 gamma + s) / rho^(2 gamma + 1 - c),

together with a finite-difference divergence that serves as an independent
cross-check of that closed form. The gradients, the divergence formula and
the finite-difference divergence act on (N, m+k) point batches.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Tuple

import numpy as np

__all__ = [
    "SpaceParams",
    "float_faults",
    "radial_coords",
    "grad_gamma_rho",
    "unit_grad_gamma_rho",
    "div_weighted_rho_closed_form",
    "fd_divergence",
]


@dataclass(frozen=True)
class SpaceParams:
    """Grushin space: x-block dimension m, y-block dimension k, exponent gamma."""

    m: int
    k: int
    gamma: float

    def __post_init__(self) -> None:
        for name in ("m", "k"):
            value = getattr(self, name)
            # numpy integers pass; floats such as 1.0, 1.5, NaN and inf do not
            if not (isinstance(value, (int, np.integer)) and value >= 1):
                raise ValueError(f"{name} must be a positive integer")
        if not 0 <= self.gamma < np.inf:
            raise ValueError("gamma must be >= 0 and finite")

    @property
    def n(self) -> int:
        return self.m + self.k

    @property
    def Q(self) -> float:
        # homogeneous dimension; automatically >= 2 for m, k >= 1
        return self.m + (1.0 + self.gamma) * self.k


@contextmanager
def float_faults(what: str, space: SpaceParams) -> Iterator[None]:
    """Raise numpy's overflow, division by zero or invalid operation in the block
    as ValueError("<what> arithmetic failed in space (m,k,gamma): <numpy's message>")."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(f"{what} arithmetic failed in space ({space.m},{space.k},{space.gamma:g}): {exc}") from None


def radial_coords(space: SpaceParams, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Batch (|x|, rho) for coordinate arrays x of shape (..., m), y of shape (..., k)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r2 = np.einsum("...i,...i->...", x, x)
    y2 = np.einsum("...i,...i->...", y, y)
    a = 1.0 + space.gamma
    rho_vals = (r2**a + a * a * y2) ** (1.0 / (2.0 * a))
    return np.sqrt(r2), rho_vals


def _split(space: SpaceParams, pts: np.ndarray) -> Tuple[np.ndarray, ...]:
    """x, y, |x| and rho of an (N, m+k) batch."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != space.n:
        raise ValueError(f"points must have shape (N, {space.n})")
    x, y = pts[:, : space.m], pts[:, space.m :]
    return (x, y) + radial_coords(space, x, y)


def grad_gamma_rho(space: SpaceParams, pts: np.ndarray) -> np.ndarray:
    """Sub-elliptic gradient of rho on an (N, m+k) batch:

        (|x|^(2 gamma) x, (1+gamma) |x|^gamma y) / rho^(2 gamma + 1).

    For gamma > 0 every component carries a positive power of |x|, so the
    value on {x = 0} minus the origin is the zero vector; rows at the origin
    are nan.
    """
    x, y, r, rho_z = _split(space, pts)
    g = space.gamma
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = (rho_z ** (2.0 * g + 1.0))[:, None]
        gx = r[:, None] ** (2.0 * g) * x / scale
        gy = (1.0 + g) * r[:, None] ** g * y / scale
    return np.hstack([gx, gy])


def unit_grad_gamma_rho(space: SpaceParams, pts: np.ndarray) -> np.ndarray:
    """grad_gamma rho / |grad_gamma rho| = (|x|^gamma x, (1+gamma) y) / rho^(gamma+1)
    on an (N, m+k) batch.

    On {x = 0} minus the origin, where |grad_gamma rho| vanishes for
    gamma > 0, this is the continuous extension (0, y/|y|); rows at the
    origin are nan.
    """
    return _unit_grad(space, *_split(space, pts))


def _unit_grad(
    space: SpaceParams, x: np.ndarray, y: np.ndarray, r: np.ndarray, rho_z: np.ndarray
) -> np.ndarray:
    """unit_grad_gamma_rho from a batch's x, y, |x| and rho (_split's output)."""
    g = space.gamma
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = (rho_z ** (g + 1.0))[:, None]
        return np.hstack([r[:, None] ** g * x, (1.0 + g) * y]) / scale


def div_weighted_rho_closed_form(
    space: SpaceParams, pts: np.ndarray, c: float, s: float
) -> np.ndarray:
    """Closed-form divergence of the field rho^c |x|^s grad_gamma rho on an
    (N, m+k) batch:

        (Q + c + s - 1) |x|^(2 gamma + s) / rho^(2 gamma + 1 - c).

    Where the formula is singular (the origin, or {x = 0} when
    s < -2 gamma) the value is inf or nan.
    """
    x, y, r, rho_z = _split(space, pts)
    g = space.gamma
    with np.errstate(divide="ignore", invalid="ignore"):
        return (space.Q + c + s - 1.0) * r ** (2.0 * g + s) / rho_z ** (2.0 * g + 1.0 - c)


def fd_divergence(
    space: SpaceParams,
    field: Callable[[np.ndarray], np.ndarray],
    pts: np.ndarray,
    step: np.ndarray,
) -> np.ndarray:
    """Finite-difference weighted divergence on an (N, m+k) batch

        div_gamma F = sum_i dF_i/dx_i + |x|^gamma sum_j dF_(m+j)/dy_j

    via central differences, Richardson-extrapolated from step and step/2,
    with one step per point. field maps an (M, m+k) batch to its (M, m+k)
    values, or to (M, F, m+k) values of F fields at once, whose divergences
    come back as an (F, N) array; it is called once, on the stencil points of
    both step sizes together.
    Each step must stay below half the distance of its point to the singular
    set ({x = 0} for gamma > 0, otherwise the origin).
    """
    pts = np.asarray(pts, dtype=float)
    x, y, r, rho_z = _split(space, pts)
    step = np.broadcast_to(np.asarray(step, dtype=float), (pts.shape[0],))
    if not np.all(step > 0):
        raise ValueError("step must be > 0")
    dist = r if space.gamma > 0 else rho_z
    if np.any(step > 0.5 * dist):
        raise ValueError("step exceeds half the distance to the singular set")
    n = space.n
    axes = np.arange(n)
    # the y partials carry the factor |x|^gamma of Y_j
    weight = np.ones((n, 1, pts.shape[0], 1))
    weight[space.m :] = r[:, None] ** space.gamma

    h = np.stack([0.5 * step, step])  # (size, point)
    shift = np.eye(n)[None, :, None, :] * h[:, None, :, None]  # (size, axis, point, coordinate)
    stencil = np.stack([pts + shift, pts - shift]).reshape(-1, n)
    values = field(stencil)
    # (sign, size, axis, point, field, coordinate); each axis keeps its own coordinate
    diag = values.reshape(2, 2, n, pts.shape[0], -1, n)[:, :, axes, :, :, axes]
    diff = diag[:, 0] - diag[:, 1]  # (axis, size, point, field)
    estimate = np.sum(weight * diff / (2.0 * h[:, :, None]), axis=0)
    div = ((4.0 * estimate[0] - estimate[1]) / 3.0).T
    return div if values.ndim == 3 else div[0]
