"""Deterministic adaptive cubature over boxes in up to three dimensions.

Cells are refined worst-first by the embedded error estimate of a tensor
Gauss-Kronrod 7/15 rule over each component's own tolerance. A cell is
halved on the axis whose own Kronrod-minus-Gauss difference is largest
(the same nodes, so the choice costs no evaluation): a kink or edge
singularity along one axis is refined only across it. A region may cut
its box on axis 0 into pieces; every piece starts as one cell, and all
cells are refined together against one global tolerance, so a kink on a
cut needs no refinement.
The refinement state is the live cells, one row of a few numpy arrays each,
in the order the cells were made. Each round sums the rows in that order, for
the stop test and the result alike, so results are bit-identical across runs.
A round splits, worst err/tol first, every cell that an unmet component
needs (its worst cells until those left hold at most half its tolerance),
drops them and appends their halves, evaluated in one call.

Integrands are batch callables mapping an (N, n) coordinate array to (N,)
real or complex values. The nodes come cell by cell, each cell's 15^n in
axis-0-major order, so that they come in runs of 15^(n-1) that share their
axis-0 coordinate. A non-finite value stops the integration with a
ValueError that names the component and the node.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from typing import Callable, ClassVar, List, Optional, Tuple

import numpy as np

__all__ = [
    "Region",
    "IntegrationSettings",
    "IntegralResult",
    "integrate_vector",
]

# Kronrod 15 abscissae (nonnegative half) and weights, Gauss 7 weights
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

_NODES_1D = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_W15_1D = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
# the Gauss nodes are the odd-numbered Kronrod nodes; zero at the others
_W7_1D = np.zeros(15)
_W7_1D[1::2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])


@dataclass(frozen=True)
class Region:
    """Axis-aligned box; its pieces between the axis-0 cuts are the first cells."""

    box: Tuple[Tuple[float, float], ...]
    cuts: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        object.__setattr__(self, "box", box)
        if not 1 <= len(box) <= 3:
            raise ValueError("region dimension must be between 1 and 3")
        if any(not -np.inf < lo < hi < np.inf for lo, hi in box):
            raise ValueError("each box interval needs finite lo < hi")
        cuts = tuple(sorted({float(c) for c in self.cuts}))
        if any(not box[0][0] < c < box[0][1] for c in cuts):
            raise ValueError("cuts must lie strictly inside the box on axis 0")
        object.__setattr__(self, "cuts", cuts)

    @property
    def dim(self) -> int:
        return len(self.box)


@dataclass(frozen=True)
class IntegrationSettings:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_evals: int = 50_000_000
    # the only rule; stays readable for tools that count nodes per cell by it
    rule: ClassVar[str] = "gauss_kronrod_tensor"

    def __post_init__(self) -> None:
        if not (0 < self.rel_tol < np.inf and 0 < self.abs_tol < np.inf):
            raise ValueError("tolerances must be > 0 and finite")
        if not self.max_evals >= 1:
            raise ValueError("max_evals must be >= 1")


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    error_estimate: float
    evals: int
    converged: bool


class _TensorGaussKronrod:
    """Tensor Kronrod-15 rule with its embedded Gauss-7 rule and one
    per-axis error row.

    The rows of ``weights`` are the tensor Kronrod weights, the tensor Gauss
    weights (zero at the Kronrod-only nodes), and for each axis j the tensor
    with the Kronrod-minus-Gauss difference on axis j and Kronrod weights on
    the others. Row 2+j estimates the error that axis j carries, so a cell
    is split on the axis with the largest one.
    """

    def __init__(self, dim: int):
        self.points = np.array(list(product(_NODES_1D, repeat=dim)))
        self.points_per_cell = self.points.shape[0]
        rows = [[_W15_1D] * dim, [_W7_1D] * dim]
        rows += [[_W15_1D - _W7_1D if i == j else _W15_1D for i in range(dim)] for j in range(dim)]
        self.weights = np.array([reduce(np.multiply.outer, factors).ravel() for factors in rows])
        # one instance serves every integration of its dimension (_rule)
        self.points.flags.writeable = False
        self.weights.flags.writeable = False

    def apply(
        self, values: np.ndarray, halves: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """values: (C, B, P), component c on cell b's tensor grid; returns
        (vals, errs, split_axis), vals and errs (B, C)."""
        sums = np.matmul(values, self.weights.T) * np.prod(halves, axis=1)[:, None]
        i15 = sums[:, :, 0].T
        errs = np.abs(i15 - sums[:, :, 1].T)
        split = np.argmax(np.abs(sums[:, :, 2:]).max(axis=0), axis=1)
        return i15, errs, split


@lru_cache(maxsize=None)
def _rule(dim: int) -> _TensorGaussKronrod:
    """The shared rule for one dimension; Region bounds dim to 1..3."""
    return _TensorGaussKronrod(dim)


def _initial_cells(region: Region) -> Tuple[np.ndarray, np.ndarray]:
    """Centers and half-widths of the box's pieces between its axis-0 cuts."""
    lows, highs = np.array(region.box).T
    edges = np.array([lows[0], *region.cuts, highs[0]])
    centers = np.tile((lows + highs) / 2.0, (edges.size - 1, 1))
    halves = np.tile((highs - lows) / 2.0, (edges.size - 1, 1))
    centers[:, 0] = (edges[:-1] + edges[1:]) / 2.0
    halves[:, 0] = np.diff(edges) / 2.0
    return centers, halves


def integrate_vector(
    integrand: Callable[[np.ndarray], np.ndarray],
    n_components: int,
    region: Region,
    settings: Optional[IntegrationSettings] = None,
) -> List[IntegralResult]:
    """Integrate a batched vector integrand (pts (N,n) -> (C,N)) over a region.

    All components share one adaptive mesh, which starts from the region's
    pieces and is refined until each component meets
    max(abs_tol, rel_tol * |value|) summed over every piece; this keeps the
    components of an identity consistent so their residual is meaningful.
    """
    if settings is None:
        settings = IntegrationSettings()
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    rule = _rule(region.dim)

    n_cells = 0

    def evaluate(cs: np.ndarray, hs: np.ndarray) -> Tuple[np.ndarray, ...]:
        """One batch's rows: center, half-widths, value, error, split axis."""
        nonlocal n_cells
        pts = cs[:, None, :] + hs[:, None, :] * rule.points[None, :, :]
        flat = pts.reshape(-1, region.dim)
        out = np.asarray(integrand(flat))
        if out.shape != (n_components, flat.shape[0]):
            raise ValueError(
                f"integrand returned shape {out.shape}, expected {(n_components, flat.shape[0])}"
            )
        with np.errstate(invalid="ignore"):  # inf times a zero Gauss weight
            vals, errs, split = rule.apply(out.reshape(n_components, cs.shape[0], -1), hs)
        # every Kronrod weight is positive, so a non-finite value makes its
        # cell's sum non-finite; a finite out means the sum overflowed
        if not np.isfinite(vals).all() and not np.isfinite(out).all():
            comp, node = np.argwhere(~np.isfinite(out))[0]
            raise ValueError(
                f"integrand component {comp} is {out[comp, node]} at node {tuple(flat[node].tolist())}"
            )
        n_cells += cs.shape[0]
        return cs, hs, vals, errs, split

    # the live cells in creation order: center, half-widths, value, error,
    # split axis; in C order, in which numpy sums a column row by row
    cells = [np.ascontiguousarray(rows) for rows in evaluate(*_initial_cells(region))]
    # cap one evaluation at ~3M value slots; a fixed 64-cell cap would
    # allocate hundreds of MB when n_components is large
    batch_cap = max(1, min(64, 3_000_000 // (rule.points_per_cell * n_components)))

    while True:
        centers, halves, vals, errs, axes = cells
        # summed in creation order, so the result does not depend on the
        # refinement history
        total, error = vals.sum(axis=0), errs.sum(axis=0)
        tol = np.maximum(settings.abs_tol, settings.rel_tol * np.abs(total))
        met = error <= tol
        if met.all():
            break
        # an unmet component needs its worst cells until those left hold at
        # most half its tolerance; split them all, worst err/tol first so a
        # large term cannot steer while a small one waits, ties by the older cell
        worst = np.argsort(-errs[:, ~met], axis=0, kind="stable")
        ranked = errs[worst, np.flatnonzero(~met)]
        needed = worst[error[~met] - (np.cumsum(ranked, axis=0) - ranked) > 0.5 * tol[~met]]
        cand = np.flatnonzero(np.bincount(needed, minlength=len(errs)))
        batch = cand[np.argsort(-(errs[cand] / tol).max(axis=1), kind="stable")][:batch_cap]
        # a refused batch's cells stay: they are still part of the mesh
        if (n_cells + 2 * len(batch)) * rule.points_per_cell > settings.max_evals:
            break
        # each cell becomes its two halves on its split axis, in batch order
        cs = np.repeat(centers[batch], 2, axis=0)
        hs = np.repeat(halves[batch], 2, axis=0)
        idx, ax = np.arange(cs.shape[0]), np.repeat(axes[batch], 2)
        hs[idx, ax] *= 0.5
        cs[idx, ax] += np.tile([-1.0, 1.0], len(batch)) * hs[idx, ax]
        keep = np.bincount(batch, minlength=len(errs)) == 0
        cells = [np.concatenate([old[keep], new]) for old, new in zip(cells, evaluate(cs, hs))]

    evals = n_cells * rule.points_per_cell
    return [
        IntegralResult(val.real if val.imag == 0.0 else val, err, evals, ok)
        for val, err, ok in zip(total.tolist(), error.tolist(), met.tolist())
    ]
