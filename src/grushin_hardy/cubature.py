"""Deterministic adaptive cubature over boxes in up to three dimensions.

Cells are refined largest-error-first with the embedded error estimate of
a tensor Gauss-Kronrod 7/15 rule. A cell is halved on the axis whose own
Kronrod-minus-Gauss difference is largest (the same nodes, so the choice
costs no evaluation): a kink or edge singularity along one axis is refined
only across it. A region may cut its box on axis 0 into pieces; every
piece starts as one cell, and all cells are refined from one heap against
one global tolerance, so a kink on a cut needs no refinement.
The refinement order is fixed by (error, cell id) and the final reduction
is a pairwise sum over cells in id order, so results are bit-identical
across runs; cell evaluations are batched, and nothing in the reduction
depends on evaluation order.

Integrands are batch callables mapping an (N, n) coordinate array to (N,)
real or complex values. A non-finite value stops the integration with a
ValueError that names the component and the node.
"""

import heapq
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
        if any(lo >= hi for lo, hi in box):
            raise ValueError("each box interval needs lo < hi")
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
        if self.max_evals < 1:
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
        """values: (B, P, C) on the tensor grid; returns (vals, errs, split_axis)."""
        sums = np.matmul(self.weights, values) * np.prod(halves, axis=1)[:, None, None]
        i15 = sums[:, 0]
        errs = np.abs(i15 - sums[:, 1])
        split = np.argmax(np.abs(sums[:, 2:]).max(axis=2), axis=1)
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

    def evaluate(cs: np.ndarray, hs: np.ndarray):
        pts = cs[:, None, :] + hs[:, None, :] * rule.points[None, :, :]
        flat = pts.reshape(-1, region.dim)
        out = np.asarray(integrand(flat))
        if out.shape != (n_components, flat.shape[0]):
            raise ValueError(
                f"integrand returned shape {out.shape}, expected {(n_components, flat.shape[0])}"
            )
        bad = ~np.isfinite(out)
        if bad.any():
            comp, node = np.argwhere(bad)[0]
            raise ValueError(
                f"integrand component {comp} is {out[comp, node]} at node {tuple(flat[node].tolist())}"
            )
        values = np.moveaxis(out.reshape(n_components, cs.shape[0], -1), 0, 2)
        return rule.apply(values, hs)

    evals = 0
    store_centers: List[np.ndarray] = []
    store_halves: List[np.ndarray] = []
    store_vals: List[np.ndarray] = []
    store_errs: List[np.ndarray] = []
    store_split: List[int] = []
    alive: List[bool] = []
    heap: List[Tuple[float, int]] = []
    # running totals steer refinement; the reported value is re-summed
    # pairwise at the end
    tot_vals = np.zeros(n_components, dtype=complex)
    tot_errs = np.zeros(n_components)

    def push(cs: np.ndarray, hs: np.ndarray) -> None:
        nonlocal evals, tot_vals, tot_errs
        vals, errs, split = evaluate(cs, hs)
        evals += cs.shape[0] * rule.points_per_cell
        tot_vals = tot_vals + vals.sum(axis=0)
        tot_errs = tot_errs + errs.sum(axis=0)
        for i in range(cs.shape[0]):
            cid = len(store_centers)
            store_centers.append(cs[i])
            store_halves.append(hs[i])
            store_vals.append(vals[i])
            store_errs.append(errs[i])
            store_split.append(int(split[i]))
            alive.append(True)
            heapq.heappush(heap, (-float(errs[i].max()), cid))

    push(*_initial_cells(region))

    while heap:
        tol = np.maximum(settings.abs_tol, settings.rel_tol * np.abs(tot_vals))
        if np.all(tot_errs <= tol):
            break
        batch = []
        top_score = -heap[0][0]
        # cap the batch so one evaluation stays within ~3M value slots even
        # for wide bundles; a fixed 64-cell cap would allocate hundreds of MB
        # when n_components is large
        batch_cap = max(1, min(64, 3_000_000 // (rule.points_per_cell * n_components)))
        # split together only cells within 4x of the worst error; splitting
        # negligible cells alongside one hot cell would waste most of the
        # evaluation budget
        while heap and len(batch) < batch_cap:
            neg_score, cid = heap[0]
            if batch and -neg_score < 0.25 * top_score:
                break
            heapq.heappop(heap)
            batch.append(cid)
        cost = 2 * len(batch) * rule.points_per_cell
        if evals + cost > settings.max_evals:
            break
        child_centers = []
        child_halves = []
        for cid in batch:
            alive[cid] = False
            tot_vals = tot_vals - store_vals[cid]
            tot_errs = tot_errs - store_errs[cid]
            c, h, ax = store_centers[cid], store_halves[cid], store_split[cid]
            for side in (-0.5, 0.5):
                cc = c.copy()
                cc[ax] += side * h[ax]
                hh = h.copy()
                hh[ax] *= 0.5
                child_centers.append(cc)
                child_halves.append(hh)
        push(np.array(child_centers), np.array(child_halves))

    ids = [i for i in range(len(store_vals)) if alive[i]]
    if ids:
        # pairwise sums in id order make the reduction independent of the
        # refinement history
        final_vals = np.sum(np.array([store_vals[i] for i in ids]), axis=0)
        final_errs = np.sum(np.array([store_errs[i] for i in ids]), axis=0)
    else:
        final_vals = np.zeros(n_components, dtype=complex)
        final_errs = np.zeros(n_components)

    results = []
    for c in range(n_components):
        val = final_vals[c]
        err = float(final_errs[c])
        ok = err <= max(settings.abs_tol, settings.rel_tol * abs(val))
        if abs(val.imag) == 0.0:
            val = val.real
        results.append(IntegralResult(value=val, error_estimate=err, evals=evals, converged=bool(ok)))
    return results
