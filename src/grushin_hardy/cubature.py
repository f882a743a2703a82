"""Deterministic adaptive cubature over boxes in up to four dimensions.

Cells are refined largest-error-first with embedded-rule error estimates:
a tensor Gauss-Kronrod 7/15 rule for n <= 3 and the Genz-Malik degree 7/5
pair for n = 4. The refinement order is fixed by (error, cell id) and the
final reduction is a pairwise sum over cells in id order, so results are
bit-identical across runs; cell evaluations are batched, and nothing in the
reduction depends on evaluation order.

Integrands are batch callables mapping an (N, n) coordinate array to (N,)
real or complex values. An optional exclusion tube encodes the caller's
promise that the integrand vanishes for |x| below the tube radius (field
supports with an |x| cutoff); cells entirely inside the tube are dropped
without evaluation.
"""

import heapq
from dataclasses import dataclass
from itertools import product
from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = [
    "Region",
    "IntegrationSettings",
    "IntegralResult",
    "integrate",
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
_W7_1D = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])
_GAUSS_IDX_1D = np.arange(1, 15, 2)


@dataclass(frozen=True)
class Region:
    """Axis-aligned box with an optional vanishing tube around {x=0}.

    exclusion_dims is the number of leading coordinates forming x; the
    integrand must vanish where their Euclidean norm is below
    exclusion_radius.
    """

    box: Tuple[Tuple[float, float], ...]
    exclusion_radius: float = 0.0
    exclusion_dims: int = 0

    def __post_init__(self) -> None:
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        object.__setattr__(self, "box", box)
        if not 1 <= len(box) <= 4:
            raise ValueError("region dimension must be between 1 and 4")
        if any(lo >= hi for lo, hi in box):
            raise ValueError("each box interval needs lo < hi")
        if self.exclusion_radius < 0:
            raise ValueError("exclusion_radius must be >= 0")
        if not 0 <= self.exclusion_dims <= len(box):
            raise ValueError("exclusion_dims must lie within the box dimension")

    @property
    def dim(self) -> int:
        return len(self.box)


@dataclass(frozen=True)
class IntegrationSettings:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_evals: int = 50_000_000
    rule: Optional[str] = None

    def __post_init__(self) -> None:
        if not (0 < self.rel_tol < np.inf and 0 < self.abs_tol < np.inf):
            raise ValueError("tolerances must be > 0 and finite")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if self.rule not in (None, "gauss_kronrod_tensor", "genz_malik"):
            raise ValueError(f"unknown rule {self.rule!r}")


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    error_estimate: float
    evals: int
    converged: bool


class _TensorGaussKronrod:
    def __init__(self, dim: int):
        self.dim = dim
        self.points = np.array(list(product(_NODES_1D, repeat=dim)))
        w15 = np.ones(1)
        w7 = np.ones(1)
        for _ in range(dim):
            w15 = np.outer(w15, _W15_1D).ravel()
        self.w15 = w15
        base = len(_NODES_1D)
        gauss_flat = []
        for idx in product(_GAUSS_IDX_1D, repeat=dim):
            flat = 0
            for i in idx:
                flat = flat * base + i
            gauss_flat.append(flat)
        self.gauss_flat = np.array(gauss_flat)
        for _ in range(dim):
            w7 = np.outer(w7, _W7_1D).ravel()
        self.w7 = w7
        self.points_per_cell = self.points.shape[0]

    def apply(
        self, values: np.ndarray, halves: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """values: (B, P, C) on the tensor grid; returns (vals, errs, split_axis)."""
        vol = np.prod(halves, axis=1)
        i15 = np.einsum("bpc,p->bc", values, self.w15) * vol[:, None]
        i7 = np.einsum("bpc,p->bc", values[:, self.gauss_flat, :], self.w7) * vol[:, None]
        errs = np.abs(i15 - i7)
        split = np.argmax(halves, axis=1)
        return i15, errs, split


class _GenzMalik:
    def __init__(self, dim: int):
        if dim < 2:
            raise ValueError("genz_malik needs dimension >= 2")
        self.dim = dim
        n = dim
        l2, l3, l4, l5 = np.sqrt(9 / 70), np.sqrt(9 / 10), np.sqrt(9 / 10), np.sqrt(9 / 19)
        pts = [np.zeros(n)]
        self.axis2 = []
        self.axis3 = []
        for i in range(n):
            for s in (+1.0, -1.0):
                e = np.zeros(n)
                e[i] = s * l2
                self.axis2.append(len(pts))
                pts.append(e)
        for i in range(n):
            for s in (+1.0, -1.0):
                e = np.zeros(n)
                e[i] = s * l3
                self.axis3.append(len(pts))
                pts.append(e)
        pair_start = len(pts)
        for i in range(n):
            for j in range(i + 1, n):
                for si, sj in product((+1.0, -1.0), repeat=2):
                    e = np.zeros(n)
                    e[i], e[j] = si * l4, sj * l4
                    pts.append(e)
        corner_start = len(pts)
        for signs in product((+1.0, -1.0), repeat=n):
            pts.append(l5 * np.array(signs))
        self.points = np.array(pts)
        self.points_per_cell = self.points.shape[0]

        two_n = 2.0**n
        w7 = np.zeros(self.points_per_cell)
        w7[0] = two_n * (12824.0 - 9120.0 * n + 400.0 * n * n) / 19683.0
        w7[self.axis2] = two_n * 980.0 / 6561.0
        w7[self.axis3] = two_n * (1820.0 - 400.0 * n) / 19683.0
        w7[pair_start:corner_start] = two_n * 200.0 / 19683.0
        w7[corner_start:] = 6859.0 / 19683.0
        # the rule weights integrate over [-1,1]^n (volume 2^n); halves are
        # applied outside, so divide the 2^n into the per-cell volume factor
        self.w7 = w7 / two_n

        w5 = np.zeros(self.points_per_cell)
        w5[0] = two_n * (729.0 - 950.0 * n + 50.0 * n * n) / 729.0
        w5[self.axis2] = two_n * 245.0 / 486.0
        w5[self.axis3] = two_n * (265.0 - 100.0 * n) / 1458.0
        w5[pair_start:corner_start] = two_n * 25.0 / 729.0
        self.w5 = w5 / two_n
        self.ratio = (l2 / l3) ** 2

    def apply(
        self, values: np.ndarray, halves: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        vol = np.prod(halves, axis=1) * 2.0**self.dim
        i7 = np.einsum("bpc,p->bc", values, self.w7) * vol[:, None]
        i5 = np.einsum("bpc,p->bc", values, self.w5) * vol[:, None]
        errs = np.abs(i7 - i5)

        center = values[:, 0, :]
        div = np.empty((values.shape[0], self.dim))
        for i in range(self.dim):
            p2 = values[:, self.axis2[2 * i], :] + values[:, self.axis2[2 * i + 1], :]
            p3 = values[:, self.axis3[2 * i], :] + values[:, self.axis3[2 * i + 1], :]
            fourth = p2 - 2.0 * center - self.ratio * (p3 - 2.0 * center)
            div[:, i] = np.abs(fourth).sum(axis=1)
        split = np.argmax(div, axis=1)
        # variation can vanish along every axis line while the cell still
        # carries error (structure in the corners); fall back to the widest
        # axis so refinement cannot produce ever-thinner slivers
        flat = div.max(axis=1) <= 0.0
        if np.any(flat):
            split[flat] = np.argmax(halves[flat], axis=1)
        return i7, errs, split


def _make_rule(dim: int, rule_name: Optional[str]):
    if rule_name is None:
        rule_name = "gauss_kronrod_tensor" if dim <= 3 else "genz_malik"
    if rule_name == "gauss_kronrod_tensor":
        return _TensorGaussKronrod(dim)
    return _GenzMalik(dim)


def _inside_tube(region: Region, centers: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """True for cells whose box lies entirely inside the exclusion tube."""
    if region.exclusion_radius <= 0 or region.exclusion_dims == 0:
        return np.zeros(centers.shape[0], dtype=bool)
    d = region.exclusion_dims
    corner = np.abs(centers[:, :d]) + halves[:, :d]
    return np.einsum("bi,bi->b", corner, corner) < region.exclusion_radius**2


def integrate_vector(
    integrand: Callable[[np.ndarray], np.ndarray],
    n_components: int,
    region: Region,
    settings: Optional[IntegrationSettings] = None,
) -> List[IntegralResult]:
    """Integrate a batched vector integrand (pts (N,n) -> (C,N)) over a region.

    All components share one adaptive mesh, refined until each meets
    max(abs_tol, rel_tol * |value|); this keeps the components of an identity
    consistent so their residual is meaningful.
    """
    if settings is None:
        settings = IntegrationSettings()
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    rule = _make_rule(region.dim, settings.rule)

    lows = np.array([lo for lo, _ in region.box])
    highs = np.array([hi for _, hi in region.box])
    centers = ((lows + highs) / 2.0)[None, :]
    halves = ((highs - lows) / 2.0)[None, :]

    def evaluate(cs: np.ndarray, hs: np.ndarray):
        pts = cs[:, None, :] + hs[:, None, :] * rule.points[None, :, :]
        flat = pts.reshape(-1, region.dim)
        out = np.asarray(integrand(flat))
        if out.shape != (n_components, flat.shape[0]):
            raise ValueError(
                f"integrand returned shape {out.shape}, expected {(n_components, flat.shape[0])}"
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
        keep = ~_inside_tube(region, cs, hs)
        cs, hs = cs[keep], hs[keep]
        if cs.shape[0] == 0:
            return
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

    push(centers, halves)

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


def integrate(
    integrand: Callable[[np.ndarray], np.ndarray],
    region: Region,
    settings: Optional[IntegrationSettings] = None,
) -> IntegralResult:
    """Adaptive integral of one batch integrand (pts (N,n) -> (N,))."""

    def wrapped(pts: np.ndarray) -> np.ndarray:
        return np.asarray(integrand(pts))[None, :]

    return integrate_vector(wrapped, 1, region, settings)[0]
