"""Outside-in tracer: spans around the public functions of each module.

The tracer never edits the package. It rebinds public names in the modules
that call them (for example ``radial_coords`` inside ``fields``, ``weights``,
``verifier`` and ``cli``) and the batch methods on their classes, so every
call across a layer boundary records one span:

    (name, start_ns, end_ns, parent span, run id, points, info)

Spans stay in memory and are written once, by ``Tracer.dump``. A layer's
self time is its span time minus the time of its direct child spans.
"""

import json
import time
from functools import wraps
from typing import Callable, Dict, List, Optional

import numpy as np

from grushin_hardy import cli, cp, fields, verifier, weights

RADIAL = "geometry.radial_coords"
EVAL = "fields.eval_batch"
RDB = "fields.radial_derivative_batch"
VWPHI = "weights.vwphi"
CPV = "cp.cp_value_batch"
FIND = "cp.find_constant"
INTEGRATE = "cubature.integrate_vector"
INTEGRAND = "cubature.integrand"
CLI_MAIN = "cli.main"
DIVERGENCE = "cli.divergence_check"
CONDITION = "cli.condition_check"

CHECK_FUNCTIONS = (
    "verify_identity",
    "verify_identity_sweep",
    "verify_inequality",
    "verify_remainder_p_ge2",
    "verify_remainder_p_lt2",
    "sharpness_probe",
    "verify_ckn",
    "verify_hpw",
)

CONSTANT_KINDS = ("cp_pge2", "c1_inf", "c2_sup", "c3_min")

# counts that later changes may cite; with every spans.<name> count they
# must repeat exactly between traced passes over the same inputs
EXACT_COUNTS = (
    "cubature.evals",
    "cubature.cells",
    "cubature.rounds",
    "geometry.radial_coords.calls_per_batch",
    "weights.vwphi.calls_per_batch",
    "cp.find_constant.calls",
)


def _rows(a) -> int:
    return int(np.shape(a)[0])


def _radial_points(space, x, y) -> int:
    return int(np.size(x)) // space.m


def _points_per_cell(dim: int, rule: Optional[str]) -> int:
    """Nodes of the rule integrate_vector picks: tensor GK15 up to n = 3,
    Genz-Malik above."""
    if rule == "gauss_kronrod_tensor" or (rule is None and dim <= 3):
        return 15**dim
    return 2**dim + 2 * dim * dim + 2 * dim + 1


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.parent: List[int] = []
        self.run: List[int] = []
        self.points: List[int] = []
        self.info: List[object] = []
        self.run_id = 0
        self._stack = [-1]
        self._saved: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, points: int) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.points.append(points)
        self.info.append(None)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, count(*args) if count is not None else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_find_constant(self, fn: Callable) -> Callable:
        @wraps(fn)
        def traced(kind, *args, **kwargs):
            idx = self._open(FIND, 0)
            try:
                est = fn(kind, *args, **kwargs)
            finally:
                self._close(idx)
            self.info[idx] = (kind.kind, est.bracket[1] - est.bracket[0])
            return est

        return traced

    def _wrap_integrate(self, fn: Callable) -> Callable:
        tracer = self

        @wraps(fn)
        def traced(integrand, n_components, region, settings=None):
            def traced_integrand(pts):
                j = tracer._open(INTEGRAND, _rows(pts))
                tracer.info[j] = n_components
                try:
                    return integrand(pts)
                finally:
                    tracer._close(j)

            idx = tracer._open(INTEGRATE, 0)
            try:
                res = fn(traced_integrand, n_components, region, settings)
            finally:
                tracer._close(idx)
            rule = None if settings is None else settings.rule
            tracer.info[idx] = (
                n_components,
                _points_per_cell(region.dim, rule),
                sum(1 for r in res if r.converged),
                len(res),
            )
            return res

        return traced

    # -- installing ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind the traced names; ``uninstall`` puts the originals back."""
        rc = self.wrap(RADIAL, fields.radial_coords, _radial_points)
        for module in (fields, weights, verifier, cli):
            self._set(module, "radial_coords", rc)
        self._set(
            fields.TestField,
            "eval_batch",
            self.wrap(EVAL, fields.TestField.eval_batch, lambda _self, pts: _rows(pts)),
        )
        self._set(
            verifier,
            "radial_derivative_batch",
            self.wrap(RDB, verifier.radial_derivative_batch, lambda _s, pts, _g: _rows(pts)),
        )
        for method in ("v_batch", "w_batch", "phi_batch"):
            self._set(
                weights.WeightPair,
                method,
                self.wrap(
                    VWPHI, getattr(weights.WeightPair, method), lambda _self, pts: _rows(pts)
                ),
            )
        self._set(
            verifier,
            "cp_value_batch",
            self.wrap(CPV, verifier.cp_value_batch, lambda xi, _eta, _p: _rows(xi)),
        )
        fc = self._wrap_find_constant(cp.find_constant)
        for module in (cp, verifier, cli):
            self._set(module, "find_constant", fc)
        self._set(verifier, "integrate_vector", self._wrap_integrate(verifier.integrate_vector))
        for name in CHECK_FUNCTIONS:
            owner = verifier if name == "verify_identity_sweep" else cli
            self._set(owner, name, self.wrap(f"verifier.{name}", getattr(owner, name)))
        self._set(cli, "main", self.wrap(CLI_MAIN, cli.main))
        self._set(cli, "divergence_check", self.wrap(DIVERGENCE, cli.divergence_check))
        self._set(cli, "condition_check", self.wrap(CONDITION, cli.condition_check))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- output ----------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span, one JSON object holding parallel columns."""
        data = {
            "columns": ["name", "start_ns", "end_ns", "parent", "run", "points", "info"],
            "name": self.names,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "run": self.run,
            "points": self.points,
            "info": self.info,
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))

    # -- metrics -----------------------------------------------------------------

    def layer_metrics(self, run_id: int) -> Dict[str, float]:
        """Per-layer metrics of one traced pass, by name.

        Times are seconds, or ns per point where the name says so: ns_per_pt
        divides self time by the points of the calls made inside cubature
        batches, the hot path, while self_s sums every call of the pass.
        The names in EXACT_COUNTS and every ``spans.<name>`` call count are
        exact and repeat between passes over the same inputs.
        """
        sel = [i for i, r in enumerate(self.run) if r == run_id]
        pos = {i: j for j, i in enumerate(sel)}
        names = [self.names[i] for i in sel]
        dur = np.array([self.end[i] - self.start[i] for i in sel], dtype=float) * 1e-9
        parent = np.array([pos.get(self.parent[i], -1) for i in sel], dtype=int)
        points = np.array([self.points[i] for i in sel], dtype=float)
        info = [self.info[i] for i in sel]
        n = len(sel)

        has_parent = parent >= 0
        self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)

        # spans below a cubature batch; spans are stored in start order, so
        # a parent always precedes its children
        in_batch = np.zeros(n, dtype=bool)
        for j in range(n):
            pj = parent[j]
            in_batch[j] = pj >= 0 and (in_batch[pj] or names[pj] == INTEGRAND)

        by_name: Dict[str, List[int]] = {}
        for j, name in enumerate(names):
            by_name.setdefault(name, []).append(j)

        def idx(name: str) -> np.ndarray:
            return np.array(by_name.get(name, []), dtype=int)

        batches = idx(INTEGRAND)
        n_batches = len(batches)
        out: Dict[str, float] = {}

        def per_batch(name: str) -> float:
            return float(in_batch[idx(name)].sum()) / n_batches if n_batches else 0.0

        def ns_per_pt(name: str) -> float:
            ix = idx(name)
            ix = ix[in_batch[ix]]
            pts = points[ix].sum()
            return float(self_time[ix].sum() / pts * 1e9) if pts else 0.0

        def self_s(name: str) -> float:
            return float(self_time[idx(name)].sum())

        def total_s(name: str) -> float:
            return float(dur[idx(name)].sum())

        out["geometry.radial_coords.calls_per_batch"] = per_batch(RADIAL)
        out["weights.vwphi.calls_per_batch"] = per_batch(VWPHI)
        for label, name in (
            ("geometry.radial_coords", RADIAL),
            ("fields.eval_batch", EVAL),
            ("fields.radial_derivative_batch", RDB),
            ("weights.vwphi", VWPHI),
            ("cp.cp_value_batch", CPV),
        ):
            out[f"{label}.ns_per_pt"] = ns_per_pt(name)
            out[f"{label}.self_s"] = self_s(name)

        finds = idx(FIND)
        out["cp.find_constant.calls"] = len(finds)
        for kind in CONSTANT_KINDS:
            ix = [j for j in finds if info[j][0] == kind]
            out[f"cp.find_constant.{kind}_s"] = float(dur[ix].mean()) if ix else 0.0
        out["cp.find_constant.bracket_width_max"] = max(
            (info[j][1] for j in finds), default=0.0
        )

        converged = sum(info[j][2] for j in idx(INTEGRATE))
        components = sum(info[j][3] for j in idx(INTEGRATE))
        cells = 0
        for j in batches:
            # a batch belongs to the integrate_vector span that called it
            cells += int(points[j]) // info[parent[j]][1]
        integrate_s = total_s(INTEGRATE)
        bookkeeping = integrate_s - total_s(INTEGRAND)
        out["cubature.evals"] = int(points[batches].sum())
        out["cubature.cells"] = cells
        out["cubature.rounds"] = n_batches
        out["cubature.integrand_share"] = total_s(INTEGRAND) / integrate_s if integrate_s else 0.0
        out["cubature.converged_share"] = converged / components if components else 0.0
        out["cubature.bookkeeping_s"] = bookkeeping
        out["cubature.us_per_cell"] = bookkeeping / cells * 1e6 if cells else 0.0

        comp_pts = sum(points[j] * info[j] for j in batches)
        out["verifier.integrand.self_s"] = self_s(INTEGRAND)
        out["verifier.integrand.ns_per_pt_component"] = (
            self_s(INTEGRAND) / comp_pts * 1e9 if comp_pts else 0.0
        )
        for name in CHECK_FUNCTIONS:
            out[f"verifier.{name}.s"] = total_s(f"verifier.{name}")

        out["cli.self_s"] = self_s(CLI_MAIN)
        out["cli.divergence_check_s"] = total_s(DIVERGENCE)
        out["cli.condition_check_s"] = total_s(CONDITION)

        for name, ix in by_name.items():
            out[f"spans.{name}"] = len(ix)
        return out
