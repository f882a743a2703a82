"""Numerical checks for the weighted Hardy identity and its consequences.

Every operation assembles integral terms with shared-mesh cubature and
reports quantitative residuals: the four-term identity, the p >= 2 and
1 < p < 2 remainder bounds with module-computed constants, Rayleigh-ratio
sharpness probes on truncated extremal fields, CKN-type interpolation
inequalities, and HPW-type uncertainty products.

Every field integral is 2-D, whatever m + k is: it runs on Grushin-polar
pieces whose edges follow the fields' kinks (see _polar_pieces), and each
node is mapped to its (|x|, |y|, rho), on which fields and weights evaluate
in closed form.

Conventions: Df is the radial derivative, xi = v^(1/p) Df and
eta = xi + w^(1/p) f, so xi - eta = -w^(1/p) f. Every weight is a monomial,
so every term but C_p's G part and the products (see _TERMS) is a monomial
c weight^e |f|^q |Df|^q' jac, one row of an exponent table on the log
features (see _Plan); C_p(xi, eta) comes in closed form from the identity's
own rows. A field is exp(i kappa rho) times its modulus |f|, and every term
reads only |f|, |Df| and Re(Df/f), so a batch evaluates |f| per modulus and
holds no complex array (see _Batch). Every factor of rho alone is evaluated
once per axis-0 node. The pieces cover only the fields' support, away from
{x=0} wherever a weight is singular there, so every weight is finite at
every node, and a term is an exact 0 wherever its field vanishes.

Each field check is one spec (FIELD_CHECKS): its precondition, its terms,
a verdict, which forms the report's keys and margins, and the reader of
its residual. Every check returns one type, Report. A report's `passed`
requires every margin to hold and every integral to have converged.
"""

import math
from copy import deepcopy
from dataclasses import asdict, dataclass, is_dataclass
from itertools import chain, groupby
from operator import itemgetter
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cp import ConstantEstimate, CpObjectiveKind, find_constant
from .cp import cp_value_batch  # unused here; perfbench/tracer.py rebinds it
from .cubature import IntegralResult, IntegrationSettings, Region, integrate_vector
from .fields import ExtremalField, TestField, build_extremal_field
from .fields import radial_derivative_batch  # unused here; perfbench/tracer.py rebinds it
from .geometry import SpaceParams, float_faults
from .geometry import radial_coords  # unused here; perfbench/tracer.py rebinds it
from .weights import HPW_PAIRS, PAIRS, WEIGHTS, WeightPair, hpw_pair, log_features

__all__ = [
    "Report",
    "CknParams",
    "verify_checks",
    "verify_identity",
    "verify_identity_sweep",
    "verify_inequality",
    "verify_remainder_p_ge2",
    "verify_remainder_p_lt2",
    "sharpness_probe",
    "verify_ckn",
    "verify_hpw",
    "FIELD_CHECKS",
]

# the identity passes when |residual| <= max(10 quadrature errors, this * lhs)
_IDENTITY_REL_TOL = 1e-6
# the sharpness probe passes when the last level's relative gap is at most this
_SHARPNESS_GAP = 0.05


class Report(SimpleNamespace):
    """A check's keys as read-only attributes, among them its integrals'
    summed error (quadrature_error), converged and passed, and its residual,
    the margin that the CLI prints and that only the identity has as a key.
    to_dict copies the keys as asdict would, with a NaN ratio as None."""

    __slots__ = ("residual",)

    def __init__(self, residual: float, /, **keys):
        super().__init__(**keys)
        object.__setattr__(self, "residual", residual)

    def __setattr__(self, name: str, *_) -> None:
        raise AttributeError(f"cannot assign to report key {name!r}")

    __delattr__ = __setattr__

    def to_dict(self) -> Dict[str, object]:
        d = {key: asdict(v) if is_dataclass(v) else deepcopy(v) for key, v in vars(self).items()}
        if not math.isfinite(d.get("ratio", 0.0)):
            d["ratio"] = None
        return d


@dataclass(frozen=True)
class CknParams:
    """Interpolation exponents; c is pinned by the balance conditions."""

    p: float
    q: float
    r: float
    delta: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if not 1.0 < self.p < np.inf:
            raise ValueError("CknParams: p must lie in (1, inf)")
        if not 1.0 < self.q < np.inf:
            raise ValueError("CknParams: q must lie in (1, inf)")
        if not 0.0 < self.r < np.inf:
            raise ValueError("CknParams: r must lie in (0, inf)")
        if self.p + self.q < self.r:
            raise ValueError("CknParams: requires p + q >= r")
        lo = max(0.0, (self.r - self.q) / self.r)
        hi = min(1.0, self.p / self.r)
        if not lo - 1e-12 <= self.delta <= hi + 1e-12:
            raise ValueError("CknParams: delta must lie in [0,1] and [(r-q)/r, p/r]")
        balance = self.delta * self.r / self.p + (1.0 - self.delta) * self.r / self.q
        if not abs(balance - 1.0) <= 1e-9:
            raise ValueError("CknParams: requires delta*r/p + (1-delta)*r/q = 1")
        # NaN fails the test, and so does b = c = inf (their difference is NaN)
        if not abs(self.c - (self.delta / self.p + self.b * (1.0 - self.delta))) <= 1e-9:
            raise ValueError("CknParams: requires c = delta/p + b*(1-delta)")


def _refuse(field: TestField, pair_id: str, message: str) -> None:
    """Raise a support rule's message, or the family's for an extremal field."""
    if field.spec.family == "extremal_truncated":
        message = (
            f"field family extremal_truncated cannot run a field check on {pair_id} here: "
            "the extremal field runs out to R and down to x = 0"
        )
    raise ValueError(message)


def _check_support(pair: WeightPair, field: TestField) -> None:
    if pair.space != field.space:
        raise ValueError("pair and field use different spaces")
    radius = pair.radius
    outside = radius is not None and not field.spec.outer_rho <= 0.9 * radius
    on_axis = pair.x_singular and not field.spec.x_floor > 0.0
    if outside:
        _refuse(field, pair.id, "field must keep outer_rho <= 0.9 R on a ball domain")
    if on_axis:
        _refuse(field, pair.id, "pair is singular on {x=0}; use a field with x_floor > 0")


def _check_remainder(pair: WeightPair, field: TestField, p_ok: bool, p_rule: str) -> None:
    if pair.monomials[WEIGHTS.index("phi"), 0] != 0.0:
        raise ValueError("remainder bounds need a pair with phi identically 0")
    if not p_ok:
        raise ValueError(p_rule)
    _check_support(pair, field)


def _polar_pieces(fields: Sequence[TestField], curve: Optional[TestField] = None):
    """The fields' support as Grushin-polar pieces, and the lift of nodes.

    Fields, weights, Df and |grad f|^2 depend on (|x|, rho) only, so every
    integral is 2-D in r = rho cos(psi)^(1/a), s = rho^a sin(psi)/a, where
    a = 1+gamma and dz = |S^(m-1)||S^(k-1)| r^(m-1) s^(k-1) (rho^a/a)
    cos(psi)^(1/a-1) drho dpsi. Piece i is the unit cell [i, i+1] x [0, 1]
    of the nodes (i + tau, t). rho runs between two cuts (the fields' window
    breakpoints, x_floor and 2 x_floor), geometric in tau, and psi between
    the curves |x| = r_out and |x| = r_in, where d = pi/2 - psi =
    arcsin((r0/rho)^a) and d^(1/a) is linear in t; so every kink lies on a
    cell edge and |x| < x_floor is never sampled. dpsi then carries
    d^(1-1/a), which cancels the cos(psi)^(1/a-1) = sin(d)^(1/a-1) of dz
    toward the y axis whether or not a piece reaches it: that is linear psi
    at a = 1, and psi = (pi/2)(1 - (1-t)^a) with x_floor = 0. From the apex
    of a kink curve psi's range grows like sqrt(rho - rho0), so there rho
    takes tau^2 for tau. Given curve, a field of the plan's one modulus, the
    piece of its falling window band and cutoff band is split along the
    curve D|f| = 0 (TestField.df_zero_x), which runs corner to corner, so
    that each half narrows linearly to its corner; NaN in r_out or r_in
    stands for the curve. lift takes nodes (M, K, 2) that share their tau
    along K, or flat (N, 2) nodes as K = 1, and gives their (r, s, rho,
    log(r/rho)), where r = |x| and s = |y|, and the log of their Jacobian,
    in logs: log(r/rho) = log(cos psi)/a. rho and every factor of rho alone
    are evaluated on (M, 1), the rest on (M, K).
    """
    space = fields[0].space
    m, a = space.m, 1.0 + space.gamma
    x_floor, outer = fields[0].spec.x_floor, fields[0].spec.outer_rho
    lo = max(min(f.spec.inner_rho for f in fields), x_floor)
    breaks = {lo, x_floor, 2.0 * x_floor}.union(*(f.rho_breaks() for f in fields))
    edges = sorted(b for b in breaks if lo <= b <= outer)
    pieces = []  # (rho0, rho1, rho grading, r_out, r_in)
    fall = None if curve is None else curve.rho_breaks()[2:]
    for rho0, rho1 in zip(edges, edges[1:]):
        if x_floor == 0.0:
            pieces.append((rho0, rho1, 1.0, math.inf, 0.0))
            continue
        rho_grade = 2.0 if rho0 in (x_floor, 2.0 * x_floor) else 1.0
        if rho0 >= 2.0 * x_floor:
            pieces.append((rho0, rho1, rho_grade, math.inf, 2.0 * x_floor))
        cuts = (2.0 * x_floor, math.nan, x_floor) if (rho0, rho1) == fall else (2.0 * x_floor, x_floor)
        pieces += [(rho0, rho1, rho_grade, r_out, r_in) for r_out, r_in in zip(cuts, cuts[1:])]
    rho0, rho1, rho_grade, r_out, r_in = (np.array(col) for col in zip(*pieces))
    # log(|S^(m-1)||S^(k-1)|/a^k), |S^(d-1)| = 2 pi^(d/2)/Gamma(d/2); Gamma overflows from d = 343
    log_const = -space.k * math.log(a) + sum(
        math.log(2.0) + d / 2.0 * math.log(math.pi) - math.lgamma(d / 2.0) for d in (m, space.k)
    )
    log_span = np.log(rho1 / rho0)

    def lift(nodes: np.ndarray) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
        grid = nodes.reshape(nodes.shape[0], -1, 2)
        i = np.minimum(grid[:, :1, 0].astype(int), len(pieces) - 1)  # the nodes lie in [0, pieces]
        tau, t, span, rg = grid[:, :1, 0] - i, grid[:, :, 1], log_span[i], rho_grade[i]
        rho = rho0[i] * np.exp(span * tau**rg)
        outer_r, inner_r = r_out[i], r_in[i]
        if curve is not None:
            # x_floor <= curve <= 2 x_floor, so fmax and fmin take it over NaN, and keep the other bound
            on = np.isnan(outer_r) | np.isnan(inner_r)
            x = curve.df_zero_x(rho[on])
            outer_r[on], inner_r[on] = np.fmax(outer_r[on], x), np.fmin(inner_r[on], x)
        # sigma = d^(1/a) runs linearly from |x| = r_out to r_in; cos psi =
        # sin d keeps its relative precision where it vanishes on the y axis
        sig_out, sig_in = (np.arcsin(np.minimum(1.0, (b / rho) ** a)) ** (1.0 / a) for b in (outer_r, inner_r))
        sigma = sig_out - (sig_out - sig_in) * t
        d = sigma**a
        cos, sin = np.sin(d), np.cos(d)
        log_cos = np.log(cos)
        r, s = rho * cos ** (1.0 / a), rho**a * sin / a
        # log of spheres rho^(Q-1)/a^k, drho/dtau and (dpsi/dsigma)/sigma^(a-1) dsigma/dt
        d_rho = rho * span * rg * tau ** (rg - 1.0)
        log_side = (space.Q - 1.0) * np.log(rho) + np.log(d_rho * (sig_out - sig_in) * a)
        # r^(m-1) s^(k-1) (rho^a/a) cos^(1/a-1) sigma^(a-1) in logs, with the rho factors above
        log_jac = (m / a - 1.0) * log_cos + (space.k - 1) * np.log(sin) + (a - 1.0) * np.log(sigma)
        log_jac += log_const + log_side
        return (r, s, rho, log_cos / a), log_jac

    return Region(box=((0.0, len(pieces)), (0.0, 1.0)), cuts=tuple(range(1, len(pieces)))), lift


# log 0, where |f| or |Df| is 0: q * _LOG_ZERO exponentiates to an exact 0
# for q > 0 and 0 * _LOG_ZERO to 1, where -inf would give 0 * -inf = nan
_LOG_ZERO = -1e300
_AXIS_NODES = 15  # integrate_vector's nodes per axis of a cell, axis 0 slowest


def _log_size(size: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """log of sizes >= 0, with _LOG_ZERO for log 0, into out if given (size broadcasts to it)."""
    out = np.empty(size.shape) if out is None else out
    out[...] = _LOG_ZERO
    return np.log(size, out=out, where=size > 0.0)


class _Batch:
    """What every field integrand shares on one batch, in real arithmetic:
    the nodes' (r, s, rho, log(r/rho)), rho on (M, 1) and the rest on (M, K);
    per modulus its |f| = m, partials m_r and m_rho (eval_modulus), Dm =
    (r/rho)^gamma (r m_r + rho m_rho)/rho (r and rho have degree 1 under the
    dilations) and, where a field has a phase, t = (r/rho)^gamma m; per field
    only its phase rate kappa and |Df|. A field is f = exp(i kappa rho) m, so
    Df = exp(i kappa rho) (Dm + i kappa t): |Df| = hypot(Dm, kappa t) and
    Re(Df/f) = Dm/m, and no array is complex.
    """

    def __init__(self, space: SpaceParams, coords, plan: "_Plan"):
        self.space, self.modulus, self.kappa = space, plan.modulus, [f.spec.phase_kappa for f in plan.fields]
        r, _, rho, _ = self.nodes = coords
        ratio = (r / rho) ** space.gamma
        self.moduli = [plan.fields[f].eval_modulus(r, rho) for f in dict.fromkeys(plan.first)]
        self.dm = [ratio / rho * (r * m_r + rho * m_rho) for _, m_r, m_rho in self.moduli]
        phases = list(zip(self.modulus, self.kappa))
        self.t = {u: ratio * self.moduli[u][0] for u, k in phases if k}
        self.abs_df = [np.hypot(self.dm[u], k * self.t[u]) if k else np.abs(self.dm[u]) for u, k in phases]

    def re_ratio(self, u: int) -> np.ndarray:
        """Re(Df/f) = Dm/m of modulus u's fields, with Dm where m is 0."""
        m = self.moduli[u][0]
        return self.dm[u] / np.where(m != 0.0, m, 1.0)

    def grad_sq(self, f: int) -> np.ndarray:
        """Euclidean |grad f|^2 of field slot f, from grad r . grad rho =
        (r/rho)^(2g+1), |grad rho|^2 = (r^(4g+2) + (1+g)^2 s^2)/rho^(4g+2) and
        the phase's |f_rho|^2 = m_rho^2 + kappa^2 m^2."""
        m, m_r, m_rho = self.moduli[self.modulus[f]]
        r, s, rho, _ = self.nodes
        g = self.space.gamma
        cross = m_r * m_rho * (r / rho) ** (2.0 * g + 1.0)
        grad_rho_sq = (r ** (4.0 * g + 2.0) + (1.0 + g) ** 2 * s**2) / rho ** (4.0 * g + 2.0)
        return m_r**2 + 2.0 * cross + (m_rho**2 + (self.kappa[f] * m) ** 2) * grad_rho_sq


def _eta_rows(b: _Batch, eta_p, mixed, min_form, f: int, p: float, v_root, w_root) -> None:
    # xi = v^(1/p) Df and w^(1/p) f share f's phase, so |eta| = |xi + w^(1/p) f|
    # = hypot(v^(1/p) Dm + w^(1/p) m, v^(1/p) kappa t)
    u, kappa = b.modulus[f], b.kappa[f]
    wf = w_root * b.moduli[u][0]
    eta = v_root * b.dm[u] + wf
    eta = np.hypot(eta, v_root * kappa * b.t[u]) if kappa else np.abs(eta)
    eta_p = np.power(eta, p, out=eta_p)
    with np.errstate(divide="ignore", invalid="ignore"):
        if mixed is not None:
            # (|xi| + |xi-eta|)^(p-2) |eta|^2 <= (|xi| + |xi-eta|)^p -> 0 with s
            s = v_root * b.abs_df[f] + wf
            mixed[:] = np.where(s > 0, s ** (p - 2.0) * eta**2, 0.0)
        if min_form is not None:
            # wf -> 0 makes wf^(p-2) |eta|^2 -> inf, so |eta|^p wins
            min_form[:] = np.where(wf > 0, np.minimum(eta_p, wf ** (p - 2.0) * eta**2), eta_p)


# The term table. A monomial term is c weight^e |f|^q |Df|^q' jac^j: term ->
# (weight, e, c, q, q', j) given its pair's p and the name's parameters (a
# name with parameters is (name, *params)). "K" is p h |f|^p, which a batch
# completes in place to cp's phase-free part K = p h G + (p-1) w|f|^p, with
# G = |f|^p Re(Df/f) = |f|^p Dm/m; a field's cp is then C_p(xi, eta) = K +
# v|Df|^p, its lhs (see cp.py). The roots are what the products read.
_V, _W, _PHI, _H = (WEIGHTS.index(name) for name in ("v", "w", "phi", "h"))
_MONOMIALS: Dict[str, Callable[..., tuple]] = {
    "lhs": lambda p: (_V, 1.0, 1.0, 0.0, p, 1.0),
    "w": lambda p: (_W, 1.0, 1.0, p, 0.0, 1.0),
    "K": lambda p: (_H, 1.0, p, p, 0.0, 1.0),
    "phi": lambda p: (_PHI, 1.0, 1.0, p, 0.0, 1.0),
    "w^e|f|^q": lambda p, e, q: (_W, e, 1.0, q, 0.0, 1.0),
    "mass": lambda p: (_V, 0.0, 1.0, 2.0, 0.0, 1.0),
    "v^(1/p)": lambda p: (_V, 1.0 / p, 1.0, 0.0, 0.0, 0.0),
    "w^(1/p)": lambda p: (_W, 1.0 / p, 1.0, 0.0, 0.0, 0.0),
}
# A product family -> (writer(batch, *rows, f, p, *roots), roots): it writes
# in place each row of the family that the case (field slot f, its pair's p)
# lists, gets None for the others, and gets the Jacobian after; the
# remainder rows share xi = v^(1/p) Df, xi - eta = -w^(1/p) f and eta.
_TERMS: Dict[Tuple[str, ...], Tuple[Callable[..., object], Tuple[str, ...]]] = {
    ("eta_p", "mixed", "min"): (_eta_rows, ("v^(1/p)", "w^(1/p)")),
    ("grad_sq",): (lambda b, row, f, p: np.copyto(row, b.grad_sq(f)), ()),
}
_FAMILY = {name: family for family in _TERMS for name in family}
# the monomial terms that read |f| and not Df (q' = 0), K too: fields with one modulus share them
_TWINS = {t for t, mono in _MONOMIALS.items() if mono(*[2.0] * mono.__code__.co_argcount)[4] == 0.0}

_IDENTITY = ("lhs", "w", "cp", "phi")  # lhs = w + cp + phi
_IDENTITY_KEYS = ("lhs", "w_term", "cp_term", "phi_term")  # their report keys
_PLT2_KINDS = ("c1_inf", "c2_sup", "c3_min")  # the constants of the 1 < p < 2 remainder bounds
_PLT2_MARGINS = ("lower_margin", "upper_margin", "min_margin")  # their bounds' margins


def _one_hot(on: np.ndarray, n: int, values: np.ndarray) -> np.ndarray:
    """(len(on), w n) columns that hold row i's w values in columns w on[i]
    to w on[i] + w - 1, and zeros elsewhere and where on[i] is -1."""
    return ((on[:, None] == np.arange(n))[:, :, None] * values[:, None]).reshape(len(on), n * values.shape[1])


def _index(rows: List[int]):
    """rows as a slice where they are consecutive, so that numpy indexes a view."""
    consecutive = rows == list(range(rows[0], rows[0] + len(rows)))
    return slice(rows[0], rows[-1] + 1) if consecutive else np.array(rows)


def _runs(keys: List[tuple], reads: Dict[tuple, tuple], row: Dict[tuple, int]) -> list:
    """keys, sorted by their slot (key[1]), in runs of one slot: each run's
    keys, its rows and the rows of what each of its keys reads, as slices
    where they are consecutive."""
    runs = []
    for _, run in groupby(keys, key=itemgetter(1)):
        cols = list(zip(*[(key, *reads[key]) for key in run]))
        runs.append((cols[0], *(_index([row[key] for key in col]) for col in cols)))
    return runs


class _Plan:
    """What every batch of one integration evaluates, resolved once from its
    cases (see _integrate_cases). A batch's rows are the products, the cp
    rows, the listed monomial terms by term and field slot, and last the
    hidden ones: the K, lhs and w that a cp reads where no case lists them,
    and the roots. A case's term is the row row(pair, field, name). A
    monomial term with q' = 0 reads |f| only, which fields that differ only
    in their phase share (a modulus), so it is one component per (pair,
    modulus), like K, which reads Re(Df/f) = Dm/m too; lhs, cp and the
    products read |Df| and are one per (pair, field), and each cp is its
    (pair, modulus)'s K plus its own lhs. A listed term whose |c|^e is 0 (phi
    where the pair's is) is none, and reads 0. The exponent table has a row
    per monomial term, on the features Phi = [1, log(r/rho), log rho,
    (log(R-rho), log log(R/rho)) per R that a row reads, log|f| per modulus,
    log|Df| per field, log jac].
    """

    def __init__(self, cases: Sequence[tuple]):
        self.fields = list({id(field): field for _, field, _ in cases}.values())
        self.slot = {id(field): i for i, field in enumerate(self.fields)}
        moduli = list(dict.fromkeys(field.modulus for field in self.fields))
        self.modulus = [moduli.index(field.modulus) for field in self.fields]  # of each field slot
        self.first = [self.modulus.index(u) for u in self.modulus]  # the first field slot of its modulus
        pairs = {id(pair): pair for pair, _, _ in cases}
        self.cases = [[self._key(id(pair), self.slot[id(field)], n) for n in ns] for pair, field, ns in cases]
        listed = dict.fromkeys(chain.from_iterable(self.cases))
        blocks: Dict[str, list] = {"": [], "cp": [], **{term: [] for term in _MONOMIALS}}  # "": the products
        hidden: Dict[str, list] = {term: [] for term in _MONOMIALS}
        for key in listed:
            term = key[2] if isinstance(key[2], str) else key[2][0]
            blocks["" if term in _FAMILY else term].append(key)
        # a cp reads its K and lhs, and a K its w
        reads = {(i, f, cp): (self._key(i, f, "K"), (i, f, "lhs")) for i, f, cp in blocks["cp"]}
        reads.update({(i, u, k): ((i, u, "w"),) for (i, u, k), _ in reads.values()})
        roots = [(i, -1, root) for i, _, name in blocks[""] for root in _TERMS[_FAMILY[name]][1]]
        needs = dict.fromkeys(chain(chain.from_iterable(reads.values()), roots))
        for key in (key for key in needs if key not in listed):
            hidden[key[2]].append(key)
        for block in (*blocks.values(), *hidden.values()):
            block.sort(key=itemgetter(1))
        keys = [key for block in (*blocks.values(), *hidden.values()) for key in block]
        self.products, self.head = len(blocks[""]), len(blocks[""]) + len(blocks["cp"])

        # table row n: e (log|c|, e1, e2), e (e3, e4) on its R's columns, q on its
        # modulus's, q' on its field's, j on log jac's, by array ops on the pairs
        keys, terms, index = keys[: self.head], keys[self.head :], {i: n for n, i in enumerate(pairs)}
        who, p = [index[i] for i, _, _ in terms], [pair.p for pair in pairs.values()]
        spec = [
            _MONOMIALS[name](p[n]) if isinstance(name, str) else _MONOMIALS[name[0]](p[n], *name[1:])
            for n, (_, _, name) in zip(who, terms)
        ]
        weight, e, c, q, dq, j = np.fromiter(chain.from_iterable(spec), float, 6 * len(spec)).reshape(-1, 6).T
        stack = np.array([pair.monomials for pair in pairs.values()])
        mono, radius = stack[who, weight.astype(int)], [pair.radius for pair in pairs.values()]
        reads_r = stack[:, :, 3:].any(axis=(1, 2))
        self.radii = list(dict.fromkeys(R for R, reads_R in zip(radius, reads_r) if reads_R))
        on_r = np.array([self.radii.index(R) if R in self.radii else -1 for R in radius])[who]
        on_f = np.array([f for _, f, _ in terms], dtype=int)  # a root's -1 reads no field
        n_r, n_u, n_f = len(self.radii), len(set(self.first)), len(self.fields)
        # k = |c|^e goes in as log k, a negative c (only phi's) as a sign flip; a row with
        # k = 0 is no component unless another row reads it, and then an exact 0 through log 0
        c = c * mono[:, 0]
        k = np.power(np.abs(c), e, out=np.full(len(spec), np.inf), where=(c != 0.0) | (e >= 0.0))
        keep = np.array([x != 0.0 or key in needs for x, key in zip(k.tolist(), terms)], bool)
        table = np.zeros((len(spec), 4 + 2 * n_r + n_u + n_f))
        table[:, 0] = _log_size(k)
        table[:, 1:3] = e[:, None] * mono[:, 1:3]
        table[:, 3 : 3 + 2 * n_r] = _one_hot(on_r, n_r, e[:, None] * mono[:, 3:])
        table[:, 3 + 2 * n_r : -1 - n_f] = _one_hot(np.array(self.modulus + [-1])[on_f], n_u, q[:, None])
        table[:, -1 - n_f : -1] = _one_hot(on_f, n_f, dq[:, None])
        table[:, -1] = j
        self.table, self.negative = table[keep], np.flatnonzero(c[keep] < 0.0)
        if len(self.table) == 1:  # numpy's one-row product takes gemv, whose last bits differ from gemm's
            self.table = np.vstack([self.table, self.table])
        keys += [key for key, kept in zip(terms, keep) if kept]
        row = {key: n for n, key in enumerate(keys)}
        self.component = {key: row.get(key) for key in listed}  # None: exactly 0
        self.n_components = sum(n is not None for n in self.component.values())

        steps: Dict[tuple, list] = {}  # (id(pair), slot, family) -> its rows
        for i, f, name in blocks[""]:
            family = _FAMILY[name]
            steps.setdefault((i, f, family), [None] * len(family))[family.index(name)] = row[i, f, name]
        self.steps = [
            (_TERMS[family][0], rows, f, pairs[i].p, [row[i, -1, r] for r in _TERMS[family][1]])
            for (i, f, family), rows in steps.items()
        ]
        # per modulus: its K rows, their w rows and p - 1; per field slot: its cp rows, their K and lhs rows
        self.k = [
            (self.modulus[run[0][1]], k, w, np.array([pairs[i].p - 1.0 for i, _, _ in run])[:, None])
            for run, k, w in _runs(hidden["K"], reads, row)
        ]
        self.cp = [rows for _, *rows in _runs(blocks["cp"], reads, row)]

    def _key(self, i: int, f: int, name) -> tuple:
        """The component key of a term on pair id i and field slot f: a _TWINS term's is its modulus's."""
        return i, self.first[f] if (name if isinstance(name, str) else name[0]) in _TWINS else f, name

    def row(self, pair: WeightPair, field: TestField, name) -> Optional[int]:
        """A case's term's row of rows(), or None for a term that is exactly 0."""
        return self.component[self._key(id(pair), self.slot[id(field)], name)]

    def rows(self, space: SpaceParams, coords, log_jac=0.0) -> np.ndarray:
        """Every component's row on the nodes' (r, s, rho, log(r/rho)) as lift
        gives them, rho (M, 1) and the rest (M, K), times exp(log_jac)."""
        b, (_, _, rho, log_ratio) = _Batch(space, coords, self), coords
        phi = np.empty((self.table.shape[1], *log_ratio.shape))
        phi[0], phi[1], phi[2], phi[-1] = 1.0, log_ratio, np.log(rho), log_jac
        for n, R in enumerate(self.radii):
            phi[3 + 2 * n : 5 + 2 * n] = log_features(rho[:, 0], rho[:, 0], R)[2:, :, None]
        for col, x in enumerate([m for m, _, _ in b.moduli] + b.abs_df, 3 + 2 * len(self.radii)):
            _log_size(x, phi[col])
        out = np.empty((self.head + len(self.table), log_ratio.size))
        table = np.matmul(self.table, phi.reshape(len(phi), -1), out=out[self.head :])
        np.exp(table, out=table)
        table[self.negative] *= -1.0
        for u, k, w, coef in self.k:
            out[k] *= b.re_ratio(u).reshape(-1)
            out[k] += coef * out[w]
        for cp, k, lhs in self.cp:
            np.add(out[k], out[lhs], out=out[cp])
        grid = out.reshape(len(out), *log_ratio.shape)
        for writer, rows, f, p, roots in self.steps:
            writer(b, *[None if k is None else grid[k] for k in rows], f, p, *grid[roots])
        grid[: self.products] *= np.exp(log_jac)
        return out[: self.n_components]


def _curve_field(plan: _Plan) -> Optional[TestField]:
    """The field whose D|f| = 0 curve _polar_pieces makes a piece edge, or
    None. |Df|^q kinks on that curve for 0 < q < 2, so it is cut only when a
    table row reads Df with such an exponent (lhs, and cp through its lhs),
    and only on one modulus with x_floor > 0 whose cutoff band lies below
    its falling window band, where the curve runs corner to corner."""
    field = plan.fields[0]
    if not 0.0 < 2.0 * field.spec.x_floor < field.rho_breaks()[2] or isinstance(field, ExtremalField):
        return None
    dq = plan.table[:, -1 - len(plan.fields) : -1]
    return field if len(set(plan.modulus)) == 1 and ((dq > 0.0) & (dq < 2.0)).any() else None


def _integrate_cases(cases: Sequence[tuple], settings: Optional[IntegrationSettings]) -> List[Dict]:
    """Integrate the terms of every case on one shared mesh.

    A case is one check's integrand on one field, (pair, field, names): the
    names of its terms in _MONOMIALS or _TERMS. The cases' fields share one
    space, x_floor and outer_rho (verify_checks groups them by these). Each
    component (_Plan._key) is integrated once however many cases list it,
    and every case that lists it reads its value and error (both 0 for a
    term that is exactly 0). Returns each case's results by term name.
    """
    space = cases[0][1].space
    plan = _Plan(cases)
    region, lift = _polar_pieces(plan.fields, _curve_field(plan))

    def integrand(nodes: np.ndarray) -> np.ndarray:
        # an overflow, division by zero or invalid operation outside the
        # kernels' own errstate blocks stops the run with a message, instead
        # of a stream of RuntimeWarnings ahead of the non-finite stop
        with float_faults("integrand", space):
            # a cell's nodes share tau in runs of _AXIS_NODES
            return plan.rows(space, *lift(nodes.reshape(-1, _AXIS_NODES, 2)))

    res = integrate_vector(integrand, plan.n_components, region, settings)
    zero = IntegralResult(0.0, 0.0, res[0].evals, True)
    found = {key: zero if n is None else res[n] for key, n in plan.component.items()}
    return [{n: found[key] for n, key in zip(ns, keys)} for (_, _, ns), keys in zip(cases, plan.cases)]


def _sides(left: Sequence, right: Sequence, constant: float = 1.0) -> Tuple[float, float, float]:
    """Both sides of prod(base^e) >= constant prod(base^e), over the (e, base,
    error) factors of left and right, and the slack of their difference: 10
    times the errors both sides propagate from their factors' own errors, a
    side times the sum of e error / base (each base floored at 1e-300), so it
    scales with the sides under a dilation."""
    sides = [c * math.prod(base**e for e, base, _ in f) for f, c in ((left, 1.0), (right, constant))]
    errors = [v * sum(e * err / max(base, 1e-300) for e, base, err in f) for v, f in zip(sides, (left, right))]
    return sides[0], sides[1], 10.0 * sum(errors)


@dataclass(frozen=True)
class _Spec:
    """A field check. start takes its verify_* function's arguments without
    settings, runs the precondition and constant searches, and returns the
    case, (pair, field, term names), and what verdict reads. verdict takes
    that, the terms' (value, error) in names order, their summed error and
    converged, and returns the report's own keys and the margins (a, b) that
    must hold, a >= b; a slack, 10 times the propagated quadrature error plus
    a constant's bracket width times its term, lowers b. The report's
    term_keys take the first terms' values, and residual reads the report's
    residual from its keys."""

    start: Callable[..., Tuple[tuple, object]]
    verdict: Callable[..., Tuple[Dict[str, object], List[Tuple[float, float]]]]
    term_keys: Tuple[str, ...]
    residual: Callable[[Dict[str, object]], float]


def _holds(margin: Tuple[float, float]) -> bool:
    return bool(margin[0] >= margin[1])


def _verdict(spec: _Spec, case: tuple, reads: object, res: Dict[object, IntegralResult]) -> Report:
    """A check's report from its case's integrals by term name: their summed
    error estimate (a term listed twice counts twice), converged when every
    one converged, and passed when, also, every margin of its verdict holds."""
    listed = [res[name] for name in case[2]]
    terms = [(float(r.value), r.error_estimate) for r in listed]
    qerr = float(sum([r.error_estimate for r in listed]))
    converged = all([r.converged for r in listed])
    keys, margins = spec.verdict(reads, terms, qerr, converged)
    for key, (value, _) in zip(spec.term_keys, terms):
        keys[key] = value
    passed = converged and all(map(_holds, margins))
    return Report(spec.residual(keys), **keys, quadrature_error=qerr, converged=converged, passed=passed)


def _identity_start(pair: WeightPair, field: TestField):
    _check_support(pair, field)
    return (pair, field, _IDENTITY), None


def _identity_verdict(_, terms, qerr, converged):
    (lhs, _), (w_term, _), (cp_term, _), (phi_term, _) = terms
    residual = lhs - w_term - cp_term - phi_term
    denom = max(lhs, w_term)
    keys = {"residual": residual, "rel_residual": residual / denom if denom > 0 else 0.0}
    return keys, [(max(10.0 * qerr, _IDENTITY_REL_TOL * lhs), abs(residual))]


def _inequality_start(pair: WeightPair, field: TestField):
    _check_support(pair, field)
    return (pair, field, ("lhs", "w")), None


def _inequality_verdict(_, terms, qerr, converged):
    (lhs, _), (w_term, _) = terms
    margin = lhs - w_term
    keys = {"ratio": lhs / w_term if w_term > 0 else float("nan"), "margin": margin}
    return keys, [(margin, -(10.0 * qerr))]


def _pge2_start(pair: WeightPair, field: TestField, constant: Optional[ConstantEstimate] = None):
    _check_remainder(pair, field, pair.p >= 2.0, "verify_remainder_p_ge2 needs p >= 2")
    if constant is None:
        constant = find_constant(CpObjectiveKind(kind="cp_pge2", p=pair.p))
    return (pair, field, ("cp", "eta_p")), (pair.p, constant)


def _pge2_verdict(reads, terms, qerr, converged):
    p, constant = reads
    (cp_term, _), (eta_term, _) = terms
    margin = cp_term - constant.value * eta_term
    keys = {"p": p, "constant": constant.value, "constant_bracket": constant.bracket, "margin": margin}
    return keys, [(margin, -(10.0 * qerr + constant.width * eta_term))]


def _plt2_start(pair: WeightPair, field: TestField, constants: Optional[Dict[str, ConstantEstimate]] = None):
    _check_remainder(pair, field, 1.0 < pair.p < 2.0, "verify_remainder_p_lt2 needs 1 < p < 2")
    if constants is None:
        constants = {kind: find_constant(CpObjectiveKind(kind=kind, p=pair.p)) for kind in _PLT2_KINDS}
    return (pair, field, ("cp", "mixed", "min")), (pair.p, *(constants[kind] for kind in _PLT2_KINDS))


def _plt2_verdict(reads, terms, qerr, converged):
    p, c1, c2, c3 = reads
    (cp_term, _), (mixed_term, _), (min_term, _) = terms
    margins = [
        (cp_term - c1.value * mixed_term, -(10.0 * qerr + c1.width * mixed_term)),
        (c2.value * mixed_term - cp_term, -(10.0 * qerr + c2.width * mixed_term)),
        (cp_term - c3.value * min_term, -(10.0 * qerr + c3.width * min_term)),
    ]
    keys = dict(zip(_PLT2_MARGINS, (margin for margin, _ in margins)))
    return {"p": p, "c1": c1.value, "c2": c2.value, "c3": c3.value, **keys}, margins


def _ckn_start(pair: WeightPair, field: TestField, ckn: CknParams):
    if abs(ckn.p - pair.p) > 1e-12:
        raise ValueError("CknParams p must match the pair's p")
    _check_support(pair, field)
    # with delta = 0, q = r and b = c, so both name one integral
    integrals = (("w^e|f|^q", ckn.b * ckn.q, ckn.q), ("w^e|f|^q", ckn.c * ckn.r, ckn.r))
    return (pair, field, _IDENTITY + integrals), (ckn, pair.p)


def _ckn_verdict(reads, terms, qerr, converged):
    ckn, p = reads
    (lhs, e_lhs), (w_term, _), (cp_term, e_cp), (phi_term, _), (int_q, e_q), (int_r, e_r) = terms
    bracket = lhs - cp_term
    mismatch = abs(bracket - (w_term + phi_term))
    left_b = (ckn.delta / p, max(bracket, 0.0), e_lhs + e_cp)
    left_q = ((1.0 - ckn.delta) / ckn.q, max(int_q, 0.0), e_q)
    left, right, slack = _sides([left_b, left_q], [(1.0 / ckn.r, max(int_r, 0.0), e_r)])
    margins = [(10.0 * qerr, mismatch), (left, right - slack)]
    keys = {"params": ckn, "bracket": bracket, "bracket_mismatch": mismatch, "left": left, "right": right}
    return {**keys, "consistent": _holds(margins[0])}, margins


def _hpw_start(case: str, p: float, field: TestField):
    if case not in HPW_PAIRS:
        raise ValueError(f"case must be one of {tuple(HPW_PAIRS)}")
    spec = PAIRS[HPW_PAIRS[case]]
    if p <= 1.0:
        raise ValueError("p must be > 1")
    if "R" in spec.defaults and not math.isfinite(field.spec.R):
        raise ValueError(f"{case} needs a field built with finite R")
    space, pp = field.space, p / (p - 1.0)
    pair = hpw_pair(case, space, p, field.spec.R)
    _check_support(pair, field)
    if pair.kappa == 0.0:
        raise ValueError(f"{case} is vacuous here: its constant |Q-p|/p is 0 at Q = p = {p:g}")
    garofalo_p2 = spec.hpw.garofalo and p == 2.0
    track_grad = garofalo_p2 and space.gamma == 0.0
    names = ("lhs", ("w^e|f|^q", -1.0 / (p - 1.0), pp), "mass") + (("grad_sq",) if track_grad else ())
    return (pair, field, names), (case, p, pp, pair.kappa, space, garofalo_p2)


def _hpw_verdict(reads, terms, qerr, converged):
    case, p, pp, constant, space, garofalo_p2 = reads
    grad, weight, mass = terms[:3]
    squares = [(2.0, *mass)]
    left, right, slack = _sides([(1.0 / p, *grad), (1.0 / pp, *weight)], [(1.0, *mass)], constant)
    margins = [(left, right - slack)]
    garofalo = classical = None
    if garofalo_p2:
        q_sq = ((space.Q - 2.0) / 2.0) ** 2
        g_left, g_right, g_slack = _sides([(1.0, *grad), (1.0, *weight)], squares, q_sq)
        margins.append((g_left, g_right - g_slack))
        garofalo = {"left": g_left, "right": g_right, "passed": converged and _holds(margins[-1])}
    if len(terms) > 3:  # grad_sq, for the classical gradient form at gamma = 0
        (full, e_full), n_sq = terms[3], (space.n - 2.0) ** 2 / 4.0
        c_left, c_right, c_slack = _sides([(1.0, full, e_full), (1.0, *weight)], squares, n_sq)
        margins += [(c_left, c_right - c_slack), (full, grad[0] - 10.0 * (e_full + grad[1]))]
        classical = {"grad_full": full, "left": c_left, "right": c_right, "dominates": _holds(margins[-1])}
        classical["passed"] = converged and _holds(margins[-2])
    keys = {"case": case, "p": p, "constant": constant, "left": left, "right": right}
    return {**keys, "garofalo": garofalo, "classical": classical}, margins


def _gap(keys: Dict[str, float]) -> float:  # the residual of a product inequality
    return keys["left"] - keys["right"]


FIELD_CHECKS: Dict[str, _Spec] = {
    "identity": _Spec(_identity_start, _identity_verdict, _IDENTITY_KEYS, itemgetter("residual")),
    "inequality": _Spec(_inequality_start, _inequality_verdict, ("lhs", "w_term"), itemgetter("margin")),
    "remainder_pge2": _Spec(_pge2_start, _pge2_verdict, ("cp_term", "eta_term"), itemgetter("margin")),
    "remainder_plt2": _Spec(
        _plt2_start,
        _plt2_verdict,
        ("cp_term", "mixed_term", "min_term"),
        lambda keys: min(map(keys.get, _PLT2_MARGINS)),
    ),
    "ckn": _Spec(_ckn_start, _ckn_verdict, _IDENTITY_KEYS, _gap),
    "hpw": _Spec(_hpw_start, _hpw_verdict, ("grad_term", "weight_term", "mass_term"), _gap),
}


def verify_checks(checks: Sequence[Tuple[str, tuple, Optional[IntegrationSettings]]]) -> List[Report]:
    """Run field checks on shared meshes and return their reports in order.

    Each check is (name, args, settings): a FIELD_CHECKS name, the arguments
    its verify_* function takes without settings, and its quadrature
    settings (None for the defaults). Every precondition and constant search
    runs before the first integration. The checks whose fields share a
    space, x_floor and outer_rho and whose settings agree share one mesh,
    whose batches evaluate |f|, its partials and Re(Df/f) once per modulus
    (fields that differ only in phase share one) and |Df| once per field. A
    term that several of its checks list, or that reads |f| only on fields
    of one modulus, is integrated once; one that is identically 0 (phi
    where the pair's is) reads 0 with error 0. A report's quadrature_error
    and converged come from its own terms, but every integral on a mesh
    steers it, so a check's values can differ, within its error, from
    another run's.
    """
    started = [FIELD_CHECKS[name].start(*args) for name, args, _ in checks]
    meshes: Dict[tuple, List[int]] = {}  # (space, x_floor, outer_rho, settings) -> its checks, in order
    for n, (((_, field, _), _), (*_, settings)) in enumerate(zip(started, checks)):
        mesh = (field.space, field.spec.x_floor, field.spec.outer_rho, settings or IntegrationSettings())
        meshes.setdefault(mesh, []).append(n)
    reports: List[Report] = [None] * len(checks)
    for (*_, settings), group in meshes.items():
        for n, res in zip(group, _integrate_cases([started[n][0] for n in group], settings)):
            reports[n] = _verdict(FIELD_CHECKS[checks[n][0]], *started[n], res)
    return reports


def verify_identity(
    pair: WeightPair,
    field: TestField,
    settings: Optional[IntegrationSettings] = None,
) -> Report:
    """Check lhs = w_term + cp_term + phi_term on one field."""
    return verify_checks([("identity", (pair, field), settings)])[0]


def verify_identity_sweep(
    cases: Sequence[Tuple[WeightPair, TestField]],
    settings: Optional[IntegrationSettings] = None,
) -> List[Report]:
    """Check the identity for many (pair, field) cases, on one shared mesh
    per space, x_floor and outer_rho (see verify_checks). Each report's four
    components are sampled at identical points, so the quadrature error
    still cancels inside its residual.
    """
    if not cases:
        raise ValueError("the sweep needs at least one case")
    return verify_checks([("identity", case, settings) for case in cases])


def verify_inequality(
    pair: WeightPair,
    field: TestField,
    settings: Optional[IntegrationSettings] = None,
) -> Report:
    """Check lhs >= w_term up to quadrature slack."""
    return verify_checks([("inequality", (pair, field), settings)])[0]


def verify_remainder_p_ge2(
    pair: WeightPair,
    field: TestField,
    settings: Optional[IntegrationSettings] = None,
    constant: Optional[ConstantEstimate] = None,
) -> Report:
    """Check cp_term >= c_p * eta_term for p >= 2 on a phi = 0 pair."""
    return verify_checks([("remainder_pge2", (pair, field, constant), settings)])[0]


def verify_remainder_p_lt2(
    pair: WeightPair,
    field: TestField,
    settings: Optional[IntegrationSettings] = None,
    constants: Optional[Dict[str, ConstantEstimate]] = None,
) -> Report:
    """Check the two-sided and min-form remainder bounds for 1 < p < 2."""
    return verify_checks([("remainder_plt2", (pair, field, constants), settings)])[0]


def sharpness_probe(
    pair: WeightPair,
    levels: int = 3,
    settings: Optional[IntegrationSettings] = None,
) -> Report:
    """Rayleigh ratios of truncated extremal fields, one per level.

    The profile is constant * exp(-kappa_eff tau) in the pair's natural
    radial coordinate, so the quotient reduces exactly to one-dimensional
    integrals of |S' - kappa_eff S|^p and S^p against the pair's tau
    weight; ratios approach sharp_constant = kappa_eff^p from above as the
    plateau widens.
    """
    if levels < 2:
        raise ValueError("levels must be >= 2")
    sharp = pair.sharp_constant
    ratios: List[float] = []
    errors: List[float] = []
    converged = True
    for level in range(levels):
        ext = build_extremal_field(pair, truncation_level=level)
        kappa = ext.kappa_eff

        def bundle(ts: np.ndarray, ext: ExtremalField = ext, kappa: float = kappa) -> np.ndarray:
            tau = ts[:, 0]
            s_val, s_der = ext.window(tau)
            om = ext.probe_weight(tau)
            num = np.abs(s_der - kappa * s_val) ** pair.p * om
            den = s_val**pair.p * om
            return np.stack([num, den])

        # cuts at the window's bands, which the plateau's nodes may miss
        region = Region(box=((0.0, ext.tau_hi),), cuts=(ext.band, ext.tau_hi - ext.band))
        res = integrate_vector(bundle, 2, region, settings)
        num, den = float(res[0].value), float(res[1].value)
        ratio = num / den
        err = (res[0].error_estimate + ratio * res[1].error_estimate) / den
        converged = converged and res[0].converged and res[1].converged
        ratios.append(ratio)
        errors.append(err)

    final_gap = (ratios[-1] - sharp) / sharp
    above = all(r >= sharp - 10.0 * e for r, e in zip(ratios, errors))
    monotone = all(b <= a + 10.0 * (ea + eb) for a, b, ea, eb in zip(ratios, ratios[1:], errors, errors[1:]))
    passed = converged and above and monotone and final_gap <= _SHARPNESS_GAP
    entries = [{"truncation_level": level, "rayleigh_ratio": ratio} for level, ratio in enumerate(ratios)]
    keys = {"levels": entries, "sharp_constant": sharp, "final_gap": final_gap}
    return Report(final_gap, **keys, quadrature_error=sum(errors), converged=converged, passed=passed)


def verify_ckn(
    pair: WeightPair,
    field: TestField,
    ckn: CknParams,
    settings: Optional[IntegrationSettings] = None,
) -> Report:
    """Check the interpolation inequality built on the identity bracket.

    B = lhs - cp_term equals w_term + phi_term by the identity (reported as
    bracket_mismatch); the inequality is
    B^(delta/p) * (int w^(b q) |f|^q)^((1-delta)/q) >= (int w^(c r) |f|^r)^(1/r).
    """
    return verify_checks([("ckn", (pair, field, ckn), settings)])[0]


def verify_hpw(
    case: str,
    p: float,
    field: TestField,
    settings: Optional[IntegrationSettings] = None,
) -> Report:
    """Check one of the three uncertainty-product displays.

    Each is its pair's CKN instance at the pair's display point (see
    weights.hpw_pair), (int v|Df|^p)^(1/p) (int w0^(-1/(p-1)) |f|^p')^(1/p')
    >= |kappa| int |f|^2 with p' = p/(p-1): ball_nch is nch_ball at the
    field's R, whole_dambrosio is dambrosio_power at alpha = p(1+gamma) and
    beta = gamma p, and log_ball is log_ball at alpha = p and the field's R,
    so |kappa| is (p-1)/p, |Q-p|/p or (p+1)/p. The display balances under
    the Grushin dilation at every p. For whole_dambrosio at p = 2 the squared
    (Garofalo-type) product is checked too, and at gamma = 0 also the
    classical gradient form it dominates.

    The point reads only gamma, p and the field's R, so the parameters of
    the CLI run's own pair, dambrosio_power's alpha and beta or log_ball's
    alpha, do not enter it, although the CLI's report echoes them.
    """
    return verify_checks([("hpw", (case, p, field), settings)])[0]
