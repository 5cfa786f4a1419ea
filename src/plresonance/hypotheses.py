"""Sampled verification of the resonance hypotheses on the nonlinearity.

Each clause of the assumption set is checked numerically on a grid:
spatial points are the mesh nodes, and u is sampled geometrically
(decades 10^k).  Asymptotic conditions are undecidable from finitely
many samples, so every clause returns pass / fail / inconclusive
together with the evidence that produced the verdict; a fail always
carries a concrete witness, taken from the sign of u whose estimate
decides the verdict.

A clause samples each term of the problem the same way: (f, F) on the
mesh nodes and, for Neumann problems, (g, G) on the boundary nodes.

Limit estimation uses two devices:

* u -> 0 limits: the ratio sequence over u = 10^-k settles numerically
  before floating-point cancellation destroys it, so the estimate is the
  value at the most-settled consecutive pair; a monotone diverging tail
  is conclusive, anything else is inconclusive.
* |u| -> infinity quotients against h(|u|): for log-type growth the
  ratio behaves like L + c/ln|u|, so a least-squares fit in 1/ln|u| over
  the largest samples extrapolates the limit (the raw running minimum is
  recorded as evidence but converges too slowly to decide against).
  L + c/ln|u| is monotone in |u|, so a fit is only trusted when its
  four samples are monotone within 1e-12 relative slack and the fit
  residual is at most 0.5 (1 + |L|); otherwise the clause is
  inconclusive.

Fixed tolerances: 0.05 on limit estimates, 0.01 on vanishing tails,
1e-9 slack on pointwise growth bounds, 1e-6 margin on the integral
inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .eigen import EigenPair
from .functional import ProblemSpec
from .mesh import BCKind, boundary_integral, values_at_quad

__all__ = [
    "SamplePlan",
    "ClauseReport",
    "HypothesisReport",
    "check_growth",
    "check_theta_limsup",
    "check_subcritical_vanishing",
    "check_h_regularity",
    "check_landesman_lazer",
    "check_all",
    "PASS",
    "FAIL",
    "INCONCLUSIVE",
]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

LIMIT_TOL = 0.05
VANISH_TOL = 0.01
GROWTH_SLACK = 1e-9
INTEGRAL_MARGIN = 1e-6
MONOTONE_SLACK = 1e-12
ZERO_EXPONENT_MAX = 8  # the small-u clause samples |u| = 10^-1 ... 10^-8

H_RATIO_A_VALUES = (0.1, 0.5, 1.0, 2.0, 10.0)
H_RATIO_B_EXPONENTS = (2, 3, 4, 5, 6)

TAIL_FIT_REASON = "ratio tail does not follow a 1/ln(u) trend"


@dataclass(frozen=True)
class SamplePlan:
    """u-sampling ranges of the clauses; a run config chooses only the signs."""

    growth_range: tuple = (1e-6, 1e6)
    vanish_range: tuple = (10.0, 1e6)
    ll_range: tuple = (10.0, 1e6)
    signs: tuple = (1.0, -1.0)
    growth_points_per_decade: int = 2


@dataclass
class ClauseReport:
    clause: str
    verdict: str
    evidence: dict = field(default_factory=dict)
    witness: dict | None = None

    def as_dict(self) -> dict:
        d = {"clause": self.clause, "verdict": self.verdict, "evidence": self.evidence}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class HypothesisReport:
    clauses: list
    overall: str

    def as_dict(self) -> dict:
        return {"overall": self.overall, "clauses": [c.as_dict() for c in self.clauses]}

    def __getitem__(self, name: str) -> ClauseReport:
        for c in self.clauses:
            if c.clause == name:
                return c
        raise KeyError(name)


# --------------------------------------------------------------------------
# Sampling and limit-estimation helpers


def _array(values, shape: tuple) -> np.ndarray:
    """Evaluated values as a float array of ``shape``; a constant broadcasts."""
    return np.broadcast_to(np.asarray(values, dtype=float), shape)


class _Term(NamedTuple):
    """A nonlinearity and its antiderivative on the nodes where they act."""

    small: str  # "f" or "g"
    big: str  # "F" or "G"
    f: object  # (coords, u) -> values
    F: object
    coords: dict  # flat coordinates of the rows
    on_boundary: bool

    @property
    def rows(self) -> int:
        return len(next(iter(self.coords.values())))

    def at_rows(self, expression: ex.Expression) -> np.ndarray:
        return _array(ex.evaluate(expression, self.coords), (self.rows,))

    def sample(self, fn, us: np.ndarray) -> np.ndarray:
        """``fn(x, u)`` for every row x and sample u, shape (rows, len(us))."""
        xs = {k: v[:, None] for k, v in self.coords.items()}
        return _array(fn(xs, us[None, :]), (self.rows, len(us)))

    def witness(self, row: int, **values) -> dict:
        return {**{k: float(v[row]) for k, v in self.coords.items()}, **values}


def _terms(spec: ProblemSpec) -> list:
    """(f, F) on the mesh nodes, then for Neumann problems (g, G) on the boundary nodes."""
    terms = [_Term("f", "F", spec.f, spec.F, spec.node_coords, False)]
    if spec.bc_kind is BCKind.NEUMANN:
        terms.append(_Term("g", "G", spec.g, spec.G, spec.boundary_coords, True))
    return terms


def _decade_values(lo: float, hi: float) -> np.ndarray:
    if not (0 < lo < hi):
        raise ValueError(f"invalid sample range ({lo}, {hi})")
    k0 = int(np.ceil(np.log10(lo) - 1e-9))
    k1 = int(np.floor(np.log10(hi) + 1e-9))
    if k1 - k0 < 2:
        raise ValueError(f"sample range ({lo}, {hi}) spans fewer than three decades")
    return 10.0 ** np.arange(k0, k1 + 1)


def _geom_values(lo: float, hi: float, per_decade: int) -> np.ndarray:
    if not (0 < lo < hi):
        raise ValueError(f"invalid sample range ({lo}, {hi})")
    count = max(3, int(round((np.log10(hi) - np.log10(lo)) * per_decade)) + 1)
    return np.geomspace(lo, hi, count)


def _settled_estimates(seq: np.ndarray):
    """Classify u->limit sequences row-wise.

    Returns (estimate, settled, diverging); rows neither settled nor
    monotonically diverging are oscillatory and should be reported
    inconclusive.  ``seq`` has shape (rows, K) ordered toward the limit.
    """
    seq = np.atleast_2d(seq)
    d = np.diff(seq, axis=-1)
    ad = np.abs(d)
    j = np.argmin(ad, axis=-1)
    est = np.take_along_axis(seq, (j + 1)[:, None], axis=-1)[:, 0]
    mind = np.take_along_axis(ad, j[:, None], axis=-1)[:, 0]
    settled = mind <= 0.01 * (1.0 + np.abs(est))
    tail = d[:, -3:]
    sign_last = np.sign(tail[:, -1])
    same_sign = (np.sign(tail) == sign_last[:, None]).all(axis=-1) & (sign_last != 0)
    growing = (np.abs(tail[:, 1:]) >= np.abs(tail[:, :-1])).all(axis=-1)
    diverging = ~settled & same_sign & growing
    est = np.where(settled, est, seq[:, -1])
    return est, settled, diverging


def _log_tail_fit(us: np.ndarray, seq: np.ndarray):
    """Least-squares extrapolation of seq ~ L + c/ln(u) over the tail.

    Uses the last four samples.  Returns (limit, fit_residual, trusted)
    per row; the residual is the max deviation of the fitted line, and
    a row is trusted when the residual is at most 0.5 (1 + |limit|) and
    its four samples are monotone within MONOTONE_SLACK.
    """
    seq = np.atleast_2d(seq)
    npts = min(4, len(us))
    x = 1.0 / np.log(us[-npts:])
    a_mat = np.column_stack([np.ones(npts), x])
    pinv = np.linalg.pinv(a_mat)  # (2, npts)
    y = seq[:, -npts:]
    coef = y @ pinv.T  # (rows, 2)
    fit = coef @ a_mat.T
    res = np.max(np.abs(fit - y), axis=-1)
    d = np.diff(y, axis=-1)
    slack = MONOTONE_SLACK * (1.0 + np.abs(y[:, :-1]))
    monotone = (d >= -slack).all(axis=-1) | (d <= slack).all(axis=-1)
    trusted = monotone & (res <= 0.5 * (1.0 + np.abs(coef[:, 0])))
    return coef[:, 0], res, trusted


def _inconclusive(clause: str, err: ex.DomainError, where: str) -> ClauseReport:
    return ClauseReport(
        clause,
        INCONCLUSIVE,
        evidence={"reason": "expression undefined on the sampled range", "detail": str(err), "region": where},
    )


# --------------------------------------------------------------------------
# Clause checks


def check_growth(spec: ProblemSpec, a_expr: ex.Expression, c1: float, plan: SamplePlan = SamplePlan()) -> ClauseReport:
    """|f(x, u)| <= a(x) + c1 |u|^(p-1) at every sampled (x, u), with slack.

    For Neumann problems the same bound is required of g on the boundary.
    """
    if c1 < 0:
        raise ValueError("growth constant c1 must be nonnegative")
    clause = "growth"
    us = _geom_values(*plan.growth_range, plan.growth_points_per_decade)
    us = np.concatenate([s * us for s in plan.signs])
    max_margin = -np.inf
    samples = 0
    for term in _terms(spec):
        try:
            a_vals = term.at_rows(a_expr)
            f_vals = np.abs(term.sample(term.f, us))
        except ex.DomainError as err:
            return _inconclusive(clause, err, f"{term.small} over u in {plan.growth_range}")
        bound = a_vals[:, None] + c1 * np.abs(us[None, :]) ** (spec.p - 1) + GROWTH_SLACK
        excess = f_vals - bound
        samples += excess.size
        max_margin = max(max_margin, float(excess.max()))
        if np.any(excess > 0):
            row, col = np.unravel_index(int(np.argmax(excess)), excess.shape)
            witness = term.witness(
                row, u=float(us[col]), value=float(f_vals[row, col]), bound=float(bound[row, col]), function=term.small
            )
            return ClauseReport(clause, FAIL, {"max_excess": float(excess.max()), "samples": samples}, witness)
    return ClauseReport(clause, PASS, {"max_excess": max_margin, "samples": samples})


def check_theta_limsup(spec: ProblemSpec, eigenpair: EigenPair, plan: SamplePlan = SamplePlan()) -> ClauseReport:
    """limsup_{u->0} p F(x, u)/|u|^p <= theta(x), plus the sign conditions.

    Dirichlet: theta <= 0 pointwise and int theta |u1|^p dx < 0.
    Neumann: theta <= lambda1 pointwise, int (lambda1 - theta) |w|^p dx > 0,
    and G(x, u)/|u|^p -> 0 as u -> 0 on the boundary.
    """
    clause = "theta_limsup"
    if spec.theta_expr is None:
        raise ValueError("theta expression is required for the small-u clause")
    if spec.bc_kind is BCKind.NEUMANN and spec.lambda1 is None:
        raise ValueError("the Neumann small-u clause needs lambda1 from the eigen solve")
    mesh = spec.mesh
    p = spec.p
    us = 10.0 ** (-np.arange(1, ZERO_EXPONENT_MAX + 1, dtype=float))
    terms = _terms(spec)
    theta_vals = terms[0].at_rows(spec.theta_expr)
    evidence = {}
    for term in terms:
        # interior: limsup p F/|u|^p <= theta; boundary: |G|/|u|^p -> 0
        estimates = []
        for s in plan.signs:
            try:
                big = term.sample(term.F, s * us)
            except ex.DomainError as err:
                return _inconclusive(clause, err, f"{term.big} near u = {s}*0")
            ratios = (np.abs(big) if term.on_boundary else p * big) / us[None, :] ** p
            est, settled, diverging = _settled_estimates(ratios)
            bad = ~(settled | diverging)
            if np.any(bad):
                reason = "non-monotone small-u G ratio" if term.on_boundary else "non-monotone small-u ratio tail"
                where = term.witness(int(np.argmax(bad)), sign=s)
                return ClauseReport(clause, INCONCLUSIVE, {"reason": reason, **where})
            estimates.append(est)
        side = np.argmax(estimates, axis=0)  # the sign whose estimate binds at each row
        est = np.max(estimates, axis=0)
        u_binding = np.asarray(plan.signs)[side] * us[-1]

        if term.on_boundary:
            evidence["g_zero_limit_max"] = float(est.max())
            if np.any(est >= VANISH_TOL):
                row = int(np.argmax(est))
                witness = term.witness(row, u=float(u_binding[row]), ratio_estimate=float(est[row]))
                return ClauseReport(clause, FAIL, evidence, witness)
            continue

        gap = est - (theta_vals + LIMIT_TOL)
        if np.any(gap > 0):
            row = int(np.argmax(gap))
            witness = term.witness(
                row, u=float(u_binding[row]), ratio_estimate=float(est[row]), theta=float(theta_vals[row])
            )
            return ClauseReport(clause, FAIL, {"max_gap": float(gap.max())}, witness)

        ceiling = 0.0 if spec.bc_kind is BCKind.DIRICHLET else spec.lambda1
        above = theta_vals - ceiling
        if np.any(above > 0):
            row = int(np.argmax(above))
            witness = term.witness(row, theta=float(theta_vals[row]), ceiling=float(ceiling))
            return ClauseReport(clause, FAIL, {"theta_max": float(theta_vals.max()), "ceiling": float(ceiling)}, witness)

        theta_q = _array(ex.evaluate(spec.theta_expr, spec.quad_coords), mesh.quad_weights.shape)
        u1q = np.abs(values_at_quad(mesh, eigenpair.u1.values)) ** p
        evidence = {"limit_estimate_max": float(est.max()), "limit_estimate_min": float(est.min())}
        if spec.bc_kind is BCKind.DIRICHLET:
            integral = float((mesh.quad_weights * theta_q * u1q).sum())
            evidence["theta_integral"] = integral
            if not integral < -INTEGRAL_MARGIN:
                return ClauseReport(clause, FAIL, evidence, {"theta_integral": integral, "required": f"< -{INTEGRAL_MARGIN}"})
        else:
            integral = float((mesh.quad_weights * (spec.lambda1 - theta_q) * u1q).sum())
            evidence["gap_integral"] = integral
            if not integral > INTEGRAL_MARGIN:
                return ClauseReport(clause, FAIL, evidence, {"gap_integral": integral, "required": f"> {INTEGRAL_MARGIN}"})
    return ClauseReport(clause, PASS, evidence)


def check_subcritical_vanishing(spec: ProblemSpec, plan: SamplePlan = SamplePlan()) -> ClauseReport:
    """F(x, u)/|u|^p -> 0 as |u| -> infinity (and G/|u|^p for Neumann).

    Pass requires the sampled ratio |F|/|u|^p to be non-increasing along
    the tail and below 0.01 at the final sample.
    """
    clause = "subcritical_vanishing"
    us = _decade_values(*plan.vanish_range)
    p = spec.p
    worst_final = 0.0
    for term in _terms(spec):
        for s in plan.signs:
            try:
                big = term.sample(term.F, s * us)
            except ex.DomainError as err:
                return _inconclusive(clause, err, f"{term.big} over u in {sorted((s * us[[0, -1]]).tolist())}")
            ratios = np.abs(big) / us[None, :] ** p
            growth = np.diff(ratios, axis=-1) > MONOTONE_SLACK * (1.0 + ratios[:, :-1])
            if np.any(growth):
                row, col = np.unravel_index(int(np.argmax(growth)), growth.shape)
                witness = term.witness(
                    row,
                    u=float(s * us[col + 1]),
                    ratio=float(ratios[row, col + 1]),
                    previous_ratio=float(ratios[row, col]),
                    function=term.big,
                    kind="tail_growth",
                )
                return ClauseReport(clause, FAIL, {"max_final_ratio": float(ratios[:, -1].max())}, witness)
            final = ratios[:, -1]
            worst_final = max(worst_final, float(final.max()))
            if np.any(final >= VANISH_TOL):
                row = int(np.argmax(final))
                witness = term.witness(
                    row, u=float(s * us[-1]), ratio=float(final[row]), function=term.big, kind="tail_value"
                )
                return ClauseReport(clause, FAIL, {"max_final_ratio": float(final.max())}, witness)
    return ClauseReport(clause, PASS, {"max_final_ratio": worst_final})


def check_h_regularity(h_expr: ex.Expression) -> ClauseReport:
    """h : R+ -> R+ with h(a b)/h(b) -> (>= 1) as b -> infinity, h unbounded.

    For each fixed a the ratio sequence over b = 10^k is extrapolated in
    1/ln(b); the clause needs every extrapolated limit >= 1 - 0.05 and
    h(10^6) > h(10^2) + 1.
    """
    clause = "h_regularity"
    bs = 10.0 ** np.asarray(H_RATIO_B_EXPONENTS, dtype=float)
    a_vals = np.asarray(H_RATIO_A_VALUES)
    try:
        h_b = _array(ex.evaluate(h_expr, {"t": bs}), bs.shape)
        h_ab = _array(ex.evaluate(h_expr, {"t": a_vals[:, None] * bs[None, :]}), (len(a_vals), len(bs)))
    except ex.DomainError as err:
        return ClauseReport(clause, INCONCLUSIVE, {"reason": "h undefined on the sampled range", "detail": str(err)})
    if np.any(h_b <= 0) or np.any(h_ab <= 0):
        return ClauseReport(clause, INCONCLUSIVE, {"reason": "h is not positive on the sampled range"})
    ratios = h_ab / h_b[None, :]
    est, _, trusted = _log_tail_fit(bs, ratios)
    if not trusted.all():
        return ClauseReport(clause, INCONCLUSIVE, {"reason": TAIL_FIT_REASON, "a": a_vals[~trusted].tolist()})
    evidence = {
        "ratio_limits": {str(a): float(e) for a, e in zip(a_vals, est)},
        "h_low": float(h_b[0]),
        "h_high": float(h_b[-1]),
    }
    failing = est < 1.0 - LIMIT_TOL
    if np.any(failing):
        bad = [
            {"a": float(a), "ratio_estimate": float(e), "ratio_at_largest_b": float(r)}
            for a, e, r, is_bad in zip(a_vals, est, ratios[:, -1], failing)
            if is_bad
        ]
        return ClauseReport(clause, FAIL, evidence, {"failing": bad})
    if not h_b[-1] > h_b[0] + 1.0:
        return ClauseReport(
            clause, FAIL, evidence, {"h_at_100": float(h_b[0]), "h_at_1e6": float(h_b[-1]), "kind": "bounded"}
        )
    return ClauseReport(clause, PASS, evidence)


def check_landesman_lazer(spec: ProblemSpec, plan: SamplePlan = SamplePlan()) -> ClauseReport:
    """liminf (p F - f u)/h(|u|) >= mu(x) plus the integral inequality.

    Dirichlet needs int mu dx > 0.  Neumann adds the boundary condition
    liminf -(p G - g u)/h(|u|) >= -h_boundary(x) and requires
    int mu dx > int_bdry h_boundary ds.
    """
    clause = "landesman_lazer"
    if spec.mu_expr is None or spec.h_expr is None:
        raise ValueError("mu and h expressions are required for the Landesman-Lazer clause")
    mesh = spec.mesh
    p = spec.p
    us = _decade_values(*plan.ll_range)
    try:
        h_us = _array(ex.evaluate(spec.h_expr, {"t": us}), us.shape)
    except ex.DomainError as err:
        return _inconclusive(clause, err, f"h over t in {plan.ll_range}")
    if np.any(h_us <= 0):
        return ClauseReport(clause, INCONCLUSIVE, {"reason": "h is not positive on the sampled range"})

    evidence = {}
    for term in _terms(spec):
        if term.on_boundary:  # liminf -(p G - g u)/h >= -h_boundary
            weight_name, weight_expr, orient = "h_boundary", spec.h_boundary_expr, -1.0
        else:  # liminf (p F - f u)/h >= mu
            weight_name, weight_expr, orient = "mu", spec.mu_expr, 1.0
        weight = np.zeros(term.rows) if weight_expr is None else term.at_rows(weight_expr)
        ratios, limits, residuals = [], [], []
        for s in plan.signs:
            su = s * us
            try:
                r = orient * (p * term.sample(term.F, su) - term.sample(term.f, su) * su[None, :]) / h_us[None, :]
            except ex.DomainError as err:
                return _inconclusive(clause, err, f"{term.small}, {term.big} over u in {sorted(su[[0, -1]].tolist())}")
            limit, residual, trusted = _log_tail_fit(us, r)
            if not trusted.all():
                where = term.witness(int(np.argmin(trusted)), sign=s, function=term.big)
                return ClauseReport(clause, INCONCLUSIVE, {"reason": TAIL_FIT_REASON, **where})
            ratios.append(r)
            limits.append(limit)
            residuals.append(residual)
        side = np.argmin(limits, axis=0)  # the sign whose estimate binds at each row
        liminf = np.min(limits, axis=0)
        if term.on_boundary:
            evidence["boundary_limit_min"] = float(liminf.min())
        else:
            evidence.update(
                limit_estimate_min=float(liminf.min()),
                limit_estimate_max=float(liminf.max()),
                running_min=float(np.min(ratios)),
                fit_residual_max=float(np.max(residuals)),
            )

        margin = liminf - (orient * weight - LIMIT_TOL)
        if np.any(margin < 0):
            row = int(np.argmin(margin))
            witness = term.witness(
                row,
                u=float(plan.signs[side[row]] * us[-1]),
                ratio_estimate=float(liminf[row]),
                ratio_at_largest_u=float(ratios[side[row]][row, -1]),
                **{weight_name: float(weight[row])},
            )
            return ClauseReport(clause, FAIL, evidence, witness)

        if term.on_boundary:
            weight_full = np.zeros(mesh.node_count)
            weight_full[mesh.boundary_nodes] = weight
            evidence["h_boundary_integral"] = boundary_integral(mesh, weight_full)
        else:
            weight_q = _array(ex.evaluate(spec.mu_expr, spec.quad_coords), mesh.quad_weights.shape)
            evidence["mu_integral"] = float((mesh.quad_weights * weight_q).sum())

    integrals = {k: evidence[k] for k in ("mu_integral", "h_boundary_integral") if k in evidence}
    if not evidence["mu_integral"] - evidence.get("h_boundary_integral", 0.0) > INTEGRAL_MARGIN:
        return ClauseReport(
            clause, FAIL, evidence, {**integrals, "required": f"mu_integral - h_boundary_integral > {INTEGRAL_MARGIN}"}
        )
    return ClauseReport(clause, PASS, evidence)


def check_all(
    spec: ProblemSpec,
    eigenpair: EigenPair,
    a_expr: ex.Expression,
    c1: float,
    plan: SamplePlan = SamplePlan(),
) -> HypothesisReport:
    """Run every clause for the problem's boundary condition."""
    clauses = [
        check_growth(spec, a_expr, c1, plan),
        check_theta_limsup(spec, eigenpair, plan),
        check_subcritical_vanishing(spec, plan),
        check_h_regularity(spec.h_expr),
        check_landesman_lazer(spec, plan),
    ]
    verdicts = {c.verdict for c in clauses}
    overall = FAIL if FAIL in verdicts else (INCONCLUSIVE if INCONCLUSIVE in verdicts else PASS)
    return HypothesisReport(clauses=clauses, overall=overall)
