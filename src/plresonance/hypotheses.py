"""Sampled verification of the resonance hypotheses on the nonlinearity.

Each clause of the assumption set is checked numerically on a grid:
spatial points are the mesh nodes, and u is sampled geometrically
(decades 10^k).  Asymptotic conditions are undecidable from finitely
many samples, so every clause returns pass / fail / inconclusive
together with the evidence that produced the verdict; a fail always
carries a concrete witness.

Limit estimation uses two devices:

* u -> 0 limits: the ratio sequence over u = 10^-k settles numerically
  before floating-point cancellation destroys it, so the estimate is the
  value at the most-settled consecutive pair; a monotone diverging tail
  is conclusive, anything else is inconclusive.
* |u| -> infinity quotients against h(|u|): for log-type growth the
  ratio behaves like L + c/ln|u|, so a least-squares fit in 1/ln|u| over
  the largest samples extrapolates the limit (the raw running minimum is
  recorded as evidence but converges too slowly to decide against).

Fixed tolerances: 0.05 on limit estimates, 0.01 on vanishing tails,
1e-9 slack on pointwise growth bounds, 1e-6 margin on the integral
inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class SamplePlan:
    """u-sampling ranges, configurable per clause."""

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

    Uses the last four samples.  Returns (limit, slope, fit_residual)
    per row; the residual is the max deviation of the fitted line.
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
    return coef[:, 0], coef[:, 1], res


def _node_xs(spec: ProblemSpec) -> dict:
    return {k: v[:, None] for k, v in spec.node_coords.items()}


def _boundary_xs(spec: ProblemSpec) -> dict:
    return {k: v[:, None] for k, v in spec.boundary_coords.items()}


def _at_nodes(spec: ProblemSpec, expression: ex.Expression, coords: dict, count: int) -> np.ndarray:
    vals = ex.evaluate(expression, coords)
    return np.broadcast_to(np.asarray(vals, dtype=float), (count,)).copy()


def _witness_coords(spec: ProblemSpec, coords: dict, row: int) -> dict:
    return {k: float(v[:, 0][row]) for k, v in coords.items()}


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
    checks = [("f", spec.f_expr, _node_xs(spec), spec.node_coords)]
    if spec.bc_kind is BCKind.NEUMANN:
        checks.append(("g", spec.g_expr, _boundary_xs(spec), spec.boundary_coords))
    max_margin = -np.inf
    samples = 0
    for name, fn_expr, xs, flat_coords in checks:
        n_rows = len(next(iter(flat_coords.values())))
        try:
            a_vals = _at_nodes(spec, a_expr, flat_coords, n_rows)
            f_vals = np.abs(
                np.broadcast_to(
                    np.asarray(ex.evaluate(fn_expr, {**xs, "u": us[None, :]}), dtype=float),
                    (n_rows, len(us)),
                )
            )
        except ex.DomainError as err:
            return _inconclusive(clause, err, f"{name} over u in {plan.growth_range}")
        bound = a_vals[:, None] + c1 * np.abs(us[None, :]) ** (spec.p - 1) + GROWTH_SLACK
        excess = f_vals - bound
        samples += excess.size
        max_margin = max(max_margin, float(excess.max()))
        if np.any(excess > 0):
            row, col = np.unravel_index(int(np.argmax(excess)), excess.shape)
            witness = _witness_coords(spec, xs, row)
            witness.update(
                {
                    "u": float(us[col]),
                    "value": float(f_vals[row, col]),
                    "bound": float(bound[row, col]),
                    "function": name,
                }
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
    xs = _node_xs(spec)
    n_nodes = mesh.node_count

    theta_vals = _at_nodes(spec, spec.theta_expr, spec.node_coords, n_nodes)
    estimates = np.full(n_nodes, -np.inf)
    any_oscillatory = None
    for s in plan.signs:
        try:
            f_big = np.broadcast_to(
                np.asarray(spec.F(xs, s * us[None, :]), dtype=float), (n_nodes, len(us))
            )
        except ex.DomainError as err:
            return _inconclusive(clause, err, f"F near u = {s}*0")
        ratios = p * f_big / us[None, :] ** p
        est, settled, diverging = _settled_estimates(ratios)
        bad = ~(settled | diverging)
        if np.any(bad) and any_oscillatory is None:
            row = int(np.argmax(bad))
            any_oscillatory = {"x": _witness_coords(spec, xs, row), "sign": s}
        estimates = np.maximum(estimates, est)
    if any_oscillatory is not None:
        return ClauseReport(
            clause,
            INCONCLUSIVE,
            evidence={"reason": "non-monotone small-u ratio tail", **any_oscillatory["x"], "sign": any_oscillatory["sign"]},
        )

    gap = estimates - (theta_vals + LIMIT_TOL)
    if np.any(gap > 0):
        row = int(np.argmax(gap))
        witness = _witness_coords(spec, xs, row)
        witness.update({"u": float(plan.signs[0] * us[-1]), "ratio_estimate": float(estimates[row]), "theta": float(theta_vals[row])})
        return ClauseReport(clause, FAIL, {"max_gap": float(gap.max())}, witness)

    ceiling = 0.0 if spec.bc_kind is BCKind.DIRICHLET else spec.lambda1
    above = theta_vals - ceiling
    if np.any(above > 0):
        row = int(np.argmax(above))
        witness = _witness_coords(spec, xs, row)
        witness.update({"theta": float(theta_vals[row]), "ceiling": float(ceiling)})
        return ClauseReport(clause, FAIL, {"theta_max": float(theta_vals.max()), "ceiling": float(ceiling)}, witness)

    theta_q = np.broadcast_to(
        np.asarray(ex.evaluate(spec.theta_expr, spec.quad_coords), dtype=float), mesh.quad_weights.shape
    )
    u1q = np.abs(values_at_quad(mesh, eigenpair.u1.values)) ** p
    evidence = {"limit_estimate_max": float(estimates.max()), "limit_estimate_min": float(estimates.min())}
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
        # boundary term must be flat at zero: G(x, u)/|u|^p -> 0
        bxs = _boundary_xs(spec)
        nb = len(spec.boundary_coords["x"])
        g_est = np.full(nb, -np.inf)
        for s in plan.signs:
            try:
                g_big = np.broadcast_to(np.asarray(spec.G(bxs, s * us[None, :]), dtype=float), (nb, len(us)))
            except ex.DomainError as err:
                return _inconclusive(clause, err, f"G near u = {s}*0")
            ratios = np.abs(g_big) / us[None, :] ** p
            est, settled, diverging = _settled_estimates(ratios)
            if np.any(~(settled | diverging)):
                row = int(np.argmax(~(settled | diverging)))
                return ClauseReport(
                    clause, INCONCLUSIVE, evidence={"reason": "non-monotone small-u G ratio", **_witness_coords(spec, bxs, row)}
                )
            g_est = np.maximum(g_est, est)
        evidence["g_zero_limit_max"] = float(g_est.max())
        if np.any(g_est >= VANISH_TOL):
            row = int(np.argmax(g_est))
            witness = _witness_coords(spec, bxs, row)
            witness.update({"ratio_estimate": float(g_est[row])})
            return ClauseReport(clause, FAIL, evidence, witness)
    return ClauseReport(clause, PASS, evidence)


def check_subcritical_vanishing(spec: ProblemSpec, plan: SamplePlan = SamplePlan()) -> ClauseReport:
    """F(x, u)/|u|^p -> 0 as |u| -> infinity (and G/|u|^p for Neumann).

    Pass requires the sampled ratio |F|/|u|^p to be non-increasing along
    the tail and below 0.01 at the final sample.
    """
    clause = "subcritical_vanishing"
    us = _decade_values(*plan.vanish_range)
    p = spec.p
    checks = [("F", spec.F, _node_xs(spec))]
    if spec.bc_kind is BCKind.NEUMANN:
        checks.append(("G", spec.G, _boundary_xs(spec)))
    worst_final = 0.0
    for name, fn, xs in checks:
        n_rows = len(next(iter(xs.values())))
        for s in plan.signs:
            try:
                big = np.broadcast_to(np.asarray(fn(xs, s * us[None, :]), dtype=float), (n_rows, len(us)))
            except ex.DomainError as err:
                return _inconclusive(clause, err, f"{name} over u in {sorted((s * us[0], s * us[-1]))}")
            ratios = np.abs(big) / us[None, :] ** p
            growth = np.diff(ratios, axis=-1) > MONOTONE_SLACK * (1.0 + ratios[:, :-1])
            if np.any(growth):
                row, col = np.unravel_index(int(np.argmax(growth)), growth.shape)
                witness = _witness_coords(spec, xs, row)
                witness.update(
                    {
                        "u": float(s * us[col + 1]),
                        "ratio": float(ratios[row, col + 1]),
                        "previous_ratio": float(ratios[row, col]),
                        "function": name,
                        "kind": "tail_growth",
                    }
                )
                return ClauseReport(clause, FAIL, {"max_final_ratio": float(ratios[:, -1].max())}, witness)
            final = ratios[:, -1]
            worst_final = max(worst_final, float(final.max()))
            if np.any(final >= VANISH_TOL):
                row = int(np.argmax(final))
                witness = _witness_coords(spec, xs, row)
                witness.update(
                    {"u": float(s * us[-1]), "ratio": float(final[row]), "function": name, "kind": "tail_value"}
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
        h_b = np.broadcast_to(np.asarray(ex.evaluate(h_expr, {"t": bs}), dtype=float), bs.shape)
        h_ab = np.broadcast_to(
            np.asarray(ex.evaluate(h_expr, {"t": a_vals[:, None] * bs[None, :]}), dtype=float),
            (len(a_vals), len(bs)),
        )
    except ex.DomainError as err:
        return ClauseReport(clause, INCONCLUSIVE, {"reason": "h undefined on the sampled range", "detail": str(err)})
    if np.any(h_b <= 0) or np.any(h_ab <= 0):
        return ClauseReport(clause, INCONCLUSIVE, {"reason": "h is not positive on the sampled range"})
    ratios = h_ab / h_b[None, :]
    est, slope, fit_res = _log_tail_fit(bs, ratios)
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
        h_us = np.broadcast_to(np.asarray(ex.evaluate(spec.h_expr, {"t": us}), dtype=float), us.shape)
    except ex.DomainError as err:
        return _inconclusive(clause, err, f"h over t in {plan.ll_range}")
    if np.any(h_us <= 0):
        return ClauseReport(clause, INCONCLUSIVE, {"reason": "h is not positive on the sampled range"})

    xs = _node_xs(spec)
    n_nodes = mesh.node_count
    mu_vals = _at_nodes(spec, spec.mu_expr, spec.node_coords, n_nodes)

    liminf_est = np.full(n_nodes, np.inf)
    running_min = np.inf
    worst_fit = 0.0
    last_raw = None
    for s in plan.signs:
        try:
            su = s * us[None, :]
            f_big = np.broadcast_to(np.asarray(spec.F(xs, su), dtype=float), (n_nodes, len(us)))
            f_small = np.broadcast_to(np.asarray(ex.evaluate(spec.f_expr, {**xs, "u": su}), dtype=float), (n_nodes, len(us)))
        except ex.DomainError as err:
            return _inconclusive(clause, err, f"f, F over u in {sorted((s * us[0], s * us[-1]))}")
        ratios = (p * f_big - f_small * su) / h_us[None, :]
        est, slope, fit_res = _log_tail_fit(us, ratios)
        liminf_est = np.minimum(liminf_est, est)
        running_min = min(running_min, float(ratios.min()))
        worst_fit = max(worst_fit, float(fit_res.max()))
        last_raw = ratios[:, -1]
    if worst_fit > 0.5 * (1.0 + float(np.max(np.abs(liminf_est)))):
        return ClauseReport(
            clause, INCONCLUSIVE, {"reason": "ratio tail does not follow a 1/ln(u) trend", "fit_residual": worst_fit}
        )

    evidence = {
        "limit_estimate_min": float(liminf_est.min()),
        "limit_estimate_max": float(liminf_est.max()),
        "running_min": running_min,
        "fit_residual_max": worst_fit,
    }
    margin = liminf_est - (mu_vals - LIMIT_TOL)
    if np.any(margin < 0):
        row = int(np.argmin(margin))
        witness = _witness_coords(spec, xs, row)
        witness.update(
            {
                "u": float(plan.signs[0] * us[-1]),
                "ratio_estimate": float(liminf_est[row]),
                "ratio_at_largest_u": float(last_raw[row]),
                "mu": float(mu_vals[row]),
            }
        )
        return ClauseReport(clause, FAIL, evidence, witness)

    mu_q = np.broadcast_to(np.asarray(ex.evaluate(spec.mu_expr, spec.quad_coords), dtype=float), mesh.quad_weights.shape)
    mu_integral = float((mesh.quad_weights * mu_q).sum())
    evidence["mu_integral"] = mu_integral

    if spec.bc_kind is BCKind.DIRICHLET:
        if not mu_integral > INTEGRAL_MARGIN:
            return ClauseReport(clause, FAIL, evidence, {"mu_integral": mu_integral, "required": f"> {INTEGRAL_MARGIN}"})
        return ClauseReport(clause, PASS, evidence)

    # Neumann: boundary liminf and the corrected integral inequality
    bxs = _boundary_xs(spec)
    nb = len(spec.boundary_coords["x"])
    if spec.h_boundary_expr is None:
        hb_vals = np.zeros(nb)
    else:
        hb_vals = _at_nodes(spec, spec.h_boundary_expr, spec.boundary_coords, nb)
    b_est = np.full(nb, np.inf)
    for s in plan.signs:
        try:
            su = s * us[None, :]
            g_big = np.broadcast_to(np.asarray(spec.G(bxs, su), dtype=float), (nb, len(us)))
            g_small = np.broadcast_to(np.asarray(ex.evaluate(spec.g_expr, {**bxs, "u": su}), dtype=float), (nb, len(us)))
        except ex.DomainError as err:
            return _inconclusive(clause, err, f"g, G over u in {sorted((s * us[0], s * us[-1]))}")
        ratios = -(p * g_big - g_small * su) / h_us[None, :]
        est, _, fit_res = _log_tail_fit(us, ratios)
        b_est = np.minimum(b_est, est)
    evidence["boundary_limit_min"] = float(b_est.min())
    b_margin = b_est - (-hb_vals - LIMIT_TOL)
    if np.any(b_margin < 0):
        row = int(np.argmin(b_margin))
        witness = _witness_coords(spec, bxs, row)
        witness.update({"ratio_estimate": float(b_est[row]), "h_boundary": float(hb_vals[row])})
        return ClauseReport(clause, FAIL, evidence, witness)

    hb_full = np.zeros(mesh.node_count)
    hb_full[mesh.boundary_nodes] = hb_vals
    hb_integral = boundary_integral(mesh, hb_full)
    evidence["h_boundary_integral"] = hb_integral
    if not mu_integral - hb_integral > INTEGRAL_MARGIN:
        return ClauseReport(
            clause,
            FAIL,
            evidence,
            {"mu_integral": mu_integral, "h_boundary_integral": hb_integral, "required": "mu integral larger"},
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
