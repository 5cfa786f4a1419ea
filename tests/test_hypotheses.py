import json

import numpy as np
import pytest

import plresonance as pl
from conftest import BENCH_F, BENCH_f, LOG_RATIONAL_F, LOG_RATIONAL_f, make_bench_spec, parse_u, parse_x
from oracles import sympy_limit_ll_ratio, sympy_limit_small_u
from plresonance.functional import ProblemSpec
from plresonance.hypotheses import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    SamplePlan,
    check_all,
    check_growth,
    check_h_regularity,
    check_landesman_lazer,
    check_subcritical_vanishing,
    check_theta_limsup,
)

POSITIVE_PLAN = SamplePlan(signs=(1.0,))


def make_spec(f, F, theta="0", mu="1", n=32, bc=pl.BCKind.DIRICHLET, **kwargs):
    mesh = pl.build_interval_mesh(0.0, 1.0, n)
    ep = pl.compute_first_eigenpair(mesh, 2.0, bc, seed=1)
    extra = {}
    if bc is pl.BCKind.NEUMANN:
        extra = {"g_expr": parse_u(kwargs.pop("g", "0")), "G_expr": parse_u(kwargs.pop("G", "0"))}
        hb = kwargs.pop("h_boundary", "0")
        extra["h_boundary_expr"] = parse_x(hb)
    spec = ProblemSpec(
        mesh,
        2.0,
        bc,
        f_expr=parse_u(f),
        F_expr=parse_u(F),
        theta_expr=parse_x(theta),
        mu_expr=parse_x(mu),
        h_expr=pl.parse("ln(t)", {"t"}),
        lambda1=ep.lambda1,
        **extra,
        **kwargs,
    )
    return spec, ep


# --- growth ----------------------------------------------------------------


def test_growth_bench_bounded_by_three(bench_128):
    spec, _ = bench_128
    rep = check_growth(spec, parse_x("3"), 0.0)
    assert rep.verdict == PASS


def test_growth_quadratic_fails_with_valid_witness():
    spec, _ = make_spec("u^2", "u^3/3")
    rep = check_growth(spec, parse_x("1"), 1.0)
    assert rep.verdict == FAIL
    w = rep.witness
    # the witness, re-evaluated independently, violates |f| <= a + c1 |u|
    assert abs(w["u"]) ** 2 > 1.0 + 1.0 * abs(w["u"])
    assert w["value"] > w["bound"]


def test_growth_zero_function_zero_bound():
    spec, _ = make_spec("0", "0")
    rep = check_growth(spec, parse_x("0"), 0.0)
    assert rep.verdict == PASS


def test_growth_neumann_checks_boundary_nonlinearity(neumann_bench_64):
    spec, _ = neumann_bench_64
    rep = check_growth(spec, parse_x("3"), 0.0)
    assert rep.verdict == PASS


def test_growth_inconclusive_on_domain_violation():
    spec, _ = make_spec(LOG_RATIONAL_f, LOG_RATIONAL_F, consistency_u_range=(-0.9, 2.0))
    rep = check_growth(spec, parse_x("2"), 1.0)  # default signs include negative u
    assert rep.verdict == INCONCLUSIVE
    assert "region" in rep.evidence


# --- theta limsup -----------------------------------------------------------


def test_theta_bench_passes_with_symbolic_limit(bench_128):
    spec, ep = bench_128
    rep = check_theta_limsup(spec, ep)
    assert rep.verdict == PASS
    oracle = sympy_limit_small_u(BENCH_F)  # = -2
    assert rep.evidence["limit_estimate_max"] == pytest.approx(oracle, abs=0.05)
    assert rep.evidence["theta_integral"] == pytest.approx(-2.0, rel=1e-6)


def test_theta_quadratic_fails():
    spec, ep = make_spec("2*u", "u^2", theta="0")
    rep = check_theta_limsup(spec, ep)
    assert rep.verdict == FAIL
    assert rep.witness["ratio_estimate"] == pytest.approx(2.0, abs=0.05)


def test_theta_positive_weight_fails_pointwise():
    spec, ep = make_spec(BENCH_f, BENCH_F, theta="1")
    rep = check_theta_limsup(spec, ep)
    assert rep.verdict == FAIL  # theta <= 0 violated


def test_theta_zero_weight_fails_integral():
    # estimate -2 <= 0 + 0.05 passes pointwise, but int theta |u1|^p = 0
    spec, ep = make_spec(BENCH_f, BENCH_F, theta="0")
    rep = check_theta_limsup(spec, ep)
    assert rep.verdict == FAIL
    assert "theta_integral" in rep.witness


def test_theta_neumann_gap_integral_and_zero_G(neumann_bench_64):
    spec, ep = neumann_bench_64
    rep = check_theta_limsup(spec, ep)
    assert rep.verdict == PASS
    assert rep.evidence["gap_integral"] > 0
    assert rep.evidence["g_zero_limit_max"] < 0.01


def test_theta_neumann_fails_on_boundary_term():
    # the interior passes; G/|u|^2 = 1/2 does not vanish at u = 0
    spec, ep = make_spec(BENCH_f, BENCH_F, bc=pl.BCKind.NEUMANN, g="u", G="u^2/2")
    rep = check_theta_limsup(spec, ep)
    assert rep.verdict == FAIL
    assert rep.evidence["gap_integral"] > 0
    assert rep.witness["ratio_estimate"] == pytest.approx(0.5, rel=1e-12)


# F = u^2 sin(ln|u|): p F/|u|^2 = 2 sin(ln|u|) keeps oscillating as u -> 0
OSCILLATING_F = "u^2*sin(ln(abs(u)))"
OSCILLATING_f = "2*u*sin(ln(abs(u))) + u*cos(ln(abs(u)))"


def test_theta_oscillating_ratio_inconclusive():
    spec, ep = make_spec(OSCILLATING_f, OSCILLATING_F, bc=pl.BCKind.NEUMANN)
    rep = check_theta_limsup(spec, ep)
    assert rep.verdict == INCONCLUSIVE
    assert rep.evidence["reason"] == "non-monotone small-u ratio tail"


def test_theta_oscillating_boundary_ratio_inconclusive():
    spec, ep = make_spec(BENCH_f, BENCH_F, bc=pl.BCKind.NEUMANN, g=OSCILLATING_f, G=OSCILLATING_F)
    rep = check_theta_limsup(spec, ep)
    assert rep.verdict == INCONCLUSIVE
    assert rep.evidence["reason"] == "non-monotone small-u G ratio"


# F = u^2 - u|u|: p F/|u|^2 is 0 for u > 0 and 4 for u < 0
ONE_SIDED_F = "u^2 - u*abs(u)"
ONE_SIDED_f = "2*u - 2*abs(u)"


@pytest.mark.parametrize("signs", [(1.0, -1.0), (-1.0, 1.0)], ids=["plus_first", "minus_first"])
def test_theta_witness_names_the_failing_sign(signs):
    spec, ep = make_spec(ONE_SIDED_f, ONE_SIDED_F, theta="1")
    rep = check_theta_limsup(spec, ep, SamplePlan(signs=signs))
    assert rep.verdict == FAIL
    assert rep.witness["u"] == -1e-8
    assert rep.witness["ratio_estimate"] == pytest.approx(4.0, abs=1e-9)


# --- subcritical vanishing ---------------------------------------------------


def test_vanishing_bench_passes(bench_128):
    spec, _ = bench_128
    rep = check_subcritical_vanishing(spec)
    assert rep.verdict == PASS
    assert rep.evidence["max_final_ratio"] < 0.01


def test_vanishing_log_rational_with_linear_term_fails():
    # F = ln(u+1) + c u^2 / 2 gives F/u^2 -> c/2
    spec, _ = make_spec(
        "1/(u+1) + 0.5*u", "ln(u+1) + 0.25*u^2", consistency_u_range=(-0.9, 2.0)
    )
    rep = check_subcritical_vanishing(spec, POSITIVE_PLAN)
    assert rep.verdict == FAIL
    assert rep.witness["ratio"] == pytest.approx(0.25, abs=0.01)
    # witness violates the sampled inequality when re-evaluated
    u = rep.witness["u"]
    F_val = pl.evaluate(parse_u("ln(u+1) + 0.25*u^2"), {"u": u})
    assert abs(F_val) / u**2 >= 0.01


def test_vanishing_zero_function_passes():
    spec, _ = make_spec("0", "0")
    assert check_subcritical_vanishing(spec).verdict == PASS


def test_vanishing_inconclusive_outside_domain():
    spec, _ = make_spec(LOG_RATIONAL_f, LOG_RATIONAL_F, consistency_u_range=(-0.9, 2.0))
    rep = check_subcritical_vanishing(spec)  # default signs sample u = -10^k
    assert rep.verdict == INCONCLUSIVE


def test_domain_region_reads_as_plain_numbers():
    spec, _ = make_spec(LOG_RATIONAL_f, LOG_RATIONAL_F, consistency_u_range=(-0.9, 2.0))
    assert check_subcritical_vanishing(spec).evidence["region"] == "F over u in [-1000000.0, -10.0]"
    assert check_landesman_lazer(spec).evidence["region"] == "f, F over u in [-1000000.0, -10.0]"


# --- h regularity ------------------------------------------------------------


def test_h_log_passes():
    rep = check_h_regularity(pl.parse("ln(t)", {"t"}))
    assert rep.verdict == PASS
    # ln(ab)/ln(b) = 1 + ln(a)/ln(b) -> 1 for every a > 0
    for est in rep.evidence["ratio_limits"].values():
        assert est == pytest.approx(1.0, abs=1e-9)
    # unboundedness samples: ln(1e6) ~ 13.8 > ln(1e2) ~ 4.6 + 1
    assert rep.evidence["h_high"] == pytest.approx(np.log(1e6), rel=1e-12)
    assert rep.evidence["h_low"] == pytest.approx(np.log(1e2), rel=1e-12)


def test_h_identity_fails_at_half():
    rep = check_h_regularity(pl.parse("t", {"t"}))
    assert rep.verdict == FAIL
    failing_a = {w["a"] for w in rep.witness["failing"]}
    assert 0.5 in failing_a
    half = next(w for w in rep.witness["failing"] if w["a"] == 0.5)
    assert half["ratio_estimate"] == pytest.approx(0.5, abs=1e-9)


def test_h_bounded_fails():
    rep = check_h_regularity(pl.parse("1 + 1/t", {"t"}))
    assert rep.verdict == FAIL
    assert rep.witness.get("kind") == "bounded"


def test_h_nonpositive_inconclusive():
    rep = check_h_regularity(pl.parse("-1", {"t"}))
    assert rep.verdict == INCONCLUSIVE


def test_h_oscillating_ratio_inconclusive():
    # h(0.1 b)/h(b) keeps oscillating; its liminf is about 0.36 < 1
    rep = check_h_regularity(pl.parse("ln(t)*(2+sin(ln(t)))", {"t"}))
    assert rep.verdict == INCONCLUSIVE
    assert 0.1 in rep.evidence["a"]
    json.dumps(rep.as_dict(), allow_nan=False)


# --- Landesman-Lazer ----------------------------------------------------------


def test_ll_bench_limit_matches_symbolic_oracle(bench_128):
    spec, _ = bench_128
    rep = check_landesman_lazer(spec)
    assert rep.verdict == PASS
    oracle = sympy_limit_ll_ratio(BENCH_F, BENCH_f)  # = 4
    assert rep.evidence["limit_estimate_min"] == pytest.approx(oracle, abs=0.05)
    assert rep.evidence["mu_integral"] == pytest.approx(4.0, rel=1e-9)


def test_ll_log_rational_limit_is_two():
    spec, _ = make_spec(
        LOG_RATIONAL_f, LOG_RATIONAL_F, mu="2", consistency_u_range=(-0.9, 2.0)
    )
    rep = check_landesman_lazer(spec, POSITIVE_PLAN)
    assert rep.verdict == PASS
    oracle = sympy_limit_ll_ratio(LOG_RATIONAL_F, LOG_RATIONAL_f)  # = 2
    assert rep.evidence["limit_estimate_min"] == pytest.approx(oracle, abs=0.05)


def test_ll_fails_when_mu_above_limit(bench_128):
    spec, ep = bench_128
    over = ProblemSpec(
        spec.mesh, 2.0, pl.BCKind.DIRICHLET,
        f_expr=parse_u(BENCH_f), F_expr=parse_u(BENCH_F),
        theta_expr=parse_x("-2"), mu_expr=parse_x("5"),
        h_expr=pl.parse("ln(t)", {"t"}), lambda1=spec.lambda1,
    )
    rep = check_landesman_lazer(over)
    assert rep.verdict == FAIL
    assert rep.witness["mu"] == 5.0
    assert rep.witness["ratio_estimate"] < 5.0 - 0.05


def test_ll_fails_on_nonpositive_mu_integral():
    spec, _ = make_spec(BENCH_f, BENCH_F, mu="-1")
    rep = check_landesman_lazer(spec)
    assert rep.verdict == FAIL


def test_ll_neumann_zero_boundary_data_passes(neumann_bench_64):
    spec, _ = neumann_bench_64
    rep = check_landesman_lazer(spec)
    assert rep.verdict == PASS
    assert rep.evidence["mu_integral"] > rep.evidence["h_boundary_integral"]


def test_ll_neumann_large_boundary_density_fails():
    spec, _ = make_spec(BENCH_f, BENCH_F, mu="4", bc=pl.BCKind.NEUMANN, h_boundary="3")
    rep = check_landesman_lazer(spec)
    # int mu = 4 must exceed the boundary integral 3 + 3 = 6: fails
    assert rep.verdict == FAIL


def test_ll_neumann_fails_on_boundary_liminf():
    # -(2G - g u)/ln u -> -2 < -h_boundary = 0, while the interior limit is 4 >= mu = 1
    spec, _ = make_spec(BENCH_f, BENCH_F, bc=pl.BCKind.NEUMANN, g="u/(1+u^2)", G="ln(1+u^2)/2")
    rep = check_landesman_lazer(spec)
    assert rep.verdict == FAIL
    assert rep.evidence["limit_estimate_min"] == pytest.approx(4.0, abs=0.05)
    assert rep.evidence["boundary_limit_min"] == pytest.approx(-2.0, abs=0.05)
    assert rep.witness["ratio_estimate"] == rep.evidence["boundary_limit_min"]


def test_ll_neumann_oscillating_boundary_tail_inconclusive():
    # -(2G - g u)/ln u has liminf -inf, but its decade samples end on 6.8e10
    spec, _ = make_spec(BENCH_f, BENCH_F, bc=pl.BCKind.NEUMANN, g="u*cos(u)", G="cos(u) + u*sin(u) - 1")
    rep = check_landesman_lazer(spec)
    assert rep.verdict == INCONCLUSIVE
    assert rep.evidence["function"] == "G"
    json.dumps(rep.as_dict(), allow_nan=False)


# the Landesman-Lazer ratio against ln tends to 6 as u -> +inf and to 2 as u -> -inf
ONE_SIDED_LL_F = "ln(1+u^2)*(1+0.5*tanh(u))"
ONE_SIDED_LL_f = "2*u/(1+u^2)*(1+0.5*tanh(u)) + 0.5*ln(1+u^2)*(1-tanh(u)^2)"


@pytest.mark.parametrize("signs", [(1.0, -1.0), (-1.0, 1.0)], ids=["plus_first", "minus_first"])
def test_ll_witness_names_the_failing_sign(signs):
    spec, _ = make_spec(ONE_SIDED_LL_f, ONE_SIDED_LL_F, mu="3")
    rep = check_landesman_lazer(spec, SamplePlan(signs=signs))
    assert rep.verdict == FAIL
    assert rep.witness["u"] == -1e6
    assert rep.witness["ratio_estimate"] == pytest.approx(2.0, abs=0.05)
    # the raw ratio at u = -1e6, re-evaluated independently
    u = -1e6
    F_val = pl.evaluate(parse_u(ONE_SIDED_LL_F), {"u": u})
    f_val = pl.evaluate(parse_u(ONE_SIDED_LL_f), {"u": u})
    assert rep.witness["ratio_at_largest_u"] == pytest.approx((2 * F_val - f_val * u) / np.log(1e6), rel=1e-12)


# --- aggregation and invariants -----------------------------------------------


def test_check_all_bench_passes_every_clause(bench_128):
    spec, ep = bench_128
    rep = check_all(spec, ep, parse_x("3"), 0.0)
    assert rep.overall == PASS
    assert [c.verdict for c in rep.clauses] == [PASS] * 5


def test_check_all_neumann_bench(neumann_bench_64):
    spec, ep = neumann_bench_64
    rep = check_all(spec, ep, parse_x("3"), 0.0)
    assert rep.overall == PASS


def test_check_all_neumann_2d():
    mesh = pl.build_rectangle_mesh((0, 1), (0, 1), 8, 8)
    ep = pl.compute_first_eigenpair(mesh, 2.0, pl.BCKind.NEUMANN, seed=1)
    assert ep.lambda1 == pytest.approx(np.pi**2, rel=0.05)  # cos(pi x) mode
    vars2 = {"x", "y", "u"}
    spat2 = {"x", "y"}
    spec = ProblemSpec(
        mesh, 2.0, pl.BCKind.NEUMANN,
        f_expr=pl.parse(BENCH_f, vars2), F_expr=pl.parse(BENCH_F, vars2),
        g_expr=pl.parse("0", vars2), G_expr=pl.parse("0", vars2),
        theta_expr=pl.parse("-2", spat2), mu_expr=pl.parse("4", spat2),
        h_expr=pl.parse("ln(t)", {"t"}), h_boundary_expr=pl.parse("0", spat2),
        lambda1=ep.lambda1,
    )
    rep = check_all(spec, ep, pl.parse("3", spat2), 0.0)
    assert rep.overall == PASS
    assert rep["landesman_lazer"].evidence["mu_integral"] == pytest.approx(4.0, rel=1e-9)
    assert rep["landesman_lazer"].evidence["h_boundary_integral"] == pytest.approx(0.0, abs=1e-12)


def test_overall_verdict_propagates_inconclusive():
    spec, ep = make_spec(LOG_RATIONAL_f, LOG_RATIONAL_F, mu="2", consistency_u_range=(-0.9, 2.0))
    rep = check_all(spec, ep, parse_x("2"), 1.0)  # default both signs: domain errors
    assert rep.overall in (FAIL, INCONCLUSIVE)
    assert any(c.verdict == INCONCLUSIVE for c in rep.clauses)


def test_reports_deterministic(bench_128):
    spec, ep = bench_128
    a = check_all(spec, ep, parse_x("3"), 0.0).as_dict()
    b = check_all(spec, ep, parse_x("3"), 0.0).as_dict()
    assert a == b


def test_growth_refinement_never_flips_fail_to_pass():
    # running minima only decrease: denser or wider sampling keeps failures
    spec, _ = make_spec("u^2", "u^3/3")
    coarse = SamplePlan(growth_points_per_decade=1)
    denser = SamplePlan(growth_points_per_decade=4)
    wider = SamplePlan(growth_range=(1e-8, 1e8), growth_points_per_decade=4)
    a_expr = parse_x("1")
    assert check_growth(spec, a_expr, 1.0, coarse).verdict == FAIL
    assert check_growth(spec, a_expr, 1.0, denser).verdict == FAIL
    assert check_growth(spec, a_expr, 1.0, wider).verdict == FAIL


def test_ll_running_min_decreases_under_refinement(bench_128):
    spec, _ = bench_128
    narrow = check_landesman_lazer(spec, SamplePlan(ll_range=(100.0, 1e6)))
    wide = check_landesman_lazer(spec, SamplePlan(ll_range=(10.0, 1e6)))
    assert wide.evidence["running_min"] <= narrow.evidence["running_min"] + 1e-12


def test_log_rational_antiderivative_identity():
    # 2F - f u = ln((u+1)^2) - u/(u+1) for f = 1/(u+1) + c u; the c-terms
    # cancel algebraically, so for c != 0 the float tolerance must absorb
    # the cancellation of the c u^2 terms
    lhs_template = "2*({F}) - ({f})*u"
    identity = parse_u("ln((u+1)^2) - u/(u+1)")
    for c in (0.0, 0.5):
        f_text = f"1/(u+1) + {c}*u"
        F_text = f"ln(u+1) + {c / 2}*u^2"
        lhs = parse_u(lhs_template.format(F=F_text, f=f_text))
        for u in 10.0 ** np.arange(1, 7):
            tol = 1e-9 + c * u * u * 1e-15
            assert pl.evaluate(lhs, {"u": float(u)}) == pytest.approx(
                pl.evaluate(identity, {"u": float(u)}), abs=tol
            )
