import json
import math

import numpy as np
import pytest

import plresonance as pl
from conftest import BENCH_F, BENCH_f, bench_config_text, make_bench_spec, parse_u, parse_x, random_admissible
from plresonance import cli
from plresonance.functional import ProblemSpec, energy, weak_gradient, dual_norm
from plresonance.mesh import Field, sobolev_norm_1p
from plresonance.functional import CeramiRecord
from plresonance.mpsolve import (
    DegeneratePathError,
    GeometryCertificateError,
    LowPointNotFound,
    certify_ring,
    detect_ps_violation,
    find_low_point,
    mountain_pass,
    verify_solution,
)


def make_spec(f, F, n=64, bc=pl.BCKind.DIRICHLET, **kwargs):
    mesh = pl.build_interval_mesh(0.0, 1.0, n)
    ep = pl.compute_first_eigenpair(mesh, 2.0, bc, seed=1)
    extra = {}
    if bc is pl.BCKind.NEUMANN:
        extra = {"g_expr": parse_u("0"), "G_expr": parse_u("0")}
    spec = ProblemSpec(mesh, 2.0, bc, f_expr=parse_u(f), F_expr=parse_u(F), lambda1=ep.lambda1, **extra, **kwargs)
    return spec, ep


# --- find_low_point ----------------------------------------------------------


def test_low_point_tail_dominant_toy():
    # F with a linear tail: -int F beats the cancelled quadratic part
    spec, ep = make_spec("u/sqrt(1+u^2)", "sqrt(1+u^2) - 1")
    e = find_low_point(spec, ep, a_max=1e3, steps=40)
    assert energy(spec, e) <= 0.0
    assert sobolev_norm_1p(e, 2.0) > 0


def test_low_point_bench_ray(bench_128):
    spec, ep = bench_128
    e = find_low_point(spec, ep, a_max=1e3, steps=48, min_norm=1.0)
    assert energy(spec, e) <= 0.0
    assert sobolev_norm_1p(e, 2.0) > 1.0
    # direct ray-scan oracle: the returned point lies on the eigenray
    ratio = e.values[spec.mesh.interior_nodes] / ep.u1.values[spec.mesh.interior_nodes]
    assert np.allclose(ratio, ratio[0], rtol=1e-9)


def test_low_point_not_found_diagnostic():
    # F = -u^2 makes I(a u1) = +a^2 ||u1||^2 > 0 on the whole ray
    spec, ep = make_spec("-2*u", "-u^2")
    with pytest.raises(LowPointNotFound) as err:
        find_low_point(spec, ep, a_max=100.0, steps=16)
    trace = err.value.trace
    assert len(trace) == 2 * 16  # both signs scanned
    assert all(e_val > 0 for _, e_val, _ in trace)


def test_low_point_neumann_scans_constants(neumann_bench_64):
    spec, ep = neumann_bench_64
    e = find_low_point(spec, ep, a_max=1e3, steps=40)
    assert np.ptp(e.values) == 0.0  # constant field
    assert energy(spec, e) <= 0.0


def test_low_point_rejects_bad_amax(bench_128):
    spec, ep = bench_128
    with pytest.raises(ValueError):
        find_low_point(spec, ep, a_max=-1.0)


# --- certify_ring --------------------------------------------------------------


def test_certificate_bench(bench_128):
    spec, ep = bench_128
    cert = certify_ring(spec, ep, (0.05, 0.1, 0.2, 0.5, 1.0), seed=3)
    assert cert.a_estimate > 0
    assert energy(spec, cert.e) <= 0.0
    assert sobolev_norm_1p(cert.e, 2.0) > cert.rho
    assert cert.sphere_samples > 0
    # trace records one sampled minimum per radius
    assert [r for r, _ in cert.ring_trace] == [0.05, 0.1, 0.2, 0.5, 1.0]
    assert all(m > 0 for _, m in cert.ring_trace)


def test_certificate_fails_for_positive_theta():
    # F = u^2: along the eigenray I(t u1) = -t^2 ||u1||^2 < 0 at every rho
    spec, ep = make_spec("2*u", "u^2")
    with pytest.raises(GeometryCertificateError) as err:
        certify_ring(spec, ep, (0.05, 0.1, 0.5), seed=3)
    assert all(m < 0 for _, m in err.value.ring_trace)
    assert "best pairs" in str(err.value)


def test_certificate_fails_for_degenerate_resonance():
    # F = 0: I(t u1) = 0 exactly, so no sphere has a positive minimum
    spec, ep = make_spec("0", "0")
    with pytest.raises(GeometryCertificateError):
        certify_ring(spec, ep, (0.1, 0.5), seed=3)


def test_certificate_rejects_empty_grid(bench_128):
    spec, ep = bench_128
    with pytest.raises(ValueError):
        certify_ring(spec, ep, ())


def test_certificate_selects_largest_positive_rho(bench_128):
    spec, ep = bench_128
    cert = certify_ring(spec, ep, (0.05, 0.2, 1.0), seed=3)
    assert cert.rho == 1.0


# --- mountain_pass ---------------------------------------------------------------


@pytest.fixture(scope="module")
def bench_solve_64():
    spec, ep = make_bench_spec(n=64)
    cert = certify_ring(spec, ep, (0.05, 0.1, 0.2, 0.5, 1.0), seed=3)
    result = mountain_pass(spec, cert.e, path_nodes=21, tol=1e-6, max_iter=20_000)
    return spec, ep, cert, result


def test_mountain_pass_converges(bench_solve_64):
    spec, _, cert, result = bench_solve_64
    assert result.converged
    assert result.residual <= 1e-6
    assert result.norm > 1e-2
    assert result.level > 0


def test_level_ordering(bench_solve_64):
    # I(0) = 0 < a <= c and I(e) <= 0
    spec, _, cert, result = bench_solve_64
    assert energy(spec, Field.zeros(spec.mesh)) == 0.0
    assert 0 < cert.a_estimate <= result.level + 1e-6
    assert energy(spec, cert.e) <= 0.0


def test_path_phase_max_energy_monotone(bench_solve_64):
    _, _, _, result = bench_solve_64
    path = result.cerami_history[: result.path_iterations]
    for prev, cur in zip(path, path[1:]):
        assert cur.energy <= prev.energy + 1e-12


def test_cerami_history_bookkeeping(bench_solve_64):
    _, _, _, result = bench_solve_64
    assert len(result.cerami_history) == result.iterations
    for rec in result.cerami_history:
        assert np.isfinite([rec.energy, rec.residual, rec.measure, rec.norm]).all()
        assert rec.measure == (1.0 + rec.norm) * rec.residual
    final = result.cerami_history[-1]
    assert final.measure <= (1.0 + result.norm) * 1e-6
    # iterate norms stay bounded on the converged run
    assert max(r.norm for r in result.cerami_history) < 1e3


def test_polish_stops_when_residual_stalls(bench_solve_64):
    # below tol = 1e-16 the residual stalls at rounding level; a step that
    # leaves it unchanged must end the polish, not be recorded until max_iter
    spec, _, cert, _ = bench_solve_64
    result = mountain_pass(spec, cert.e, path_nodes=21, tol=1e-16, max_iter=300)
    assert not result.converged
    assert result.iterations < 50
    records = result.cerami_history
    assert all(a != b for a, b in zip(records, records[1:]))


def test_mountain_pass_rejects_zero_e(bench_128):
    spec, _ = bench_128
    with pytest.raises(ValueError):
        mountain_pass(spec, Field.zeros(spec.mesh))


def test_mountain_pass_rejects_positive_e(bench_128):
    spec, ep = bench_128
    high = Field(spec.mesh, 0.2 * ep.u1.values)  # I > 0 near zero
    assert energy(spec, high) > 0
    with pytest.raises(ValueError):
        mountain_pass(spec, high)


def test_mountain_pass_unconverged_flagged(bench_128):
    spec, ep = bench_128
    e = find_low_point(spec, ep, min_norm=1.0)
    result = mountain_pass(spec, e, path_nodes=11, tol=1e-12, max_iter=12)
    assert not result.converged
    assert result.iterations == 12
    assert len(result.cerami_history) == 12


def test_converged_run_reports_bounded_norms(bench_solve_64):
    _, _, _, result = bench_solve_64
    assert result.max_iterate_norm == max(r.norm for r in result.cerami_history)
    assert np.isfinite(result.max_iterate_norm)
    assert not result.ps_violation


def test_resonant_forcing_stalls_with_bounded_norms():
    # forcing along the eigenfunction leaves no critical point; the run
    # must come back flagged non-converged with finite reported norms
    spec, ep = make_spec("sin(pi*x)", "u*sin(pi*x)", n=48)
    e = find_low_point(spec, ep, a_max=100.0, steps=24)
    result = mountain_pass(spec, e, path_nodes=11, tol=1e-6, max_iter=300)
    assert not result.converged
    assert np.isfinite(result.max_iterate_norm)
    assert result.residual > 1e-6


def _records(norms, measures):
    return [CeramiRecord(energy=0.0, residual=m / (1 + n), measure=m, norm=n) for n, m in zip(norms, measures)]


def test_ps_violation_detector():
    grow = np.geomspace(1.0, 100.0, 40)
    flat = np.full(40, 0.5)
    # diverging norms with measure bounded away from zero: flagged
    assert detect_ps_violation(_records(grow, flat), converged=False, tol=1e-6)
    # same history but converged: not flagged
    assert not detect_ps_violation(_records(grow, flat), converged=True, tol=1e-6)
    # diverging norms with vanishing measure: a genuine Cerami sequence
    assert not detect_ps_violation(_records(grow, np.geomspace(1, 1e-9, 40)), converged=False, tol=1e-6)
    # bounded norms: not flagged
    assert not detect_ps_violation(_records(flat, flat), converged=False, tol=1e-6)
    # too short to judge
    assert not detect_ps_violation(_records(grow[:10], flat[:10]), converged=False, tol=1e-6)


def test_neumann_mountain_pass_finds_constant_state(neumann_bench_64):
    # f vanishes at u = 1, so the constant one-field is an exact critical
    # point with level (1 - ln 2) |Omega|
    spec, ep = neumann_bench_64
    cert = certify_ring(spec, ep, (0.05, 0.1, 0.2, 0.5), seed=3)
    result = mountain_pass(spec, cert.e, path_nodes=21, tol=1e-6, max_iter=20_000)
    assert result.converged
    assert result.level == pytest.approx((1.0 - math.log(2.0)), rel=1e-6)
    assert np.ptp(result.u_star.values) < 1e-6
    assert abs(abs(np.mean(result.u_star.values)) - 1.0) < 1e-6


# --- verify_solution ---------------------------------------------------------------


def test_verify_zero_field_trivial(bench_128):
    spec, _ = bench_128
    rec = verify_solution(spec, Field.zeros(spec.mesh))
    assert rec.residual == 0.0  # f(x, 0) = 0 for the test nonlinearity
    assert not rec.nontrivial
    assert not rec.passed


def test_verify_converged_output(bench_solve_64):
    spec, _, _, result = bench_solve_64
    rec = verify_solution(spec, result.u_star)
    assert rec.passed
    assert rec.residual == pytest.approx(result.residual, rel=1e-9)


def test_verify_random_fields_fail_residual(bench_128):
    spec, _ = bench_128
    rng = np.random.default_rng(21)
    for _ in range(100):
        u = random_admissible(spec.mesh, pl.BCKind.DIRICHLET, rng)
        rec = verify_solution(spec, u)
        assert rec.residual > 1e-3


def test_no_critical_point_fails_fast():
    # the resonant forcing above leaves no critical point; with a budget of
    # 2000 iterations the run must give up long before spending it
    spec, ep = make_spec("sin(pi*x)", "u*sin(pi*x)", n=48)
    e = find_low_point(spec, ep, a_max=100.0, steps=24)
    result = mountain_pass(spec, e, path_nodes=11, tol=1e-6, max_iter=2000)
    assert not result.converged
    assert result.iterations < 100
    assert len(result.cerami_history) == result.iterations
    assert np.isfinite(result.max_iterate_norm)


def test_ps_violation_detector_one_step_escape():
    bounded = [0.33] * 12
    # the last iterate jumps far past every earlier one, measure still up
    assert detect_ps_violation(_records(bounded + [1298.0], [0.3] * 12 + [292.0]), converged=False, tol=1e-6)
    # the same jump with the measure below tolerance is a Cerami sequence
    assert not detect_ps_violation(_records(bounded + [1298.0], [0.3] * 12 + [1e-9]), converged=False, tol=1e-6)
    # a jump of less than an order of magnitude is not enough to judge
    assert not detect_ps_violation(_records(bounded + [3.0], [0.3] * 13), converged=False, tol=1e-6)
    assert not detect_ps_violation(_records([1298.0], [292.0]), converged=False, tol=1e-6)


def test_ps_violation_detector_lingering_escape():
    # the run leaves for norm ~640 and stays out for a few records with the
    # residual stuck, so its last norm is not above every earlier one
    bounded = [0.33] * 10
    escaped = [642.0, 644.0, 643.9]
    measures = [0.3] * 10 + [145.0] * 3
    assert detect_ps_violation(_records(bounded + escaped, measures), converged=False, tol=1e-6)
    # the same escape ending with the measure below tolerance is not flagged
    assert not detect_ps_violation(_records(bounded + escaped, measures[:-1] + [1e-9]), converged=False, tol=1e-6)
    # nor is one that comes back to the bounded region
    assert not detect_ps_violation(_records(bounded + escaped + [0.4], measures + [0.3]), converged=False, tol=1e-6)


def test_no_critical_point_flags_ps_violation():
    # the setup of test_no_critical_point_fails_fast: the last Newton step
    # leaves for norm ~1e3 with the residual unchanged
    spec, ep = make_spec("sin(pi*x)", "u*sin(pi*x)", n=48)
    e = find_low_point(spec, ep, a_max=100.0, steps=24)
    result = mountain_pass(spec, e, path_nodes=11, tol=1e-6, max_iter=2000)
    assert not result.converged
    assert result.ps_violation


# --- geometry on the Neumann bench problem, 32x32 square ---------------------------

# ring_trace of the geometry stage, seed 7, from the sphere descent that
# started every line search at t = 1 and always ran its forty halvings
NEUMANN_SQUARE_RING_TRACE = [
    (0.05, 0.0012501392615019951),
    (0.1, 0.005000557042273374),
    (0.2, 0.020002228109340648),
    (0.5, 0.12501392306946155),
]


def neumann_square_config_text(n=32):
    return (
        bench_config_text()
        .replace("dimension = 1", "dimension = 2")
        .replace("n = 128", f"ymin = 0\nymax = 1\nnx = {n}\nny = {n}")
        .replace("bc = dirichlet", 'bc = neumann\ng = "0"\nG = "0"')
        .replace('a = "3"', 'h_boundary = "0"\na = "3"')
        .replace("rho_grid = 0.05,0.1,0.2,0.5,1.0", "rho_grid = 0.05,0.1,0.2,0.5")
    )


def test_neumann_square_solve(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(neumann_square_config_text())
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    geometry = report["stages"]["geometry"]
    # each sphere step used to reject t = 1 and accept t = 1/2: 2440 samples
    assert geometry["sphere_samples"] <= 1300
    assert geometry["rho"] == 0.5
    assert len(geometry["ring_trace"]) == len(NEUMANN_SQUARE_RING_TRACE)
    for (rho, m), (rho_ref, m_ref) in zip(geometry["ring_trace"], NEUMANN_SQUARE_RING_TRACE):
        assert rho == rho_ref
        assert m == pytest.approx(m_ref, rel=1e-12, abs=0)
    assert geometry["a_estimate"] == pytest.approx(NEUMANN_SQUARE_RING_TRACE[-1][1], rel=1e-12, abs=0)
    # the path runs along the constant fields, where the gradient is tangent
    # to the path and the transverse slope is rounding: the path phase must
    # hand over at once instead of taking steps that do not lower the energy
    # (42 iterations with equal records when such steps were accepted)
    assert report["stages"]["solve"]["iterations"] <= 5
    energies = [rec["energy"] for rec in report["cerami_history"]]
    assert all(a != b for a, b in zip(energies, energies[1:]))
