import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import plresonance as pl
from conftest import BENCH_F, BENCH_f, make_bench_spec, parse_u, parse_x, random_admissible
from plresonance.functional import (
    NumericAntiderivative,
    ProblemSpec,
    SpecError,
    cerami_measure,
    dual_norm,
    energy,
    tangent,
    weak_gradient,
)
from plresonance.mesh import Field


def test_energy_zero_field(bench_128):
    spec, _ = bench_128
    assert energy(spec, Field.zeros(spec.mesh)) == 0.0


def test_energy_vanishes_on_eigenray_without_forcing():
    mesh = pl.build_interval_mesh(0.0, 1.0, 128)
    ep = pl.compute_first_eigenpair(mesh, 2.0, pl.BCKind.DIRICHLET, seed=1)
    spec = ProblemSpec(
        mesh, 2.0, pl.BCKind.DIRICHLET, f_expr=parse_u("0"), F_expr=parse_u("0"), lambda1=ep.lambda1
    )
    for t in (0.5, 1.0, 3.0):
        assert abs(energy(spec, Field(mesh, t * ep.u1.values))) <= 1e-8


def test_energy_small_amplitude_positive_with_quadrature_oracle(bench_128):
    # -F(u) ~ u^2 near zero, so I(t u1) ~ t^2 ||u1||^2 > 0; cross-check the
    # u1-ray value against direct adaptive quadrature of the continuum ray
    spec, ep = bench_128
    t = 0.01
    val = energy(spec, Field(spec.mesh, t * ep.u1.values))
    assert val > 0

    def F(v):
        return math.log1p(v * v) - 2 * v * v / (1 + v * v)

    oracle, _ = scipy.integrate.quad(lambda x: -F(t * math.sqrt(2) * math.sin(math.pi * x)), 0.0, 1.0)
    assert val == pytest.approx(oracle, rel=0.05)


def test_energy_requires_dirichlet_admissible(bench_128):
    spec, _ = bench_128
    bad = np.ones(spec.mesh.node_count)
    with pytest.raises(ValueError):
        energy(spec, Field(spec.mesh, bad))


def test_weak_gradient_zero_field_zero_residual(bench_128):
    spec, _ = bench_128
    r = weak_gradient(spec, Field.zeros(spec.mesh))
    assert np.all(r == 0.0)


@pytest.mark.parametrize("bc", [pl.BCKind.DIRICHLET, pl.BCKind.NEUMANN])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_gradient_consistency_finite_differences(bc, p):
    spec, _ = make_bench_spec(n=48, p=p, bc=bc)
    mesh = spec.mesh
    rng = np.random.default_rng(17)
    eps = 1e-6
    worst = 0.0
    for _ in range(6):
        u = random_admissible(mesh, bc, rng)
        r = weak_gradient(spec, u)
        for _ in range(6):
            phi = random_admissible(mesh, bc, rng)
            up = Field(mesh, u.values + eps * phi.values)
            um = Field(mesh, u.values - eps * phi.values)
            fd = (energy(spec, up) - energy(spec, um)) / (2 * eps)
            an = float(r @ phi.values)
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-12))
    assert worst < 1e-5


def test_gradient_consistency_2d_neumann_with_boundary_term():
    # exercises the surface coupling: g enters the gradient through the
    # same trapezoidal weights as G enters the energy
    mesh = pl.build_rectangle_mesh((0, 1), (0, 1), 6, 6)
    ep = pl.compute_first_eigenpair(mesh, 2.0, pl.BCKind.NEUMANN, seed=1)
    vars2 = {"x", "y", "u"}
    spec = ProblemSpec(
        mesh, 2.0, pl.BCKind.NEUMANN,
        f_expr=pl.parse(BENCH_f, vars2), F_expr=pl.parse(BENCH_F, vars2),
        g_expr=pl.parse("u/(1+u^2)", vars2),
        G_expr=pl.parse("ln(1+u^2)/2", vars2),
        lambda1=ep.lambda1,
    )
    rng = np.random.default_rng(8)
    eps = 1e-6
    worst = 0.0
    for _ in range(5):
        uv = rng.uniform(-1, 1, mesh.node_count)
        r = weak_gradient(spec, Field(mesh, uv))
        for _ in range(5):
            phi = rng.uniform(-1, 1, mesh.node_count)
            fd = (
                energy(spec, Field(mesh, uv + eps * phi)) - energy(spec, Field(mesh, uv - eps * phi))
            ) / (2 * eps)
            an = float(r @ phi)
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-12))
    assert worst < 1e-5


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("bc", [pl.BCKind.DIRICHLET, pl.BCKind.NEUMANN])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.5])
def test_tangent_matches_residual_differences(dimension, bc, p):
    # J(u) v against central differences of the weak gradient on the free
    # block; the tangent identity holds for any lambda1, so none is computed.
    # Fields are low modes, so that no term of J drowns the others at p = 4.5
    if dimension == 1:
        mesh, names = pl.build_interval_mesh(0.0, 1.0, 48), {"x", "u"}
    else:
        mesh, names = pl.build_rectangle_mesh((0, 1), (0, 1), 6, 6), {"x", "y", "u"}
    extra = {}
    if bc is pl.BCKind.NEUMANN:
        extra = {"g_expr": pl.parse("u/(1+u^2)", names), "G_expr": pl.parse("ln(1+u^2)/2", names)}
    spec = ProblemSpec(
        mesh, p, bc, f_expr=pl.parse(BENCH_f, names), F_expr=pl.parse(BENCH_F, names), lambda1=10.0, **extra
    )
    free = spec.riesz.free
    modes = np.sin if bc is pl.BCKind.DIRICHLET else np.cos  # cosines reach the boundary terms

    def low_modes():
        w = np.prod([modes(np.pi * np.outer(c, [1, 2, 3])) @ rng.uniform(-1, 1, 3) for c in mesh.nodes.T], axis=0)
        if bc is pl.BCKind.DIRICHLET:
            w[mesh.boundary_nodes] = 0.0
        return w

    rng = np.random.default_rng(5)
    eps = 1e-5
    for _ in range(3):
        u, v = low_modes(), low_modes()
        J = tangent(spec, Field(mesh, u))
        fd = (weak_gradient(spec, Field(mesh, u + eps * v)) - weak_gradient(spec, Field(mesh, u - eps * v))) / (2 * eps)
        assert np.linalg.norm((J @ v - fd)[free]) <= 1e-7 * np.linalg.norm(fd[free])
        assert abs(J - J.T).max() <= 1e-12 * abs(J).max()


def test_dirichlet_gradient_boundary_rows_zero(bench_128):
    spec, ep = bench_128
    r = weak_gradient(spec, Field(spec.mesh, 0.5 * ep.u1.values))
    assert np.all(r[spec.mesh.boundary_nodes] == 0.0)


def test_neumann_energy_constant_translation_identity(neumann_bench_64):
    # psi(c) = 0, so I(c) = -int F(x, c) dx + int_bdry G(x, c) ds exactly
    spec, _ = neumann_bench_64
    mesh = spec.mesh
    for c in (-2.0, 1.0, 4.0):
        expected = -(math.log1p(c * c) - 2 * c * c / (1 + c * c)) * mesh.measure
        got = energy(spec, Field(mesh, np.full(mesh.node_count, c)))
        assert got == pytest.approx(expected, rel=1e-12)


def test_dual_norm_zero_and_homogeneity(bench_128):
    spec, _ = bench_128
    assert dual_norm(spec, np.zeros(spec.mesh.node_count)) == 0.0
    rng = np.random.default_rng(3)
    r = np.zeros(spec.mesh.node_count)
    r[spec.mesh.interior_nodes] = rng.uniform(-1, 1, spec.mesh.interior_nodes.size)
    assert dual_norm(spec, 3.0 * r) == pytest.approx(3.0 * dual_norm(spec, r), rel=1e-12)


def test_cerami_record_definitions(bench_128):
    spec, ep = bench_128
    u = Field(spec.mesh, 0.3 * ep.u1.values)
    rec = cerami_measure(spec, u)
    assert rec.measure == (1.0 + rec.norm) * rec.residual
    assert rec.energy == pytest.approx(energy(spec, u))
    assert np.isfinite([rec.energy, rec.residual, rec.measure, rec.norm]).all()


def test_cerami_zero_field_zero_measure(bench_128):
    spec, _ = bench_128
    rec = cerami_measure(spec, Field.zeros(spec.mesh))
    assert rec.measure == 0.0
    assert rec.energy == 0.0


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.01, max_value=10.0, allow_nan=False), st.integers(min_value=0, max_value=2**31 - 1))
def test_energy_p_homogeneous_without_nonlinearity(t, seed):
    mesh = pl.build_interval_mesh(0.0, 1.0, 16)
    rng = np.random.default_rng(seed)
    for p in (2.0, 3.0):
        spec = ProblemSpec(
            mesh, p, pl.BCKind.NEUMANN, f_expr=parse_u("0"), F_expr=parse_u("0"),
            g_expr=parse_u("0"), G_expr=parse_u("0"),
        )
        v = rng.uniform(-1, 1, mesh.node_count)
        base = energy(spec, Field(mesh, v))
        scaled = energy(spec, Field(mesh, t * v))
        assert scaled == pytest.approx(t**p * base, rel=1e-12, abs=1e-300)


def test_numeric_antiderivative_matches_closed_form():
    mesh = pl.build_interval_mesh(0.0, 1.0, 48)
    ep = pl.compute_first_eigenpair(mesh, 2.0, pl.BCKind.DIRICHLET, seed=1)
    closed = ProblemSpec(
        mesh, 2.0, pl.BCKind.DIRICHLET, f_expr=parse_u(BENCH_f), F_expr=parse_u(BENCH_F), lambda1=ep.lambda1
    )
    numeric = ProblemSpec(mesh, 2.0, pl.BCKind.DIRICHLET, f_expr=parse_u(BENCH_f), lambda1=ep.lambda1)
    for t in (0.3, 1.7):
        u = Field(mesh, t * ep.u1.values)
        assert energy(spec=numeric, u=u) == pytest.approx(energy(spec=closed, u=u), abs=1e-9)


def test_numeric_antiderivative_wide_range():
    # int_0^u dr/(1+r) = ln(1+u) across many scales
    f = parse_u("1/(1+u)")
    anti = NumericAntiderivative(lambda coords, r: pl.evaluate(f, {"u": r}))
    us = np.array([1e-4, 0.3, 10.0, 1e4, 1e6])
    got = anti({}, us)
    assert np.allclose(got, np.log1p(us), rtol=1e-9)


def test_antiderivative_consistency_rejects_mismatch():
    mesh = pl.build_interval_mesh(0.0, 1.0, 16)
    with pytest.raises(SpecError):
        ProblemSpec(
            mesh, 2.0, pl.BCKind.DIRICHLET, f_expr=parse_u("u"), F_expr=parse_u("u^2"), lambda1=1.0
        )


def test_antiderivative_must_vanish_at_zero():
    mesh = pl.build_interval_mesh(0.0, 1.0, 16)
    with pytest.raises(SpecError):
        ProblemSpec(
            mesh, 2.0, pl.BCKind.DIRICHLET, f_expr=parse_u("u"), F_expr=parse_u("u^2/2 + 1"), lambda1=1.0
        )


def test_restricted_domain_consistency_skips_invalid_samples():
    mesh = pl.build_interval_mesh(0.0, 1.0, 16)
    spec = ProblemSpec(
        mesh, 2.0, pl.BCKind.DIRICHLET,
        f_expr=parse_u("1/(u+1)"), F_expr=parse_u("ln(u+1)"),
        lambda1=1.0, consistency_u_range=(-0.9, 2.0),
    )
    assert spec.F is not None


def test_spec_validation_errors():
    mesh = pl.build_interval_mesh(0.0, 1.0, 16)
    with pytest.raises(SpecError):
        ProblemSpec(mesh, 1.5, pl.BCKind.DIRICHLET, f_expr=parse_u("0"), lambda1=1.0)
    with pytest.raises(SpecError):
        ProblemSpec(mesh, 2.0, pl.BCKind.DIRICHLET, f_expr=parse_u("0"))  # no lambda1
    with pytest.raises(SpecError):
        ProblemSpec(mesh, 2.0, pl.BCKind.NEUMANN, f_expr=parse_u("0"))  # no g


def test_p_star_capped_in_low_dimension():
    mesh = pl.build_interval_mesh(0.0, 1.0, 8)
    spec = ProblemSpec(mesh, 2.0, pl.BCKind.DIRICHLET, f_expr=parse_u("0"), F_expr=parse_u("0"), lambda1=1.0)
    assert spec.p_star == 1e6


def test_expression_domain_errors_propagate(bench_128):
    mesh = pl.build_interval_mesh(0.0, 1.0, 16)
    ep = pl.compute_first_eigenpair(mesh, 2.0, pl.BCKind.DIRICHLET, seed=1)
    spec = ProblemSpec(
        mesh, 2.0, pl.BCKind.DIRICHLET,
        f_expr=parse_u("1/(u+1)"), F_expr=parse_u("ln(u+1)"),
        lambda1=ep.lambda1, consistency_u_range=(-0.5, 2.0),
    )
    bad = Field.interpolate(mesh, lambda x: -2.0 * np.sin(np.pi * x))
    bad.values[mesh.boundary_nodes] = 0.0
    with pytest.raises(pl.DomainError):
        energy(spec, bad)
