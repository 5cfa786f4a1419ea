import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve
from hypothesis import given, settings
from hypothesis import strategies as st

import plresonance as pl
from oracles import element_pair_matrices
from plresonance.mesh import (
    Field,
    RieszMap,
    grad_at_elements,
    load_vector,
    mass_matrix,
    p_mass_vector,
    p_stiffness_vector,
    project_admissible,
    stiffness_matrix,
    values_at_quad,
)


def test_interval_counts_and_spacing():
    m = pl.build_interval_mesh(0.0, 1.0, 4)
    assert m.node_count == 5
    assert np.allclose(np.diff(m.nodes[:, 0]), 0.25)
    assert m.boundary_nodes.tolist() == [0, 4]
    assert m.interior_nodes.tolist() == [1, 2, 3]


def test_interval_rejects_bad_input():
    with pytest.raises(ValueError):
        pl.build_interval_mesh(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        pl.build_interval_mesh(1.0, 0.0, 4)


def test_interval_total_measure():
    m = pl.build_interval_mesh(-1.0, 1.0, 8)
    assert m.measure == pytest.approx(2.0, rel=1e-12)


def test_rectangle_counts():
    m = pl.build_rectangle_mesh((0, 1), (0, 1), 2, 2)
    assert m.node_count == 9
    assert m.elements.shape[0] == 8
    assert m.measure == pytest.approx(1.0, rel=1e-12)


def test_rectangle_boundary_edges_sum_to_perimeter():
    m = pl.build_rectangle_mesh((0, 1), (0, 1), 2, 2)
    assert m.boundary_edge_measure.sum() == pytest.approx(4.0, rel=1e-12)
    m2 = pl.build_rectangle_mesh((0, 2), (0, 1), 4, 3)
    assert m2.boundary_edge_measure.sum() == pytest.approx(6.0, rel=1e-12)


def test_rectangle_rejects_degenerate():
    with pytest.raises(ValueError):
        pl.build_rectangle_mesh((0, 0), (0, 1), 2, 2)
    with pytest.raises(ValueError):
        pl.build_rectangle_mesh((0, 1), (0, 1), 1, 2)


def test_elements_cover_domain():
    m = pl.build_rectangle_mesh((0, 3), (-1, 1), 5, 4)
    assert m.element_measure.min() > 0
    assert m.element_measure.sum() == pytest.approx(6.0, rel=1e-12)


def test_boundary_markers():
    m = pl.build_rectangle_mesh((0, 1), (0, 1), 3, 3)
    x, y = m.nodes[:, 0], m.nodes[:, 1]
    on_edge = (x == 0) | (x == 1) | (y == 0) | (y == 1)
    assert np.array_equal(m.is_boundary, on_edge)


def test_grad_seminorm_linear_function():
    m = pl.build_interval_mesh(0.0, 1.0, 16)
    u = Field.interpolate(m, lambda x: x)
    for p in (2.0, 3.0, 4.5):
        assert pl.grad_seminorm_p(u, p) == pytest.approx(1.0, rel=1e-12)


def test_grad_seminorm_constant_is_zero():
    m = pl.build_interval_mesh(0.0, 1.0, 16)
    u = Field.interpolate(m, lambda x: np.ones_like(x))
    assert pl.grad_seminorm_p(u, 3.0) == 0.0


def test_grad_seminorm_2d_linear():
    m = pl.build_rectangle_mesh((0, 1), (0, 1), 8, 8)
    u = Field.interpolate(m, lambda x, y: x)
    assert pl.grad_seminorm_p(u, 3.0) == pytest.approx(1.0, rel=1e-12)


def test_grad_seminorm_rejects_small_p():
    m = pl.build_interval_mesh(0.0, 1.0, 4)
    u = Field.zeros(m)
    with pytest.raises(ValueError):
        pl.grad_seminorm_p(u, 1.5)


def test_lp_norm_constant():
    m = pl.build_interval_mesh(0.0, 1.0, 8)
    one = Field.interpolate(m, lambda x: np.ones_like(x))
    assert pl.lp_norm_p(one, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_lp_norm_constant_scaling():
    m = pl.build_rectangle_mesh((0, 2), (0, 1), 4, 4)
    c = Field.interpolate(m, lambda x, y: np.full_like(x, -1.5))
    assert pl.lp_norm_p(c, 3.0) == pytest.approx(1.5**3 * 2.0, rel=1e-12)


def test_lp_norm_of_x_matches_exact_integral():
    # int_0^1 x^2 dx = 1/3; the rule is exact for piecewise quadratics
    m = pl.build_interval_mesh(0.0, 1.0, 64)
    u = Field.interpolate(m, lambda x: x)
    assert pl.lp_norm_p(u, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_lp_norm_rejects_small_p():
    m = pl.build_interval_mesh(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        pl.lp_norm_p(Field.zeros(m), 0.5)


def test_boundary_integral_values():
    sq = pl.build_rectangle_mesh((0, 1), (0, 1), 4, 4)
    assert pl.boundary_integral(sq, np.ones(sq.node_count)) == pytest.approx(4.0, rel=1e-12)
    iv = pl.build_interval_mesh(0.0, 1.0, 4)
    assert pl.boundary_integral(iv, np.ones(iv.node_count)) == pytest.approx(2.0)
    assert pl.boundary_integral(iv, np.zeros(iv.node_count)) == 0.0


def test_mean_value_constant():
    m = pl.build_interval_mesh(0.0, 2.0, 8)
    c = Field.interpolate(m, lambda x: np.full_like(x, 5.0))
    assert pl.mean_value(c) == pytest.approx(5.0, rel=1e-12)


def test_mean_value_odd_function():
    m = pl.build_interval_mesh(0.0, 1.0, 32)
    u = Field.interpolate(m, lambda x: x - 0.5)
    assert abs(pl.mean_value(u)) < 1e-12


def test_field_length_checked():
    m = pl.build_interval_mesh(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        Field(m, np.zeros(3))


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False).filter(lambda t: abs(t) > 1e-3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_grad_seminorm_scaling(t, seed):
    m = pl.build_interval_mesh(0.0, 1.0, 16)
    rng = np.random.default_rng(seed)
    u = Field(m, rng.uniform(-1, 1, m.node_count))
    for p in (2.0, 3.0):
        lhs = pl.grad_seminorm_p(Field(m, t * u.values), p)
        rhs = abs(t) ** p * pl.grad_seminorm_p(u, p)
        assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_lp_norms_monotone_in_p_on_unit_domain(seed):
    # power means with weights summing to one are monotone in p
    m = pl.build_interval_mesh(0.0, 1.0, 16)
    rng = np.random.default_rng(seed)
    u = Field(m, rng.uniform(-2, 2, m.node_count))
    ps = [1.0, 1.5, 2.0, 3.0, 5.0, 8.0]
    norms = [pl.lp_norm_p(u, p) ** (1.0 / p) for p in ps]
    for lo, hi in zip(norms, norms[1:]):
        assert hi >= lo - 1e-12


def test_quadrature_exact_for_p2_piecewise_linear():
    # compare against the exact elementwise integral of the square of a
    # piecewise-linear function: int (a + b s)^2 over each segment
    m = pl.build_interval_mesh(0.0, 1.0, 7)
    rng = np.random.default_rng(5)
    vals = rng.uniform(-3, 3, m.node_count)
    exact = 0.0
    for left, right in m.elements:
        a, b = vals[left], vals[right]
        h = m.nodes[right, 0] - m.nodes[left, 0]
        exact += h * (a * a + a * b + b * b) / 3.0
    assert pl.lp_norm_p(Field(m, vals), 2.0) == pytest.approx(exact, rel=1e-12)


def test_sobolev_norm_combines_both_terms():
    m = pl.build_interval_mesh(0.0, 1.0, 16)
    u = Field.interpolate(m, lambda x: x)
    expected = (1.0 + 1.0 / 3.0) ** 0.5
    assert pl.sobolev_norm_1p(u, 2.0) == pytest.approx(expected, abs=1e-12)


def test_stiffness_and_mass_known_entries():
    # uniform 1D: K tridiagonal with 2/h on the diagonal, M with 2h/3
    n, h = 8, 1.0 / 8
    m = pl.build_interval_mesh(0.0, 1.0, n)
    K = stiffness_matrix(m).toarray()
    M = mass_matrix(m).toarray()
    assert K[3, 3] == pytest.approx(2.0 / h, rel=1e-12)
    assert K[3, 4] == pytest.approx(-1.0 / h, rel=1e-12)
    assert np.allclose(K.sum(axis=1), 0.0, atol=1e-12)
    assert M[3, 3] == pytest.approx(2.0 * h / 3.0, rel=1e-12)
    assert M[3, 4] == pytest.approx(h / 6.0, rel=1e-12)
    assert M.sum() == pytest.approx(1.0, rel=1e-12)


def test_p_vectors_reduce_to_matrices_at_p2():
    m = pl.build_rectangle_mesh((0, 1), (0, 1), 3, 3)
    rng = np.random.default_rng(2)
    v = rng.uniform(-1, 1, m.node_count)
    K = stiffness_matrix(m)
    M = mass_matrix(m)
    assert np.allclose(p_stiffness_vector(m, v, 2.0), K @ v, atol=1e-13)
    assert np.allclose(p_mass_vector(m, v, 2.0), M @ v, atol=1e-13)


def test_load_vector_constant_integrates_basis():
    # sum_i int phi_i = |Omega|
    m = pl.build_rectangle_mesh((0, 2), (0, 1), 4, 4)
    lv = load_vector(m, 1.0)
    assert lv.sum() == pytest.approx(2.0, rel=1e-12)


def test_riesz_map_dirichlet_dual_norm_dense_oracle():
    m = pl.build_interval_mesh(0.0, 1.0, 24)
    riesz = RieszMap(m, pl.BCKind.DIRICHLET)
    K = stiffness_matrix(m).toarray()
    idx = m.interior_nodes
    Ki = K[np.ix_(idx, idx)]
    rng = np.random.default_rng(3)
    r = np.zeros(m.node_count)
    r[idx] = rng.uniform(-1, 1, idx.size)
    expected = np.sqrt(r[idx] @ np.linalg.solve(Ki, r[idx]))
    assert riesz.dual_norm(r) == pytest.approx(expected, rel=1e-10)
    # r = K e for admissible e gives sqrt(e^T K e)
    e = np.zeros(m.node_count)
    e[idx[0]] = 1.0
    rK = np.zeros(m.node_count)
    rK[idx] = Ki @ e[idx]
    assert riesz.dual_norm(rK) == pytest.approx(np.sqrt(e[idx] @ Ki @ e[idx]), rel=1e-10)


def test_riesz_map_homogeneity_and_zero():
    m = pl.build_interval_mesh(0.0, 1.0, 16)
    riesz = RieszMap(m, pl.BCKind.NEUMANN)
    assert riesz.dual_norm(np.zeros(m.node_count)) == 0.0
    rng = np.random.default_rng(4)
    r = rng.uniform(-1, 1, m.node_count)
    assert riesz.dual_norm(-2.5 * r) == pytest.approx(2.5 * riesz.dual_norm(r), rel=1e-12)


# (mesh, nx): nx cells per row of the row-by-row node numbering, 1 for an interval
_RIESZ_MESHES = {
    "interval-7": (lambda: pl.build_interval_mesh(0.0, 1.0, 7), 1),
    "rect-4x3": (lambda: pl.build_rectangle_mesh((0, 2), (0, 1), 4, 3), 4),
    "rect-3x5": (lambda: pl.build_rectangle_mesh((0, 1), (-1, 1), 3, 5), 3),
}


@pytest.mark.parametrize("bc", list(pl.BCKind), ids=lambda bc: bc.value)
@pytest.mark.parametrize("name", list(_RIESZ_MESHES))
def test_riesz_solve_matches_sparse_direct_solve(name, bc):
    build, nx = _RIESZ_MESHES[name]
    m = build()
    riesz = RieszMap(m, bc)
    if bc is pl.BCKind.DIRICHLET:
        free = m.interior_nodes
        A = stiffness_matrix(m)[free][:, free]
    else:
        free = np.arange(m.node_count)
        A = stiffness_matrix(m) + mass_matrix(m)
    r = np.random.default_rng(11).uniform(-1, 1, m.node_count)
    x = riesz.solve(r)
    expected = spsolve(A.tocsc(), r[free])
    assert np.linalg.norm(x[free] - expected) <= 1e-12 * np.linalg.norm(expected)
    assert np.all(np.delete(x, free) == 0.0)
    assert np.linalg.norm(riesz.apply(x)[free] - r[free]) <= 1e-12 * np.linalg.norm(r[free])
    # the factor is banded without reordering only because nodes are numbered row by row
    assert 1 <= riesz.bandwidth <= nx + 2


def test_field_csv_format(tmp_path):
    m = pl.build_interval_mesh(0.0, 1.0, 4)
    u = Field.interpolate(m, lambda x: 2 * x)
    path = tmp_path / "f.csv"
    pl.write_field_csv(u, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node_index,x,value"
    assert len(lines) == 1 + m.node_count
    idx, x, val = lines[2].split(",")
    assert int(idx) == 1
    assert float(val) == pytest.approx(2 * float(x))


@pytest.mark.parametrize("bc", [pl.BCKind.DIRICHLET, pl.BCKind.NEUMANN], ids=["dirichlet", "neumann"])
@pytest.mark.parametrize("two_d", [False, True], ids=["1d", "2d"])
def test_project_admissible_is_a_projection(bc, two_d):
    m = pl.build_rectangle_mesh((0, 1), (0, 2), 5, 4) if two_d else pl.build_interval_mesh(0.0, 1.0, 16)
    v = np.random.default_rng(5).standard_normal(m.node_count)
    w = project_admissible(m, bc, v)
    if bc is pl.BCKind.DIRICHLET:
        assert np.all(w[m.boundary_nodes] == 0.0)
        assert np.array_equal(w[m.interior_nodes], v[m.interior_nodes])
    else:
        assert abs(pl.mean_value(Field(m, w))) < 1e-14
        assert np.allclose(w - v, w[0] - v[0])  # a constant shift
    assert np.allclose(project_admissible(m, bc, w), w, atol=1e-14)
    assert not np.shares_memory(w, v)


# --- the kernels as products with the mesh operators ---------------------------

KERNEL_MESHES = {
    "interval": lambda: pl.build_interval_mesh(0.0, 1.0, 12),
    "square": lambda: pl.build_rectangle_mesh((0, 1), (0, 2), 4, 3),
}


@pytest.mark.parametrize("kind", sorted(KERNEL_MESHES))
def test_grad_at_elements_matches_element_loop(kind):
    m = KERNEL_MESHES[kind]()
    v = np.random.default_rng(5).uniform(-1, 1, m.node_count)
    expected = np.array([sum(v[a] * m.grad_phi[e, i] for i, a in enumerate(el)) for e, el in enumerate(m.elements)])
    assert np.allclose(grad_at_elements(m, v), expected, rtol=0, atol=1e-13 * np.abs(expected).max())


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("kind", sorted(KERNEL_MESHES))
def test_p_stiffness_vector_is_gradient_of_seminorm(kind, p):
    # d/du_i of ||Du||_p^p / p by central differences
    m = KERNEL_MESHES[kind]()
    v = np.random.default_rng(6).uniform(-1, 1, m.node_count)
    h = 1e-6
    fd = np.empty(m.node_count)
    for i in range(m.node_count):
        step = np.zeros(m.node_count)
        step[i] = h
        fd[i] = (pl.grad_seminorm_p(Field(m, v + step), p) - pl.grad_seminorm_p(Field(m, v - step), p)) / (2 * h * p)
    got = p_stiffness_vector(m, v, p)
    assert np.allclose(got, fd, rtol=0, atol=1e-7 * np.abs(fd).max())


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("kind", sorted(KERNEL_MESHES))
def test_load_vector_matches_element_loop(kind, p):
    # the integrand of p_mass_vector, |u|^(p-2) u, at the quadrature points
    m = KERNEL_MESHES[kind]()
    v = np.random.default_rng(7).uniform(-1, 1, m.node_count)
    uq = values_at_quad(m, v)
    fq = np.abs(uq) ** (p - 2) * uq
    expected = np.zeros(m.node_count)
    for e, el in enumerate(m.elements):
        for q in range(m.phi_at_quad.shape[0]):
            for i, a in enumerate(el):
                expected[a] += m.quad_weights[e, q] * fq[e, q] * m.phi_at_quad[q, i]
    scale = np.abs(expected).max()
    assert np.allclose(load_vector(m, fq), expected, rtol=0, atol=1e-14 * scale)
    assert np.allclose(p_mass_vector(m, v, p), expected, rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("kind", sorted(KERNEL_MESHES))
def test_stiffness_and_mass_match_element_pair_formulas(kind):
    m = KERNEL_MESHES[kind]()
    K_ref, M_ref = element_pair_matrices(m)
    K, M = stiffness_matrix(m), mass_matrix(m)
    assert sp.issparse(K) and K.format == "csr" and M.format == "csr"
    assert np.abs(K.toarray() - K_ref).max() <= 1e-14 * np.abs(K_ref).max()
    assert np.abs(M.toarray() - M_ref).max() <= 1e-14 * np.abs(M_ref).max()
