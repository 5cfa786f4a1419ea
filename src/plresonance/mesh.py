"""Piecewise-linear conforming discretizations of intervals and rectangles.

The mesh carries everything the variational modules need: element
connectivity, per-element measures, the constant element gradients of the
nodal basis, a quadrature rule that integrates quadratics exactly per
element (2-point Gauss on segments, edge midpoints on triangles), and
lumped boundary weights realizing the trapezoidal surface measure.  From
these it builds two sparse operators once: the gradient operator G (element
gradients G u) and the transpose P^T of the quadrature interpolation.  The
assembly kernels are products with them: G^T (|T| flux) for the p-stiffness
vector, P^T (w f) for load vectors, G^T diag(|T| A) G and P^T diag(w c) P
for the Hessian of ||Du||_p^p / p (at p = 2, stiffness) and weighted mass.

A ``Field`` is one nodal coefficient per mesh node and stands in for a
discrete W^{1,p} function.  Norms follow the usual conventions:

* ``grad_seminorm_p(u, p)``     = sum_T |grad u|^p |T|           (= ||Du||_p^p)
* ``lp_norm_p(u, p)``           = int |u|^p by the element rule  (= ||u||_p^p)
* ``sobolev_norm_1p(u, p)``     = (||Du||_p^p + ||u||_p^p)^(1/p)

with |grad u| the Euclidean norm of the element gradient.  The exponent
p is restricted to p >= 2 wherever the gradient is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cholesky_banded
from scipy.linalg.lapack import dpbtrs

__all__ = [
    "BCKind",
    "Mesh",
    "Field",
    "build_interval_mesh",
    "build_rectangle_mesh",
    "grad_seminorm_p",
    "lp_norm_p",
    "sobolev_norm_1p",
    "mean_value",
    "boundary_integral",
    "stiffness_matrix",
    "mass_matrix",
    "p_stiffness_vector",
    "p_mass_vector",
    "load_vector",
    "values_at_quad",
    "grad_at_elements",
    "RieszMap",
    "write_field_csv",
    "is_dirichlet_admissible",
    "project_admissible",
]


class BCKind(Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


@dataclass(frozen=True, eq=False)
class Mesh:
    dimension: int
    nodes: np.ndarray              # (N, dim)
    elements: np.ndarray           # (E, dim+1) node indices
    element_measure: np.ndarray    # (E,)
    is_boundary: np.ndarray        # (N,) bool
    boundary_nodes: np.ndarray     # indices of marked nodes
    interior_nodes: np.ndarray
    boundary_edges: np.ndarray     # 2D: (B, 2) node pairs; 1D: (2, 1) endpoints
    boundary_edge_measure: np.ndarray
    grad_phi: np.ndarray           # (E, dim+1, dim) constant basis gradients
    quad_points: np.ndarray        # (E, Q, dim)
    quad_weights: np.ndarray       # (E, Q)
    phi_at_quad: np.ndarray        # (Q, dim+1)
    boundary_weights: np.ndarray   # (N,) lumped surface-measure weights
    # sparse operators built once from the fields above
    grad_op: sp.csr_matrix = field(init=False, repr=False)    # G, (E*dim, N): G u = element gradients
    grad_op_t: sp.csr_matrix = field(init=False, repr=False)  # G^T
    interp_t: sp.csr_matrix = field(init=False, repr=False)   # P^T, (N, E*Q): P u = values at quadrature points
    node_weights: np.ndarray = field(init=False, repr=False)  # P^T w: int u dx = node_weights . u

    def __post_init__(self):
        def by_element(data):
            """(E*k, N) operator whose row e*k + j holds data[e, j, :] at element e's nodes."""
            n_elem, k, nl = data.shape
            cols = np.repeat(self.elements, k, axis=0).ravel()
            indptr = np.arange(0, cols.size + 1, nl)
            op = sp.csr_matrix((data.ravel(), cols, indptr), shape=(n_elem * k, self.node_count))
            op.eliminate_zeros()
            return op

        grad_op = by_element(self.grad_phi.transpose(0, 2, 1))
        interp = by_element(np.broadcast_to(self.phi_at_quad, (len(self.elements),) + self.phi_at_quad.shape))
        for name, op in (("grad_op", grad_op), ("grad_op_t", grad_op.T.tocsr()), ("interp_t", interp.T.tocsr())):
            object.__setattr__(self, name, op)
        object.__setattr__(self, "node_weights", self.interp_t @ self.quad_weights.ravel())

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def measure(self) -> float:
        return float(self.element_measure.sum())


@dataclass(eq=False)
class Field:
    """Nodal coefficient vector tied to its mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.node_count,):
            raise ValueError(f"field length {self.values.shape} does not match node count {self.mesh.node_count}")

    @classmethod
    def interpolate(cls, mesh: Mesh, fn) -> "Field":
        """Nodal interpolant of a callable fn(x) (1D) or fn(x, y) (2D)."""
        vals = fn(*mesh.nodes.T)
        return cls(mesh, np.broadcast_to(np.asarray(vals, dtype=float), (mesh.node_count,)).copy())

    @classmethod
    def zeros(cls, mesh: Mesh) -> "Field":
        return cls(mesh, np.zeros(mesh.node_count))


# --------------------------------------------------------------------------
# Builders

_GAUSS2 = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


def build_interval_mesh(a: float, b: float, n: int) -> Mesh:
    """Uniform partition of [a, b] into n segments (n >= 2)."""
    if not a < b:
        raise ValueError(f"interval requires a < b, got a={a}, b={b}")
    if n < 2:
        raise ValueError(f"interval mesh requires n >= 2, got n={n}")
    xs = np.linspace(a, b, n + 1)
    nodes = xs[:, None]
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    h = np.diff(xs)
    grad_phi = np.stack([-1.0 / h, 1.0 / h], axis=1)[:, :, None]
    phi_at_quad = np.column_stack([1.0 - _GAUSS2, _GAUSS2])  # (2, 2)
    quad_points = (xs[:-1, None] + np.outer(h, _GAUSS2))[:, :, None]
    quad_weights = 0.5 * np.repeat(h[:, None], 2, axis=1)
    is_boundary = np.zeros(n + 1, dtype=bool)
    is_boundary[[0, n]] = True
    boundary_weights = np.zeros(n + 1)
    boundary_weights[[0, n]] = 1.0
    return Mesh(
        dimension=1,
        nodes=nodes,
        elements=elements,
        element_measure=h.copy(),
        is_boundary=is_boundary,
        boundary_nodes=np.array([0, n]),
        interior_nodes=np.arange(1, n),
        boundary_edges=np.array([[0], [n]]),
        boundary_edge_measure=np.ones(2),
        grad_phi=grad_phi,
        quad_points=quad_points,
        quad_weights=quad_weights,
        phi_at_quad=phi_at_quad,
        boundary_weights=boundary_weights,
    )


def build_rectangle_mesh(x_range, y_range, nx: int, ny: int) -> Mesh:
    """Structured triangulation of a rectangle, each cell split into two."""
    x0, x1 = map(float, x_range)
    y0, y1 = map(float, y_range)
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"degenerate rectangle ranges x={x_range}, y={y_range}")
    if nx < 2 or ny < 2:
        raise ValueError(f"rectangle mesh requires nx, ny >= 2, got {nx}, {ny}")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])  # index = j*(nx+1) + i

    def idx(i, j):
        return j * (nx + 1) + i

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    ii, jj = ii.ravel(), jj.ravel()
    n00, n10 = idx(ii, jj), idx(ii + 1, jj)
    n01, n11 = idx(ii, jj + 1), idx(ii + 1, jj + 1)
    lower = np.column_stack([n00, n10, n11])
    upper = np.column_stack([n00, n11, n01])
    elements = np.vstack([lower, upper])

    p0 = nodes[elements[:, 0]]
    p1 = nodes[elements[:, 1]]
    p2 = nodes[elements[:, 2]]
    d1, d2 = p1 - p0, p2 - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    area = 0.5 * np.abs(det)

    # gradients of barycentric coordinates via the inverse edge matrix
    inv00 = d2[:, 1] / det
    inv01 = -d2[:, 0] / det
    inv10 = -d1[:, 1] / det
    inv11 = d1[:, 0] / det
    g1 = np.column_stack([inv00, inv01])
    g2 = np.column_stack([inv10, inv11])
    grad_phi = np.stack([-(g1 + g2), g1, g2], axis=1)

    phi_at_quad = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    verts = nodes[elements]  # (E, 3, 2)
    quad_points = phi_at_quad @ verts
    quad_weights = np.repeat(area[:, None] / 3.0, 3, axis=1)

    i_of = np.tile(np.arange(nx + 1), ny + 1)
    j_of = np.repeat(np.arange(ny + 1), nx + 1)
    is_boundary = (i_of == 0) | (i_of == nx) | (j_of == 0) | (j_of == ny)

    # bottom, top, left, right
    i, j = np.arange(nx), np.arange(ny)
    boundary_edges = np.vstack(
        [np.column_stack(pair) for pair in ((idx(i, 0), idx(i + 1, 0)), (idx(i, ny), idx(i + 1, ny)),
                                            (idx(0, j), idx(0, j + 1)), (idx(nx, j), idx(nx, j + 1)))]
    )
    boundary_edge_measure = np.repeat([(x1 - x0) / nx, (y1 - y0) / ny], [2 * nx, 2 * ny])

    boundary_weights = np.bincount(
        boundary_edges.ravel(), weights=np.repeat(0.5 * boundary_edge_measure, 2), minlength=nodes.shape[0]
    )

    all_idx = np.arange(nodes.shape[0])
    return Mesh(
        dimension=2,
        nodes=nodes,
        elements=elements,
        element_measure=area,
        is_boundary=is_boundary,
        boundary_nodes=all_idx[is_boundary],
        interior_nodes=all_idx[~is_boundary],
        boundary_edges=boundary_edges,
        boundary_edge_measure=boundary_edge_measure,
        grad_phi=grad_phi,
        quad_points=quad_points,
        quad_weights=quad_weights,
        phi_at_quad=phi_at_quad,
        boundary_weights=boundary_weights,
    )


# --------------------------------------------------------------------------
# Element-level evaluation


def values_at_quad(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Interpolated values at quadrature points, shape (E, Q)."""
    return values[mesh.elements] @ mesh.phi_at_quad.T


def grad_at_elements(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Constant element gradients, shape (E, dim)."""
    return (mesh.grad_op @ values).reshape(-1, mesh.dimension)


def _squared_norms(g: np.ndarray) -> np.ndarray:
    """|g_e|^2 per row; a product with ones, ~10x faster than a sum over the short axis."""
    return (g * g) @ np.ones(g.shape[1])


# --------------------------------------------------------------------------
# Norms and integrals


def grad_seminorm_p(u: Field, p: float) -> float:
    """||Du||_p^p with the Euclidean pointwise gradient norm; needs p >= 2."""
    if p < 2:
        raise ValueError(f"gradient seminorm requires p >= 2, got p={p}")
    g = grad_at_elements(u.mesh, u.values)
    mag = np.sqrt(_squared_norms(g))
    return float(np.dot(mag**p, u.mesh.element_measure))


def lp_norm_p(u: Field, p: float) -> float:
    """int |u|^p dx by the element quadrature rule (returns the p-th power)."""
    if p < 1:
        raise ValueError(f"Lp norm requires p >= 1, got p={p}")
    uq = values_at_quad(u.mesh, u.values)
    return float((u.mesh.quad_weights * np.abs(uq) ** p).sum())


def sobolev_norm_1p(u: Field, p: float) -> float:
    """Full norm (||Du||_p^p + ||u||_p^p)^(1/p)."""
    return (grad_seminorm_p(u, p) + lp_norm_p(u, p)) ** (1.0 / p)


def mean_value(u: Field) -> float:
    """(1/|Omega|) int u dx under the same quadrature as lp_norm_p."""
    return float(u.mesh.node_weights @ u.values / u.mesh.measure)


def boundary_integral(mesh: Mesh, phi_values: np.ndarray) -> float:
    """Surface integral of node-wise integrand values.

    1D adds the two endpoint values; 2D applies the trapezoidal rule
    along the boundary edges (equivalently the lumped boundary weights).
    """
    phi = np.broadcast_to(np.asarray(phi_values, dtype=float), (mesh.node_count,))
    return float(np.dot(mesh.boundary_weights, phi))


def is_dirichlet_admissible(u: Field) -> bool:
    return bool(np.all(u.values[u.mesh.boundary_nodes] == 0.0))


def project_admissible(mesh: Mesh, bc: BCKind, v: np.ndarray) -> np.ndarray:
    """Projection onto the admissible space: boundary-zero (Dirichlet) or zero-mean (Neumann) fields."""
    if bc is BCKind.DIRICHLET:
        v = v.copy()
        v[mesh.boundary_nodes] = 0.0
        return v
    return v - mean_value(Field(mesh, v))


# --------------------------------------------------------------------------
# Assembly: products with the mesh operators G and P^T


def stiffness_matrix(mesh: Mesh, values: np.ndarray | None = None, p: float = 2.0) -> sp.csr_matrix:
    """Hessian of ||Du||_p^p / p at u = values, i.e. G^T diag(|T| A) G; at p = 2 the stiffness matrix K.

    A = |g|^(p-2) (I + (p-2) g g^T / |g|^2) per element with g = grad u; where g = 0 there is no rank-one term.
    """
    if p == 2:
        weights = sp.diags(np.repeat(mesh.element_measure, mesh.dimension))
    else:
        g = grad_at_elements(mesh, values)
        sq = _squared_norms(g)
        rank_one = (p - 2) * g[:, :, None] * g[:, None, :] / np.where(sq > 0, sq, 1.0)[:, None, None]
        blocks = (mesh.element_measure * sq ** ((p - 2) / 2.0))[:, None, None] * (np.eye(mesh.dimension) + rank_one)
        weights = sp.bsr_matrix((blocks, np.arange(len(g)), np.arange(len(g) + 1)))  # block diagonal
    return (mesh.grad_op_t @ weights @ mesh.grad_op).tocsr()


def mass_matrix(mesh: Mesh, c=1.0) -> sp.csr_matrix:
    """Mass matrix int c phi_i phi_j for c scalar or at the quadrature points, i.e. P^T diag(w c) P."""
    return (mesh.interp_t @ sp.diags((mesh.quad_weights * c).ravel()) @ mesh.interp_t.T).tocsr()


def p_stiffness_vector(mesh: Mesh, values: np.ndarray, p: float) -> np.ndarray:
    """Nodal vector with entries int |grad u|^(p-2) grad u . grad phi_i."""
    flux = grad_at_elements(mesh, values)
    if p != 2:
        flux = (_squared_norms(flux) ** ((p - 2) / 2.0))[:, None] * flux
    return mesh.grad_op_t @ (mesh.element_measure[:, None] * flux).ravel()


def p_mass_vector(mesh: Mesh, values: np.ndarray, p: float) -> np.ndarray:
    """Nodal vector with entries int |u|^(p-2) u phi_i (quadrature)."""
    uq = values_at_quad(mesh, values)
    return load_vector(mesh, uq if p == 2 else np.abs(uq) ** (p - 2) * uq)


def load_vector(mesh: Mesh, fq) -> np.ndarray:
    """Nodal vector int f phi_i for integrand values fq at quadrature points."""
    fq = np.broadcast_to(np.asarray(fq, dtype=float), mesh.quad_weights.shape)
    return mesh.interp_t @ (mesh.quad_weights * fq).ravel()


class RieszMap:
    """Prefactorized p=2 Riesz solve used as preconditioner and dual norm.

    Dirichlet uses the stiffness matrix restricted to interior nodes;
    Neumann adds the mass matrix so the operator is nonsingular.  Either
    matrix is symmetric positive definite, and both mesh builders number
    nodes row by row, so its band is narrow (``bandwidth`` 1 in 1D, at
    most nx + 2 on an nx-by-ny rectangle) without reordering.  It is
    factored once as a banded Cholesky factor, and each solve is one
    LAPACK band solve (dpbtrs) with that factor.
    """

    def __init__(self, mesh: Mesh, bc: BCKind):
        self.mesh = mesh
        K = stiffness_matrix(mesh)
        if bc is BCKind.DIRICHLET:
            self.free = mesh.interior_nodes
            A = K[self.free][:, self.free]
        else:
            self.free = np.arange(mesh.node_count)
            A = K + mass_matrix(mesh)
        self._matrix = A.tocsr()
        upper = sp.triu(A, format="coo")
        self.bandwidth = int((upper.col - upper.row).max())
        # LAPACK upper band storage, band[w + i - j, j] = A[i, j]; Fortran order lets dpbtrf factor it in place
        band = np.zeros((self.bandwidth + 1, A.shape[0]), order="F")
        band[self.bandwidth + upper.row - upper.col, upper.col] = upper.data
        self._factor = cholesky_banded(band, overwrite_ab=True)

    def _solve(self, rf: np.ndarray) -> np.ndarray:
        x, info = dpbtrs(self._factor, rf)
        if info != 0:
            raise LinAlgError(f"banded Cholesky solve failed (dpbtrs info = {info})")
        return x

    def solve(self, r: np.ndarray) -> np.ndarray:
        """K^{-1} r on the admissible block, zero elsewhere."""
        out = np.zeros(self.mesh.node_count)
        out[self.free] = self._solve(r[self.free])
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        """K v on the admissible block, zero elsewhere."""
        out = np.zeros(self.mesh.node_count)
        out[self.free] = self._matrix @ v[self.free]
        return out

    def dual_norm(self, r: np.ndarray) -> float:
        """sqrt(r^T K^{-1} r) restricted to admissible directions."""
        rf = r[self.free]
        return float(np.sqrt(max(float(rf @ self._solve(rf)), 0.0)))


def write_field_csv(u: Field, path) -> None:
    """Write node records ``node_index,x[,y],value``."""
    mesh = u.mesh
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node_index,x,value\n" if mesh.dimension == 1 else "node_index,x,y,value\n")
        for i in range(mesh.node_count):
            coords = ",".join(repr(float(c)) for c in mesh.nodes[i])
            fh.write(f"{i},{coords},{float(u.values[i])!r}\n")
