"""Piecewise-linear conforming discretizations of intervals and rectangles.

The mesh carries everything the variational modules need: element
connectivity, per-element measures, the constant element gradients of the
nodal basis, a quadrature rule that integrates quadratics exactly per
element (2-point Gauss on segments, edge midpoints on triangles), and
lumped boundary weights realizing the trapezoidal surface measure.

A ``Field`` is one nodal coefficient per mesh node and stands in for a
discrete W^{1,p} function.  Norms follow the usual conventions:

* ``grad_seminorm_p(u, p)``     = sum_T |grad u|^p |T|           (= ||Du||_p^p)
* ``lp_norm_p(u, p)``           = int |u|^p by the element rule  (= ||u||_p^p)
* ``sobolev_norm_1p(u, p)``     = (||Du||_p^p + ||u||_p^p)^(1/p)

with |grad u| the Euclidean norm of the element gradient.  The exponent
p is restricted to p >= 2 wherever the gradient is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
            raise ValueError(
                f"field length {self.values.shape} does not match node count {self.mesh.node_count}"
            )

    @classmethod
    def interpolate(cls, mesh: Mesh, fn) -> "Field":
        """Nodal interpolant of a callable fn(x) (1D) or fn(x, y) (2D)."""
        if mesh.dimension == 1:
            vals = fn(mesh.nodes[:, 0])
        else:
            vals = fn(mesh.nodes[:, 0], mesh.nodes[:, 1])
        return cls(mesh, np.broadcast_to(np.asarray(vals, dtype=float), (mesh.node_count,)).copy())

    @classmethod
    def zeros(cls, mesh: Mesh) -> "Field":
        return cls(mesh, np.zeros(mesh.node_count))

    def copy(self) -> "Field":
        return Field(self.mesh, self.values.copy())


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
    quad_points = np.einsum("qn,end->eqd", phi_at_quad, verts)
    quad_weights = np.repeat(area[:, None] / 3.0, 3, axis=1)

    i_of = np.tile(np.arange(nx + 1), ny + 1)
    j_of = np.repeat(np.arange(ny + 1), nx + 1)
    is_boundary = (i_of == 0) | (i_of == nx) | (j_of == 0) | (j_of == ny)

    edges = []
    lengths = []
    dx = (x1 - x0) / nx
    dy = (y1 - y0) / ny
    for i in range(nx):
        edges.append((idx(i, 0), idx(i + 1, 0)))
        lengths.append(dx)
    for i in range(nx):
        edges.append((idx(i, ny), idx(i + 1, ny)))
        lengths.append(dx)
    for j in range(ny):
        edges.append((idx(0, j), idx(0, j + 1)))
        lengths.append(dy)
    for j in range(ny):
        edges.append((idx(nx, j), idx(nx, j + 1)))
        lengths.append(dy)
    boundary_edges = np.array(edges)
    boundary_edge_measure = np.array(lengths)

    boundary_weights = np.zeros(nodes.shape[0])
    np.add.at(boundary_weights, boundary_edges[:, 0], 0.5 * boundary_edge_measure)
    np.add.at(boundary_weights, boundary_edges[:, 1], 0.5 * boundary_edge_measure)

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
    return np.einsum("end,en->ed", mesh.grad_phi, values[mesh.elements])


# --------------------------------------------------------------------------
# Norms and integrals


def grad_seminorm_p(u: Field, p: float) -> float:
    """||Du||_p^p with the Euclidean pointwise gradient norm; needs p >= 2."""
    if p < 2:
        raise ValueError(f"gradient seminorm requires p >= 2, got p={p}")
    g = grad_at_elements(u.mesh, u.values)
    mag = np.sqrt(np.einsum("ed,ed->e", g, g))
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
    uq = values_at_quad(u.mesh, u.values)
    return float((u.mesh.quad_weights * uq).sum() / u.mesh.measure)


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
# Assembly


def _assemble(mesh: Mesh, local) -> sp.csr_matrix:
    """Sparse matrix summing the element entries local(i, j), shape (E,), over local node pairs."""
    nl = mesh.dimension + 1
    pairs = [(i, j) for i in range(nl) for j in range(nl)]
    rows = np.concatenate([mesh.elements[:, i] for i, _ in pairs])
    cols = np.concatenate([mesh.elements[:, j] for _, j in pairs])
    data = np.concatenate([local(i, j) for i, j in pairs])
    n = mesh.node_count
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def stiffness_matrix(mesh: Mesh) -> sp.csr_matrix:
    """p=2 stiffness matrix K_ij = int grad(phi_i) . grad(phi_j)."""
    g = mesh.grad_phi
    return _assemble(mesh, lambda i, j: np.einsum("ed,ed->e", g[:, i, :], g[:, j, :]) * mesh.element_measure)


def mass_matrix(mesh: Mesh) -> sp.csr_matrix:
    """Consistent mass matrix under the element quadrature rule."""
    phi = mesh.phi_at_quad
    return _assemble(mesh, lambda i, j: mesh.quad_weights @ (phi[:, i] * phi[:, j]))


def p_stiffness_vector(mesh: Mesh, values: np.ndarray, p: float) -> np.ndarray:
    """Nodal vector with entries int |grad u|^(p-2) grad u . grad phi_i."""
    g = grad_at_elements(mesh, values)
    if p == 2:
        flux = g
    else:
        mag2 = np.einsum("ed,ed->e", g, g)
        flux = (mag2 ** ((p - 2) / 2.0))[:, None] * g
    out = np.zeros(mesh.node_count)
    nl = mesh.dimension + 1
    for i in range(nl):
        contrib = np.einsum("ed,ed->e", flux, mesh.grad_phi[:, i, :]) * mesh.element_measure
        np.add.at(out, mesh.elements[:, i], contrib)
    return out


def p_mass_vector(mesh: Mesh, values: np.ndarray, p: float) -> np.ndarray:
    """Nodal vector with entries int |u|^(p-2) u phi_i (quadrature)."""
    uq = values_at_quad(mesh, values)
    return load_vector(mesh, uq if p == 2 else np.abs(uq) ** (p - 2) * uq)


def load_vector(mesh: Mesh, fq) -> np.ndarray:
    """Nodal vector int f phi_i for integrand values fq at quadrature points."""
    fq = np.broadcast_to(np.asarray(fq, dtype=float), mesh.quad_weights.shape)
    contrib = (mesh.quad_weights * fq) @ mesh.phi_at_quad
    out = np.zeros(mesh.node_count)
    np.add.at(out, mesh.elements, contrib)
    return out


class RieszMap:
    """Prefactorized p=2 Riesz solve used as preconditioner and dual norm.

    Dirichlet uses the stiffness matrix restricted to interior nodes;
    Neumann adds the mass matrix so the operator is nonsingular.
    """

    def __init__(self, mesh: Mesh, bc: BCKind):
        self.mesh = mesh
        self.bc = bc
        K = stiffness_matrix(mesh)
        if bc is BCKind.DIRICHLET:
            self.free = mesh.interior_nodes
            A = K[self.free][:, self.free]
        else:
            self.free = np.arange(mesh.node_count)
            A = K + mass_matrix(mesh)
        self._matrix = A.tocsr()
        self._solve = spla.factorized(A.tocsc())

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
        if mesh.dimension == 1:
            fh.write("node_index,x,value\n")
            for i in range(mesh.node_count):
                fh.write(f"{i},{float(mesh.nodes[i, 0])!r},{float(u.values[i])!r}\n")
        else:
            fh.write("node_index,x,y,value\n")
            for i in range(mesh.node_count):
                fh.write(
                    f"{i},{float(mesh.nodes[i, 0])!r},{float(mesh.nodes[i, 1])!r},{float(u.values[i])!r}\n"
                )
