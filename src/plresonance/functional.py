"""Energy functionals, weak-form residuals, and Cerami diagnostics.

Two resonant problems share this module.  With F(x, u) = int_0^u f(x, r) dr
and G(x, u) = int_0^u g(x, r) dr:

* Dirichlet:  I(u) = (1/p)||Du||_p^p - (lambda1/p)||u||_p^p - int F(x, u) dx,
  over boundary-zero fields, with lambda1 the first Dirichlet eigenvalue.
* Neumann:    I(u) = (1/p)||Du||_p^p - int F(x, u) dx + int_bdry G(x, u) ds.

``weak_gradient`` assembles the nodal residual <I'(u), phi_i> with the same
quadrature as ``energy`` (central differences of the energy match it to near
machine precision), and ``tangent`` assembles I''(u) by the same rule.  The
dual norm realizing ||I'(u)|| is the p=2 Riesz norm (stiffness on the
Dirichlet interior, stiffness plus mass for Neumann), fixed once per problem
for reproducibility.  The Cerami measure is (1 + ||u||_{1,p}) ||I'(u)||_*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import expr as ex
from .mesh import (
    BCKind,
    Field,
    Mesh,
    RieszMap,
    grad_seminorm_p,
    is_dirichlet_admissible,
    load_vector,
    mass_matrix,
    p_stiffness_vector,
    sobolev_norm_1p,
    stiffness_matrix,
    values_at_quad,
)

__all__ = [
    "ProblemSpec",
    "SpecError",
    "CeramiRecord",
    "NumericAntiderivative",
    "energy",
    "weak_gradient",
    "tangent",
    "dual_norm",
    "cerami_measure",
]

P_STAR_CAP = 1e6


class SpecError(ValueError):
    """Problem specification is internally inconsistent."""


@dataclass(frozen=True)
class CeramiRecord:
    energy: float
    residual: float
    measure: float  # (1 + ||u||_{1,p}) * residual
    norm: float


def _field_function(expression: ex.Expression):
    """``(coords, u) -> value`` of an (x[, y][, u]) expression, arrays broadcast."""
    return lambda coords, u=None: ex.evaluate(expression, coords if u is None else {**coords, "u": u})


class NumericAntiderivative:
    """F(x, u) = int_0^u f(x, r) dr by composite Gauss quadrature.

    The unit parameterization r = u*tau is split into geometric decades
    of tau down to 1e-12 so integrands varying over many scales (for
    example 1/(1+r) up to r = 1e6) are resolved; the Gauss order per
    segment is doubled until successive values agree to ``_TOL``.
    """

    _TAU_BREAKS = np.concatenate([[0.0], np.logspace(-12, 0, 13)])
    _TOL = 1e-10

    def __init__(self, fn):
        self.fn = fn

    def _apply(self, coords: dict, u: np.ndarray, order: int) -> np.ndarray:
        xi, w = np.polynomial.legendre.leggauss(order)
        total = np.zeros_like(u)
        uu = u[..., None]
        for lo, hi in zip(self._TAU_BREAKS[:-1], self._TAU_BREAKS[1:]):
            half = 0.5 * (hi - lo)
            taus = lo + half * (xi + 1.0)  # (order,)
            r = uu * taus
            cb = {k: np.asarray(v)[..., None] for k, v in coords.items()}
            fv = self.fn(cb, r)
            total = total + uu[..., 0] * half * np.asarray(fv * w).sum(axis=-1)
        return total

    def __call__(self, coords: dict, u):
        u_arr = np.asarray(u, dtype=float)
        scalar = u_arr.ndim == 0
        u_arr = np.atleast_1d(u_arr)
        prev = self._apply(coords, u_arr, 16)
        for order in (32, 64, 128):
            cur = self._apply(coords, u_arr, order)
            if np.max(np.abs(cur - prev)) <= self._TOL * (1.0 + np.max(np.abs(cur))):
                prev = cur
                break
            prev = cur
        return float(prev[0]) if scalar else prev


class ProblemSpec:
    """Validated problem data shared by the checker and the solvers.

    Holds the mesh, the exponent p, the boundary-condition kind, the
    nonlinearity f with its antiderivative F (closed form or numeric
    fallback), the Neumann pair g, G, the hypothesis weights theta, mu,
    the growth function h, the boundary density h_boundary, and the first
    eigenvalue.  Immutable after construction; evaluation helpers are
    re-entrant.
    """

    def __init__(
        self,
        mesh: Mesh,
        p: float,
        bc_kind: BCKind,
        f_expr: ex.Expression,
        F_expr: ex.Expression | None = None,
        g_expr: ex.Expression | None = None,
        G_expr: ex.Expression | None = None,
        theta_expr: ex.Expression | None = None,
        mu_expr: ex.Expression | None = None,
        h_expr: ex.Expression | None = None,
        h_boundary_expr: ex.Expression | None = None,
        lambda1: float | None = None,
        consistency_u_range: tuple = (-2.0, 2.0),
    ):
        if p < 2:
            raise SpecError(f"p must satisfy p >= 2, got p={p}")
        if bc_kind is BCKind.DIRICHLET:
            if lambda1 is None or not lambda1 > 0:
                raise SpecError("Dirichlet problems require lambda1 > 0 before energy evaluation")
        else:
            if g_expr is None:
                raise SpecError("Neumann problems require a boundary nonlinearity g")
        self.mesh = mesh
        self.p = float(p)
        self.bc_kind = bc_kind
        self.lambda1 = float(lambda1) if lambda1 is not None else None
        self.f_expr = f_expr
        self.F_expr = F_expr
        self.g_expr = g_expr
        self.G_expr = G_expr
        self.theta_expr = theta_expr
        self.mu_expr = mu_expr
        self.h_expr = h_expr
        self.h_boundary_expr = h_boundary_expr
        self.consistency_u_range = tuple(consistency_u_range)

        n = mesh.dimension
        self.p_star = (n * p / (n - p)) if p < n else P_STAR_CAP

        self.riesz = RieszMap(mesh, bc_kind)
        self.quad_coords = {"x": mesh.quad_points[:, :, 0]}
        self.node_coords = {"x": mesh.nodes[:, 0]}
        if n == 2:
            self.quad_coords["y"] = mesh.quad_points[:, :, 1]
            self.node_coords["y"] = mesh.nodes[:, 1]
        bn = mesh.boundary_nodes
        self.boundary_coords = {k: v[bn] for k, v in self.node_coords.items()}
        self.boundary_node_weights = mesh.boundary_weights[bn]

        self.f = _field_function(f_expr)
        self.F = _field_function(F_expr) if F_expr is not None else NumericAntiderivative(self.f)
        if bc_kind is BCKind.NEUMANN:
            self.g = _field_function(g_expr)
            self.G = _field_function(G_expr) if G_expr is not None else NumericAntiderivative(self.g)
        else:
            self.g = None
            self.G = None

        if F_expr is not None:
            _check_antiderivative(self, self.F, self.f, "F", "f")
        if bc_kind is BCKind.NEUMANN and G_expr is not None:
            _check_antiderivative(self, self.G, self.g, "G", "g")


def _check_antiderivative(spec: ProblemSpec, big, small, big_name: str, small_name: str):
    """dF/du must match f at sampled (x, u) points; F(x, 0) must vanish.

    Sampled points where the expression is undefined are skipped (the
    nonlinearity may have a restricted domain); at least 10 valid samples
    are required.
    """
    lo, hi = spec.consistency_u_range
    n_nodes = spec.mesh.node_count
    order = np.linspace(0, n_nodes - 1, 100).astype(int)
    us = np.linspace(lo, hi, 100)
    eps = 1e-5
    valid = 0
    for k in range(100):
        coords = {name: float(vals[order[k]]) for name, vals in spec.node_coords.items()}
        u = float(us[k])
        try:
            deriv = (big(coords, u + eps) - big(coords, u - eps)) / (2 * eps)
            f_val = small(coords, u)
        except ex.DomainError:
            continue
        valid += 1
        if abs(deriv - f_val) > 1e-6:
            raise SpecError(
                f"{big_name} is not an antiderivative of {small_name}: "
                f"d{big_name}/du = {deriv:.9g} vs {small_name} = {f_val:.9g} at u = {u:.6g}"
            )
    if valid < 10:
        raise SpecError(
            f"antiderivative consistency for {big_name}: fewer than 10 valid sample points "
            f"in u range {spec.consistency_u_range}"
        )
    for k in range(0, 100, 20):
        coords = {name: float(vals[order[k]]) for name, vals in spec.node_coords.items()}
        try:
            at_zero = big(coords, 0.0)
        except ex.DomainError:
            continue
        if abs(at_zero) > 1e-9:
            raise SpecError(f"{big_name}(x, 0) = {at_zero:.3g} but the antiderivative must vanish at u = 0")


def _require_admissible(spec: ProblemSpec, u: Field):
    if spec.bc_kind is BCKind.DIRICHLET and not is_dirichlet_admissible(u):
        raise ValueError("Dirichlet energy evaluated on a field with nonzero boundary values")


def energy(spec: ProblemSpec, u: Field) -> float:
    """I(u) for the problem's boundary condition."""
    _require_admissible(spec, u)
    mesh = spec.mesh
    p = spec.p
    psi = grad_seminorm_p(u, p) / p
    uq = values_at_quad(mesh, u.values)
    f_int = float(
        (mesh.quad_weights * np.broadcast_to(np.asarray(spec.F(spec.quad_coords, uq), dtype=float), uq.shape)).sum()
    )
    if spec.bc_kind is BCKind.DIRICHLET:
        # ||u||_p^p as lp_norm_p computes it, from the values already at the quadrature points
        return psi - spec.lambda1 * float((mesh.quad_weights * np.abs(uq) ** p).sum()) / p - f_int
    ub = u.values[mesh.boundary_nodes]
    gb = np.broadcast_to(np.asarray(spec.G(spec.boundary_coords, ub), dtype=float), ub.shape)
    return psi - f_int + float(np.dot(spec.boundary_node_weights, gb))


def weak_gradient(spec: ProblemSpec, u: Field) -> np.ndarray:
    """Nodal residual vector r_i = <I'(u), phi_i>.

    Dirichlet rows at boundary nodes are zeroed (test functions vanish
    on the boundary).
    """
    _require_admissible(spec, u)
    mesh = spec.mesh
    p = spec.p
    r = p_stiffness_vector(mesh, u.values, p)
    uq = values_at_quad(mesh, u.values)
    fq = spec.f(spec.quad_coords, uq)
    r -= load_vector(mesh, fq)
    if spec.bc_kind is BCKind.DIRICHLET:
        # p_mass_vector(mesh, u.values, p), from the values already at the quadrature points
        r -= spec.lambda1 * load_vector(mesh, uq if p == 2 else np.abs(uq) ** (p - 2) * uq)
        r[mesh.boundary_nodes] = 0.0
    else:
        ub = u.values[mesh.boundary_nodes]
        gb = np.broadcast_to(np.asarray(spec.g(spec.boundary_coords, ub), dtype=float), ub.shape)
        r[mesh.boundary_nodes] += spec.boundary_node_weights * gb
    return r


def _u_derivative(fn, coords: dict, u: np.ndarray) -> np.ndarray:
    """d/du fn(coords, u) by central differences with step 1e-6 (1 + |u|)."""
    h = 1e-6 * (1.0 + np.abs(u))
    return (fn(coords, u + h) - fn(coords, u - h)) / (2.0 * h)


def tangent(spec: ProblemSpec, u: Field) -> sp.csr_matrix:
    """Second variation J(u) = I''(u) as a sparse nodal matrix, Dirichlet boundary rows and columns kept."""
    _require_admissible(spec, u)
    uq = values_at_quad(spec.mesh, u.values)
    c = _u_derivative(spec.f, spec.quad_coords, uq)
    if spec.bc_kind is BCKind.DIRICHLET:
        c = c + spec.lambda1 * (spec.p - 1) * np.abs(uq) ** (spec.p - 2)
    J = stiffness_matrix(spec.mesh, u.values, spec.p) - mass_matrix(spec.mesh, c)
    if spec.bc_kind is BCKind.NEUMANN:
        bn = spec.mesh.boundary_nodes
        g_u = spec.boundary_node_weights * _u_derivative(spec.g, spec.boundary_coords, u.values[bn])
        J = J + sp.csr_matrix((g_u, (bn, bn)), shape=J.shape)
    return J


def dual_norm(spec: ProblemSpec, r: np.ndarray) -> float:
    """||r||_* = sqrt(r^T K^{-1} r) in the fixed p=2 Riesz geometry."""
    return spec.riesz.dual_norm(r)


def cerami_measure(spec: ProblemSpec, u: Field) -> CeramiRecord:
    """Energy, dual residual, Cerami measure, and iterate norm at u."""
    e_val = energy(spec, u)
    res = dual_norm(spec, weak_gradient(spec, u))
    nrm = sobolev_norm_1p(u, spec.p)
    return CeramiRecord(energy=e_val, residual=res, measure=(1.0 + nrm) * res, norm=nrm)
