"""First p-Laplacian eigenpair by preconditioned Rayleigh-quotient descent.

The first eigenvalue is the infimum of R(u) = ||Du||_p^p / ||u||_p^p over
the admissible discrete space: boundary-zero fields for the Dirichlet
problem, zero-mean fields for the Neumann subspace problem.  The solver is
projected gradient descent on R with the Euclidean gradient mapped through
one p=2 stiffness solve (the natural Riesz map at p=2 and an effective
surrogate for p > 2), Armijo backtracking, and renormalization to
||u||_p = 1 after every accepted step.  Iterations stop when the Rayleigh
quotient decreases by less than ``tol``.

Sign convention: Dirichlet eigenfunctions are flipped so their mean is
positive (the first eigenfunction is sign-definite).  Zero-mean Neumann
eigenfunctions have no mean to fix, so the value at the first node of
maximal magnitude is made positive instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import (
    BCKind,
    Field,
    Mesh,
    RieszMap,
    grad_seminorm_p,
    lp_norm_p,
    mean_value,
    p_mass_vector,
    p_stiffness_vector,
    project_admissible,
)

__all__ = ["EigenPair", "ConvergenceError", "compute_first_eigenpair", "rayleigh_quotient"]

_ARMIJO_SLOPE = 1e-4
_ARMIJO_SHRINK = 0.5


@dataclass(frozen=True)
class EigenPair:
    lambda1: float
    u1: Field
    bc_kind: BCKind
    residual: float
    iterations: int


class ConvergenceError(RuntimeError):
    """Raised when an iterative solve exhausts its budget; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


def rayleigh_quotient(u: Field, p: float) -> float:
    """||Du||_p^p / ||u||_p^p; rejects the zero field."""
    den = lp_norm_p(u, p)
    if den == 0.0:
        raise ValueError("Rayleigh quotient of the zero field")
    return grad_seminorm_p(u, p) / den


def compute_first_eigenpair(
    mesh: Mesh,
    p: float,
    bc: BCKind,
    seed: int = 0,
    tol: float = 1e-10,
    max_iter: int = 50_000,
) -> EigenPair:
    """Minimize the Rayleigh quotient over the admissible space.

    Raises ``ConvergenceError`` with diagnostics if ``max_iter`` is
    exhausted before the per-step Rayleigh decrease falls below ``tol``,
    and ``ValueError`` if the projected initial iterate vanishes.
    """
    if p < 2:
        raise ValueError(f"eigenproblem requires p >= 2, got p={p}")
    rng = np.random.default_rng(seed)
    riesz = RieszMap(mesh, bc)

    u = project_admissible(mesh, bc, rng.uniform(0.5, 1.5, mesh.node_count))
    den = lp_norm_p(Field(mesh, u), p)
    if den < 1e-300:
        raise ValueError("initial iterate projects to the zero field")
    u /= den ** (1.0 / p)

    num = grad_seminorm_p(Field(mesh, u), p)
    den = lp_norm_p(Field(mesh, u), p)
    rq = num / den

    iterations = 0
    converged = False
    step = 1.0
    while iterations < max_iter:
        iterations += 1
        grad = project_admissible(mesh, bc, (p * p_stiffness_vector(mesh, u, p) - rq * p * p_mass_vector(mesh, u, p)) / den)
        d = project_admissible(mesh, bc, riesz.solve(grad))
        slope = float(grad @ d)
        if slope <= 0.0:
            converged = True
            break

        def _ray_value(t):
            v = project_admissible(mesh, bc, u - t * d)
            dv = lp_norm_p(Field(mesh, v), p)
            if dv <= 1e-300:
                return np.inf, v, dv
            return grad_seminorm_p(Field(mesh, v), p) / dv, v, dv

        t = min(1.0, 4.0 * step)
        accepted = False
        for _ in range(60):
            t_rq, trial, tden = _ray_value(t)
            if t_rq <= rq - _ARMIJO_SLOPE * t * slope:
                accepted = True
                break
            t *= _ARMIJO_SHRINK
        if not accepted:
            converged = True  # no descent possible at line-search resolution
            break
        # Armijo alone accepts overlong steps on this ratio; keep halving
        # while that strictly improves the quotient.
        for _ in range(20):
            h_rq, h_trial, h_den = _ray_value(t * _ARMIJO_SHRINK)
            if h_rq >= t_rq:
                break
            t *= _ARMIJO_SHRINK
            t_rq, trial, tden = h_rq, h_trial, h_den
        step = t
        u = project_admissible(mesh, bc, trial / tden ** (1.0 / p))
        num = grad_seminorm_p(Field(mesh, u), p)
        den = lp_norm_p(Field(mesh, u), p)
        new_rq = num / den
        decrease = rq - new_rq
        rq = new_rq
        if decrease < tol:
            converged = True
            break

    # residual: dual norm of the projected Rayleigh gradient at the final iterate
    grad = project_admissible(mesh, bc, (p * p_stiffness_vector(mesh, u, p) - rq * p * p_mass_vector(mesh, u, p)) / den)
    residual = float(np.sqrt(max(float(grad @ riesz.solve(grad)), 0.0)))

    if not converged:
        raise ConvergenceError(
            f"eigensolver did not converge within {max_iter} iterations",
            {"iterations": iterations, "lambda_estimate": rq, "residual": residual},
        )

    u /= den ** (1.0 / p)
    if bc is BCKind.DIRICHLET:
        if mean_value(Field(mesh, u)) < 0.0:
            u = -u
    else:
        k = int(np.argmax(np.abs(u)))
        if u[k] < 0.0:
            u = -u
    field = Field(mesh, u)
    lam = grad_seminorm_p(field, p) / lp_norm_p(field, p)
    return EigenPair(lambda1=lam, u1=field, bc_kind=bc, residual=residual, iterations=iterations)
