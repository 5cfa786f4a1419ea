"""Independent oracles used to freeze expected values in the tests.

Nothing here touches the implementation paths under test: the rational
evaluator walks the AST with exact Fraction arithmetic, limits come from
sympy, and the dense eigensolves go through LAPACK.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg as sla

from plresonance import expr as ex


def rational_eval(node, bindings):
    """Exact evaluation of polynomial ASTs (+ - * / ^int) over Fractions."""
    if isinstance(node, ex.Num):
        return Fraction(node.value)
    if isinstance(node, ex.Var):
        return Fraction(bindings[node.name])
    if isinstance(node, ex.Neg):
        return -rational_eval(node.operand, bindings)
    if isinstance(node, ex.Bin):
        left = rational_eval(node.left, bindings)
        right = rational_eval(node.right, bindings)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return left / right
        if node.op == "^":
            if right.denominator != 1:
                raise ValueError("rational oracle only handles integer powers")
            return left ** right.numerator
    raise ValueError(f"rational oracle cannot evaluate {node!r}")


def element_pair_matrices(mesh):
    """Dense stiffness and mass matrices summed element by element, local node pair by pair.

    K_ab += |T| grad(phi_i) . grad(phi_j) and M_ab += sum_q w_q phi_i(q) phi_j(q)
    for the local nodes i, j of T at global nodes a, b: the element formulas,
    independent of the sparse operators ``plresonance.mesh`` assembles with.
    """
    n = mesh.node_count
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    phi = mesh.phi_at_quad
    for e, element in enumerate(mesh.elements):
        for i, a in enumerate(element):
            for j, b in enumerate(element):
                K[a, b] += mesh.element_measure[e] * float(mesh.grad_phi[e, i] @ mesh.grad_phi[e, j])
                M[a, b] += float(mesh.quad_weights[e] @ (phi[:, i] * phi[:, j]))
    return K, M


def dense_first_eigenvalue(mesh, dirichlet=True):
    """Smallest generalized eigenvalue of (K, M) on the admissible block.

    For the zero-mean Neumann subspace the admissible minimum is the
    second eigenvalue of the unconstrained pair (eigenvectors are
    M-orthogonal to the constant mode).
    """
    K, M = element_pair_matrices(mesh)
    if dirichlet:
        idx = mesh.interior_nodes
        vals = sla.eigh(K[np.ix_(idx, idx)], M[np.ix_(idx, idx)], eigvals_only=True)
        return float(vals[0])
    vals = sla.eigh(K, M, eigvals_only=True)
    return float(vals[1])


def _sympify_in_u(text: str):
    import sympy as sp

    u = sp.symbols("u", positive=True)
    expr = sp.sympify(text.replace("^", "**").replace("ln", "log"), locals={"u": u})
    return expr, u


def sympy_limit_ll_ratio(F_text: str, f_text: str, p: int = 2):
    """Limit of (p F - f u)/ln(u) as u -> +infinity, symbolically."""
    import sympy as sp

    F, u = _sympify_in_u(F_text)
    f, _ = _sympify_in_u(f_text)
    return float(sp.limit((p * F - f * u) / sp.log(u), u, sp.oo))


def sympy_limit_small_u(F_text: str, p: int = 2):
    """Limit of p F / u^p as u -> 0+, symbolically."""
    import sympy as sp

    F, u = _sympify_in_u(F_text)
    return float(sp.limit(p * F / u**p, u, 0, "+"))
