"""Mountain-pass geometry certification and the path-deformation solver.

The mountain-pass picture requires three facts about the energy I:
I(0) = 0, I >= a > 0 on the sphere ||u||_{1,p} = rho, and I(e) <= 0 for
some e beyond the sphere.  ``certify_ring`` estimates the sphere minimum
by sampling directions (random admissible fields plus the first
eigenfunction in both signs), locally minimizing each on the sphere, and
selecting the largest rho whose sampled minimum is positive.
``find_low_point`` scans the natural low-energy ray: multiples of the
first eigenfunction for the Dirichlet problem, constant fields for
Neumann.

``mountain_pass`` deforms a discrete path of fields from 0 to e: the
maximal-energy interior node takes a Riesz-preconditioned Armijo descent
step, the path is re-equidistributed in ||.||_{1,p} (only when that does
not raise the interior maximum), and a Cerami record is stored per
iteration.  When the path phase stalls (no drop of the interior maximum
over a window, no descent slope, a failed line search, or an iteration
that leaves the path unchanged) the maximal node is polished by Newton's
method on I'(u) = 0, starting from its last record.  Each Newton step is
one sparse direct solve with the assembled tangent J(u) = I''(u) on the
admissible block, followed by an Armijo test on ||I'(u)||_*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .eigen import EigenPair
from .functional import CeramiRecord, ProblemSpec, cerami_measure, dual_norm, energy, tangent, weak_gradient
from .mesh import BCKind, Field, project_admissible, sobolev_norm_1p

__all__ = [
    "GeometryCertificate",
    "MountainPassResult",
    "VerificationRecord",
    "LowPointNotFound",
    "GeometryCertificateError",
    "DegeneratePathError",
    "find_low_point",
    "certify_ring",
    "mountain_pass",
    "verify_solution",
]

POSITIVITY_MARGIN = 1e-8
NONTRIVIALITY_NORM = 1e-3
_ARMIJO_SLOPE = 1e-4
_TIE_TOL = 1e-14
_STALL_WINDOW = 40
_STALL_DROP = 1e-13
_PS_JUMP = 10.0  # norm growth that flags a short run (see detect_ps_violation)
RING_DIRECTIONS = 8  # random start directions per sphere, beside +-u1
SPHERE_STEPS = 30  # cap on the descent steps from each start
LOW_POINT_STEPS = 48  # amplitudes scanned on the low-energy ray


class LowPointNotFound(RuntimeError):
    """No scanned field had non-positive energy (and large enough norm)."""

    def __init__(self, message: str, trace: list):
        super().__init__(message)
        self.trace = trace


class GeometryCertificateError(RuntimeError):
    """No sphere radius had a positive sampled minimum."""

    def __init__(self, message: str, ring_trace: list):
        super().__init__(message)
        self.ring_trace = ring_trace


class DegeneratePathError(RuntimeError):
    pass


@dataclass
class GeometryCertificate:
    rho: float
    a_estimate: float
    e: Field
    sphere_samples: int
    ring_trace: list  # (rho, sampled min of I)
    ray_trace: list  # (signed amplitude, I, norm)


@dataclass
class MountainPassResult:
    u_star: Field
    level: float
    residual: float
    cerami_history: list
    path_node_count: int
    iterations: int
    path_iterations: int  # leading iterations spent deforming the path
    norm: float
    converged: bool
    max_iterate_norm: float
    ps_violation: bool  # iterate norms diverged while the Cerami measure stayed up


@dataclass
class VerificationRecord:
    residual: float
    level: float
    norm: float
    residual_ok: bool
    nontrivial: bool
    passed: bool


def _low_base(spec: ProblemSpec, eigenpair: EigenPair | None) -> np.ndarray:
    if spec.bc_kind is BCKind.DIRICHLET:
        if eigenpair is None:
            raise ValueError("Dirichlet low-point scan needs the first eigenfunction")
        return eigenpair.u1.values
    return np.ones(spec.mesh.node_count)


def _scan_low_ray(spec, eigenpair, a_max, steps, min_norm):
    base = _low_base(spec, eigenpair)
    trace = []
    found = None
    for a in np.geomspace(1.0, a_max, steps):
        for s in (1.0, -1.0):
            u = Field(spec.mesh, s * a * base)
            e_val = energy(spec, u)
            nrm = sobolev_norm_1p(u, spec.p)
            trace.append((float(s * a), float(e_val), float(nrm)))
            if found is None and e_val <= 0.0 and nrm > min_norm:
                found = u
        if found is not None:
            break
    return found, trace


def find_low_point(
    spec: ProblemSpec,
    eigenpair: EigenPair | None = None,
    a_max: float = 1e3,
    steps: int = LOW_POINT_STEPS,
    min_norm: float = 0.0,
) -> Field:
    """First field on the low-energy ray with I <= 0 and norm > min_norm.

    Scans amplitudes geometrically from 1 to a_max in both signs along
    a |u1| (Dirichlet) or the constant fields a (Neumann); raises
    ``LowPointNotFound`` with the scan trace if the ray never dips.
    """
    if a_max <= 0:
        raise ValueError("a_max must be positive")
    found, trace = _scan_low_ray(spec, eigenpair, a_max, steps, min_norm)
    if found is None:
        raise LowPointNotFound(
            f"no field with I <= 0 and norm > {min_norm:g} up to amplitude {a_max:g} "
            "(the hypothesis set may fail for this problem)",
            trace,
        )
    return found


def _sphere_descend(spec, u: np.ndarray, rho: float):
    """Constrained descent on the ||.||_{1,p} = rho sphere via rescaling.

    Each line search starts at the step the previous one accepted (t = 1
    for the first) and halves t until the energy drops by the margin
    1e-12 max(1, |I|); it gives up once the predicted drop t * slope is
    below that margin, which no further halving can make up.
    """
    cur = energy(spec, Field(spec.mesh, u))
    best = cur
    evals = 1
    t = 1.0
    for _ in range(SPHERE_STEPS):
        r = weak_gradient(spec, Field(spec.mesh, u))
        d = project_admissible(spec.mesh, spec.bc_kind, spec.riesz.solve(r))
        slope = float(r @ d)
        if slope <= 1e-30:
            break
        margin = 1e-12 * max(1.0, abs(cur))
        accepted = False
        for _ in range(40):
            if t * slope < margin:
                break
            w = project_admissible(spec.mesh, spec.bc_kind, u - t * d)
            nw = sobolev_norm_1p(Field(spec.mesh, w), spec.p)
            if nw > 1e-300:
                trial = w * (rho / nw)
                e_t = energy(spec, Field(spec.mesh, trial))
                evals += 1
                if e_t < cur - margin:
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            break
        u, cur = trial, e_t
        best = min(best, cur)
    return best, evals


def certify_ring(
    spec: ProblemSpec,
    eigenpair: EigenPair,
    rho_grid,
    seed: int = 0,
    a_max: float = 1e3,
) -> GeometryCertificate:
    """Estimate the sphere minimum per rho and pair it with a low point.

    The sampled minimum is a lower-bound estimate, not a proof; the
    certificate records how many sphere evaluations produced it.  Raises
    ``GeometryCertificateError`` when no rho in the grid has a positive
    sampled minimum, and ``LowPointNotFound`` when the ray scan fails.
    """
    rhos = sorted(float(r) for r in rho_grid)
    if not rhos:
        raise ValueError("rho grid must not be empty")
    if rhos[0] <= 0:
        raise ValueError("rho values must be positive")
    rng = np.random.default_rng(seed)
    dirs = []
    for _ in range(RING_DIRECTIONS):
        v = project_admissible(spec.mesh, spec.bc_kind, rng.standard_normal(spec.mesh.node_count))
        if sobolev_norm_1p(Field(spec.mesh, v), spec.p) > 1e-12:
            dirs.append(v)
    dirs.append(eigenpair.u1.values.copy())
    dirs.append(-eigenpair.u1.values.copy())

    ring_trace = []
    samples = 0
    for rho in rhos:
        m = np.inf
        for v in dirs:
            nrm = sobolev_norm_1p(Field(spec.mesh, v), spec.p)
            u0 = v * (rho / nrm)
            best, evals = _sphere_descend(spec, u0, rho)
            samples += evals
            m = min(m, best)
        ring_trace.append((rho, float(m)))

    positive = [(rho, m) for rho, m in ring_trace if m > POSITIVITY_MARGIN]
    if not positive:
        listing = ", ".join(f"(rho={r:g}, min={m:.3e})" for r, m in ring_trace)
        raise GeometryCertificateError(
            f"no sphere radius with positive sampled minimum; best pairs: {listing}", ring_trace
        )
    rho_star, a_estimate = positive[-1]
    found, ray_trace = _scan_low_ray(spec, eigenpair, a_max, LOW_POINT_STEPS, rho_star)
    if found is None:
        raise LowPointNotFound(
            f"certificate needs a low point with norm > {rho_star:g}; none found up to {a_max:g}", ray_trace
        )
    return GeometryCertificate(
        rho=rho_star,
        a_estimate=a_estimate,
        e=found,
        sphere_samples=samples,
        ring_trace=ring_trace,
        ray_trace=ray_trace,
    )


def _redistribute(spec: ProblemSpec, nodes: list) -> list:
    """Resample the polyline so consecutive nodes are norm-equidistant."""
    m = len(nodes)
    chords = np.array(
        [sobolev_norm_1p(Field(spec.mesh, nodes[i + 1] - nodes[i]), spec.p) for i in range(m - 1)]
    )
    total = float(chords.sum())
    if total <= 0:
        return [v.copy() for v in nodes]
    cum = np.concatenate([[0.0], np.cumsum(chords)])
    targets = np.linspace(0.0, total, m)
    out = [nodes[0].copy()]
    seg = 0
    for j in range(1, m - 1):
        s = targets[j]
        while seg < m - 2 and cum[seg + 1] < s:
            seg += 1
        width = chords[seg]
        frac = 0.0 if width <= 0 else (s - cum[seg]) / width
        out.append(nodes[seg] + frac * (nodes[seg + 1] - nodes[seg]))
    out.append(nodes[-1].copy())
    return out


def _record(spec: ProblemSpec, u: np.ndarray, level: float, res: float, history: list):
    """Appends u's Cerami record, at energy ``level`` and dual residual ``res``, to history."""
    nrm = sobolev_norm_1p(Field(spec.mesh, u), spec.p)
    history.append(CeramiRecord(energy=level, residual=res, measure=(1.0 + nrm) * res, norm=nrm))


def detect_ps_violation(history: list, converged: bool, tol: float) -> bool:
    """Flag iterate-norm divergence with a non-vanishing Cerami measure.

    On an unconverged run of n >= 2 records, with the window w = max(1, n // 10):
    every norm in the last w exceeds every norm in the first w by ``_PS_JUMP``
    (n < 20) or 2 (n >= 20), and every measure in the last w is above tol.  The
    run left the bounded region and stayed out, in one step or over many: a
    compactness failure rather than a slow solve.
    """
    n = len(history)
    if converged or n < 2:
        return False
    window = max(1, n // 10)
    head = max(rec.norm for rec in history[:window])
    tail = history[-window:]
    jump = _PS_JUMP if n < 20 else 2.0
    return min(rec.norm for rec in tail) > jump * head and all(rec.measure > tol for rec in tail)


def _max_interior(energies: np.ndarray) -> int:
    """Index of the maximal interior node; ties within 1e-14 go lowest."""
    interior = energies[1:-1]
    top = interior.max()
    for k, e_val in enumerate(interior):
        if e_val >= top - _TIE_TOL:
            return k + 1
    return int(np.argmax(interior)) + 1


def mountain_pass(
    spec: ProblemSpec,
    e: Field,
    path_nodes: int = 21,
    tol: float = 1e-6,
    max_iter: int = 20_000,
) -> MountainPassResult:
    """Locate a critical point by deforming a discrete path from 0 to e.

    Returns the polished maximal node, its level, and the Cerami history
    (one record per iteration, so the history length equals the reported
    iteration count).  A run that exhausts ``max_iter`` is returned with
    ``converged=False`` rather than raised.
    """
    if path_nodes < 3:
        raise ValueError("the path needs at least 3 nodes")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    e_norm = sobolev_norm_1p(e, spec.p)
    if e_norm <= 0:
        raise ValueError("e must be a nonzero field")
    if energy(spec, e) > 1e-12:
        raise ValueError("mountain pass requires I(e) <= 0")

    mesh = spec.mesh
    nodes = [t * e.values for t in np.linspace(0.0, 1.0, path_nodes)]
    energies = np.array([energy(spec, Field(mesh, v)) for v in nodes])

    history: list[CeramiRecord] = []
    iterations = 0
    stall_ref_energy = float(energies[_max_interior(energies)])
    stall_ref_iter = 0

    while iterations < max_iter:
        start = list(nodes)
        k = _max_interior(energies)
        u = nodes[k]
        r = weak_gradient(spec, Field(mesh, u))
        res = dual_norm(spec, r)
        _record(spec, u, float(energies[k]), res, history)
        iterations += 1
        if res <= tol:
            break
        if iterations >= max_iter:
            break

        # stall detection: interior maximum no longer dropping
        if iterations - stall_ref_iter >= _STALL_WINDOW:
            if stall_ref_energy - energies[k] < _STALL_DROP:
                break
            stall_ref_energy = energies[k]
            stall_ref_iter = iterations

        iteration_max = float(energies[k])
        d = spec.riesz.solve(r)
        # remove the K-tangential component so the node slides off the
        # ridge instead of down the path toward an endpoint
        tau = nodes[k + 1] - nodes[k - 1]
        tau_norm2 = float(tau @ (ktau := spec.riesz.apply(tau)))
        if tau_norm2 > 0:
            d = d - (float(d @ ktau) / tau_norm2) * tau
        slope = float(r @ d)
        if slope <= 0.0:
            break
        t = 1.0
        accepted = False
        for _ in range(60):
            trial = u - t * d
            e_t = energy(spec, Field(mesh, trial))
            # a slope at rounding level passes the Armijo test with no drop at
            # all; such a step only moves the path by rounding, so it must fail
            if e_t <= energies[k] - _ARMIJO_SLOPE * t * slope and e_t < energies[k]:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        nodes[k] = trial
        energies[k] = e_t

        # re-equidistribute; monotonicity is kept per iteration, so the
        # resampled interior maximum may not exceed the pre-step maximum
        cand = _redistribute(spec, nodes)
        cand_energies = np.array([energy(spec, Field(mesh, v)) for v in cand])
        if cand_energies[1:-1].max() <= iteration_max + 1e-12:
            nodes, energies = cand, cand_energies

        max_norm = max(sobolev_norm_1p(Field(mesh, v), spec.p) for v in nodes[1:-1])
        if max_norm < 1e-8:
            raise DegeneratePathError("path collapsed onto the zero field")
        # the re-equidistribution undid the step: the path is a fixed point
        # of this iteration, and every further one would record u again
        if all(np.array_equal(a, b) for a, b in zip(nodes, start)):
            break

    path_iterations = iterations
    u, res, iterations = _polish(spec, u, r, res, tol, max_iter, iterations, history)

    field = Field(mesh, u)
    converged = res <= tol
    return MountainPassResult(
        u_star=field,
        level=energy(spec, field),
        residual=res,
        cerami_history=history,
        path_node_count=path_nodes,
        iterations=iterations,
        path_iterations=path_iterations,
        norm=sobolev_norm_1p(field, spec.p),
        converged=converged,
        max_iterate_norm=max(rec.norm for rec in history),
        ps_violation=detect_ps_violation(history, converged, tol),
    )


def _polish(spec, u, r, res, tol, max_iter, iterations, history):
    """Newton's method on I'(u) = 0 from the node the path phase hands over.

    Starts from the residual r, of dual norm res, that the path phase
    recorded at u, so u is not recorded twice.  Each step solves
    J(u) d = I'(u) on the admissible block by one sparse direct solve with
    the assembled tangent J(u) = I''(u), symmetric but indefinite at a
    mountain-pass point.  The step u - t d must pass an Armijo test on
    ||I'||_* and lower it strictly; its point is recorded.  A non-finite
    step or a failed line search ends the polish unconverged.
    """
    mesh = spec.mesh
    free = spec.riesz.free
    while res > tol and iterations < max_iter:
        d = np.zeros(mesh.node_count)
        d[free] = spla.spsolve(tangent(spec, Field(mesh, u))[free][:, free], r[free])
        if not np.all(np.isfinite(d)):
            break
        t = 1.0
        for _ in range(60):
            trial = u - t * d
            r_t = weak_gradient(spec, Field(mesh, trial))
            res_t = dual_norm(spec, r_t)
            # below rounding the Armijo bound admits res_t == res: the same point until max_iter
            if res_t <= (1.0 - _ARMIJO_SLOPE * t) * res and res_t < res:
                break
            t *= 0.5
        else:
            break
        u, r, res = trial, r_t, res_t
        _record(spec, u, energy(spec, Field(mesh, u)), res, history)
        iterations += 1
    return u, res, iterations


def verify_solution(spec: ProblemSpec, u: Field, tol: float = 1e-6) -> VerificationRecord:
    """Independent re-check: dual residual, level, and nontriviality."""
    rec = cerami_measure(spec, u)
    residual_ok = rec.residual <= tol
    nontrivial = rec.norm > NONTRIVIALITY_NORM
    return VerificationRecord(
        residual=rec.residual,
        level=rec.energy,
        norm=rec.norm,
        residual_ok=residual_ok,
        nontrivial=nontrivial,
        passed=residual_ok and nontrivial,
    )
