"""Spans around public plresonance calls, and the per-layer metrics they give.

The benchmark times each layer from outside the package: a wrapper records
one span ``[name, parent, start, end]`` per call of a public function, where
``parent`` is the index of the span that was open when the call began (-1 for
a root).  Spans stay in memory and are aggregated after the run.

Modules import each other's functions by name (``mpsolve`` holds its own
reference to ``functional.energy``, ``eigen`` to ``mesh.lp_norm_p``), so a
wrapper is rebound in every plresonance module namespace that holds the
original object; wrapping only the defining module would undercount calls.
Methods are wrapped once, on their class.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute) of every traced callable; a class attribute is written
# "Class.method", and a constructor is traced under the class name.
TRACED = (
    ("cli", "load_config"),
    ("cli", "run"),
    ("eigen", "compute_first_eigenpair"),
    ("hypotheses", "check_all"),
    ("mpsolve", "certify_ring"),
    ("mpsolve", "mountain_pass"),
    ("mpsolve", "verify_solution"),
    ("functional", "ProblemSpec.__init__"),
    ("functional", "energy"),
    ("functional", "weak_gradient"),
    ("expr", "evaluate"),
    ("mesh", "p_stiffness_vector"),
    ("mesh", "p_mass_vector"),
    ("mesh", "load_vector"),
    ("mesh", "grad_seminorm_p"),
    ("mesh", "lp_norm_p"),
    ("mesh", "RieszMap.solve"),
    ("mesh", "RieszMap.dual_norm"),
)

ROOT_SPAN = "cli.run"
STAGE_SPANS = (
    "cli.load_config",
    "functional.ProblemSpec",
    "eigen.compute_first_eigenpair",
    "hypotheses.check_all",
    "mpsolve.certify_ring",
    "mpsolve.mountain_pass",
    "mpsolve.verify_solution",
)
KERNEL_SPANS = (
    "functional.energy",
    "functional.weak_gradient",
    "expr.evaluate",
    "mesh.p_stiffness_vector",
    "mesh.p_mass_vector",
    "mesh.load_vector",
    "mesh.grad_seminorm_p",
    "mesh.lp_norm_p",
    "mesh.RieszMap.solve",
    "mesh.RieszMap.dual_norm",
)
COUNTS = (
    "mpsolve.iterations",
    "mpsolve.path_iterations",
    "mpsolve.polish_iterations",
    "mpsolve.sphere_samples",
    "eigen.iterations",
    "mesh.nodes",
    "mesh.elements",
)

# name -> unit of every metric a traced run reports
PER_LAYER = {
    **{f"{name}.s": "s" for name in STAGE_SPANS},
    f"{ROOT_SPAN}.self_s": "s",
    **{
        f"{name}.{field}": unit
        for name in KERNEL_SPANS
        for field, unit in (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"))
    },
    **{name: "count" for name in COUNTS},
    "mpsolve.energy_per_iteration": "calls/iter",
    "mpsolve.weak_gradient_per_iteration": "calls/iter",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
}


_NOT_CALLED = (0, 0.0, 0.0)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__init__')}"


class Tracer:
    """Context manager that installs the span wrappers and removes them on exit.

    ``spans`` holds one ``[name, parent, start, end]`` per traced call, in
    start order, so a parent's index is always below its children's.
    ``last`` maps a span name to the value its latest call returned.
    """

    def __init__(self):
        self.spans: list = []
        self.last: dict = {}
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans, stack, last, clock = self.spans, self._stack, self.last, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            last[name] = out
            return out

        return traced

    def __enter__(self):
        package = [m for n, m in list(sys.modules.items()) if n == "plresonance" or n.startswith("plresonance.")]
        for module, attr in TRACED:
            owner = importlib.import_module(f"plresonance.{module}")
            *classes, fn_name = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[fn_name]
            wrapper = self.wrap(span_name(module, attr), original)
            if classes:
                homes = [(owner, fn_name)]
            else:
                homes = [(m, key) for m in package for key, value in list(vars(m).items()) if value is original]
            for home, key in homes:
                setattr(home, key, wrapper)
                self._undo.append((home, key, original))
        return self

    def __exit__(self, *exc):
        while self._undo:
            home, key, original = self._undo.pop()
            setattr(home, key, original)
        return False


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children.

    Children never outlive their parent, so the self times of a subtree add
    up to the duration of its root.
    """
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def aggregate(spans: list) -> dict:
    """Per span name: [calls, inclusive seconds, self seconds]."""
    stats: dict = {}
    for (name, _, start, end), own in zip(spans, self_times(spans)):
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own
    return stats


def self_time_gap(spans: list, root: str = ROOT_SPAN) -> float:
    """Largest |sum of self times in a root's subtree - root duration| over roots named ``root``."""
    top = [-1] * len(spans)
    self_sum: dict = {}
    for i, ((name, parent, _, _), own) in enumerate(zip(spans, self_times(spans))):
        top[i] = top[parent] if parent >= 0 else (i if name == root else -1)
        if top[i] >= 0:
            self_sum[top[i]] = self_sum.get(top[i], 0.0) + own
    return max((abs(total - (spans[r][3] - spans[r][2])) for r, total in self_sum.items()), default=0.0)


def calls_within(spans: list, ancestor: str, name: str) -> int:
    """Number of ``name`` spans that run inside an ``ancestor`` span."""
    inside = [False] * len(spans)
    count = 0
    for i, (span, parent, _, _) in enumerate(spans):
        enclosed = parent >= 0 and inside[parent]
        inside[i] = enclosed or span == ancestor
        if enclosed and span == name:
            count += 1
    return count


def per_layer_metrics(tracer: Tracer, untraced_solve_s: float) -> dict:
    """Every PER_LAYER value from one traced ``cli.load_config`` + ``cli.run``."""
    spans = tracer.spans
    stats = aggregate(spans)
    values: dict = {}
    for name in STAGE_SPANS:
        values[f"{name}.s"] = stats.get(name, _NOT_CALLED)[1]
    values[f"{ROOT_SPAN}.self_s"] = stats.get(ROOT_SPAN, _NOT_CALLED)[2]
    for name in KERNEL_SPANS:
        calls, total, own = stats.get(name, _NOT_CALLED)
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = own
        values[f"{name}.us_per_call"] = 1e6 * total / calls if calls else 0.0

    result = tracer.last.get("mpsolve.mountain_pass")
    cert = tracer.last.get("mpsolve.certify_ring")
    eigenpair = tracer.last.get("eigen.compute_first_eigenpair")
    iterations = result.iterations if result is not None else 0
    path_iterations = result.path_iterations if result is not None else 0
    values["mpsolve.iterations"] = iterations
    values["mpsolve.path_iterations"] = path_iterations
    values["mpsolve.polish_iterations"] = iterations - path_iterations
    values["mpsolve.sphere_samples"] = cert.sphere_samples if cert is not None else 0
    values["eigen.iterations"] = eigenpair.iterations if eigenpair is not None else 0
    mesh = eigenpair.u1.mesh if eigenpair is not None else None
    values["mesh.nodes"] = mesh.node_count if mesh is not None else 0
    values["mesh.elements"] = int(mesh.elements.shape[0]) if mesh is not None else 0
    for kernel, key in (("functional.energy", "energy"), ("functional.weak_gradient", "weak_gradient")):
        inside = calls_within(spans, "mpsolve.mountain_pass", kernel)
        values[f"mpsolve.{key}_per_iteration"] = inside / iterations if iterations else 0.0

    traced_solve_s = stats.get(ROOT_SPAN, _NOT_CALLED)[1]
    values["trace.solve_s"] = traced_solve_s
    values["trace.overhead_s"] = traced_solve_s - untraced_solve_s
    assert set(values) == set(PER_LAYER)
    return values
