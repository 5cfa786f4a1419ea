"""Workload table and the correctness checks applied to every benchmark solve.

Each workload is a ``solve`` config under ``configs/``.  A solve counts as
correct only if it exits 0 with a passing ``verify`` stage, its first
eigenvalue matches the closed form within the discretisation error measured
on that mesh, its mountain-pass level matches the known critical level, and
its ``report.json`` equals the first report of the same seed apart from
``timestamp``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
LEVEL_TOL = 1e-6


def pi_p(p: float) -> float:
    """pi_p = 2 pi / (p sin(pi / p)); the 1D Dirichlet eigenvalue on (0, 1) is (p - 1) pi_p^p."""
    return 2.0 * math.pi / (p * math.sin(math.pi / p))


@dataclass(frozen=True)
class Workload:
    config: str
    lambda1: float  # closed-form first eigenvalue of the continuous problem
    lambda_rtol: float  # about twice the relative error measured on this mesh
    level: float | None  # known critical level, None where the solve cannot reach one


WORKLOADS = {
    # relative eigenvalue errors measured at these meshes: 5.0e-5, 2.4e-3, 8.0e-4, 8.4e-5
    "dirichlet-1d-p2": Workload("dirichlet-1d-p2.cfg", math.pi**2, 1e-4, 0.2249570),
    "dirichlet-2d-p2": Workload("dirichlet-2d-p2.cfg", 2.0 * math.pi**2, 5e-3, 0.1672479),
    "neumann-2d-p2": Workload("neumann-2d-p2.cfg", math.pi**2, 2e-3, 1.0 - math.log(2.0)),
    "dirichlet-1d-p3": Workload("dirichlet-1d-p3.cfg", 2.0 * pi_p(3.0) ** 3, 2e-4, None),
}

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def without_timestamp(report_text: str) -> str:
    return _TIMESTAMP.sub('"timestamp": ""', report_text, count=1)


def check_solve(workload: Workload, code, report_text: str, reference_text: str | None) -> list:
    """Problems found in one solve; an empty list means the solve is correct.

    ``code`` is the exit code ``cli.run`` returned (None if it raised);
    ``reference_text`` is the first report written at the same seed, or
    None for that first report itself.
    """
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    try:
        stages = json.loads(report_text)["stages"]
    except (ValueError, KeyError, TypeError):
        return problems + ["report.json is missing or malformed"]

    verify = stages.get("verify", {})
    if verify.get("status") != "ok" or verify.get("passed") is not True:
        problems.append(f"verify stage {verify.get('status', 'missing')}")

    lam = stages.get("eig", {}).get("lambda1")
    if not isinstance(lam, (int, float)) or abs(lam - workload.lambda1) > workload.lambda_rtol * workload.lambda1:
        problems.append(f"lambda1 {lam} differs from {workload.lambda1:.10g} by more than {workload.lambda_rtol:g} relative")

    if workload.level is not None:
        for stage in ("solve", "verify"):
            level = stages.get(stage, {}).get("level")
            if not isinstance(level, (int, float)) or abs(level - workload.level) > LEVEL_TOL:
                problems.append(f"{stage} level {level} differs from {workload.level:.10g} by more than {LEVEL_TOL:g}")

    if reference_text is not None and without_timestamp(report_text) != without_timestamp(reference_text):
        problems.append("report.json differs from the first report at this seed beyond its timestamp")
    return problems
