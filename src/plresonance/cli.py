"""Configuration ingestion, run orchestration, and report emission.

Config files are line-oriented: ``[section]`` headers, ``key = value``
pairs, ``#`` comment lines.  Expression values are quoted strings so the
format stays trivially diffable.  Four subcommands share the format:

* ``eig``       computes the first eigenpair.
* ``check``     eigenpair + hypothesis report.
* ``geometry``  eigenpair + mountain-pass geometry certificate.
* ``solve``     full pipeline: eig -> check -> geometry -> mountain pass
                -> verification, aborting at the first failed stage.

Exit codes: 0 success, 1 usage or config error, 2 hypothesis failure,
3 geometry failure, 4 non-convergence.  Every stage that started leaves
a status object in report.json, which is byte-reproducible for a fixed
config and seed except for its timestamp field.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import expr as ex
from .eigen import ConvergenceError, compute_first_eigenpair
from .functional import ProblemSpec, SpecError, energy
from .hypotheses import PASS, SamplePlan, check_all
from .mesh import BCKind, build_interval_mesh, build_rectangle_mesh, sobolev_norm_1p, write_field_csv
from .mpsolve import (
    DegeneratePathError,
    GeometryCertificateError,
    LowPointNotFound,
    certify_ring,
    mountain_pass,
    verify_solution,
)

__all__ = ["RunConfig", "ConfigError", "load_config", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_HYPOTHESES = 2
EXIT_GEOMETRY = 3
EXIT_NONCONVERGED = 4


class ConfigError(ValueError):
    pass


# --------------------------------------------------------------------------
# Raw file parsing


def _parse_config_text(text: str) -> dict:
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"line {lineno}: empty section name")
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            current = {}
            sections[name] = current
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        current[key] = (value, lineno)
    return sections


# --------------------------------------------------------------------------
# Typed config


@dataclass
class DomainConfig:
    dimension: int
    xmin: float
    xmax: float
    n: int = 0
    ymin: float = 0.0
    ymax: float = 0.0
    nx: int = 0
    ny: int = 0


@dataclass
class ProblemConfig:
    p: float
    bc: BCKind
    f: str
    F: str | None = None
    g: str | None = None
    G: str | None = None
    consistency_u_min: float = -2.0
    consistency_u_max: float = 2.0


@dataclass
class HypothesesConfig:
    theta: str
    mu: str
    h: str
    a: str
    c1: float
    h_boundary: str | None = None
    signs: str = "both"


@dataclass
class SolverConfig:
    tol: float = 1e-6
    max_iter: int = 20_000
    path_nodes: int = 21
    rho_grid: tuple = (0.05, 0.1, 0.2, 0.5, 1.0)
    a_max: float = 1e3
    seed: int = 0


@dataclass
class RunConfig:
    domain: DomainConfig
    problem: ProblemConfig
    hypotheses: HypothesesConfig | None
    solver: SolverConfig
    expressions: dict = field(default_factory=dict)  # key -> parsed Expression


def _numbers(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


class _Key(NamedTuple):
    section: str
    key: str
    type: object  # int, float, str, BCKind, _numbers, or the variables of an expression, as "xyu"
    check: object = None  # predicate on (value, every value read so far, defaults included)
    message: str = ""  # error when check fails; "{}" takes the value
    required: bool = False
    when: tuple | None = None  # (key, value) an earlier key must have for this key to exist


_TYPE_ERRORS = {
    int: "expected an integer, got {!r}",
    float: "expected a number, got {!r}",
    BCKind: "must be 'dirichlet' or 'neumann', got {!r}",
    _numbers: "expected comma-separated numbers",
}

_IN_1D = ("dimension", 1)
_IN_2D = ("dimension", 2)
_NEUMANN_ONLY = ("bc", BCKind.NEUMANN)


# Every config key, in reading order.  Keys are unique across sections, and
# a key without a row here is rejected as unknown.
_SCHEMA = (
    _Key("domain", "dimension", int, lambda v, _: v in (1, 2), "must be 1 or 2", required=True),
    _Key("domain", "xmin", float, required=True),
    _Key("domain", "xmax", float, lambda v, s: v > s["xmin"], "must exceed xmin", required=True),
    _Key("domain", "n", int, lambda v, _: v >= 2, "must be >= 2", required=True, when=_IN_1D),
    _Key("domain", "ymin", float, required=True, when=_IN_2D),
    _Key("domain", "ymax", float, lambda v, s: v > s["ymin"], "must exceed ymin", required=True, when=_IN_2D),
    _Key("domain", "nx", int, lambda v, _: v >= 2, "must be >= 2", required=True, when=_IN_2D),
    _Key("domain", "ny", int, lambda v, _: v >= 2, "must be >= 2", required=True, when=_IN_2D),
    _Key("problem", "p", float, lambda v, _: not v < 2, "must satisfy p >= 2, got {}", required=True),
    _Key("problem", "bc", BCKind, required=True),
    _Key("problem", "f", "xyu", required=True),
    _Key("problem", "F", "xyu"),
    _Key("problem", "g", "xyu", required=True, when=_NEUMANN_ONLY),
    _Key("problem", "G", "xyu", when=_NEUMANN_ONLY),
    _Key("problem", "consistency_u_min", float),
    _Key("problem", "consistency_u_max", float, lambda v, s: v > s["consistency_u_min"], "must exceed consistency_u_min"),
    _Key("hypotheses", "theta", "xy", required=True),
    _Key("hypotheses", "mu", "xy", required=True),
    _Key("hypotheses", "h", "t", required=True),
    _Key("hypotheses", "a", "xy", required=True),
    _Key("hypotheses", "c1", float, lambda v, _: not v < 0, "must be >= 0", required=True),
    _Key("hypotheses", "h_boundary", "xy", when=_NEUMANN_ONLY),
    _Key("hypotheses", "signs", str, lambda v, _: v in ("both", "positive", "negative"), "must be both, positive, or negative"),
    _Key("solver", "tol", float, lambda v, _: v > 0, "must be positive"),
    _Key("solver", "a_max", float, lambda v, _: v > 0, "must be positive"),
    _Key("solver", "max_iter", int, lambda v, _: v >= 1, "out of range"),
    _Key("solver", "path_nodes", int, lambda v, _: v >= 3, "out of range"),
    _Key("solver", "seed", int),
    _Key("solver", "rho_grid", _numbers, lambda v, _: bool(v) and not any(r <= 0 for r in v), "needs positive entries"),
)

_SECTIONS = {"domain": DomainConfig, "problem": ProblemConfig, "hypotheses": HypothesesConfig, "solver": SolverConfig}


def _read_expression(row: _Key, text: str, dimension: int, expressions: dict):
    """Unquoted text of an expression key; its parse goes into ``expressions``.

    The antiderivatives F and G may be given as the bare word numeric, read
    as None (quadrature of f or g); ``y`` is no variable in 1D.
    """
    if row.key in ("F", "G") and text == "numeric":
        return None
    if not (len(text) >= 2 and text[0] == '"' and text[-1] == '"'):
        raise ConfigError(f"key '{row.key}': expression values must be quoted strings")
    allowed = set(row.type) - ({"y"} if dimension == 1 else set())
    try:
        expressions[row.key] = ex.parse(text[1:-1], allowed)
    except ex.ExprError as err:
        raise ConfigError(f"key '{row.key}': {err}") from None
    return text[1:-1]


def _read_key(row: _Key, raw: dict, values: dict, expressions: dict):
    """Convert and check one key of a parsed section into ``values``."""
    if row.when is not None and values[row.when[0]] != row.when[1]:
        if row.when is _NEUMANN_ONLY and row.key in raw:
            raise ConfigError(f"line {raw[row.key][1]}: key '{row.key}' is only valid for bc = neumann")
        return  # a key of the other dimension is left to the unknown-key check
    if row.key in raw:
        text, _ = raw.pop(row.key)
        if isinstance(row.type, str):
            values[row.key] = _read_expression(row, text, values["dimension"], expressions)
        else:
            try:
                values[row.key] = row.type(text)
            except ValueError:
                raise ConfigError(f"key '{row.key}': " + _TYPE_ERRORS[row.type].format(text)) from None
    elif row.required:
        raise ConfigError(f"[{row.section}] missing required key '{row.key}'")
    if row.check is not None and not row.check(values[row.key], values):
        raise ConfigError(f"key '{row.key}': " + row.message.format(values[row.key]))


def load_config(path) -> RunConfig:
    """Parse and validate a config file; expressions are parsed eagerly."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    sections = _parse_config_text(text)

    for required_section in ("domain", "problem"):
        if required_section not in sections:
            raise ConfigError(f"missing required section [{required_section}]")
    for name in sections:
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")

    # defaults first, so checks and conditions see every key of a section
    values = {f.name: f.default for cls in _SECTIONS.values() for f in fields(cls) if f.default is not MISSING}
    expressions: dict = {}
    for name in _SECTIONS:
        raw = sections.get(name)
        if raw is None:
            continue
        for row in _SCHEMA:
            if row.section == name:
                _read_key(row, raw, values, expressions)
        if raw:
            key = sorted(raw)[0]
            raise ConfigError(f"line {raw[key][1]}: unknown key '{key}' in section [{name}]")

    def typed(cls):
        return cls(**{f.name: values[f.name] for f in fields(cls)})

    return RunConfig(
        domain=typed(DomainConfig),
        problem=typed(ProblemConfig),
        hypotheses=typed(HypothesesConfig) if "hypotheses" in sections else None,
        solver=typed(SolverConfig),
        expressions=expressions,
    )


# --------------------------------------------------------------------------
# Orchestration

_PIPELINES = {
    "eig": ("eig",),
    "check": ("eig", "check"),
    "geometry": ("eig", "geometry"),
    "solve": ("eig", "check", "geometry", "solve", "verify"),
}


def _build_mesh(domain: DomainConfig):
    if domain.dimension == 1:
        return build_interval_mesh(domain.xmin, domain.xmax, domain.n)
    return build_rectangle_mesh((domain.xmin, domain.xmax), (domain.ymin, domain.ymax), domain.nx, domain.ny)


def _sample_plan(config: RunConfig) -> SamplePlan:
    signs = {"both": (1.0, -1.0), "positive": (1.0,), "negative": (-1.0,)}[config.hypotheses.signs]
    return SamplePlan(signs=signs)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, BCKind):
        return value.value
    return value


def _write_report(out_dir: Path, report: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(_jsonable(report), fh, indent=2)
        fh.write("\n")


def _write_trace(out_dir: Path, history):
    with open(out_dir / "trace.csv", "w", encoding="utf-8") as fh:
        fh.write("iter,level,residual,cerami\n")
        for i, rec in enumerate(history, start=1):
            fh.write(f"{i},{float(rec.energy)!r},{float(rec.residual)!r},{float(rec.measure)!r}\n")


def run(subcommand: str, config: RunConfig, out_dir, seed: int | None = None) -> int:
    """Execute one pipeline and write report.json plus CSV artifacts."""
    if subcommand not in _PIPELINES:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    stages_needed = _PIPELINES[subcommand]
    out = Path(out_dir)
    run_seed = config.solver.seed if seed is None else int(seed)
    report = {
        "schema": 1,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "subcommand": subcommand,
        "seed": run_seed,
        "problem": {
            "p": config.problem.p,
            "bc": config.problem.bc.value,
            "dimension": config.domain.dimension,
        },
        "stages": {},
    }
    stages = report["stages"]
    try:
        if "check" in stages_needed and config.hypotheses is None:
            raise ConfigError(f"subcommand '{subcommand}' requires a [hypotheses] section")
        mesh = _build_mesh(config.domain)

        # --- eig
        stages["eig"] = {"status": "running"}
        try:
            eigenpair = compute_first_eigenpair(mesh, config.problem.p, config.problem.bc, seed=run_seed)
        except ConvergenceError as err:
            stages["eig"] = {"status": "error", "message": str(err), **err.diagnostics}
            return EXIT_NONCONVERGED
        stages["eig"] = {
            "status": "ok",
            "lambda1": eigenpair.lambda1,
            "residual": eigenpair.residual,
            "iterations": eigenpair.iterations,
            "bc": eigenpair.bc_kind.value,
        }
        out.mkdir(parents=True, exist_ok=True)
        write_field_csv(eigenpair.u1, out / "u1.csv")
        if subcommand == "eig":
            return EXIT_OK

        exprs = config.expressions
        spec = ProblemSpec(
            mesh,
            config.problem.p,
            config.problem.bc,
            f_expr=exprs["f"],
            F_expr=exprs.get("F"),
            g_expr=exprs.get("g"),
            G_expr=exprs.get("G"),
            theta_expr=exprs.get("theta"),
            mu_expr=exprs.get("mu"),
            h_expr=exprs.get("h"),
            h_boundary_expr=exprs.get("h_boundary"),
            lambda1=eigenpair.lambda1,
            consistency_u_range=(config.problem.consistency_u_min, config.problem.consistency_u_max),
        )

        # --- check
        if "check" in stages_needed:
            stages["check"] = {"status": "running"}
            hyp_report = check_all(spec, eigenpair, exprs["a"], config.hypotheses.c1, _sample_plan(config))
            stages["check"] = {"status": "ok" if hyp_report.overall == PASS else "failed", **hyp_report.as_dict()}
            if hyp_report.overall != PASS:
                stages["check"]["message"] = f"hypothesis check did not pass (overall: {hyp_report.overall})"
                return EXIT_HYPOTHESES
            if subcommand == "check":
                return EXIT_OK

        # --- geometry
        stages["geometry"] = {"status": "running"}
        try:
            cert = certify_ring(spec, eigenpair, config.solver.rho_grid, seed=run_seed, a_max=config.solver.a_max)
        except GeometryCertificateError as err:
            stages["geometry"] = {"status": "failed", "message": str(err), "ring_trace": list(map(list, err.ring_trace))}
            return EXIT_GEOMETRY
        except LowPointNotFound as err:
            stages["geometry"] = {"status": "failed", "message": str(err), "ray_scan": [list(t) for t in err.trace]}
            return EXIT_GEOMETRY
        stages["geometry"] = {
            "status": "ok",
            "rho": cert.rho,
            "a_estimate": cert.a_estimate,
            "e_energy": energy(spec, cert.e),
            "e_norm": sobolev_norm_1p(cert.e, spec.p),
            "sphere_samples": cert.sphere_samples,
            "ring_trace": [list(t) for t in cert.ring_trace],
            "ray_scan": [list(t) for t in cert.ray_trace],
        }
        if subcommand == "geometry":
            return EXIT_OK

        # --- solve
        stages["solve"] = {"status": "running"}
        try:
            result = mountain_pass(
                spec,
                cert.e,
                path_nodes=config.solver.path_nodes,
                tol=config.solver.tol,
                max_iter=config.solver.max_iter,
            )
        except DegeneratePathError as err:
            stages["solve"] = {"status": "error", "message": str(err)}
            return EXIT_NONCONVERGED
        stages["solve"] = {
            "status": "ok" if result.converged else "failed",
            "level": result.level,
            "residual": result.residual,
            "norm": result.norm,
            "iterations": result.iterations,
            "path_nodes": result.path_node_count,
            "converged": result.converged,
            "max_iterate_norm": result.max_iterate_norm,
            "ps_violation": result.ps_violation,
        }
        write_field_csv(result.u_star, out / "solution.csv")
        _write_trace(out, result.cerami_history)
        report["cerami_history"] = [
            {"energy": r.energy, "residual": r.residual, "measure": r.measure, "norm": r.norm}
            for r in result.cerami_history
        ]
        if not result.converged:
            stages["solve"]["message"] = "mountain pass did not reach the requested residual"
            return EXIT_NONCONVERGED

        # --- verify
        stages["verify"] = {"status": "running"}
        record = verify_solution(spec, result.u_star, tol=config.solver.tol)
        stages["verify"] = {
            "status": "ok" if record.passed else "failed",
            "passed": record.passed,
            "residual": record.residual,
            "level": record.level,
            "norm": record.norm,
            "nontrivial": record.nontrivial,
            "cerami_measure": (1.0 + record.norm) * record.residual,
        }
        if not record.passed:
            return EXIT_NONCONVERGED
        return EXIT_OK
    except (ConfigError, SpecError, ex.ExprError) as err:
        report["error"] = str(err)
        raise
    finally:
        _write_report(out, report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="plres",
        description="Variational solvers for p-Laplacian problems at resonance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("eig", "compute the first eigenpair"),
        ("check", "verify the hypothesis clauses"),
        ("geometry", "certify the mountain-pass geometry"),
        ("solve", "run the full pipeline to a critical point"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to the run configuration file")
        sp.add_argument("--out", required=True, help="output directory for report.json and CSV artifacts")
        sp.add_argument("--seed", type=int, default=None, help="override the configured random seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG

    try:
        config = load_config(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        _write_report(
            Path(args.out),
            {
                "schema": 1,
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "subcommand": args.command,
                "error": str(err),
                "stages": {},
            },
        )
        return EXIT_CONFIG
    try:
        return run(args.command, config, args.out, seed=args.seed)
    except (ConfigError, SpecError, ex.ExprError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
