import json
import re

import numpy as np
import pytest

from conftest import BENCH_F, BENCH_f, bench_config_text
from plresonance import cli


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


LOG_RATIONAL_CHECK_CFG = """
[domain]
dimension = 1
xmin = 0
xmax = 1
n = 64

[problem]
p = 2
bc = dirichlet
f = "1/(u+1) + 0.5*u"
F = "ln(u+1) + 0.25*u^2"
consistency_u_min = -0.9

[hypotheses]
theta = "0"
mu = "2"
h = "ln(t)"
a = "2"
c1 = 1
signs = positive

[solver]
seed = 7
"""


def test_load_minimal_config(tmp_path):
    cfg = cli.load_config(write(tmp_path, bench_config_text(n=32)))
    assert cfg.domain.n == 32
    assert cfg.problem.p == 2.0
    assert cfg.solver.seed == 7
    assert "f" in cfg.expressions and "theta" in cfg.expressions


def test_missing_file():
    with pytest.raises(cli.ConfigError):
        cli.load_config("/nonexistent/path.cfg")


def test_p_below_two_names_key(tmp_path):
    text = bench_config_text().replace("p = 2", "p = 1.5")
    with pytest.raises(cli.ConfigError, match="'p'"):
        cli.load_config(write(tmp_path, text))


def test_neumann_requires_g(tmp_path):
    text = bench_config_text().replace("bc = dirichlet", "bc = neumann")
    with pytest.raises(cli.ConfigError, match="'g'"):
        cli.load_config(write(tmp_path, text))


def test_unknown_key_rejected_with_line(tmp_path):
    text = bench_config_text() + "\n[solver]\n"  # duplicate section
    with pytest.raises(cli.ConfigError, match="duplicate section"):
        cli.load_config(write(tmp_path, text))
    text2 = bench_config_text().replace("n = 128", "n = 128\nwibble = 3")
    with pytest.raises(cli.ConfigError, match="wibble"):
        cli.load_config(write(tmp_path, text2))


def test_expression_must_be_quoted(tmp_path):
    text = bench_config_text().replace('theta = "-2"', "theta = -2")
    with pytest.raises(cli.ConfigError, match="quoted"):
        cli.load_config(write(tmp_path, text))


def test_expression_syntax_error_reported_eagerly(tmp_path):
    text = bench_config_text().replace('theta = "-2"', 'theta = "2 +"')
    with pytest.raises(cli.ConfigError, match="'theta'"):
        cli.load_config(write(tmp_path, text))


def test_bad_syntax_line_number(tmp_path):
    with pytest.raises(cli.ConfigError, match="line 2"):
        cli.load_config(write(tmp_path, "[domain]\ndimension\n"))


def test_g_rejected_for_dirichlet(tmp_path):
    text = bench_config_text().replace('f = "', 'g = "0"\nf = "')
    with pytest.raises(cli.ConfigError, match="'g'"):
        cli.load_config(write(tmp_path, text))


def test_eig_subcommand_report(tmp_path):
    cfg = write(tmp_path, bench_config_text(n=256))
    code = cli.main(["eig", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["schema"] == 1
    assert report["stages"]["eig"]["status"] == "ok"
    assert report["stages"]["eig"]["lambda1"] == pytest.approx(np.pi**2, rel=0.01)
    assert (tmp_path / "out" / "u1.csv").exists()


def test_check_failure_exits_two(tmp_path):
    cfg = write(tmp_path, LOG_RATIONAL_CHECK_CFG)
    code = cli.main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    clauses = {c["clause"]: c["verdict"] for c in report["stages"]["check"]["clauses"]}
    assert clauses["subcritical_vanishing"] == "fail"
    assert clauses["landesman_lazer"] == "pass"
    assert report["stages"]["check"]["status"] == "failed"


def test_geometry_failure_exits_three(tmp_path):
    text = """
[domain]
dimension = 1
xmin = 0
xmax = 1
n = 48

[problem]
p = 2
bc = dirichlet
f = "2*u"
F = "u^2"

[solver]
seed = 7
"""
    cfg = write(tmp_path, text)
    code = cli.main(["geometry", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["stages"]["geometry"]["status"] == "failed"
    assert report["stages"]["eig"]["status"] == "ok"  # earlier stage still recorded


def test_nonconvergence_exits_four(tmp_path):
    text = bench_config_text(n=48).replace("max_iter = 20000", "max_iter = 5")
    cfg = write(tmp_path, text)
    code = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 4
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["stages"]["solve"]["status"] == "failed"
    assert report["stages"]["solve"]["converged"] is False


def test_solve_pipeline_bench(tmp_path):
    cfg = write(tmp_path, bench_config_text(n=64))
    out = tmp_path / "out"
    code = cli.main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    for stage in ("eig", "check", "geometry", "solve", "verify"):
        assert report["stages"][stage]["status"] == "ok"
    assert report["stages"]["check"]["overall"] == "pass"
    assert report["stages"]["geometry"]["a_estimate"] > 0
    assert report["stages"]["solve"]["residual"] <= 1e-6
    for name in ("u1.csv", "solution.csv", "trace.csv"):
        assert (out / name).exists()
    # trace rows match reported iterations
    rows = (out / "trace.csv").read_text().strip().splitlines()
    assert rows[0] == "iter,level,residual,cerami"
    assert len(rows) - 1 == report["stages"]["solve"]["iterations"]
    assert len(report["cerami_history"]) == report["stages"]["solve"]["iterations"]


def test_solve_pipeline_2d(tmp_path):
    text = """
[domain]
dimension = 2
xmin = 0
xmax = 1
ymin = 0
ymax = 1
nx = 12
ny = 12

[problem]
p = 2
bc = dirichlet
f = "2*u/(1+u^2) - 4*u/(1+u^2)^2"
F = "ln(1+u^2) - 2*u^2/(1+u^2)"

[hypotheses]
theta = "-2"
mu = "4"
h = "ln(t)"
a = "3"
c1 = 0

[solver]
seed = 7
rho_grid = 0.05,0.1,0.2,0.5,1.0
"""
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["stages"]["eig"]["lambda1"] == pytest.approx(2 * np.pi**2, rel=0.05)
    assert report["stages"]["solve"]["residual"] <= 1e-6
    first = (out / "solution.csv").read_text().splitlines()[0]
    assert first == "node_index,x,y,value"


def test_usage_error_exits_one():
    assert cli.main(["frobnicate"]) == 1
    assert cli.main([]) == 1


def test_missing_config_exits_one_with_partial_report(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["eig", "--config", str(tmp_path / "nope.cfg"), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert "error" in report and report["stages"] == {}


def test_spec_error_writes_partial_report(tmp_path):
    # F inconsistent with f: the run aborts with exit 1 but still reports
    text = bench_config_text(n=32).replace('F = "ln(1+u^2) - 2*u^2/(1+u^2)"', 'F = "u^3"')
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["check", "--config", str(cfg), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert "error" in report
    assert report["stages"]["eig"]["status"] == "ok"


def _strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)


def test_reports_reproducible(tmp_path):
    cfg = write(tmp_path, bench_config_text(n=48, seed=11))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out_b)]) == 0
    ra = _strip_timestamp((out_a / "report.json").read_text())
    rb = _strip_timestamp((out_b / "report.json").read_text())
    assert ra == rb
    assert (out_a / "solution.csv").read_text() == (out_b / "solution.csv").read_text()
    assert (out_a / "trace.csv").read_text() == (out_b / "trace.csv").read_text()


def test_seed_flag_overrides_config(tmp_path):
    cfg = write(tmp_path, bench_config_text(n=48, seed=11))
    out = tmp_path / "out"
    assert cli.main(["eig", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 5


def test_partial_report_on_abort(tmp_path):
    cfg = write(tmp_path, LOG_RATIONAL_CHECK_CFG)
    out = tmp_path / "out"
    cli.main(["check", "--config", str(cfg), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    # every started stage has a status object even though the run aborted
    assert set(report["stages"]) == {"eig", "check"}
    assert all("status" in s for s in report["stages"].values())


def test_h_boundary_rejected_for_dirichlet_with_line(tmp_path):
    text = bench_config_text().replace('a = "3"', 'a = "3"\nh_boundary = "0"')
    with pytest.raises(cli.ConfigError, match=r"^line \d+: key 'h_boundary' is only valid for bc = neumann$"):
        cli.load_config(write(tmp_path, text))


def test_absent_keys_take_dataclass_defaults(tmp_path):
    text = bench_config_text().split("[solver]")[0]
    cfg = cli.load_config(write(tmp_path, text))
    assert cfg.solver == cli.SolverConfig()
    assert (cfg.problem.consistency_u_min, cfg.problem.consistency_u_max) == (-2.0, 2.0)
    assert cfg.hypotheses.signs == "both"
    assert cfg.problem.F is not None and cfg.problem.g is None


@pytest.mark.parametrize("key", ["eig_tol", "eig_max_iter", "directions", "sphere_steps", "low_point_steps"])
def test_fixed_solver_settings_are_unknown_keys(tmp_path, key):
    # these take one value everywhere and are constants of the solver
    text = bench_config_text().replace("[solver]", f"[solver]\n{key} = 8")
    with pytest.raises(cli.ConfigError, match=rf"^line \d+: unknown key '{key}' in section \[solver\]$"):
        cli.load_config(write(tmp_path, text))


@pytest.mark.parametrize("key", ["u_min", "u_max", "ll_u_min", "ll_u_max", "vanish_u_min", "vanish_u_max"])
def test_fixed_sampling_ranges_are_unknown_keys(tmp_path, key):
    # the u-sampling ranges are the defaults of hypotheses.SamplePlan
    text = bench_config_text().replace("[hypotheses]", f"[hypotheses]\n{key} = 100")
    with pytest.raises(cli.ConfigError, match=rf"^line \d+: unknown key '{key}' in section \[hypotheses\]$"):
        cli.load_config(write(tmp_path, text))


def test_2d_mesh_counts_name_their_key(tmp_path):
    text = bench_config_text().replace("dimension = 1", "dimension = 2").replace(
        "n = 128", "ymin = 0\nymax = 1\nnx = 1\nny = 8"
    )
    with pytest.raises(cli.ConfigError, match="^key 'nx': must be >= 2$"):
        cli.load_config(write(tmp_path, text))
    with pytest.raises(cli.ConfigError, match=r"^line \d+: unknown key 'n' in section \[domain\]$"):
        cli.load_config(write(tmp_path, text.replace("nx = 1", "nx = 8\nn = 4")))


def test_bench_solve_records_each_iterate_once(tmp_path):
    # neither the polish nor a path phase stuck at a fixed point records
    # the same iterate twice
    cfg = write(tmp_path, bench_config_text())
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    history = report["cerami_history"]
    assert len(history) == report["stages"]["solve"]["iterations"]
    assert all(prev != cur for prev, cur in zip(history, history[1:]))
