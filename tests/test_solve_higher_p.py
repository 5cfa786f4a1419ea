"""End-to-end ``solve`` runs at p >= 3, in 1D and on a small square.

Each run must verify, and its level must sit at or above the sampled
sphere minimum a of the geometry certificate.  The 1D p = 3 level agrees
with an independent Newton solve on an assembled tangent matrix; the
square's level pins today's value.
"""

import json

import pytest

from conftest import bench_config_text
from plresonance import cli


def solve_stages(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    code = cli.main(["solve", "--config", str(cfg), "--out", str(out)])
    return code, json.loads((out / "report.json").read_text())["stages"]


def square_config_text(n):
    return bench_config_text().replace("dimension = 1", "dimension = 2").replace(
        "n = 128", f"ymin = 0\nymax = 1\nnx = {n}\nny = {n}"
    )


def assert_verified_mountain_pass(code, stages):
    assert code == 0
    assert stages["verify"]["passed"] is True
    assert stages["solve"]["residual"] <= 1e-6
    assert stages["solve"]["level"] >= stages["geometry"]["a_estimate"]


def test_bench_1d_p3(tmp_path):
    code, stages = solve_stages(tmp_path, bench_config_text().replace("p = 2", "p = 3"))
    assert_verified_mountain_pass(code, stages)
    assert stages["solve"]["level"] == pytest.approx(0.2106102, abs=1e-6)
    assert stages["verify"]["level"] == pytest.approx(0.2106102, abs=1e-6)


def test_bench_1d_p4(tmp_path):
    code, stages = solve_stages(tmp_path, bench_config_text().replace("p = 2", "p = 4"))
    assert_verified_mountain_pass(code, stages)


def test_square_16_p3(tmp_path):
    code, stages = solve_stages(tmp_path, square_config_text(16).replace("p = 2", "p = 3"))
    assert_verified_mountain_pass(code, stages)
    assert stages["solve"]["level"] == pytest.approx(0.1554202, abs=1e-6)
