#!/usr/bin/env python3
"""Pipeline benchmark: time from a loaded config to a verified solution.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs ``cli.run("solve", config, out, seed=...)`` from the plresonance source
in ``src/`` of this checkout, in this one process, one solve after another
(closed loop, one client), until S seconds have passed and at least two
solves are done.  The solve seeds are N and then seeds drawn from N, each
solved twice in a row (see solve_seeds).  Every solve is checked (see
checks.py); a failed check or a non-zero exit counts the solve as failed.

With --trace 0 the metrics are the end-to-end ones: the medians of solve
wall time and CPU time, the median set-up time of fresh interpreters, and
the peak RSS of this process.  Solve times are scaled to the speed of a
reference host by samples of it taken during each solve (see probe.py);
the raw times are printed too and kept in the result file.  With --trace 1
the benchmark runs one untraced and one traced solve at seed N and reports the
per-layer metrics of
spans.py, including the tracing overhead.  The last line of stdout is one
JSON object with keys correct, attempted, failed and metrics; the full
result, with the environment it ran in, is written under .perfbench_out/.
"""

import os

BLAS_THREADS = "1"  # set before numpy is first imported, here or in a child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import probe
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_SOLVES = 2  # the second solve checks that report.json repeats
SETUP_REPEATS = 9
SETUP_SAMPLES = 3  # host-speed samples after each set-up
RAW_TIMES = {"solve_s": "s", "solve_cpu_s": "s", "setup_raw_s": "s"}  # printed, not reported
END_TO_END = {"solve_ref_s": "s", "solve_cpu_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Runs in a fresh interpreter; the clock starts before plresonance (and so
# numpy and scipy) is imported.  Host-speed samples follow in the same
# process, outside the measured time; the first, on cold caches, is dropped.
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import sys; sys.path.insert(0, sys.argv[1]); "
    "import plresonance; from plresonance import cli; cli.load_config(sys.argv[2]); "
    "t = time.perf_counter() - t0; sys.path.insert(0, sys.argv[3]); import json, probe; "
    f"print(json.dumps([t, [probe.sample()[0] for _ in range({SETUP_SAMPLES} + 1)][1:]]))"
)


def environment(loadavg) -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "loadavg_start": list(loadavg),
    }


def measure_setup(config_path: Path) -> tuple:
    """(set-up s, set-up s at reference host speed) of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path), str(Path(__file__).resolve().parent)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    setup, sample_walls = json.loads(done.stdout.strip().splitlines()[-1])
    return setup, probe.at_reference_speed(setup, sample_walls)


def solve(cli, config, out: Path, seed: int, sampler=None):
    """One ``cli.run("solve")``: (exit code or None if it raised, wall s, CPU s, report text).

    A ``probe.Sampler`` given as ``sampler`` runs only while ``cli.run``
    does, so every sample it takes falls inside the measured times.
    """
    shutil.rmtree(out, ignore_errors=True)
    t0, c0 = time.perf_counter(), time.process_time()
    with sampler or contextlib.nullcontext():
        try:
            code = cli.run("solve", config, out, seed=seed)
        except Exception:
            traceback.print_exc()
            code = None
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    report = out / "report.json"
    return code, wall, cpu, report.read_text(encoding="utf-8") if report.is_file() else ""


def solve_seeds(seed: int):
    """The seeds of a timed run's solves: ``seed``, then seeds drawn from it.

    Each is solved twice in a row, so the second solve checks that
    report.json repeats.  The work of a solve depends on its seed: on
    ``dirichlet-1d-p2`` about one seed in ten takes 611-613 mountain-pass
    iterations, not 679, and solves 25 % faster.  A run over several seeds
    reports that mix, where a run over one seed would read 25 % apart from
    the next.
    """
    draw = random.Random(seed)
    while True:
        yield seed
        yield seed
        seed = draw.randrange(2**31)


class Tally:
    """Solves attempted, the failed ones, and why each failed."""

    def __init__(self, workload: checks.Workload):
        self.workload = workload
        self.references: dict = {}  # seed -> first report.json at that seed
        self.attempted = 0
        self.problems: list = []

    def check(self, code, report_text: str, seed: int):
        found = checks.check_solve(self.workload, code, report_text, self.references.get(seed))
        self.references.setdefault(seed, report_text)
        self.problems.append(found)
        self.attempted += 1

    @property
    def failed(self) -> int:
        return sum(1 for found in self.problems if found)


def timed_run(cli, tally: Tally, config_path: Path, out: Path, seed: int, seconds: float):
    setup_raw, setup = zip(*(measure_setup(config_path) for _ in range(SETUP_REPEATS)))
    config = cli.load_config(config_path)
    walls, cpus, ref_walls, ref_cpus, sample_s, seeds = [], [], [], [], [], []
    start = time.perf_counter()
    for solve_seed in solve_seeds(seed):
        if len(walls) >= MIN_SOLVES and time.perf_counter() - start >= seconds:
            break
        sampler = probe.Sampler()
        code, wall, cpu, text = solve(cli, config, out, solve_seed, sampler)
        tally.check(code, text, solve_seed)
        ref_wall, ref_cpu = probe.scaled(wall, cpu, sampler.samples)
        walls.append(wall)
        cpus.append(cpu)
        ref_walls.append(ref_wall)
        ref_cpus.append(ref_cpu)
        sample_s.append([w for w, _ in sampler.samples])
        seeds.append(solve_seed)
    metrics = {
        "solve_ref_s": statistics.median(ref_walls),
        "solve_cpu_ref_s": statistics.median(ref_cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # raw times, printed and kept but not reported
        "solve_s": statistics.median(walls),
        "solve_cpu_s": statistics.median(cpus),
        "setup_raw_s": statistics.median(setup_raw),
    }
    samples = {
        "solve_ref_s": ref_walls,
        "solve_cpu_ref_s": ref_cpus,
        "setup_s": list(setup),
        "setup_raw_s": list(setup_raw),
        "solve_s": walls,
        "solve_cpu_s": cpus,
        "host_sample_s": sample_s,
        "solve_seed": seeds,
    }
    return metrics, samples, []


def traced_run(cli, tally: Tally, config_path: Path, out: Path, seed: int):
    code, wall, _, text = solve(cli, cli.load_config(config_path), out, seed)
    tally.check(code, text, seed)
    with spans.Tracer() as tracer:
        code, _, _, text = solve(cli, cli.load_config(config_path), out, seed)
    tally.check(code, text, seed)
    harness = []
    roots = [s for s in tracer.spans if s[0] == spans.ROOT_SPAN]
    if len(roots) != 1 or roots[0][1] != -1:
        harness.append(f"expected one root {spans.ROOT_SPAN} span, found {len(roots)}")
    elif spans.self_time_gap(tracer.spans) > 1e-9 * (roots[0][3] - roots[0][2]):
        harness.append("self times do not add up to the root span")
    metrics = spans.per_layer_metrics(tracer, wall)
    return metrics, {"untraced_solve_s": [wall], "spans": len(tracer.spans)}, harness


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(checks.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "plresonance" / "__init__.py").is_file():
        print(f"perfbench: no plresonance source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from plresonance import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported plresonance from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = checks.WORKLOADS[args.workload]
    config_path = checks.CONFIG_DIR / workload.config
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tally = Tally(workload)
    if args.trace:
        metrics, samples, harness = traced_run(cli, tally, config_path, out / "solve", args.seed)
        units = shown_units = spans.PER_LAYER
    else:
        metrics, samples, harness = timed_run(cli, tally, config_path, out / "solve", args.seed, args.seconds)
        units = END_TO_END
        shown_units = {**END_TO_END, **RAW_TIMES}

    env = environment(loadavg)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  environment {json.dumps(env)}")
    print(f"  solves {tally.attempted}  failed {tally.failed}  failure share {tally.failed / tally.attempted:.2f}")
    for i, found in enumerate(tally.problems):
        for problem in found:
            print(f"  solve {i}: {problem}")
    for problem in harness:
        print(f"  harness: {problem}")
    for name, unit in shown_units.items():
        spread = ""
        if name in samples:
            spread = f"  (n={len(samples[name])}, min {min(samples[name]):.4f}, max {max(samples[name]):.4f})"
        value = metrics[name]
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {name:42s} {shown} {unit}{spread}")
    if "host_sample_s" in samples:
        taken = [w for per_solve in samples["host_sample_s"] for w in per_solve]
        print(f"  host-speed samples {len(taken)}, mean {statistics.fmean(taken):.5f} s (reference {probe.NOMINAL_S} s)")

    result = {
        "correct": tally.failed == 0 and not harness,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    out.mkdir(parents=True, exist_ok=True)
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "samples": samples,
        "problems": tally.problems,
        "harness": harness,
    }
    (out / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
