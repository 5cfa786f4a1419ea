"""Host-speed samples taken while a solve runs, and times scaled by them.

The benchmark's host is a shared virtual machine whose speed is not constant:
a fixed piece of work takes up to 1.6 times as long in one stretch of a few
seconds as in the next, and 30-second medians of a solve drift by ±25 % over
minutes.  Process CPU time drifts with wall time, so the slowdown is in
instruction throughput, not in waiting, and a longer run does not average it
away within the time a benchmark pass may take.

So the benchmark measures the host's speed while it measures plresonance.
``Sampler`` sets an interval timer; every ``INTERVAL_S`` of wall time its
signal handler runs ``work``, a fixed ~12 ms mix of the kinds of work a solve
does (interpreter work over many code paths, loops over small numpy arrays,
element-wise arithmetic on mid-sized arrays, sparse triangular solves) that
does not touch plresonance.  The handler runs in the solving thread between two bytecodes,
so it samples the same CPU at the same moments as the solve.  A solve's
scaled time is its time less the time spent in samples, times
``NOMINAL_S`` over the mean sample time: the time the solve would take on a
host where a sample takes ``NOMINAL_S`` (about its time on a 2-vCPU Intel
Xeon VM, Python 3.11, numpy 2.4, scipy 1.17).  A change to plresonance moves
the solve but not the samples, so it moves the scaled time; a host slowdown
moves both and cancels.
"""

from __future__ import annotations

import json
import re
import signal
import statistics
import time

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

NOMINAL_S = 0.012  # wall time of one sample of ``work`` on the reference host
INTERVAL_S = 0.2  # wall time between the starts of two samples
_GRID = 33  # sparse part: 5-point Laplacian on a 33 x 33 grid, 1089 unknowns


def _laplacian(n: int):
    ones = np.ones(n)
    t = scipy.sparse.diags([-ones[1:], 2.0 * ones, -ones[1:]], [-1, 0, 1])
    eye = scipy.sparse.identity(n)
    return (scipy.sparse.kron(t, eye) + scipy.sparse.kron(eye, t)).tocsc()


_LU = scipy.sparse.linalg.splu(_laplacian(_GRID))
_SMALL = np.linspace(-2.0, 2.0, 129)
_MID = np.linspace(-2.0, 2.0, _GRID * _GRID)
# Interpreter work with a large code footprint, as a solve's many Python
# paths have: calls to forty distinct functions, a JSON round trip, regular
# expressions, sorts.  Nothing is compiled per sample: compiling allocates
# about a megabyte, which raised the peak RSS of the solves it interrupted.
_SOURCE = "\n".join(
    f"def f{i}(x, y={i}):\n    z = [x * k + y for k in range({i} + 3) if k % 3]\n"
    f"    return {{'s': sum(z), 'n': len(z), 't': (x, y, '{i}')}} if z else None\n"
    for i in range(40)
)
_NAMESPACE: dict = {}
exec(compile(_SOURCE, "<probe>", "exec"), _NAMESPACE)
_FUNCTIONS = [_NAMESPACE[f"f{i}"] for i in range(40)]
_DATA = {"a": list(range(200)), "b": {str(i): i * 0.5 for i in range(100)}}
_PATTERN = re.compile(r"(\w+)\s*=\s*([\d.]+)")
_TEXT = " ".join(f"k{i} = {i}.5" for i in range(200))


def work() -> float:
    """One sample's fixed work; returns a checksum so none of it is dead."""
    total = 0.0
    for _ in range(24):
        for f in _FUNCTIONS:
            total += f(1.5, 2)["n"]
    total += len(json.loads(json.dumps(_DATA))["b"]) + len(_PATTERN.findall(_TEXT))
    total += sorted((i * 7919) % 1000 for i in range(3000))[1500]
    x = _SMALL
    for i in range(300):
        y = np.log1p(x * x) - 2.0 * x / (1.0 + x * x)
        total += float(y @ y) + float(np.abs(y).max())
        total += sum(k * 0.5 for k in range(8)) * (i % 3)
    z = _MID
    for _ in range(40):
        w = z * z
        total += float(np.sqrt(np.sum(w * w * np.abs(z) ** 0.5)))
    b = np.sin(_MID)
    for _ in range(6):
        b = _LU.solve(b)
        b /= np.linalg.norm(b)
    return total + float(b.sum())


def sample() -> tuple:
    """(wall s, CPU s) of one run of ``work``."""
    t0, c0 = time.perf_counter(), time.process_time()
    work()
    return time.perf_counter() - t0, time.process_time() - c0


class Sampler:
    """Within ``with Sampler() as s:``, one ``sample()`` every ``interval_s``.

    ``s.samples`` holds their (wall s, CPU s).  Unix only: it uses SIGALRM
    and ``ITIMER_REAL``, and must be entered from the main thread.
    """

    def __init__(self, interval_s: float = INTERVAL_S, sample_fn=sample):
        self.interval_s = interval_s
        self.sample_fn = sample_fn
        self.samples: list = []
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append(self.sample_fn())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def at_reference_speed(seconds: float, sample_walls: list, nominal_s: float = NOMINAL_S) -> float:
    """``seconds`` measured next to samples of mean wall time ``sample_walls``, at reference speed."""
    if not sample_walls:
        raise ValueError("no host-speed sample was taken with the measurement")
    return seconds * nominal_s / statistics.fmean(sample_walls)


def scaled(wall: float, cpu: float, samples: list, nominal_s: float = NOMINAL_S) -> tuple:
    """(wall s, CPU s) of a measurement at reference host speed.

    ``wall`` and ``cpu`` include the ``samples`` taken during the
    measurement; their time is taken out, and the rest is scaled by
    ``nominal_s`` over the mean sample time, wall by wall and CPU by CPU.
    """
    if not samples:
        raise ValueError("no host-speed sample was taken during the measurement")
    sample_wall = [w for w, _ in samples]
    sample_cpu = [c for _, c in samples]
    return (
        (wall - sum(sample_wall)) * nominal_s / statistics.fmean(sample_wall),
        (cpu - sum(sample_cpu)) * nominal_s / statistics.fmean(sample_cpu),
    )
