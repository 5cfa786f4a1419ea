#!/usr/bin/env python3
"""Mesh-convergence study for the first eigenvalue.

Prints the error against the closed forms (pi^2 on the interval, 2 pi^2
on the unit square) and the observed reduction factor per refinement;
piecewise-linear elements give second order, so the factor should sit
near 4.  A p sweep on the interval then prints the error against the 1D
closed form (p - 1) pi_p^p, with pi_p = 2 pi / (p sin(pi / p)).
"""

import numpy as np

import plresonance as pl


def interval_study():
    print("1D Dirichlet on (0,1), target pi^2")
    prev = None
    for n in (16, 32, 64, 128, 256):
        mesh = pl.build_interval_mesh(0.0, 1.0, n)
        ep = pl.compute_first_eigenpair(mesh, 2.0, pl.BCKind.DIRICHLET, seed=1)
        err = abs(ep.lambda1 - np.pi**2)
        factor = "" if prev is None else f"  factor {prev / err:.2f}"
        print(f"  n={n:4d}  lambda1={ep.lambda1:.10f}  err={err:.3e}{factor}")
        prev = err


def square_study():
    print("2D Dirichlet on the unit square, target 2 pi^2")
    prev = None
    for n in (8, 16, 32):
        mesh = pl.build_rectangle_mesh((0, 1), (0, 1), n, n)
        ep = pl.compute_first_eigenpair(mesh, 2.0, pl.BCKind.DIRICHLET, seed=1)
        err = abs(ep.lambda1 - 2 * np.pi**2)
        factor = "" if prev is None else f"  factor {prev / err:.2f}"
        print(f"  n={n:4d}  lambda1={ep.lambda1:.8f}  err={err:.3e}{factor}")
        prev = err


def pi_p(p):
    return 2.0 * np.pi / (p * np.sin(np.pi / p))


def p_sweep():
    print("1D Dirichlet on (0,1), n=128, p sweep, target (p-1) pi_p^p")
    mesh = pl.build_interval_mesh(0.0, 1.0, 128)
    for p in (2.0, 2.5, 3.0, 4.0):
        ep = pl.compute_first_eigenpair(mesh, p, pl.BCKind.DIRICHLET, seed=1)
        target = (p - 1.0) * pi_p(p) ** p
        rel = abs(ep.lambda1 - target) / target
        print(f"  p={p:.1f}  lambda1={ep.lambda1:.8f}  target={target:.8f}  rel err={rel:.3e}  iters={ep.iterations}")


if __name__ == "__main__":
    interval_study()
    square_study()
    p_sweep()
