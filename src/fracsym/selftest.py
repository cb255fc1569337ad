"""End-to-end oracles behind `selftest`; a wrong verdict either way fails.

equality: cos(pi x) on (0, 1) against the half ball with gamma = 1/4 has
U = V in the continuum, so every elliptic and parabolic run holds with
max|chi| <= h^2.  negative-control: the same problem at sigma = 0.8 with
gamma = (1/4)^(1/1.6) = 0.42045, which puts gamma^(1/2) on the ball's
multipliers, leaves a gap of 200 h^2 and must read "violated".
determinism: a seeded report reproduces byte for byte.  Invariants of the
parts live in pytest.
"""

from __future__ import annotations

import json

import numpy as np

from .config import SQUARE_Q
from .grid import build_interval, build_radial_ball, build_rectangle
from .spectral import build_operator
from .compare import elliptic_compare, gamma_constant
from .parabolic import parabolic_compare
from .sources import eigenmode_source, project_zero_mean, random_band_source

__all__ = ["run_suites", "SUITES"]
_Y = (0.0, 0.1, 1.0)  # extension heights compared


def _equality_case(gamma: float = gamma_constant(1, 1.0)):
    """64 cells, 64 shells with diffusion gamma, cos(pi x), h^2."""
    grid = build_interval(64, 1.0)
    ball = build_operator(build_radial_ball(64, 1, 0.5), gamma)
    return build_operator(grid), ball, eigenmode_source(grid, 1), grid.cell_width**2


def _equality(seed):
    omega, ball, f, tol = _equality_case()
    runs = parabolic_compare(omega, ball, 0.5, f, None, 1.0, 8, tol=tol) + [
        elliptic_compare(omega, ball, s, c, f, _Y, tol=tol) for s in (0.3, 0.8) for c in (0, 0.5)
    ]
    held = sum(r.holds for r in runs)
    worst = max(float(np.max(np.abs(sl.chi))) for r in runs for sl in r.slices)
    passed = held == len(runs) and worst <= tol
    return passed, f"{held}/{len(runs)} runs hold, max|chi| = {worst / tol:.2f} h^2"


def _negative_control(seed):
    # gamma^(1/(2 sigma)) puts gamma^(1/2) on the ball's multipliers at sigma 0.8
    omega, ball, f, tol = _equality_case(gamma_constant(1, 1.0) ** (1.0 / (2.0 * 0.8)))
    rep = elliptic_compare(omega, ball, 0.8, 0.0, f, _Y, tol=tol)
    return rep.verdict == "violated", f"{rep.verdict}, gap = {rep.worst_gap / tol:.0f} h^2"


def _determinism(seed):
    g = build_rectangle(12, 12, 1.0, 1.0)
    ball = build_operator(build_radial_ball(12, 2, 0.5), gamma_constant(2, SQUARE_Q))
    blobs = []
    for _ in range(2):
        f = project_zero_mean(random_band_source(g, seed))
        rep = elliptic_compare(build_operator(g), ball, 0.5, 0.0, f, [0.0, 0.1], q=SQUARE_Q)
        blobs.append(json.dumps(rep.to_json_dict(), sort_keys=True))
    same = blobs[0] == blobs[1]
    return same, f"seeded reports {'byte-identical' if same else 'differ'}"


SUITES = [("equality", _equality), ("negative-control", _negative_control),
          ("determinism", _determinism)]


def run_suites(seed: int = 0):
    """Run every suite (each returns (passed, detail)), print one line per
    suite; the failure count."""
    failures = 0
    for name, fn in SUITES:
        try:
            passed, detail = fn(seed)
        except Exception as exc:  # report and keep going
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        failures += not passed
        print(f"{'PASS' if passed else 'FAIL'}  {name:<18} {detail}")
    return failures
