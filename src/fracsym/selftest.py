"""Small-scale invariant suites behind the `selftest` subcommand."""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .grid import ScalarField, build_interval, build_radial_ball, build_rectangle
from .rearrange import (
    decreasing_rearrangement,
    distribution_function,
    median,
    median_split,
)
from .spectral import apply_fractional, build_operator, heat_semigroup, solve_elliptic
from .extension import dtn_residual, extend, kappa, rho
from .compare import (
    elliptic_compare,
    gamma_constant,
    lp_check,
    oscillation_check,
    symmetrized_data,
)
from .parabolic import mild_solve, parabolic_compare
from .sources import eigenmode_source, project_zero_mean, random_band_source

__all__ = ["run_suites", "SUITES"]


def _grid_measures(seed):
    for g, exact in (
        (build_interval(48, 1.0), 1.0),
        (build_rectangle(12, 9, 3.0, 2.0), 6.0),
        (build_radial_ball(24, 2, 0.5), 0.5),
    ):
        rel = abs(g.total_measure - exact) / exact
        assert rel < 1e-12, f"total measure off by {rel:.2e}"
        assert np.all(g.measures > 0)
    rng = np.random.default_rng(seed)
    for _ in range(6):
        m = float(rng.uniform(1e-3, 10.0))
        dim = int(rng.integers(1, 4))
        ball = build_radial_ball(16, dim, m)
        assert abs(ball.measures.sum() - m) <= 1e-12 * m
    a = build_rectangle(8, 8, 1.0, 1.0)
    b = build_rectangle(8, 8, 1.0, 1.0)
    assert np.array_equal(a.centroids, b.centroids) and np.array_equal(a.measures, b.measures)
    return "measures exact, reconstruction deterministic"


def _rearrange_norms(seed):
    g = build_interval(48, 1.0)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        f = ScalarField(g, rng.standard_normal(48))
        prof = decreasing_rearrangement(f)
        widths = prof.widths
        for p in (1, 2):
            a = f.norm(p)
            b = float(np.dot(prof.values**p, widths)) ** (1.0 / p)
            assert abs(a - b) <= 1e-12 * max(a, 1.0), f"L{p} broke: {a} vs {b}"
        assert abs(f.norm("inf") - prof.values[0]) == 0.0
        h = ScalarField(g, rng.standard_normal(48))
        lhs = float(np.dot(np.abs(f.values * h.values), g.measures))
        ph = decreasing_rearrangement(h)
        rhs = float(np.dot(prof.values * ph.values, widths))
        assert lhs <= rhs + 1e-12 * max(rhs, 1.0), "Hardy-Littlewood violated"
        for k in np.abs(f.values)[::7]:
            mu_f = distribution_function(f, k)
            mu_star = float(np.sum(widths[prof.values > k]))
            assert mu_f == mu_star, "equidistribution broke"
    return "Lp conservation, Hardy-Littlewood, equidistribution"


def _rearrange_median(seed):
    g = build_interval(48, 1.0)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        f = ScalarField(g, rng.standard_normal(48))
        u1, u2 = median_split(f)
        bound = g.total_measure / 2 + g.max_cell_measure + 1e-12
        for part in (u1, u2):
            assert distribution_function(part, 0.0) <= bound, "support bound broke"
    two = ScalarField(g, np.where(np.arange(48) < 20, 1.0, 0.0))
    assert median(two) == 0.0
    return "median split support bounds, inf-definition"


def _spectral_basics(seed):
    g = build_interval(32, 1.0)
    spec = build_operator(g)
    assert spec.eigenvalues[0] == 0.0
    unit = np.zeros(spec.n_modes)
    unit[0] = 1.0
    assert np.allclose(spec.synthesize(unit).values, 1.0, atol=1e-10), "kernel mode broke"
    rng = np.random.default_rng(seed)
    u = ScalarField(g, rng.standard_normal(32))
    v = ScalarField(g, rng.standard_normal(32))
    au = apply_fractional(spec, 1.0, u)
    av = apply_fractional(spec, 1.0, v)
    assert abs(au.inner(v) - u.inner(av)) < 1e-8, "symmetry broke"
    w1 = heat_semigroup(spec, 0.3, heat_semigroup(spec, 0.2, u))
    w2 = heat_semigroup(spec, 0.5, u)
    assert (w1 - w2).norm(2) < 1e-10, "semigroup property broke"
    f = project_zero_mean(ScalarField(g, rng.standard_normal(32)))
    sol = solve_elliptic(spec, 0.5, 0.0, f)
    assert (apply_fractional(spec, 0.5, sol) - f).norm(2) < 1e-8, "roundtrip broke"
    return "kernel, symmetry, semigroup, solve roundtrip"


def _extension_checks(seed):
    g = build_interval(32, 1.0)
    spec = build_operator(g)
    ts = np.linspace(0.0, 5.0, 21)
    assert np.max(np.abs(rho(0.5, ts) - np.exp(-ts))) < 1e-8
    samples = rho(0.25, np.linspace(0.05, 8.0, 40))
    assert np.all(np.diff(samples) < 0), "rho must decrease"
    u = eigenmode_source(g, 1)
    w = extend(spec, 0.5, u, [0.0, 0.5])
    assert (w.layer(0) - u).norm("inf") < 1e-10, "trace broke"
    res = [dtn_residual(spec, 0.5, u, y)[1] for y in (1e-1, 1e-2, 1e-3)]
    assert res[0] > res[1] > res[2], "DtN residual not shrinking"
    assert abs(kappa(0.5) - 1.0) < 1e-14
    return "rho closed form, monotone, trace, DtN trend"


def _elliptic_small(seed):
    q = 1.0 / math.sqrt(2.0)
    gam = gamma_constant(2, q)
    g = build_rectangle(16, 16, 1.0, 1.0)
    spec = build_operator(g)
    ball = build_radial_ball(16, 2, 0.5)
    bspec = build_operator(ball, gam)
    zero = ScalarField(g, np.zeros(g.n_cells))
    rep0 = elliptic_compare(spec, bspec, 0.5, 0.0, zero, [0.0, 0.5], q=q, tol=1e-12)
    assert rep0.holds and rep0.worst_gap == 0.0
    f = eigenmode_source(g, 1)
    rep = elliptic_compare(spec, bspec, 0.5, 0.0, f, [0.0, 0.1, 1.0], q=q)
    assert rep.holds, f"eigenmode comparison violated: gap {rep.worst_gap}"
    u = solve_elliptic(spec, 0.5, 0.0, f)
    v = solve_elliptic(bspec, 0.5, 0.0, symmetrized_data(f, ball, "zero_mean"))
    ok, slack = oscillation_check(u, v, tol=rep.tolerance)
    assert ok, f"oscillation check failed with slack {slack}"
    assert all(lp_check(u, v, [1, 2, "inf"], tol=rep.tolerance).values())
    return "zero + eigenmode comparisons, consequences"


def _parabolic_small(seed):
    g = build_interval(32, 1.0)
    spec = build_operator(g)
    rng = np.random.default_rng(seed)
    u0 = ScalarField(g, rng.standard_normal(32))
    traj = mild_solve(spec, 0.5, u0, None, 1.0, 8)
    norms = [s.norm(2) for s in traj.states]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:])), "L2 contraction broke"
    means = [s.mean() for s in traj.states]
    assert max(abs(m - means[0]) for m in means) < 1e-10, "mean drift"
    assert max(traj.step_residual(k) for k in range(1, 9)) < 1e-8
    ball = build_radial_ball(32, 1, 0.5)
    bspec = build_operator(ball, gamma_constant(1, 1.0))
    reports = parabolic_compare(spec, bspec, 0.5, u0, None, 0.5, 4)
    assert all(r.holds for r in reports), "parabolic comparison violated"
    return "contraction, mean conservation, residuals, comparison"


def _determinism(seed):
    q = 1.0 / math.sqrt(2.0)
    g = build_rectangle(12, 12, 1.0, 1.0)
    spec = build_operator(g)
    ball = build_radial_ball(12, 2, 0.5)
    bspec = build_operator(ball, gamma_constant(2, q))
    blobs = []
    for _ in range(2):
        f = project_zero_mean(random_band_source(g, seed))
        rep = elliptic_compare(spec, bspec, 0.5, 0.0, f, [0.0, 0.1], q=q)
        blobs.append(json.dumps(rep.to_json_dict(), sort_keys=True))
    assert blobs[0] == blobs[1], "same seed must reproduce the report byte for byte"
    return "seeded reports byte-identical"


SUITES = [
    ("grid-measures", _grid_measures),
    ("rearrange-norms", _rearrange_norms),
    ("rearrange-median", _rearrange_median),
    ("spectral-basics", _spectral_basics),
    ("extension-checks", _extension_checks),
    ("elliptic-compare", _elliptic_small),
    ("parabolic-scheme", _parabolic_small),
    ("determinism", _determinism),
]


def run_suites(seed: int = 0, stream=None):
    """Run every suite; returns the number of failures."""
    stream = stream or sys.stdout
    failures = 0
    for name, fn in SUITES:
        try:
            detail = fn(seed)
            stream.write(f"PASS  {name:<18} {detail}\n")
        except Exception as exc:  # report and keep going
            failures += 1
            stream.write(f"FAIL  {name:<18} {exc}\n")
    return failures
