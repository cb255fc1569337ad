"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  The heavy elliptic sweeps are shared through module
fixtures so each criterion reads precomputed records."""

import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from fracsym import (
    ScalarField,
    build_interval,
    build_operator,
    build_radial_ball,
    build_rectangle,
    decreasing_rearrangement,
    distribution_function,
    dominated_compare,
    dtn_residual,
    elliptic_compare,
    gamma_constant,
    kappa,
    lp_check,
    median,
    mild_solve,
    oscillation_check,
    parabolic_compare,
    rho,
    rho_prime,
    schwarz_rearrangement,
    solve_elliptic,
    symmetrized_data,
    symmetrized_parabolic_problem,
)
from fracsym.sources import eigenmode_source, project_zero_mean, random_band_source

SQUARE_Q = 1.0 / math.sqrt(2.0)
GAMMA = gamma_constant(2, SQUARE_Q)
Y_SAMPLES = (0.0, 0.1, 1.0)
N_SOURCES = 20


def report_line(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def operators():
    pairs = {}
    for n in (32, 64):
        grid = build_rectangle(n, n, 1.0, 1.0, "neumann")
        omega = build_operator(grid)
        ball = build_operator(build_radial_ball(n, 2, 0.5), GAMMA)
        pairs[n] = (grid, omega, ball)
    return pairs


@dataclass
class RunRecord:
    sigma: float
    c: float
    seed: int
    resolution: int
    worst_gap: float
    tolerance: float
    holds: bool
    u: ScalarField
    v: ScalarField


def _sweep(operators, sigmas, c, make_source):
    records = []
    for sigma in sigmas:
        for seed in range(N_SOURCES):
            for n in (32, 64):
                grid, omega, ball = operators[n]
                f = make_source(grid, seed)
                rep = elliptic_compare(omega, ball, sigma, c, f, Y_SAMPLES, q=SQUARE_Q)
                mode = "zero_mean" if c == 0.0 else "with_c"
                u = solve_elliptic(omega, sigma, c, f)
                v = solve_elliptic(ball, sigma, c, symmetrized_data(f, ball.grid, mode))
                records.append(
                    RunRecord(sigma, c, seed, n, rep.worst_gap, rep.tolerance, rep.holds, u, v)
                )
    return records


@pytest.fixture(scope="module")
def elliptic_zero_c(operators):
    start = time.perf_counter()
    records = _sweep(
        operators,
        (0.3, 0.5, 0.7),
        0.0,
        lambda grid, seed: project_zero_mean(random_band_source(grid, seed)),
    )
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def elliptic_with_c(operators):
    start = time.perf_counter()
    records = []
    for c in (0.5, 2.0):
        records += _sweep(
            operators,
            (0.3, 0.5, 0.7),
            c,
            lambda grid, seed: random_band_source(grid, seed) + 0.25 * (1 + seed % 3),
        )
    return records, time.perf_counter() - start


def _check_sweep(records, elapsed, budget, name):
    failures = []
    for rec in records:
        if not rec.holds:
            failures.append(
                f"sigma={rec.sigma} c={rec.c} seed={rec.seed} n={rec.resolution} "
                f"gap={rec.worst_gap:.3e} > tol={rec.tolerance:.3e}"
            )
    shrink_ok = shrink_total = 0
    by_key = {}
    for rec in records:
        by_key.setdefault((rec.sigma, rec.c, rec.seed), {})[rec.resolution] = rec.worst_gap
    per_group = {}
    for (sigma, c, seed), gaps in sorted(by_key.items()):
        good = gaps[64] <= gaps[32]
        shrink_total += 1
        shrink_ok += good
        key = (sigma, c)
        per_group.setdefault(key, [0, 0])
        per_group[key][0] += good
        per_group[key][1] += 1
    for (sigma, c), (good, total) in sorted(per_group.items()):
        if good < 18:
            failures.append(f"sigma={sigma} c={c}: refinement improved only {good}/{total}")
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.1f}s exceeded {budget}s")
    detail = (
        f"{len(records)} runs all hold, refinement improved {shrink_ok}/{shrink_total}, "
        f"{elapsed:.1f}s"
    )
    report_line(name, not failures, detail if not failures else "; ".join(failures))
    assert not failures, failures


# ------------------------------------------------------------- criterion 1
def test_criterion_1_rearrangement_suite():
    start = time.perf_counter()
    grids = [build_interval(128, 1.0), build_rectangle(32, 32, 1.0, 1.0)]
    issues = []
    count = 0
    for gi, grid in enumerate(grids):
        for seed in range(100):
            rng = np.random.default_rng(1000 * gi + seed)
            f = ScalarField(grid, rng.standard_normal(grid.n_cells))
            g = ScalarField(grid, rng.standard_normal(grid.n_cells))
            count += 1
            pf = decreasing_rearrangement(f)
            # L^p norm preservation, exact to 1e-12
            for p in (1, 2):
                direct = f.norm(p)
                via = float(np.dot(pf.values**p, pf.widths)) ** (1.0 / p)
                if abs(direct - via) > 1e-12 * max(direct, 1.0):
                    issues.append(f"L{p} seed={seed}")
            if f.norm("inf") != pf.values[0]:
                issues.append(f"Linf seed={seed}")
            # Hardy-Littlewood never violated beyond 1e-12
            pg = decreasing_rearrangement(g)
            lhs = float(np.dot(np.abs(f.values * g.values), grid.measures))
            rhs = float(np.dot(pf.values * pg.values, pf.widths))
            if lhs > rhs + 1e-12 * max(rhs, 1.0):
                issues.append(f"HL seed={seed}")
            # equidistribution exact on the value set (subsampled levels)
            for k in np.abs(f.values)[:: grid.n_cells // 16]:
                if distribution_function(f, float(k)) != float(
                    np.sum(pf.widths[pf.values > k])
                ):
                    issues.append(f"equidistribution seed={seed}")
                    break
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        issues.append(f"runtime {elapsed:.1f}s exceeded 10s")
    report_line(
        "criterion-1 rearrangement",
        not issues,
        f"{count} fields on interval-128 and square-32x32, {elapsed:.1f}s"
        if not issues
        else "; ".join(issues[:5]),
    )
    assert not issues, issues


# ------------------------------------------------------------- criterion 2
FLUX_PROBE_T = 1e-3  # t = sqrt(lambda) y at which the flux ratio is probed


def flux_expansion(sigma, t):
    """Two-term small-t form of the flux ratio, from the expansion of
    K_{1-sigma} (DLMF 10.31): 1 + Gamma(sigma-1)/Gamma(1-sigma) (t/2)^(2-2 sigma).
    The one-term form 1 is off by that second term, 3% at sigma = 0.75."""
    coeff = math.gamma(sigma - 1.0) / math.gamma(1.0 - sigma)
    return 1.0 + coeff * (t / 2.0) ** (2.0 - 2.0 * sigma)


@pytest.fixture(scope="module")
def dtn_data():
    start = time.perf_counter()
    spec = build_operator(build_interval(128, 1.0, "neumann"))
    lams = spec.eigenvalues[1:6]
    flux_ratio = {}
    residual_trend = {}
    for sigma in (0.25, 0.5, 0.75):
        ratios = []
        for lam in lams:
            y = FLUX_PROBE_T / math.sqrt(lam)
            flux = (
                -(y ** (1 - 2 * sigma))
                / kappa(sigma)
                * math.sqrt(lam)
                * rho_prime(sigma, math.sqrt(lam) * y)
            )
            ratios.append(float(flux / lam**sigma))
        flux_ratio[sigma] = ratios
        trends = []
        for k in range(1, 6):
            coeffs = np.zeros(spec.n_modes)
            coeffs[k] = 1.0
            phi = spec.synthesize(coeffs)
            trends.append([dtn_residual(spec, sigma, phi, y)[1] for y in (1e-1, 1e-2, 1e-3)])
        residual_trend[sigma] = trends
    ts = np.linspace(0.0, 5.0, 201)
    rho_half_err = float(np.max(np.abs(rho(0.5, ts) - np.exp(-ts))))
    elapsed = time.perf_counter() - start
    return flux_ratio, residual_trend, rho_half_err, elapsed


@pytest.mark.parametrize("sigma", [0.25, 0.5, 0.75])
def test_criterion_2_mode_flux(dtn_data, sigma):
    flux_ratio, _, _, _ = dtn_data
    expected = flux_expansion(sigma, FLUX_PROBE_T)
    devs = [abs(r / expected - 1.0) for r in flux_ratio[sigma]]
    ok = max(devs) <= 1e-2
    report_line(
        f"criterion-2 flux sigma={sigma}",
        ok,
        f"worst deviation {max(devs):.3e} from the two-term expansion vs 1e-2 "
        f"at y = {FLUX_PROBE_T:g}/sqrt(lambda)",
    )
    assert ok, f"flux deviations {devs} exceed 1% for sigma={sigma}"


def test_criterion_2_residual_trend_and_rho(dtn_data):
    flux_ratio, residual_trend, rho_half_err, elapsed = dtn_data
    issues = []
    for sigma, trends in residual_trend.items():
        for k, sweep in enumerate(trends, start=1):
            if not (sweep[0] > sweep[1] > sweep[2]):
                issues.append(f"sigma={sigma} mode={k} residuals {sweep} not decreasing")
    if rho_half_err >= 1e-8:
        issues.append(f"rho(1/2) deviates from exp(-t) by {rho_half_err:.2e}")
    if elapsed >= 30.0:
        issues.append(f"runtime {elapsed:.1f}s exceeded 30s")
    report_line(
        "criterion-2 residual/rho",
        not issues,
        f"15 mode sweeps monotone, rho err {rho_half_err:.1e}, {elapsed:.1f}s"
        if not issues
        else "; ".join(issues[:4]),
    )
    assert not issues, issues


# ---------------------------------------------------------- criteria 3 / 4
def test_criterion_3_elliptic_zero_c(elliptic_zero_c):
    records, elapsed = elliptic_zero_c
    _check_sweep(records, elapsed, 300.0, "criterion-3 elliptic c=0")


def test_criterion_4_elliptic_with_c(elliptic_with_c):
    records, elapsed = elliptic_with_c
    _check_sweep(records, elapsed, 300.0, "criterion-4 elliptic c>0")


# ------------------------------------------------------------- criterion 5
def test_criterion_5_consequences(elliptic_zero_c, elliptic_with_c):
    issues = []
    total = 0
    for records, _ in (elliptic_zero_c, elliptic_with_c):
        for rec in records:
            total += 1
            ok, slack = oscillation_check(rec.u, rec.v, tol=rec.tolerance)
            if not ok:
                issues.append(
                    f"oscillation sigma={rec.sigma} c={rec.c} seed={rec.seed} "
                    f"n={rec.resolution} slack={slack:.3e}"
                )
            lp = lp_check(rec.u, rec.v, [1, 2, 4, "inf"], tol=rec.tolerance)
            if not all(lp.values()):
                issues.append(
                    f"lp sigma={rec.sigma} c={rec.c} seed={rec.seed} n={rec.resolution}: {lp}"
                )
    report_line(
        "criterion-5 consequences",
        not issues,
        f"oscillation and L^p (p=1,2,4,inf) on {total} runs" if not issues else "; ".join(issues[:4]),
    )
    assert not issues, issues


# ------------------------------------------------------------- criterion 6
def test_criterion_6_parabolic():
    start = time.perf_counter()
    issues = []
    # eigenmode decay order
    spec1 = build_operator(build_interval(64, 1.0, "neumann"))
    coeffs = np.zeros(spec1.n_modes)
    coeffs[1] = 1.0
    phi = spec1.synthesize(coeffs)
    lam = spec1.eigenvalues[1]
    errs = []
    for n in (8, 16, 32):
        traj = mild_solve(spec1, 0.5, phi, None, 1.0, n)
        errs.append((traj.state(n) - math.exp(-(lam**0.5)) * phi).norm(2))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    if min(orders) < 0.9:
        issues.append(f"observed orders {orders} below 0.9")

    # per-step discrete comparison for 10 seeded pairs on the 32x32 square
    grid = build_rectangle(32, 32, 1.0, 1.0, "neumann")
    omega = build_operator(grid)
    ball = build_operator(build_radial_ball(32, 2, 0.5), GAMMA)
    held = 0
    for seed in range(10):
        u0 = random_band_source(grid, 100 + seed)
        forcing = project_zero_mean(random_band_source(grid, 200 + seed))
        reports = parabolic_compare(omega, ball, 0.5, u0, forcing, 1.0, 16)
        if all(r.holds for r in reports):
            held += 1
        else:
            bad = [r.params["step"] for r in reports if not r.holds]
            issues.append(f"seed={seed} violated at steps {bad}")
    # single implicit step vs the elliptic c = 1/h comparison
    u0 = random_band_source(grid, 300)
    u0 = u0 - median(u0)
    f = eigenmode_source(grid, 2)
    T = 0.25
    reports = parabolic_compare(omega, ball, 0.5, u0, f, T, 1)
    sl = reports[0].slices[0]
    g1 = schwarz_rearrangement(f.positive_part(), ball.grid) + schwarz_rearrangement(
        f.negative_part(), ball.grid
    )
    v0, _ = symmetrized_parabolic_problem(u0, None, ball.grid)
    rep = dominated_compare(
        omega, ball, 0.5, 1.0 / T, f, g1, [0.0], extra=u0 * (1.0 / T), g2=v0 * (1.0 / T)
    )
    sl2 = rep.slices[0]
    mismatch = max(
        float(np.max(np.abs(sl.U - np.interp(sl.s, sl2.s, sl2.U)))),
        float(np.max(np.abs(sl.V - np.interp(sl.s, sl2.s, sl2.V)))),
    )
    if mismatch > 1e-10:
        issues.append(f"single-step vs elliptic mismatch {mismatch:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        issues.append(f"runtime {elapsed:.1f}s exceeded 300s")
    report_line(
        "criterion-6 parabolic",
        not issues,
        f"orders {min(orders):.2f}+, {held}/10 seeded pairs hold, "
        f"single-step match {mismatch:.1e}, {elapsed:.1f}s"
        if not issues
        else "; ".join(issues[:4]),
    )
    assert not issues, issues


# ------------------------------------------------------------- criterion 7
def test_criterion_7_determinism():
    grid = build_rectangle(32, 32, 1.0, 1.0, "neumann")
    omega = build_operator(grid)
    ball = build_operator(build_radial_ball(32, 2, 0.5), GAMMA)
    blobs = []
    for _ in range(2):
        f = project_zero_mean(random_band_source(grid, 42))
        rep = elliptic_compare(omega, ball, 0.5, 0.0, f, Y_SAMPLES, q=SQUARE_Q)
        blobs.append(json.dumps(rep.to_json_dict(), sort_keys=True).encode())
    para = []
    for _ in range(2):
        u0 = random_band_source(grid, 43)
        reports = parabolic_compare(omega, ball, 0.5, u0, None, 0.5, 4)
        para.append(
            json.dumps([r.to_json_dict() for r in reports], sort_keys=True).encode()
        )
    ok = blobs[0] == blobs[1] and para[0] == para[1]
    report_line(
        "criterion-7 determinism",
        ok,
        f"elliptic report {len(blobs[0])} bytes and parabolic report "
        f"{len(para[0])} bytes reproduce exactly",
    )
    assert ok
