"""Command-line entry point.

Subcommands: elliptic-compare, parabolic-compare, extension-check,
rearrange, selftest.  Configuration comes from a flat key=value file plus
trailing key=value overrides; reports are written as JSON (sorted keys, so
identical config + seed reproduces them byte for byte) with CSV curves for
plotting.

Exit codes: 0 success/verdict holds, 1 verdict violation or selftest
failure, 2 configuration or i/o error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .grid import Grid, ScalarField, build_interval, build_radial_ball, build_rectangle, write_csv
from .rearrange import concentration, decreasing_rearrangement, profile_to_csv, curve_to_csv
from .spectral import EigendecompositionError, IncompatibleData, build_operator
from .extension import dtn_residual, kappa, rho_prime
from .compare import DominanceViolated, NonFiniteData, elliptic_compare, gamma_constant
from .parabolic import effective_gamma, parabolic_compare
from .sources import make_source
from .selftest import run_suites

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (
    IncompatibleData,
    DominanceViolated,
    NonFiniteData,
    EigendecompositionError,
    np.linalg.LinAlgError,
)


def _build_domain(cfg: ExperimentConfig) -> Grid:
    if cfg.domain == "interval":
        return build_interval(cfg.resolution()[0], cfg.sides()[0], "neumann")
    nx, ny = cfg.resolution()
    lx, ly = cfg.sides()
    return build_rectangle(nx, ny, lx, ly, "neumann")


def _build_pair(cfg: ExperimentConfig):
    """Neumann operator on Omega and Dirichlet operator on the half ball."""
    grid = _build_domain(cfg)
    omega_spec = build_operator(grid)
    gamma = cfg.gamma or gamma_constant(grid.dimension, cfg.q_value())
    gamma_eff = effective_gamma(gamma, cfg.sigma, cfg.gamma_exponent)
    ball = build_radial_ball(cfg.shells(), grid.dimension, grid.total_measure / 2.0)
    ball_spec = build_operator(ball, gamma_eff)
    return grid, omega_spec, ball_spec


def _preset(grid: Grid, cfg: ExperimentConfig, key: str, seed: int, project: bool = False):
    """Field of the preset named by config key `key` (source, u0, forcing)."""
    try:
        return make_source(grid, getattr(cfg, key), seed, project=project)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _cmd_elliptic(cfg: ExperimentConfig, out: Path) -> int:
    grid, omega_spec, ball_spec = _build_pair(cfg)
    f = _preset(grid, cfg, "source", cfg.seed, project=cfg.project_compatible and cfg.c == 0.0)
    report = elliptic_compare(
        omega_spec,
        ball_spec,
        cfg.sigma,
        cfg.c,
        f,
        cfg.y_samples,
        tol=cfg.tol or None,
        tol_constant=cfg.tol_constant,
        q=cfg.q_value(),
        split_mode=cfg.split_mode,
    )
    payload = report.to_json_dict()
    payload["config"] = cfg.to_dict()
    _write_json(out / "elliptic_report.json", payload)
    report.write_csv(out / "elliptic_curves.csv")
    print(f"worst_gap = {report.worst_gap:.6e}  tol = {report.tolerance:.6e}  {report.verdict}")
    return EXIT_OK if report.holds else EXIT_VIOLATION


def _cmd_parabolic(cfg: ExperimentConfig, out: Path) -> int:
    grid, omega_spec, ball_spec = _build_pair(cfg)
    u0 = _preset(grid, cfg, "u0", cfg.seed)
    forcing = None if cfg.forcing in ("zero", "none") else _preset(
        grid, cfg, "forcing", cfg.seed + 1
    )
    reports = parabolic_compare(
        omega_spec,
        ball_spec,
        cfg.sigma,
        u0,
        forcing,
        cfg.T,
        cfg.steps,
        tol=cfg.tol or None,
        tol_constant=cfg.tol_constant,
    )
    payload = {
        "config": cfg.to_dict(),
        "steps": [r.to_json_dict() for r in reports],
        "all_hold": all(r.holds for r in reports),
    }
    _write_json(out / "parabolic_report.json", payload)
    write_csv(
        out / "parabolic_steps.csv",
        ("step", "t", "worst_gap", "tolerance", "verdict"),
        ((r.params["step"], r.params["t"], r.worst_gap, r.tolerance, r.verdict) for r in reports),
    )
    worst = max(r.worst_gap for r in reports)
    print(f"steps = {len(reports)}  worst step gap = {worst:.6e}  "
          f"{'holds' if payload['all_hold'] else 'violated'}")
    return EXIT_OK if payload["all_hold"] else EXIT_VIOLATION


def _cmd_extension(cfg: ExperimentConfig, out: Path) -> int:
    grid = _build_domain(cfg)
    spec = build_operator(grid)
    lam = spec.eigenvalues
    nonzero = np.nonzero(lam > 0)[0][: cfg.modes]
    rows = []
    all_monotone = True
    for k in nonzero:
        sq = math.sqrt(lam[k])
        unit = np.zeros(spec.n_modes)
        unit[k] = 1.0
        phi = spec.synthesize(unit)
        sweep = [dtn_residual(spec, cfg.sigma, phi, y)[1] for y in cfg.y_sweep]
        monotone = all(a > b for a, b in zip(sweep, sweep[1:]))
        all_monotone &= monotone
        y_probe = 1e-3 / sq
        flux = -(y_probe ** (1.0 - 2.0 * cfg.sigma)) / kappa(cfg.sigma) * sq * rho_prime(
            cfg.sigma, sq * y_probe
        )
        rows.append((int(k), lam[k], flux / lam[k] ** cfg.sigma, *sweep, monotone))
    out.mkdir(parents=True, exist_ok=True)
    residuals = (f"residual_y{y:g}" for y in cfg.y_sweep)
    write_csv(
        out / "extension_check.csv", ("mode", "lambda", "flux_ratio", *residuals, "monotone"), rows
    )
    for k, l, ratio, *_, mono in rows:
        print(f"mode {k}: lambda = {l:.4f}  flux/lambda^sigma = {ratio:.6f}  "
              f"residual trend {'ok' if mono else 'NOT monotone'}")
    return EXIT_OK if all_monotone else EXIT_VIOLATION


def _cmd_rearrange(cfg: ExperimentConfig, out: Path, field_path: str) -> int:
    if not field_path:
        raise ConfigError("field: the rearrange command needs --field CSV")
    grid = _build_domain(cfg)
    raw = []
    with open(field_path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            token = line.strip().split(",")[-1]
            try:
                value = float(token)
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise ConfigError(f"field: line {lineno}: {token!r} is not a number") from None
            if not math.isfinite(value):
                raise ConfigError(f"field: line {lineno}: non-finite value {token!r}")
            raw.append(value)
    if len(raw) != grid.n_cells:
        raise ConfigError(
            f"field: CSV has {len(raw)} values but the grid has {grid.n_cells} cells"
        )
    field = ScalarField(grid, np.asarray(raw))
    prof = decreasing_rearrangement(field)
    out.mkdir(parents=True, exist_ok=True)
    profile_to_csv(prof, out / "profile.csv")
    curve_to_csv(concentration(prof), out / "curve.csv")
    print(f"wrote {grid.n_cells}-cell profile and concentration curve to {out}")
    return EXIT_OK


def _cmd_selftest(cfg: ExperimentConfig) -> int:
    failures = run_suites(seed=cfg.seed)
    print(f"{failures} failing suite(s)" if failures else "all suites pass")
    return EXIT_VIOLATION if failures else EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracsym",
        description="concentration-comparison experiments for fractional "
        "Neumann problems at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("elliptic-compare", "parabolic-compare", "extension-check",
                 "rearrange", "selftest"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--gamma-exponent", choices=("sigma", "half"), default=None)
        p.add_argument("--split-mode", action="store_true", default=False)
        if name == "rearrange":
            p.add_argument("--field", default=None, help="CSV of cell values")
        p.add_argument("overrides", nargs="*", metavar="key=value")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.overrides)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out = args.out
        if args.gamma_exponent is not None:
            cfg.gamma_exponent = args.gamma_exponent
        if args.split_mode:
            cfg.split_mode = True
        cfg.validate()
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(cfg.out)
    try:
        if args.command == "elliptic-compare":
            return _cmd_elliptic(cfg, out)
        if args.command == "parabolic-compare":
            return _cmd_parabolic(cfg, out)
        if args.command == "extension-check":
            return _cmd_extension(cfg, out)
        if args.command == "rearrange":
            return _cmd_rearrange(cfg, out, args.field)
        return _cmd_selftest(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
