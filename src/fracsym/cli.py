"""Command-line entry point.

Subcommands: elliptic-compare, parabolic-compare, extension-check,
rearrange, selftest.  Configuration comes from a flat key=value file plus
trailing key=value overrides; reports are written as JSON (sorted keys, so
identical config + seed reproduces them byte for byte) with CSV curves for
plotting.  This is the only module that writes files: the library returns
data.

Exit codes: 0 success/verdict holds, 1 verdict violation or selftest
failure, 2 configuration or i/o error, 3 numerical failure (out of memory
included).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .grid import Grid, ScalarField, _build_box, build_radial_ball
from .rearrange import concentration, decreasing_rearrangement
from .spectral import DENSE_CAP, EigendecompositionError, IncompatibleData, build_operator
from .extension import dtn_residual, kappa, rho_prime
from .compare import DominanceViolated, NonFiniteData, elliptic_compare, gamma_constant
from .parabolic import parabolic_compare
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
    MemoryError,
)


def _write_csv(path, header, rows):
    """Header line, then one comma-separated line per row: ints, bools and
    strings via str, every other value as repr(float(x)), which reads back
    to the same float."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = (str(x) if isinstance(x, (int, str)) else repr(float(x)) for x in row)
            fh.write(",".join(cells) + "\n")


def _write_json(path, payload):
    """payload as JSON with sorted keys and one-space indent, then a newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _build_domain(cfg: ExperimentConfig) -> Grid:
    return _build_box(cfg.domain, cfg.resolution(), cfg.sides(), "neumann")


def _build_pair(cfg: ExperimentConfig):
    """Neumann operator on Omega and Dirichlet operator on the half ball."""
    if cfg.shells() > DENSE_CAP:
        raise ConfigError(
            f"ball_shells: the half ball would have {cfg.shells()} shells, at most "
            f"{DENSE_CAP} (unset, it is the largest resolution, halved on an even interval)"
        )
    grid = _build_domain(cfg)
    omega_spec = build_operator(grid)
    gamma = cfg.gamma if cfg.gamma is not None else gamma_constant(grid.dimension, cfg.q_value())
    ball = build_radial_ball(cfg.shells(), grid.dimension, grid.total_measure / 2.0)
    ball_spec = build_operator(ball, gamma)
    return grid, omega_spec, ball_spec


def _preset(grid: Grid, cfg: ExperimentConfig, key: str, seed: int, project: bool = False):
    """Field of the preset named by config key `key` (source, u0, forcing)."""
    try:
        return make_source(grid, getattr(cfg, key), seed, project=project)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _cmd_elliptic(cfg: ExperimentConfig, out: Path) -> int:
    grid, omega_spec, ball_spec = _build_pair(cfg)
    f = _preset(grid, cfg, "source", cfg.seed, project=cfg.c == 0.0)
    report = elliptic_compare(
        omega_spec,
        ball_spec,
        cfg.sigma,
        cfg.c,
        f,
        cfg.y_samples,
        tol=cfg.tol,
        q=cfg.q_value() if cfg.gamma is None else None,  # reported only when it set gamma
        split_mode=cfg.split_mode,
    )
    payload = report.to_json_dict()
    payload["config"] = cfg.to_dict()
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "elliptic_report.json", payload)
    rows = ((sl.y, *pt) for sl in report.slices for pt in zip(sl.s, sl.U, sl.V, sl.chi))
    _write_csv(out / "elliptic_curves.csv", ("y", "s", "U", "V", "chi"), rows)
    print(f"worst_gap = {report.worst_gap:.6e}  tol = {report.tolerance:.6e}  {report.verdict}")
    return EXIT_OK if report.holds else EXIT_VIOLATION


def _cmd_parabolic(cfg: ExperimentConfig, out: Path) -> int:
    grid, omega_spec, ball_spec = _build_pair(cfg)
    u0 = _preset(grid, cfg, "u0", cfg.seed)
    forcing = None if cfg.forcing == "zero" else _preset(
        grid, cfg, "forcing", cfg.seed + 1
    )
    reports = parabolic_compare(
        omega_spec, ball_spec, cfg.sigma, u0, forcing, cfg.T, cfg.steps, tol=cfg.tol
    )
    payload = {
        "config": cfg.to_dict(),
        "steps": [r.to_json_dict() for r in reports],
        "all_hold": all(r.holds for r in reports),
    }
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "parabolic_report.json", payload)
    _write_csv(
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
    nonzero = np.nonzero(lam > 0)[0]
    if cfg.modes > nonzero.size:
        raise ConfigError(f"modes: the grid has {nonzero.size} nonzero modes, got {cfg.modes}")
    nonzero = nonzero[: cfg.modes]
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
    _write_csv(
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
    curve = concentration(prof)
    _write_csv(out / "profile.csv", ("s", "value"), zip(prof.breaks, prof.values))
    _write_csv(out / "curve.csv", ("s", "value"), zip(curve.s, curve.F))
    print(f"wrote {grid.n_cells}-cell profile and concentration curve to {out}")
    return EXIT_OK


def _cmd_selftest(seed: int) -> int:
    failures = run_suites(seed=seed)
    print(f"{failures} failing suite(s)" if failures else "all suites pass")
    return EXIT_VIOLATION if failures else EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracsym",
        description="concentration-comparison experiments for fractional "
        "Neumann problems at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("elliptic-compare", "parabolic-compare", "extension-check", "rearrange"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        if name == "rearrange":
            p.add_argument("--field", default=None, help="CSV of cell values")
        p.add_argument("overrides", nargs="*", metavar="key=value")
    # selftest runs fixed problems, so it takes only a seed
    sub.add_parser("selftest").add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    try:
        # key=value overrides after a flag come back as leftovers, in order
        args, rest = parser.parse_known_args(argv)
        if rest and (args.command == "selftest" or any("=" not in t or t[0] == "-" for t in rest)):
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
    except SystemExit as exc:  # argparse: usage error (2) or --help (0)
        return exc.code
    if args.command == "selftest":
        return _cmd_selftest(args.seed)

    try:
        cfg = load_config(args.config, args.overrides + rest)
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
        return _cmd_rearrange(cfg, out, args.field)
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
