"""The three benchmark workloads: set-up, one op, and the output check.

Every call into the library goes through a module attribute
(``fracsym.build_operator``, ``fracsym.elliptic_compare``, ...) so the
tracer in ``tracing.py`` sees it after it rebinds those attributes.

Workloads and why they were chosen:

- ``sigma-sweep``: 32x32 box, 32-shell ball; each op has its own sigma, so
  every op misses the ``rho`` cache and quadrature (``extension``) dominates
  while the dense transforms (``spectral``) are cheap.
- ``seed-sweep``: 64x64 box, 64-shell ball, sigma = 0.5, a new source per
  op; after the first op the ``rho`` cache is warm and the 4096x4096 dense
  matvecs (``spectral``) dominate.  This is the acceptance-sweep pattern.
- ``parabolic-trace``: 64x64 box, 64-shell ball, 32 implicit steps per op
  with trace-level slices only; no ``rho`` calls at all, one forward and one
  inverse transform per step, and the largest rearrangement share.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import kve

import fracsym
import fracsym.sources

Y_SAMPLES = (0.0, 0.1, 1.0)
# Ball diffusion for the unit square with the paper's Q = 1/sqrt(2), as the
# CLI derives it by default.
GAMMA = fracsym.gamma_constant(2, 1.0 / math.sqrt(2.0))
INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Points per op at which rho is checked against its Bessel closed form.
RHO_SAMPLES = 8
RHO_RTOL = 1e-10
# Reference curves are compared at these s values, relative to the largest
# |V| of the slice.  Concentration curves do not depend on the eigenbasis,
# so this only has to absorb round-off, not a change of basis or ordering.
S_GRID = np.linspace(0.0, 0.5, 17)
CURVE_RTOL = 1e-7


def sigma_of_op(i: int) -> float:
    """Op i's sigma in [0.1, 0.9], from the golden-ratio sequence: any
    prefix covers the interval evenly and no value repeats."""
    return 0.1 + 0.8 * ((0.5 + i * INV_GOLDEN) % 1.0)


def rho_closed_form(sigma: float, t: np.ndarray) -> np.ndarray:
    """2^(1-s)/Gamma(s) * t^s K_s(t), with K_s(t) = kve(s, t) exp(-t)."""
    return 2.0 ** (1.0 - sigma) / math.gamma(sigma) * t**sigma * kve(sigma, t) * np.exp(-t)


def slice_curves(sl) -> dict:
    """U and V of one YSlice at the fixed S_GRID points (exact: both curves
    are piecewise linear on the slice's breakpoints)."""
    return {
        "y": float(sl.y),
        "U": np.interp(S_GRID, sl.s, sl.U).tolist(),
        "V": np.interp(S_GRID, sl.s, sl.V).tolist(),
    }


def _curve_mismatch(got: dict, want: dict) -> str | None:
    if got["y"] != want["y"]:
        return f"slice y {got['y']} != reference {want['y']}"
    scale = max(1.0, float(np.max(np.abs(want["V"]))))
    for key in ("U", "V"):
        err = float(np.max(np.abs(np.subtract(got[key], want[key]))))
        if err > CURVE_RTOL * scale:
            return f"{key} at y = {want['y']} differs from reference by {err:.3e}"
    return None


def _check_slices(slices, reference) -> str | None:
    """Finite U, V, chi in every slice, and reference curves when given."""
    for sl in slices:
        for key, arr in (("U", sl.U), ("V", sl.V), ("chi", sl.chi)):
            if not np.all(np.isfinite(arr)):
                return f"non-finite {key} at y = {sl.y}"
    if reference is not None:
        if len(reference) != len(slices):
            return f"{len(slices)} slices, reference has {len(reference)}"
        for sl, want in zip(slices, reference):
            problem = _curve_mismatch(slice_curves(sl), want)
            if problem:
                return problem
    return None


def _check_verdict(report) -> str | None:
    """The comparison theorem predicts "holds"; the verdict must also agree
    with the report's own gaps and tolerance."""
    if report.verdict != "holds":
        return f"verdict {report.verdict!r}, expected 'holds'"
    if not max(sl.gap for sl in report.slices) <= report.tolerance:
        return "verdict disagrees with the reported gaps"
    return None


class Workload:
    """Box and ball operators plus the inputs of every op, built from a
    seed.  ``pool`` inputs are generated; op i uses input i % pool."""

    name = ""
    cells = 0  # cells per box side, and shells of the ball
    pool = 1
    # set-ups per run; cheap ones repeat more so their median is steady
    setup_repeats = 3

    def __init__(self, seed: int):
        self.seed = seed
        grid = fracsym.build_rectangle(self.cells, self.cells, 1.0, 1.0, "neumann")
        self.grid = grid
        self.box = fracsym.build_operator(grid)
        ball = fracsym.build_radial_ball(self.cells, 2, grid.total_measure / 2.0)
        self.ball = fracsym.build_operator(ball, GAMMA)
        self.input_seeds = np.random.default_rng(seed).integers(0, 2**32, size=2 * self.pool)
        self.make_inputs()

    def source(self, k: int):
        """Seeded zero-mean band-limited field number k of this run."""
        f = fracsym.sources.random_band_source(self.grid, int(self.input_seeds[k]))
        return fracsym.sources.project_zero_mean(f)

    def eigvec_bytes(self) -> int:
        """Bytes of both operators' dense eigenvector matrices."""
        specs = (self.box, self.ball)
        return sum(spec.eigenvectors.nbytes for spec in specs if hasattr(spec, "eigenvectors"))

    def make_inputs(self):
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out, reference) -> str | None:
        """None when the output of op i is correct, else the problem."""
        raise NotImplementedError

    def curves(self, out) -> list:
        """Reference curves of one op's output."""
        raise NotImplementedError


class EllipticWorkload(Workload):
    def make_inputs(self):
        self.sources = [self.source(k) for k in range(self.pool)]

    def sigma(self, i: int) -> float:
        raise NotImplementedError

    def op(self, i: int):
        return fracsym.elliptic_compare(
            self.box, self.ball, self.sigma(i), 0.0, self.sources[i % self.pool], Y_SAMPLES
        )

    def curves(self, out) -> list:
        return [slice_curves(sl) for sl in out.slices]

    def check(self, i, out, reference):
        problem = _check_slices(out.slices, reference) or _check_verdict(out)
        return problem or self._check_rho(i)

    def _check_rho(self, i: int) -> str | None:
        """fracsym.extension.rho against the Bessel closed form on a seeded
        sample of the op's sqrt(lambda) * y points."""
        sigma = self.sigma(i)
        roots = np.sqrt(np.concatenate([self.box.eigenvalues, self.ball.eigenvalues]))
        t_all = np.concatenate([roots * y for y in Y_SAMPLES if y > 0.0])
        rng = np.random.default_rng([self.seed, i])
        t = np.sort(rng.choice(t_all[t_all > 0.0], size=RHO_SAMPLES, replace=False))
        got = np.asarray(fracsym.extension.rho(sigma, t), dtype=float)
        want = rho_closed_form(sigma, t)
        err = float(np.max(np.abs(got - want) / np.abs(want)))
        if not err <= RHO_RTOL:
            return f"rho(sigma = {sigma}) off its closed form by {err:.3e} relative"
        return None


class SigmaSweep(EllipticWorkload):
    name = "sigma-sweep"
    cells = 32
    # One source; sigmas never repeat, so every op misses the rho cache.
    pool = 1
    setup_repeats = 15

    def sigma(self, i: int) -> float:
        return sigma_of_op(i)


class SeedSweep(EllipticWorkload):
    name = "seed-sweep"
    cells = 64
    # Most ops of a 45 s run get a new source (a run makes 800 to 1200 ops
    # at this commit); later ops reuse them, which nothing caches on.
    pool = 768

    def sigma(self, i: int) -> float:
        return 0.5


class ParabolicTrace(Workload):
    name = "parabolic-trace"
    cells = 64
    pool = 96
    sigma = 0.5
    T = 1.0
    steps = 32

    def make_inputs(self):
        self.u0 = [self.source(k) for k in range(self.pool)]
        self.forcing = [self.source(self.pool + k) for k in range(self.pool)]

    def op(self, i: int):
        k = i % self.pool
        return fracsym.parabolic_compare(
            self.box, self.ball, self.sigma, self.u0[k], self.forcing[k], self.T, self.steps
        )

    def curves(self, out) -> list:
        return [slice_curves(sl) for report in out for sl in report.slices]

    def check(self, i, out, reference):
        if len(out) != self.steps:
            return f"{len(out)} step reports, expected {self.steps}"
        slices = [sl for report in out for sl in report.slices]
        problem = _check_slices(slices, reference)
        if problem:
            return problem
        for report in out:
            problem = _check_verdict(report)
            if problem:
                return f"step {report.params['step']}: {problem}"
        return None


WORKLOADS = {cls.name: cls for cls in (SigmaSweep, SeedSweep, ParabolicTrace)}
