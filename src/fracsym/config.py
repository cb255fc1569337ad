"""Experiment configuration: a flat key=value text file plus command-line
overrides; no structured-config dependency."""

from __future__ import annotations

import math
import sys
import types
import typing
from dataclasses import dataclass, fields

import numpy as np

from .compare import gamma_constant

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_overrides"]

SQUARE_Q = 1.0 / math.sqrt(2.0)  # conjectural half-cut value, overridable
INTERVAL_Q = 1.0  # conjectural, overridable
_DIMENSION = {"interval": 1, "rectangle": 2}


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _as_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


@dataclass
class ExperimentConfig:
    # domain; n and length take one value for every axis, or one per axis
    domain: str = "rectangle"
    n: tuple[int, ...] = (64,)
    length: tuple[float, ...] = (1.0,)
    ball_shells: int | None = None  # None = largest resolution, halved on an even interval
    # problem
    sigma: float = 0.5
    c: float = 0.0
    Q: float | None = None  # None = domain default
    gamma: float | None = None  # None = derive from Q
    source: str = "eigenmode:1"
    y_samples: tuple[float, ...] = (0.0, 0.1, 1.0)
    tol: float | None = None  # None = 10 h times the data's L2 norm
    # parabolic
    T: float = 1.0
    steps: int = 16
    u0: str = "eigenmode:1"
    forcing: str = "zero"
    # extension sweep
    modes: int = 5
    y_sweep: tuple[float, ...] = (0.1, 0.01, 0.001)
    # run
    seed: int = 0
    out: str = "."
    split_mode: bool = False

    def validate(self):
        for f in fields(self):
            val = getattr(self, f.name)
            entries = val if isinstance(val, tuple) else (val,)
            if any(isinstance(x, float) and not math.isfinite(x) for x in entries):
                raise ConfigError(f"{f.name}: must be finite, got {val}")
        if self.domain not in _DIMENSION:
            raise ConfigError(f"domain: must be 'interval' or 'rectangle', got {self.domain!r}")
        for key in ("n", "length"):
            val = getattr(self, key)
            if len(val) not in (1, _DIMENSION[self.domain]):
                raise ConfigError(
                    f"{key}: give one value, or one per axis of the {self.domain}, got {val}"
                )
        if not 0.0 < self.sigma < 1.0:
            raise ConfigError(f"sigma: must lie in (0, 1), got {self.sigma}")
        if self.c < 0:
            raise ConfigError(f"c: must be nonnegative, got {self.c}")
        for key in ("Q", "gamma"):
            val = getattr(self, key)
            if val is not None and val <= 0:
                raise ConfigError(f"{key}: must be positive (unset derives it), got {val}")
        if min(self.n) < 2:
            raise ConfigError(f"n: resolutions must be >= 2, got {self.n}")
        if math.prod(self.resolution()) * 8 > sys.maxsize:  # numpy's largest array, in bytes
            raise ConfigError(f"n: {self.n} makes more cells than an array of doubles can hold")
        if self.ball_shells is not None and self.ball_shells < 2:
            raise ConfigError(f"ball_shells: must be >= 2, got {self.ball_shells}")
        if min(self.length) <= 0:
            raise ConfigError(f"length: must be positive, got {self.length}")
        if self.T <= 0:
            raise ConfigError(f"T: must be positive, got {self.T}")
        if self.steps < 1:
            raise ConfigError(f"steps: must be >= 1, got {self.steps}")
        if any(y < 0 for y in self.y_samples):
            raise ConfigError(f"y_samples: must be nonnegative, got {self.y_samples}")
        if self.tol is not None and self.tol < 0:
            raise ConfigError(f"tol: must be >= 0 (unset derives it), got {self.tol}")
        if self.modes < 1:
            raise ConfigError(f"modes: must be >= 1, got {self.modes}")
        ys = self.y_sweep
        if len(ys) < 2 or min(ys) <= 0 or any(a <= b for a, b in zip(ys, ys[1:])):
            raise ConfigError(
                f"y_sweep: needs at least two positive, strictly decreasing heights, got {ys}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        with np.errstate(all="ignore"):  # the derived scales: overflow reads inf, underflow 0
            sides = np.array(self.sides())
            widths = sides / self.resolution()
            gamma = self.gamma or gamma_constant(sides.size, np.float64(self.q_value()))
            derived = {"length": (np.prod(sides), np.prod(widths), *widths**-2.0), "Q": (gamma,)}
        for key, scales in derived.items():
            if not all(0.0 < x < math.inf for x in scales):
                raise ConfigError(f"{key}: {getattr(self, key)} makes |Omega|, the cell measure, "
                                  f"1/h^2 or the derived gamma zero or not finite")
        return self

    # resolved accessors -------------------------------------------------
    def _per_axis(self, values: tuple) -> tuple:
        return values * _DIMENSION[self.domain] if len(values) == 1 else values

    def resolution(self):
        return self._per_axis(self.n)

    def sides(self):
        return self._per_axis(self.length)

    def q_value(self) -> float:
        if self.Q is not None:
            return self.Q
        return INTERVAL_Q if self.domain == "interval" else SQUARE_Q

    def shells(self) -> int:
        """ball_shells, or unset, the largest resolution; on an interval of
        even n >= 4, n/2, so that every shell has one cell's measure."""
        if self.ball_shells is not None:
            return self.ball_shells
        n = max(self.resolution())
        return n // 2 if self.domain == "interval" and n % 2 == 0 and n >= 4 else n

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            val = getattr(self, f.name)
            out[f.name] = list(val) if isinstance(val, tuple) else val
        return out


_TYPES = typing.get_type_hints(ExperimentConfig)


def _coerce(cfg: ExperimentConfig, key: str, raw: str):
    """Set `key` from `raw`, parsed by the field's declared type: a bool,
    int, float or str, optionally `| None`, or a comma list of ints or
    floats."""
    if key not in _TYPES:
        raise ConfigError(f"{key}: unknown configuration key")
    kind = _TYPES[key]
    if typing.get_origin(kind) is types.UnionType:  # X | None
        kind = typing.get_args(kind)[0]
    raw = raw.strip()
    try:
        if kind is bool:
            value = _as_bool(raw, key)
        elif typing.get_origin(kind) is tuple:
            entry = typing.get_args(kind)[0]
            value = tuple(entry(x) for x in raw.split(",") if x.strip())
        else:
            value = kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r}") from exc
    setattr(cfg, key, value)


def parse_overrides(cfg: ExperimentConfig, pairs) -> ExperimentConfig:
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, _, raw = pair.partition("=")
        _coerce(cfg, key.strip(), raw)
    return cfg


def load_config(path=None, overrides=()) -> ExperimentConfig:
    """Defaults < config file < overrides, then validate."""
    cfg = ExperimentConfig()
    if path is not None:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
                key, _, raw = line.partition("=")
                _coerce(cfg, key.strip(), raw)
    parse_overrides(cfg, overrides)
    return cfg.validate()
