"""Experiment configuration: a flat key=value text file plus command-line
overrides; no structured-config dependency."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .compare import DEFAULT_TOL_CONSTANT

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_overrides"]

SQUARE_Q = 1.0 / math.sqrt(2.0)  # conjectural half-cut value, overridable
INTERVAL_Q = 1.0  # conjectural, overridable
_AXIS_KEYS = {"n": ("nx", "ny"), "length": ("lx", "ly")}  # rectangle overrides


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
    # domain
    domain: str = "rectangle"
    n: int = 64
    nx: int = 0  # 0 = inherit n
    ny: int = 0
    length: float = 1.0
    lx: float = 0.0  # 0 = inherit length
    ly: float = 0.0
    ball_shells: int = 0  # 0 = match resolution
    # problem
    sigma: float = 0.5
    c: float = 0.0
    q: float = 0.0  # 0 = domain default
    gamma: float = 0.0  # 0 = derive from q
    source: str = "eigenmode:1"
    project_compatible: bool = True
    y_samples: tuple = (0.0, 0.1, 1.0)
    tol_constant: float = DEFAULT_TOL_CONSTANT
    tol: float | None = None  # None = derive from tol_constant
    # parabolic
    T: float = 1.0
    steps: int = 16
    u0: str = "eigenmode:1"
    forcing: str = "zero"
    # extension sweep
    modes: int = 5
    y_sweep: tuple = (0.1, 0.01, 0.001)
    # run
    seed: int = 0
    out: str = "."
    gamma_exponent: str = "sigma"
    split_mode: bool = False

    def validate(self):
        for f in fields(self):
            val = getattr(self, f.name)
            entries = val if isinstance(val, tuple) else (val,)
            if isinstance(val, (float, tuple)) and not all(map(math.isfinite, entries)):
                raise ConfigError(f"{f.name}: must be finite, got {val}")
        if self.domain not in ("interval", "rectangle"):
            raise ConfigError(f"domain: must be 'interval' or 'rectangle', got {self.domain!r}")
        if self.domain == "interval":
            for key in ("nx", "ny", "lx", "ly"):
                if getattr(self, key):
                    raise ConfigError(f"{key}: applies to domain=rectangle only")
        if not 0.0 < self.sigma < 1.0:
            raise ConfigError(f"sigma: must lie in (0, 1), got {self.sigma}")
        if self.c < 0:
            raise ConfigError(f"c: must be nonnegative, got {self.c}")
        if self.q < 0:
            raise ConfigError(f"Q: must be positive, got {self.q}")
        if self.gamma < 0:
            raise ConfigError(f"gamma: must be positive, got {self.gamma}")
        # checked when set, and when used even if 0: n=0 with nx, ny unset
        # would build a grid of no cells
        used = self._axis_keys("n") + self._axis_keys("length")
        for key in ("n", "nx", "ny", "ball_shells"):
            val = getattr(self, key)
            if (val or key in used) and val < 2:
                raise ConfigError(f"{key}: resolutions must be >= 2, got {val}")
        for key in ("length", "lx", "ly"):
            val = getattr(self, key)
            if (val or key in used) and val <= 0:
                raise ConfigError(f"{key}: must be positive, got {val}")
        if self.T <= 0:
            raise ConfigError(f"T: must be positive, got {self.T}")
        if self.steps < 1:
            raise ConfigError(f"steps: must be >= 1, got {self.steps}")
        if any(y < 0 for y in self.y_samples):
            raise ConfigError(f"y_samples: must be nonnegative, got {self.y_samples}")
        if self.tol_constant <= 0:
            raise ConfigError(f"tol_constant: must be positive, got {self.tol_constant}")
        if self.tol is not None and self.tol < 0:
            raise ConfigError(f"tol: must be >= 0 (unset derives it), got {self.tol}")
        if self.modes < 1:
            raise ConfigError(f"modes: must be >= 1, got {self.modes}")
        ys = self.y_sweep
        if len(ys) < 2 or min(ys) <= 0 or any(a <= b for a, b in zip(ys, ys[1:])):
            raise ConfigError(
                f"y_sweep: needs at least two positive, strictly decreasing heights, got {ys}"
            )
        if self.gamma_exponent not in ("sigma", "half"):
            raise ConfigError(
                f"gamma_exponent: must be 'sigma' or 'half', got {self.gamma_exponent!r}"
            )
        return self

    # resolved accessors -------------------------------------------------
    def _axis_keys(self, base: str) -> tuple:
        """Per axis, the key whose value is used: `base` ("n" or "length")
        on the interval; on the rectangle the per-axis key, or `base` where
        that key is 0 (inherit)."""
        if self.domain == "interval":
            return (base,)
        return tuple(key if getattr(self, key) else base for key in _AXIS_KEYS[base])

    def resolution(self):
        return tuple(getattr(self, key) for key in self._axis_keys("n"))

    def sides(self):
        return tuple(getattr(self, key) for key in self._axis_keys("length"))

    def q_value(self) -> float:
        if self.q:
            return self.q
        return INTERVAL_Q if self.domain == "interval" else SQUARE_Q

    def shells(self) -> int:
        return self.ball_shells or max(self.resolution())

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            val = getattr(self, f.name)
            out[f.name] = list(val) if isinstance(val, tuple) else val
        return out


_KEY_ALIASES = {"Q": "q"}


def _coerce(cfg: ExperimentConfig, key: str, raw: str):
    key = _KEY_ALIASES.get(key, key)
    if not hasattr(cfg, key):
        raise ConfigError(f"{key}: unknown configuration key")
    current = getattr(cfg, key)
    raw = raw.strip()
    try:
        if isinstance(current, bool):
            value = _as_bool(raw, key)
        elif isinstance(current, int):
            value = int(raw)
        elif isinstance(current, float) or current is None:  # None: unset tol
            value = float(raw)
        elif isinstance(current, tuple):
            value = tuple(float(x) for x in raw.split(",") if x.strip())
        else:
            value = raw
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
