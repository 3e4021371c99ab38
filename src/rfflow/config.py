"""Experiment configuration: flat key = value files plus CLI overrides."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

from .features import FEATURE_KINDS, TARGET_KINDS

M_RULES = ("sqrt-n", "n^2")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully serialisable description of one experiment cell: every field
    determines results, so the text form and its hash identify the result.

    ``m`` accepts an integer or one of the rules "sqrt-n" / "n^2".  The time
    grid is logarithmic between 10^t_log_start and 10^t_log_stop with
    ``t_per_decade`` points per decade, followed by the t = inf (min-norm)
    snapshot.  ``eta`` only affects the recorded discrete-iteration
    correspondence: under the flow's 1/(mn) rate convention a discrete step
    at learning rate eta advances flow time by eta.  An invalid value raises
    ValueError at construction, naming its key.
    """

    seed: int = 0
    n: int = 500
    m: str = "500"
    d: int = 10
    feature_kind: str = "relu"
    target_kind: str = "constant-harmonic"
    target_order: int = 0
    t_log_start: float = -2.0
    t_log_stop: float = 10.0
    t_per_decade: int = 20
    test_count: int = 2000
    assumption_points: int = 2000
    delta: float = 0.1
    eta: str = "auto"            # "auto" = 1 / (largest Gram eigenvalue)

    def __post_init__(self):
        def need(ok: bool, key: str, rule: str):
            if not ok:
                raise ValueError(f"{key} {rule}, got {getattr(self, key)!r}")

        need(self.seed >= 0, "seed", "must be >= 0")
        for key in ("n", "d", "t_per_decade", "test_count", "assumption_points"):
            need(getattr(self, key) >= 1, key, "must be a count >= 1")
        need(self.m in M_RULES or 1 <= _parsed(int, self.m), "m",
             f"must be an integer >= 1 or one of {M_RULES}")
        need(self.feature_kind in FEATURE_KINDS, "feature_kind", f"must be one of {FEATURE_KINDS}")
        need(self.target_kind in TARGET_KINDS + ("external-labels",), "target_kind",
             f"must be one of {TARGET_KINDS} or 'external-labels'")
        need(self.target_order >= 0, "target_order", "must be >= 0")
        need(self.target_kind != "legendre" or self.d >= 3, "d", "must be >= 3 for legendre targets")
        need(-math.inf < self.t_log_start <= self.t_log_stop < math.inf, "t_log_start",
             f"must be finite and <= t_log_stop = {self.t_log_stop!r}")
        need(0.0 < self.delta < 1.0, "delta", "must lie in (0, 1)")
        need(self.eta == "auto" or 0.0 < _parsed(float, self.eta) < math.inf, "eta",
             "must be 'auto' or a positive finite number")

    def resolve_m(self) -> int:
        if self.m == "sqrt-n":
            return max(1, int(round(math.sqrt(self.n))))
        if self.m == "n^2":
            return self.n * self.n
        return int(self.m)

    def time_grid(self) -> list[float]:
        decades = self.t_log_stop - self.t_log_start
        count = int(round(decades * self.t_per_decade)) + 1
        return [10.0 ** (self.t_log_start + i / self.t_per_decade)
                for i in range(count)] + [math.inf]

    def to_text(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """Hash of the text form; every field determines results."""
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:12]


def _parsed(cast, text: str):
    """``text`` parsed by ``cast``; nan, which fails every comparison, if it does not parse."""
    try:
        return cast(text)
    except ValueError:
        return math.nan


def _coerce(name: str, raw: str):
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    if name not in defaults:
        raise KeyError(f"unknown config key {name!r}")
    raw = raw.strip()
    cast = type(defaults[name])
    if cast is str:
        return raw
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(f"{name}: expected {cast.__name__}, got {raw!r}") from None


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    cfg = base or ExperimentConfig()
    updates = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        updates[key] = _coerce(key, value)
    return replace(cfg, **updates)


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base)


def apply_overrides(cfg: ExperimentConfig, pairs) -> ExperimentConfig:
    """Apply --set key=value overrides."""
    updates = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not key=value")
        key, _, value = pair.partition("=")
        key = key.strip()
        updates[key] = _coerce(key, value)
    return replace(cfg, **updates)
