"""Experiment configuration: flat key = value files plus CLI overrides."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

# fields that only control how a run executes, never what it computes
EXECUTION_FIELDS = ("out_dir", "workers")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully serialisable description of one experiment cell.

    ``m`` accepts an integer or one of the rules "sqrt-n" / "n^2".  The time
    grid is logarithmic between 10^t_log_start and 10^t_log_stop with
    ``t_per_decade`` points per decade; ``include_min_norm`` appends the
    t = inf snapshot.  ``eta`` and ``time_map`` only affect the recorded
    discrete-iteration correspondence: with time_map = "flow-mn" a discrete
    step at learning rate eta advances flow time by eta; with "obj-n" the
    discrete gradient omits the 1/m factor, so one step advances eta * m.
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
    include_min_norm: bool = True
    test_count: int = 2000
    assumption_points: int = 2000
    delta: float = 0.1
    eta: str = "auto"            # "auto" = 1 / (largest Gram eigenvalue)
    time_map: str = "flow-mn"    # or "obj-n"
    out_dir: str = "."
    workers: int = 1

    def resolve_m(self) -> int:
        if self.m == "sqrt-n":
            return max(1, int(round(math.sqrt(self.n))))
        if self.m == "n^2":
            return self.n * self.n
        return int(self.m)

    def time_grid(self) -> list[float]:
        decades = self.t_log_stop - self.t_log_start
        count = int(round(decades * self.t_per_decade)) + 1
        grid = [10.0 ** (self.t_log_start + i / self.t_per_decade)
                for i in range(count)]
        if self.include_min_norm:
            grid.append(math.inf)
        return grid

    def to_text(self, skip=()) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)}"
                 for f in fields(self) if f.name not in skip]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """Hash of the fields that determine results; execution fields are left out."""
        text = self.to_text(skip=EXECUTION_FIELDS)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


_BOOL = {"true": True, "false": False, "1": True, "0": False}


def _coerce(name: str, raw: str):
    proto = ExperimentConfig()
    current = getattr(proto, name, None)
    if current is None:
        raise KeyError(f"unknown config key {name!r}")
    raw = raw.strip()
    if isinstance(current, bool):
        try:
            return _BOOL[raw.lower()]
        except KeyError:
            raise ValueError(f"{name}: expected a boolean, got {raw!r}") from None
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    return raw


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
