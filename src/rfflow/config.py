"""Experiment configuration: flat key = value files plus CLI overrides."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

from .features import FEATURE_KINDS

# most finite times a grid may hold.  A grid call walks its grid in blocks, so
# its memory does not grow with it; its run time (N_test x m multiply-adds per
# time) and the rows that `run` writes do
MAX_GRID_POINTS = 10_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully serialisable description of one experiment cell: every field
    determines results, so the text form and its hash identify the result.

    The time grid is logarithmic between 10^t_log_start and 10^t_log_stop with
    ``t_per_decade`` points per decade, at most ``MAX_GRID_POINTS`` of them,
    followed by the t = inf (min-norm) snapshot.  The target is the
    order-``target_order`` zonal harmonic of ``features.TargetSpec``.  The
    test-set size, the Monte-Carlo size of the assumption report and the
    rough bound's confidence delta are the constants ``runner.TEST_COUNT``,
    ``runner.ASSUMPTION_POINTS`` and ``runner.DELTA``, not keys.  An invalid
    value raises ValueError at construction, naming its key.
    """

    seed: int = 0
    n: int = 500
    m: int = 500
    d: int = 10
    feature_kind: str = "relu"
    target_order: int = 0
    t_log_start: float = -2.0
    t_log_stop: float = 10.0
    t_per_decade: int = 20

    def __post_init__(self):
        def need(ok: bool, key: str, rule: str):
            if not ok:
                raise ValueError(f"{key} {rule}, got {getattr(self, key)!r}")

        need(self.seed >= 0, "seed", "must be >= 0")
        for key in ("n", "m", "d", "t_per_decade"):
            need(getattr(self, key) >= 1, key, "must be a count >= 1")
        need(self.feature_kind in FEATURE_KINDS, "feature_kind", f"must be one of {FEATURE_KINDS}")
        need(self.target_order >= 0, "target_order", "must be >= 0")
        need(self.target_order == 0 or self.d >= 3, "d", "must be >= 3 for a target of order >= 1")
        need(math.isfinite(self.t_log_start), "t_log_start", "must be finite")
        need(math.isfinite(self.t_log_stop), "t_log_stop", "must be finite")
        need(self.t_log_start <= self.t_log_stop, "t_log_start",
             f"must be <= t_log_stop = {self.t_log_stop!r}")
        # the grid rises from 10^t_log_start to 10^(its last exponent), which the
        # rounded point count may put past t_log_stop: both ends must be doubles
        need(_power_of_ten(self.t_log_start) > 0, "t_log_start",
             "must be at least about -323.6, so that 10^t_log_start is a positive double")
        need(math.isfinite((self.t_log_stop - self.t_log_start) * self.t_per_decade)
             and _power_of_ten(self._exponent(self._count() - 1)) < math.inf, "t_log_stop",
             "must keep the grid's last time, 10^(t_log_start + k / t_per_decade) with "
             "k = round((t_log_stop - t_log_start) * t_per_decade), below the largest "
             "double, about 10^308.25")
        need(self._count() <= MAX_GRID_POINTS, "t_per_decade",
             "must keep the grid's round((t_log_stop - t_log_start) * t_per_decade) + 1 "
             f"finite times at {MAX_GRID_POINTS} or fewer (here {self._count()})")

    def _count(self) -> int:
        return int(round((self.t_log_stop - self.t_log_start) * self.t_per_decade)) + 1

    def _exponent(self, i: int) -> float:
        return self.t_log_start + i / self.t_per_decade

    def time_grid(self) -> list[float]:
        return [10.0 ** self._exponent(i) for i in range(self._count())] + [math.inf]

    def to_text(self) -> str:
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """Hash of the text form; every field determines results."""
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:12]


def _power_of_ten(exponent: float) -> float:
    """10.0 ** exponent, inf where the double overflows (0 where it underflows)."""
    try:
        return 10.0 ** exponent
    except OverflowError:
        return math.inf


def split_key_value(text: str, where: str) -> tuple[str, str]:
    """The one reader of 'key = value' text: (key, value), both stripped.  A
    text without '=' raises ValueError, naming it as ``where``."""
    key, eq, value = text.partition("=")
    if not eq:
        raise ValueError(f"{where}: expected 'key = value', got {text!r}")
    return key.strip(), value.strip()


def _updated(cfg: ExperimentConfig, pairs) -> ExperimentConfig:
    """cfg with each (key, value text) pair applied, the text cast to the
    key's type; an unknown key raises KeyError, a bad value ValueError."""
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    updates = {}
    for name, raw in pairs:
        if name not in defaults:
            raise KeyError(f"unknown config key {name!r}")
        cast = type(defaults[name])
        try:
            updates[name] = cast(raw)
        except ValueError:
            raise ValueError(f"{name}: expected {cast.__name__}, got {raw!r}") from None
    return replace(cfg, **updates)


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Apply a file's 'key = value' lines; blank and '#' lines are skipped."""
    lines = [(ln, line.strip()) for ln, line in enumerate(text.splitlines(), start=1)]
    return _updated(base or ExperimentConfig(),
                    (split_key_value(line, f"line {ln}") for ln, line in lines
                     if line and not line.startswith("#")))


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ValueError(f"cannot read config file {path}: {reason}") from None
    return parse_config_text(text, base)


def apply_overrides(cfg: ExperimentConfig, pairs) -> ExperimentConfig:
    """Apply --set key=value overrides."""
    return _updated(cfg, (split_key_value(pair, "--set") for pair in pairs))
