"""Run-time configuration with compiled-in defaults and optional JSON override.

The Monte Carlo tolerances are pre-registered constants: they are fixed
here, not tuned after looking at sample output, and no config file can
override them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .exact import DEFAULT_EXHAUSTIVE_BOUND

# the largest order the series commands accept: verify-series at order 100
# takes about 5-6 s as a process on a 2-core x86-64 machine, most of it
# in the identity checks and the connected sweep
SERIES_BOUND = 100
# the largest n the closed-form tree and mapping tables accept: at n = 1000
# the table takes about 0.35 s as a process on the same machine, and from
# about n = 1,340 its counts pass CPython's 4,300-digit limit on printing an int
TABLE_BOUND = 1000
# the largest n mc accepts, and the cells in one Monte Carlo chunk of MC_N_BOUND // n
# rows: a chunk is drawn in blocks of at most 2^16 cells, or one row when n is larger,
# so this bounds one row of draws (16 MiB of int64), not the chunk
MC_N_BOUND = 1 << 21
# the most cells, n x samples, mc accepts: on one worker of the same machine
# mappings take about 8-11 ns a cell, so 10^10 cells take under 2 minutes, and
# trees (--trees) about 370-390 ns a cell per worker
MC_CELLS_BOUND = 10 ** 10


def check_mc_bounds(n: int, samples: int) -> None:
    """Raise ValueError when mc's n passes MC_N_BOUND or n x samples MC_CELLS_BOUND."""
    if n > MC_N_BOUND:
        raise ValueError(f"n={n} exceeds mc bound {MC_N_BOUND}")
    if n * samples > MC_CELLS_BOUND:
        raise ValueError(f"n x samples={n * samples} exceeds mc cell bound {MC_CELLS_BOUND}")


@dataclass(frozen=True)
class McTolerances:
    mean_over_n: float = 0.005
    variance_over_n: float = 0.015
    ks: float = 0.02

    def __post_init__(self) -> None:
        for f in fields(self):
            x = getattr(self, f.name)
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ValueError(f"tolerance {f.name}={x!r} is not a number")
            if not 0.0 < x < 1.0:
                raise ValueError(f"tolerance {f.name}={x} outside (0, 1)")


@dataclass(frozen=True)
class Config:
    exhaustive_bound: int = DEFAULT_EXHAUSTIVE_BOUND
    series_order: int = 12
    rng_seed: int = 1729

    def __post_init__(self) -> None:
        for name in ("exhaustive_bound", "series_order", "rng_seed"):
            x = getattr(self, name)
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(f"{name}={x!r} is not an integer")
        if self.exhaustive_bound < 1 or self.series_order < 1:
            raise ValueError("bounds must be positive")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed={self.rng_seed} must be non-negative")


def load_config(path: str | None) -> Config:
    """Config from a JSON file, or the defaults when no path is given."""
    if path is None:
        return Config()
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, not {type(raw).__name__}")
    unknown = sorted(set(raw) - {f.name for f in fields(Config)})
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    return Config(**raw)
