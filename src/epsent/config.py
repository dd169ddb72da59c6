"""Run configuration: defaults, JSON loading, field validation.

A config file is a flat JSON object; keys match the CLI flag names documented
in the README.  Unknown keys are rejected.  Flag values override file values.
Each :class:`RunConfig` field carries its key, its ``epsent sweep`` flag, its
help text, its element type and its allowed values; ``SCHEMA`` collects them,
and loading, the sweep flags and every range and choice check use it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from .compressor import ALGORITHMS, MAX_ALPHABET, MAX_SYMBOLS
from .dynamics import BOUNDARIES, MAP_KINDS, NOISE_MODES, MapSpec

DEFAULT_SEED = 0x5EEDC0DE
DEFAULT_CELLS = (2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 125, 250)
DEFAULT_SIGMAS = (0.5, 0.1, 0.02, 0.01, 0.001)


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


def _param(default, help, *, elem=None, choices=None, lo=None, hi=None, key=None, flag=None):
    """A RunConfig field and its schema entry.

    ``key`` is the config-file key (default: the field name) and ``flag`` the
    ``epsent sweep`` flag (default: ``--`` plus the key with dashes).  The
    element type ``elem`` (default: the type of ``default``) converts one flag
    value, or one element of a tuple field, which is a repeatable flag and a
    JSON list.  ``choices`` lists the allowed values, and ``lo`` and ``hi``
    bound each value inclusively; ``None`` is no bound.
    """
    elem = elem or type(default)
    meta = dict(key=key, flag=flag, help=help, type=elem, choices=choices, lo=lo, hi=hi)
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class RunConfig:
    """One sweep's settings; building an invalid one raises :class:`ConfigError`."""

    map: str = _param("logistic", "interval map", choices=MAP_KINDS)
    lam: float = _param(4.0, "logistic parameter in (0,4]", key="lambda")
    noise_mode: str = _param("dynamical", "where the noise acts", choices=NOISE_MODES)
    boundary: str = _param("reflect", "how noise is folded back into [0,1]", choices=BOUNDARIES)
    sigma: tuple[float, ...] = _param(DEFAULT_SIGMAS, "noise amplitude (repeatable)", elem=float, lo=0)
    n_list: tuple[int, ...] = _param(
        DEFAULT_CELLS, "partition cell count (repeatable)", elem=int, lo=2, hi=MAX_ALPHABET,
        flag="--cells",
    )
    length: int = _param(1_000_000, "orbit length in symbols", lo=1000, hi=MAX_SYMBOLS)
    burn_in: int = _param(1000, "discarded start iterates", lo=0, hi=MAX_SYMBOLS)
    # seeds.mix keeps the low 64 bits, so any other seed would run as one of these
    seed: int = _param(DEFAULT_SEED, "master seed", lo=0, hi=2**64 - 1)
    # each worker is a copy of the whole process, so their number is capped
    workers: int = _param(1, "parallel worker processes", lo=1, hi=64)
    algorithm: str = _param("lz78", "compressor for the rate", choices=ALGORITHMS)
    p_samples: int = _param(
        20_000, "Monte-Carlo samples for the mismatch probability", lo=1, hi=MAX_SYMBOLS
    )
    delta: float = _param(0.05, "conditional-entropy flatness tolerance")
    # 62 bounds the word-rank ladder's passes per count
    max_block: int | None = _param(None, "override the deepest block length", elem=int, lo=2, hi=62)
    miller_madow: bool = _param(False, "Miller-Madow entropy bias correction")
    out_csv: str | None = _param(None, "CSV output path (default sweep.csv)", elem=str)
    out_plot: str | None = _param(None, "gnuplot data output path", elem=str)

    def __post_init__(self) -> None:
        for key, f in SCHEMA.items():
            value, meta = getattr(self, f.name), f.metadata
            many = isinstance(f.default, tuple)
            if many and not value:
                raise ConfigError(f"{key}: need at least one value")
            lo, hi = meta["lo"], meta["hi"]
            for v in value if many else (value,):
                if meta["choices"] and v not in meta["choices"]:
                    raise ConfigError(f"{key}: must be one of {meta['choices']}, got {v!r}")
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{key}: must be finite, got {v!r}")
                if v is not None and (lo is not None and v < lo or hi is not None and v > hi):
                    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
                    raise ConfigError(f"{key}: must be {bound}, got {v!r}")
        # the two rules that are no inclusive range; the map states its own
        try:
            MapSpec(self.map, self.lam)
        except ValueError as exc:
            raise ConfigError(f"lambda: {exc}") from exc
        if self.delta <= 0.0:
            raise ConfigError(f"delta: must be > 0, got {self.delta}")


# config key -> RunConfig field: the one schema behind the config file, the
# sweep flags and the checks
SCHEMA = {f.metadata["key"] or f.name: f for f in fields(RunConfig)}


def flag_of(key: str) -> str:
    """The ``epsent sweep`` flag that sets config key ``key``."""
    return SCHEMA[key].metadata["flag"] or "--" + key.replace("_", "-")


def from_mapping(mapping: Mapping[str, Any]) -> dict[str, Any]:
    """The typed RunConfig fields of a flat mapping, rejecting unknown keys."""
    updates: dict[str, Any] = {}
    for key, value in mapping.items():
        if key not in SCHEMA:
            raise ConfigError(f"{key}: unknown configuration key")
        if value is None:
            continue
        f = SCHEMA[key]
        elem = f.metadata["type"]
        if isinstance(f.default, tuple):
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{key}: expected a list of {elem.__name__}, got {value!r}")
            value = tuple(_typed(key, elem, v) for v in value)
        else:
            value = _typed(key, elem, value)
        updates[f.name] = value
    return updates


def _typed(key: str, elem: type, value: Any) -> Any:
    """``value`` as an ``elem``; a bool is no number, an int is a float."""
    accepted = (int, float) if elem is float else elem
    if isinstance(value, bool) != (elem is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key}: expected {elem.__name__}, got {value!r}")
    return elem(value)


def load_config(path: str | None, overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """Load a JSON config file (optional) and apply flag overrides on top.

    Each source is type-checked; the merged config checks its own ranges.
    """
    file_fields: dict[str, Any] = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config: top level must be a JSON object")
        file_fields = from_mapping(data)
    return RunConfig(**{**file_fields, **from_mapping(overrides or {})})
