"""Run configuration: defaults, JSON loading, field validation.

A config file is a flat JSON object; keys match the CLI flag names documented
in the README.  Unknown keys are rejected.  Flag values override file values.
Each :class:`RunConfig` field carries its key, its ``epsent sweep`` flag, its
help text, its element type and its allowed values; ``SCHEMA`` collects them,
and loading, the choice checks and the sweep flags are all driven by it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from .compressor import ALGORITHMS, MAX_ALPHABET, MAX_SYMBOLS
from .dynamics import BOUNDARIES, MAP_KINDS, NOISE_MODES

DEFAULT_SEED = 0x5EEDC0DE
DEFAULT_CELLS = (2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 125, 250)
DEFAULT_SIGMAS = (0.5, 0.1, 0.02, 0.01, 0.001)


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


def _param(default, help, *, elem=None, choices=None, key=None, flag=None):
    """A RunConfig field and its schema entry.

    ``key`` is the config-file key (default: the field name) and ``flag`` the
    ``epsent sweep`` flag (default: ``--`` plus the key with dashes).  The
    element type ``elem`` (default: the type of ``default``) converts one flag
    value, or one element of a tuple field, which is a repeatable flag and a
    JSON list.  ``choices`` lists the allowed values.
    """
    elem = elem or type(default)
    meta = {"key": key, "flag": flag, "help": help, "type": elem, "choices": choices}
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class RunConfig:
    map: str = _param("logistic", "interval map", choices=MAP_KINDS)
    lam: float = _param(4.0, "logistic parameter in (0,4]", key="lambda")
    noise_mode: str = _param("dynamical", "where the noise acts", choices=NOISE_MODES)
    boundary: str = _param("reflect", "how noise is folded back into [0,1]", choices=BOUNDARIES)
    sigma: tuple[float, ...] = _param(DEFAULT_SIGMAS, "noise amplitude (repeatable)", elem=float)
    n_list: tuple[int, ...] = _param(
        DEFAULT_CELLS, "partition cell count (repeatable)", elem=int, flag="--cells"
    )
    length: int = _param(1_000_000, "orbit length in symbols")
    burn_in: int = _param(1000, "discarded start iterates")
    seed: int = _param(DEFAULT_SEED, "master seed")
    workers: int = _param(1, "parallel worker processes")
    algorithm: str = _param("lz78", "compressor for the rate", choices=ALGORITHMS)
    p_samples: int = _param(20_000, "Monte-Carlo samples for the mismatch probability")
    delta: float = _param(0.05, "conditional-entropy flatness tolerance")
    max_block: int | None = _param(None, "override the deepest block length", elem=int)
    miller_madow: bool = _param(False, "Miller-Madow entropy bias correction")
    out_csv: str | None = _param(None, "CSV output path (default sweep.csv)", elem=str)
    out_plot: str | None = _param(None, "gnuplot data output path", elem=str)

    def validate(self) -> "RunConfig":
        for key, f in SCHEMA.items():
            value = getattr(self, f.name)
            choices = f.metadata["choices"]
            if choices and value not in choices:
                raise ConfigError(f"{key}: must be one of {choices}, got {value!r}")
        if self.map == "logistic" and not 0.0 < self.lam <= 4.0:
            raise ConfigError(f"lambda: must be in (0, 4], got {self.lam}")
        if not self.sigma:
            raise ConfigError("sigma: need at least one value")
        for s in self.sigma:
            if s < 0.0:
                raise ConfigError(f"sigma: must be >= 0, got {s}")
        if not self.n_list:
            raise ConfigError("n_list: need at least one cell count")
        for n in self.n_list:
            if not 2 <= n <= MAX_ALPHABET:
                raise ConfigError(f"n_list: cell counts must be in [2, {MAX_ALPHABET}], got {n}")
        if not 1000 <= self.length <= MAX_SYMBOLS:
            raise ConfigError(f"length: must be in [1000, {MAX_SYMBOLS}], got {self.length}")
        if self.burn_in < 0:
            raise ConfigError(f"burn_in: must be >= 0, got {self.burn_in}")
        if self.workers < 1:
            raise ConfigError(f"workers: must be >= 1, got {self.workers}")
        if self.p_samples < 1:
            raise ConfigError(f"p_samples: must be >= 1, got {self.p_samples}")
        if self.delta <= 0.0:
            raise ConfigError(f"delta: must be > 0, got {self.delta}")
        # 62 bounds the word-rank ladder's passes per count
        if self.max_block is not None and not 2 <= self.max_block <= 62:
            raise ConfigError(f"max_block: must be in [2, 62], got {self.max_block}")
        return self


# config key -> RunConfig field: the one schema behind the config file, the
# sweep flags and the choice checks
SCHEMA = {f.metadata["key"] or f.name: f for f in fields(RunConfig)}


def flag_of(key: str) -> str:
    """The ``epsent sweep`` flag that sets config key ``key``."""
    return SCHEMA[key].metadata["flag"] or "--" + key.replace("_", "-")


def from_mapping(mapping: Mapping[str, Any], base: RunConfig | None = None) -> RunConfig:
    """Build a config from a flat mapping, rejecting unknown keys."""
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
    return replace(base or RunConfig(), **updates)


def _typed(key: str, elem: type, value: Any) -> Any:
    """``value`` as an ``elem``; a bool is no number, an int is a float."""
    accepted = (int, float) if elem is float else elem
    if isinstance(value, bool) != (elem is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key}: expected {elem.__name__}, got {value!r}")
    return elem(value)


def load_config(path: str | None, overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """Load a JSON config file (optional) and apply flag overrides on top."""
    cfg = RunConfig()
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
        cfg = from_mapping(data, cfg)
    if overrides:
        cfg = from_mapping(overrides, cfg)
    return cfg.validate()
