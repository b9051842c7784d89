"""Run configuration: one record, file-backed, flag-overridable."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from importlib import resources

from .errors import ConfigError
from .groups import DEFAULT_GROUP_CAP
from .orbits import DEFAULT_TOL_ORACLE
from .presentations import DEFAULT_COSET_CAP

ENV_CONFIG = "SPHERECOVER_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    coset_cap: int = DEFAULT_COSET_CAP
    group_cap: int = DEFAULT_GROUP_CAP
    tol_oracle: float = DEFAULT_TOL_ORACLE
    corpus_path: str | None = None  # None: packaged corpus
    cache_path: str | None = None  # None: caching disabled
    output_format: str = "table"  # table | json | csv
    seed: int = 0
    show_timing: bool = False

    def validate(self):
        for f in fields(self):
            accepts, kind = _ACCEPTS[f.type]
            value = getattr(self, f.name)
            if not accepts(value):
                raise ConfigError(f"config field {f.name!r} must be {kind}, not {value!r}")
        if self.coset_cap < 1 or self.group_cap < 1:
            raise ConfigError("caps must be >= 1")
        if not self.tol_oracle > 0:
            raise ConfigError("tolerances must be positive")
        if self.output_format not in ("table", "json", "csv"):
            raise ConfigError(f"unknown output format {self.output_format!r}")
        return self


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# field annotation -> (test, what the field must be); bool is not a number here
_ACCEPTS = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
}
FIELD_NAMES = {f.name for f in fields(RunConfig)}


def _apply(config, mapping, source):
    if not isinstance(mapping, dict):
        raise ConfigError(f"config in {source} must be a JSON object")
    unknown = set(mapping) - FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown config keys in {source}: {sorted(unknown)}")
    return replace(config, **mapping)


def load_config(path=None, overrides=None):
    """Field defaults, then config file (arg or env), then overrides."""
    config = RunConfig()
    path = path or os.environ.get(ENV_CONFIG)
    if path:
        with open(path, encoding="utf-8") as fh:
            config = _apply(config, json.load(fh), path)
    if overrides:
        config = _apply(config, overrides, "command line")
    return config.validate()


def packaged_corpus_text():
    return resources.files("spherecover.data").joinpath("corpus.tsv").read_text()
