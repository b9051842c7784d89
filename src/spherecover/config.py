"""Run configuration: one record, file-backed, flag-overridable."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from importlib import resources

ENV_CONFIG = "SPHERECOVER_CONFIG"


@dataclass(frozen=True)
class RunConfig:
    coset_cap: int = 200_000
    group_cap: int = 100_000
    tol_grid: float = 1e-12
    tol_oracle: float = 1e-3
    corpus_path: str | None = None  # None: packaged corpus
    cache_path: str | None = None  # None: caching disabled
    output_format: str = "table"  # table | json | csv
    seed: int = 0
    show_timing: bool = False

    def validate(self):
        if self.coset_cap < 1 or self.group_cap < 1:
            raise ValueError("caps must be >= 1")
        if min(self.tol_grid, self.tol_oracle) <= 0:
            raise ValueError("tolerances must be positive")
        if self.output_format not in ("table", "json", "csv"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        return self


_FIELD_NAMES = {f.name for f in fields(RunConfig)}


def _apply(config, mapping, source):
    unknown = set(mapping) - _FIELD_NAMES
    if unknown:
        raise ValueError(f"unknown config keys in {source}: {sorted(unknown)}")
    return replace(config, **mapping)


def default_config_text():
    return resources.files("spherecover.data").joinpath("default_config.json").read_text()


def load_config(path=None, overrides=None):
    """Packaged defaults, then config file (arg or env), then overrides."""
    config = _apply(RunConfig(), json.loads(default_config_text()), "packaged defaults")
    path = path or os.environ.get(ENV_CONFIG)
    if path:
        with open(path, encoding="utf-8") as fh:
            config = _apply(config, json.load(fh), path)
    if overrides:
        config = _apply(config, overrides, "command line")
    return config.validate()


def packaged_corpus_text():
    return resources.files("spherecover.data").joinpath("corpus.tsv").read_text()
