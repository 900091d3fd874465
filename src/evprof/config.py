"""Run configuration shared by the profiler and CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields


HONEYPOT_PID = 99999  # the decoy process injection is rerouted to


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    mitigate: bool = True
    exclude_fp_prone: bool = True
    # technique id -> "on" | "off" | forced substituted value
    overrides: tuple[tuple[str, str], ...] = ()
    seed: int = 0

    def override_for(self, technique: str) -> str | None:
        for key, value in self.overrides:
            if key == technique:
                return value
        return None

    def mitigation_enabled(self, technique: str) -> bool:
        ov = self.override_for(technique)
        if ov == "off":
            return False
        if ov is not None:
            return True
        return self.mitigate

    def validate_overrides(self, known_ids) -> None:
        for key, _ in self.overrides:
            if key not in known_ids:
                raise ConfigError(f"override references unknown technique {key!r}")


# config file key -> its default
_KEYS = {f.name: f.default for f in fields(RunConfig)}


def load_config_file(path) -> RunConfig:
    """Load a JSON config file into a RunConfig.

    The file is one object. Its keys are the RunConfig field names; each
    value has its default's JSON type, and ``overrides`` is an object of
    strings. Any other file is a ConfigError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"bad config file {path}: expected an object")
    values = {}
    for key, value in data.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if key == "overrides":
            if type(value) is not dict or not all(
                    type(v) is str for v in value.values()):
                raise ConfigError(f"config key {key!r}: {value!r} is not an "
                                  f"object of strings")
            value = tuple(sorted(value.items()))
        elif type(value) is not type(_KEYS[key]):
            raise ConfigError(f"config key {key!r}: {value!r} is not of "
                              f"type {type(_KEYS[key]).__name__}")
        values[key] = value
    return RunConfig(**values)
