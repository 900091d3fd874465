"""Run configuration shared by the profiler, clock, and CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields


HONEYPOT_PID = 99999  # the decoy process injection is rerouted to


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ClockConfig:
    tick_rate: int = 2_600_000        # ticks per millisecond
    stall_threshold_ms: int = 30_000  # waits at or above this are stalling
    infinite_wait_cap_ms: int = 600_000
    sandwich_window: int = 50         # max instruction gap between paired rdtsc
    rdtsc_requires_sandwich: bool = True


@dataclass(frozen=True)
class RunConfig:
    mitigate: bool = True
    exclude_fp_prone: bool = True
    # technique id -> "on" | "off" | forced substituted value
    overrides: tuple[tuple[str, str], ...] = ()
    seed: int = 0
    honeypot_pid: int = HONEYPOT_PID
    clock: ClockConfig = field(default_factory=ClockConfig)

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


# config file key -> (dataclass holding the field, its default); the clock
# fields sit at the top level of the file
_KEYS = {f.name: (cls, f.default) for cls in (RunConfig, ClockConfig)
         for f in fields(cls) if f.name != "clock"}


def load_config_file(path) -> RunConfig:
    """Load a JSON config file into a RunConfig.

    The file is one object. Its keys are the RunConfig and ClockConfig
    field names; each value has its default's JSON type, and ``overrides``
    is an object of strings. Any other file is a ConfigError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"bad config file {path}: expected an object")
    values = {RunConfig: {}, ClockConfig: {}}
    for key, value in data.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        cls, default = _KEYS[key]
        if key == "overrides":
            if type(value) is not dict or not all(
                    type(v) is str for v in value.values()):
                raise ConfigError(f"config key {key!r}: {value!r} is not an "
                                  f"object of strings")
            value = tuple(sorted(value.items()))
        elif type(value) is not type(default):
            raise ConfigError(f"config key {key!r}: {value!r} is not of "
                              f"type {type(default).__name__}")
        values[cls][key] = value
    return RunConfig(**values[RunConfig],
                     clock=ClockConfig(**values[ClockConfig]))
