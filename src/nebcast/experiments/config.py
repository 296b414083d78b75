"""Scenario configuration: defaults, profiles, files, and overrides.

A run is described by one flat ``ScenarioConfig``. On disk the same
settings live in a small YAML file with nested sections (network,
broadcast, experiment), and any single key can be overridden from the
command line with ``--set section.key=value``. Resolution order is
scenario defaults, then a named profile, then the config file, then
``--set`` flags; later layers win.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import yaml

from ..errors import ConfigurationError
from ..netsim import LAUNCH_LIMIT_US, NetworkConfig

# scenario -> the disturbances it runs under, its default first
SCENARIO_DISTURBANCES: dict[str, tuple[str, ...]] = {
    "latency": ("none",),
    "coverage_offline": ("churn_once", "churn_periodic"),
    "coverage_refuse": ("refuse_half",),
    # gossip ignores refusal, and the audit's invariants hold only fault-free
    "gossip_sweep": ("none",),
    "faultfree_audit": ("none",),
}

SCENARIOS = tuple(SCENARIO_DISTURBANCES)

VARIANTS = ("baseline", "ne")


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig(NetworkConfig):
    scenario: str
    n_nodes: int = 200
    betas: tuple[int, ...] = (1, 2, 3, 4)
    fanouts: tuple[int, ...] = (1, 2, 3, 4, 6, 8)
    interval_ms: int = 50
    rounds_per_node: int = 10
    repeats: int = 3
    variants: tuple[str, ...] = ("baseline", "ne")
    disturbance: str = "none"
    disturbance_period_s: int = 60
    refuse_withholds_confirmations: bool = False
    flood_check_broadcasts: int = 20
    horizon_s: int | None = None
    seed: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.n_nodes < 2:
            raise ConfigurationError(f"n_nodes must be at least 2, got {self.n_nodes}")
        super().__post_init__()
        if not self.betas or any(b < 1 for b in self.betas):
            raise ConfigurationError(f"betas must be positive integers, got {self.betas}")
        if not self.fanouts or any(f < 1 for f in self.fanouts):
            raise ConfigurationError(f"fanouts must be positive integers, got {self.fanouts}")
        for name in ("interval_ms", "rounds_per_node", "repeats"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1, got {getattr(self, name)}")
        launches = self.n_nodes * self.rounds_per_node
        if self.scenario == "gossip_sweep":  # its flooding cell runs flood_check_broadcasts
            launches = max(launches, self.flood_check_broadcasts)
        if (launches - 1) * self.interval_ms * 1000 >= LAUNCH_LIMIT_US:
            raise ConfigurationError(
                f"interval_ms={self.interval_ms} launches the last broadcast at or past 2**62 us"
            )
        if not self.variants or any(v not in VARIANTS for v in self.variants):
            raise ConfigurationError(f"variants must draw from {VARIANTS}, got {self.variants}")
        for name in ("betas", "fanouts", "variants"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigurationError(f"{name} must not repeat an entry, got {values}")
        allowed = SCENARIO_DISTURBANCES[self.scenario]
        if self.disturbance not in allowed:
            raise ConfigurationError(
                f"disturbance: {self.scenario} runs under one of {allowed},"
                f" got {self.disturbance!r}"
            )
        if self.disturbance_period_s < 1:
            raise ConfigurationError(
                f"disturbance_period_s must be at least 1, got {self.disturbance_period_s}"
            )
        if self.flood_check_broadcasts < 0:
            raise ConfigurationError("flood_check_broadcasts must be nonnegative")
        flood = self.n_nodes - 1  # the flooding cell's fanout, which keys its rows
        if self.flood_check_broadcasts and flood in self.fanouts and self.scenario == "gossip_sweep":
            raise ConfigurationError(
                f"fanouts must not hold {flood}, the flooding cell's fanout at"
                f" n_nodes={self.n_nodes}: drop it or set flood_check_broadcasts to 0"
            )
        if self.horizon_s is not None and self.horizon_s < 1:
            raise ConfigurationError(f"horizon_s must be positive when set, got {self.horizon_s}")
        if self.horizon_s is not None and self.scenario == "faultfree_audit":
            raise ConfigurationError("horizon_s: faultfree_audit runs every broadcast to the end")


# per-scenario defaults layered over the dataclass defaults
SCENARIO_DEFAULTS: dict[str, dict] = {
    "latency": {"betas": (1, 2, 3), "interval_ms": 2, "repeats": 1},
    "gossip_sweep": {"rounds_per_node": 1, "repeats": 5},
    "faultfree_audit": {"betas": (1,), "rounds_per_node": 1, "repeats": 1},
}

# named presets; desk is the do-nothing default
PROFILES: dict[str, dict] = {
    "desk": {},
    "large": {"n_nodes": 1000, "repeats": 5, "rounds_per_node": 10},
    "large_smoke": {
        "n_nodes": 1000,
        "repeats": 1,
        "rounds_per_node": 1,
        "betas": (2,),
        "interval_ms": 50,
    },
}

# nested config-file section -> flat dataclass field
SECTION_FIELDS: dict[str, tuple[str, ...]] = {
    "": ("scenario", "seed"),
    "network": tuple(f.name for f in fields(NetworkConfig)),
    "broadcast": ("betas", "fanouts", "interval_ms", "rounds_per_node"),
    "experiment": (
        "repeats",
        "variants",
        "disturbance",
        "disturbance_period_s",
        "refuse_withholds_confirmations",
        "flood_check_broadcasts",
        "horizon_s",
    ),
}

_FIELD_SECTION = {
    name: section for section, names in SECTION_FIELDS.items() for name in names
}

_FIELD_TYPES = get_type_hints(ScenarioConfig)


def _int(name: str, value, what: str = "an integer") -> int:
    """``int()`` for a config key that rejects booleans and fractions instead of truncating them."""
    fractional = isinstance(value, float) and not value.is_integer()
    if not isinstance(value, bool) and not fractional:
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ConfigurationError(f"{name} must be {what}, got {value!r}")


def _coerce(name: str, value) -> object:
    """Bring a raw YAML or --set value into the shape of the field's type."""
    kind = _FIELD_TYPES[name]
    if get_origin(kind) is tuple:
        if isinstance(value, str):
            value = [part.strip() for part in value.split(",") if part.strip()]
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{name} must be a list, got {value!r}")
        if get_args(kind)[0] is str:
            return tuple(str(v) for v in value)
        return tuple(_int(name, v, "a list of integers") for v in value)
    if kind is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ConfigurationError(f"{name} must be true or false, got {value!r}")
    if kind == int | None:
        if value is None or (isinstance(value, str) and value.lower() in ("null", "none", "")):
            return None
        return _int(name, value, "an integer or null")
    if kind is int:
        return _int(name, value)
    return str(value)


def _flatten_file(doc: dict) -> dict:
    """Turn a nested config document into {field: raw value}."""
    if not isinstance(doc, dict):
        raise ConfigurationError("config file must hold a mapping at the top level")
    flat: dict[str, object] = {}
    for key, value in doc.items():
        if key in SECTION_FIELDS and key != "":
            # a section whose keys are all commented out reads as null
            if not isinstance(value, dict | None):
                raise ConfigurationError(f"config section {key} must be a mapping, got {value!r}")
            for sub, subvalue in (value or {}).items():
                if sub not in SECTION_FIELDS[key]:
                    raise ConfigurationError(f"unknown config key {key}.{sub}")
                flat[sub] = subvalue
        elif key in _FIELD_SECTION and _FIELD_SECTION[key] == "":
            flat[key] = value
        else:
            raise ConfigurationError(f"unknown config key {key}")
    return flat


def load_config_file(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config file {path} is not valid YAML: {exc}") from exc
    return _flatten_file({} if doc is None else doc)


def parse_set_overrides(pairs: list[str]) -> dict:
    """Parse ``--set section.key=value`` flags into {field: raw value}."""
    flat: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigurationError(f"--set needs key=value, got {pair!r}")
        dotted, value = pair.split("=", 1)
        dotted = dotted.strip()
        name = dotted.rsplit(".", 1)[-1]
        if name not in _FIELD_SECTION:
            raise ConfigurationError(f"unknown config key {dotted!r}")
        section = _FIELD_SECTION[name]
        if "." in dotted:
            given = dotted.rsplit(".", 1)[0]
            if given != section:
                raise ConfigurationError(
                    f"key {name} belongs to section {section or '(top level)'}, not {given}"
                )
        flat[name] = value
    return flat


def build_config(
    scenario: str | None = None,
    profile: str | None = None,
    file_values: dict | None = None,
    overrides: dict | None = None,
) -> ScenarioConfig:
    """Resolve one validated ScenarioConfig from all the layers."""
    merged: dict[str, object] = {}
    if profile is not None:
        if profile not in PROFILES:
            raise ConfigurationError(f"profile must be one of {tuple(PROFILES)}, got {profile!r}")
        merged.update(PROFILES[profile])
    if file_values:
        merged.update(file_values)
    if overrides:
        merged.update(overrides)
    if scenario is not None:
        merged["scenario"] = scenario
    if "scenario" not in merged:
        raise ConfigurationError("scenario missing: pass --scenario, a profile, or a config file")
    name = str(merged["scenario"])
    if name not in SCENARIOS:
        raise ConfigurationError(f"scenario must be one of {SCENARIOS}, got {name!r}")
    values: dict[str, object] = {
        "scenario": name,
        "disturbance": SCENARIO_DISTURBANCES[name][0],
    }
    values.update(SCENARIO_DEFAULTS.get(name, {}))
    for key, raw in merged.items():
        if key == "scenario":
            continue
        values[key] = _coerce(key, raw)
    return ScenarioConfig(**values)


def config_as_dict(cfg: ScenarioConfig) -> dict:
    """The full resolved configuration, nested the way config files are."""
    out: dict[str, object] = {"scenario": cfg.scenario, "seed": cfg.seed}
    for section, names in SECTION_FIELDS.items():
        if not section:
            continue
        out[section] = {}
        for name in names:
            value = getattr(cfg, name)
            if isinstance(value, tuple):
                value = list(value)
            out[section][name] = value
    return out
