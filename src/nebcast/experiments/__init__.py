"""Scenario configuration, experiment drivers, and the CLI."""

from .config import PROFILES, SCENARIOS, ScenarioConfig, build_config
from .runner import RunSpec, RunResult, execute_run
from .scenarios import emit_results, run_scenario

__all__ = [
    "PROFILES",
    "SCENARIOS",
    "ScenarioConfig",
    "build_config",
    "RunSpec",
    "RunResult",
    "execute_run",
    "emit_results",
    "run_scenario",
]
