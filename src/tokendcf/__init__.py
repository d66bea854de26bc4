"""Discrete-event simulator of wireless ad-hoc LANs comparing IEEE 802.11 DCF
with a token/privilege MAC that schedules neighbors via overheard queue lengths."""

from .core import Simulator, derive_seed, draw_pareto, pareto_scale, substream
from .experiments import (Network, ScenarioConfig, Simulation, generate_topology,
                          load_config, parse_config, run_scenario, run_sweep,
                          simulate_run)
from .frames import ACK, DATA, MacFrame, frame_airtime
from .mac import Station
from .medium import Medium
from .metrics import Metrics, MetricsReport, summarize
from .params import ConfigError, MacParams, PhyParams, TokenParams
from .token import TokenScheduler
from .traffic import FullBufferSource, ParetoOnOffSource, TrafficSpec

__version__ = "0.1.0"

__all__ = [
    "Simulator", "substream", "derive_seed", "draw_pareto", "pareto_scale",
    "ScenarioConfig", "Network", "Simulation", "generate_topology", "parse_config",
    "load_config", "run_scenario", "run_sweep", "simulate_run",
    "DATA", "ACK", "MacFrame", "frame_airtime",
    "Station", "Medium",
    "Metrics", "MetricsReport", "summarize",
    "PhyParams", "MacParams", "TokenParams", "ConfigError",
    "TokenScheduler", "TrafficSpec", "FullBufferSource", "ParetoOnOffSource",
]
