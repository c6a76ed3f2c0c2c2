"""Special parameters (Sec. IV-E).

*"An experimenter can define a list of special parameters in the
description file that can be used within the experimentation environment
to expose specific parameters used in the implementation to the
description file."*

This module defines the parameters the reproduction's implementation
understands, their types and defaults, and a typed accessor.  Unknown
special parameters are allowed (platform-specific extensions may consume
them) — validation only warns about them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["SPECIAL_PARAM_DEFS", "SpecialParams", "ParamDef"]


@dataclass(frozen=True)
class ParamDef:
    """Definition of one special parameter."""

    key: str
    type: type
    default: Any
    doc: str


SPECIAL_PARAM_DEFS: Dict[str, ParamDef] = {
    p.key: p
    for p in [
        ParamDef(
            "max_run_duration", float, 120.0,
            "Backstop timeout in seconds after which the master aborts a "
            "run's processes and proceeds to clean-up.",
        ),
        ParamDef(
            "run_settle_time", float, 0.25,
            "Preparation settle delay per run, letting in-flight packets "
            "of the previous run drain ('network packets generated in "
            "previous runs must be dropped on all participants').",
        ),
        ParamDef(
            "sync_probes", int, 5,
            "Clock-offset probes per node per run (Sec. IV-B3); the "
            "minimum-RTT probe wins.",
        ),
        ParamDef(
            "rpc_latency", float, 0.0005,
            "One-way control channel latency in seconds.",
        ),
        ParamDef(
            "rpc_jitter", float, 0.0002,
            "Uniform extra control-channel latency in seconds.",
        ),
        ParamDef(
            "rpc_timeout", float, 30.0,
            "Per-call control-channel deadline in seconds; 0 disables "
            "deadlines (and retries) entirely.",
        ),
        ParamDef(
            "rpc_max_attempts", int, 3,
            "Attempt budget per idempotent RPC (1 = no retries); timed "
            "out attempts back off exponentially with seeded jitter.",
        ),
        ParamDef(
            "prep_deadline", float, 0.0,
            "Watchdog wall-clock (kernel time) budget for a run's "
            "preparation phase, seconds; 0 disables.",
        ),
        ParamDef(
            "exec_deadline", float, 0.0,
            "Watchdog budget for a run's execution phase, seconds; 0 "
            "disables (max_run_duration still backstops actors).",
        ),
        ParamDef(
            "cleanup_deadline", float, 0.0,
            "Watchdog budget for a run's clean-up phase, seconds; 0 "
            "disables.",
        ),
        ParamDef(
            "service_type", str, "_exp._udp",
            "Service type used by the SD case-study actions when an "
            "action does not name one explicitly.",
        ),
        ParamDef(
            "run_spacing", float, 0.5,
            "Quiet time after the run, before the experiment's teardown, "
            "seconds.",
        ),
        ParamDef(
            "sd_registry_nodes", str, "",
            "Registry family: whitespace/comma separated abstract or "
            "platform node ids hosting registry replicas, in replica "
            "order (the 'replicas' sd_init parameter activates a "
            "prefix of this list).",
        ),
        ParamDef(
            "sd_broker_nodes", str, "",
            "Registry family: node ids (abstract or platform) hosting "
            "broker relays for the 'broker' dissemination mode.",
        ),
        ParamDef(
            "sd_dissemination", str, "",
            "Registry family: how clients learn records — 'direct' "
            "(poll the registry) or 'broker' (subscribe at a relay).  "
            "Empty keeps the agent default.",
        ),
        ParamDef(
            "collect_packets", bool, True,
            "Whether packet captures are collected into storage (large).",
        ),
        ParamDef(
            "max_parallel", int, 0,
            "Upper bound on concurrently executing runs when the campaign "
            "engine drives the experiment (0 = no description-imposed "
            "bound; the effective worker count is min(--jobs, this)).  "
            "Descriptions whose platform cannot host isolated concurrent "
            "instances declare 1 here.",
        ),
    ]
}


class SpecialParams:
    """Typed accessor over a description's ``special_params`` mapping."""

    def __init__(self, raw: Optional[Dict[str, Any]] = None) -> None:
        self._raw = dict(raw or {})

    def get(self, key: str) -> Any:
        """Value of *key*, coerced to its declared type, or its default.

        Unknown keys return the raw value (``None`` if absent).
        """
        definition = SPECIAL_PARAM_DEFS.get(key)
        if definition is None:
            return self._raw.get(key)
        if key not in self._raw:
            return definition.default
        value = self._raw[key]
        if definition.type is bool and isinstance(value, str):
            return value.strip().lower() in {"1", "true", "yes"}
        try:
            return definition.type(value)
        except (TypeError, ValueError):
            return definition.default

    def unknown_keys(self):
        """Keys present in the description but not defined here."""
        return sorted(k for k in self._raw if k not in SPECIAL_PARAM_DEFS)
