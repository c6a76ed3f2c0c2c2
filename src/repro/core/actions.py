"""The action registry: what a description's domain actions mean.

Besides the four flow-control functions, a process body contains *process
specific actions, environment actions and manipulation actions*
(Sec. IV-C2).  The registry maps each action name to where it executes:

``NODE``
    Dispatched over the control channel to the :class:`NodeManager` of the
    node the process is bound to (experiment process actions like
    ``sd_init``, and node fault actions like ``msg_loss_start``).
``ENVIRONMENT``
    Executed by the master's environment controller, which fans out to the
    environment nodes (``env_traffic_start``, ``env_drop_all_start``, ...).

Plugins extend the registry with new actions (Sec. IV-D2: *"an
experimenter should preferably extend ExCovery by defining a plugin with
new functions and their implementation"*); the ``generic`` action escape
hatch of the paper is registered out of the box.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.errors import DescriptionError

__all__ = [
    "ActionKind",
    "ActionSpec",
    "ActionRegistry",
    "default_registry",
]


class ActionKind(enum.Enum):
    """Where an action executes."""

    NODE = "node"
    ENVIRONMENT = "environment"


@dataclass(frozen=True)
class ActionSpec:
    """Registry entry for one action name.

    ``emits`` documents the events the action generates (used by
    validation to sanity-check event dependencies, and by humans).
    """

    name: str
    kind: ActionKind
    doc: str = ""
    emits: Tuple[str, ...] = ()


class ActionRegistry:
    """Name → :class:`ActionSpec` mapping with plugin extension."""

    def __init__(self) -> None:
        self._specs: Dict[str, ActionSpec] = {}

    def register(self, spec: ActionSpec, replace: bool = False) -> None:
        if not replace and spec.name in self._specs:
            raise DescriptionError(f"action {spec.name!r} already registered")
        self._specs[spec.name] = spec

    def lookup(self, name: str) -> ActionSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise DescriptionError(f"unknown action {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def known_events(self) -> List[str]:
        out = set()
        for spec in self._specs.values():
            out.update(spec.emits)
        return sorted(out)

    def copy(self) -> "ActionRegistry":
        clone = ActionRegistry()
        clone._specs = dict(self._specs)
        return clone


def default_registry() -> ActionRegistry:
    """The registry with all built-in actions.

    Service discovery actions follow Sec. V; fault injection and
    environment manipulation actions follow Sec. IV-D.
    """
    reg = ActionRegistry()
    node = ActionKind.NODE
    env = ActionKind.ENVIRONMENT

    # --- Service discovery process actions (Sec. V) -------------------
    reg.register(ActionSpec(
        "sd_init", node,
        doc="Mandatory action to allow participation of a node in the SD. "
            "Parameter 'role': scm, su, sm (or su+sm); the registry "
            "family adds 'broker' and a 'replicas' count activating a "
            "prefix of the configured registry nodes.",
        emits=("sd_init_done", "scm_started", "scm_found", "sd_subscribed",
               "scm_gossip_sync"),
    ))
    reg.register(ActionSpec(
        "sd_exit", node,
        doc="Stops the previously started role and all assigned searches "
            "and publishings.",
        emits=("sd_exit_done",),
    ))
    reg.register(ActionSpec(
        "sd_start_search", node,
        doc="Initiates a continuous SD process for a given service type.",
        emits=("sd_start_search", "sd_service_add", "sd_service_del",
               "sd_subscribed"),
    ))
    reg.register(ActionSpec(
        "sd_stop_search", node,
        doc="Stops a previously started search.",
        emits=("sd_stop_search",),
    ))
    reg.register(ActionSpec(
        "sd_start_publish", node,
        doc="Starts publishing an instance of a given service type.",
        emits=("sd_start_publish", "scm_registration_add",
               "scm_registration_upd"),
    ))
    reg.register(ActionSpec(
        "sd_stop_publish", node,
        doc="Gracefully stops publishing of a given service type.",
        emits=("sd_stop_publish", "scm_registration_del"),
    ))
    reg.register(ActionSpec(
        "sd_update_publication", node,
        doc="Updates a previously published service description.",
        emits=("sd_service_upd", "scm_registration_upd"),
    ))

    # --- Node fault injection actions (Sec. IV-D1) --------------------
    for kind, params_doc in (
        ("iface_fault", "direction=rx|tx|both|random"),
        ("msg_loss", "probability, direction"),
        ("msg_delay", "delay seconds"),
        ("msg_reorder", "probability, delay seconds"),
        ("path_loss", "peer node, probability"),
        ("path_delay", "peer node, delay seconds"),
    ):
        reg.register(ActionSpec(
            f"{kind}_start", node,
            doc=f"Activate {kind.replace('_', ' ')} fault ({params_doc}); "
                "common parameters duration, rate, randomseed.",
            emits=(f"fault_{kind}_started",),
        ))
        reg.register(ActionSpec(
            f"{kind}_stop", node,
            doc=f"Deactivate {kind.replace('_', ' ')} fault.",
            emits=(f"fault_{kind}_stopped",),
        ))

    # --- Environment manipulation actions (Sec. IV-D2) ----------------
    reg.register(ActionSpec(
        "env_traffic_start", env,
        doc="Create network load between node pairs.  Parameters: bw "
            "(kbit/s), random_pairs (count), choice (0=all nodes, "
            "1=acting, 2=non-acting), random_seed, random_switch_amount, "
            "random_switch_seed, packet_size.",
        emits=("env_traffic_started",),
    ))
    reg.register(ActionSpec(
        "env_traffic_stop", env,
        doc="Stop generated load.",
        emits=("env_traffic_stopped",),
    ))
    reg.register(ActionSpec(
        "env_drop_all_start", env,
        doc="All experiment nodes stop receiving, sending and forwarding "
            "the experiment process packets.",
        emits=("env_drop_all_started",),
    ))
    reg.register(ActionSpec(
        "env_drop_all_stop", env,
        doc="Lift the drop-all manipulation.",
        emits=("env_drop_all_stopped",),
    ))
    reg.register(ActionSpec(
        "env_churn_start", env,
        doc="Seeded node churn (registry family).  Parameters: nodes "
            "(victim pool selector), mode (leave|crash), interval (mean "
            "seconds between events), downtime, random_seed, rejoin_role, "
            "replicas, republish.",
        emits=("env_churn_started", "env_churn_event"),
    ))
    reg.register(ActionSpec(
        "env_churn_stop", env,
        doc="Stop the churn schedule.",
        emits=("env_churn_stopped",),
    ))
    reg.register(ActionSpec(
        "env_population_start", env,
        doc="Client-population query load (registry family).  Parameters: "
            "users, per_user_qps, nodes (targets), dst_port, service_type, "
            "packet_size, choice (source pool).",
        emits=("env_population_started",),
    ))
    reg.register(ActionSpec(
        "env_population_stop", env,
        doc="Stop the population query load.",
        emits=("env_population_stopped",),
    ))
    reg.register(ActionSpec(
        "generic", node,
        doc="Arbitrary parameter list passed to the acting node "
            "(Sec. IV-D2's generic function).",
        emits=(),
    ))
    return reg
