"""Service discovery domain model (Sec. III).

*"An abstract service, also known as service type or service class, is
provided by concrete service instances in the network."*  A
:class:`ServiceInstance` is one provider's offering of one service type,
with the description data an SM publishes: identity, type, interface
location (address/port) and optional attributes.

This module also fixes the **event vocabulary** of Sec. V — the names the
experiment descriptions (Figs. 9/10) wait on.  SD events carry
``(service_identifier, provider_node)`` parameter pairs so that the
``param_dependency`` of Fig. 10 (which selects *nodes*) matches directly
against the provider identity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Tuple

__all__ = [
    "Role",
    "ServiceInstance",
    "instance_name",
    # event vocabulary (Sec. V)
    "EVENT_SD_INIT_DONE",
    "EVENT_SD_EXIT_DONE",
    "EVENT_SD_START_SEARCH",
    "EVENT_SD_STOP_SEARCH",
    "EVENT_SD_SERVICE_ADD",
    "EVENT_SD_SERVICE_DEL",
    "EVENT_SD_SERVICE_UPD",
    "EVENT_SD_START_PUBLISH",
    "EVENT_SD_STOP_PUBLISH",
    "EVENT_SCM_STARTED",
    "EVENT_SCM_FOUND",
    "EVENT_SCM_REGISTRATION_ADD",
    "EVENT_SCM_REGISTRATION_DEL",
    "EVENT_SCM_REGISTRATION_UPD",
    "EVENT_SD_SUBSCRIBED",
    "EVENT_SCM_GOSSIP_SYNC",
    "SD_EVENT_NAMES",
]

EVENT_SD_INIT_DONE = "sd_init_done"
EVENT_SD_EXIT_DONE = "sd_exit_done"
EVENT_SD_START_SEARCH = "sd_start_search"
EVENT_SD_STOP_SEARCH = "sd_stop_search"
EVENT_SD_SERVICE_ADD = "sd_service_add"
EVENT_SD_SERVICE_DEL = "sd_service_del"
EVENT_SD_SERVICE_UPD = "sd_service_upd"
EVENT_SD_START_PUBLISH = "sd_start_publish"
EVENT_SD_STOP_PUBLISH = "sd_stop_publish"
EVENT_SCM_STARTED = "scm_started"
EVENT_SCM_FOUND = "scm_found"
EVENT_SCM_REGISTRATION_ADD = "scm_registration_add"
EVENT_SCM_REGISTRATION_DEL = "scm_registration_del"
EVENT_SCM_REGISTRATION_UPD = "scm_registration_upd"
#: A subscriber (client or broker) received its snapshot of the registry
#: state and is now on the push path (registry/broker family).
EVENT_SD_SUBSCRIBED = "sd_subscribed"
#: A registry replica merged at least one record from a gossip peer.
EVENT_SCM_GOSSIP_SYNC = "scm_gossip_sync"

#: Every event name of the Sec. V vocabulary.
SD_EVENT_NAMES = (
    EVENT_SD_INIT_DONE,
    EVENT_SD_EXIT_DONE,
    EVENT_SD_START_SEARCH,
    EVENT_SD_STOP_SEARCH,
    EVENT_SD_SERVICE_ADD,
    EVENT_SD_SERVICE_DEL,
    EVENT_SD_SERVICE_UPD,
    EVENT_SD_START_PUBLISH,
    EVENT_SD_STOP_PUBLISH,
    EVENT_SCM_STARTED,
    EVENT_SCM_FOUND,
    EVENT_SCM_REGISTRATION_ADD,
    EVENT_SCM_REGISTRATION_DEL,
    EVENT_SCM_REGISTRATION_UPD,
    EVENT_SD_SUBSCRIBED,
    EVENT_SCM_GOSSIP_SYNC,
)


class Role(enum.Enum):
    """The SD roles of the Dabrowski model (Sec. III-A).

    ``BROKER`` extends the model for the registry family: a relay that
    subscribes to the registry on behalf of clients and fans record
    changes out to them — neither a service user nor a manager itself.
    """

    SU = "su"
    SM = "sm"
    SU_SM = "su+sm"
    SCM = "scm"
    BROKER = "broker"

    @classmethod
    def parse(cls, text: str) -> "Role":
        text = (text or "su").strip().lower()
        for role in cls:
            if role.value == text:
                return role
        raise ValueError(
            f"unknown SD role {text!r} (expected su, sm, su+sm, scm or broker)"
        )

    @property
    def is_manager(self) -> bool:
        return self in (Role.SM, Role.SU_SM)


def instance_name(service_type: str, provider_node: str) -> str:
    """Canonical service identifier: ``<provider>.<type>``.

    The provider's host name scopes the instance, like DNS-SD instance
    names scope under the service type.
    """
    return f"{provider_node}.{service_type}"


@dataclass(frozen=True)
class ServiceInstance:
    """One provider's service description.

    Attributes mirror Sec. III-A: *"The SM identity, a service type
    specification, an interface location or network address and
    optionally, various additional attributes."*
    """

    name: str
    service_type: str
    provider_node: str
    address: str
    port: int = 0
    ttl: float = 120.0
    version: int = 1
    attributes: Dict[str, str] = field(default_factory=dict)

    def bumped(self) -> "ServiceInstance":
        """A copy with an incremented description version (update)."""
        return replace(self, version=self.version + 1)

    def as_wire(self) -> Dict[str, Any]:
        """Flat representation carried inside protocol messages."""
        return {
            "name": self.name,
            "type": self.service_type,
            "provider": self.provider_node,
            "address": self.address,
            "port": self.port,
            "ttl": self.ttl,
            "version": self.version,
            "attributes": dict(self.attributes),
        }

    @staticmethod
    def from_wire(wire: Dict[str, Any]) -> "ServiceInstance":
        return ServiceInstance(
            name=wire["name"],
            service_type=wire["type"],
            provider_node=wire["provider"],
            address=wire["address"],
            port=int(wire.get("port", 0)),
            ttl=float(wire.get("ttl", 120.0)),
            version=int(wire.get("version", 1)),
            attributes=dict(wire.get("attributes", {})),
        )

    def event_params(self) -> Tuple[str, str]:
        """The ``(identifier, provider)`` pair SD events carry."""
        return (self.name, self.provider_node)
