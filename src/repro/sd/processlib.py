"""Ready-made SD experiment process descriptions (Sec. V, Figs. 9–11).

These builders produce :class:`~repro.core.description.ExperimentDescription`
objects for the canonical case-study scenarios so examples, tests and
benchmarks don't each re-assemble the Fig. 9/10 sequences by hand.

``build_two_party_description``
    The exact scenario of Figs. 9/10: one or more SMs publish, one or more
    SUs search until every SM is discovered or a deadline expires, with an
    optional traffic-generation environment process (Fig. 7) driven by the
    factor list of Fig. 5.
``build_three_party_description``
    The same discovery task in the centralized architecture: an additional
    SCM actor runs the directory; SUs/SMs use the SLP (or hybrid) agent.
``build_registry_description``
    The explicit-registry family (:mod:`repro.sd.registry`): dedicated
    registry-replica actors (plus optional broker-relay actors), a
    registry-replica-count factor, and optional churn / client-population
    environment processes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.description import (
    ActorDescription,
    EnvironmentProcess,
    ExperimentDescription,
    PlatformNode,
    PlatformSpec,
)
from repro.core.factors import Factor, FactorList, Level, ReplicationFactor, Usage
from repro.core.processes import (
    DomainAction,
    EventFlag,
    FactorRef,
    NodeSelector,
    WaitForEvent,
    WaitForTime,
    WaitMarker,
)

__all__ = [
    "sm_actions",
    "su_actions",
    "scm_actions",
    "registry_sm_actions",
    "registry_su_actions",
    "registry_server_actions",
    "build_two_party_description",
    "build_three_party_description",
    "build_registry_description",
]

#: Default service type of the case study.
SERVICE_TYPE = "_exp._udp"


def sm_actions(service_type: str = SERVICE_TYPE) -> list:
    """The publisher role of Fig. 9: publish until ``done``."""
    return [
        DomainAction(name="sd_init", params={"role": "sm"}),
        DomainAction(name="sd_start_publish", params={"type": service_type}),
        WaitForEvent(event="done"),
        DomainAction(name="sd_stop_publish", params={"type": service_type}),
        DomainAction(name="sd_exit"),
    ]


#: Every SM instance (actor0), the nodes an SU waits on.
_ALL_SMS = NodeSelector(actor="actor0", instance="all")


def _every_sm_added(deadline: float) -> WaitForEvent:
    """Wait until every SU (actor1) has added every SM's service."""
    return WaitForEvent(
        event="sd_service_add",
        from_nodes=NodeSelector(actor="actor1", instance="all"),
        param_nodes=_ALL_SMS,
        timeout=deadline,
    )


def su_actions(
    service_type: str = SERVICE_TYPE,
    deadline: float = 30.0,
    settle_after_publish: float = 0.0,
) -> list:
    """The requester role of Fig. 10 (SMs are ``actor0``, SUs ``actor1``).

    Waits for every SM instance to start publishing (and the environment's
    ``ready_to_init``), initializes, searches until every SM's service was
    added or *deadline* elapsed, then raises ``done`` and cleans up.

    ``settle_after_publish`` inserts the fixed preparation delay Fig. 11
    describes ("This phase ends a fixed time after the event
    sd_start_publish ... to let unsolicited announcements pass").
    """
    actions: list = [
        WaitForEvent(event="sd_start_publish", from_nodes=_ALL_SMS),
        WaitForEvent(event="ready_to_init"),
    ]
    if settle_after_publish > 0:
        actions.append(WaitForTime(seconds=settle_after_publish))
    actions += [
        DomainAction(name="sd_init", params={"role": "su"}),
        WaitMarker(),
        DomainAction(name="sd_start_search", params={"type": service_type}),
        _every_sm_added(deadline),
        EventFlag(value="done"),
        DomainAction(name="sd_stop_search", params={"type": service_type}),
        DomainAction(name="sd_exit"),
    ]
    return actions


def scm_actions() -> list:
    """The directory role: run the SCM until the SUs are done."""
    return [
        DomainAction(name="sd_init", params={"role": "scm"}),
        WaitForEvent(event="done"),
        DomainAction(name="sd_exit"),
    ]


def registry_sm_actions(replicas: object = None) -> list:
    """The provider role of the registry family.

    Unlike :func:`sm_actions` there is no ``sd_stop_publish``: under a
    churn schedule the environment may have sd_exit'ed this node already,
    and ``sd_stop_publish`` on an uninitialized agent is an error while
    ``sd_exit`` is not.  The registry's record TTL handles revocation.
    """
    init_params: dict = {"role": "sm"}
    if replicas is not None:
        init_params["replicas"] = replicas
    return [
        DomainAction(name="sd_init", params=init_params),
        DomainAction(name="sd_start_publish", params={"type": SERVICE_TYPE}),
        WaitForEvent(event="done"),
        DomainAction(name="sd_exit"),
    ]


def registry_su_actions(replicas: object = None, hold_time: float = 0.0) -> list:
    """The requester role of the registry family (Fig. 10 shape).

    ``hold_time`` keeps the discovered system under observation for a
    fixed window after first discovery before raising ``done`` — churn
    and population manipulations act during that window (lost/rediscovered
    services land in the event record as ``sd_service_del``/``_add``).
    """
    init_params: dict = {"role": "su"}
    if replicas is not None:
        init_params["replicas"] = replicas
    actions: list = [
        WaitForEvent(event="sd_start_publish", from_nodes=_ALL_SMS),
        WaitForEvent(event="ready_to_init"),
        DomainAction(name="sd_init", params=init_params),
        WaitMarker(),
        DomainAction(name="sd_start_search", params={"type": SERVICE_TYPE}),
        _every_sm_added(30.0),
    ]
    if hold_time > 0:
        actions.append(WaitForTime(seconds=hold_time))
    actions += [
        EventFlag(value="done"),
        DomainAction(name="sd_stop_search", params={"type": SERVICE_TYPE}),
        DomainAction(name="sd_exit"),
    ]
    return actions


def registry_server_actions(role: str = "scm", replicas: object = None) -> list:
    """A registry replica (``scm``) or broker relay (``broker``)."""
    init_params: dict = {"role": role}
    if replicas is not None:
        init_params["replicas"] = replicas
    return [
        DomainAction(name="sd_init", params=init_params),
        WaitForEvent(event="done"),
        DomainAction(name="sd_exit"),
    ]


def _env_traffic_actions() -> list:
    """The environment process of Fig. 7 (traffic generation)."""
    return [
        EventFlag(value="ready_to_init"),
        DomainAction(
            name="env_traffic_start",
            params={
                "bw": FactorRef("fact_bw"),
                "choice": 0,
                "random_switch_amount": 1,
                "random_switch_seed": FactorRef("fact_replication_id"),
                "random_pairs": FactorRef("fact_pairs"),
                "random_seed": FactorRef("fact_pairs"),
            },
        ),
        WaitForEvent(event="done"),
        DomainAction(name="env_traffic_stop"),
    ]


def _env_ready_only() -> list:
    """Minimal environment process: just raise ``ready_to_init``."""
    return [EventFlag(value="ready_to_init")]


def _abstract_names(count: int, prefix: str) -> List[str]:
    return [f"{prefix}{i}" for i in range(count)]


def _platform_spec(abstract: Sequence[str], env_count: int) -> PlatformSpec:
    """Fig. 8-style platform spec: hostnames (``t9-100``, ``t9-101``, …)
    + addresses for all nodes."""
    spec = PlatformSpec()
    idx = 0
    for abs_id in abstract:
        spec.add(
            PlatformNode(
                node_id=f"t9-1{idx:02d}",
                address=f"10.0.0.{idx + 1}",
                abstract_id=abs_id,
            )
        )
        idx += 1
    for _ in range(env_count):
        spec.add(
            PlatformNode(node_id=f"t9-1{idx:02d}", address=f"10.0.0.{idx + 1}")
        )
        idx += 1
    return spec


def _factor_list(
    actor_map: Dict[str, Dict[str, str]],
    replications: int,
    pairs_levels: Optional[Sequence[int]],
    bw_levels: Optional[Sequence[int]],
) -> FactorList:
    factors = [
        Factor(
            id="fact_nodes",
            type="actor_node_map",
            usage=Usage.BLOCKING,
            levels=[Level(actor_map)],
        )
    ]
    if pairs_levels is not None:
        factors.append(
            Factor(
                id="fact_pairs",
                type="int",
                usage=Usage.RANDOM,
                levels=[Level(int(v)) for v in pairs_levels],
            )
        )
    if bw_levels is not None:
        factors.append(
            Factor(
                id="fact_bw",
                type="int",
                usage=Usage.CONSTANT,
                levels=[Level(int(v)) for v in bw_levels],
                description="datarate generated load",
            )
        )
    return FactorList(
        factors, ReplicationFactor(id="fact_replication_id", count=replications)
    )


def build_two_party_description(
    name: str = "sd-two-party",
    seed: int = 1,
    sm_count: int = 1,
    su_count: int = 1,
    env_count: int = 4,
    replications: int = 3,
    deadline: float = 30.0,
    traffic: bool = False,
    pairs_levels: Optional[Sequence[int]] = None,
    bw_levels: Optional[Sequence[int]] = None,
    service_type: str = SERVICE_TYPE,
    settle_after_publish: float = 0.0,
    special_params: Optional[Dict] = None,
) -> ExperimentDescription:
    """The Figs. 4/5/7/9/10 scenario as one description.

    With ``traffic=True`` the factor list carries ``fact_pairs`` and
    ``fact_bw`` (defaults: the paper's {5, 20} pairs x {10, 50, 100}
    kbit/s) and the Fig. 7 environment process drives the generator.
    """
    sm_abstract = _abstract_names(sm_count, "SM")
    su_abstract = _abstract_names(su_count, "SU")
    actor_map = {
        "actor0": {str(i): node for i, node in enumerate(sm_abstract)},
        "actor1": {str(i): node for i, node in enumerate(su_abstract)},
    }
    if traffic:
        pairs_levels = pairs_levels if pairs_levels is not None else (5, 20)
        bw_levels = bw_levels if bw_levels is not None else (10, 50, 100)
        env_actions = _env_traffic_actions()
    else:
        pairs_levels = None
        bw_levels = None
        env_actions = _env_ready_only()

    desc = ExperimentDescription(
        name=name,
        seed=seed,
        parameters={
            "sd_architecture": "two-party",
            "sd_protocol": "zeroconf",
            "sd_mode": "active",
        },
        abstract_nodes=sm_abstract + su_abstract,
        factors=_factor_list(actor_map, replications, pairs_levels, bw_levels),
        actors=[
            ActorDescription("actor0", name="SM", actions=sm_actions(service_type)),
            ActorDescription(
                "actor1",
                name="SU",
                actions=su_actions(
                    service_type=service_type,
                    deadline=deadline,
                    settle_after_publish=settle_after_publish,
                ),
            ),
        ],
        environment_processes=[EnvironmentProcess(actions=env_actions)],
        platform=_platform_spec(sm_abstract + su_abstract, env_count),
        special_params=dict(special_params or {}),
    )
    return desc


def build_three_party_description(
    name: str = "sd-three-party",
    seed: int = 1,
    env_count: int = 4,
    replications: int = 3,
    deadline: float = 30.0,
) -> ExperimentDescription:
    """The centralized variant, one SM and one SU, no generated load:
    actor2 runs the SCM (directory)."""
    desc = build_two_party_description(
        name=name,
        seed=seed,
        env_count=env_count,
        replications=replications,
        deadline=deadline,
    )
    desc.parameters["sd_architecture"] = "three-party"
    desc.parameters["sd_protocol"] = "slp"
    scm_abstract = "SCM0"
    desc.abstract_nodes.append(scm_abstract)
    map_factor = desc.factors.actor_map_factor()
    map_factor.levels[0].value["actor2"] = {"0": scm_abstract}
    desc.actors.append(ActorDescription("actor2", name="SCM", actions=scm_actions()))
    # Rebuild the platform spec to cover the extra abstract node.
    desc.platform = _platform_spec(desc.abstract_nodes, env_count)
    return desc


def build_registry_description(
    name: str = "sd-registry",
    seed: int = 1,
    sm_count: int = 1,
    registry_count: int = 1,
    broker_count: int = 0,
    env_count: int = 4,
    replications: int = 3,
    replica_levels: Optional[Sequence[int]] = None,
    churn: bool = False,
    churn_interval_levels: Optional[Sequence[float]] = None,
    population: bool = False,
    population_levels: Optional[Sequence[int]] = None,
    hold_time: float = 0.0,
    special_params: Optional[Dict] = None,
) -> ExperimentDescription:
    """The registry-family scenario (ROADMAP item 4).

    actor0 = providers (SM), actor1 = the client (one SU), actor2 = registry
    replicas, actor3 = broker relays (when ``broker_count > 0``, which
    also switches the clients to ``broker`` dissemination via the
    ``sd_dissemination`` special parameter).

    Factors: ``fact_replicas`` sweeps the active-replica count over
    ``replica_levels`` (default: the full ``registry_count``); with
    ``churn=True`` a seeded churn schedule runs against the providers (a
    provider leaves and stays away 1 s) and ``fact_churn_interval`` sweeps
    its cadence; with ``population=True`` ``fact_users`` sweeps the
    simulated client population, 0.1 queries/s per user (Sec. IV-D2's
    traffic generator shaped as registry queries).  The client searches
    for at most 30 s.
    """
    sm_abstract = _abstract_names(sm_count, "SM")
    su_abstract = _abstract_names(1, "SU")
    reg_abstract = _abstract_names(registry_count, "REG")
    brk_abstract = _abstract_names(broker_count, "BRK")
    abstract = sm_abstract + su_abstract + reg_abstract + brk_abstract

    actor_map = {
        "actor0": {str(i): node for i, node in enumerate(sm_abstract)},
        "actor1": {str(i): node for i, node in enumerate(su_abstract)},
        "actor2": {str(i): node for i, node in enumerate(reg_abstract)},
    }
    if broker_count:
        actor_map["actor3"] = {str(i): node for i, node in enumerate(brk_abstract)}

    replicas_ref = FactorRef("fact_replicas")
    factors = [
        Factor(
            id="fact_nodes",
            type="actor_node_map",
            usage=Usage.BLOCKING,
            levels=[Level(actor_map)],
        ),
        Factor(
            id="fact_replicas",
            type="int",
            usage=Usage.CONSTANT,
            levels=[Level(int(v)) for v in (replica_levels or (registry_count,))],
            description="active registry replicas",
        ),
    ]
    if churn:
        factors.append(
            Factor(
                id="fact_churn_interval",
                type="float",
                usage=Usage.CONSTANT,
                levels=[Level(float(v)) for v in (churn_interval_levels or (2.0,))],
                description="mean seconds between churn events",
            )
        )
    if population:
        factors.append(
            Factor(
                id="fact_users",
                type="int",
                usage=Usage.CONSTANT,
                levels=[Level(int(v)) for v in (population_levels or (100,))],
                description="simulated client population size",
            )
        )

    env_actions: list = [EventFlag(value="ready_to_init")]
    if churn:
        env_actions.append(
            DomainAction(
                name="env_churn_start",
                params={
                    "nodes": NodeSelector(actor="actor0", instance="all"),
                    "mode": "leave",
                    "interval": FactorRef("fact_churn_interval"),
                    "downtime": 1.0,
                    "random_seed": FactorRef("fact_replication_id"),
                    "rejoin_role": "sm",
                    "replicas": replicas_ref,
                },
            )
        )
    if population:
        # Brokers absorb the query load in broker mode; the registry
        # replicas do in direct mode.
        target_actor = "actor3" if broker_count else "actor2"
        env_actions.append(
            DomainAction(
                name="env_population_start",
                params={
                    "users": FactorRef("fact_users"),
                    "per_user_qps": 0.1,
                    "nodes": NodeSelector(actor=target_actor, instance="all"),
                    "dst_port": 7447,
                    "service_type": SERVICE_TYPE,
                    "choice": 0,
                },
            )
        )
    env_actions.append(WaitForEvent(event="done"))
    if population:
        env_actions.append(DomainAction(name="env_population_stop"))
    if churn:
        env_actions.append(DomainAction(name="env_churn_stop"))

    actors = [
        ActorDescription(
            "actor0",
            name="SM",
            actions=registry_sm_actions(replicas=replicas_ref),
        ),
        ActorDescription(
            "actor1",
            name="SU",
            actions=registry_su_actions(replicas=replicas_ref, hold_time=hold_time),
        ),
        ActorDescription(
            "actor2",
            name="REG",
            actions=registry_server_actions("scm", replicas=replicas_ref),
        ),
    ]
    if broker_count:
        actors.append(
            ActorDescription(
                "actor3",
                name="BRK",
                actions=registry_server_actions("broker", replicas=replicas_ref),
            )
        )

    special = {"sd_registry_nodes": " ".join(reg_abstract)}
    if broker_count:
        special["sd_broker_nodes"] = " ".join(brk_abstract)
        special["sd_dissemination"] = "broker"
    special.update(special_params or {})

    desc = ExperimentDescription(
        name=name,
        seed=seed,
        parameters={
            "sd_architecture": "registry",
            "sd_protocol": "registry",
            "sd_mode": "broker" if broker_count else "direct",
        },
        abstract_nodes=abstract,
        factors=FactorList(
            factors, ReplicationFactor(id="fact_replication_id", count=replications)
        ),
        actors=actors,
        environment_processes=[EnvironmentProcess(actions=env_actions)],
        platform=_platform_spec(abstract, env_count),
        special_params=special,
    )
    return desc
