"""Factors, levels and replication — the treatment side of the description.

Terminology follows Sec. II-A and the description elements of Sec. IV-C:

* A **factor** has an ``id``, a value ``type`` and a ``usage`` and holds a
  **set of levels** to be applied during the experiment.
* Usages seen in the paper's listings (Fig. 5):

  - ``blocking`` — a controllable nuisance factor fixed per block; varied
    slowest of all (outermost position in the OFAT nesting).
  - ``constant`` — a held-constant *series*: each level is held constant
    over a contiguous stretch of runs (OFAT order).
  - ``random`` — a design factor whose level order is randomized (from the
    experiment seed) on every cycle through its levels.
  - ``replication`` — the integer replication count (it is declared as a
    ``<replicationfactor>``, not an ordinary factor).

* The special type ``actor_node_map`` assigns abstract nodes to actor
  roles — its levels are mappings ``actor id -> instance id -> abstract
  node`` (Fig. 5's ``fact_nodes``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.core.errors import DescriptionError

__all__ = [
    "Usage",
    "ActorNodeMap",
    "Level",
    "Factor",
    "ReplicationFactor",
    "FactorList",
    "coerce_value",
]


class Usage(enum.Enum):
    """How a factor's levels are applied over the run sequence."""

    BLOCKING = "blocking"
    CONSTANT = "constant"
    RANDOM = "random"
    REPLICATION = "replication"

    @classmethod
    def parse(cls, text: str) -> "Usage":
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(u.value for u in cls)
            raise DescriptionError(f"unknown factor usage {text!r} (expected one of {valid})")


#: An actor-to-node assignment: ``{actor_id: {instance_id: abstract_node}}``.
ActorNodeMap = Dict[str, Dict[str, str]]

_SCALAR_TYPES = {"int", "float", "str", "bool"}
_ALL_TYPES = _SCALAR_TYPES | {"actor_node_map"}


def coerce_value(type_name: str, raw: Any) -> Any:
    """Coerce a raw (often textual) level value to the factor's type."""
    if type_name == "actor_node_map":
        if not isinstance(raw, dict):
            raise DescriptionError(f"actor_node_map level must be a mapping, got {raw!r}")
        return {
            str(actor): {str(inst): str(node) for inst, node in instances.items()}
            for actor, instances in raw.items()
        }
    if isinstance(raw, str):
        raw = raw.strip().strip('"')
    try:
        if type_name == "int":
            return int(raw)
        if type_name == "float":
            return float(raw)
        if type_name == "bool":
            if isinstance(raw, bool):
                return raw
            return str(raw).strip().lower() in {"1", "true", "yes"}
        if type_name == "str":
            return str(raw)
    except (TypeError, ValueError) as exc:
        raise DescriptionError(f"cannot coerce {raw!r} to {type_name}: {exc}") from exc
    raise DescriptionError(f"unknown factor type {type_name!r}")


@dataclass(frozen=True)
class Level:
    """One concrete value a factor can take."""

    value: Any

    def __repr__(self) -> str:  # pragma: no cover
        return f"Level({self.value!r})"


@dataclass
class Factor:
    """A treatment factor with its set of levels.

    Order of ``levels`` is meaningful: for OFAT-style usages it is the
    application order; for ``random`` it is the canonical order that the
    seeded shuffle permutes.
    """

    id: str
    type: str
    usage: Usage
    levels: List[Level] = field(default_factory=list)
    description: str = ""

    def __post_init__(self) -> None:
        if self.type not in _ALL_TYPES:
            raise DescriptionError(
                f"factor {self.id!r}: unknown type {self.type!r} "
                f"(expected one of {sorted(_ALL_TYPES)})"
            )
        if not self.id:
            raise DescriptionError("factor id must be non-empty")

    @property
    def level_values(self) -> List[Any]:
        return [lv.value for lv in self.levels]

    def is_constant(self) -> bool:
        """Single-level factors are constant regardless of declared usage."""
        return len(self.levels) == 1


@dataclass
class ReplicationFactor:
    """The replication count (Sec. IV-C: *Replication factor*)."""

    id: str = "fact_replication_id"
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise DescriptionError(f"replication count must be >= 1, got {self.count}")


class FactorList:
    """The ordered list of all factors (Sec. IV-C: *List of factors*).

    *"In an OFAT design the first factor varies least often during
    execution while the last factor changes every run."*
    """

    def __init__(
        self,
        factors: Optional[List[Factor]] = None,
        replication: Optional[ReplicationFactor] = None,
    ) -> None:
        self._factors: List[Factor] = []
        self._by_id: Dict[str, Factor] = {}
        self.replication = replication or ReplicationFactor()
        for factor in factors or []:
            self.add(factor)

    def add(self, factor: Factor) -> None:
        if factor.id in self._by_id or factor.id == self.replication.id:
            raise DescriptionError(f"duplicate factor id {factor.id!r}")
        if not factor.levels:
            raise DescriptionError(f"factor {factor.id!r} has an empty level set")
        self._factors.append(factor)
        self._by_id[factor.id] = factor

    def __iter__(self) -> Iterator[Factor]:
        return iter(self._factors)

    def __len__(self) -> int:
        return len(self._factors)

    def __contains__(self, factor_id: str) -> bool:
        return factor_id in self._by_id or factor_id == self.replication.id

    def get(self, factor_id: str) -> Factor:
        try:
            return self._by_id[factor_id]
        except KeyError:
            raise DescriptionError(f"unknown factor {factor_id!r}") from None

    def actor_map_factor(self) -> Optional[Factor]:
        """The (at most one) factor of type ``actor_node_map``."""
        maps = [f for f in self._factors if f.type == "actor_node_map"]
        if len(maps) > 1:
            raise DescriptionError("at most one actor_node_map factor is allowed")
        return maps[0] if maps else None

    def treatment_count(self) -> int:
        """Number of distinct treatments (product of level counts)."""
        count = 1
        for factor in self._factors:
            count *= len(factor.levels)
        return count

    def total_runs(self) -> int:
        return self.treatment_count() * self.replication.count

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FactorList {len(self._factors)} factors, "
            f"{self.treatment_count()} treatments x {self.replication.count} replications>"
        )
