"""Exception hierarchy of the experimentation environment."""

from __future__ import annotations

import re
from typing import Optional

__all__ = [
    "ExCoveryError",
    "DescriptionError",
    "ValidationError",
    "PlanError",
    "ExecutionError",
    "RunAbortedError",
    "RpcError",
    "RpcFault",
    "RpcTimeout",
    "StorageError",
    "RecoveryError",
    "PlatformError",
    "CampaignError",
    "node_token",
    "extract_node_id",
]

#: Errors that implicate one node carry this token in their message so the
#: node identity survives stringification across process-pool boundaries
#: (worker exceptions reach the campaign engine as text).
_NODE_TOKEN_RE = re.compile(r"\[node=([^\]\s]+)\]")


def node_token(node_id: str) -> str:
    """Render *node_id* as the message token ``[node=<id>]``."""
    return f"[node={node_id}]"


def extract_node_id(text: str) -> Optional[str]:
    """Recover a node id embedded via :func:`node_token`, or ``None``."""
    match = _NODE_TOKEN_RE.search(text or "")
    return match.group(1) if match else None


class ExCoveryError(Exception):
    """Base class for every error raised by the framework."""


class DescriptionError(ExCoveryError):
    """The experiment description is structurally broken (parse level)."""


class ValidationError(DescriptionError):
    """The description parsed but violates a semantic rule.

    Collects every violation found so the experimenter can fix them in one
    round instead of whack-a-mole.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        summary = "; ".join(self.problems[:5])
        if len(self.problems) > 5:
            summary += f" (+{len(self.problems) - 5} more)"
        super().__init__(f"{len(self.problems)} validation problem(s): {summary}")


class PlanError(ExCoveryError):
    """Treatment plan generation failed (e.g. empty factor level set)."""


class ExecutionError(ExCoveryError):
    """An experiment run failed in a way the master cannot compensate."""


class RunAbortedError(ExecutionError):
    """The run watchdog killed a run phase that overran its deadline.

    The campaign journals it as the run's failure, so a retry or a
    ``resume=True`` campaign replays the run.
    """

    def __init__(self, message: str, run_id: Optional[int] = None,
                 phase: Optional[str] = None):
        self.run_id = run_id
        self.phase = phase
        super().__init__(message)


class RpcError(ExCoveryError):
    """Transport-level control channel failure."""


class RpcFault(RpcError):
    """The remote procedure raised; carries the remote fault string."""

    def __init__(self, fault_code: int, fault_string: str):
        self.fault_code = fault_code
        self.fault_string = fault_string
        super().__init__(f"RPC fault {fault_code}: {fault_string}")


class RpcTimeout(RpcError):
    """A synchronous RPC missed its deadline (after any retries)."""

    def __init__(self, message: str, node_id: Optional[str] = None,
                 method: Optional[str] = None):
        self.node_id = node_id
        self.method = method
        super().__init__(message)


class StorageError(ExCoveryError):
    """A storage level could not be written or read."""


class RecoveryError(ExCoveryError):
    """Resuming an aborted experiment is impossible (description mismatch)."""


class PlatformError(ExCoveryError):
    """The target platform misses a required capability (Sec. IV-A)."""


class CampaignError(ExCoveryError):
    """The parallel campaign engine could not complete the plan."""
