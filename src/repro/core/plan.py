"""Treatment plan generation.

Sec. IV-C1: *"To execute the overall experiment and its individual runs
from the abstract experiment description, ExCovery generates treatment
plans from replications, the factors and their levels.  Plans are OFAT if
no custom factor level variation plan is given."*

Plan structure
--------------
The factor list is interpreted as a nesting of loops: *"the first factor
varies least often during execution while the last factor changes every
run"* — i.e. the first factor is the outermost loop.  Replication is the
treatment-level repeat: each treatment is executed ``replication.count``
times in a row before the next treatment starts (Fig. 5: "Each treatment
will be repeated 1000 times").

Factors with usage ``random`` get their level order re-shuffled — from the
experiment seed, deterministically — on every cycle through their levels,
implementing randomization without sacrificing repeatability.

A *custom plan* (explicit list of treatments) overrides all of this, which
is the paper's escape hatch for non-OFAT designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.core.errors import PlanError
from repro.core.factors import Factor, FactorList, Usage
from repro.sim.rng import RngRegistry, derive_seed

__all__ = ["Run", "TreatmentPlan", "generate_plan"]


@dataclass(frozen=True)
class Run:
    """One experiment run: a treatment plus its replication index.

    Attributes
    ----------
    run_id:
        Zero-based position in the execution order; also the identifier
        used by storage and recovery.
    treatment_index:
        Which distinct treatment this run applies.
    replication:
        Zero-based replication counter within the treatment.
    treatment:
        ``{factor_id: level_value}``, including the replication factor's
        id mapped to the replication index (Fig. 7 references
        ``fact_replication_id`` as a factor to key randomization).
    seed:
        Run-specific seed derived from the experiment seed and ``run_id``.
    """

    run_id: int
    treatment_index: int
    replication: int
    treatment: Dict[str, Any]
    seed: int

    def describe(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "treatment_index": self.treatment_index,
            "replication": self.replication,
            "treatment": dict(self.treatment),
            "seed": self.seed,
        }


class TreatmentPlan:
    """The ordered list of runs for one experiment."""

    def __init__(self, runs: List[Run], factor_ids: List[str]) -> None:
        if not runs:
            raise PlanError("plan contains no runs")
        self.runs = runs
        self.factor_ids = factor_ids

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[Run]:
        return iter(self.runs)

    def __getitem__(self, idx: int) -> Run:
        return self.runs[idx]

    @property
    def treatment_count(self) -> int:
        return len({run.treatment_index for run in self.runs})

    def treatments(self) -> List[Dict[str, Any]]:
        """The distinct treatments in first-appearance order."""
        seen: Dict[int, Dict[str, Any]] = {}
        for run in self.runs:
            seen.setdefault(run.treatment_index, run.treatment)
        return [seen[k] for k in sorted(seen)]

    def describe(self) -> List[Dict[str, Any]]:
        """Serialization-friendly dump (stored with the experiment: the
        'complete experiment plan with the exact sequence of treatments',
        Sec. IV)."""
        return [run.describe() for run in self.runs]

    def fingerprint(self) -> str:
        """Stable content hash of the exact run sequence.

        Guards campaign resumes: the description fingerprint does not
        cover a programmatic ``custom_treatments`` plan, so the campaign
        journal stores this hash to refuse mixing two run sequences.
        """
        import hashlib
        import json

        blob = json.dumps(self.describe(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _level_order(
    factor: Factor,
    cycle: int,
    rngs: RngRegistry,
) -> List[Any]:
    """Application order of *factor*'s levels for its *cycle*-th pass."""
    values = factor.level_values
    if factor.usage is Usage.RANDOM and len(values) > 1:
        order = list(values)
        rngs.fresh("plan", factor.id, cycle).shuffle(order)
        return order
    return values


def _expand(
    factors: Sequence[Factor],
    rngs: RngRegistry,
    prefix: Dict[str, Any],
    cycle_counters: Dict[str, int],
) -> Iterator[Dict[str, Any]]:
    """Depth-first expansion of the OFAT nesting (first factor outermost)."""
    if not factors:
        yield dict(prefix)
        return
    head, rest = factors[0], factors[1:]
    cycle = cycle_counters.get(head.id, 0)
    cycle_counters[head.id] = cycle + 1
    for value in _level_order(head, cycle, rngs):
        prefix[head.id] = value
        yield from _expand(rest, rngs, prefix, cycle_counters)
    del prefix[head.id]


def generate_plan(
    factor_list: FactorList,
    experiment_seed: int,
    custom_treatments: Optional[List[Dict[str, Any]]] = None,
) -> TreatmentPlan:
    """Generate the run sequence for an experiment.

    Parameters
    ----------
    factor_list:
        Factors, levels and replication from the description.
    experiment_seed:
        The seed declared in the description; drives the ``random`` usage
        shuffles and the per-run seeds.
    custom_treatments:
        Optional explicit treatment sequence (each a full
        ``{factor_id: value}`` mapping) replacing the OFAT expansion — the
        paper's "custom factor level variation plan".
    """
    rngs = RngRegistry(experiment_seed)
    factor_ids = [f.id for f in factor_list]

    if custom_treatments is not None:
        treatments = []
        for i, t in enumerate(custom_treatments):
            missing = [fid for fid in factor_ids if fid not in t]
            if missing:
                raise PlanError(f"custom treatment #{i} missing factors: {missing}")
            unknown = [fid for fid in t if fid not in factor_list]
            if unknown:
                raise PlanError(f"custom treatment #{i} has unknown factors: {unknown}")
            treatments.append({fid: t[fid] for fid in factor_ids})
    else:
        # Note on cycle counting: in a nested expansion the k-th factor
        # cycles once per combination of its ancestors, so re-shuffles of a
        # `random` factor differ between passes.
        treatments = list(_expand(list(factor_list), rngs, {}, {}))

    if not treatments:
        raise PlanError("factor expansion produced no treatments")

    replication = factor_list.replication
    runs: List[Run] = []
    run_id = 0
    for t_index, treatment in enumerate(treatments):
        for rep in range(replication.count):
            full = dict(treatment)
            # The replication index is addressable like a factor (Fig. 7
            # uses it to key the traffic generator's randomization so that
            # replications of a treatment see identical load patterns).
            full[replication.id] = rep
            runs.append(
                Run(
                    run_id=run_id,
                    treatment_index=t_index,
                    replication=rep,
                    treatment=full,
                    seed=derive_seed(experiment_seed, "run", run_id),
                )
            )
            run_id += 1
    return TreatmentPlan(runs, factor_ids)
