"""Classic experiment designs as custom treatment plans (Sec. II-A2/3).

The paper grounds ExCovery in design-of-experiments practice: treatment
design, error control design (replication, blocking, randomization) and
sampling design, citing Dean/Voss and Montgomery.  The default plan is
OFAT; this module generates the *custom factor level variation plans*
(Sec. IV-C1) for the standard error-control designs, to be passed as
``generate_plan(..., custom_treatments=...)``:

:func:`completely_randomized_design`
    All treatment applications in fully random order — "an experiment
    design is called completely randomized when all treatment factors can
    be randomized" (Sec. II-A3).  Note this randomizes the *temporal
    order* of runs, so it returns per-run treatments with replication
    handled internally (use ``replication_count=1`` in the factor list).
:func:`randomized_complete_block_design`
    One block per level of a blocking factor; within each block, every
    combination of the remaining factors appears once, in seeded random
    order — "partitioning observations into groups ... collected under
    similar experimental conditions".
:func:`latin_square_design`
    Two blocking factors with k levels each and one treatment factor with
    k levels: each treatment level appears exactly once per row and per
    column.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List

from repro.core.errors import PlanError
from repro.core.factors import FactorList
from repro.sim.rng import RngRegistry

__all__ = [
    "completely_randomized_design",
    "randomized_complete_block_design",
    "latin_square_design",
]


def _grid(factor_list: FactorList) -> List[Dict[str, Any]]:
    factors = list(factor_list)
    combos = itertools.product(*(f.level_values for f in factors))
    return [
        {f.id: value for f, value in zip(factors, combo)} for combo in combos
    ]


def completely_randomized_design(
    factor_list: FactorList,
    seed: int,
    replications: int = 1,
) -> List[Dict[str, Any]]:
    """Every treatment x replication, in one fully randomized order.

    The returned list is a custom plan: pass it to ``generate_plan`` with
    the factor list's own replication count set to 1, since the
    randomization here already covers replication placement (otherwise
    replications would again be contiguous, defeating the design).
    """
    if replications < 1:
        raise PlanError(f"replications must be >= 1, got {replications}")
    treatments = _grid(factor_list) * replications
    rng = RngRegistry(seed).fresh("design", "crd")
    rng.shuffle(treatments)
    return treatments


def randomized_complete_block_design(
    factor_list: FactorList,
    blocking_factor_id: str,
    seed: int,
) -> List[Dict[str, Any]]:
    """Blocks by the given factor; within-block order randomized.

    The blocking factor's levels are visited in declared order (blocks
    are usually physical: a day, a node set, a channel); all combinations
    of the *other* factors run once per block, shuffled per block.
    """
    blocking = factor_list.get(blocking_factor_id)
    others = [f for f in factor_list if f.id != blocking_factor_id]
    if not others:
        raise PlanError("a blocked design needs at least one treatment factor")
    rngs = RngRegistry(seed)
    plan: List[Dict[str, Any]] = []
    for block_idx, block_level in enumerate(blocking.level_values):
        combos = [
            {f.id: value for f, value in zip(others, combo)}
            for combo in itertools.product(*(f.level_values for f in others))
        ]
        rngs.fresh("design", "rcbd", block_idx).shuffle(combos)
        for combo in combos:
            treatment = dict(combo)
            treatment[blocking_factor_id] = block_level
            plan.append(treatment)
    return plan


def latin_square_design(
    factor_list: FactorList,
    row_factor_id: str,
    col_factor_id: str,
    treatment_factor_id: str,
    seed: int,
) -> List[Dict[str, Any]]:
    """A k x k Latin square over two blocking factors.

    All three factors must have the same number of levels k.  The square
    is drawn from the cyclic square by independently permuting rows,
    columns and symbols (the standard randomization), seeded.
    """
    row = factor_list.get(row_factor_id)
    col = factor_list.get(col_factor_id)
    trt = factor_list.get(treatment_factor_id)
    k = len(row.levels)
    if not (len(col.levels) == len(trt.levels) == k):
        raise PlanError(
            "latin square needs equal level counts: "
            f"{row_factor_id}={len(row.levels)}, {col_factor_id}={len(col.levels)}, "
            f"{treatment_factor_id}={len(trt.levels)}"
        )
    rngs = RngRegistry(seed)
    row_perm = list(range(k))
    col_perm = list(range(k))
    sym_perm = list(range(k))
    rngs.fresh("design", "ls", "rows").shuffle(row_perm)
    rngs.fresh("design", "ls", "cols").shuffle(col_perm)
    rngs.fresh("design", "ls", "syms").shuffle(sym_perm)

    plan: List[Dict[str, Any]] = []
    other = [
        f for f in factor_list
        if f.id not in (row_factor_id, col_factor_id, treatment_factor_id)
    ]
    for f in other:
        if not f.is_constant():
            raise PlanError(
                f"latin square: extra factor {f.id!r} must be held constant "
                "(single level)"
            )
    constants = {f.id: f.level_values[0] for f in other}
    for i in range(k):
        for j in range(k):
            symbol = sym_perm[(row_perm[i] + col_perm[j]) % k]
            treatment = dict(constants)
            treatment[row_factor_id] = row.level_values[i]
            treatment[col_factor_id] = col.level_values[j]
            treatment[treatment_factor_id] = trt.level_values[symbol]
            plan.append(treatment)
    return plan
