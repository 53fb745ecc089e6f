"""Field-by-field reference for RandomMutationPolicy.propose.

The straightforward uniform proposal: for each block, draw the target
with rng.integers(4), build the block's candidate list, draw the
replacement with rng.integers over the candidates or the active ops, and
take each log-probability from np.log of the candidate count. The package
reads the candidates and the logs from per-space tables built once;
agreement in every logged value and in the generator's state afterwards
checks that the tables change no draw.
"""

import numpy as np

from evocell.arch_space import CELL_PREV1, CELL_PREV2, CellSpec, Op
from evocell.controller import MutationAction, MutationTrace, MutTarget


def _log_count(n: int) -> float:
    return float(np.log(float(n)))


def reference_propose(cell: CellSpec, rng: np.random.Generator) -> MutationTrace:
    actions = []
    total_lp = 0.0
    total_h = 0.0
    log4 = _log_count(4)
    for b in range(1, cell.num_blocks + 1):
        target = MutTarget(int(rng.integers(4)))
        if target in (MutTarget.I1, MutTarget.I2):
            refs = list(range(1, b)) + [CELL_PREV1, CELL_PREV2]
            replacement = refs[int(rng.integers(len(refs)))]
            n = len(refs)
        else:
            replacement = Op(int(rng.integers(cell.num_ops)))
            n = cell.num_ops
        log_n = _log_count(n)
        router_lp, repl_lp = -log4, -log_n
        actions.append(
            MutationAction(
                block=b,
                target=target,
                replacement=replacement,
                router_logprob=router_lp,
                replace_logprob=repl_lp,
                router_entropy=log4,
                replace_entropy=log_n,
            )
        )
        total_lp += router_lp + repl_lp
        total_h += log4 + log_n
    return MutationTrace(tuple(actions), total_lp, total_h)
