"""The per-candidate decomposition routes the batched forest replaced, kept as references.

``reference_objective`` builds one greedy tree and one chain bound per
threshold vector; ``reference_refine_per_point`` is the one-trial-at-a-time
coordinate descent that called it.
"""

import numpy as np

from procsup.chaining import build_partition_greedy, chain_bound
from procsup.core import FiniteSet, distinct_rows
from procsup.decomposition import _magnitudes, _row_sums, split_rows
from procsup.moments import MomentModel


def reference_objective(ts, thresholds):
    """``(ell1_sup, gamma2)`` of one split, one tree per call."""
    heads, tails = split_rows(ts.matrix, thresholds)
    ell1_sup = float(_row_sums(np.abs(heads)).max())
    tails = np.concatenate([np.zeros((1, ts.dim)), tails])
    family = FiniteSet(name=f"{ts.name}-tails", points=tails[distinct_rows(tails)[0]])
    gamma = chain_bound(family, build_partition_greedy(family), MomentModel.GAUSSIAN_EXACT)
    return ell1_sup, gamma.value


def reference_refine_per_point(ts, start, passes=3):
    """Deterministic coordinate descent over per-point threshold grids, one trial per call."""
    best = list(start)
    best_obj = sum(reference_objective(ts, tuple(best)))
    for _ in range(passes):
        improved = False
        for i, row in enumerate(ts.matrix):
            for r in [0.0, *_magnitudes(row)]:
                if r == best[i]:
                    continue
                trial = best.copy()
                trial[i] = r
                obj = sum(reference_objective(ts, tuple(trial)))
                if obj < best_obj:
                    best, best_obj = trial, obj
                    improved = True
        if not improved:
            break
    return tuple(best)
