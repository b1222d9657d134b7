"""Reducing an allocation to at most k ads.

Greedy pruning removes one entry at a time, each time the one whose removal
loses the least expected reward (losses are recomputed after every removal;
a removal can even gain, since dropping an ad restores attention for the
ads after it).  Greedy/online algorithms are instead simply stopped after k
commitments, through their ``max_assignments`` argument.
"""

from __future__ import annotations

from .core import Allocation, expected_reward


def prune_to_k(inst, alloc, k):
    """Iteratively remove the min-loss entry until at most k remain.
    Loss ties break towards removing the highest slot index."""
    if k < 0:
        raise ValueError("k must be >= 0")
    entries = list(alloc.entries)
    current = expected_reward(inst, Allocation(tuple(entries), alloc.mode))
    while len(entries) > k:
        best_idx, best_loss, best_value = None, None, None
        # descending slot order so ties keep the first (highest) slot seen
        for idx in range(len(entries) - 1, -1, -1):
            trial = entries[:idx] + entries[idx + 1:]
            value = expected_reward(inst, Allocation(tuple(trial), alloc.mode))
            loss = current - value
            if best_loss is None or loss < best_loss:
                best_idx, best_loss, best_value = idx, loss, value
        entries.pop(best_idx)
        current = best_value
    return Allocation(entries=tuple(entries), mode=alloc.mode)
