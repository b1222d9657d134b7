"""Reducing an allocation to at most k ads.

Greedy pruning removes one entry at a time, each time the one whose removal
loses the least expected reward (losses are recomputed after every removal;
a removal can even gain, since dropping an ad restores attention for the
ads after it).  Greedy/online algorithms are instead simply stopped after k
commitments, through their ``max_assignments`` argument.
"""

from __future__ import annotations

from .core import Allocation, checked_pairs, entry_suffixes, size_cap
# unused, but perfbench/spans.py traces each solver module's expected_reward
from .core import expected_reward  # noqa: F401


def prune_to_k(inst, alloc, k):
    """Iteratively remove the min-loss entry until at most k remain.
    Loss ties break towards removing the highest slot index.

    Removing the entry of rank p (0-based, slot order) at slot j_p loses

        (1-q)^(j_p + p) * (r_p - q * f_{j_p}(M)),

    its own contribution minus the attention it held back from the entries
    after it.  One ``entry_suffixes`` pass scores every entry, so the cost
    is O(|M|^2) over all removals.
    """
    k = size_cap(k)
    q = inst.quit_prob
    s = 1.0 - q
    pairs = list(checked_pairs(inst, alloc))  # a copy: removals edit it
    ads = alloc.ads()
    while len(pairs) > k:
        f = entry_suffixes(pairs, q)
        best_idx, best_e, best_tau = None, 0, 0.0
        # descending slot order so ties keep the first (highest) slot seen;
        # (1-q)^e * tau is compared relative to the best e: (1-q)^e underflows
        for idx in range(len(pairs) - 1, -1, -1):
            slot, r = pairs[idx]
            e, tau = slot + idx, r - q * f[idx]
            if best_idx is None or tau < s ** (best_e - e) * best_tau:
                best_idx, best_e, best_tau = idx, e, tau
        del pairs[best_idx], ads[best_idx]
    return Allocation(entries=tuple((j, i) for (j, _r), i in zip(pairs, ads)),
                      mode=alloc.mode)
