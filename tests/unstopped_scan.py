"""The slot scan of ``forward`` and ``online`` before it stopped once every
ad was placed, kept as their oracle: it reads every occupied slot until the
cap is met."""

import math

from feedalloc.core import size_cap


def unstopped_scan_slots(inst, threshold, max_assignments):
    """``baselines._scan_slots`` with no stop at the last free ad."""
    limit = size_cap(max_assignments)
    entries, used = [], set()
    for j, row in inst.rows():
        if len(entries) >= limit:
            break
        best_i, best_r = None, -math.inf
        for i, r in zip(*row):
            if r > best_r and i not in used:
                best_i, best_r = i, r
        if best_i is not None and best_r > threshold:
            entries.append((j, best_i))
            used.add(best_i)
    return entries
