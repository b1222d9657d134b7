"""``global_greedy`` before it shared the sweeps' entry list, kept as its
oracle: a slot-ascending list closed at slot m + 1, a separate list of the
committed entries, and its own loop that re-runs the recursion down to the
entry a re-evaluation reads."""

import heapq
import math
import time
from bisect import bisect_right

from feedalloc.core import discount_powers, solve_report


def ascending_global_greedy(inst, max_assignments=None):
    """global_greedy before it kept the sweeps' slot-descending list."""
    t0 = time.perf_counter()
    q = inst.quit_prob
    s = 1.0 - q
    limit = math.inf if max_assignments is None else max_assignments
    # exponents j + B(j) stay below 2m
    powers = discount_powers(q, 2 * inst.num_slots)
    # each slot's row positions by reward, the best (largest r, then
    # smallest i) last: the row's ads ascend and the stable sort takes the
    # positions in descending order, so equal rewards keep i descending
    rows = {}             # slot -> (ads, rewards, order)
    heap = []
    for j, (ads, rewards) in inst.rows():
        order = sorted(range(len(ads) - 1, -1, -1), key=rewards.__getitem__)
        rows[j] = ads, rewards, order
        # initial gain on the empty allocation: r * (1-q)^j
        heap.append((-(rewards[order[-1]] * powers[j]), j))
    heapq.heapify(heap)
    # slot-ascending entries, closed by a zero reward at slot m + 1
    slots, entry_rewards, fs = [inst.num_slots + 1], [0.0], [0.0]
    fresh = 0             # fs[p] is f_{slots[p]}(M) for p >= fresh
    entries = []
    used_ads = set()
    pops = reevals = 0
    while heap and len(entries) < limit:
        _neg_bound, j = heapq.heappop(heap)
        pops += 1
        ads, rewards, order = rows[j]
        while order and ads[order[-1]] in used_ads:
            order.pop()
        if not order:
            continue
        r, i = rewards[order[-1]], ads[order[-1]]
        p = bisect_right(slots, j)    # the first entry after j
        if p < fresh and q:           # at q = 0 the gain ignores f_j
            for k in range(fresh - 1, p - 1, -1):
                fs[k] = powers[slots[k + 1] - slots[k]] \
                    * (entry_rewards[k + 1] + s * fs[k + 1])
            fresh = p
        fj = powers[slots[p] - j] * (entry_rewards[p] + s * fs[p])
        g = powers[j + p] * (r - q * fj)
        reevals += 1
        key = (-g, j)
        if heap and heap[0] < key:
            # another slot may beat this one, or tie it with a smaller j;
            # re-cache and retry
            heapq.heappush(heap, key)
            continue
        if g <= 0.0:
            break
        entries.append((j, i))
        used_ads.add(i)
        slots.insert(p, j)
        entry_rewards.insert(p, r)
        fs.insert(p, fj)
        fresh = p         # the entries below j are stale
    return solve_report("global", inst, entries, t0,
                        {"pops": pops, "gain_evals": reevals,
                         "commits": len(entries)})
