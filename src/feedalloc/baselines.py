"""Comparison algorithms: global greedy (lazy), forward/online greedy,
max-weight matching, and the cardinality-constrained flow baseline plus its
greedy-augmented variant.

All reported rewards are recomputed through core.expected_reward; no
baseline-internal objective value is ever trusted.
"""

from __future__ import annotations

import bisect
import heapq
import math
import time

from . import matching
from .algorithms import backwards_greedy
from .core import Allocation, Mode, SolveReport, expected_reward


def _report(name, inst, entries, t0, counters=None, mode=Mode.MATCHING):
    alloc = Allocation(entries=tuple(entries), mode=mode)
    return SolveReport(algorithm=name, allocation=alloc,
                       expected_reward=expected_reward(inst, alloc),
                       wall_time=time.perf_counter() - t0,
                       counters=counters or {})


def _contributions(inst, entries):
    """Slot-sorted entry slots plus each entry's current contribution
    r * (1-q)^(slot + B(slot)) and the suffix sums of those contributions."""
    s = 1.0 - inst.quit_prob
    slots = [j for j, _ in entries]
    contribs = [inst.reward(i, j) * s ** (j + pos)
                for pos, (j, i) in enumerate(entries)]
    tail = [0.0] * (len(entries) + 1)
    for idx in range(len(entries) - 1, -1, -1):
        tail[idx] = tail[idx + 1] + contribs[idx]
    return slots, tail


def marginal_gain(inst, entries, slots, tail, i, j):
    """Exact f(M + (i,j)) - f(M) for a free ad/slot pair: the new edge's own
    discounted reward minus q times the contributions it pushes down."""
    s = 1.0 - inst.quit_prob
    pos = bisect.bisect_left(slots, j)
    return inst.reward(i, j) * s ** (j + pos) - inst.quit_prob * tail[pos]


def global_greedy(inst, max_assignments=None):
    """Repeatedly commit the (ad, slot) pair with the largest positive exact
    marginal gain.  A max-heap of cached bounds is kept and only the top
    entry is re-evaluated, until its refreshed gain dominates every other
    cached bound; gains are non-increasing over commits, so the cached
    values stay valid upper bounds.  Ties break to the lexicographically
    smallest (j, i).
    """
    t0 = time.perf_counter()
    s = 1.0 - inst.quit_prob
    limit = math.inf if max_assignments is None else max_assignments
    entries = []          # slot-sorted (slot, ad)
    used_ads = set()
    used_slots = set()
    slots, tail = _contributions(inst, entries)
    # initial gains on the empty allocation: r * (1-q)^j
    heap = [(-(r * s ** j), j, i) for i, j, r in inst.edges]
    heapq.heapify(heap)
    pops = reevals = commits = 0
    while heap and len(entries) < limit:
        neg_bound, j, i = heapq.heappop(heap)
        pops += 1
        if i in used_ads or j in used_slots:
            continue
        g = marginal_gain(inst, entries, slots, tail, i, j)
        reevals += 1
        if heap and -heap[0][0] > g:
            # a fresher candidate may beat this one; re-cache and retry
            heapq.heappush(heap, (-g, j, i))
            continue
        if g <= 0.0:
            break
        bisect.insort(entries, (j, i))
        used_ads.add(i)
        used_slots.add(j)
        slots, tail = _contributions(inst, entries)
        commits += 1
    return _report("global", inst, entries, t0,
                   {"pops": pops, "gain_evals": reevals, "commits": commits})


def forward_greedy(inst, max_assignments=None):
    """Online greedy: process slots 1..m in order and assign the unused ad
    with the largest (positive) reward, with no look-ahead."""
    t0 = time.perf_counter()
    limit = math.inf if max_assignments is None else max_assignments
    entries = []
    used = set()
    for j in range(1, inst.num_slots + 1):
        if len(entries) >= limit:
            break
        best_i, best_r = None, 0.0
        for i in inst.candidates(j):
            if i in used:
                continue
            r = inst.reward(i, j)
            if r > best_r:
                best_i, best_r = i, r
        if best_i is not None:
            entries.append((j, best_i))
            used.add(best_i)
    return _report("forward", inst, entries, t0, {"commits": len(entries)})


def auto_threshold(inst):
    """Default online threshold: best reward of an ad allocation to the
    first slot (0 if slot 1 has no incident edges)."""
    return max((inst.reward(i, 1) for i in inst.candidates(1)), default=0.0)


def online_threshold(inst, threshold="auto", max_assignments=None):
    """Online greedy with a pre-determined threshold: at each slot the best
    unused ad is assigned iff its reward exceeds the threshold."""
    t0 = time.perf_counter()
    thr = auto_threshold(inst) if threshold == "auto" else float(threshold)
    limit = math.inf if max_assignments is None else max_assignments
    entries = []
    used = set()
    for j in range(1, inst.num_slots + 1):
        if len(entries) >= limit:
            break
        best_i, best_r = None, -math.inf
        for i in inst.candidates(j):
            if i in used:
                continue
            r = inst.reward(i, j)
            if r > best_r:
                best_i, best_r = i, r
        if best_i is not None and best_r > thr:
            entries.append((j, best_i))
            used.add(best_i)
    return _report("online", inst, entries, t0,
                   {"commits": len(entries), "threshold": thr})


def _static_weights(inst):
    """Position-biased static weights w_ij = r_ij * (1-q)^j."""
    s = 1.0 - inst.quit_prob
    return [(i, j, r * s ** j) for i, j, r in inst.edges]


def mwm_baseline(inst):
    """Max-weight matching on static position-biased weights, scored by the
    true objective."""
    t0 = time.perf_counter()
    pairs, _w = matching.max_weight_matching(_static_weights(inst))
    entries = [(j, i) for i, j in pairs]
    return _report("mwm", inst, entries, t0, {"matched": len(entries)})


def flow_cardinality(q, n, m):
    """Size cap k(q) of the flow baseline: floor((1-q)/q), unbounded at q=0."""
    if q <= 0.0:
        return min(n, m)
    return int(math.floor((1.0 - q) / q))


def flow_baseline(inst, k_limit=None):
    """Cardinality-constrained static-weight matching: at most k(q) ads
    (optionally further capped by ``k_limit``), via a capped matching."""
    t0 = time.perf_counter()
    k = flow_cardinality(inst.quit_prob, inst.num_ads, inst.num_slots)
    if k_limit is not None:
        k = min(k, k_limit)
    if k <= 0:
        return _report("flow", inst, [], t0, {"cardinality_cap": k})
    pairs, _w = matching.constrained_max_weight_matching(_static_weights(inst), k)
    entries = [(j, i) for i, j in pairs]
    return _report("flow", inst, entries, t0,
                   {"cardinality_cap": k, "matched": len(entries)})


def flow_greedy(inst, k_limit=None):
    """Flow baseline followed by the exact-gain backward greedy sweep over
    the slots the flow left unmatched.  The flow-phase assignments are kept
    fixed (their ads are off-limits to the sweep); ads the sweep itself adds
    may still be re-assigned.  When the flow phase is empty this degenerates
    to plain backwards greedy.
    """
    t0 = time.perf_counter()
    base = flow_baseline(inst, k_limit=k_limit)
    sweep = backwards_greedy(inst, mode=Mode.MATCHING,
                             initial=base.allocation.entries,
                             frozen_slots=set(base.allocation.slots()))
    counters = dict(base.counters)
    counters["greedy_added"] = len(sweep.allocation) - len(base.allocation)
    return _report("flowg", inst, sweep.allocation.entries, t0, counters)
