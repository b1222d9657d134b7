"""Comparison algorithms: global greedy (lazy), forward/online greedy,
max-weight matching, and the cardinality-constrained flow baseline plus its
greedy-augmented variant.

All reported rewards are recomputed through core.expected_reward; no
baseline-internal objective value is ever trusted.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

from . import matching
from .algorithms import backwards_greedy
from .core import Allocation, Mode, SolveReport, SuffixTree, expected_reward


def _report(name, inst, entries, t0, counters=None, mode=Mode.MATCHING):
    alloc = Allocation(entries=tuple(entries), mode=mode)
    return SolveReport(algorithm=name, allocation=alloc,
                       expected_reward=expected_reward(inst, alloc),
                       wall_time=time.perf_counter() - t0,
                       counters=counters or {})


def global_greedy(inst, max_assignments=None):
    """Repeatedly commit the (ad, slot) pair with the largest positive exact
    marginal gain.  For a free ad i and free slot j the gain is

        g = (1-q)^(j + B(j)) * (r_ij - q * f_j(M)),

    the new edge's own discounted reward minus the attention it takes from
    the entries after it, with B(j) = |M| - #entries after j.  f_j(M) and
    that count are read from a ``SuffixTree``, so a re-evaluation and a
    commit each take O(log m).

    At one slot every free ad shares the discount and f_j, so the gain is
    monotone in r_ij and only the slot's best free ad (largest r, then
    smallest i) can win.  Each slot's candidates are sorted once, and a
    max-heap holds one cached gain per slot.  Only the top slot is
    re-evaluated, until its refreshed gain dominates every other cached
    one; gains are non-increasing over commits and a slot's next ad has no
    larger reward, so a cached gain stays an upper bound for its slot.  A
    popped slot whose best ad is used elsewhere moves on to its next free
    ad under the same bound; a slot with no free ad left, or a committed
    one, leaves the heap.  Sorting costs O(|E| log |E|) and the heap holds
    at most m entries.

    Ties break to the smallest j, then to the largest r and the smallest i.
    That is the lexicographically smallest (j, i) among the largest gains,
    except where two different rewards at one slot give gains that round to
    the same float: there the larger r wins.
    """
    t0 = time.perf_counter()
    q = inst.quit_prob
    limit = math.inf if max_assignments is None else max_assignments
    tree = SuffixTree(inst.num_slots, q)
    powers = tree.powers
    # each slot's row positions by reward, the best (largest r, then
    # smallest i) last: the row's ads ascend and the stable sort takes the
    # positions in descending order, so equal rewards keep i descending
    rows = {}             # slot -> (ads, rewards, order)
    heap = []
    for j in range(1, inst.num_slots + 1):
        ads, rewards = inst.row(j)
        if ads:
            order = sorted(range(len(ads) - 1, -1, -1),
                           key=rewards.__getitem__)
            rows[j] = ads, rewards, order
            # initial gain on the empty allocation: r * (1-q)^j
            heap.append((-(rewards[order[-1]] * powers[j]), j))
    heapq.heapify(heap)
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
        after, fj = tree.suffix(j)
        g = powers[j + len(entries) - after] * (r - q * fj)
        reevals += 1
        fresh = (-g, j)
        if heap and heap[0] < fresh:
            # another slot may beat this one, or tie it with a smaller j;
            # re-cache and retry
            heapq.heappush(heap, fresh)
            continue
        if g <= 0.0:
            break
        entries.append((j, i))
        used_ads.add(i)
        tree.insert(j, r)
    return _report("global", inst, entries, t0,
                   {"pops": pops, "gain_evals": reevals,
                    "commits": len(entries)})


def _scan_slots(inst, threshold, max_assignments):
    """Process slots 1..m in order; at each, the unused ad with the largest
    reward (lowest index among ties) is committed iff that reward exceeds
    ``threshold``.  Returns the (slot, ad) entries."""
    limit = math.inf if max_assignments is None else max_assignments
    entries = []
    used = set()
    for j in range(1, inst.num_slots + 1):
        if len(entries) >= limit:
            break
        best_i, best_r = None, -math.inf
        for i, r in zip(*inst.row(j)):
            if r > best_r and i not in used:
                best_i, best_r = i, r
        if best_i is not None and best_r > threshold:
            entries.append((j, best_i))
            used.add(best_i)
    return entries


def forward_greedy(inst, max_assignments=None):
    """Online greedy: process slots 1..m in order and assign the unused ad
    with the largest (positive) reward, with no look-ahead."""
    t0 = time.perf_counter()
    entries = _scan_slots(inst, 0.0, max_assignments)
    return _report("forward", inst, entries, t0, {"commits": len(entries)})


def auto_threshold(inst):
    """Default online threshold: best reward of an ad allocation to the
    first slot (0 if slot 1 has no incident edges)."""
    return max(inst.row(1)[1], default=0.0)


def online_threshold(inst, threshold="auto", max_assignments=None):
    """Online greedy with a pre-determined threshold: at each slot the best
    unused ad is assigned iff its reward exceeds the threshold."""
    t0 = time.perf_counter()
    thr = auto_threshold(inst) if threshold == "auto" else float(threshold)
    entries = _scan_slots(inst, thr, max_assignments)
    return _report("online", inst, entries, t0,
                   {"commits": len(entries), "threshold": thr})


def _static_weights(inst):
    """Position-biased static weights w_ij = r_ij * (1-q)^j, as an
    (|E|, 3) array of (ad, slot, weight) rows, built without a tuple per
    edge."""
    s = 1.0 - inst.quit_prob
    powers = np.array([s ** k for k in range(inst.num_slots + 1)])
    edges = np.array(inst.edges, dtype=np.float64).reshape(-1, 3)
    edges[:, 2] *= powers[edges[:, 1].astype(np.intp)]
    return edges


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


def flow_baseline(inst, max_assignments=None):
    """Cardinality-constrained static-weight matching: at most k(q) ads, or
    ``max_assignments`` if fewer, via a capped matching."""
    t0 = time.perf_counter()
    k = flow_cardinality(inst.quit_prob, inst.num_ads, inst.num_slots)
    if max_assignments is not None:
        k = min(k, max_assignments)
    if k <= 0:
        return _report("flow", inst, [], t0, {"cardinality_cap": k})
    pairs, _w = matching.constrained_max_weight_matching(_static_weights(inst), k)
    entries = [(j, i) for i, j in pairs]
    return _report("flow", inst, entries, t0,
                   {"cardinality_cap": k, "matched": len(entries)})


def flow_greedy(inst):
    """Flow baseline followed by the exact-gain backward greedy sweep over
    the slots the flow left unmatched.  The flow-phase assignments are kept
    fixed (their ads are off-limits to the sweep); ads the sweep itself adds
    may still be re-assigned.  When the flow phase is empty this degenerates
    to plain backwards greedy.
    """
    t0 = time.perf_counter()
    base = flow_baseline(inst)
    sweep = backwards_greedy(inst, mode=Mode.MATCHING,
                             initial=base.allocation.entries)
    counters = dict(base.counters)
    counters["greedy_added"] = len(sweep.allocation) - len(base.allocation)
    return _report("flowg", inst, sweep.allocation.entries, t0, counters)
